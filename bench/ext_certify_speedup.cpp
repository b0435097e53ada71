// Extension experiment: end-to-end speedup of the certification engine on
// a table1-style ratio sweep (the paper strategy family x stochastic
// noise models, certified denominators per trial). Three paths over the
// identical workload:
//
//   legacy      -- the pre-engine sequential loop: one direct
//                  certified_cmax per trial, no cache, no parallelism;
//   engine-seq  -- measure_ratio_trials through one shared CertifyEngine,
//                  sequential (cache + canonicalization + warm starts);
//   engine-par  -- the same engine path fanned over a ThreadPool.
//
// Every strategy replays the same realizations, so engine paths certify
// each unique realization once instead of once per strategy. The harness
// verifies engine-seq and engine-par return bit-identical per-trial
// ratios, reports the max abs deviation from the legacy series (nonzero
// only in the last ulps: canonical solves renormalize by the largest
// task), and writes a machine-readable summary.
//
// Usage: ext_certify_speedup [--n=22] [--m=8] [--trials=40]
//        [--alphas=1.25,1.5,2.0] [--threads=8] [--budget=300000]
//        [--out=BENCH_certify.json]
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algo/strategy.hpp"
#include "cli/args.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "exact/certify.hpp"
#include "exact/optimal.hpp"
#include "exp/ratio_experiment.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Cell {
  double alpha = 0;
  std::size_t strategy = 0;
  NoiseModel noise = NoiseModel::kUniform;
};

constexpr std::uint64_t kSeed = 1234;

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto n = args.integer<std::size_t>("n", 22, 1, "tasks");
  const auto m = args.integer<MachineId>("m", 8, 1, "machines");
  const auto trials = args.integer<std::size_t>("trials", 40, 1, "trials per point");
  const auto threads = args.integer<std::size_t>("threads", 8, 0, "workers");
  const auto budget = args.integer<std::uint64_t>("budget", 300'000, 0, "node budget");
  const std::vector<double> alphas = args.reals("alphas", "1.25,1.5,2.0", "alphas");
  const std::string out_path =
      args.text("out", "BENCH_certify.json", "write the JSON record here");
  args.finish_or_exit();

  const std::vector<TwoPhaseStrategy> strategies = paper_strategy_family(m);
  const NoiseModel noises[] = {NoiseModel::kUniform, NoiseModel::kTwoPoint};

  std::vector<Instance> instances;
  for (const double alpha : alphas) {
    WorkloadParams params;
    params.num_tasks = n;
    params.num_machines = m;
    params.alpha = alpha;
    params.seed = 42;
    instances.push_back(uniform_workload(params));
  }

  std::vector<Cell> cells;
  for (std::size_t a = 0; a < alphas.size(); ++a) {
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      for (const NoiseModel noise : noises) {
        cells.push_back(Cell{alphas[a], s, noise});
      }
    }
  }
  const auto instance_of = [&](const Cell& cell) -> const Instance& {
    for (std::size_t a = 0; a < alphas.size(); ++a) {
      if (alphas[a] == cell.alpha) return instances[a];
    }
    return instances.front();
  };

  std::cout << "=== certify-engine speedup: " << cells.size() << " cells x "
            << trials << " trials (n=" << n << ", m=" << m
            << ", budget=" << budget << ", threads=" << threads << ") ===\n";

  // ---- path 1: legacy sequential (pre-engine behaviour) -----------------
  std::vector<std::vector<double>> legacy(cells.size());
  const auto legacy_start = Clock::now();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const Instance& inst = instance_of(cell);
    const TwoPhaseStrategy& strategy = strategies[cell.strategy];
    const Placement placement = strategy.place(inst);
    legacy[c].reserve(trials);
    for (std::size_t t = 0; t < trials; ++t) {
      const Realization actual = realize(inst, cell.noise, kSeed + t);
      const DispatchResult dispatched =
          dispatch_with_rule(inst, placement, actual, strategy.rule());
      const CertifiedCmax opt = certified_cmax(actual.actual, m, budget);
      legacy[c].push_back(dispatched.schedule.makespan() / opt.lower);
    }
  }
  const double legacy_seconds = seconds_since(legacy_start);
  std::cout << "legacy sequential: " << legacy_seconds << " s\n";

  // ---- path 2: engine, sequential ---------------------------------------
  const auto run_engine = [&](ThreadPool* pool) {
    CertifyEngine engine;
    RatioExperimentConfig config;
    config.exact_node_budget = budget;
    config.engine = &engine;
    config.pool = pool;
    std::vector<std::vector<double>> ratios(cells.size());
    const auto start = Clock::now();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      const std::vector<RatioTrial> series =
          measure_ratio_trials(strategies[cell.strategy], instance_of(cell),
                               cell.noise, trials, kSeed, config);
      ratios[c].reserve(trials);
      for (const RatioTrial& trial : series) ratios[c].push_back(trial.ratio);
    }
    const double elapsed = seconds_since(start);
    return std::make_pair(std::move(ratios), std::make_pair(elapsed, engine.cache_stats()));
  };

  auto [engine_seq, seq_meta] = run_engine(nullptr);
  const double engine_seq_seconds = seq_meta.first;
  const CertifyCacheStats seq_stats = seq_meta.second;
  std::cout << "engine sequential: " << engine_seq_seconds << " s (hit rate "
            << seq_stats.hit_rate() << ")\n";

  // ---- path 3: engine, parallel -----------------------------------------
  ThreadPool pool(threads);
  auto [engine_par, par_meta] = run_engine(&pool);
  const double engine_par_seconds = par_meta.first;
  const CertifyCacheStats par_stats = par_meta.second;
  std::cout << "engine parallel (" << pool.num_threads()
            << " threads): " << engine_par_seconds << " s (hit rate "
            << par_stats.hit_rate() << ")\n";

  // ---- verification ------------------------------------------------------
  std::size_t bit_mismatches = 0;
  double max_abs_diff_vs_legacy = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t t = 0; t < trials; ++t) {
      if (std::bit_cast<std::uint64_t>(engine_seq[c][t]) !=
          std::bit_cast<std::uint64_t>(engine_par[c][t])) {
        ++bit_mismatches;
      }
      max_abs_diff_vs_legacy = std::max(
          max_abs_diff_vs_legacy, std::abs(engine_seq[c][t] - legacy[c][t]));
    }
  }
  const double speedup_seq = legacy_seconds / engine_seq_seconds;
  const double speedup_par = legacy_seconds / engine_par_seconds;

  TextTable table({"quantity", "value"});
  table.add_row({"legacy seconds", fmt(legacy_seconds, 3)});
  table.add_row({"engine-seq seconds", fmt(engine_seq_seconds, 3)});
  table.add_row({"engine-par seconds", fmt(engine_par_seconds, 3)});
  table.add_row({"speedup (seq)", fmt(speedup_seq, 2) + "x"});
  table.add_row({"speedup (par)", fmt(speedup_par, 2) + "x"});
  table.add_row({"cache hit rate", fmt(par_stats.hit_rate(), 4)});
  table.add_row({"seq/par bit mismatches", std::to_string(bit_mismatches)});
  table.add_row({"max |engine - legacy|", fmt(max_abs_diff_vs_legacy, 12)});
  std::cout << table.render();

  // ---- machine-readable summary ------------------------------------------
  JsonObject root;
  JsonObject params;
  params["n"] = JsonValue(static_cast<double>(n));
  params["m"] = JsonValue(static_cast<double>(m));
  params["trials"] = JsonValue(static_cast<double>(trials));
  params["threads"] = JsonValue(static_cast<double>(pool.num_threads()));
  params["budget"] = JsonValue(static_cast<double>(budget));
  JsonArray alpha_array;
  for (const double alpha : alphas) alpha_array.push_back(JsonValue(alpha));
  params["alphas"] = JsonValue(std::move(alpha_array));
  root["params"] = JsonValue(std::move(params));

  JsonObject timing;
  timing["legacy_seconds"] = JsonValue(legacy_seconds);
  timing["engine_seq_seconds"] = JsonValue(engine_seq_seconds);
  timing["engine_par_seconds"] = JsonValue(engine_par_seconds);
  timing["speedup_seq"] = JsonValue(speedup_seq);
  timing["speedup_par"] = JsonValue(speedup_par);
  root["timing"] = JsonValue(std::move(timing));

  JsonObject cache;
  cache["hits"] = JsonValue(static_cast<double>(par_stats.hits));
  cache["misses"] = JsonValue(static_cast<double>(par_stats.misses));
  cache["hit_rate"] = JsonValue(par_stats.hit_rate());
  cache["evictions"] = JsonValue(static_cast<double>(par_stats.evictions));
  root["cache"] = JsonValue(std::move(cache));

  JsonObject checks;
  checks["seq_par_bit_mismatches"] = JsonValue(static_cast<double>(bit_mismatches));
  checks["max_abs_diff_vs_legacy"] = JsonValue(max_abs_diff_vs_legacy);
  root["checks"] = JsonValue(std::move(checks));

  JsonArray series;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    double mean = 0, worst = 0;
    for (const double r : engine_seq[c]) {
      mean += r;
      worst = std::max(worst, r);
    }
    mean /= static_cast<double>(trials);
    JsonObject row;
    row["alpha"] = JsonValue(cells[c].alpha);
    row["strategy"] = JsonValue(strategies[cells[c].strategy].name());
    row["noise"] = JsonValue(to_string(cells[c].noise));
    row["mean_ratio"] = JsonValue(mean);
    row["worst_ratio"] = JsonValue(worst);
    series.push_back(JsonValue(std::move(row)));
  }
  root["series"] = JsonValue(std::move(series));

  std::ofstream file(out_path);
  file << JsonValue(std::move(root)).dump(2) << "\n";
  std::cout << "JSON written to " << out_path << "\n";

  if (bit_mismatches != 0) {
    std::cerr << "FAIL: parallel ratios are not bit-identical to sequential\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
