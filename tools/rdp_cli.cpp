// rdp_cli -- the library as a command-line tool. Subcommands compose via
// files (instances and traces in the library's CSV dialects):
//
//   rdp_cli generate --kind=uniform --n=40 --m=8 --alpha=1.5 --seed=1
//           --out=inst.csv
//   rdp_cli realize  --instance=inst.csv --noise=two-point --seed=7
//           --out=trace.csv
//   rdp_cli run      --instance=inst.csv --strategy=ls-group:2
//           [--trace=trace.csv | --noise=uniform --seed=7]
//           [--svg=gantt.svg] [--json=result.json]
//   rdp_cli sweep    --instance=inst.csv --strategy=ls-group:2 --trials=64
//           --threads=4 --ratios --metrics-out=metrics.json --trace-out=run.json
//   rdp_cli bounds   --m=8 --alpha=1.5
//
// Every command declares its flags where it reads them (cli/args.hpp), so
// `rdp_cli <command> --help` is generated from the reads themselves and an
// undeclared, repeated or malformed flag is a usage error before any work.
// Every command prints a human-readable summary; `run`, `sweep` and
// `serve` --json reports also record the resolved flag set. The global
// flags (Session below) install observability sinks for the command's
// duration: a metrics snapshot, a wall-clock trace, a sampled JSONL time
// series and the task-lifecycle flight recording.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rdp.hpp"

namespace {

using namespace rdp;

/// Exit codes, pinned by the CLI tests: bad usage (unknown command, bad
/// or missing flags -- anything surfacing as std::invalid_argument) is 2
/// with a usage hint; runtime failures (I/O, gate regressions) are 1.
constexpr int kExitUsage = 2;

/// The global flags every command accepts and the observability sinks
/// they install for the command's duration.
class Session {
 public:
  /// Declares the global flags and runs the finishing step on the whole
  /// command line (std::invalid_argument on any bad flag). Returns false
  /// on --help, when the command must return without running; otherwise
  /// installs the requested sinks.
  bool start(Args& args) {
    metrics_path_ = args.text("metrics-out", "", "write a metrics snapshot (JSON)");
    trace_path_ = args.text("trace-out", "", "write a Chrome trace (.jsonl: JSONL)");
    sample_path_ = args.text("sample-out", "", "append sampled metrics (JSONL)");
    const auto period =
        args.integer<std::int64_t>("sample-period", 1000, 1, "ms between samples");
    timeline_path_ = args.text("timeline-out", "", "write the flight recording (JSONL)");
    constexpr std::size_t kCapacity = obs::TimelineRecorder::kDefaultCapacity;
    const auto capacity =
        args.integer<std::size_t>("timeline-capacity", kCapacity, 0, "event cap");
    const bool debug_checks = args.toggle("debug-checks", "re-validate every schedule");
    if (args.finish()) return false;

    // --sample-out needs a registry to sample, so it implies one even
    // without --metrics-out (the snapshot then only feeds the series).
    if (!metrics_path_.empty() || !sample_path_.empty()) {
      registry_ = std::make_unique<obs::MetricsRegistry>();
    }
    if (!trace_path_.empty()) tracer_ = std::make_unique<obs::Tracer>();
    if (!timeline_path_.empty()) {
      timeline_ = std::make_unique<obs::TimelineRecorder>(capacity);
    }
    scope_.emplace(registry_.get(), tracer_.get());
    timeline_scope_.emplace(timeline_.get());
    // Constructed after the scope so it samples the installed registry and
    // is stopped (final sample + flush) before the scope unwinds.
    if (!sample_path_.empty()) {
      obs::RunSamplerOptions options;
      options.path = sample_path_;
      options.period = std::chrono::milliseconds(period);
      sampler_ = std::make_unique<obs::RunSampler>(nullptr, options);
    }
    if (debug_checks) check::set_debug_checks(true);
    return true;
  }

  /// Stops the sampler and writes every requested output. The timeline
  /// export is traced as a span in the command's category.
  void save(const char* command) {
    if (sampler_) {
      sampler_->stop();
      std::cout << sampler_->samples() << " sample(s) written to " << sample_path_
                << "\n";
    }
    if (timeline_) {
      {
        obs::ScopedSpan span(tracer_.get(), "obs.timeline.save", command);
        timeline_->save(timeline_path_);
      }
      std::cout << timeline_->size() << " timeline event(s) written to "
                << timeline_path_;
      if (timeline_->dropped() > 0) {
        std::cout << " (" << timeline_->dropped() << " dropped at capacity "
                  << timeline_->capacity() << ")";
      }
      std::cout << "\n";
    }
    if (registry_ && !metrics_path_.empty()) {
      registry_->save_json(metrics_path_);
      std::cout << "metrics written to " << metrics_path_ << "\n";
    }
    if (tracer_) {
      tracer_->save(trace_path_);
      std::cout << "trace written to " << trace_path_ << "\n";
    }
  }

 private:
  std::string metrics_path_, trace_path_, sample_path_, timeline_path_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::TimelineRecorder> timeline_;
  std::optional<obs::ObservabilityScope> scope_;
  std::optional<obs::TimelineScope> timeline_scope_;
  std::unique_ptr<obs::RunSampler> sampler_;
};

/// "p50 / p90 / p99" of a histogram summary, for the report tables.
std::string quantiles(const obs::HistogramSummary& h) {
  return fmt(h.p50, 4) + " / " + fmt(h.p90, 4) + " / " + fmt(h.p99, 4);
}

NoiseModel noise_from_name(const std::string& name) {
  for (NoiseModel model : all_noise_models()) {
    if (to_string(model) == name) return model;
  }
  throw std::invalid_argument("unknown noise model '" + name + "'");
}

/// The synthetic-workload flags of generate and serve (serve sizes the
/// workload by its arrivals, so it reads no --n).
struct WorkloadFlags {
  std::string kind;
  WorkloadParams params;
};

WorkloadFlags workload_flags(Args& args, bool with_n) {
  WorkloadFlags w;
  w.kind = args.text("kind", "uniform", "workload kind (see the usage text)");
  if (with_n) w.params.num_tasks = args.integer<std::size_t>("n", 40, 1, "tasks");
  w.params.num_machines = args.integer<MachineId>("m", 8, 1, "machines");
  w.params.alpha = args.real("alpha", 1.5, "uncertainty factor alpha");
  w.params.seed = args.integer<std::uint64_t>("seed", 1, 0, "random seed");
  return w;
}

Instance generate_instance(const std::string& kind, const WorkloadParams& params) {
  if (kind == "uniform") return uniform_workload(params);
  if (kind == "heavy-tailed") return heavy_tailed_workload(params);
  if (kind == "bimodal") return bimodal_workload(params);
  if (kind == "lognormal") return lognormal_workload(params);
  if (kind == "correlated") return correlated_sizes_workload(params);
  if (kind == "anti-correlated") return anti_correlated_sizes_workload(params);
  if (kind == "independent") return independent_sizes_workload(params);
  if (kind == "unit") {
    return unit_tasks(params.num_tasks, params.num_machines, params.alpha);
  }
  if (kind.rfind("profile:", 0) == 0) {
    const WorkloadProfile& profile = profile_by_name(kind.substr(8));
    return profile.build(params.num_tasks, params.num_machines, profile.alpha,
                         params.seed);
  }
  throw std::invalid_argument("unknown workload kind '" + kind + "'");
}

/// Writes a --json report. It records the resolved flag set (defaults
/// included), so the report alone reproduces its run, and the metrics
/// snapshot when --metrics-out installed a registry.
void save_report(ExperimentReport& report, const Args& args, const std::string& path) {
  for (const auto& [name, value] : args.resolved()) report.set_param("--" + name, value);
  if (obs::MetricsRegistry* mx = obs::metrics()) report.attach_metrics(mx->snapshot());
  report.save_json(path);
  std::cout << "JSON written to " << path << "\n";
}

int cmd_generate(Args& args, Session& session) {
  const WorkloadFlags w = workload_flags(args, true);
  const std::string out = args.required("out", "instance CSV to write");
  if (!session.start(args)) return EXIT_SUCCESS;
  const Instance inst = generate_instance(w.kind, w.params);
  save_instance(out, inst);
  std::cout << "wrote " << inst.summary() << " to " << out << "\n";
  return EXIT_SUCCESS;
}

int cmd_realize(Args& args, Session& session) {
  const std::string in = args.required("instance", "instance CSV");
  const std::string out = args.required("out", "trace CSV to write");
  const NoiseModel model = noise_from_name(args.text("noise", "uniform", "noise model"));
  const auto seed = args.integer<std::uint64_t>("seed", 1, 0, "noise seed");
  if (!session.start(args)) return EXIT_SUCCESS;
  const Instance inst = load_instance(in);
  const Realization actual = realize(inst, model, seed);
  save_trace(out, make_synthetic_trace(inst, actual));
  std::cout << "wrote trace (" << inst.num_tasks() << " records, noise "
            << to_string(model) << ") to " << out << "\n";
  return EXIT_SUCCESS;
}

int cmd_run(Args& args, Session& session) {
  const std::string in = args.required("instance", "instance CSV");
  const std::string trace_path = args.text("trace", "", "replay this trace's actuals");
  const NoiseModel model = noise_from_name(args.text("noise", "uniform", "noise model"));
  const auto seed = args.integer<std::uint64_t>("seed", 1, 0, "noise seed");
  const TwoPhaseStrategy strategy = strategy_from_spec(
      args.text("strategy", "lpt-no-restriction", "strategy spec"));
  const std::string svg_path = args.text("svg", "", "write a Gantt chart (SVG)");
  const std::string json_path = args.text("json", "", "write a JSON report");
  if (!session.start(args)) return EXIT_SUCCESS;
  Instance inst = load_instance(in);

  Realization actual;
  if (!trace_path.empty()) {
    const ReplayableWorkload workload =
        workload_from_trace(load_trace(trace_path), inst.num_machines());
    inst = workload.instance;
    actual = workload.actual;
  } else {
    actual = realize(inst, model, seed);
  }

  const StrategyResult result = strategy.run(inst, actual);
  const CertifiedCmax opt = certified_cmax(actual.actual, inst.num_machines());
  const ScheduleStats stats = compute_schedule_stats(inst, result.schedule);

  TextTable table({"quantity", "value"});
  table.add_row({"strategy", strategy.name()});
  table.add_row({"C_max", fmt(result.makespan, 4)});
  table.add_row({"OPT lower bound", fmt(opt.lower, 4) + (opt.exact ? " (exact)" : "")});
  table.add_row({"ratio", fmt(result.makespan / opt.lower, 4)});
  table.add_row({"Mem_max", fmt(result.max_memory, 2)});
  table.add_row({"max replicas", std::to_string(result.max_replication)});
  table.add_row({"diagnostics", to_string(stats)});
  std::cout << table.render();

  if (!svg_path.empty()) {
    save_svg(svg_path, inst, result.schedule);
    std::cout << "SVG written to " << svg_path << "\n";
  }
  if (!json_path.empty()) {
    ExperimentReport report("rdp-cli-run", "single strategy run");
    report.set_param("strategy", strategy.name());
    report.set_param("instance", in);
    Series& series = report.series(
        "result", {"makespan", "opt_lower", "ratio", "mem_max", "replicas"});
    series.add_row({result.makespan, opt.lower, result.makespan / opt.lower,
                    result.max_memory,
                    static_cast<double>(result.max_replication)});
    save_report(report, args, json_path);
  }
  return EXIT_SUCCESS;
}

int cmd_sweep(Args& args, Session& session) {
  const std::string in = args.required("instance", "instance CSV");
  const TwoPhaseStrategy strategy = strategy_from_spec(
      args.text("strategy", "lpt-no-restriction", "strategy spec"));
  const NoiseModel model = noise_from_name(args.text("noise", "uniform", "noise model"));
  const auto trials = args.integer<std::size_t>("trials", 32, 1, "realizations");
  const auto threads = args.integer<std::size_t>("threads", 0, 0, "workers (0: all)");
  const auto seed = args.integer<std::uint64_t>("seed", 1, 0, "first trial's seed");
  const bool ratio_mode = args.toggle("ratios", "certified competitive ratio per trial");
  constexpr std::size_t kCache = CertifyEngine::kDefaultCacheCapacity;
  const auto cache_size =
      args.integer<std::size_t>("cache-size", kCache, 0, "certify cache (--ratios)");
  const auto budget =
      args.integer<std::uint64_t>("certify-budget", 2'000'000, 0, "B&B nodes (--ratios)");
  const std::string json_path = args.text("json", "", "write a JSON report");
  if (!session.start(args)) return EXIT_SUCCESS;
  const Instance inst = load_instance(in);

  ThreadPool pool(threads);
  TextTable table({"quantity", "value"});
  table.add_row({"strategy", strategy.name()});
  table.add_row({"noise", to_string(model)});
  table.add_row({"trials", std::to_string(trials)});
  table.add_row({"threads", std::to_string(pool.num_threads())});
  ExperimentReport report("rdp-cli-sweep", ratio_mode ? "certified ratio sweep"
                                                      : "parallel makespan sweep");
  report.set_param("strategy", strategy.name());
  report.set_param("noise", to_string(model));
  report.set_param("instance", in);
  if (ratio_mode) {
    // Certified-ratio mode: every trial's makespan is divided by a
    // certified optimum, so denominators route through a batched,
    // canonicalizing cache (exact/certify.hpp) and solve in parallel.
    CertifyEngine engine(cache_size);
    RatioExperimentConfig config;
    config.exact_node_budget = budget;
    config.engine = &engine;
    config.pool = &pool;
    const std::vector<RatioTrial> series =
        measure_ratio_trials(strategy, inst, model, trials, seed, config);
    Welford ratios;
    std::size_t exact = 0;
    Series& out =
        report.series("ratios", {"seed", "makespan", "opt_lower", "ratio", "exact"});
    for (std::size_t t = 0; t < series.size(); ++t) {
      ratios.add(series[t].ratio);
      exact += series[t].exact_optimum ? 1 : 0;
      out.add_row({static_cast<double>(seed + t), series[t].algorithm_makespan,
                   series[t].optimal_lower_bound, series[t].ratio,
                   series[t].exact_optimum ? 1.0 : 0.0});
    }
    const CertifyCacheStats cache = engine.cache_stats();
    table.add_row({"mean ratio", fmt(ratios.mean(), 4)});
    table.add_row({"stddev ratio", fmt(ratios.stddev(), 4)});
    table.add_row({"worst ratio", fmt(ratios.max(), 4)});
    table.add_row({"exact optima", std::to_string(exact) + "/" + std::to_string(trials)});
    table.add_row({"cache hits", std::to_string(cache.hits)});
    table.add_row({"cache misses", std::to_string(cache.misses)});
    table.add_row({"cache hit rate", fmt(cache.hit_rate(), 4)});
  } else {
    std::vector<std::uint64_t> seeds(trials);
    for (std::size_t t = 0; t < trials; ++t) seeds[t] = seed + t;
    const std::vector<SweepCell> grid =
        make_grid({inst.num_machines()}, {inst.alpha()}, seeds);
    // Phase 1 is deterministic: place once, re-dispatch per realization.
    const Placement placement = strategy.place(inst);
    std::vector<double> makespans(grid.size(), 0.0);
    run_sweep_parallel(pool, grid, [&](const SweepCell& cell) {
      const Realization actual = realize(inst, model, cell.seed);
      const DispatchResult dispatched =
          dispatch_with_rule(inst, placement, actual, strategy.rule());
      makespans[cell.index] = dispatched.schedule.makespan();
    });
    Welford agg;
    Series& series = report.series("makespans", {"seed", "makespan"});
    for (const SweepCell& cell : grid) {
      agg.add(makespans[cell.index]);
      series.add_row({static_cast<double>(cell.seed), makespans[cell.index]});
    }
    table.add_row({"mean C_max", fmt(agg.mean(), 4)});
    table.add_row({"stddev C_max", fmt(agg.stddev(), 4)});
    table.add_row({"min C_max", fmt(agg.min(), 4)});
    table.add_row({"max C_max", fmt(agg.max(), 4)});
  }
  std::cout << table.render();
  if (!json_path.empty()) save_report(report, args, json_path);
  return EXIT_SUCCESS;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perf: cannot open " + path);
  out << content;
  if (!out) throw std::runtime_error("perf: write failed for " + path);
}

/// Prints the SLO verdict: a totals table plus one row per violating
/// window (capped -- a badly overloaded run can violate thousands).
void print_slo_report(const SloSpec& spec, const SloReport& report) {
  TextTable table({"slo quantity", "value"});
  table.add_row({"window (sim s)", fmt(spec.window_seconds, 3)});
  table.add_row({"sustain threshold", std::to_string(spec.sustain)});
  table.add_row({"windows", std::to_string(report.windows.size())});
  table.add_row({"violating windows", std::to_string(report.violating_windows)});
  table.add_row(
      {"max consecutive", std::to_string(report.max_consecutive_violations)});
  table.add_row({"burn rate", fmt(report.burn_rate, 4)});
  table.add_row(
      {"sustained violation", report.sustained_violation ? "YES" : "no"});
  std::cout << table.render();

  constexpr std::size_t kMaxPrinted = 10;
  std::size_t printed = 0;
  for (const SloWindow& win : report.windows) {
    if (!win.violated) continue;
    if (printed++ >= kMaxPrinted) {
      std::cout << "  ... " << (report.violating_windows - kMaxPrinted)
                << " more violating window(s)\n";
      break;
    }
    std::cout << "  violated [" << fmt(win.t0, 3) << ", " << fmt(win.t1, 3)
              << "): response p50/p90/p99 = " << quantiles(win.response)
              << ", backlog watermark = " << fmt(win.backlog_watermark, 0)
              << "\n";
  }
}

JsonValue slo_report_json(const SloSpec& spec, const SloReport& report) {
  JsonObject obj;
  JsonObject targets;
  if (spec.p50 != kNoSloTarget) targets["p50"] = JsonValue(spec.p50);
  if (spec.p90 != kNoSloTarget) targets["p90"] = JsonValue(spec.p90);
  if (spec.p99 != kNoSloTarget) targets["p99"] = JsonValue(spec.p99);
  if (spec.backlog != kNoSloTarget) targets["backlog"] = JsonValue(spec.backlog);
  obj["targets"] = JsonValue(std::move(targets));
  obj["window_seconds"] = JsonValue(spec.window_seconds);
  obj["sustain"] = JsonValue(static_cast<unsigned long long>(spec.sustain));
  obj["violating_windows"] =
      JsonValue(static_cast<unsigned long long>(report.violating_windows));
  obj["max_consecutive_violations"] = JsonValue(
      static_cast<unsigned long long>(report.max_consecutive_violations));
  obj["burn_rate"] = JsonValue(report.burn_rate);
  obj["sustained_violation"] = JsonValue(report.sustained_violation);
  JsonArray windows;
  for (const SloWindow& win : report.windows) {
    JsonObject w;
    w["t0"] = JsonValue(win.t0);
    w["t1"] = JsonValue(win.t1);
    w["response"] = obs::histogram_summary_json(win.response);
    w["queue_wait"] = obs::histogram_summary_json(win.queue_wait);
    w["backlog_watermark"] = JsonValue(win.backlog_watermark);
    w["violated"] = JsonValue(win.violated);
    windows.emplace_back(std::move(w));
  }
  obj["windows"] = JsonValue(std::move(windows));
  return JsonValue(std::move(obj));
}

int cmd_serve(Args& args, Session& session) {
  const ArrivalModel model = arrival_model_from_name(
      args.text("arrivals", "poisson", "arrival process: poisson|burst|trace"));
  const TwoPhaseStrategy strategy =
      strategy_from_spec(args.text("strategy", "ls-group:2", "strategy spec"));
  const WorkloadFlags w = workload_flags(args, false);
  const std::string slo_text =
      args.text("slo", "", "p99=X,backlog=Y[,p50=,p90=,window=S,sustain=K]");
  const std::string trace_path = args.text("trace", "", "trace CSV (--arrivals=trace)");
  ArrivalParams params;
  params.model = model;
  params.rate = args.real("rate", 100.0, "mean arrival rate (tasks per sim s)", 0.0);
  params.burst_boost = args.real("burst-boost", 4.0, "burst on-phase rate factor", 0.0);
  params.burst_on = args.real("burst-on", 1.0, "mean burst on-phase (sim s)", 0.0);
  params.burst_off = args.real("burst-off", 4.0, "mean burst off-phase (sim s)", 0.0);
  const std::uint64_t seed = w.params.seed;
  params.seed =
      args.integer<std::uint64_t>("arrival-seed", seed + 1, 0, "arrival seed (--seed+1)");
  const std::optional<double> duration =
      args.maybe_real("duration", "arrivals for this many sim s, not --tasks", 0.0);
  const auto tasks = args.integer<std::size_t>("tasks", 2000, 1, "number of arrivals");
  const std::string instance_path = args.text("instance", "", "task-mix template CSV");
  const NoiseModel noise = noise_from_name(args.text("noise", "uniform", "noise model"));
  const bool adaptive = args.toggle("adaptive", "estimate alpha online and re-place");
  AdaptiveServeOptions opts;
  opts.epoch_tasks =
      args.integer<std::size_t>("epoch", opts.epoch_tasks, 1, "tasks per epoch");
  opts.drift_threshold =
      args.real("drift", opts.drift_threshold, "re-place past this drift", 0.0);
  auto& classes = opts.adapt.estimator.num_classes;
  classes = args.integer<std::size_t>("classes", classes, 1, "estimator task classes");
  const std::string json_path = args.text("json", "", "write a JSON report");
  // Parsed before any work so a malformed spec is a usage error (exit 2)
  // rather than a wasted run.
  std::optional<SloSpec> slo;
  if (args.given("slo")) slo = parse_slo_spec(slo_text);
  if (duration && args.given("tasks")) {
    throw std::invalid_argument("serve: pass --duration or --tasks, not both");
  }
  if (model == ArrivalModel::kTrace && trace_path.empty()) {
    throw std::invalid_argument("serve: --arrivals=trace requires --trace=FILE");
  }
  if (model == ArrivalModel::kBurst) {
    const double feasible = (params.burst_on + params.burst_off) / params.burst_on;
    if (params.burst_boost > feasible) {
      throw std::invalid_argument(
          "serve: --burst-boost=" + std::to_string(params.burst_boost) +
          " is infeasible for MMPP-2 (must be <= (on+off)/on = " +
          std::to_string(feasible) + ")");
    }
  }
  if (!session.start(args)) return EXIT_SUCCESS;

  // One trace span per pipeline stage, named like the e2ebench layers;
  // dispatch and stats are serve_stream's and compute_serve_stats' own.
  obs::Tracer* const tr = obs::tracer();
  std::vector<Time> arrivals;
  std::optional<Instance> inst;
  Realization actual;

  if (model == ArrivalModel::kTrace) {
    obs::ScopedSpan span(tr, "workload.load", "serve");
    const Trace trace = load_trace(trace_path);
    arrivals = arrivals_from_trace(trace);
    ReplayableWorkload workload = workload_from_trace(trace, w.params.num_machines);
    inst.emplace(std::move(workload.instance));
    actual = std::move(workload.actual);
  } else {
    {
      obs::ScopedSpan span(tr, "serve.arrivals", "serve");
      if (duration) {
        arrivals = generate_arrivals_until(params, *duration);
        if (arrivals.empty()) {
          throw std::invalid_argument(
              "serve: no arrivals inside --duration (raise --rate or --duration)");
        }
      } else {
        arrivals = generate_arrivals(params, tasks);
      }
    }
    if (!instance_path.empty()) {
      // A file instance acts as the task-mix template; it is cycled to
      // cover however many tasks the arrival process produced.
      obs::ScopedSpan span(tr, "workload.load", "serve");
      inst.emplace(cycle_instance(load_instance(instance_path), arrivals.size()));
    } else {
      obs::ScopedSpan span(tr, "workload.generate", "serve");
      WorkloadParams sized = w.params;
      sized.num_tasks = arrivals.size();
      inst.emplace(generate_instance(w.kind, sized));
    }
    obs::ScopedSpan span(tr, "perturb.realize", "serve");
    actual = realize(*inst, noise, seed);
  }

  // The two modes differ only in how the schedule is produced and in the
  // rows/fields they add; the report tail below is shared.
  ServeReport report;
  std::string strategy_name;
  std::vector<std::pair<std::string, std::string>> mode_rows;
  JsonObject obj;
  if (adaptive) {
    const auto wall_start = std::chrono::steady_clock::now();
    AdaptiveServeResult result = serve_adaptive(*inst, actual, arrivals, opts);
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    report.tasks = inst->num_tasks();
    report.machines = inst->num_machines();
    report.peak_backlog = result.peak_backlog;
    report.stats = compute_serve_stats(result.schedule, arrivals);
    report.horizon = report.stats.last_finish;
    report.dispatched_per_sec =
        report.wall_seconds > 0 ? static_cast<double>(report.tasks) / report.wall_seconds
                                : 0;
    report.schedule = std::move(result.schedule);
    MachineId min_degree = inst->num_machines();
    MachineId max_degree = 0;
    for (const AdaptiveEpoch& epoch : result.epochs) {
      min_degree = std::min(min_degree, epoch.min_degree);
      max_degree = std::max(max_degree, epoch.max_degree);
    }
    strategy_name = "adaptive-group";
    mode_rows = {{"epochs", std::to_string(result.epochs.size())},
                 {"replans (drift)", std::to_string(result.replans)},
                 {"final alpha-hat", fmt(result.final_alpha_hat, 4)},
                 {"degree range",
                  std::to_string(min_degree) + " .. " + std::to_string(max_degree)}};
    obj["makespan"] = JsonValue(result.makespan);
    JsonObject fields;
    fields["epochs"] = JsonValue(static_cast<unsigned long long>(result.epochs.size()));
    fields["replans"] = JsonValue(static_cast<unsigned long long>(result.replans));
    fields["final_alpha_hat"] = JsonValue(result.final_alpha_hat);
    fields["min_degree"] = JsonValue(static_cast<unsigned long long>(min_degree));
    fields["max_degree"] = JsonValue(static_cast<unsigned long long>(max_degree));
    obj["adaptive"] = JsonValue(std::move(fields));
  } else {
    const Placement placement = [&] {
      obs::ScopedSpan span(tr, "algo.place", "serve");
      return strategy.place(*inst);
    }();
    const std::vector<TaskId> priority = [&] {
      obs::ScopedSpan span(tr, "algo.priority", "serve");
      return make_priority(*inst, strategy.rule());
    }();
    report = run_serve(*inst, placement, actual, priority, arrivals);
    // Offered load over the arrival window (the horizon also counts the
    // final drain, which would understate the rate).
    const Time last_arrival =
        arrivals.empty() ? Time{0} : *std::max_element(arrivals.begin(), arrivals.end());
    const double offered =
        last_arrival > 0 ? static_cast<double>(report.tasks) / last_arrival : 0;
    strategy_name = strategy.name();
    mode_rows = {{"offered rate (sim tasks/s)", fmt(offered, 2)}};
    obj["offered_rate"] = JsonValue(offered);
  }

  const ServeStats& stats = report.stats;
  TextTable table({"quantity", "value"});
  table.add_row({"arrivals", arrival_model_name(model)});
  table.add_row({"strategy", strategy_name});
  table.add_row({"tasks", std::to_string(report.tasks)});
  table.add_row({"machines", std::to_string(report.machines)});
  for (const auto& [quantity, value] : mode_rows) table.add_row({quantity, value});
  table.add_row({"peak backlog", std::to_string(report.peak_backlog)});
  table.add_row({"horizon (sim s)", fmt(report.horizon, 3)});
  table.add_row({"response p50/p90/p99", quantiles(stats.response)});
  table.add_row({"queue wait p50/p90/p99", quantiles(stats.queue_wait)});
  table.add_row({"mean response", fmt(stats.response.mean, 4)});
  table.add_row({"mean service", fmt(stats.service.mean, 4)});
  table.add_row({"wall seconds", fmt(report.wall_seconds, 4)});
  table.add_row({"dispatched tasks/sec (wall)", fmt(report.dispatched_per_sec, 0)});
  std::cout << table.render();

  std::optional<SloReport> slo_report;
  if (slo) {
    slo_report = [&] {
      obs::ScopedSpan span(tr, "serve.slo", "serve");
      return evaluate_slo(report.schedule, arrivals, *slo);
    }();
    print_slo_report(*slo, *slo_report);
  }

  if (!json_path.empty()) {
    obj["arrivals"] = JsonValue(std::string(arrival_model_name(model)));
    obj["strategy"] = JsonValue(strategy_name);
    obj["tasks"] = JsonValue(static_cast<unsigned long long>(report.tasks));
    obj["machines"] = JsonValue(static_cast<unsigned long long>(report.machines));
    obj["peak_backlog"] = JsonValue(static_cast<unsigned long long>(report.peak_backlog));
    obj["horizon"] = JsonValue(report.horizon);
    obj["wall_seconds"] = JsonValue(report.wall_seconds);
    obj["dispatched_per_sec"] = JsonValue(report.dispatched_per_sec);
    // Full histogram summaries (count/mean/stddev/min/max/sum plus the
    // quantiles): downstream dashboards need them for weighting and rollups.
    obj["response"] = obs::histogram_summary_json(stats.response);
    obj["queue_wait"] = obs::histogram_summary_json(stats.queue_wait);
    obj["service"] = obs::histogram_summary_json(stats.service);
    if (slo_report) obj["slo"] = slo_report_json(*slo, *slo_report);
    JsonObject flags;
    for (const auto& [name, value] : args.resolved()) flags["--" + name] = value;
    obj["params"] = JsonValue(std::move(flags));
    write_text_file(json_path, JsonValue(std::move(obj)).dump(2) + "\n");
    std::cout << "JSON written to " << json_path << "\n";
  }
  if (slo_report && slo_report->sustained_violation) {
    std::cout << "slo: sustained violation (" << slo_report->max_consecutive_violations
              << " consecutive windows)\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

/// `rdp_cli obs`: post-process a flight recording (--timeline-out) into
/// per-task latency attribution, a per-machine utilization/stall report,
/// and optionally a per-machine-lane Chrome trace.
///
/// Bit-deterministic across --jobs by construction: the per-task
/// reduction and the attribution histograms run sequentially in task-id
/// order, and the parallel per-machine pass only writes its own machine's
/// index-addressed slots over a CSR built sequentially -- no accumulation
/// order depends on thread count (pinned by ctest obs_determinism).
int cmd_obs(Args& args, Session& session) {
  const std::string timeline_path = args.required("timeline", "flight recording (JSONL)");
  const auto jobs = args.integer<std::size_t>("jobs", 0, 0, "workers (0: all cores)");
  const std::string json_path = args.text("json", "", "write the analysis (JSON)");
  const std::string chrome_path = args.text("chrome", "", "write a Chrome trace");
  if (!session.start(args)) return EXIT_SUCCESS;

  obs::TimelineMeta meta;
  const std::vector<obs::TimelineEvent> events =
      obs::load_timeline(timeline_path, &meta);

  // Pass 1 (sequential): fold the event stream into per-task columns.
  // Later events win, matching "the surviving attempt" semantics of the
  // failure dispatcher's re-emission.
  std::size_t n = 0;
  MachineId m = 0;
  for (const obs::TimelineEvent& e : events) {
    if (e.task != obs::kTimelineNone) {
      n = std::max(n, static_cast<std::size_t>(e.task) + 1);
    }
    if (e.machine != obs::kTimelineNone) {
      m = std::max(m, static_cast<MachineId>(e.machine + 1));
    }
  }
  constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> arrive(n, kUnset), eligible(n, kUnset);
  std::vector<double> start(n, kUnset), finish(n, kUnset);
  std::vector<MachineId> machine_of(n, kNoMachine);
  std::vector<std::uint32_t> refetches(n, 0);
  std::uint64_t failures = 0;
  double horizon = 0.0;
  for (const obs::TimelineEvent& e : events) {
    horizon = std::max(horizon, e.when);
    const TaskId j = e.task;
    switch (e.kind) {
      case obs::TimelineEventKind::kArrive:
      case obs::TimelineEventKind::kAdmit:
        if (j != obs::kTimelineNone) arrive[j] = e.when;
        break;
      case obs::TimelineEventKind::kEligible:
        if (j != obs::kTimelineNone) eligible[j] = e.when;
        break;
      case obs::TimelineEventKind::kStart:
        if (j != obs::kTimelineNone) {
          start[j] = e.when;
          if (e.machine != obs::kTimelineNone) machine_of[j] = e.machine;
        }
        break;
      case obs::TimelineEventKind::kFinish:
        if (j != obs::kTimelineNone) finish[j] = e.when;
        break;
      case obs::TimelineEventKind::kRefetch:
        if (j != obs::kTimelineNone) ++refetches[j];
        break;
      case obs::TimelineEventKind::kFailure:
        ++failures;
        break;
    }
  }

  // Pass 2 (sequential, task-id order): latency attribution. Transfer is
  // the arrive -> eligible gap (data movement before the task could run;
  // only dispatchers with an admission boundary emit it), queue-wait the
  // remainder up to start, service the time on the machine.
  obs::LocalHistogram response_hist, queue_wait_hist, service_hist, transfer_hist;
  std::uint64_t attributed = 0, refetched_tasks = 0;
  for (TaskId j = 0; j < n; ++j) {
    if (refetches[j] > 0) ++refetched_tasks;
    if (std::isnan(start[j]) || std::isnan(finish[j])) continue;
    service_hist.observe(finish[j] - start[j]);
    if (std::isnan(arrive[j])) continue;
    ++attributed;
    response_hist.observe(finish[j] - arrive[j]);
    const double ready = std::isnan(eligible[j]) ? arrive[j] : eligible[j];
    queue_wait_hist.observe(start[j] - ready);
    if (!std::isnan(eligible[j])) transfer_hist.observe(eligible[j] - arrive[j]);
  }

  // Pass 3 (parallel over machines): per-machine busy/stall via a CSR of
  // tasks grouped by machine. Each index writes only its own slots.
  std::vector<std::uint32_t> deg(m + 1, 0);
  for (TaskId j = 0; j < n; ++j) {
    if (machine_of[j] != kNoMachine && !std::isnan(start[j]) &&
        !std::isnan(finish[j])) {
      ++deg[machine_of[j] + 1];
    }
  }
  for (MachineId i = 0; i < m; ++i) deg[i + 1] += deg[i];
  std::vector<TaskId> csr(deg[m]);
  {
    std::vector<std::uint32_t> fill(deg.begin(), deg.end() - 1);
    for (TaskId j = 0; j < n; ++j) {
      if (machine_of[j] != kNoMachine && !std::isnan(start[j]) &&
          !std::isnan(finish[j])) {
        csr[fill[machine_of[j]]++] = j;
      }
    }
  }
  std::vector<double> busy(m, 0.0);
  std::vector<std::uint64_t> tasks_on(m, 0);
  ThreadPool pool(jobs);
  parallel_for_each_index(pool, m, [&](std::size_t i) {
    double total = 0.0;
    for (std::uint32_t k = deg[i]; k < deg[i + 1]; ++k) {
      const TaskId j = csr[k];
      total += finish[j] - start[j];
    }
    busy[i] = total;
    tasks_on[i] = deg[i + 1] - deg[i];
  });

  TextTable table({"quantity", "value"});
  table.add_row({"timeline", timeline_path});
  table.add_row({"events", std::to_string(events.size())});
  table.add_row({"dropped", std::to_string(meta.dropped)});
  table.add_row({"tasks", std::to_string(n)});
  table.add_row({"machines", std::to_string(m)});
  table.add_row({"horizon (sim s)", fmt(horizon, 3)});
  table.add_row({"attributed tasks", std::to_string(attributed)});
  const obs::HistogramSummary response = response_hist.summary();
  const obs::HistogramSummary queue_wait = queue_wait_hist.summary();
  const obs::HistogramSummary service = service_hist.summary();
  const obs::HistogramSummary transfer = transfer_hist.summary();
  table.add_row({"response p50/p90/p99", quantiles(response)});
  table.add_row({"queue wait p50/p90/p99", quantiles(queue_wait)});
  table.add_row({"service p50/p90/p99", quantiles(service)});
  if (transfer.count > 0) {
    table.add_row({"transfer p50/p90/p99", quantiles(transfer)});
  }
  table.add_row({"refetched tasks", std::to_string(refetched_tasks)});
  table.add_row({"machine failures", std::to_string(failures)});
  std::cout << table.render();

  TextTable machines({"machine", "tasks", "busy", "stall", "utilization"});
  for (MachineId i = 0; i < m; ++i) {
    const double stall = horizon - busy[i];
    machines.add_row({std::to_string(i), std::to_string(tasks_on[i]),
                      fmt(busy[i], 3), fmt(stall, 3),
                      fmt(horizon > 0 ? busy[i] / horizon : 0.0, 4)});
  }
  std::cout << machines.render();

  if (!json_path.empty()) {
    JsonObject obj;
    obj["timeline"] = JsonValue(timeline_path);
    obj["events"] = JsonValue(static_cast<unsigned long long>(events.size()));
    obj["dropped"] = JsonValue(static_cast<unsigned long long>(meta.dropped));
    obj["tasks"] = JsonValue(static_cast<unsigned long long>(n));
    obj["machines"] = JsonValue(static_cast<unsigned long long>(m));
    obj["horizon"] = JsonValue(horizon);
    obj["attributed_tasks"] =
        JsonValue(static_cast<unsigned long long>(attributed));
    obj["refetched_tasks"] =
        JsonValue(static_cast<unsigned long long>(refetched_tasks));
    obj["machine_failures"] =
        JsonValue(static_cast<unsigned long long>(failures));
    obj["response"] = obs::histogram_summary_json(response);
    obj["queue_wait"] = obs::histogram_summary_json(queue_wait);
    obj["service"] = obs::histogram_summary_json(service);
    obj["transfer"] = obs::histogram_summary_json(transfer);
    JsonArray machine_rows;
    for (MachineId i = 0; i < m; ++i) {
      JsonObject row;
      row["machine"] = JsonValue(static_cast<unsigned long long>(i));
      row["tasks"] = JsonValue(static_cast<unsigned long long>(tasks_on[i]));
      row["busy"] = JsonValue(busy[i]);
      row["stall"] = JsonValue(horizon - busy[i]);
      row["utilization"] = JsonValue(horizon > 0 ? busy[i] / horizon : 0.0);
      machine_rows.emplace_back(std::move(row));
    }
    obj["per_machine"] = JsonValue(std::move(machine_rows));
    write_text_file(json_path, JsonValue(std::move(obj)).dump(2) + "\n");
    std::cout << "JSON written to " << json_path << "\n";
  }

  if (!chrome_path.empty()) {
    // Per-machine-lane Chrome trace over *simulated* time: tid = machine,
    // one 'X' span per task (ts/dur in microseconds of sim time), 'i'
    // instants for failures (machine lane) and refetches (the task's
    // eventual machine, lane 0 when it never ran).
    std::string buf = "{\"traceEvents\":[";
    bool first = true;
    auto comma = [&] {
      if (!first) buf += ",\n";
      first = false;
    };
    for (TaskId j = 0; j < n; ++j) {
      if (machine_of[j] == kNoMachine || std::isnan(start[j]) ||
          std::isnan(finish[j])) {
        continue;
      }
      comma();
      buf += "{\"name\":\"task " + std::to_string(j) +
             "\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":" +
             JsonValue(start[j] * 1e6).dump(-1) + ",\"dur\":" +
             JsonValue((finish[j] - start[j]) * 1e6).dump(-1) +
             ",\"pid\":1,\"tid\":" + std::to_string(machine_of[j]) +
             ",\"args\":{\"task\":" + std::to_string(j) + "}}";
    }
    for (const obs::TimelineEvent& e : events) {
      if (e.kind == obs::TimelineEventKind::kFailure) {
        comma();
        const std::uint32_t lane = e.machine == obs::kTimelineNone ? 0 : e.machine;
        buf += "{\"name\":\"failure\",\"cat\":\"failure\",\"ph\":\"i\",\"ts\":" +
               JsonValue(e.when * 1e6).dump(-1) + ",\"pid\":1,\"tid\":" +
               std::to_string(lane) + ",\"s\":\"t\"}";
      } else if (e.kind == obs::TimelineEventKind::kRefetch) {
        comma();
        const MachineId lane =
            e.task != obs::kTimelineNone && machine_of[e.task] != kNoMachine
                ? machine_of[e.task]
                : 0;
        buf += "{\"name\":\"refetch\",\"cat\":\"refetch\",\"ph\":\"i\",\"ts\":" +
               JsonValue(e.when * 1e6).dump(-1) + ",\"pid\":1,\"tid\":" +
               std::to_string(lane) + ",\"s\":\"t\"}";
      }
    }
    buf += "],\"displayTimeUnit\":\"ms\"}\n";
    write_text_file(chrome_path, buf);
    std::cout << "Chrome trace written to " << chrome_path << "\n";
  }
  return EXIT_SUCCESS;
}

int cmd_evaluate(Args& args, Session& session) {
  const std::string in = args.required("instance", "instance CSV");
  const auto count = args.integer<std::size_t>("scenarios", 12, 1, "scenarios");
  const auto seed = args.integer<std::uint64_t>("seed", 1, 0, "scenario seed");
  const std::string kind =
      args.text("scenario-kind", "mixed", "mixed|drifting|misreported");
  const std::optional<double> alpha_to =
      args.maybe_real("alpha-to", "drift target alpha (default: 2x instance alpha)");
  const std::optional<double> true_alpha =
      args.maybe_real("true-alpha", "true alpha (default: 2x instance alpha)");
  if (!session.start(args)) return EXIT_SUCCESS;
  const Instance inst = load_instance(in);
  ScenarioSet scenarios;
  if (kind == "mixed") {
    scenarios = make_mixed_scenarios(inst, count, seed);
  } else if (kind == "drifting") {
    scenarios = make_drifting_scenarios(inst, count, seed, inst.alpha(),
                                        alpha_to.value_or(2.0 * inst.alpha()));
  } else if (kind == "misreported") {
    scenarios = make_misreported_scenarios(inst, count, seed,
                                           true_alpha.value_or(2.0 * inst.alpha()));
  } else {
    throw std::invalid_argument(
        "evaluate: --scenario-kind must be mixed, drifting, or misreported (got '" +
        kind + "')");
  }

  std::vector<TwoPhaseStrategy> strategies =
      paper_strategy_family(inst.num_machines());
  strategies.push_back(make_adaptive_group());
  TextTable table({"strategy", "mean", "worst", "worst regret"});
  for (const TwoPhaseStrategy& s : strategies) {
    const ScenarioEvaluation eval = evaluate_scenarios(s, inst, scenarios);
    table.add_row({eval.strategy_name, fmt(eval.mean_makespan, 2),
                   fmt(eval.worst_makespan, 2), fmt(eval.worst_regret, 2)});
  }
  std::cout << table.render();
  const std::size_t pick = select_min_max(strategies, inst, scenarios);
  std::cout << "min-max pick: " << strategies[pick].name() << "\n";
  return EXIT_SUCCESS;
}

int cmd_bounds(Args& args, Session& session) {
  const auto m = args.integer<MachineId>("m", 8, 1, "machines");
  const double alpha = args.real("alpha", 1.5, "uncertainty factor alpha");
  if (!session.start(args)) return EXIT_SUCCESS;
  TextTable table({"replication", "guarantee", "source"});
  table.add_row({"|M_j|=1 (lower bound)",
                 fmt(thm1_no_replication_lower_bound(alpha, m)), "Theorem 1"});
  table.add_row({"|M_j|=1 (LPT-NoChoice)", fmt(thm2_lpt_no_choice(alpha, m)),
                 "Theorem 2"});
  for (MachineId r : feasible_replication_degrees(m)) {
    if (r == 1 || r == m) continue;
    table.add_row({"|M_j|=" + std::to_string(r) + " (LS-Group)",
                   fmt(thm4_ls_group(alpha, m, m / r)), "Theorem 4"});
  }
  table.add_row({"|M_j|=m (LPT-NoRestriction)",
                 fmt(thm3_lpt_no_restriction(alpha, m)), "Theorem 3 + Graham"});
  std::cout << "m=" << m << " alpha=" << alpha << "\n" << table.render();
  return EXIT_SUCCESS;
}

int cmd_repro(Args& args, Session& session) {
  const bool list = args.toggle("list", "list the artifacts and exit");
  repro::ReproOptions options;
  options.out_dir = args.text("out", "artifacts", "artifact directory");
  options.results_path =
      args.text("results", "docs/RESULTS.md", "RESULTS.md to write (empty: none)");
  options.filter = args.text("filter", "", "artifact names, tags or kinds (comma list)");
  options.jobs = args.integer<std::size_t>("jobs", 0, 0, "workers (0: all cores)");
  options.seed = args.integer<std::uint64_t>("seed", 1, 0, "base seed");
  options.node_budget =
      args.integer<std::uint64_t>("budget", 400'000, 0, "exact-solver node budget");
  options.force = args.toggle("force", "regenerate cached artifacts");
  options.log = &std::cout;
  if (!session.start(args)) return EXIT_SUCCESS;
  if (list) {
    TextTable table({"artifact", "reproduces", "kind", "tags"});
    for (const repro::Artifact& artifact : repro::paper_artifacts()) {
      std::string tags;
      for (const std::string& t : artifact.tags) {
        tags += (tags.empty() ? "" : ",") + t;
      }
      table.add_row({artifact.name, artifact.paper_ref,
                     repro::to_string(artifact.kind), tags});
    }
    std::cout << table.render();
    return EXIT_SUCCESS;
  }

  const repro::ReproSummary summary = repro::run_repro(options);

  TextTable table({"quantity", "value"});
  table.add_row({"selected", std::to_string(summary.selected)});
  table.add_row({"generated", std::to_string(summary.generated)});
  table.add_row({"cached", std::to_string(summary.cached)});
  table.add_row({"theorem checks", std::to_string(summary.checks)});
  table.add_row({"bound violations", std::to_string(summary.violations)});
  table.add_row({"manifest", summary.manifest_path});
  table.add_row({"RESULTS.md", summary.results_written ? "written" : "skipped"});
  std::cout << table.render();
  return summary.violations == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

int cmd_fuzz(Args& args, Session& session) {
  check::FuzzOptions options;
  options.seeds = args.integer<std::size_t>("seeds", 500, 1, "seeds to check");
  options.jobs = args.integer<std::size_t>("jobs", 1, 0, "workers (0: all cores)");
  options.start_seed = args.integer<std::uint64_t>("start-seed", 1, 0, "first seed");
  options.gen.max_tasks = args.integer<std::size_t>("max-n", 24, 1, "max tasks per case");
  options.gen.max_machines = args.integer<MachineId>("max-m", 6, 1, "max machines");
  options.shrink = !args.toggle("no-shrink", "report failing cases unshrunk");
  options.gen.scenario = check::fuzz_scenario_from_name(
      args.text("scenario", "default", "default|drifting-alpha"));
  const std::string report_path = args.text("report", "", "write failures (JSONL)");
  options.log = &std::cout;
  if (!session.start(args)) return EXIT_SUCCESS;

  const check::FuzzSummary summary = check::run_fuzz(options);

  if (!report_path.empty()) {
    check::save_jsonl_report(report_path, summary.failures);
    std::cout << "JSONL report (" << summary.failures.size()
              << " failures) written to " << report_path << "\n";
  }

  TextTable table({"quantity", "value"});
  table.add_row({"seeds", std::to_string(summary.cases)});
  table.add_row({"cross-checks", std::to_string(summary.checks)});
  table.add_row({"checks per seed", std::to_string(check::checks_per_case())});
  table.add_row({"failures", std::to_string(summary.failures.size())});
  std::cout << table.render();
  return summary.failures.empty() ? EXIT_SUCCESS : EXIT_FAILURE;
}

/// The verdict flags perf compare and perf gate share.
struct VerdictFlags {
  perf::CompareOptions options;
  bool warn_only = false;
  bool enforce_exact = false;
  std::string json_path;

  explicit VerdictFlags(Args& args) {
    auto& o = options;
    o.timing_rel_tolerance = args.real("rel-tol", o.timing_rel_tolerance, "timing slack");
    o.mad_multiplier = args.real("mad-mult", o.mad_multiplier, "slack per baseline MAD");
    o.ignore_params = args.toggle("ignore-params", "compare despite differing params");
    warn_only = args.toggle("warn-only", "report regressions but exit 0");
    enforce_exact = args.toggle("enforce-exact", "exact metrics fail even so");
    json_path = args.text("json", "", "write the verdict (JSON)");
  }

  /// Regressions fail unless --warn-only; under --enforce-exact an
  /// "exact"-noise-class regression fails even then.
  int status(bool regressed, bool exact_regressed) const {
    if (warn_only && enforce_exact && exact_regressed) {
      std::cout << "enforce-exact: exact-noise-class metric regressed; "
                   "failing despite --warn-only\n";
      return EXIT_FAILURE;
    }
    if (regressed && warn_only) {
      std::cout << "warn-only: regression reported but exiting 0\n";
    }
    return regressed && !warn_only ? EXIT_FAILURE : EXIT_SUCCESS;
  }
};

/// `perf record`: merge repeats of one bench's records (min-of-k) and
/// stamp git sha and host into a committed baseline.
int cmd_perf_record(Args& args, Session& session) {
  std::vector<std::string> inputs = args.texts("in", "", "bench records");
  std::string out = args.text("out", "", "output (default: bench/baselines/NAME.json)");
  const std::vector<std::string> pos = args.positionals("FILE", "more bench records");
  inputs.insert(inputs.end(), pos.begin(), pos.end());
  if (!session.start(args)) return EXIT_SUCCESS;
  if (inputs.empty()) {
    throw std::invalid_argument(
        "perf record: --in=FILE[,FILE...] is required (repeats of the same "
        "benchmark merge min-of-k)");
  }
  std::vector<perf::BenchRecord> runs;
  runs.reserve(inputs.size());
  for (const std::string& path : inputs) runs.push_back(perf::load_bench_file(path));
  perf::BenchRecord record = perf::merge_repeats(runs);
  record.git_sha = repro::read_git_sha(".");
  record.host = perf::host_fingerprint();

  if (!args.given("out")) out = "bench/baselines/" + record.name + ".json";
  std::filesystem::path parent = std::filesystem::path(out).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  record.save(out);
  std::cout << "recorded " << record.name << " (" << record.metrics.size()
            << " metrics, " << inputs.size() << " run(s), params "
            << (record.params_hash.empty() ? "-" : record.params_hash)
            << ") to " << out << "\n";
  return EXIT_SUCCESS;
}

/// `perf compare`: diff one fresh run against one baseline.
int cmd_perf_compare(Args& args, Session& session) {
  const std::string baseline_path = args.required("baseline", "baseline record");
  const std::string current_path = args.required("current", "fresh bench record");
  const VerdictFlags flags(args);
  if (!session.start(args)) return EXIT_SUCCESS;
  const perf::BenchRecord baseline = perf::load_bench_file(baseline_path);
  const perf::BenchRecord current = perf::load_bench_file(current_path);
  const perf::CompareResult result =
      perf::compare_records(baseline, current, flags.options);

  std::cout << result.render_table();
  if (!flags.json_path.empty()) {
    write_text_file(flags.json_path, result.to_json().dump(2) + "\n");
    std::cout << "verdict written to " << flags.json_path << "\n";
  }
  return flags.status(result.regressed(), result.exact_regressed());
}

/// `perf gate`: compare every committed baseline against the matching
/// fresh output (by the baseline's recorded `source` filename) under
/// --current-dir. A baseline whose fresh output is missing is a hard
/// failure even under --warn-only: the gate must notice when a benchmark
/// silently stops running. --enforce-exact additionally keeps
/// "exact"-noise-class metrics (cache hit counts, iteration counts,
/// bit-mismatch counters -- deterministic by contract) enforcing under
/// --warn-only, so shared-runner timing noise is tolerated but a
/// determinism or algorithmic-shape change still fails the gate.
int cmd_perf_gate(Args& args, Session& session) {
  const std::string baselines_dir =
      args.text("baselines", "bench/baselines", "committed baseline directory");
  const std::string current_dir = args.text("current-dir", ".", "fresh bench record dir");
  const VerdictFlags flags(args);
  if (!session.start(args)) return EXIT_SUCCESS;

  std::vector<std::string> baseline_files;
  if (!std::filesystem::is_directory(baselines_dir)) {
    throw std::runtime_error("perf gate: no baselines directory at " +
                             baselines_dir);
  }
  for (const auto& entry : std::filesystem::directory_iterator(baselines_dir)) {
    if (entry.path().extension() == ".json") {
      baseline_files.push_back(entry.path().string());
    }
  }
  std::sort(baseline_files.begin(), baseline_files.end());
  if (baseline_files.empty()) {
    throw std::runtime_error("perf gate: no *.json baselines in " +
                             baselines_dir);
  }

  bool any_regressed = false;
  bool any_exact_regressed = false;
  bool any_error = false;
  JsonArray results;
  for (const std::string& path : baseline_files) {
    const perf::BenchRecord baseline = perf::load_bench_file(path);
    const std::filesystem::path current_path =
        std::filesystem::path(current_dir) / baseline.source;
    if (!std::filesystem::exists(current_path)) {
      std::cout << "perf gate: MISSING " << current_path.string()
                << " (baseline " << path << " has nothing to compare against)\n";
      JsonObject missing;
      missing["bench"] = baseline.name;
      missing["baseline_source"] = path;
      missing["error"] = "missing current output " + current_path.string();
      results.emplace_back(std::move(missing));
      any_error = true;
      continue;
    }
    const perf::BenchRecord current =
        perf::load_bench_file(current_path.string());
    const perf::CompareResult result =
        perf::compare_records(baseline, current, flags.options);
    std::cout << result.render_table() << "\n";
    results.emplace_back(result.to_json());
    any_regressed = any_regressed || result.regressed();
    any_exact_regressed = any_exact_regressed || result.exact_regressed();
  }

  JsonObject verdict;
  verdict["regressed"] = any_regressed;
  verdict["exact_regressed"] = any_exact_regressed;
  verdict["errors"] = any_error;
  verdict["warn_only"] = flags.warn_only;
  verdict["enforce_exact"] = flags.enforce_exact;
  verdict["results"] = std::move(results);
  if (!flags.json_path.empty()) {
    write_text_file(flags.json_path, JsonValue(std::move(verdict)).dump(2) + "\n");
    std::cout << "verdict written to " << flags.json_path << "\n";
  }
  if (any_error) return EXIT_FAILURE;  // schema/coverage errors always fail
  return flags.status(any_regressed, any_exact_regressed);
}

struct Command {
  const char* name;
  int (*run)(Args&, Session&);
  const char* summary;
};

constexpr Command kCommands[] = {
    {"generate", cmd_generate, "write a synthetic instance CSV"},
    {"realize", cmd_realize, "draw actual processing times into a trace CSV"},
    {"run", cmd_run, "run one strategy on one realization"},
    {"serve", cmd_serve, "streaming dispatch under continuous arrivals, with SLOs"},
    {"obs", cmd_obs, "latency attribution and utilization from a flight recording"},
    {"evaluate", cmd_evaluate, "compare the strategy family across scenarios"},
    {"sweep", cmd_sweep, "parallel makespan or certified-ratio sweep"},
    {"bounds", cmd_bounds, "the paper's guarantees for m and alpha"},
    {"repro", cmd_repro, "regenerate the paper's tables, figures and checks"},
    {"fuzz", cmd_fuzz, "differential fuzzing of the dispatchers"},
    {"perf record", cmd_perf_record, "merge bench records into a stamped baseline"},
    {"perf compare", cmd_perf_compare, "diff one fresh run against one baseline"},
    {"perf gate", cmd_perf_gate, "diff every committed baseline (bench/baselines/)"},
};

int usage(const char* program) {
  std::cerr << "usage: " << program << " <command> [--flag=VALUE ...]\n\ncommands:\n";
  for (const Command& command : kCommands) {
    const std::string name = command.name;
    std::cerr << "  " << name << std::string(14 - name.size(), ' ') << command.summary
              << "\n";
  }
  std::cerr << "\n'" << program
            << " <command> --help' lists a command's flags, global ones included.\n"
               "\nworkload kinds: uniform heavy-tailed bimodal lognormal correlated"
               " anti-correlated independent unit profile:NAME\nstrategies:";
  for (const std::string& spec : known_strategy_specs()) std::cerr << ' ' << spec;
  std::cerr << "\nnoise models:";
  for (NoiseModel model : all_noise_models()) std::cerr << ' ' << to_string(model);
  std::cerr << "\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  // `perf` takes its action as a second word: `rdp_cli perf gate ...`.
  const int words = std::string(argv[1]) == "perf" && argc > 2 ? 2 : 1;
  std::string name = argv[1];
  if (words == 2) name += std::string(" ") + argv[2];
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    if (name == c.name) command = &c;
  }
  if (command == nullptr) {
    std::cerr << "unknown command '" << name << "'\n";
    return usage(argv[0]);
  }
  try {
    Args args(argc - words, argv + words, std::string(argv[0]) + " " + name);
    Session session;
    const int status = command->run(args, session);
    session.save(command->name);
    return status;
  } catch (const std::invalid_argument& error) {
    // Bad or missing flag values from any subcommand surface here: one
    // consistent message, a usage pointer, and the usage exit code.
    std::cerr << "error: " << error.what() << "\n"
              << "run '" << argv[0] << " " << name << " --help' for its flags\n";
    return kExitUsage;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
}
