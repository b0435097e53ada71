// Extension experiment: certified lower bounds at scale. Exercises the
// Hochbaum-Shmoys dual-approximation backend of CertifyEngine at
// 10^5..10^6 tasks and pins four things under the perf gate:
//
//   scale       -- end-to-end engine certify (canonicalize + HS bisection
//                  + schedule materialization) per instance size, single
//                  threaded, with the realized guarantee upper/lower
//                  checked against (1 + 1/k);
//   multifit    -- MULTIFIT at 2*10^5 tasks (regression guard for the
//                  sort-once + first-fit-tree rewrite of ffd_fits);
//   soundness   -- seeded fuzz on small instances where branch-and-bound
//                  is exact: ptas_lower <= OPT <= ptas_upper <=
//                  (1+1/k)*OPT and multifit <= 13/11*OPT, counted as an
//                  exact-class violation metric (must stay 0);
//   determinism -- one PTAS-routed batch through the engine at 1, 2 and 8
//                  threads, compared bit-for-bit.
//
// Timing metrics gate as "timing" (warn-only on shared runners);
// iteration counts, violation counters and bit-mismatch counters gate as
// "exact" and are enforced even under `perf gate --warn-only
// --enforce-exact` (see docs/PERFORMANCE.md).
//
// Usage: ext_certify_scale [--sizes=100000,1000000] [--m=64] [--k=4]
//        [--fuzz-seeds=200] [--multifit-n=200000] [--batch=16]
//        [--batch-n=4096] [--out=BENCH_certify_scale.json]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "exact/certify.hpp"
#include "exact/certify_scale.hpp"
#include "exact/dual_approx.hpp"
#include "exact/optimal.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<Time> uniform_tasks(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Time> p(n);
  for (Time& v : p) v = sample_uniform(rng, 0.5, 10.0);
  return p;
}

constexpr std::uint64_t kSeed = 20260808;

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto sizes = args.integers<std::size_t>("sizes", "100000,1000000", 1, "sizes");
  const auto m = args.integer<MachineId>("m", 64, 1, "machines");
  const auto k = args.integer<unsigned>("k", 4, 1, "Hochbaum-Shmoys accuracy k");
  const auto fuzz_seeds = args.integer<std::size_t>("fuzz-seeds", 200, 0, "fuzz seeds");
  const auto multifit_n =
      args.integer<std::size_t>("multifit-n", 200'000, 0, "MULTIFIT comparison tasks");
  const auto batch_count = args.integer<std::size_t>("batch", 16, 0, "batch instances");
  const auto batch_n = args.integer<std::size_t>("batch-n", 4096, 0, "batch item tasks");
  const std::string out_path =
      args.text("out", "BENCH_certify_scale.json", "write the JSON record here");
  args.finish_or_exit();

  const double bound = hs_guarantee(k);
  std::cout << "=== certify at scale: sizes={";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::cout << (i ? "," : "") << sizes[i];
  }
  std::cout << "} m=" << m << " k=" << k << " (guarantee " << bound << ") ===\n";

  // ---- scale: single-threaded engine certify per instance size ----------
  JsonArray scale_rows;
  bool any_violation = false;
  TextTable scale_table(
      {"n", "engine s", "lower", "upper", "guarantee", "iters", "backend"});
  for (std::size_t idx = 0; idx < sizes.size(); ++idx) {
    const std::size_t n = sizes[idx];
    const std::vector<Time> p = uniform_tasks(n, kSeed + idx);

    CertifyEngine engine;
    CertifyOptions options;
    options.ptas_precision = k;
    const auto start = Clock::now();
    const CertifiedCmax result = engine.certify(p, m, options);
    const double engine_seconds = seconds_since(start);

    // Deterministic shape stats from a direct backend call (the engine
    // path and the direct path share the same decision procedure).
    HsCertifyOptions hs;
    hs.precision_k = k;
    HsCertifyStats stats;
    const CertifiedCmax direct = hs_certified_cmax(p, m, hs, &stats);

    const double guarantee =
        result.lower > 0 ? result.upper / result.lower : 1.0;
    const bool violation = result.backend != CertifyBackend::kPtas ||
                           result.lower > result.upper ||
                           guarantee > bound * (1.0 + 1e-6) ||
                           direct.lower > result.upper * (1.0 + 1e-9);
    any_violation = any_violation || violation;

    scale_table.add_row({std::to_string(n), fmt(engine_seconds, 4),
                         fmt(result.lower, 2), fmt(result.upper, 2),
                         fmt(guarantee, 6), std::to_string(stats.iterations),
                         to_string(result.backend)});

    JsonObject row;
    row["n"] = JsonValue(static_cast<double>(n));
    row["engine_seconds"] = JsonValue(engine_seconds);
    row["lower"] = JsonValue(result.lower);
    row["upper"] = JsonValue(result.upper);
    row["guarantee"] = JsonValue(guarantee);
    row["bound"] = JsonValue(bound);
    row["iterations"] = JsonValue(static_cast<double>(stats.iterations));
    row["infeasible_proofs"] =
        JsonValue(static_cast<double>(stats.infeasible_proofs));
    row["dp_decisions"] = JsonValue(static_cast<double>(stats.dp_decisions));
    row["backend"] = JsonValue(std::string(to_string(result.backend)));
    row["violation"] = JsonValue(violation ? 1.0 : 0.0);
    scale_rows.push_back(JsonValue(std::move(row)));
  }
  std::cout << scale_table.render();

  // ---- multifit: sort-once + first-fit-tree regression guard ------------
  const std::vector<Time> mf_tasks = uniform_tasks(multifit_n, kSeed + 97);
  const auto mf_start = Clock::now();
  const MultifitResult mf = multifit_cmax(mf_tasks, m);
  const double multifit_seconds = seconds_since(mf_start);
  std::cout << "multifit n=" << multifit_n << ": " << multifit_seconds
            << " s, " << mf.iterations << " iterations, makespan "
            << mf.makespan << " (certified lower " << mf.certified_lower
            << ")\n";

  // ---- soundness: seeded fuzz against exact branch-and-bound ------------
  std::size_t soundness_violations = 0;
  std::size_t exact_cases = 0;
  for (std::size_t s = 0; s < fuzz_seeds; ++s) {
    Xoshiro256 rng(kSeed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    const std::size_t n = 3 + rng.next_below(10);           // 3..12 tasks
    const auto mm = static_cast<MachineId>(2 + rng.next_below(3));  // 2..4
    std::vector<Time> p(n);
    for (Time& v : p) v = sample_uniform(rng, 0.1, 10.0);
    const unsigned ks = 3 + static_cast<unsigned>(s % 3);

    const CertifiedCmax bnb = certified_cmax(p, mm, 2'000'000);
    HsCertifyOptions hs;
    hs.precision_k = ks;
    const CertifiedCmax ptas = hs_certified_cmax(p, mm, hs);
    const MultifitResult small_mf = multifit_cmax(p, mm);

    const double tol = 1e-9 * std::max(bnb.upper, Time{1});
    bool bad = ptas.lower > bnb.upper + tol;         // LB soundness
    bad = bad || ptas.lower > ptas.upper + tol;      // bracket order
    bad = bad || bnb.lower > ptas.upper + tol;       // schedule is real
    bad = bad || small_mf.certified_lower > bnb.upper + tol;
    if (bnb.exact) {
      ++exact_cases;
      const Time opt = bnb.upper;
      bad = bad || ptas.upper > hs_guarantee(ks) * opt * (1.0 + 1e-6);
      bad = bad || small_mf.makespan > multifit_guarantee() * opt * (1.0 + 1e-9);
    }
    if (bad) ++soundness_violations;
  }
  std::cout << "soundness fuzz: " << fuzz_seeds << " seeds ("
            << exact_cases << " with exact B&B optimum), "
            << soundness_violations << " violations\n";

  // ---- determinism: one PTAS batch across 1/2/8 threads -----------------
  std::vector<std::vector<Time>> batch_tasks;
  std::vector<CertifyRequest> requests;
  batch_tasks.reserve(batch_count);
  for (std::size_t b = 0; b < batch_count; ++b) {
    batch_tasks.push_back(uniform_tasks(batch_n, kSeed + 1000 + b));
  }
  for (const std::vector<Time>& p : batch_tasks) {
    requests.push_back(CertifyRequest{p, m});
  }
  const auto run_batch = [&](ThreadPool* pool) {
    CertifyEngine engine;
    CertifyOptions options;
    options.ptas_precision = k;
    options.pool = pool;
    return engine.certify_batch(requests, options);
  };
  const std::vector<CertifiedCmax> batch_seq = run_batch(nullptr);
  std::size_t bit_mismatches = 0;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const std::vector<CertifiedCmax> batch_par = run_batch(&pool);
    for (std::size_t i = 0; i < batch_seq.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(batch_seq[i].lower) !=
              std::bit_cast<std::uint64_t>(batch_par[i].lower) ||
          std::bit_cast<std::uint64_t>(batch_seq[i].upper) !=
              std::bit_cast<std::uint64_t>(batch_par[i].upper)) {
        ++bit_mismatches;
      }
    }
  }
  std::cout << "determinism: " << batch_count << " x n=" << batch_n
            << " batch across {1,2,8} threads, " << bit_mismatches
            << " bit mismatches\n";

  // ---- machine-readable summary -----------------------------------------
  JsonObject root;
  JsonObject params;
  JsonArray size_array;
  for (const std::size_t n : sizes) {
    size_array.push_back(JsonValue(static_cast<double>(n)));
  }
  params["sizes"] = JsonValue(std::move(size_array));
  params["m"] = JsonValue(static_cast<double>(m));
  params["k"] = JsonValue(static_cast<double>(k));
  params["fuzz_seeds"] = JsonValue(static_cast<double>(fuzz_seeds));
  params["multifit_n"] = JsonValue(static_cast<double>(multifit_n));
  params["batch"] = JsonValue(static_cast<double>(batch_count));
  params["batch_n"] = JsonValue(static_cast<double>(batch_n));
  root["params"] = JsonValue(std::move(params));
  root["scale"] = JsonValue(std::move(scale_rows));

  JsonObject multifit_obj;
  multifit_obj["n"] = JsonValue(static_cast<double>(multifit_n));
  multifit_obj["seconds"] = JsonValue(multifit_seconds);
  multifit_obj["iterations"] = JsonValue(static_cast<double>(mf.iterations));
  root["multifit"] = JsonValue(std::move(multifit_obj));

  JsonObject soundness;
  soundness["seeds"] = JsonValue(static_cast<double>(fuzz_seeds));
  soundness["exact_cases"] = JsonValue(static_cast<double>(exact_cases));
  soundness["violations"] = JsonValue(static_cast<double>(soundness_violations));
  root["soundness"] = JsonValue(std::move(soundness));

  JsonObject determinism;
  determinism["batch"] = JsonValue(static_cast<double>(batch_count));
  determinism["bit_mismatches"] = JsonValue(static_cast<double>(bit_mismatches));
  root["determinism"] = JsonValue(std::move(determinism));

  std::ofstream file(out_path);
  file << JsonValue(std::move(root)).dump(2) << "\n";
  std::cout << "JSON written to " << out_path << "\n";

  if (any_violation || soundness_violations != 0 || bit_mismatches != 0) {
    std::cerr << "FAIL: certified-bound violation, soundness failure, or "
                 "nondeterministic batch\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
