// End-to-end benchmark for rdp: runs one named workload through
// the library's public functions for a fixed wall-clock budget, checks
// every output outside the timed window, and prints one JSON result line.
//
//   rdp_e2e --workload=serve-steady --seed=1 --seconds=10 --trace=0
//           [--tmp-dir=DIR] [--trace-out=FILE]
//
// Workloads (see e2ebench/README.md for why each exists):
//   serve-steady             500k tasks, Poisson at rho ~ 0.70, LS-Group(8),
//                            then windowed SLO evaluation
//   serve-overload-recorded  same task mix at rho ~ 17 with a fresh
//                            TimelineRecorder per pass and a JSONL export
//   ratio-sweep              four strategies on shared realizations of
//                            256 24-task instances (branch-and-bound) and
//                            one 100k-task instance (Hochbaum-Shmoys), each
//                            pass on a fresh CertifyEngine, one thread
//
// A pass is one full pipeline run. --trace=0 times whole passes and
// reports the end-to-end metrics; --trace=1 interleaves untraced passes
// with passes that record a span around every call into a library layer
// and reports per-layer self time. The library's own MetricsRegistry and
// Tracer are never installed: they switch on instrumentation inside the
// library and would change what is measured.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/strategy.hpp"
#include "bounds/replication_bounds.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"
#include "exact/certify.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "perturb/stochastic.hpp"
#include "serve/arrivals.hpp"
#include "serve/slo.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/workspace.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

constexpr double kAlpha = 1.5;
constexpr int kSetupReps = 3;   // setup_s is the median of these
constexpr int kMinPasses = 3;   // timed passes even when --seconds is tiny

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) +
          upper) / 2.0;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory during the traced run, written once at the end.

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  // index of the enclosing span; -1 for a root
  int pass = -1;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) { spans_.reserve(1u << 16); }

  void begin_pass(int pass) {
    pass_ = pass;
    pass_span_ = open("pass", -1);
  }
  void end_pass() {
    close(pass_span_);
    pass_span_ = -1;
  }
  /// Opens a span under the current pass span (a root span between passes).
  int open(const char* name) { return open(name, pass_span_); }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = Clock::now(); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Chrome trace_event JSON (load in Perfetto or chrome://tracing).
  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = seconds_between(origin_, s.start) * 1e6;
      const double dur = seconds_between(s.start, s.end) * 1e6;
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << ts
          << ",\"dur\":" << dur << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass << "}}";
    }
    out << "\n]}\n";
  }

 private:
  int open(const char* name, int parent) {
    spans_.push_back(Span{name, Clock::now(), {}, parent, pass_});
    return static_cast<int>(spans_.size() - 1);
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int pass_ = -1;
  int pass_span_ = -1;
};

/// A span around one call into a library layer. Does nothing (not even a
/// clock read) when `log` is null, which is how untraced passes run.
class LayerSpan {
 public:
  LayerSpan(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->open(name) : -1) {}
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;
  ~LayerSpan() {
    if (log_) log_->close(id_);
  }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Output checks: counted, never thrown, so one bad pass shows as failed/
// attempted rather than a crash.

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::cerr << "rdp_e2e: check failed: " << what << "\n";
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void expect_no_violations(Checks& checks, const std::vector<check::Violation>& v,
                          const std::string& context) {
  checks.expect(v.empty(), context + ": " +
                               (v.empty() ? std::string() : check::to_string(v.front())));
}

/// FNV-1a over the raw bytes of a schedule: equal digests on every pass
/// mean the dispatch decisions and times repeated bit for bit.
class Digest {
 public:
  template <typename T>
  void add(const std::vector<T>& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void add(const Schedule& s) {
    add(s.assignment.machine_of);
    add(s.start);
    add(s.finish);
  }
  /// Split into two exactly representable halves for the fingerprint.
  void append_to(std::vector<double>& out) const {
    out.push_back(static_cast<double>(h_ >> 32));
    out.push_back(static_cast<double>(h_ & 0xffffffffull));
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------------------
// Workloads.

using Metrics = std::map<std::string, std::pair<double, std::string>>;
using Counts = std::map<std::string, double>;

/// Per-layer counts and their units. Every traced run prints all of them,
/// 0 where a layer does not run on the workload.
const std::pair<const char*, const char*> kLayerCounts[] = {
    {"serve.arrivals.rho", "ratio"},
    {"serve.dispatch.peak_backlog", "count"},
    {"serve.dispatch.queue_wait_p99_sim_s", "sim_s"},
    {"serve.slo.windows", "count"},
    {"serve.slo.violating_windows", "count"},
    {"obs.timeline.events", "count"},
    {"obs.timeline.dropped", "count"},
    {"obs.timeline.bytes_per_task", "B"},
    {"exact.certify.requests", "count"},
    {"exact.certify.misses", "count"},
    {"exact.certify.hit_ratio", "ratio"},
    {"exact.certify.hs_bracket_max", "ratio"},
    {"exact.certify.exact_frac", "ratio"},
    {"bounds.violations", "count"},
};

/// Deterministic quality outputs of a pass (simulated, not wall-clock).
struct Quality {
  double response_p50 = 0;
  double response_p99 = 0;
  double ratio_mean = 0;
  double ratio_max = 0;
};

/// Exact nearest-rank quantiles of simulated response times (the
/// library's histograms quantize to ~0.8% buckets, which hides small
/// changes). Reorders `v`.
void response_quantiles(std::vector<double>& v, Quality& q) {
  const auto at = [&](double p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
    const auto k = static_cast<std::ptrdiff_t>(std::max<std::size_t>(rank, 1) - 1);
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[static_cast<std::size_t>(k)];
  };
  q.response_p50 = at(0.50);
  q.response_p99 = at(0.99);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// One full pipeline run; the only code inside the timed window.
  virtual void run_pass(SpanLog* spans) = 0;
  /// Checks the last pass's outputs and returns the values that must be
  /// identical on every pass (digests, simulated metrics, counts).
  virtual std::vector<double> check(Checks& checks, SpanLog* spans) = 0;
  /// Fails the run when the generated inputs are outside the regime the
  /// workload is meant to measure.
  virtual void guard_regime() const {}
  [[nodiscard]] virtual double tasks_per_pass() const = 0;
  [[nodiscard]] virtual double trials_per_pass() const = 0;
  [[nodiscard]] virtual Quality quality() const = 0;
  /// Per-layer counts (names from kLayerCounts) of the last checked pass.
  [[nodiscard]] virtual Counts layer_counts() const = 0;
};

// -- serve-steady / serve-overload-recorded ---------------------------------

struct ServeConfig {
  double rate = 0;       // Poisson arrivals per simulated second
  bool slo = false;      // evaluate_slo after stats
  bool record = false;   // TimelineRecorder + JSONL export
  double rho_min = 0;
  double rho_max = 0;
};

constexpr std::size_t kServeTasks = 500'000;
constexpr MachineId kServeMachines = 64;

/// Lower bound on the optimal makespan with release dates on identical
/// machines: every task released at or after r_k still has to run after
/// r_k, so OPT >= r_k + (their total work) / m, and OPT >= r_j + p_j.
/// `arrivals` must be ascending (generate_arrivals guarantees it).
double release_date_lower_bound(std::span<const Time> arrivals,
                                const std::vector<Time>& actual, MachineId m) {
  double bound = 0;
  double suffix = 0;
  for (std::size_t k = arrivals.size(); k-- > 0;) {
    suffix += actual[k];
    bound = std::max({bound, arrivals[k] + suffix / static_cast<double>(m),
                      arrivals[k] + actual[k]});
  }
  return bound;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const ServeConfig& config, std::uint64_t seed, std::string tmp_dir)
      : config_(config),
        seed_(seed),
        strategy_(strategy_from_spec("ls-group:8")),
        slo_spec_(parse_slo_spec("p99=200,window=1000,sustain=3")),
        timeline_path_(std::move(tmp_dir) + "/timeline-" +
                       std::to_string(::getpid()) + ".jsonl") {}

  ~ServeWorkload() override {
    std::error_code ignored;
    std::filesystem::remove(timeline_path_, ignored);
  }

  void run_pass(SpanLog* spans) override {
    {
      LayerSpan span(spans, "workload.generate");
      WorkloadParams params;
      params.num_tasks = kServeTasks;
      params.num_machines = kServeMachines;
      params.alpha = kAlpha;
      params.seed = seed_;
      instance_ = uniform_workload(params);
    }
    {
      LayerSpan span(spans, "perturb.realize");
      actual_ = realize(instance_, NoiseModel::kUniform, seed_);
    }
    {
      LayerSpan span(spans, "serve.arrivals");
      ArrivalParams params;
      params.model = ArrivalModel::kPoisson;
      params.rate = config_.rate;
      params.seed = seed_ + 1;
      arrivals_ = generate_arrivals(params, kServeTasks);
    }
    {
      LayerSpan span(spans, "algo.place");
      placement_ = strategy_.place(instance_);
    }
    {
      LayerSpan span(spans, "algo.priority");
      priority_ = make_priority(instance_, strategy_.rule());
    }
    // A fresh recorder per pass, as `rdp_cli --timeline-out` builds one per
    // run; a reused one would carry the previous pass's events.
    recorder_.reset();
    if (config_.record) recorder_ = std::make_unique<obs::TimelineRecorder>();
    {
      const obs::TimelineScope scope(recorder_.get());
      LayerSpan span(spans, "serve.dispatch");
      serve_stream(instance_, placement_, actual_, priority_, arrivals_, {}, {},
                   thread_workspace(), result_);
    }
    {
      LayerSpan span(spans, "serve.stats");
      stats_ = compute_serve_stats(result_.schedule, arrivals_);
    }
    if (config_.slo) {
      LayerSpan span(spans, "serve.slo");
      slo_ = evaluate_slo(result_.schedule, arrivals_, slo_spec_);
    }
    if (config_.record) {
      LayerSpan span(spans, "obs.timeline.save");
      recorder_->save(timeline_path_);
    }
  }

  std::vector<double> check(Checks& checks, SpanLog* spans) override {
    const Schedule& schedule = result_.schedule;
    {
      LayerSpan span(spans, "check.invariants");
      expect_no_violations(
          checks, check::check_invariants(instance_, placement_, actual_, schedule),
          "serve schedule invariants");
    }
    // The invariant checker has no notion of release times.
    std::size_t early = 0;
    for (std::size_t j = 0; j < schedule.num_tasks(); ++j) {
      if (schedule.start[j] < arrivals_[j]) ++early;
    }
    checks.expect(early == 0, std::to_string(early) + " tasks started before arrival");

    const double lower =
        release_date_lower_bound(arrivals_, actual_.actual, kServeMachines);
    quality_.ratio_mean = quality_.ratio_max = schedule.makespan() / lower;
    checks.expect(quality_.ratio_max >= 1.0 - 1e-9,
                  "makespan below the release-date lower bound");
    response_.resize(schedule.num_tasks());
    for (std::size_t j = 0; j < response_.size(); ++j) {
      response_[j] = schedule.finish[j] - arrivals_[j];
    }
    response_quantiles(response_, quality_);

    double work = 0;
    for (const Time p : actual_.actual) work += p;
    rho_ = config_.rate * work / static_cast<double>(actual_.actual.size()) /
           static_cast<double>(kServeMachines);

    timeline_events_ = 0;
    timeline_bytes_ = 0;
    if (config_.record) check_export(checks);

    Digest digest;
    digest.add(schedule);
    std::vector<double> fingerprint;
    digest.append_to(fingerprint);
    fingerprint.insert(fingerprint.end(),
                       {quality_.response_p50, quality_.response_p99, quality_.ratio_max,
                        static_cast<double>(result_.peak_backlog),
                        static_cast<double>(timeline_events_)});
    if (config_.slo) {
      fingerprint.insert(fingerprint.end(),
                         {static_cast<double>(slo_.windows.size()),
                          static_cast<double>(slo_.violating_windows),
                          slo_.sustained_violation ? 1.0 : 0.0});
    }
    return fingerprint;
  }

  void guard_regime() const override {
    std::cout << "# offered load rho = rate * mean actual duration / m = " << rho_
              << "\n";
    if (rho_ < config_.rho_min || rho_ > config_.rho_max) {
      throw std::runtime_error("regime guard: rho = " + std::to_string(rho_) +
                               " outside [" + std::to_string(config_.rho_min) + ", " +
                               std::to_string(config_.rho_max) + "]");
    }
  }

  [[nodiscard]] double tasks_per_pass() const override {
    return static_cast<double>(kServeTasks);
  }
  [[nodiscard]] double trials_per_pass() const override { return 1.0; }

  [[nodiscard]] Quality quality() const override {
    return quality_;
  }

  [[nodiscard]] Counts layer_counts() const override {
    return {
        {"serve.arrivals.rho", rho_},
        {"serve.dispatch.peak_backlog", static_cast<double>(result_.peak_backlog)},
        {"serve.dispatch.queue_wait_p99_sim_s", stats_.queue_wait.p99},
        {"serve.slo.windows", static_cast<double>(slo_.windows.size())},
        {"serve.slo.violating_windows", static_cast<double>(slo_.violating_windows)},
        {"obs.timeline.events", static_cast<double>(timeline_events_)},
        {"obs.timeline.dropped",
         recorder_ ? static_cast<double>(recorder_->dropped()) : 0.0},
        {"obs.timeline.bytes_per_task",
         static_cast<double>(timeline_bytes_) / static_cast<double>(kServeTasks)},
    };
  }

 private:
  /// The exported file must hold every recorded event: a header line
  /// whose count matches size(), then one line per event.
  void check_export(Checks& checks) {
    checks.expect(recorder_->dropped() == 0,
                  std::to_string(recorder_->dropped()) + " timeline events dropped");
    std::ifstream in(timeline_path_, std::ios::binary);
    std::string header;
    std::getline(in, header);
    std::size_t lines = header.empty() ? 0 : 1;
    std::vector<char> buffer(1u << 20);
    while (in) {
      in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      lines += static_cast<std::size_t>(
          std::count(buffer.data(), buffer.data() + in.gcount(), '\n'));
    }
    in.close();
    timeline_events_ = recorder_->size();
    const std::string expected_header =
        "\"events\":" + std::to_string(timeline_events_) + ",";
    checks.expect(header.find(expected_header) != std::string::npos,
                  "timeline header does not carry " + expected_header);
    checks.expect(lines == timeline_events_ + 1,
                  "timeline export has " + std::to_string(lines) + " lines for " +
                      std::to_string(timeline_events_) + " events");
    checks.expect(timeline_events_ >= 3 * kServeTasks,
                  "timeline holds fewer than arrive/start/finish per task");
    std::error_code ec;
    timeline_bytes_ = std::filesystem::file_size(timeline_path_, ec);
    std::filesystem::remove(timeline_path_, ec);
  }

  ServeConfig config_;
  std::uint64_t seed_;
  TwoPhaseStrategy strategy_;
  SloSpec slo_spec_;
  std::string timeline_path_;

  Instance instance_;
  Realization actual_;
  std::vector<Time> arrivals_;
  Placement placement_;
  std::vector<TaskId> priority_;
  std::unique_ptr<obs::TimelineRecorder> recorder_;
  StreamingDispatchResult result_;
  ServeStats stats_;
  SloReport slo_;

  std::vector<double> response_;
  Quality quality_;
  std::size_t timeline_events_ = 0;
  std::uintmax_t timeline_bytes_ = 0;
  double rho_ = 0;
};

// -- ratio-sweep -------------------------------------------------------------

constexpr MachineId kSweepMachines = 8;
// Branch-and-bound budget per solve. Lower than the repro default of
// 400 000: a pass certifies many independent small instances so its cost
// does not hinge on how hard one seed's instance happens to be, and the
// smaller budget keeps that pass near 1.5 s.
constexpr std::uint64_t kNodeBudget = 100'000;
// Seeds of consecutive benchmark seeds' small instances never overlap.
constexpr std::uint64_t kInstanceSeedStride = 1u << 16;

/// One family of the sweep: `instances` generated instances, each with
/// `realizations` stochastic realizations, certified by one backend.
struct SweepPart {
  const char* certify_layer;
  std::size_t tasks;
  std::size_t instances;
  std::size_t realizations;
  CertifyBackend backend;
  std::vector<Instance> instance;
  std::vector<Realization> actual;  // trial t realizes instance[t / realizations]

  [[nodiscard]] std::size_t trials() const { return instances * realizations; }
};

/// One strategy on one part: per-instance phase-1 outputs, per-trial
/// dispatch results and certified optima.
struct SweepCell {
  std::vector<Placement> placement;
  std::vector<std::vector<TaskId>> priority;
  std::vector<DispatchResult> dispatched;
  std::vector<CertifiedCmax> optima;
};

struct SweepStrategy {
  TwoPhaseStrategy strategy;
  double bound;  // the paper's competitive-ratio guarantee
};

class RatioSweepWorkload final : public Workload {
 public:
  explicit RatioSweepWorkload(std::uint64_t seed) : seed_(seed) {
    parts_.push_back(SweepPart{"exact.certify.bnb", 24, 256, 1, CertifyBackend::kBnb, {}, {}});
    parts_.push_back(
        SweepPart{"exact.certify.hs", 100'000, 1, 4, CertifyBackend::kPtas, {}, {}});
    const MachineId m = kSweepMachines;
    strategies_.push_back({strategy_from_spec("lpt-no-choice"),
                           thm2_lpt_no_choice(kAlpha, m)});
    strategies_.push_back({strategy_from_spec("lpt-no-restriction"),
                           thm3_lpt_no_restriction(kAlpha, m)});
    strategies_.push_back({strategy_from_spec("ls-group:2"), thm4_ls_group(kAlpha, m, 2)});
    strategies_.push_back({strategy_from_spec("ls-group:4"), thm4_ls_group(kAlpha, m, 4)});
    cells_.resize(strategies_.size() * parts_.size());
  }

  void run_pass(SpanLog* spans) override {
    for (SweepPart& part : parts_) {
      LayerSpan span(spans, "workload.generate");
      part.instance.resize(part.instances);
      for (std::size_t i = 0; i < part.instances; ++i) {
        WorkloadParams params;
        params.num_tasks = part.tasks;
        params.num_machines = kSweepMachines;
        params.alpha = kAlpha;
        params.seed = instance_seed(i);
        part.instance[i] = uniform_workload(params);
      }
    }
    for (SweepPart& part : parts_) {
      LayerSpan span(spans, "perturb.realize");
      part.actual.resize(part.trials());
      for (std::size_t t = 0; t < part.trials(); ++t) {
        const std::size_t i = t / part.realizations;
        part.actual[t] = realize(part.instance[i], NoiseModel::kUniform,
                                 instance_seed(i) + t % part.realizations);
      }
    }
    // Fresh per pass: a shared engine would turn every later pass into
    // pure cache hits.
    engine_ = std::make_unique<CertifyEngine>();
    CertifyOptions options;
    options.node_budget = kNodeBudget;
    std::vector<CertifyRequest> requests;
    SimWorkspace& ws = thread_workspace();
    for (std::size_t s = 0; s < strategies_.size(); ++s) {
      const TwoPhaseStrategy& strategy = strategies_[s].strategy;
      for (std::size_t p = 0; p < parts_.size(); ++p) {
        const SweepPart& part = parts_[p];
        SweepCell& cell = cells_[s * parts_.size() + p];
        cell.placement.resize(part.instances);
        cell.priority.resize(part.instances);
        {
          LayerSpan span(spans, "algo.place");
          for (std::size_t i = 0; i < part.instances; ++i) {
            cell.placement[i] = strategy.place(part.instance[i]);
          }
        }
        {
          LayerSpan span(spans, "algo.priority");
          for (std::size_t i = 0; i < part.instances; ++i) {
            cell.priority[i] = make_priority(part.instance[i], strategy.rule());
          }
        }
        cell.dispatched.resize(part.trials());
        {
          LayerSpan span(spans, "sim.dispatch");
          for (std::size_t t = 0; t < part.trials(); ++t) {
            const std::size_t i = t / part.realizations;
            dispatch_online(part.instance[i], cell.placement[i], part.actual[t],
                            cell.priority[i], {}, {}, ws, cell.dispatched[t]);
          }
        }
        requests.clear();
        for (const Realization& r : part.actual) {
          requests.push_back(CertifyRequest{r.actual, kSweepMachines});
        }
        {
          LayerSpan span(spans, part.certify_layer);
          cell.optima = engine_->certify_batch(requests, options);
        }
      }
    }
  }

  std::vector<double> check(Checks& checks, SpanLog* spans) override {
    Digest digest;
    completion_.clear();  // every task is released at t = 0: response = finish
    double ratio_sum = 0;
    quality_.ratio_max = 0;
    exact_ = 0;
    bound_violations_ = 0;
    hs_bracket_max_ = 0;
    for (std::size_t s = 0; s < strategies_.size(); ++s) {
      const SweepStrategy& strategy = strategies_[s];
      for (std::size_t p = 0; p < parts_.size(); ++p) {
        const SweepPart& part = parts_[p];
        const SweepCell& cell = cells_[s * parts_.size() + p];
        for (std::size_t t = 0; t < part.trials(); ++t) {
          const std::size_t i = t / part.realizations;
          const Schedule& schedule = cell.dispatched[t].schedule;
          const CertifiedCmax& opt = cell.optima[t];
          const std::string what = strategy.strategy.name() + " n=" +
                                   std::to_string(part.tasks) + " trial " +
                                   std::to_string(t);
          {
            LayerSpan span(spans, "check.invariants");
            expect_no_violations(checks,
                                 check::check_invariants(part.instance[i], cell.placement[i],
                                                         part.actual[t], schedule),
                                 what);
          }
          digest.add(schedule);
          completion_.insert(completion_.end(), schedule.finish.begin(),
                             schedule.finish.end());
          checks.expect(opt.lower > 0 && opt.lower <= opt.upper,
                        what + ": certified bracket lower > upper");
          checks.expect(opt.backend == part.backend, what + ": wrong certify backend");
          const double ratio = schedule.makespan() / opt.lower;
          checks.expect(ratio >= 1.0 - 1e-9, what + ": ratio below 1");
          const bool within = ratio <= strategy.bound * (1.0 + 1e-9);
          checks.expect(within, what + ": ratio " + std::to_string(ratio) +
                                    " above the theorem bound " +
                                    std::to_string(strategy.bound));
          if (!within) ++bound_violations_;
          if (opt.backend == CertifyBackend::kPtas) {
            const double bracket = opt.upper / opt.lower;
            hs_bracket_max_ = std::max(hs_bracket_max_, bracket);
            checks.expect(bracket <= 1.0 + 1.0 / 8.0 + 1e-12,
                          what + ": HS bracket wider than 1 + 1/8");
          }
          ratio_sum += ratio;
          quality_.ratio_max = std::max(quality_.ratio_max, ratio);
          if (opt.exact) ++exact_;
        }
      }
    }
    cache_ = engine_->cache_stats();
    // Strategies replay the same realizations: only the first strategy's
    // requests miss the fresh engine's cache.
    const std::uint64_t expected_misses = trials() / strategies_.size();
    checks.expect(cache_.misses == expected_misses,
                  "certify misses " + std::to_string(cache_.misses) + " != " +
                      std::to_string(expected_misses));
    checks.expect(cache_.hits + cache_.misses == trials(),
                  "certify requests do not match the trial count");
    quality_.ratio_mean = ratio_sum / static_cast<double>(trials());
    response_quantiles(completion_, quality_);

    std::vector<double> fingerprint;
    digest.append_to(fingerprint);
    fingerprint.insert(fingerprint.end(),
                       {quality_.ratio_mean, quality_.ratio_max,
                        static_cast<double>(exact_), static_cast<double>(cache_.misses),
                        hs_bracket_max_, quality_.response_p50, quality_.response_p99});
    return fingerprint;
  }

  [[nodiscard]] double tasks_per_pass() const override {
    double tasks = 0;
    for (const SweepPart& part : parts_) {
      tasks += static_cast<double>(part.tasks * part.trials());
    }
    return tasks * static_cast<double>(strategies_.size());
  }
  [[nodiscard]] double trials_per_pass() const override {
    return static_cast<double>(trials());
  }

  [[nodiscard]] Quality quality() const override {
    return quality_;
  }

  [[nodiscard]] Counts layer_counts() const override {
    return {
        {"exact.certify.requests", static_cast<double>(cache_.hits + cache_.misses)},
        {"exact.certify.misses", static_cast<double>(cache_.misses)},
        {"exact.certify.hit_ratio", cache_.hit_rate()},
        {"exact.certify.hs_bracket_max", hs_bracket_max_},
        {"exact.certify.exact_frac",
         static_cast<double>(exact_) / static_cast<double>(trials())},
        {"bounds.violations", static_cast<double>(bound_violations_)},
    };
  }

 private:
  [[nodiscard]] std::uint64_t trials() const {
    std::uint64_t per_strategy = 0;
    for (const SweepPart& part : parts_) per_strategy += part.trials();
    return per_strategy * strategies_.size();
  }

  /// Generator seed of instance `i` of a part; realization r of it uses
  /// instance_seed(i) + r, as measure_ratio_trials numbers its trials.
  [[nodiscard]] std::uint64_t instance_seed(std::size_t i) const {
    return seed_ * kInstanceSeedStride + i;
  }

  std::uint64_t seed_;
  std::vector<SweepPart> parts_;
  std::vector<SweepStrategy> strategies_;
  std::vector<SweepCell> cells_;
  std::unique_ptr<CertifyEngine> engine_;

  CertifyCacheStats cache_;
  std::vector<double> completion_;
  Quality quality_;
  double hs_bracket_max_ = 0;
  std::size_t exact_ = 0;
  std::size_t bound_violations_ = 0;
};

// ---------------------------------------------------------------------------
// Command line, run loop and result line.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir = ".";
  std::string trace_out;
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "seed") {
      options.seed = std::stoull(value);
    } else if (key == "seconds") {
      options.seconds = std::stod(value);
    } else if (key == "trace") {
      options.trace = value != "0";
    } else if (key == "tmp-dir") {
      options.tmp_dir = value;
    } else if (key == "trace-out") {
      options.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "serve-steady") {
    return std::make_unique<ServeWorkload>(
        ServeConfig{0.73, true, false, 0.6, 0.8}, options.seed, options.tmp_dir);
  }
  if (options.workload == "serve-overload-recorded") {
    return std::make_unique<ServeWorkload>(
        ServeConfig{17.7, false, true, 10.0, std::numeric_limits<double>::infinity()},
        options.seed, options.tmp_dir);
  }
  if (options.workload == "ratio-sweep") {
    return std::make_unique<RatioSweepWorkload>(options.seed);
  }
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "' (serve-steady, serve-overload-recorded, ratio-sweep)");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs the pass's checks and counts a mismatch against the first pass.
void check_pass(Workload& workload, Checks& checks, SpanLog* spans,
                std::optional<std::vector<double>>& reference) {
  const std::vector<double> fingerprint = workload.check(checks, spans);
  if (!reference) {
    reference = fingerprint;
    return;
  }
  checks.expect(fingerprint == *reference,
                "pass outputs differ from the first pass (digest or simulated metrics)");
}

/// Per-layer self time from the traced passes: each span's duration minus
/// the time its child spans cover, summed per layer and pass, then the
/// median over passes. The pass span's self time is `pass.other`.
void add_layer_times(const SpanLog& log, int passes, Metrics& out) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);
    }
  }
  const char* const layers[] = {
      "workload.generate", "perturb.realize",  "serve.arrivals",   "algo.place",
      "algo.priority",     "serve.dispatch",   "serve.stats",      "serve.slo",
      "obs.timeline.save", "sim.dispatch",     "exact.certify.bnb", "exact.certify.hs",
      "check.invariants"};
  std::map<std::string, std::vector<double>> per_pass;
  for (const char* layer : layers) per_pass[layer].assign(static_cast<std::size_t>(passes), 0.0);
  std::vector<double> pass_total(static_cast<std::size_t>(passes), 0.0);
  std::vector<double> pass_other(static_cast<std::size_t>(passes), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto pass = static_cast<std::size_t>(s.pass);
    const double self = seconds_between(s.start, s.end) - child_time[i];
    if (std::strcmp(s.name, "pass") == 0) {
      pass_total[pass] = seconds_between(s.start, s.end);
      pass_other[pass] = self;
    } else {
      per_pass.at(s.name)[pass] += self;
    }
  }
  for (const auto& [layer, times] : per_pass) out[layer + ".s"] = {median(times), "s"};
  out["pass.other.s"] = {median(pass_other), "s"};
  out["pass.s"] = {median(pass_total), "s"};

  std::vector<double> dispatch_share(static_cast<std::size_t>(passes));
  for (std::size_t p = 0; p < dispatch_share.size(); ++p) {
    dispatch_share[p] = per_pass.at("serve.dispatch")[p] / pass_total[p];
  }
  out["serve.dispatch.share"] = {median(dispatch_share), "ratio"};
}

void print_json_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

int run(const Options& options) {
  std::filesystem::create_directories(options.tmp_dir);
  Checks checks;
  std::optional<std::vector<double>> reference;

  // Set-up: build the workload and run one untimed warm-up pass (which
  // also fills lazily built library state). Repeated so setup_s is a
  // median; each repetition starts from a fresh workload object.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    workload.reset();
    const auto start = Clock::now();
    workload = make_workload(options);
    workload->run_pass(nullptr);
    setup_times.push_back(seconds_between(start, Clock::now()));
    check_pass(*workload, checks, nullptr, reference);
  }
  workload->guard_regime();

  std::vector<double> untraced;
  std::vector<double> traced;
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>();
  const auto measure_start = Clock::now();
  const auto timed_pass = [&](SpanLog* spans, std::vector<double>& times) {
    if (spans) spans->begin_pass(static_cast<int>(times.size()));
    const auto start = Clock::now();
    workload->run_pass(spans);
    times.push_back(seconds_between(start, Clock::now()));
    if (spans) spans->end_pass();
    check_pass(*workload, checks, spans, reference);
  };
  // The traced run alternates untraced and traced passes so the tracing
  // overhead is measured under the same conditions.
  while (static_cast<int>(untraced.size()) < kMinPasses ||
         seconds_between(measure_start, Clock::now()) < options.seconds) {
    timed_pass(nullptr, untraced);
    if (log) timed_pass(log.get(), traced);
  }

  const double pass_s = median(untraced);
  Metrics metrics;
  if (!options.trace) {
    const Quality q = workload->quality();
    metrics["tasks_per_s"] = {workload->tasks_per_pass() / pass_s, "1/s"};
    metrics["trials_per_s"] = {workload->trials_per_pass() / pass_s, "1/s"};
    metrics["setup_s"] = {median(setup_times), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["sim_response_p50_s"] = {q.response_p50, "sim_s"};
    metrics["sim_response_p99_s"] = {q.response_p99, "sim_s"};
    metrics["ratio_mean"] = {q.ratio_mean, "ratio"};
    metrics["ratio_max"] = {q.ratio_max, "ratio"};
  } else {
    add_layer_times(*log, static_cast<int>(traced.size()), metrics);
    // Only ratio-sweep dispatches through dispatch_online, and every task
    // of its pass goes through it.
    const double sim_dispatch_s = metrics.at("sim.dispatch.s").first;
    metrics["sim.dispatch.tasks_per_s"] = {
        sim_dispatch_s > 0 ? workload->tasks_per_pass() / sim_dispatch_s : 0.0, "1/s"};
    // Traced throughput against untraced: 1 means tracing cost nothing.
    metrics["trace.traced_vs_untraced"] = {pass_s / median(traced), "ratio"};
    const Counts counts = workload->layer_counts();
    for (const auto& [name, unit] : kLayerCounts) {
      const auto it = counts.find(name);
      metrics[name] = {it == counts.end() ? 0.0 : it->second, unit};
    }
    if (!options.trace_out.empty()) log->write_chrome_json(options.trace_out);
  }

  std::cout << "# workload=" << options.workload << " seed=" << options.seed
            << " untraced passes=" << untraced.size() << " (min/median/max "
            << *std::min_element(untraced.begin(), untraced.end()) << " / " << pass_s
            << " / " << *std::max_element(untraced.begin(), untraced.end())
            << " s) traced passes=" << traced.size() << " checks=" << checks.attempted()
            << " failed=" << checks.failed() << "\n";
  std::cout << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": ";
    print_json_number(std::cout, value.first);
    std::cout << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "rdp_e2e: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
