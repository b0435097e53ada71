// Tests for the perf regression gate (src/perf/): building BenchRecords
// the way benches do, strict loading of records and --metrics-out
// snapshots, min-of-k repeat merging, JSON round-trips, and the
// noise-aware comparison -- including the golden cases: a self-compare is
// clean, and an injected 2x slowdown is detected and named.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/json.hpp"
#include "perf/bench_record.hpp"
#include "perf/compare.hpp"

namespace rdp {
namespace {

using enum perf::Direction;
using enum perf::Noise;

// A miniature ext_certify_speedup record (the bench also records cache
// counts and per-strategy series ratios as informational metrics).
perf::BenchRecord certify_record(double seq_seconds = 0.021,
                                 double hit_rate = 0.8, int trials = 2) {
  perf::BenchRecord record("certify", "results/BENCH_certify_smoke.json");
  JsonObject params;
  params["alphas"] = JsonArray{JsonValue(1.5)};
  params["budget"] = 300000;
  params["m"] = 8;
  params["n"] = 22;
  params["threads"] = 8;
  params["trials"] = trials;
  record.set_params(params);
  record.add("timing.engine_seq_seconds", seq_seconds, kLower, kTiming);
  record.add("timing.engine_par_seconds", 0.022, kLower, kTiming);
  record.add("timing.legacy_seconds", 0.110, kLower, kTiming);
  record.add("timing.speedup_seq", 5.2, kHigher, kTiming);
  record.add("timing.speedup_par", 5.0, kHigher, kTiming);
  record.add("cache.hit_rate", hit_rate, kHigher, kExact);
  record.add("cache.hits", 16, kNone, kExact);
  record.add("checks.seq_par_bit_mismatches", 0, kLower, kExact);
  record.add("checks.max_abs_diff_vs_legacy", 2.2e-16, kLower, kExact,
             /*abs_slack=*/1e-12);
  return record;
}

// A miniature ext_check_overhead record.
perf::BenchRecord overhead_record(double off_overhead_ns = 2.5) {
  perf::BenchRecord record("check_overhead", "BENCH_check_overhead_smoke.json");
  JsonObject params;
  params["cases"] = 60;
  params["reps"] = 5;
  record.set_params(params);
  record.add("baseline_seconds", 1.1, kLower, kTiming);
  record.add("off_overhead_ns_per_dispatch", off_overhead_ns, kLower, kTiming,
             /*abs_slack=*/50.0);
  record.add("multiplier", 1.7, kLower, kTiming, /*abs_slack=*/0.05);
  return record;
}

// The stored form of a one-metric record, as a bench writes it.
std::string stored_record(const std::string& metric_json) {
  return R"({"schema_version": 1, "name": "serve_throughput_steady",
             "params_hash": "a5a88fe7a3ae4c03", "metrics": {"serve_seconds": )" +
         metric_json + "}}";
}

std::string load_error(const std::string& text, const std::string& source) {
  try {
    (void)perf::normalize_bench_json(parse_json(text), source);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// --- Building and reading records ------------------------------------------

TEST(BenchRecord, BuilderSetsProvenanceAndMetrics) {
  const perf::BenchRecord record = certify_record();
  EXPECT_EQ(record.name, "certify");
  EXPECT_EQ(record.source, "BENCH_certify_smoke.json") << "directory stripped";
  EXPECT_EQ(record.params_json,
            R"({"alphas":[1.5],"budget":300000,"m":8,"n":22,"threads":8,"trials":2})");
  EXPECT_EQ(record.params_hash, perf::fnv1a_hex(record.params_json));
  EXPECT_EQ(record.params_hash.size(), 16u);

  const perf::BenchMetric* seq = record.find("timing.engine_seq_seconds");
  ASSERT_NE(seq, nullptr);
  EXPECT_DOUBLE_EQ(seq->value, 0.021);
  EXPECT_EQ(seq->direction, kLower);
  EXPECT_EQ(seq->noise, kTiming);
  EXPECT_EQ(seq->repeats, std::vector<double>{0.021});
  EXPECT_EQ(seq->mad, 0.0);

  const perf::BenchRecord overhead = overhead_record();
  const perf::BenchMetric* off = overhead.find("off_overhead_ns_per_dispatch");
  ASSERT_NE(off, nullptr);
  EXPECT_GT(off->abs_slack, 0.0) << "near-zero baselines need absolute slack";
}

TEST(BenchRecord, AddRejectsADuplicateMetric) {
  perf::BenchRecord record = certify_record();
  EXPECT_THROW(record.add("cache.hit_rate", 0.5, kHigher, kExact),
               std::invalid_argument);
}

TEST(BenchRecord, NormalizesMetricsSnapshotShape) {
  const char* snapshot = R"({
    "counters": {"sim.dispatch.calls": 40},
    "gauges": {"sweep.cells_per_sec": 7000.0},
    "histograms": {"sweep.cell_seconds": {
      "count": 40, "mean": 0.001, "stddev": 0.0001, "min": 0.0005,
      "max": 0.002, "sum": 0.04, "p50": 0.0009, "p90": 0.0015, "p99": 0.0019}}
  })";
  const perf::BenchRecord record =
      perf::normalize_bench_json(parse_json(snapshot), "metrics.json");
  EXPECT_EQ(record.name, "metrics_snapshot");
  const perf::BenchMetric* p99 = record.find("histograms.sweep.cell_seconds.p99");
  ASSERT_NE(p99, nullptr);
  EXPECT_EQ(p99->direction, kLower) << "seconds-like histograms gate on tails";
  EXPECT_DOUBLE_EQ(p99->value, 0.0019);
  const perf::BenchMetric* calls = record.find("counters.sim.dispatch.calls");
  ASSERT_NE(calls, nullptr);
  EXPECT_EQ(calls->direction, kNone) << "counters are informational";
}

TEST(BenchRecord, RejectsUnknownShape) {
  EXPECT_THROW(
      (void)perf::normalize_bench_json(parse_json(R"({"foo": 1})"), "x.json"),
      std::runtime_error);
  // The flat object ext_serve_throughput once wrote: benches write records
  // now, so the loader no longer guesses at bench-specific shapes.
  const char* flat_serve = R"({"tasks": 50000, "machines": 64, "rate": 200,
    "serve_seconds": 0.03, "serve_vs_offline_ratio": 0.82,
    "drain_parity_mismatches": 0})";
  EXPECT_THROW((void)perf::normalize_bench_json(parse_json(flat_serve),
                                                "BENCH_serve_throughput.json"),
               std::runtime_error);
  EXPECT_THROW((void)perf::load_bench_file("/nonexistent/bench.json"),
               std::runtime_error);
}

// A typo'd direction used to read as higher-is-better, so a 2x slower
// serve_seconds compared "improved" and the gate passed.
TEST(BenchRecord, RejectsUnknownDirectionNamingFileAndMetric) {
  const std::string error = load_error(
      stored_record(R"({"value": 0.064, "direction": "Lower", "noise": "timing"})"),
      "serve_throughput_steady.json");
  EXPECT_NE(error.find("serve_throughput_steady.json"), std::string::npos) << error;
  EXPECT_NE(error.find("serve_seconds"), std::string::npos) << error;
  EXPECT_NE(error.find("Lower"), std::string::npos) << error;
  EXPECT_NE(load_error(stored_record(R"({"value": 1, "noise": "timing"})"), "a.json"),
            "")
      << "a missing direction is not a default";
}

// Any noise class but "exact" used to read as timing, with its 20% slack.
TEST(BenchRecord, RejectsUnknownNoiseClassNamingFileAndMetric) {
  const std::string error = load_error(
      stored_record(R"({"value": 0, "direction": "lower", "noise": "Exact"})"),
      "serve_throughput_steady.json");
  EXPECT_NE(error.find("serve_throughput_steady.json"), std::string::npos) << error;
  EXPECT_NE(error.find("serve_seconds"), std::string::npos) << error;
  EXPECT_NE(error.find("Exact"), std::string::npos) << error;
}

TEST(BenchRecord, RejectsAMetricWithoutAValue) {
  for (const char* metric :
       {R"({"direction": "lower", "noise": "timing"})",
        R"({"value": "0.03", "direction": "lower", "noise": "timing"})",
        R"({"value": 0.03, "repeats": ["x"], "direction": "lower", "noise": "timing"})"}) {
    const std::string error = load_error(stored_record(metric), "b.json");
    EXPECT_NE(error.find("b.json"), std::string::npos) << metric;
    EXPECT_NE(error.find("serve_seconds"), std::string::npos) << metric;
  }
  // Repeats alone are enough: value is their best.
  const perf::BenchRecord record = perf::normalize_bench_json(
      parse_json(stored_record(
          R"({"repeats": [0.04, 0.03], "direction": "lower", "noise": "timing"})")),
      "c.json");
  const perf::BenchMetric* seconds = record.find("serve_seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_DOUBLE_EQ(seconds->value, 0.03);
}

TEST(BenchRecord, JsonRoundTripPreservesEverything) {
  perf::BenchRecord record = certify_record();
  record.git_sha = "abc123";
  record.host = perf::host_fingerprint();
  const perf::BenchRecord back =
      perf::normalize_bench_json(parse_json(record.to_json()), "roundtrip.json");
  EXPECT_EQ(back.name, record.name);
  EXPECT_EQ(back.params_hash, record.params_hash);
  EXPECT_EQ(back.git_sha, "abc123");
  EXPECT_EQ(back.host, record.host);
  ASSERT_EQ(back.metrics.size(), record.metrics.size());
  for (const auto& [key, m] : record.metrics) {
    const perf::BenchMetric* other = back.find(key);
    ASSERT_NE(other, nullptr) << key;
    EXPECT_DOUBLE_EQ(other->value, m.value);
    EXPECT_EQ(other->direction, m.direction);
    EXPECT_EQ(other->noise, m.noise);
    EXPECT_DOUBLE_EQ(other->abs_slack, m.abs_slack);
    EXPECT_EQ(other->repeats, m.repeats);
  }
}

TEST(BenchRecord, MergeRepeatsTakesBestAndComputesMad) {
  std::vector<perf::BenchRecord> runs = {certify_record(0.030),
                                         certify_record(0.021),
                                         certify_record(0.025)};
  const perf::BenchRecord merged = perf::merge_repeats(runs);
  const perf::BenchMetric* seq = merged.find("timing.engine_seq_seconds");
  ASSERT_NE(seq, nullptr);
  EXPECT_DOUBLE_EQ(seq->value, 0.021) << "min-of-k for lower-is-better";
  EXPECT_EQ(seq->repeats.size(), 3u);
  // MAD of {0.030, 0.021, 0.025}: median 0.025, deviations {5,4,0}e-3,
  // median deviation 4e-3.
  EXPECT_NEAR(seq->mad, 0.004, 1e-12);
  const perf::BenchMetric* speedup = merged.find("timing.speedup_seq");
  ASSERT_NE(speedup, nullptr);
  EXPECT_DOUBLE_EQ(speedup->value, 5.2) << "max-of-k for higher-is-better";
}

TEST(BenchRecord, MergeRejectsMismatchedParams) {
  const perf::BenchRecord other = certify_record(0.021, 0.8, /*trials=*/64);
  EXPECT_THROW((void)perf::merge_repeats({certify_record(), other}),
               std::runtime_error);
}

TEST(BenchRecord, Fnv1aIsStable) {
  EXPECT_EQ(perf::fnv1a_hex(""), "cbf29ce484222325");
  EXPECT_EQ(perf::fnv1a_hex("a"), perf::fnv1a_hex("a"));
  EXPECT_NE(perf::fnv1a_hex("a"), perf::fnv1a_hex("b"));
}

// --- Comparison ------------------------------------------------------------

TEST(PerfCompare, SelfCompareIsClean) {
  const perf::BenchRecord record = certify_record();
  const perf::CompareResult result = perf::compare_records(record, record);
  EXPECT_FALSE(result.regressed());
  for (const auto& verdict : result.metrics) {
    EXPECT_TRUE(verdict.status == "ok" || verdict.status == "info")
        << verdict.name << " -> " << verdict.status;
  }
}

// The golden case: double one timing metric, the gate must fire
// and name it.
TEST(PerfCompare, DetectsInjectedTwoXSlowdownByName) {
  const perf::BenchRecord baseline = certify_record(0.021);
  const perf::BenchRecord slowed = certify_record(0.042);
  const perf::CompareResult result = perf::compare_records(baseline, slowed);
  EXPECT_TRUE(result.regressed());
  bool named = false;
  for (const auto& verdict : result.metrics) {
    if (verdict.name == "timing.engine_seq_seconds") {
      EXPECT_EQ(verdict.status, "regressed");
      named = true;
    } else {
      EXPECT_NE(verdict.status, "regressed") << verdict.name;
    }
  }
  EXPECT_TRUE(named);
  // Both renderings carry the verdict.
  EXPECT_NE(result.render_table().find("timing.engine_seq_seconds"),
            std::string::npos);
  EXPECT_NE(result.render_table().find("REGRESSED"), std::string::npos);
  const std::string json = result.to_json().dump(-1);
  EXPECT_NE(json.find("\"regressed\":true"), std::string::npos);
}

TEST(PerfCompare, ImprovementIsNotARegression) {
  const perf::CompareResult result =
      perf::compare_records(certify_record(0.042), certify_record(0.021));
  EXPECT_FALSE(result.regressed());
  bool improved = false;
  for (const auto& verdict : result.metrics) {
    improved = improved || (verdict.name == "timing.engine_seq_seconds" &&
                            verdict.status == "improved");
  }
  EXPECT_TRUE(improved);
}

TEST(PerfCompare, SmallJitterWithinToleranceIsOk) {
  const perf::CompareResult result =
      perf::compare_records(certify_record(0.021), certify_record(0.0220));
  EXPECT_FALSE(result.regressed()) << "~5% < 20% timing tolerance";
}

TEST(PerfCompare, MadWidensTheThreshold) {
  // A baseline whose repeats are noisy (MAD 0.004) tolerates a current
  // value that a tight single-run threshold would flag.
  const perf::BenchRecord noisy_baseline = perf::merge_repeats(
      {certify_record(0.030), certify_record(0.021), certify_record(0.025)});
  // 0.021 -> 0.036: +71% over the min, but within 4 * MAD = 0.016.
  const perf::CompareResult result =
      perf::compare_records(noisy_baseline, certify_record(0.036));
  EXPECT_FALSE(result.regressed());
}

TEST(PerfCompare, ParamsDriftRegressesUnlessIgnored) {
  const perf::BenchRecord other = certify_record(0.021, 0.8, /*trials=*/64);

  const perf::CompareResult strict = perf::compare_records(certify_record(), other);
  EXPECT_FALSE(strict.params_match);
  EXPECT_TRUE(strict.regressed());

  perf::CompareOptions options;
  options.ignore_params = true;
  const perf::CompareResult loose =
      perf::compare_records(certify_record(), other, options);
  EXPECT_FALSE(loose.regressed());
}

TEST(PerfCompare, VanishedMetricIsARegression) {
  const perf::BenchRecord baseline = certify_record();
  perf::BenchRecord current = baseline;
  current.metrics.erase("timing.engine_seq_seconds");
  const perf::CompareResult result = perf::compare_records(baseline, current);
  EXPECT_TRUE(result.regressed());
  bool missing = false;
  for (const auto& verdict : result.metrics) {
    missing = missing || (verdict.name == "timing.engine_seq_seconds" &&
                          verdict.status == "missing");
  }
  EXPECT_TRUE(missing);
}

TEST(PerfCompare, NewMetricIsInformational) {
  const perf::BenchRecord baseline = certify_record();
  perf::BenchRecord current = baseline;
  perf::BenchMetric extra;
  extra.name = "timing.new_path_seconds";
  extra.value = 1.0;
  extra.repeats = {1.0};
  current.metrics.emplace(extra.name, extra);
  const perf::CompareResult result = perf::compare_records(baseline, current);
  EXPECT_FALSE(result.regressed());
  bool found_new = false;
  for (const auto& verdict : result.metrics) {
    found_new = found_new ||
                (verdict.name == "timing.new_path_seconds" && verdict.status == "new");
  }
  EXPECT_TRUE(found_new);
}

TEST(PerfCompare, AbsSlackProtectsNearZeroBaselines) {
  // Off-overhead jumps 2.5ns -> 40ns: a 16x relative change that is still
  // scheduler noise in absolute terms -- inside the 50ns slack.
  const perf::CompareResult result =
      perf::compare_records(overhead_record(2.5), overhead_record(40.0));
  EXPECT_FALSE(result.regressed());
}

TEST(PerfCompare, ExactMetricsAreTight) {
  // Cache effectiveness collapsed.
  const perf::CompareResult result =
      perf::compare_records(certify_record(), certify_record(0.021, 0.5));
  EXPECT_TRUE(result.regressed());
  bool named = false;
  for (const auto& verdict : result.metrics) {
    named = named || (verdict.name == "cache.hit_rate" &&
                      verdict.status == "regressed");
  }
  EXPECT_TRUE(named);
}

TEST(PerfCompare, HostMismatchIsNotedButDoesNotGate) {
  perf::BenchRecord baseline = certify_record();
  baseline.host = "Linux/x86_64/ncpu=8";
  perf::BenchRecord current = certify_record();
  current.host = "Darwin/arm64/ncpu=10";
  const perf::CompareResult result = perf::compare_records(baseline, current);
  EXPECT_FALSE(result.host_match);
  EXPECT_FALSE(result.regressed());
  ASSERT_FALSE(result.notes.empty());
}

}  // namespace
}  // namespace rdp
