// Benchmark records: the one JSON shape every bench writes with --out
// and the perf regression gate reads.
//
// A BenchRecord maps metric name -> {value, direction, noise class,
// repeats} and carries the provenance a comparison needs to be honest:
// which parameters produced the numbers (hashed), on which host, at which
// git revision. A bench builds its record with set_params()/add() and
// save()s it; `rdp_cli perf record` merges repeats of one bench min-of-k
// and stamps git_sha/host into a committed baseline under
// bench/baselines/; `perf compare`/`perf gate` (perf/compare.hpp) diff a
// fresh run against them. The loader also reads a --metrics-out snapshot,
// the one input that is not a bench record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace rdp::perf {

/// Which way is better: lower (seconds, mismatch counts), higher (hit
/// rate, speedup), or none (informational -- recorded and reported but
/// never gated on).
enum class Direction { kLower, kHigher, kNone };

/// Noise class: timing metrics get the wide relative tolerance and
/// MAD-based slack; exact metrics (counts, rates, numerical error bounds)
/// must match up to tiny numeric tolerances.
enum class Noise { kTiming, kExact };

/// "lower" | "higher" | "none" and "timing" | "exact", as stored in JSON.
[[nodiscard]] const char* to_string(Direction direction);
[[nodiscard]] const char* to_string(Noise noise);

/// One metric. `value` is the representative number used for comparison:
/// the *best* observation across repeats (min for lower-is-better, max for
/// higher-is-better), which is the standard noise-rejection trick for
/// timing benchmarks -- noise only ever makes timings worse, so min-of-k
/// converges on the true cost.
struct BenchMetric {
  std::string name;
  double value = 0;
  Direction direction = Direction::kLower;
  Noise noise = Noise::kTiming;

  /// Absolute slack always granted in comparisons, independent of the
  /// relative tolerance. Used for metrics whose baseline is legitimately
  /// near zero (per-dispatch overhead in nanoseconds) where a relative
  /// threshold degenerates.
  double abs_slack = 0;

  /// Every observation that went into `value` (>= 1 entry). Populated
  /// with more than one entry by min-of-k recording.
  std::vector<double> repeats;

  /// Median absolute deviation of `repeats` -- the comparison widens its
  /// threshold by a multiple of this, so noisy metrics self-report how
  /// much slack they need. 0 with a single repeat.
  double mad = 0;
};

/// One benchmark run: the unit `perf compare` diffs.
struct BenchRecord {
  int schema_version = 1;
  std::string name;         ///< logical bench name, e.g. "certify"
  std::string source;       ///< file name the bench wrote the record to
  std::string params_hash;  ///< 16-hex FNV-1a of params_json ("" = none)
  std::string params_json;  ///< compact dump of the params object, for humans
  std::string git_sha;      ///< HEAD at `perf record` time ("" from a bench)
  std::string host;         ///< host fingerprint, e.g. "Linux/x86_64/ncpu=8"
  std::map<std::string, BenchMetric> metrics;

  BenchRecord() = default;
  /// A bench's record of one run that will be saved at `out_path`;
  /// `source` is that file's name without its directory.
  BenchRecord(std::string bench_name, const std::string& out_path);

  /// Records the workload parameters: params_json is their compact dump
  /// and params_hash its FNV-1a, so two runs compare only when every
  /// parameter agrees.
  void set_params(const JsonObject& params);

  /// Adds a single-observation metric. Throws std::invalid_argument when
  /// the name is already taken.
  void add(std::string metric, double value, Direction direction, Noise noise,
           double abs_slack = 0);

  [[nodiscard]] const BenchMetric* find(const std::string& metric) const;

  [[nodiscard]] std::string to_json(int indent = 2) const;
  void save(const std::string& path) const;
  /// save() for a bench's main(): prints the failure to stderr and
  /// returns false instead of throwing, so the bench can exit 1.
  [[nodiscard]] bool try_save(const std::string& path) const;
};

/// Reads a parsed JSON document as a BenchRecord. Two shapes exist:
///   - "schema_version" + "metrics"     -> a record (what benches write)
///   - "counters" + "histograms"        -> a --metrics-out snapshot
/// Throws std::runtime_error naming `source` on any other shape, and on a
/// record metric whose direction or noise class is unknown or that has
/// neither a numeric value nor repeats.
[[nodiscard]] BenchRecord normalize_bench_json(const JsonValue& doc,
                                               const std::string& source);

/// Reads one record or snapshot file. Throws std::runtime_error on a
/// missing file, a parse error or anything normalize_bench_json rejects.
[[nodiscard]] BenchRecord load_bench_file(const std::string& path);

/// Merges k >= 1 records of the *same* benchmark (same name, same params
/// hash -- throws on mismatch) into one min-of-k record: each metric's
/// repeats are concatenated, `value` becomes the best repeat in the
/// metric's direction, and `mad` is recomputed over all repeats.
[[nodiscard]] BenchRecord merge_repeats(const std::vector<BenchRecord>& runs);

/// "sysname/machine/ncpu=N" via uname(2), or "unknown" where unavailable.
/// Comparisons across differing fingerprints still run but are flagged.
[[nodiscard]] std::string host_fingerprint();

/// FNV-1a over a string, formatted as 16 hex digits (the same convention
/// as the repro manifest's input hashes).
[[nodiscard]] std::string fnv1a_hex(const std::string& text);

}  // namespace rdp::perf
