#include "perf/bench_record.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "repro/manifest.hpp"

namespace rdp::perf {

namespace {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double median_abs_deviation(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0;
  const double med = median(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double x : xs) dev.push_back(std::fabs(x - med));
  return median(std::move(dev));
}

/// Recomputes `value` (best repeat in direction) and `mad` from repeats.
void finalize_metric(BenchMetric& m) {
  if (m.repeats.empty()) m.repeats.push_back(m.value);
  if (m.direction == Direction::kHigher) {
    m.value = *std::max_element(m.repeats.begin(), m.repeats.end());
  } else {
    m.value = *std::min_element(m.repeats.begin(), m.repeats.end());
  }
  m.mad = median_abs_deviation(m.repeats);
}

/// The path's last component: a record names its file, not where it was.
std::string file_name(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool seconds_like(const std::string& name) {
  return name.find("seconds") != std::string::npos ||
         name.find("_time") != std::string::npos;
}

/// --metrics-out snapshot shape: {counters, gauges, histograms}. Counters
/// and gauges are workload-dependent tallies -> informational. Histogram
/// mean/percentiles of *_seconds series are latencies -> gated
/// lower-is-better timing metrics.
BenchRecord normalize_snapshot(const JsonValue& doc, const std::string& source) {
  BenchRecord record;
  record.name = "metrics_snapshot";
  record.source = source;
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [key, value] : counters->as_object()) {
      record.add("counters." + key, value.as_number(), Direction::kNone,
                 Noise::kExact);
    }
  }
  if (const JsonValue* gauges = doc.find("gauges")) {
    for (const auto& [key, value] : gauges->as_object()) {
      record.add("gauges." + key, value.as_number(), Direction::kNone,
                 Noise::kTiming);
    }
  }
  if (const JsonValue* histograms = doc.find("histograms")) {
    for (const auto& [key, value] : histograms->as_object()) {
      const Direction direction =
          seconds_like(key) ? Direction::kLower : Direction::kNone;
      for (const char* field : {"mean", "p50", "p90", "p99"}) {
        record.add("histograms." + key + "." + field, value.get_number(field),
                   direction, Noise::kTiming);
      }
      record.add("histograms." + key + ".count", value.get_number("count"),
                 Direction::kNone, Noise::kExact);
    }
  }
  return record;
}

/// Reads `field` of a stored metric as one of `options` by its to_string
/// name; anything else names the file and the metric.
template <class Enum>
Enum parse_enum(const JsonValue& metric, const char* field,
                std::initializer_list<Enum> options, const std::string& source,
                const std::string& name) {
  const JsonValue* stored = metric.find(field);
  const std::string text =
      stored != nullptr && stored->is_string() ? stored->as_string() : "";
  std::string expected;
  for (const Enum option : options) {
    if (text == to_string(option)) return option;
    expected += (expected.empty() ? "" : "|") + std::string(to_string(option));
  }
  throw std::runtime_error("perf: " + source + ": metric '" + name + "': " +
                           field + " '" + text + "' is not one of " + expected);
}

/// A BenchRecord as to_json() writes it.
BenchRecord parse_record(const JsonValue& doc, const std::string& source) {
  BenchRecord record;
  record.schema_version = static_cast<int>(doc.get_number("schema_version", 0));
  if (record.schema_version != BenchRecord{}.schema_version) {
    throw std::runtime_error("perf: " + source + ": unsupported schema_version " +
                             std::to_string(record.schema_version));
  }
  record.name = doc.get_string("name");
  record.source = doc.get_string("source", source);
  record.params_hash = doc.get_string("params_hash");
  record.params_json = doc.get_string("params_json");
  record.git_sha = doc.get_string("git_sha");
  record.host = doc.get_string("host");
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    throw std::runtime_error("perf: " + source + ": record has no metrics object");
  }
  for (const auto& [key, value] : metrics->as_object()) {
    BenchMetric m;
    m.name = key;
    m.direction = parse_enum(value, "direction",
                             {Direction::kLower, Direction::kHigher, Direction::kNone},
                             source, key);
    m.noise = parse_enum(value, "noise", {Noise::kTiming, Noise::kExact}, source, key);
    m.abs_slack = value.get_number("abs_slack");
    m.mad = value.get_number("mad");
    const auto reject = [&](const std::string& why) {
      throw std::runtime_error("perf: " + source + ": metric '" + key + "' " + why);
    };
    if (const JsonValue* repeats = value.find("repeats")) {
      if (!repeats->is_array()) reject("has non-array repeats");
      for (const JsonValue& r : repeats->as_array()) {
        if (!r.is_number()) reject("has a non-numeric repeat");
        m.repeats.push_back(r.as_number());
      }
    }
    const JsonValue* stored = value.find("value");
    if (stored != nullptr && stored->is_number()) {
      m.value = stored->as_number();
    } else if (m.repeats.empty()) {
      reject("has neither a numeric value nor repeats");
    }
    record.metrics.emplace(key, std::move(m));
  }
  return record;
}

}  // namespace

const char* to_string(Direction direction) {
  switch (direction) {
    case Direction::kLower: return "lower";
    case Direction::kHigher: return "higher";
    case Direction::kNone: return "none";
  }
  return "?";
}

const char* to_string(Noise noise) {
  return noise == Noise::kExact ? "exact" : "timing";
}

BenchRecord::BenchRecord(std::string bench_name, const std::string& out_path)
    : name(std::move(bench_name)), source(file_name(out_path)) {}

void BenchRecord::set_params(const JsonObject& params) {
  params_json = JsonValue(params).dump(-1);
  params_hash = fnv1a_hex(params_json);
}

void BenchRecord::add(std::string metric, double value, Direction direction,
                      Noise noise, double abs_slack) {
  if (metrics.contains(metric)) {
    throw std::invalid_argument("perf: " + name + ": metric '" + metric +
                                "' added twice");
  }
  BenchMetric m;
  m.name = metric;
  m.value = value;
  m.direction = direction;
  m.noise = noise;
  m.abs_slack = abs_slack;
  m.repeats.push_back(value);
  metrics.emplace(std::move(metric), std::move(m));
}

const BenchMetric* BenchRecord::find(const std::string& metric) const {
  const auto it = metrics.find(metric);
  return it == metrics.end() ? nullptr : &it->second;
}

std::string BenchRecord::to_json(int indent) const {
  JsonObject metric_objects;
  for (const auto& [key, m] : metrics) {
    JsonObject obj;
    obj["value"] = m.value;
    obj["direction"] = to_string(m.direction);
    obj["noise"] = to_string(m.noise);
    obj["abs_slack"] = m.abs_slack;
    obj["mad"] = m.mad;
    JsonArray repeats;
    for (double r : m.repeats) repeats.emplace_back(r);
    obj["repeats"] = std::move(repeats);
    metric_objects[key] = std::move(obj);
  }
  JsonObject root;
  root["schema_version"] = schema_version;
  root["name"] = name;
  root["source"] = source;
  root["params_hash"] = params_hash;
  root["params_json"] = params_json;
  root["git_sha"] = git_sha;
  root["host"] = host;
  root["metrics"] = std::move(metric_objects);
  return JsonValue(std::move(root)).dump(indent);
}

void BenchRecord::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perf: cannot open " + path);
  out << to_json() << "\n";
  if (!out) throw std::runtime_error("perf: write failed for " + path);
}

bool BenchRecord::try_save(const std::string& path) const {
  try {
    save(path);
    return true;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return false;
  }
}

BenchRecord normalize_bench_json(const JsonValue& doc, const std::string& source) {
  if (!doc.is_object()) {
    throw std::runtime_error("perf: " + source + ": not a JSON object");
  }
  BenchRecord record;
  if (doc.find("schema_version") != nullptr && doc.find("metrics") != nullptr) {
    record = parse_record(doc, source);
  } else if (doc.find("counters") != nullptr &&
             doc.find("histograms") != nullptr) {
    record = normalize_snapshot(doc, source);
  } else {
    throw std::runtime_error("perf: " + source +
                             ": neither a bench record (schema_version + "
                             "metrics) nor a --metrics-out snapshot");
  }
  for (auto& [key, m] : record.metrics) finalize_metric(m);
  return record;
}

BenchRecord load_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perf: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc;
  try {
    doc = parse_json(buffer.str());
  } catch (const std::exception& e) {
    throw std::runtime_error("perf: " + path + ": " + e.what());
  }
  return normalize_bench_json(doc, file_name(path));
}

BenchRecord merge_repeats(const std::vector<BenchRecord>& runs) {
  if (runs.empty()) throw std::runtime_error("perf: merge_repeats of nothing");
  BenchRecord merged = runs.front();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const BenchRecord& run = runs[i];
    if (run.name != merged.name) {
      throw std::runtime_error("perf: cannot merge '" + run.name + "' into '" +
                               merged.name + "' -- different benchmarks");
    }
    if (run.params_hash != merged.params_hash) {
      throw std::runtime_error("perf: repeats of '" + merged.name +
                               "' ran with different params (hash " +
                               run.params_hash + " vs " + merged.params_hash +
                               ")");
    }
    for (const auto& [key, m] : run.metrics) {
      auto it = merged.metrics.find(key);
      if (it == merged.metrics.end()) {
        merged.metrics.emplace(key, m);
      } else {
        it->second.repeats.insert(it->second.repeats.end(), m.repeats.begin(),
                                  m.repeats.end());
      }
    }
  }
  for (auto& [key, m] : merged.metrics) finalize_metric(m);
  return merged;
}

std::string host_fingerprint() {
  std::string sysname = "unknown";
  std::string machine = "unknown";
#if defined(__unix__) || defined(__APPLE__)
  utsname info{};
  if (uname(&info) == 0) {
    sysname = info.sysname;
    machine = info.machine;
  }
#endif
  return sysname + "/" + machine +
         "/ncpu=" + std::to_string(std::thread::hardware_concurrency());
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return repro::hash_to_hex(hash);
}

}  // namespace rdp::perf
