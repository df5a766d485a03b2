// Workload-independent pieces of the benchmark harness: metric naming
// and JSON output, tail-percentile selection, open-loop send-schedule
// accounting, and the process-level probes (peak RSS, effective host
// parallelism).  Everything here is plain data and arithmetic so
// tests/harness_test.cpp can pin it without running a solver.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

// --- metrics ---------------------------------------------------------------

// The metric-name grammar: 1 to 64 characters of [A-Za-z0-9_.-], starting
// with a letter or a digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

// A unit: 1 to 16 characters of [A-Za-z0-9_/%.-].
inline bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Ordered, duplicate-free metric list; add() rejects names and units
// outside the grammar and non-finite values, so a typo fails the run
// instead of reaching the output.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!valid_metric_name(name))
      throw std::invalid_argument("perfbench: bad metric name '" + name + "'");
    if (!valid_unit(unit))
      throw std::invalid_argument("perfbench: bad unit '" + unit + "'");
    if (!std::isfinite(value))
      throw std::invalid_argument("perfbench: non-finite value for " + name);
    for (const Metric& m : items_)
      if (m.name == name)
        throw std::invalid_argument("perfbench: duplicate metric " + name);
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& items() const noexcept { return items_; }

 private:
  std::vector<Metric> items_;
};

// --- JSON ------------------------------------------------------------------

inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Every digit of the double (round-trip precision); non-finite values have
// no JSON spelling and are written as null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string metrics_json(const MetricSet& m) {
  std::string out = "{";
  bool first = true;
  for (const Metric& x : m.items()) {
    if (!first) out += ", ";
    first = false;
    out += json_string(x.name) + ": {\"value\": " + json_number(x.value) +
           ", \"unit\": " + json_string(x.unit) + "}";
  }
  return out + "}";
}

// The result line: the last line of standard output.
inline std::string result_json(bool correct, std::int64_t attempted,
                               std::int64_t failed, const MetricSet& m) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_json(m) + "}";
}

// --- percentiles -----------------------------------------------------------

// Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n) of
// the sorted sample.  Returns 0 for an empty sample.
inline std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[percentile_rank(v.size(), p) - 1];
}

// Samples strictly beyond the p-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - percentile_rank(n, p);
}

// The highest of the customary tail percentiles (99.9, 99, 90, 50) that
// still has at least `min_beyond` samples beyond it; 0 when even the
// median lacks them.  A timed run must support p90 (>= 100 samples).
inline double supported_tail_percentile(std::size_t n,
                                        std::size_t min_beyond = 10) {
  for (double p : {99.9, 99.0, 90.0, 50.0})
    if (samples_beyond(n, p) >= min_beyond) return p;
  return 0.0;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- clocks and the open-loop schedule -------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

// Fixed-rate send schedule: request i is due at start + i / rate.  The
// generator never waits for responses, so a stall delays the due times of
// nothing — it shows up as lateness and as latency of the requests behind it.
struct OpenLoopSchedule {
  std::int64_t start_ns = 0;
  double rate_per_s = 1.0;

  std::int64_t due_ns(std::size_t i) const {
    return start_ns + static_cast<std::int64_t>(std::llround(
                          static_cast<double>(i) * 1e9 / rate_per_s));
  }
};

// One open-loop request's clock readings.  Latency runs from the SCHEDULED
// send time, so time the generator spent late is charged to the request;
// lateness is reported separately as the generator's own health figure.
struct OpenLoopTiming {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;

  double latency_ms() const { return ms_between(due_ns, done_ns); }
  double late_ms() const { return std::max(0.0, ms_between(due_ns, sent_ns)); }
};

// --- process probes --------------------------------------------------------

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Effective parallelism: the same fixed spin on one thread, then on
// `threads` threads at once; threads * t1 / t_all.  Equals `threads` on an
// idle host and drops as other tenants take cores.
inline double host_parallelism(int threads, std::uint64_t spin_iters) {
  auto spin = [spin_iters] {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < spin_iters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_xor(x, std::memory_order_relaxed);
  };
  std::int64_t t0 = now_ns();
  spin();
  const double one = ms_between(t0, now_ns());
  std::vector<std::thread> pool;
  t0 = now_ns();
  for (int i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (auto& t : pool) t.join();
  const double all = ms_between(t0, now_ns());
  return all > 0 ? threads * one / all : 0.0;
}

}  // namespace perfbench
