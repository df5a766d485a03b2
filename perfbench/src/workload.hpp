// The workload interface main.cpp runs, and the closed-loop
// pass every single-client workload shares.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

// What a request asks for.  The closed-loop workloads send only solves;
// serve_mixed sends solves on its hot set, solves on fresh matrices and
// path tracks.
enum RequestKind : int { kSolve = 0, kFreshSolve = 1, kTrack = 2 };

// One attempted request, as the client saw it.
struct Sample {
  double latency_ms = 0.0;  // closed loop: call to return; open: due to done
  double late_ms = 0.0;     // open loop: how late the generator sent it
  bool ok = false;          // completed without exception, reject or
                            // non-convergence (its answer is checked later)
  double modeled_ms = 0.0;  // modeled V100 kernel time of the request
  double dp_flops = 0.0;    // Table-1 dp flops of its measured device tallies
  std::int64_t md_ops = 0;  // measured md operations, device plus host
  // Ladder requests.
  int rungs = 0, refactors = 0, refine_iters = 0, accepted_rungs = 0;
  RequestKind kind = kSolve;
  bool cache_hit = false;  // service solves
  int steps = 0, corrections = 0;  // tracks
  std::uint64_t answer = 0;  // limb_digest of the returned answer
};

// Service-side counters over one pass (zero for the closed-loop workloads).
struct ServeCounters {
  int slots = 0;  // the service's device slots
  std::int64_t submitted = 0, rejected = 0;
  std::int64_t hits = 0, misses = 0, evictions = 0;
};

struct Pass {
  int id = 0;            // index of the pass's stored answers in the workload
  std::vector<Sample> samples;
  double wall_s = 0.0;   // timed wall: first send to last completion
  ServeCounters serve;
};

// What a workload's output checks found.  A request that failed (Sample::ok
// false) is counted, not judged; an answer that came back as a success but
// is wrong makes the run incorrect.
struct Verdict {
  bool correct = true;
  std::vector<std::string> errors;

  void wrong(std::string why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(why));
  }
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  // A human-readable description of the loop (closed, clients / open, rate).
  virtual std::string loop() const = 0;
  // Requests over this many ms miss the workload's latency limit.
  virtual double slo_ms() const = 0;

  // Input generation from the seed, construction, and the untimed warm-up
  // that precedes the first timed request.  Repeatable: each call rebuilds
  // the whole state.
  virtual void setup(std::uint64_t seed, double seconds) = 0;

  // One timed pass.  `count` 0 runs for `seconds` (and at least
  // kMinRequests requests); otherwise exactly `count` requests, the same
  // request sequence an earlier pass of that length ran.
  virtual Pass run(double seconds, std::size_t count) = 0;

  // Checks every answer of a pass.
  virtual void check(const Pass& p, Verdict& v) = 0;

  // Wall time of one representative request at host width 1 over width 2
  // (see width_speedup).
  virtual double par_speedup() = 0;
};

// Enough samples that p90 has ten beyond it.
inline constexpr std::size_t kMinRequests = 100;

// True when two passes over the same requests returned limb-identical
// answers (the tracing-purity contract).
inline bool same_answers(const Pass& a, const Pass& b) {
  if (a.samples.size() != b.samples.size()) return false;
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    if (a.samples[i].answer != b.samples[i].answer) return false;
  return true;
}

// Median wall time of `solve_at_width(1)` over that of
// `solve_at_width(2)`, five of each, interleaved.
template <class F>
double width_speedup(F&& solve_at_width) {
  std::vector<double> w1, w2;
  for (int r = 0; r < 5; ++r) {
    for (int w : {1, 2}) {
      const std::int64_t t0 = now_ns();
      solve_at_width(w);
      (w == 1 ? w1 : w2).push_back(ms_between(t0, now_ns()));
    }
  }
  return percentile(w1, 50) / percentile(w2, 50);
}

std::unique_ptr<Workload> make_lsq_dd();
std::unique_ptr<Workload> make_ladder_qd_od();
std::unique_ptr<Workload> make_serve_mixed();

// The closed loop of one client: request i is sent when request i-1 has
// returned.  `one(i, sample)` runs request i and fills everything but the
// latency, which is measured here from call to return.
template <class F>
Pass closed_loop(double seconds, std::size_t count, F&& one) {
  Pass p;
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    if (count > 0 ? i >= count
                  : (i >= kMinRequests && now_ns() >= deadline))
      break;
    Sample s;
    const std::int64_t c0 = now_ns();
    try {
      one(i, s);
    } catch (const std::exception&) {
      s.ok = false;  // counted as failed; the pass goes on
    }
    s.latency_ms = ms_between(c0, now_ns());
    p.samples.push_back(s);
  }
  p.wall_s = ms_between(t0, now_ns()) / 1e3;
  return p;
}

}  // namespace perfbench
