// Per-layer roll-up of the spans obs::TraceSession records inside the
// library: kernel time per paper stage (measured next to modeled), transfer
// time, ladder rungs by precision, tracker steps, and the service's queue
// waits and per-job execution times split by cache outcome.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <string_view>
#include <vector>

#include "core/least_squares.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using mdlsq::obs::Cat;
using mdlsq::obs::SpanRecord;

// Spans emitted with explicit timestamps (the service's queue wait, the
// DAG scheduler's markers) are not nested RAII scopes on the thread that
// emits them, so they never parent other spans.
inline bool nests(const SpanRecord& s) {
  return s.cat != Cat::queue && s.cat != Cat::sched;
}

inline bool contains(const SpanRecord& outer, const SpanRecord& inner) {
  return outer.tid == inner.tid && outer.start_ns <= inner.start_ns &&
         inner.end_ns <= outer.end_ns;
}

// The direct parent of every span (index into `spans`, or -1): the latest
// nesting span on the same thread, one level shallower, whose interval
// contains it.
inline std::vector<std::ptrdiff_t> parents(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const SpanRecord& x = spans[a];
                     const SpanRecord& y = spans[b];
                     if (x.tid != y.tid) return x.tid < y.tid;
                     if (x.start_ns != y.start_ns)
                       return x.start_ns < y.start_ns;
                     return x.end_ns > y.end_ns;
                   });
  std::vector<std::ptrdiff_t> parent(spans.size(), -1);
  std::vector<std::ptrdiff_t> last;  // latest nesting span per depth
  std::uint32_t tid = 0;
  for (std::size_t idx : order) {
    const SpanRecord& s = spans[idx];
    if (s.tid != tid) {
      last.clear();
      tid = s.tid;
    }
    if (!nests(s) || s.depth < 0) continue;
    const auto d = static_cast<std::size_t>(s.depth);
    if (d > 0 && d - 1 < last.size() && last[d - 1] >= 0 &&
        contains(spans[static_cast<std::size_t>(last[d - 1])], s))
      parent[idx] = last[d - 1];
    if (last.size() <= d) last.resize(d + 1, -1);
    last[d] = static_cast<std::ptrdiff_t>(idx);
  }
  return parent;
}

// Self time of every span: its duration minus its direct children's.
inline std::vector<double> self_ms(const std::vector<SpanRecord>& spans,
                                   const std::vector<std::ptrdiff_t>& parent) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].measured_ms();
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (parent[i] >= 0)
      self[static_cast<std::size_t>(parent[i])] -= spans[i].measured_ms();
  return self;
}

struct SpanRollup {
  std::int64_t kernels = 0;  // launches
  double kernel_self_ms = 0, transfer_ms = 0, transfer_self_ms = 0;
  double qr_ms = 0, qr_modeled_ms = 0;
  double qhb_ms = 0;
  double bs_ms = 0, bs_modeled_ms = 0;
  std::map<int, double> rung_ms;  // ladder rungs by limb count
  std::int64_t steps = 0;         // tracker steps
  double step_ms = 0;
  std::vector<double> queue_wait_ms;
  std::vector<double> job_hit_ms, job_miss_ms, job_other_ms;
};

inline bool is_qr_stage(std::string_view n) {
  namespace st = mdlsq::core::stage;
  for (const char* s : {st::beta_v, st::betaRTv, st::update_R, st::compute_W,
                        st::YWT, st::QWYT, st::YWTC, st::Q_plus_QWY,
                        st::R_plus_YWTC})
    if (n == s) return true;
  return false;
}

inline bool is_backsub_stage(std::string_view n) {
  namespace st = mdlsq::core::stage;
  return n == st::bs_invert || n == st::bs_multiply || n == st::bs_update;
}

inline SpanRollup rollup(const std::vector<SpanRecord>& spans) {
  SpanRollup r;
  const auto parent = parents(spans);
  const auto self = self_ms(spans, parent);
  // Job spans of the service, classified by the cache span nested in them.
  std::vector<int> job_class(spans.size(), 0);  // 0 other, 1 hit, 2 miss
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.cat == Cat::cache && parent[i] >= 0) {
      const auto p = static_cast<std::size_t>(parent[i]);
      if (spans[p].cat == Cat::service)
        job_class[p] = s.name == "cache hit" ? 1 : 2;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double ms = s.measured_ms();
    switch (s.cat) {
      case Cat::kernel: {
        ++r.kernels;
        r.kernel_self_ms += self[i];
        const double modeled = std::max(s.modeled_ms, 0.0);
        if (is_qr_stage(s.name)) {
          r.qr_ms += ms;
          r.qr_modeled_ms += modeled;
        } else if (s.name == mdlsq::core::stage::qhb) {
          r.qhb_ms += ms;
        } else if (is_backsub_stage(s.name)) {
          r.bs_ms += ms;
          r.bs_modeled_ms += modeled;
        }
        break;
      }
      case Cat::transfer:
        r.transfer_ms += ms;
        r.transfer_self_ms += self[i];
        break;
      case Cat::ladder: r.rung_ms[s.limbs] += ms; break;
      case Cat::step:
        if (s.name == "track step") {
          ++r.steps;
          r.step_ms += ms;
        }
        break;
      case Cat::queue: r.queue_wait_ms.push_back(ms); break;
      case Cat::service:
        (job_class[i] == 1   ? r.job_hit_ms
         : job_class[i] == 2 ? r.job_miss_ms
                             : r.job_other_ms)
            .push_back(ms);
        break;
      default: break;
    }
  }
  return r;
}

}  // namespace perfbench
