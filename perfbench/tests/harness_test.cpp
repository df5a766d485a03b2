// Unit tests of the benchmark harness (src/harness.hpp, src/rollup.hpp,
// src/workload.hpp): tail-percentile selection, open-loop latency and
// lateness accounting, the metric-name grammar and result-line shape, span
// self times, and the answer digests behind the tracing-purity check.
// Exits nonzero when any check fails; run by tests/test_harness.py.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "rollup.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

using namespace perfbench;

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(percentile(v, 50) == 50.0);
  CHECK(percentile(v, 90) == 90.0);
  CHECK(percentile(v, 100) == 100.0);
  CHECK(percentile({}, 90) == 0.0);
  CHECK(percentile({7.0}, 90) == 7.0);

  // p90 needs 100 samples for ten to lie beyond it.
  CHECK(samples_beyond(100, 90) == 10);
  CHECK(samples_beyond(99, 90) == 9);
  CHECK(supported_tail_percentile(100) == 90.0);
  CHECK(supported_tail_percentile(99) == 50.0);
  CHECK(supported_tail_percentile(999) == 90.0);
  CHECK(supported_tail_percentile(1000) == 99.0);
  CHECK(supported_tail_percentile(10000) == 99.9);
  CHECK(supported_tail_percentile(20) == 50.0);
  CHECK(supported_tail_percentile(19) == 0.0);
  // The timed passes' minimum request count is exactly what p90 needs.
  CHECK(supported_tail_percentile(100) >= 90.0);
}

void open_loop() {
  const OpenLoopSchedule s{1'000'000'000, 40.0};
  CHECK(s.due_ns(0) == 1'000'000'000);
  CHECK(s.due_ns(4) == 1'100'000'000);  // 4 / 40 s later

  // Latency runs from the scheduled send, not the actual one.
  OpenLoopTiming t{0, 5'000'000, 12'000'000};
  CHECK(std::abs(t.latency_ms() - 12.0) < 1e-12);
  CHECK(std::abs(t.late_ms() - 5.0) < 1e-12);

  // A generator stall: request due at 10 ms goes out at 100 ms and is
  // answered 1 ms later.  Its latency is 91 ms, not the 1 ms a client that
  // timed from its own send would report.
  OpenLoopTiming stalled{10'000'000, 100'000'000, 101'000'000};
  CHECK(std::abs(stalled.latency_ms() - 91.0) < 1e-12);
  CHECK(std::abs(stalled.late_ms() - 90.0) < 1e-12);

  // Sending early is not negative lateness.
  OpenLoopTiming early{10'000'000, 9'000'000, 12'000'000};
  CHECK(early.late_ms() == 0.0);
}

void metric_names() {
  for (const char* ok : {"latency_ms_p50", "md.add_ns.d2",
                         "serve.exec_ms_p50.lsq_hit", "9x", "a-b", "setup_s"})
    CHECK(valid_metric_name(ok));
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "a\"b", "é"})
    CHECK(!valid_metric_name(bad));
  CHECK(valid_metric_name(std::string(64, 'a')));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_unit("1/s") && valid_unit("GFLOP/s") && valid_unit("%"));
  CHECK(!valid_unit("") && !valid_unit("m s"));
  CHECK(!valid_unit(std::string(17, 'u')));

  MetricSet m;
  m.add("latency_ms_p50", 1.25, "ms");
  CHECK(throws([&] { m.add("latency_ms_p50", 2.0, "ms"); }));
  CHECK(throws([&] { m.add("bad name", 2.0, "ms"); }));
  CHECK(throws([&] { m.add("x", 2.0, "m s"); }));
  CHECK(throws([&] { m.add("y", NAN, "ms"); }));
  m.add("setup_s", 0.1, "s");
  CHECK(result_json(true, 3, 1, m) ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
        "{\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, "
        "\"setup_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}");
  // Every digit: the printed number reads back as the same double.
  const double v = 0.1 + 0.2;
  CHECK(std::strtod(json_number(v).c_str(), nullptr) == v);
  CHECK(json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"");
}

SpanRecord span(const char* name, Cat cat, std::int64_t s, std::int64_t e,
                int depth, std::uint32_t tid = 1, double modeled = -1.0,
                int limbs = 0) {
  SpanRecord r;
  r.name = name;
  r.cat = cat;
  r.start_ns = s * 1'000'000;
  r.end_ns = e * 1'000'000;
  r.depth = depth;
  r.tid = tid;
  r.modeled_ms = modeled;
  r.limbs = limbs;
  return r;
}

void self_times() {
  const std::vector<SpanRecord> spans = {
      span("job", Cat::service, 0, 10, 0),
      span("cache hit", Cat::cache, 1, 9, 1),
      span("beta,v", Cat::kernel, 2, 5, 2, 1, 0.5),
      span("stage", Cat::transfer, 6, 7, 2),
      // A queue wait emitted with explicit timestamps overlaps the job on
      // the same thread; it must not become anyone's parent.
      span("queue wait", Cat::queue, 1, 11, 0),
      span("back substitution", Cat::kernel, 3, 4, 0, 2, 2.0),
  };
  const auto self = self_ms(spans, parents(spans));
  CHECK(std::abs(self[0] - 2.0) < 1e-9);  // 10 - 8
  CHECK(std::abs(self[1] - 4.0) < 1e-9);  // 8 - 3 - 1
  CHECK(std::abs(self[2] - 3.0) < 1e-9);
  CHECK(std::abs(self[4] - 10.0) < 1e-9);

  const SpanRollup r = rollup(spans);
  CHECK(r.kernels == 2);
  CHECK(std::abs(r.qr_ms - 3.0) < 1e-9);
  CHECK(std::abs(r.qr_modeled_ms - 0.5) < 1e-9);
  CHECK(std::abs(r.bs_ms - 1.0) < 1e-9);
  CHECK(std::abs(r.bs_modeled_ms - 2.0) < 1e-9);
  CHECK(std::abs(r.transfer_ms - 1.0) < 1e-9);
  CHECK(r.job_hit_ms.size() == 1);
  CHECK(r.job_miss_ms.empty() && r.job_other_ms.empty());
  CHECK(r.queue_wait_ms.size() == 1);
}

void answer_digests() {
  using T = mdlsq::md::mdreal<2>;
  mdlsq::blas::Vector<T> x(3);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = T(1.0 / (3.0 + i));
  mdlsq::blas::Vector<T> y = x;
  CHECK(limb_digest<2>(x) == limb_digest<2>(y));
  // One flipped bit in a low limb changes the digest; so does -0.0.
  const double limbs[2] = {y[1].limb(0), std::nextafter(y[1].limb(1), 1.0)};
  y[1] = T::from_limbs(limbs);
  CHECK(limb_digest<2>(x) != limb_digest<2>(y));
  mdlsq::blas::Vector<T> z(1), nz(1);
  nz[0] = T(-0.0);
  CHECK(limb_digest<2>(z) != limb_digest<2>(nz));

  Pass a, b;
  a.samples.resize(2);
  b.samples.resize(2);
  a.samples[0].answer = b.samples[0].answer = limb_digest<2>(x);
  CHECK(same_answers(a, b));
  b.samples[0].answer = limb_digest<2>(y);
  CHECK(!same_answers(a, b));
  b.samples.pop_back();
  CHECK(!same_answers(a, b));
}

}  // namespace

int main() {
  percentiles();
  open_loop();
  metric_names();
  self_times();
  answer_digests();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("harness_test: all checks passed\n");
  return 0;
}
