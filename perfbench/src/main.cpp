// The benchmark program: one workload per process.
//
//   mdlsq_perfbench --workload <lsq_dd|ladder_qd_od|serve_mixed> --seed <n>
//                   --seconds <s> --trace <0|1> [--rev <r>] [--source <digest>]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// runs one timed pass of `seconds` with no TraceSession installed, checks
// every answer and prints the end-to-end metrics.  --trace 1 runs the same
// requests twice — untraced, then under a TraceSession — requires the two
// passes' answers to be limb-identical, and prints the per-layer metrics
// rolled up from the recorded spans, the layer probes and the results.
//
// Output: a provenance line, a details line, and last the result line
// {"correct", "attempted", "failed", "metrics"}.  Exit code 0 only when
// every answer checked out.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "md/simd/dispatch.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "rollup.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rev = "unknown", source = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "mdlsq_perfbench: %s\nusage: mdlsq_perfbench --workload "
               "<lsq_dd|ladder_qd_od|serve_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--rev <r>] [--source <digest>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k(argv[i]);
    if (i + 1 >= argc) usage("missing value for " + std::string(k));
    const std::string v(argv[++i]);
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--rev") {
        a.rev = v;
      } else if (k == "--source") {
        a.source = v;
      } else {
        usage("unknown argument " + std::string(k));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(k) + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  return a;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "lsq_dd") return make_lsq_dd();
  if (name == "ladder_qd_od") return make_ladder_qd_od();
  if (name == "serve_mixed") return make_serve_mixed();
  usage("unknown workload " + name);
}

struct Totals {
  std::int64_t attempted = 0, failed = 0;
  void add(const Pass& p) {
    for (const Sample& s : p.samples) {
      ++attempted;
      failed += s.ok ? 0 : 1;
    }
  }
};

std::vector<double> ok_latencies(const Pass& p) {
  std::vector<double> v;
  for (const Sample& s : p.samples)
    if (s.ok) v.push_back(s.latency_ms);
  return v;
}

// num / den, or 0 when nothing was counted.
template <class A, class B>
double ratio(A num, B den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void end_to_end(const Workload& w, const Pass& p, double setup_s,
                MetricSet& m, std::string& details) {
  const auto lat = ok_latencies(p);
  std::size_t n = p.samples.size(), slo_met = 0;
  double flops = 0.0, modeled = 0.0;
  for (const Sample& s : p.samples) {
    if (!s.ok) continue;
    flops += s.dp_flops;
    modeled += s.modeled_ms;
    slo_met += s.latency_ms <= w.slo_ms() ? 1 : 0;
  }
  const double wall = p.wall_s > 0 ? p.wall_s : 1e-9;
  m.add("latency_ms_p50", percentile(lat, 50), "ms");
  m.add("latency_ms_p90", percentile(lat, 90), "ms");
  m.add("throughput_rps", static_cast<double>(lat.size()) / wall, "1/s");
  m.add("dp_gflops", flops / wall / 1e9, "GFLOP/s");
  m.add("success_ratio", ratio(lat.size(), n), "ratio");
  m.add("slo_met_ratio", ratio(slo_met, n), "ratio");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("setup_s", setup_s, "s");

  MetricSet info;  // printed on the details line, not gated
  info.add("fail_ratio", ratio(n - lat.size(), n), "ratio");
  info.add("slo_miss_ratio", ratio(n - slo_met, n), "ratio");
  info.add("modeled_ms", ratio(modeled, lat.size()), "ms");
  info.add("slo_limit_ms", w.slo_ms(), "ms");
  info.add("latency_samples", static_cast<double>(lat.size()), "count");
  info.add("tail_percentile_supported", supported_tail_percentile(lat.size()),
           "pct");
  details = metrics_json(info);
}

void per_layer(const Pass& untraced, const Pass& traced,
               const SpanRollup& r, const MdProbe& md, double fused_ns,
               double par_speedup, double host_par, MetricSet& m) {
  const std::size_t n = traced.samples.size();
  std::int64_t md_ops = 0, rungs = 0, refactors = 0, refine = 0, accepted = 0;
  std::int64_t tracks = 0, steps = 0, corrections = 0;
  double latency = 0.0;
  for (const Sample& s : traced.samples) {
    md_ops += s.md_ops;
    rungs += s.rungs;
    refactors += s.refactors;
    refine += s.refine_iters;
    accepted += s.accepted_rungs;
    latency += s.latency_ms;
    if (s.kind == kTrack) {
      ++tracks;
      steps += s.steps;
      corrections += s.corrections;
    }
  }
  const char* limbs[3] = {"d2", "d4", "d8"};
  for (int k = 0; k < 3; ++k)
    m.add(std::string("md.add_ns.") + limbs[k], md.add_ns[k], "ns");
  for (int k = 0; k < 3; ++k)
    m.add(std::string("md.mul_ns.") + limbs[k], md.mul_ns[k], "ns");
  m.add("md.ops_per_req", ratio(md_ops, n), "count");

  m.add("blas.fused_dd_ns_per_op", fused_ns, "ns");

  m.add("core.qr_ms", ratio(r.qr_ms, n), "ms");
  m.add("core.qhb_ms", ratio(r.qhb_ms, n), "ms");
  m.add("core.backsub_ms", ratio(r.bs_ms, n), "ms");
  m.add("core.qr_host_over_modeled", ratio(r.qr_ms, r.qr_modeled_ms), "ratio");
  m.add("core.backsub_host_over_modeled", ratio(r.bs_ms, r.bs_modeled_ms),
        "ratio");
  m.add("core.ladder.rungs_per_req", ratio(rungs, n), "count");
  m.add("core.ladder.refactor_per_req", ratio(refactors, n), "count");
  m.add("core.ladder.refine_iters_per_req", ratio(refine, n), "count");
  const int rung_limbs[3] = {2, 4, 8};
  for (int k = 0; k < 3; ++k) {
    const auto it = r.rung_ms.find(rung_limbs[k]);
    m.add(std::string("core.ladder.rung_ms.") + limbs[k],
          ratio(it == r.rung_ms.end() ? 0.0 : it->second, n), "ms");
  }
  m.add("core.ladder.accept_ratio", ratio(accepted, rungs), "ratio");

  m.add("device.launches_per_req", ratio(r.kernels, n), "count");
  m.add("device.staging_ms_per_req", ratio(r.transfer_ms, n), "ms");
  m.add("device.exec_overhead_ms_per_req",
        ratio(latency - r.kernel_self_ms - r.transfer_self_ms, n), "ms");
  m.add("device.par_speedup", par_speedup, "ratio");

  m.add("serve.queue_wait_ms_p50", percentile(r.queue_wait_ms, 50), "ms");
  m.add("serve.queue_wait_ms_p90", percentile(r.queue_wait_ms, 90), "ms");
  m.add("serve.exec_ms_p50.lsq_hit", percentile(r.job_hit_ms, 50), "ms");
  m.add("serve.exec_ms_p50.lsq_miss", percentile(r.job_miss_ms, 50), "ms");
  m.add("serve.exec_ms_p50.track", percentile(r.job_other_ms, 50), "ms");
  const ServeCounters& c = traced.serve;
  m.add("serve.cache_hit_ratio", ratio(c.hits, c.hits + c.misses), "ratio");
  m.add("serve.cache_evictions_per_req", ratio(c.evictions, n), "count");
  m.add("serve.rejected_ratio", ratio(c.rejected, c.submitted), "ratio");
  double busy_ms = 0.0;
  for (const auto* v : {&r.job_hit_ms, &r.job_miss_ms, &r.job_other_ms})
    for (double ms : *v) busy_ms += ms;
  m.add("serve.slot_busy_share", ratio(busy_ms, traced.wall_s * 1e3 * c.slots),
        "ratio");

  m.add("path.steps_per_track", ratio(steps, tracks), "count");
  m.add("path.corrections_per_track", ratio(corrections, tracks), "count");
  m.add("path.ms_per_step", ratio(r.step_ms, r.steps), "ms");

  std::vector<double> late;
  for (const Sample& s : untraced.samples) late.push_back(s.late_ms);
  m.add("bench.gen_late_ms_p90", percentile(late, 90), "ms");
  m.add("bench.trace_overhead_ratio",
        ratio(mean(ok_latencies(traced)), mean(ok_latencies(untraced))),
        "ratio");
  m.add("bench.host_parallelism", host_par, "ratio");
}

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;

int run(const Args& a) {
  const int hc = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<double> par;
  for (int k = 0; k < 3; ++k)
    par.push_back(host_parallelism(hc > 0 ? hc : 1, 40'000'000));
  const double host_par = percentile(par, 50);

  auto w = make(a.workload);
  MetricSet metrics;
  Verdict verdict;
  Totals totals;
  std::string details = "{}";
  std::size_t requests = 0;
  double timed_s = 0.0;

  if (!a.trace) {
    std::vector<double> setups;
    for (int k = 0; k < kSetups; ++k) {
      const std::int64_t t0 = now_ns();
      w->setup(a.seed, a.seconds);
      setups.push_back(ms_between(t0, now_ns()) / 1e3);
    }
    const Pass p = w->run(a.seconds, 0);
    w->check(p, verdict);
    totals.add(p);
    requests = p.samples.size();
    timed_s = p.wall_s;
    end_to_end(*w, p, percentile(setups, 50), metrics, details);
  } else {
    w->setup(a.seed, a.seconds);
    const MdProbe md = md_probe(a.seed);
    const double fused_ns = fused_dd_ns_per_op(a.seed);
    const Pass untraced = w->run(a.seconds / 2, 0);
    Pass traced;
    mdlsq::obs::TraceSnapshot snap;
    {
      mdlsq::obs::TraceSession session(mdlsq::obs::TraceOptions{1u << 20});
      traced = w->run(a.seconds / 2, untraced.samples.size());
      snap = session.snapshot();
    }
    w->check(untraced, verdict);
    w->check(traced, verdict);
    if (!same_answers(untraced, traced))
      verdict.wrong("traced answers differ from untraced answers");
    if (snap.dropped > 0)
      verdict.wrong("trace ring overflowed: " + std::to_string(snap.dropped) +
                    " spans dropped");
    totals.add(untraced);
    totals.add(traced);
    requests = untraced.samples.size() + traced.samples.size();
    timed_s = untraced.wall_s + traced.wall_s;
    per_layer(untraced, traced, rollup(snap.spans), md, fused_ns,
              w->par_speedup(), host_par, metrics);
  }

  std::printf(
      "{\"provenance\": {\"rev\": %s, \"source\": %s, \"compiler\": %s, "
      "\"flags\": %s, \"build_type\": %s, \"isa\": %s, "
      "\"hardware_concurrency\": %d, \"host_parallelism\": %s, "
      "\"workload\": %s, \"loop\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"requests\": %zu, \"timed_s\": %s}}\n",
      json_string(a.rev).c_str(), json_string(a.source).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_FLAGS).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(mdlsq::md::simd::name_of(mdlsq::md::simd::active_isa()))
          .c_str(),
      hc, json_number(host_par).c_str(), json_string(a.workload).c_str(),
      json_string(w->loop()).c_str(),
      static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0, requests,
      json_number(timed_s).c_str());
  std::string errors = "[";
  for (std::size_t i = 0; i < verdict.errors.size(); ++i)
    errors += (i ? ", " : "") + json_string(verdict.errors[i]);
  std::printf("{\"details\": %s, \"errors\": %s]}\n", details.c_str(),
              errors.c_str());
  std::printf("%s\n", result_json(verdict.correct, totals.attempted,
                                  totals.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mdlsq_perfbench: %s\n", e.what());
    return 1;
  }
}
