// Request-replay bench of the solver service (serve/, DESIGN.md §11),
// feeding the same tools/check_bench.py gate as the other suites via
// --extra.  Two case families:
//
//   servehit — N repeat solves of ONE matrix through a single-worker
//     service: cache disabled (every solve cold; seq_wall_ms) vs cache
//     enabled after one warmup miss (every solve warm; par_wall_ms).
//     The wall ratio is emitted as cache_hit_speedup, the field the
//     gate's --min-cache-hit-speedup absolute floor applies to: a warm
//     solve stages only the right-hand side and replays the shared
//     post-factorization stages (core::staged_lsq_finish_exec) against the
//     resident cached factors, so it must beat the cold pipeline
//     outright on any host.  The modeled kernel sum is deterministic
//     (both passes' schedules are data-independent), and the binary
//     itself enforces warm/cold limb-identity and measured == analytic
//     before writing the artifact.
//
//   servemix — a seeded synthetic tenant mix (fixed-precision solves
//     with repeats that hit the cache, adaptive ladders, path tracks)
//     replayed open-loop (paced arrivals) through the daemon.  A single
//     worker keeps the modeled kernel sum deterministic: the cache hit
//     COUNT is order-independent when nothing evicts — each distinct
//     matrix misses exactly once — even though which submission takes
//     the miss is timing-dependent.  Emits throughput (solves/sec,
//     paths/sec), the cache hit rate, and p50/p95/p99 submit-to-complete
//     latency as informational fields; every response is checked
//     limb-identical to a direct sequential driver call and the service
//     tallies must conserve exactly.
//
// Observability artifacts (DESIGN.md §12), all from the MIX case only —
// the gated servehit walls always run with tracing off:
//   --trace t.json    Chrome trace_event spans of the mix replay
//   --metrics m.json  the service's MetricsRegistry (admission counters,
//                     queue-wait percentiles, cache traffic)
//   --report r.json   the aggregate util::BatchReport of the mix daemon
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mdlsq.hpp"

namespace {

using namespace mdlsq;

struct CaseResult {
  std::string kind;
  std::string precision;
  int rows = 0, cols = 0, tile = 0;
  double modeled_kernel_ms = 0.0;
  double seq_wall_ms = 0.0;   // servehit: cold pass; servemix: replay wall
  double par_wall_ms = 0.0;   // servehit: warm pass; servemix: replay wall
  double speedup = 0.0;       // servehit: cold/warm; servemix: 0 (one pass)
  bool identical = false;
  bool tally_ok = false;
  // servehit only: the gated cache ratio (same value as speedup, under
  // the field name the absolute floor keys on).
  double cache_hit_speedup = 0.0;
  // servemix only (informational, machine-dependent; not gated).
  bool has_mix_stats = false;
  double solves_per_sec = 0.0, paths_per_sec = 0.0, cache_hit_rate = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  long long accepted = 0, rejected = 0;
};

template <class T>
bool limb_equal(const blas::Vector<T>& a, const blas::Vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (int l = 0; l < blas::scalar_traits<T>::limbs; ++l)
      if (a[i].limb(l) != b[i].limb(l)) return false;
  return true;
}

// --- servehit ---------------------------------------------------------------

template <int NH>
CaseResult serve_hit_case(int rows, int cols, int tile, int reps) {
  using T = md::mdreal<NH>;
  std::mt19937_64 gen(0x5e21eULL + NH);
  const auto a = blas::random_matrix<T>(rows, cols, gen);
  const auto b = blas::random_vector<T>(rows, gen);

  CaseResult cr;
  cr.kind = "servehit";
  cr.precision = md::name_of(md::Precision(NH));
  cr.rows = rows;
  cr.cols = cols;
  cr.tile = tile;

  bool tally_ok = true, hits_ok = true;
  auto replay = [&](bool cache, std::vector<blas::Vector<T>>& xs,
                    double& kernel) {
    serve::ServiceOptions opt;
    opt.cache_bytes = cache ? std::int64_t(64) << 20 : 0;
    serve::SolverService<NH> svc(
        core::DevicePool::homogeneous(device::volta_v100(), 1), opt);
    if (cache) {
      // The warmup miss populates the cache; it stays outside the timer.
      serve::Request<NH> req;
      req.job = serve::LsqJob<NH>{a, b, tile};
      auto r = svc.submit(std::move(req)).result.get();
      if (r.cache_hit) hits_ok = false;
      if (!(r.analytic == r.measured)) tally_ok = false;
    }
    const double t0 = bench::now_ms();
    std::vector<std::future<serve::Response<NH>>> futures;
    futures.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
      serve::Request<NH> req;
      req.job = serve::LsqJob<NH>{a, b, tile};
      futures.push_back(svc.submit(std::move(req)).result);
    }
    for (auto& f : futures) {
      auto r = f.get();
      if (r.cache_hit != cache) hits_ok = false;
      if (!(r.analytic == r.measured)) tally_ok = false;
      kernel += r.kernel_ms;
      xs.push_back(std::move(r.x));
    }
    return bench::now_ms() - t0;
  };

  std::vector<blas::Vector<T>> cold_x, warm_x;
  double cold_kernel = 0.0, warm_kernel = 0.0;
  const double cold_wall = replay(false, cold_x, cold_kernel);
  const double warm_wall = replay(true, warm_x, warm_kernel);

  bool identical = hits_ok;
  for (const auto& x : cold_x) identical = identical && limb_equal(x, cold_x[0]);
  for (const auto& x : warm_x) identical = identical && limb_equal(x, cold_x[0]);

  cr.modeled_kernel_ms = cold_kernel + warm_kernel;
  cr.seq_wall_ms = cold_wall;
  cr.par_wall_ms = warm_wall;
  // The ratio is emitted ONLY as cache_hit_speedup, the absolutely
  // floored field — not as the case's "speedup", which the gate also
  // checks RELATIVELY against the baseline: at a 10-100x ratio a few
  // milliseconds of warm-pass jitter swings the relative check past any
  // reasonable tolerance, while the absolute floor states the actual
  // invariant (warm replays a strict subset of the cold launches, so it
  // must win outright).
  cr.speedup = 0.0;
  cr.cache_hit_speedup = warm_wall > 0 ? cold_wall / warm_wall : 0.0;
  cr.identical = identical;
  cr.tally_ok = tally_ok;
  return cr;
}

// --- servemix ---------------------------------------------------------------

CaseResult serve_mix_case(const std::string& trace_path,
                          const std::string& metrics_path,
                          const std::string& report_path) {
  constexpr int NH = 2;
  using T = md::mdreal<NH>;
  const device::DeviceSpec& spec = device::volta_v100();
  constexpr int kLsqRows = 64, kLsqCols = 32, kLsqTile = 8;
  constexpr int kAdaRows = 48, kAdaCols = 24;
  constexpr int kTrackDim = 8, kTrackTile = 4;

  CaseResult cr;
  cr.kind = "servemix";
  cr.precision = md::name_of(md::Precision(NH));
  cr.rows = kLsqRows;
  cr.cols = kLsqCols;
  cr.tile = kLsqTile;
  cr.has_mix_stats = true;

  // The tenant mix: four distinct lsq matrices submitted 14 times in
  // total (10 of them repeats that must hit the cache), five adaptive
  // ladders and three path tracks, interleaved by a seeded shuffle.
  std::mt19937_64 gen(0x3e7e41ULL);
  std::vector<std::pair<blas::Matrix<T>, blas::Vector<T>>> lsq;
  for (int i = 0; i < 4; ++i)
    lsq.emplace_back(blas::random_matrix<T>(kLsqRows, kLsqCols, gen),
                     blas::random_vector<T>(kLsqRows, gen));
  std::vector<std::pair<blas::Matrix<T>, blas::Vector<T>>> ada;
  for (int i = 0; i < 5; ++i)
    ada.emplace_back(blas::random_matrix<T>(kAdaRows, kAdaCols, gen),
                     blas::random_vector<T>(kAdaRows, gen));
  std::vector<path::Homotopy<T>> tracks;
  for (int i = 0; i < 3; ++i)
    tracks.push_back(path::rational_path_homotopy<T>(
        kTrackDim, 2.0, 0xabcdULL + static_cast<std::uint64_t>(i)));
  path::TrackOptions topt;
  topt.tile = kTrackTile;
  topt.max_steps = 64;

  struct MixJob {
    int kind;  // 0 = lsq, 1 = adaptive, 2 = track
    int idx;
    const char* tenant;
  };
  std::vector<MixJob> jobs;
  const int lsq_reps[4] = {4, 4, 3, 3};
  const char* tenants[3] = {"alice", "bob", "carol"};
  for (int i = 0; i < 4; ++i)
    for (int r = 0; r < lsq_reps[i]; ++r)
      jobs.push_back({0, i, tenants[(i + r) % 3]});
  for (int i = 0; i < 5; ++i) jobs.push_back({1, i, tenants[i % 3]});
  for (int i = 0; i < 3; ++i) jobs.push_back({2, i, tenants[i]});
  std::shuffle(jobs.begin(), jobs.end(), gen);

  // Replay through a single-worker daemon (deterministic modeled sums;
  // see the header comment), open-loop: seeded 0-2 ms arrival gaps.
  std::mutex done_mu;
  std::map<std::uint64_t, double> done_at;
  // The mix is the observability showcase: a metrics registry rides along
  // always, and --trace installs a session over the replay only (the
  // gated servehit cases above never see one).
  obs::MetricsRegistry metrics;
  std::optional<obs::TraceSession> session;
  if (!trace_path.empty()) session.emplace(obs::TraceOptions{1 << 15});
  serve::ServiceOptions opt;
  opt.queue_limit = 256;  // admission off: every job must complete
  opt.metrics = &metrics;
  opt.row_sink = [&](const util::BatchDeviceRow& row) {
    std::lock_guard<std::mutex> lock(done_mu);
    done_at[static_cast<std::uint64_t>(row.problems.at(0))] = bench::now_ms();
  };
  serve::SolverService<NH> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1), opt);

  std::vector<std::future<serve::Response<NH>>> futures;
  std::vector<double> submitted_at;
  std::vector<std::uint64_t> ids;
  const double t0 = bench::now_ms();
  for (const auto& j : jobs) {
    serve::Request<NH> req;
    req.tenant = j.tenant;
    if (j.kind == 0)
      req.job = serve::LsqJob<NH>{lsq[static_cast<std::size_t>(j.idx)].first,
                                  lsq[static_cast<std::size_t>(j.idx)].second,
                                  kLsqTile};
    else if (j.kind == 1)
      req.job =
          serve::AdaptiveLsqJob<NH>{ada[static_cast<std::size_t>(j.idx)].first,
                                    ada[static_cast<std::size_t>(j.idx)].second,
                                    core::AdaptiveOptions{}};
    else
      req.job =
          serve::TrackJob<NH>{tracks[static_cast<std::size_t>(j.idx)], topt};
    submitted_at.push_back(bench::now_ms());
    auto ticket = svc.submit(std::move(req));
    ids.push_back(ticket.id);
    futures.push_back(std::move(ticket.result));
    std::this_thread::sleep_for(std::chrono::milliseconds(gen() % 3));
  }

  bool tally_ok = true, identical = true;
  md::OpTally analytic_sum, measured_sum;
  std::vector<serve::Response<NH>> responses;
  for (auto& f : futures) {
    auto r = f.get();
    if (r.status != serve::JobStatus::done) identical = false;
    if (!(r.analytic == r.measured)) tally_ok = false;
    analytic_sum += r.analytic;
    measured_sum += r.measured;
    cr.modeled_kernel_ms += r.kernel_ms;
    responses.push_back(std::move(r));
  }
  svc.drain();
  const double wall = bench::now_ms() - t0;

  // Snapshot before the reference solves below, so the trace holds the
  // daemon's replay only; resetting uninstalls the session, keeping the
  // reference runs on the untraced one-branch path.
  if (session) {
    obs::write_chrome_trace(trace_path, session->snapshot());
    session.reset();
    std::printf("wrote trace %s\n", trace_path.c_str());
  }

  // Every daemon response must be limb-identical to a direct sequential
  // driver call — warm or cold, whatever tenant or arrival order.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const MixJob& j = jobs[i];
    blas::Vector<T> ref;
    if (j.kind == 0) {
      device::Device dev(spec, md::Precision(NH),
                         device::ExecMode::functional);
      ref = core::least_squares<T>(dev, lsq[static_cast<std::size_t>(j.idx)].first,
                                   lsq[static_cast<std::size_t>(j.idx)].second,
                                   kLsqTile)
                .x;
    } else if (j.kind == 1) {
      ref = core::adaptive_least_squares<NH>(
                spec, ada[static_cast<std::size_t>(j.idx)].first,
                ada[static_cast<std::size_t>(j.idx)].second, {})
                .x;
    } else {
      ref = path::track<NH>(spec, tracks[static_cast<std::size_t>(j.idx)], topt)
                .x;
    }
    identical = identical && limb_equal(responses[i].x, ref);
  }

  // Service-level conservation: per-job sums == stats == aggregate report.
  const auto stats = svc.stats();
  tally_ok = tally_ok && stats.analytic == analytic_sum &&
             stats.measured == measured_sum && stats.analytic == stats.measured &&
             svc.report().tally == analytic_sum;

  std::vector<double> latency;
  {
    std::lock_guard<std::mutex> lock(done_mu);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      auto it = done_at.find(ids[i]);
      if (it != done_at.end())
        latency.push_back(it->second - submitted_at[i]);
    }
  }
  std::sort(latency.begin(), latency.end());
  auto pct = [&](double p) {
    if (latency.empty()) return 0.0;
    std::size_t i = static_cast<std::size_t>(p * (latency.size() - 1) / 100.0);
    return latency[i];
  };
  const auto cache = svc.cache_stats();
  int track_jobs = 0;
  for (const auto& j : jobs) track_jobs += j.kind == 2 ? 1 : 0;

  cr.seq_wall_ms = wall;
  cr.par_wall_ms = wall;
  cr.speedup = 0.0;  // one pass; no ratio to gate
  cr.identical = identical;
  cr.tally_ok = tally_ok;
  cr.solves_per_sec = wall > 0 ? 1e3 * static_cast<double>(jobs.size()) / wall
                               : 0.0;
  cr.paths_per_sec = wall > 0 ? 1e3 * track_jobs / wall : 0.0;
  cr.cache_hit_rate = cache.hit_rate();
  cr.p50_ms = pct(50);
  cr.p95_ms = pct(95);
  cr.p99_ms = pct(99);
  cr.accepted = stats.accepted;
  cr.rejected = stats.rejected;

  if (!metrics_path.empty()) {
    obs::write_metrics_json(metrics_path, metrics);
    std::printf("wrote metrics %s\n", metrics_path.c_str());
  }
  if (!report_path.empty()) {
    std::FILE* rf = std::fopen(report_path.c_str(), "w");
    if (rf != nullptr) {
      svc.report().write_json(rf);
      std::fclose(rf);
      std::printf("wrote report %s\n", report_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    }
  }
  return cr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  std::string trace_path, metrics_path, report_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--trace" && i + 1 < argc)
      trace_path = argv[++i];
    else if (arg == "--metrics" && i + 1 < argc)
      metrics_path = argv[++i];
    else if (arg == "--report" && i + 1 < argc)
      report_path = argv[++i];
    else
      out_path = argv[i];
  }

  std::vector<CaseResult> cases;
  // The gated warm-vs-cold cases, sized so the cold wall clears the
  // gate's --min-wall-ms noise floor with margin.
  cases.push_back(serve_hit_case<2>(96, 64, 16, 6));
  cases.push_back(serve_hit_case<4>(80, 48, 16, 4));
  cases.push_back(serve_mix_case(trace_path, metrics_path, report_path));

  bench::header("solver service: factor-cache replay (V100 model)");
  util::Table t({"kind", "prec", "rows", "cols", "modeled ms", "cold wall ms",
                 "warm wall ms", "hit speedup", "ok"});
  for (const auto& c : cases)
    t.add_row({c.kind, c.precision, std::to_string(c.rows),
               std::to_string(c.cols), util::fmt2(c.modeled_kernel_ms),
               util::fmt2(c.seq_wall_ms), util::fmt2(c.par_wall_ms),
               c.cache_hit_speedup > 0 ? util::fmt2(c.cache_hit_speedup) : "-",
               c.identical && c.tally_ok ? "yes" : "NO"});
  t.print();
  for (const auto& c : cases)
    if (c.has_mix_stats)
      std::printf(
          "\nmix: %.1f solves/s, %.2f paths/s, cache hit rate %.2f, "
          "latency p50 %.1f ms / p95 %.1f ms / p99 %.1f ms "
          "(%lld accepted, %lld rejected)\n",
          c.solves_per_sec, c.paths_per_sec, c.cache_hit_rate, c.p50_ms,
          c.p95_ms, c.p99_ms, c.accepted, c.rejected);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"serve\",\"device\":\"%s\",\"threads\":1,"
               "\"hardware_concurrency\":%u,\"cases\":[",
               device::volta_v100().name.c_str(),
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    std::fprintf(f,
                 "%s{\"kind\":\"%s\",\"precision\":\"%s\",\"rows\":%d,"
                 "\"cols\":%d,\"tile\":%d,\"modeled_kernel_ms\":%.6f,"
                 "\"seq_wall_ms\":%.3f,\"par_wall_ms\":%.3f,"
                 "\"speedup\":%.3f,\"bit_identical\":%s,"
                 "\"tally_conserved\":%s",
                 i ? "," : "", c.kind.c_str(), c.precision.c_str(), c.rows,
                 c.cols, c.tile, c.modeled_kernel_ms, c.seq_wall_ms,
                 c.par_wall_ms, c.speedup, c.identical ? "true" : "false",
                 c.tally_ok ? "true" : "false");
    if (c.cache_hit_speedup > 0)
      std::fprintf(f, ",\"cache_hit_speedup\":%.3f", c.cache_hit_speedup);
    if (c.has_mix_stats)
      std::fprintf(f,
                   ",\"solves_per_sec\":%.3f,\"paths_per_sec\":%.3f,"
                   "\"cache_hit_rate\":%.4f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,"
                   "\"p99_ms\":%.3f,\"accepted\":%lld,\"rejected\":%lld",
                   c.solves_per_sec, c.paths_per_sec, c.cache_hit_rate,
                   c.p50_ms, c.p95_ms, c.p99_ms, c.accepted, c.rejected);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // The binary's own sanity gate, ahead of check_bench.py: warm results
  // must be limb-identical to cold and every tally exact.
  for (const auto& c : cases)
    if (!c.identical || !c.tally_ok) {
      std::fprintf(stderr, "UNEXPECTED: %s/%s failed %s\n", c.kind.c_str(),
                   c.precision.c_str(),
                   !c.identical ? "limb-identity" : "tally conservation");
      return 1;
    }
  return 0;
}
