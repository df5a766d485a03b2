// Batched multi-device least squares: B independent problems
// min_x ||b_i - A_i x_i||_2 sharded across a pool of simulated devices
// and solved concurrently on a host thread pool.
//
// Each problem runs the full single-problem pipeline — blocked
// Householder QR (Algorithm 2), Q^H b, tiled back substitution
// (Algorithm 1), optionally a fixed number of Newton refinement passes on
// the host — against its own Device instance, so batched results are
// bit-identical to sequential solves regardless of pool width, sharding
// policy or thread count (DESIGN.md §2).  The per-problem Device also
// gives exact per-problem operation tallies, which the batch report
// aggregates per pool slot; tally conservation (batch total == sum of
// per-problem tallies) holds by construction and is pinned by
// tests/test_batched_lsq.cpp.
//
// Two sharding policies:
//   * round_robin            — problem i goes to pool slot i mod D;
//   * greedy_by_modeled_time — problems are priced with a dry run of the
//     identical launch schedule, then assigned longest-first to the slot
//     with the least accumulated modeled time (LPT scheduling), which
//     minimizes the modeled makespan up to the usual 4/3 bound.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blas/gemm.hpp"
#include "core/adaptive_lsq.hpp"
#include "core/back_substitution.hpp"
#include "core/least_squares.hpp"
#include "core/solve_options.hpp"
#include "device/dag_scheduler.hpp"
#include "device/device_spec.hpp"
#include "device/launch.hpp"
#include "util/batch_report.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::core {

enum class ShardPolicy { round_robin, greedy_by_modeled_time };

inline const char* name_of(ShardPolicy p) noexcept {
  switch (p) {
    case ShardPolicy::round_robin: return "round-robin";
    case ShardPolicy::greedy_by_modeled_time: return "greedy-by-modeled-time";
  }
  return "?";
}

// The per-problem pipeline.  `direct` is the fixed-precision device solve
// (optionally polished by refine_passes); `adaptive` climbs the precision
// ladder per problem (adaptive_lsq.hpp), so one batch can mix rungs —
// each problem pays only for the precision its conditioning demands.
enum class BatchPipeline { direct, adaptive };

inline const char* name_of(BatchPipeline p) noexcept {
  switch (p) {
    case BatchPipeline::direct: return "direct";
    case BatchPipeline::adaptive: return "adaptive";
  }
  return "?";
}

// A pool of simulated devices.  Slots may reference different specs
// (heterogeneous pools price shards differently under the greedy policy).
struct DevicePool {
  std::vector<const device::DeviceSpec*> slots;

  static DevicePool homogeneous(const device::DeviceSpec& spec, int n) {
    DevicePool p;
    p.slots.assign(static_cast<std::size_t>(n), &spec);
    return p;
  }
  int size() const noexcept { return static_cast<int>(slots.size()); }
};

// One problem of the batch.  In dry_run mode the matrices stay empty and
// only the dimensions drive the launch schedule.
template <class T>
struct BatchProblem {
  blas::Matrix<T> a;
  blas::Vector<T> b;
  int rows = 0;  // used when a is empty (dry run)
  int cols = 0;

  int m() const noexcept { return a.rows() > 0 ? a.rows() : rows; }
  int c() const noexcept { return a.cols() > 0 ? a.cols() : cols; }

  static BatchProblem functional(blas::Matrix<T> mat, blas::Vector<T> rhs) {
    BatchProblem p;
    p.rows = mat.rows();
    p.cols = mat.cols();
    p.a = std::move(mat);
    p.b = std::move(rhs);
    return p;
  }
  static BatchProblem dry(int m, int c) {
    BatchProblem p;
    p.rows = m;
    p.cols = c;
    return p;
  }
};

// Inherits the shared execution knobs from core::ExecOptions.  Here
// `parallelism` is the tile-level width per problem (DESIGN.md §5): every
// problem's Device runs its launch graphs on up to `parallelism`
// concurrent workers — the batch worker's own thread plus helpers from ONE
// tile pool shared by all problems, sized so batch-level and tile-level
// parallelism compose without oversubscribing the host
// (tile_pool_helpers below).  A non-null `tile_pool` supplies that shared
// pool externally (the serve layer passes its own); null means the driver
// sizes and owns one for the call.  A non-empty `rungs` overrides
// `adaptive.rungs`, so one batch-level assignment configures every
// problem's ladder.  Results are bit-identical at every width.
struct BatchedLsqOptions : ExecOptions {
  int tile = 8;
  // Newton refinement passes on the host after the device solve
  // (r = b - A x; x += argmin ||r - A dx||).  Counted into the
  // per-problem refine tally; 0 keeps results bit-identical to
  // least_squares().
  int refine_passes = 0;
  ShardPolicy policy = ShardPolicy::round_robin;
  device::ExecMode mode = device::ExecMode::functional;
  int threads = 0;  // host threads; 0 means one per pool slot
  BatchPipeline pipeline = BatchPipeline::direct;
  // Ladder parameters of the adaptive pipeline (its tile is overridden by
  // `tile` above so both pipelines schedule identically).  Real scalar
  // types only.
  AdaptiveOptions adaptive;
};

template <class T>
struct BatchedProblemResult {
  int problem = -1;
  int device = -1;            // pool slot the problem was served by
  blas::Vector<T> x;          // functional mode only
  md::OpTally analytic;       // declared launch tallies of the device solve
  md::OpTally measured;       // counted from the functional kernel bodies
  md::OpTally refine;         // host refinement operations
  double kernel_ms = 0.0;     // modeled kernel time
  double wall_ms = 0.0;       // modeled wall time (kernel + transfers)
  // Converted per rung at its true device precision (equals
  // analytic.dp_flops(precision of T) for the direct pipeline).
  double dp_gflop = 0.0;
  // Adaptive pipeline only: the ladder this problem climbed.
  std::vector<util::RungStats> rungs;
  bool converged = true;
  md::Precision final_precision = md::Precision(blas::scalar_traits<T>::limbs);
};

template <class T>
struct BatchedLsqResult {
  std::vector<BatchedProblemResult<T>> problems;  // indexed by problem id
  std::vector<std::vector<int>> shards;           // pool slot -> problem ids
  util::BatchReport report;
  // The batch graph's run: tasks executed and cross-slot steals.
  device::DagRunStats dag_stats;
};

namespace detail {

// The batched adaptive options: the ladder inherits the batch tile so
// both pipelines schedule identically, plus the batch's tile-level
// execution engine.  A non-empty batch-level rung sequence overrides the
// nested ladder's so one assignment configures every problem.
inline AdaptiveOptions ladder_options(const BatchedLsqOptions& opt,
                                      util::ThreadPool* tile_pool) {
  AdaptiveOptions a = opt.adaptive;
  a.tile = opt.tile;
  a.parallelism = opt.parallelism;
  a.tile_pool = tile_pool;
  if (!opt.rungs.empty()) a.rungs = opt.rungs;
  return a;
}

// Helper threads of the shared tile pool: each of the `shard_width`
// batch workers wants parallelism-1 helpers (it participates in its own
// tiled launches), but the pool never grows past what the hardware has
// left after the shard workers — while always granting at least one
// problem its full requested width, so the parallel code path is
// exercised even on small hosts.
inline int tile_pool_helpers(int shard_width, int parallelism) noexcept {
  if (parallelism <= 1) return 0;
  const int want = shard_width * (parallelism - 1);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int budget = std::max(parallelism - 1, hw - shard_width);
  return std::min(want, budget);
}

// The adaptive ladder runs on real scalars only.  The check must survive
// NDEBUG: silently serving a direct solve under an "adaptive" label would
// hand the caller results from a pipeline they did not ask for.
template <class T>
void require_pipeline_supported(const BatchedLsqOptions& opt) {
  if constexpr (blas::is_complex_v<T>) {
    if (opt.pipeline == BatchPipeline::adaptive) {
      std::fprintf(stderr,
                   "mdlsq: BatchPipeline::adaptive requires a real scalar "
                   "type\n");
      std::abort();
    }
  } else {
    (void)opt;
  }
}

// Solves one problem with the adaptive ladder (real scalars only).
template <class T>
BatchedProblemResult<T> solve_one_adaptive(const device::DeviceSpec& spec,
                                           int slot, int idx,
                                           const BatchProblem<T>& p,
                                           const BatchedLsqOptions& opt,
                                           util::ThreadPool* tile_pool) {
  static_assert(!blas::is_complex_v<T>,
                "the adaptive pipeline runs on real problems");
  constexpr int NH = blas::scalar_traits<T>::limbs;
  const AdaptiveOptions aopt = ladder_options(opt, tile_pool);

  BatchedProblemResult<T> r;
  r.problem = idx;
  r.device = slot;
  if (opt.mode == device::ExecMode::functional) {
    auto sol = adaptive_least_squares<NH>(spec, p.a, p.b, aopt);
    r.x = std::move(sol.x);
    r.analytic = sol.device_analytic();
    r.measured = sol.device_measured();
    r.refine = sol.host_ops();
    r.kernel_ms = sol.kernel_ms();
    r.wall_ms = sol.wall_ms();
    r.dp_gflop = sol.dp_gflop();
    r.rungs = std::move(sol.rungs);
    r.converged = sol.converged;
    r.final_precision = sol.final_precision;
  } else {
    auto dry = adaptive_least_squares_dry<T>(spec, p.m(), p.c(), aopt);
    r.analytic = dry.analytic();
    r.kernel_ms = dry.kernel_ms();
    r.wall_ms = dry.wall_ms();
    r.dp_gflop = dry.dp_gflop();
    r.rungs = std::move(dry.rungs);
  }
  return r;
}

// Solves one problem against a fresh Device on the given pool slot.
template <class T>
BatchedProblemResult<T> solve_one(const device::DeviceSpec& spec, int slot,
                                  int idx, const BatchProblem<T>& p,
                                  const BatchedLsqOptions& opt,
                                  util::ThreadPool* tile_pool) {
  if (opt.pipeline == BatchPipeline::adaptive) {
    if constexpr (!blas::is_complex_v<T>) {
      return solve_one_adaptive<T>(spec, slot, idx, p, opt, tile_pool);
    } else {
      assert(!"the adaptive pipeline requires real problems");
    }
  }
  const auto prec = md::Precision(blas::scalar_traits<T>::limbs);
  device::Device dev(spec, prec, opt.mode);
  dev.set_parallelism(tile_pool, opt.parallelism);

  BatchedProblemResult<T> r;
  r.problem = idx;
  r.device = slot;
  if (opt.mode == device::ExecMode::functional) {
    auto out = least_squares(dev, p.a, p.b, opt.tile);
    r.x = std::move(out.x);
    if (opt.refine_passes > 0) {
      // Factor once; every pass reuses Q and R against a new residual.
      md::ScopedTally scope(r.refine);
      const QrFactors<T> f = householder_qr(p.a);
      for (int pass = 0; pass < opt.refine_passes; ++pass) {
        auto ax = blas::gemv(p.a, std::span<const T>(r.x));
        blas::Vector<T> res(p.b.size());
        for (std::size_t i = 0; i < res.size(); ++i) res[i] = p.b[i] - ax[i];
        auto dx = least_squares_with_factors(f, std::span<const T>(res));
        for (int j = 0; j < p.c(); ++j) r.x[j] += dx[j];
      }
    }
  } else {
    least_squares_dry<T>(dev, p.m(), p.c(), opt.tile);
  }
  r.analytic = dev.analytic_total();
  r.measured = dev.measured_total();
  r.kernel_ms = dev.kernel_ms();
  r.wall_ms = dev.wall_ms();
  r.dp_gflop = r.analytic.dp_flops(prec) * 1e-9;
  return r;
}

// Modeled wall time of one problem, from a dry run of the identical
// launch schedule (no arithmetic, no matrix storage).  Adaptive problems
// are priced with the ladder's dry schedule.
template <class T>
double modeled_wall_ms(const device::DeviceSpec& spec, const BatchProblem<T>& p,
                       const BatchedLsqOptions& opt) {
  if (opt.pipeline == BatchPipeline::adaptive) {
    if constexpr (!blas::is_complex_v<T>) {
      return adaptive_least_squares_dry<T>(spec, p.m(), p.c(),
                                           ladder_options(opt, nullptr))
          .wall_ms();
    } else {
      assert(!"the adaptive pipeline requires real problems");
    }
  }
  const auto prec = md::Precision(blas::scalar_traits<T>::limbs);
  device::Device dev(spec, prec, device::ExecMode::dry_run);
  least_squares_dry<T>(dev, p.m(), p.c(), opt.tile);
  return dev.wall_ms();
}

}  // namespace detail

// Computes the pool-slot assignment without running anything; exposed so
// tests and the bench harness can inspect scheduling decisions directly.
template <class T>
std::vector<std::vector<int>> shard_assignment(
    const DevicePool& pool, const std::vector<BatchProblem<T>>& problems,
    const BatchedLsqOptions& opt) {
  detail::require_pipeline_supported<T>(opt);
  const int d = pool.size();
  if (d < 1)
    throw std::invalid_argument(
        "mdlsq: shard_assignment requires a non-empty device pool");
  std::vector<std::vector<int>> shards(static_cast<std::size_t>(d));

  if (opt.policy == ShardPolicy::round_robin) {
    for (int i = 0; i < static_cast<int>(problems.size()); ++i)
      shards[static_cast<std::size_t>(i % d)].push_back(i);
    return shards;
  }

  // Greedy LPT on modeled wall time.  Estimates are priced per slot spec
  // (a heterogeneous pool prices the same problem differently), computed
  // once per distinct spec — homogeneous pools dry-run each problem only
  // once.  Ties break on problem id / slot id so the schedule is
  // deterministic.
  std::vector<std::vector<double>> est(static_cast<std::size_t>(d));
  for (int s = 0; s < d; ++s) {
    for (int prior = 0; prior < s; ++prior)
      if (pool.slots[prior] == pool.slots[s]) {
        est[s] = est[prior];
        break;
      }
    if (est[s].empty()) {
      est[s].resize(problems.size());
      for (std::size_t i = 0; i < problems.size(); ++i)
        est[s][i] =
            detail::modeled_wall_ms<T>(*pool.slots[s], problems[i], opt);
    }
  }

  // LPT sort key: a problem's WORST modeled time across the pool's specs.
  // Sorting by slot 0's estimate alone misorders heterogeneous pools — a
  // problem cheap on slot 0 but expensive on the slot it actually lands
  // on would be placed late, after the greedy pass has already committed
  // the balanced slots.
  std::vector<double> worst(problems.size(), 0.0);
  for (int s = 0; s < d; ++s)
    for (std::size_t i = 0; i < problems.size(); ++i)
      worst[i] = std::max(worst[i], est[static_cast<std::size_t>(s)][i]);
  std::vector<int> order(problems.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return worst[static_cast<std::size_t>(a)] >
           worst[static_cast<std::size_t>(b)];
  });

  std::vector<double> load(static_cast<std::size_t>(d), 0.0);
  for (int i : order) {
    int best = 0;
    for (int s = 1; s < d; ++s)
      if (load[s] + est[s][static_cast<std::size_t>(i)] <
          load[best] + est[best][static_cast<std::size_t>(i)])
        best = s;
    shards[static_cast<std::size_t>(best)].push_back(i);
    load[static_cast<std::size_t>(best)] +=
        est[best][static_cast<std::size_t>(i)];
  }
  for (auto& s : shards) std::sort(s.begin(), s.end());
  return shards;
}

// The batched driver.  Shards the problems over the pool, solves them
// through one coarse task graph on the host (each problem on one thread
// against its slot's spec, idle workers stealing across slots), and
// aggregates the batch report.
template <class T>
BatchedLsqResult<T> batched_least_squares(
    const DevicePool& pool, const std::vector<BatchProblem<T>>& problems,
    const BatchedLsqOptions& opt = {}) {
  detail::require_pipeline_supported<T>(opt);
  const int d = pool.size();
  if (d < 1)
    throw std::invalid_argument(
        "mdlsq: batched_least_squares requires a non-empty device pool");

  BatchedLsqResult<T> out;
  out.shards = shard_assignment(pool, problems, opt);
  out.problems.resize(problems.size());

  {
    const int width = opt.threads > 0 ? std::min(opt.threads, d) : d;
    // One tile pool shared by every shard (DESIGN.md §5): batch workers
    // participate in their own problems' launch graphs and borrow helpers
    // from this pool, so total host threads stay bounded by
    // width + tile_pool_helpers() regardless of how the two knobs are
    // combined.  An externally supplied opt.tile_pool (the serve layer's)
    // is used as-is; otherwise the driver sizes and owns one.
    std::optional<util::ThreadPool> owned_pool;
    util::ThreadPool* tile_pool = opt.tile_pool;
    if (tile_pool == nullptr) {
      const int helpers = detail::tile_pool_helpers(width, opt.parallelism);
      if (helpers > 0) {
        owned_pool.emplace(helpers);
        tile_pool = &*owned_pool;
      }
    }
    // Coarse-grained task graph over the pool (DESIGN.md §13): per
    // problem a stage-in transfer node, a compute node (the full
    // per-problem pipeline — direct or adaptive — on its own fresh
    // Device), and a stage-out node, all pinned to the problem's
    // assigned slot.  Workers drain their home slot's ready queue in
    // worst-modeled-time-first order and STEAL from other slots when it
    // runs dry — so a shard that finishes early absorbs the backlog of a
    // slow (or slow-spec) one.  Each problem runs on one thread against
    // its slot's spec and its own Device, so results and per-problem
    // tallies are bit-identical at every worker count.
    std::vector<int> slot_of(problems.size(), 0);
    for (int s = 0; s < d; ++s)
      for (int i : out.shards[static_cast<std::size_t>(s)])
        slot_of[static_cast<std::size_t>(i)] = s;
    device::TaskGraph g;
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const int s = slot_of[i];
      const device::DeviceSpec& spec =
          *pool.slots[static_cast<std::size_t>(s)];
      const BatchProblem<T>& p = problems[i];
      const std::int64_t in_bytes =
          device::Device::staging_bytes<T>(p.m(), p.c()) +
          device::Device::staging_bytes<T>(p.m(), 1);
      const std::int64_t out_bytes =
          device::Device::staging_bytes<T>(p.c(), 1) +
          device::Device::staging_bytes<T>(p.m(), p.m()) +
          device::Device::staging_bytes<T>(p.m(), p.c());
      const double in_ms = device::transfer_time_ms(spec, in_bytes);
      const double out_ms = device::transfer_time_ms(spec, out_bytes);
      const double wall = detail::modeled_wall_ms<T>(spec, p, opt);

      device::TaskNode tin;
      tin.label = "stage in p" + std::to_string(i);
      tin.kind = device::TaskKind::transfer;
      tin.device = s;
      tin.modeled_ms = in_ms;
      const int id_in = g.add(std::move(tin));

      device::TaskNode comp;
      comp.label = "solve p" + std::to_string(i);
      comp.kind = device::TaskKind::kernel;
      comp.device = s;
      comp.modeled_ms = std::max(0.0, wall - in_ms - out_ms);
      comp.deps = {id_in};
      comp.body = [&out, &pool, &problems, &opt, tile_pool, i, s] {
        out.problems[i] = detail::solve_one<T>(
            *pool.slots[static_cast<std::size_t>(s)], s,
            static_cast<int>(i), problems[i], opt, tile_pool);
      };
      const int id_comp = g.add(std::move(comp));

      device::TaskNode tout;
      tout.label = "stage out p" + std::to_string(i);
      tout.kind = device::TaskKind::transfer;
      tout.device = s;
      tout.modeled_ms = out_ms;
      tout.deps = {id_comp};
      g.add(std::move(tout));
    }
    std::optional<util::ThreadPool> dag_helpers;
    device::DagRunOptions ro;
    ro.width = width;
    ro.devices = d;
    if (width > 1) {
      dag_helpers.emplace(width - 1);
      ro.pool = &*dag_helpers;
    }
    out.dag_stats = device::run_graph(g, ro);
  }

  util::BatchReport& rep = out.report;
  rep.precision = md::Precision(blas::scalar_traits<T>::limbs);
  rep.policy = name_of(opt.policy);
  rep.pipeline = name_of(opt.pipeline);
  rep.rows.resize(static_cast<std::size_t>(d));
  for (int s = 0; s < d; ++s) {
    auto& row = rep.rows[static_cast<std::size_t>(s)];
    row.device = s;
    row.name = pool.slots[static_cast<std::size_t>(s)]->name;
    row.problems = out.shards[static_cast<std::size_t>(s)];
    for (int i : row.problems) {
      const auto& pr = out.problems[static_cast<std::size_t>(i)];
      row.tally += pr.analytic;
      row.dp_gflop += pr.dp_gflop;
      row.kernel_ms += pr.kernel_ms;
      row.wall_ms += pr.wall_ms;
    }
    rep.tally += row.tally;
    rep.dp_gflop_total += row.dp_gflop;
    rep.kernel_ms += row.kernel_ms;
    rep.makespan_ms = std::max(rep.makespan_ms, row.wall_ms);
  }

  // Escalation statistics: one report row per ladder rung that any
  // problem entered, in ladder order (adaptive pipeline only).
  if (opt.pipeline == BatchPipeline::adaptive) {
    // The rung precisions actually observed, ascending — configured rung
    // sequences can contain any instantiated limb count, so the rows are
    // collected from the results instead of a hard-wired {1, 2, 4, 8}.
    std::vector<int> seen;
    for (const auto& pr : out.problems)
      for (const auto& rg : pr.rungs) seen.push_back(md::limbs_of(rg.precision));
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (int limbs : seen) {
      util::BatchRungRow rr;
      rr.precision = md::Precision(limbs);
      for (const auto& pr : out.problems)
        for (const auto& rg : pr.rungs) {
          if (rg.precision != rr.precision) continue;
          rr.problems += 1;
          rr.refactorizations += rg.refactorized ? 1 : 0;
          rr.accepted += rg.accepted ? 1 : 0;
          rr.refine_iterations += rg.refine_iterations;
          rr.tally += rg.analytic;
          rr.dp_gflop += rg.dp_gflop();
          rr.kernel_ms += rg.kernel_ms;
        }
      if (rr.problems > 0) rep.rungs.push_back(std::move(rr));
    }
  }
  return out;
}

}  // namespace mdlsq::core
