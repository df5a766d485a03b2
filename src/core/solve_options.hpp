// The shared execution knobs of every solver driver.
//
// Before this header, the same three knobs — the host execution engine's
// worker width, the optional shared tile pool it draws helpers from
// (DESIGN.md §5), and the precision-ladder rung sequence (DESIGN.md §10)
// — were declared four times with slightly divergent comments and
// defaults drift risk: AdaptiveOptions, BatchedLsqOptions, TrackOptions
// and BatchedTrackOptions each carried their own copies.  ExecOptions is
// the single definition; the four options structs compose it by value
// (public base subobject), so the historical field names — opt.parallelism,
// opt.tile_pool, opt.rungs — keep working at every call site unchanged:
// the "accessors" are the inherited members themselves.
//
// Semantics of the three knobs (identical wherever they appear):
//
//   parallelism — the launch graphs of every Device the driver runs
//     execute on up to `parallelism` concurrent workers (DESIGN.md §5).
//     Results are bit-identical at every width; the knob changes only how
//     the host spends wall-clock.
//
//   tile_pool — the util::ThreadPool those tasks borrow helpers from.
//     Null with parallelism > 1 means the driver owns a pool for the
//     call; batched drivers pass ONE shared pool into every per-problem
//     solve so batch-level and tile-level parallelism compose without
//     oversubscription (core::detail::tile_pool_helpers).
//
//   rungs — explicit precision-ladder rung sequence (strictly increasing
//     instantiated limb counts, core/limb_dispatch.hpp); empty means the
//     default doubling ladder.  Drivers without their own ladder (the
//     batched wrappers) forward a non-empty sequence into the per-problem
//     ladder options they compose (AdaptiveOptions / TrackOptions), so
//     one batch-level assignment configures every problem.
#pragma once

#include <vector>

namespace mdlsq::util {
class ThreadPool;
}

namespace mdlsq::core {

struct ExecOptions {
  // Host execution engine width (DESIGN.md §5): launch graphs run on up
  // to `parallelism` concurrent workers.  Bit-identical at any width.
  int parallelism = 1;
  // Shared tile pool; null means the driver owns one when parallelism > 1.
  util::ThreadPool* tile_pool = nullptr;
  // Explicit precision-ladder rung sequence; empty means the default
  // doubling ladder.  Validation semantics are core::resolve_rungs'.
  std::vector<int> rungs;
};

}  // namespace mdlsq::core
