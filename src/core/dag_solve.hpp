// Batched factor-reusing correction solves — the task graph's bread and
// butter workload (DESIGN.md §13).
//
// A path tracker (or a refinement ladder) holds ONE resident QR
// factorization and fires MANY independent correction solves against it:
// residual upload -> Q^H r -> triangular back substitution, per solve.
// All N three-node chains live in one task graph; the chains share no
// edges (the factors are read-only, every solve owns its residual and
// output slot), so `lanes` host workers drain them concurrently and the
// upload of solve k+1 overlaps the kernels of solve k — the
// double-buffered staging pattern of the paper's multi-GPU model.
//
// Bit-identity across lane counts is by construction: each chain writes
// a disjoint output slot, every reduction runs in fixed order inside one
// task body, and launches are DECLARED at build time in program order on
// the calling thread, so the modeled schedule (kernel_ms, transfer
// totals) is lane-independent and the results match a one-lane run limb
// for limb regardless of completion order.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/refinement.hpp"
#include "device/dag_scheduler.hpp"

namespace mdlsq::core {

struct DagSolveOptions {
  // Concurrent host lanes (1 = caller thread only).
  int lanes = 1;
  // Pool the extra lanes borrow helpers from; null with lanes > 1 means
  // the run owns none and executes on the caller thread.
  util::ThreadPool* pool = nullptr;
  // Test injection: called per (node, worker) before a node's body runs.
  std::function<void(int node, int worker)> delay_hook;
};

// Solves min ||r_k - T_0 dx_k|| for every residual in `residuals` against
// the resident factors (`q`, `rtop`), returning the corrections in input
// order.  Functional mode only — price the dry schedule with
// batch_correction_solves_dry below.
template <class T>
std::vector<blas::Vector<T>> batch_correction_solves(
    device::Device& dev, const device::Staged2D<T>& q,
    const device::Staged2D<T>& rtop,
    const std::vector<blas::Vector<T>>& residuals, int m, int c, int tile,
    const DagSolveOptions& opt = {}) {
  if (!dev.functional())
    throw std::invalid_argument(
        "mdlsq: batch_correction_solves requires a functional device");
  const int n = static_cast<int>(residuals.size());
  std::vector<blas::Vector<T>> out(static_cast<std::size_t>(n));

  // One graph of n independent chains.  `residuals` and `out` outlive
  // exec.run below, satisfying the keep-alive contract of
  // correction_solve_staged_exec.
  device::GraphExec exec;
  exec.run_options.pool = opt.pool;
  exec.run_options.width = opt.lanes;
  exec.run_options.delay_hook = opt.delay_hook;
  for (int k = 0; k < n; ++k)
    correction_solve_staged_exec<T>(
        dev, exec, &q, &rtop,
        std::span<const T>(residuals[static_cast<std::size_t>(k)]),
        &out[static_cast<std::size_t>(k)], m, c, tile);
  exec.run(dev);
  return out;
}

// Dry-run pricing of the batch's task graph: the modeled makespan over
// `lanes` execution lanes versus the serialized (one-lane) schedule.  The
// declared launches are identical to the functional batch, so dev
// accumulates the same modeled kernel/transfer totals either way.
template <class T>
device::MakespanResult batch_correction_solves_dry(device::Device& dev,
                                                   int solves, int m, int c,
                                                   int tile, int lanes) {
  assert(dev.mode() == device::ExecMode::dry_run);
  device::TaskGraph g;
  device::GraphExec exec(g);
  for (int k = 0; k < solves; ++k)
    correction_solve_staged_exec<T>(dev, exec, nullptr, nullptr,
                                    std::span<const T>{}, nullptr, m, c,
                                    tile);
  exec.run(dev);  // dry: appends the phase barrier, keeps the graph
  return device::dag_makespan(g, {1, lanes});
}

}  // namespace mdlsq::core
