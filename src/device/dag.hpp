// The task-DAG layer of the device simulator (DESIGN.md §13): a
// TaskGraph of priced launches with EXPLICIT event edges — the only way
// launches of the staged drivers execute on the host.  A trailing-update
// task may run while the next panel column factors, and a modeled
// transfer may overlap modeled compute, whenever the data dependencies
// allow it.
//
// Determinism is by construction, not by scheduling luck:
//   * every node's writes are disjoint from every concurrently-runnable
//     node's writes (the builders encode true dependencies as edges), and
//     each body keeps its fixed internal reduction order — so the memory
//     effects are bit-identical to a one-worker run regardless of
//     completion order;
//   * all launch bookkeeping (stage aggregates, analytic tallies, modeled
//     kernel_ms) happens at graph-BUILD time on one thread in program
//     order via Device::declare_deferred, so even the floating-point
//     accumulation order of the modeled times is width-independent;
//   * measured tallies are folded back per node in node-id (= program)
//     order after the run (device/dag_scheduler.hpp) — measured ==
//     analytic holds at any width.
//
// Edges point BACKWARD (to lower node ids) — enforced at add() — so a
// TaskGraph is acyclic by construction and both the scheduler and the
// makespan pricer can process nodes by id without cycle detection.
//
// dag_makespan() is the dry-run side: a deterministic list-scheduling
// simulation over the modeled costs, with per-device compute lanes plus a
// dedicated transfer lane per device (the double-buffered staging model:
// the wire is its own resource, so the transfer of chain k+1 overlaps the
// compute of chain k).  It returns the simulated makespan next to the
// serialized sum of all node costs (the one-lane schedule), so pricers
// can report the ratio directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "device/launch.hpp"

namespace mdlsq::device {

enum class TaskKind : std::uint8_t { kernel, transfer, host };

// One schedulable unit.  A tiled launch of ntasks becomes ntasks nodes
// sharing one declared launch (each carrying 1/ntasks of the modeled
// time); `device` selects the ready-queue shard / lane group — the
// DevicePool slot for batched graphs, 0 for single-device graphs.  `body`
// is empty in dry-run graphs (and for pure barrier nodes).  Nodes of a
// declared launch or transfer name it through `launch` and take their
// label from it; free-standing nodes carry their own.
struct TaskNode {
  std::string label;
  TaskKind kind = TaskKind::kernel;
  int device = 0;
  double modeled_ms = 0.0;
  int launch = -1;             // index into TaskGraph::launches(), or -1
  std::function<void()> body;  // runs on some worker; empty = no-op node
  std::vector<int> deps;       // node ids this node waits on (all < own id)
};

// One declared launch (kernel) or priced transfer whose tasks are the
// nodes [begin, end).  The scheduler folds those nodes' measured tallies
// into stage `stage_index` of `dev` and, under a live trace session,
// emits ONE span per record — the Cat::kernel / Cat::transfer view of the
// launch that Device::launch gives its own (DESIGN.md §12).
struct LaunchRecord {
  std::string name;
  TaskKind kind = TaskKind::kernel;
  int limbs = 0;
  double modeled_ms = 0.0;  // the whole launch's price
  std::int64_t bytes = 0;
  Device* dev = nullptr;    // device owning the stage (not owned)
  int stage_index = -1;     // measured-tally target; -1 = none
  int begin = 0;
  int end = 0;  // exclusive
};

// A contiguous range of node ids added by one launch site — the
// dependency handle the graph builders pass around.  An edge from a Wave
// means "after ALL of its nodes".  A default Wave is empty and
// contributes no edges, so builders can thread "previous iteration"
// handles without special-casing the first iteration.
struct Wave {
  int begin = 0;
  int end = 0;  // exclusive
  bool empty() const noexcept { return begin >= end; }
};

class TaskGraph {
 public:
  int add(TaskNode n) {
    const int id = static_cast<int>(nodes_.size());
    for (const int d : n.deps) {
      if (d < 0 || d >= id)
        throw std::invalid_argument(
            "mdlsq: TaskGraph edges must point to earlier nodes");
      ++outdeg_[static_cast<std::size_t>(d)];
    }
    nodes_.push_back(std::move(n));
    outdeg_.push_back(0);
    return id;
  }

  // Registers a launch record; its nodes are added next and name it.
  int add_launch(LaunchRecord r) {
    launches_.push_back(std::move(r));
    return static_cast<int>(launches_.size()) - 1;
  }

  int size() const noexcept { return static_cast<int>(nodes_.size()); }
  bool empty() const noexcept { return nodes_.empty(); }
  std::vector<TaskNode>& nodes() noexcept { return nodes_; }
  const std::vector<TaskNode>& nodes() const noexcept { return nodes_; }
  std::vector<LaunchRecord>& launches() noexcept { return launches_; }
  const std::vector<LaunchRecord>& launches() const noexcept {
    return launches_;
  }

  // The name a node's spans carry: its launch's, else its own label.
  const std::string& label_of(int node) const noexcept {
    const TaskNode& n = nodes_[static_cast<std::size_t>(node)];
    return n.launch >= 0 ? launches_[static_cast<std::size_t>(n.launch)].name
                         : n.label;
  }

  // Current sinks — nodes nothing depends on yet.  A phase barrier
  // depends on exactly these.
  std::vector<int> sinks() const {
    std::vector<int> out;
    for (int i = 0; i < size(); ++i)
      if (outdeg_[static_cast<std::size_t>(i)] == 0) out.push_back(i);
    return out;
  }

  void clear() noexcept {
    nodes_.clear();
    outdeg_.clear();
    launches_.clear();
  }

  // Flatten dependency handles into a node's edge list.
  static void collect(std::vector<int>& out,
                      std::initializer_list<Wave> deps) {
    for (const Wave& w : deps)
      for (int i = w.begin; i < w.end; ++i) out.push_back(i);
  }

 private:
  std::vector<TaskNode> nodes_;
  std::vector<int> outdeg_;
  std::vector<LaunchRecord> launches_;
};

// Longest modeled path from each node to a sink (the node's own cost
// included) — the critical-path rank both the makespan simulation and the
// event-driven scheduler order ready queues by.  Edges point backward, so
// one reverse-id sweep suffices.
inline std::vector<double> critical_ranks(const TaskGraph& g) {
  const auto& nodes = g.nodes();
  const int n = g.size();
  std::vector<double> rank(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i)
    rank[static_cast<std::size_t>(i)] = nodes[static_cast<std::size_t>(i)].modeled_ms;
  for (int i = n - 1; i >= 0; --i) {
    const double through =
        rank[static_cast<std::size_t>(i)];
    for (const int d : nodes[static_cast<std::size_t>(i)].deps) {
      const double cand = nodes[static_cast<std::size_t>(d)].modeled_ms + through;
      if (cand > rank[static_cast<std::size_t>(d)])
        rank[static_cast<std::size_t>(d)] = cand;
    }
  }
  return rank;
}

struct MakespanOptions {
  int devices = 1;           // lane groups (>= 1 + max node.device expected)
  int lanes_per_device = 1;  // concurrent compute streams per device
};

struct MakespanResult {
  double makespan_ms = 0.0;       // simulated DAG schedule length
  double serialized_ms = 0.0;     // sum of all node costs (one lane)
  double critical_path_ms = 0.0;  // longest dependency chain (lower bound)
};

// Deterministic list scheduling over the modeled costs: among ready nodes
// pick the one that can start earliest (ties: higher critical rank, then
// lower id); each device owns `lanes_per_device` compute lanes plus one
// transfer lane, so transfer nodes overlap kernel nodes of the same
// device.  Host nodes cost their modeled_ms (normally 0) on a compute
// lane.  Pure simulation — no body runs, no Device state changes.
inline MakespanResult dag_makespan(const TaskGraph& g,
                                   MakespanOptions opt = {}) {
  if (opt.devices < 1 || opt.lanes_per_device < 1)
    throw std::invalid_argument(
        "mdlsq: dag_makespan needs >= 1 device and >= 1 lane");
  const auto& nodes = g.nodes();
  const int n = g.size();
  MakespanResult out;
  if (n == 0) return out;

  const std::vector<double> rank = critical_ranks(g);
  for (int i = 0; i < n; ++i) {
    out.serialized_ms += nodes[static_cast<std::size_t>(i)].modeled_ms;
    out.critical_path_ms =
        std::max(out.critical_path_ms, rank[static_cast<std::size_t>(i)]);
  }

  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    indeg[static_cast<std::size_t>(i)] =
        static_cast<int>(nodes[static_cast<std::size_t>(i)].deps.size());
    for (const int d : nodes[static_cast<std::size_t>(i)].deps)
      succ[static_cast<std::size_t>(d)].push_back(i);
  }

  // lane_free[device][lane]: lanes [0, lanes_per_device) are compute, the
  // last one is the transfer wire.
  const int lanes = opt.lanes_per_device + 1;
  std::vector<double> lane_free(
      static_cast<std::size_t>(opt.devices * lanes), 0.0);
  std::vector<double> ready_at(static_cast<std::size_t>(n), 0.0);
  std::vector<int> ready;
  for (int i = 0; i < n; ++i)
    if (indeg[static_cast<std::size_t>(i)] == 0) ready.push_back(i);

  int scheduled = 0;
  while (scheduled < n) {
    if (ready.empty())
      throw std::logic_error("mdlsq: dag_makespan: graph is not connected");
    // Pick the ready node with the earliest feasible start.
    int best = -1, best_lane = -1;
    double best_start = 0.0;
    for (const int id : ready) {
      const TaskNode& nd = nodes[static_cast<std::size_t>(id)];
      const int dv = nd.device % opt.devices;
      const int lo = dv * lanes +
                     (nd.kind == TaskKind::transfer ? opt.lanes_per_device : 0);
      const int hi = nd.kind == TaskKind::transfer
                         ? lo + 1
                         : dv * lanes + opt.lanes_per_device;
      for (int ln = lo; ln < hi; ++ln) {
        const double start = std::max(ready_at[static_cast<std::size_t>(id)],
                                      lane_free[static_cast<std::size_t>(ln)]);
        const bool wins =
            best < 0 || start < best_start ||
            (start == best_start &&
             (rank[static_cast<std::size_t>(id)] >
                  rank[static_cast<std::size_t>(best)] ||
              (rank[static_cast<std::size_t>(id)] ==
                   rank[static_cast<std::size_t>(best)] &&
               id < best)));
        if (wins) {
          best = id;
          best_lane = ln;
          best_start = start;
        }
      }
    }
    const TaskNode& nd = nodes[static_cast<std::size_t>(best)];
    const double finish = best_start + nd.modeled_ms;
    lane_free[static_cast<std::size_t>(best_lane)] = finish;
    out.makespan_ms = std::max(out.makespan_ms, finish);
    ready.erase(std::find(ready.begin(), ready.end(), best));
    ++scheduled;
    for (const int s : succ[static_cast<std::size_t>(best)]) {
      ready_at[static_cast<std::size_t>(s)] =
          std::max(ready_at[static_cast<std::size_t>(s)], finish);
      if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
    }
  }
  return out;
}

}  // namespace mdlsq::device
