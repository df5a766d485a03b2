// Event-driven execution of a TaskGraph (DESIGN.md §13) on the existing
// util::ThreadPool: per-device ready queues ordered by critical-path
// rank, work stealing between DevicePool shards, and condition-variable
// wakeups — no barrier between waves, a node runs the moment its last
// dependency completes and a worker is free.  With one worker the caller
// simply runs the nodes in node-id (program) order.  It is the one host
// executor: every staged driver runs its launches through GraphExec
// below, and Device::launch is left only for single-body launches.
//
// The run changes NOTHING about results or accounting relative to a
// one-worker run of the same graph:
//   * bodies write disjoint state (the graph builders encode every true
//     dependency as an edge), so any completion order leaves the same
//     bits;
//   * each node's multiple-double ops are counted into a private tally,
//     and after the join the tallies are folded into their Device stages
//     in node-id (= declaration/program) order, so measured == analytic
//     exactly;
//   * all declared bookkeeping already happened at build time
//     (Device::declare_deferred), single-threaded, in program order.
//
// Error discipline: each node's exception is captured, later bodies are
// skipped (their nodes still "complete" so the graph drains), and after
// the join the LOWEST-node-id exception is rethrown — deterministic even
// when several tasks fail concurrently.
//
// Instrumentation (obs): per-node execution spans (Cat::sched) carrying
// the modeled price, "dag wait" spans from ready-time to start (queue
// latency), instant "dag steal" markers, one "dag occupancy" span per
// device shard summarizing its busy time over the run — and one
// Cat::kernel / Cat::transfer span per declared launch or transfer,
// covering its nodes from the first start to the last end, so the trace
// keeps one kernel span per Device launch at every width.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <latch>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "device/dag.hpp"
#include "device/launch.hpp"
#include "md/op_counts.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::device {

struct DagRunOptions {
  util::ThreadPool* pool = nullptr;  // helper workers (caller always works)
  int width = 1;                     // concurrent workers incl. the caller
  int devices = 1;                   // ready-queue shards (DevicePool slots)
  // Test hook: called before a node's body on its executing worker.  The
  // determinism stress test injects randomized sleeps here to scramble
  // completion order.
  std::function<void(int node, int worker)> delay_hook;
};

struct DagRunStats {
  std::int64_t executed = 0;
  std::int64_t steals = 0;  // nodes taken from a non-home device queue
};

namespace detail {

// What one run_graph() call records per node, whichever path runs it:
// the measured tally, the exception (if the body threw) and, under a
// live trace session, the node's run interval.
struct NodeRecords {
  NodeRecords(int n, bool traced)
      : tallies(static_cast<std::size_t>(n)),
        errs(static_cast<std::size_t>(n)),
        start_ns(traced ? static_cast<std::size_t>(n) : 0),
        end_ns(traced ? static_cast<std::size_t>(n) : 0) {}

  bool traced() const noexcept { return !start_ns.empty(); }

  // Runs node `id`'s body (unless an earlier body failed) inside its
  // Cat::sched span, counting its md ops into the node's own tally.
  void execute(TaskGraph& g, int id) {
    TaskNode& nd = g.nodes()[static_cast<std::size_t>(id)];
    const std::int64_t t0 = traced() ? obs::now_ns() : 0;
    {
      obs::Span span(g.label_of(id), obs::Cat::sched);
      span.set_modeled_ms(nd.modeled_ms);
      if (nd.body && !failed.load(std::memory_order_relaxed)) {
        try {
          md::ScopedTally scope(tallies[static_cast<std::size_t>(id)]);
          nd.body();
        } catch (...) {
          errs[static_cast<std::size_t>(id)] = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    }
    if (traced()) {
      start_ns[static_cast<std::size_t>(id)] = t0;
      end_ns[static_cast<std::size_t>(id)] = obs::now_ns();
    }
  }

  std::vector<md::OpTally> tallies;
  std::vector<std::exception_ptr> errs;
  std::vector<std::int64_t> start_ns, end_ns;  // traced runs only
  std::atomic<bool> failed{false};  // later bodies are skipped
};

// Shared state of one scheduled (multi-worker) run.  All mutation of the
// scheduling structures happens under `mu`; bodies run outside it.
struct DagRunState {
  DagRunState(TaskGraph& graph, const DagRunOptions& options,
              NodeRecords& records)
      : g(graph), opt(options), rec(records) {
    const int n = g.size();
    const std::size_t un = static_cast<std::size_t>(n);
    rank = critical_ranks(g);
    indeg.resize(un);
    succ.resize(un);
    if (rec.traced()) ready_ns.assign(un, 0);
    queues.resize(static_cast<std::size_t>(std::max(1, opt.devices)));
    remaining = n;
    const std::int64_t t0 = rec.traced() ? obs::now_ns() : 0;
    for (int i = 0; i < n; ++i) {
      const TaskNode& nd = g.nodes()[static_cast<std::size_t>(i)];
      indeg[static_cast<std::size_t>(i)] = static_cast<int>(nd.deps.size());
      for (const int d : nd.deps) succ[static_cast<std::size_t>(d)].push_back(i);
      if (nd.deps.empty()) {
        if (rec.traced()) ready_ns[static_cast<std::size_t>(i)] = t0;
        push_ready(i);
      }
    }
  }

  int shard_of(int node) const noexcept {
    return g.nodes()[static_cast<std::size_t>(node)].device %
           static_cast<int>(queues.size());
  }

  // Ready queues are kept sorted worst-rank-last so pop_back() yields the
  // most critical node; ties break toward the LOWEST id (program order).
  void push_ready(int node) {
    auto& q = queues[static_cast<std::size_t>(shard_of(node))];
    auto it = std::lower_bound(
        q.begin(), q.end(), node, [&](int a, int b) {
          const double ra = rank[static_cast<std::size_t>(a)];
          const double rb = rank[static_cast<std::size_t>(b)];
          if (ra != rb) return ra < rb;
          return a > b;
        });
    q.insert(it, node);
  }

  // Home queue first, then a deterministic steal scan over the others.
  int pop_task(int worker, bool* stolen) {
    const int shards = static_cast<int>(queues.size());
    const int home = worker % shards;
    for (int k = 0; k < shards; ++k) {
      auto& q = queues[static_cast<std::size_t>((home + k) % shards)];
      if (!q.empty()) {
        const int id = q.back();
        q.pop_back();
        *stolen = k != 0;
        return id;
      }
    }
    *stolen = false;
    return -1;
  }

  TaskGraph& g;
  const DagRunOptions& opt;
  NodeRecords& rec;
  std::vector<double> rank;
  std::vector<int> indeg;
  std::vector<std::vector<int>> succ;
  std::vector<std::vector<int>> queues;  // per-shard ready lists
  std::vector<std::int64_t> ready_ns;  // when the node became ready (traced)
  std::mutex mu;
  std::condition_variable cv;
  int remaining = 0;
  std::atomic<std::int64_t> steals{0};
};

inline void dag_worker(DagRunState& st, int worker) {
  std::unique_lock<std::mutex> lk(st.mu);
  for (;;) {
    if (st.remaining == 0) return;
    bool stolen = false;
    const int id = st.pop_task(worker, &stolen);
    if (id < 0) {
      st.cv.wait(lk);
      continue;
    }
    lk.unlock();

    if (st.rec.traced()) {
      const std::int64_t t = obs::now_ns();
      if (stolen) obs::emit_span("dag steal", obs::Cat::sched, t, t);
      const std::int64_t r = st.ready_ns[static_cast<std::size_t>(id)];
      if (r > 0 && t > r) obs::emit_span("dag wait", obs::Cat::sched, r, t);
    }
    if (stolen) st.steals.fetch_add(1, std::memory_order_relaxed);
    if (st.opt.delay_hook) st.opt.delay_hook(id, worker);
    st.rec.execute(st.g, id);

    lk.lock();
    --st.remaining;
    bool woke = st.remaining == 0;
    for (const int s : st.succ[static_cast<std::size_t>(id)]) {
      auto& deg = st.indeg[static_cast<std::size_t>(s)];
      if (--deg == 0) {
        if (st.rec.traced())
          st.ready_ns[static_cast<std::size_t>(s)] =
              st.rec.end_ns[static_cast<std::size_t>(id)];
        st.push_ready(s);
        woke = true;
      }
    }
    if (woke) st.cv.notify_all();
  }
}

}  // namespace detail

// Executes every node of `g`, honoring its edges, then folds the per-node
// measured tallies into their Device stages in node-id order.  The caller
// thread participates as worker 0; up to width-1 pool workers join it
// (never more than the graph has other nodes).  With no helper (no pool,
// or width <= 1) the caller runs the nodes in node-id order: edges point
// backward, so program order is a valid schedule and needs no queues —
// the width-1 run every wider run must match bit for bit.
inline DagRunStats run_graph(TaskGraph& g, const DagRunOptions& opt = {}) {
  DagRunStats out;
  if (g.empty()) return out;
  const int n = g.size();
  detail::NodeRecords rec(n, obs::current_session() != nullptr);

  const int helpers =
      opt.pool != nullptr && opt.width > 1
          ? std::min({opt.width - 1, static_cast<int>(opt.pool->size()),
                      n - 1})
          : 0;
  const std::int64_t run_start = rec.traced() ? obs::now_ns() : 0;
  std::exception_ptr infra_err;
  if (helpers == 0) {
    for (int id = 0; id < n; ++id) {
      if (opt.delay_hook) opt.delay_hook(id, 0);
      rec.execute(g, id);
    }
  } else {
    detail::DagRunState st(g, opt, rec);
    std::mutex infra_mu;
    // Every helper that was actually submitted counts the latch down; a
    // submit failure (allocation) counts down the never-submitted rest so
    // the join below can never dangle the stack state (st, the latch) a
    // running helper still references, and the error surfaces after the
    // join.  The caller drains the graph alone if no helper started.
    std::latch joined(helpers);
    int submitted = 0;
    try {
      for (; submitted < helpers; ++submitted)
        opt.pool->submit([&st, &joined, &infra_err, &infra_mu, submitted] {
          try {
            detail::dag_worker(st, submitted + 1);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(infra_mu);
            if (!infra_err) infra_err = std::current_exception();
          }
          joined.count_down();
        });
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(infra_mu);
        if (!infra_err) infra_err = std::current_exception();
      }
      for (int h = submitted; h < helpers; ++h) joined.count_down();
    }
    detail::dag_worker(st, 0);
    joined.wait();
    out.steals = st.steals.load(std::memory_order_relaxed);
  }

  // Deterministic error report: the lowest-id failure wins; scheduler
  // infrastructure failures (submit) come after every node error.
  for (const auto& e : rec.errs)
    if (e) std::rethrow_exception(e);
  if (infra_err) std::rethrow_exception(infra_err);

  // Fold measured tallies in node-id (= program) order.
  for (int i = 0; i < n; ++i) {
    const int l = g.nodes()[static_cast<std::size_t>(i)].launch;
    if (l < 0) continue;
    const LaunchRecord& r = g.launches()[static_cast<std::size_t>(l)];
    if (r.dev != nullptr && r.stage_index >= 0)
      r.dev->record_measured(r.stage_index,
                             rec.tallies[static_cast<std::size_t>(i)]);
  }

  if (rec.traced()) {
    // One span per declared launch / transfer, from its first node's
    // start to its last node's end.
    for (const LaunchRecord& r : g.launches()) {
      if (r.begin >= r.end) continue;
      std::int64_t t0 = rec.start_ns[static_cast<std::size_t>(r.begin)];
      std::int64_t t1 = rec.end_ns[static_cast<std::size_t>(r.begin)];
      for (int i = r.begin + 1; i < r.end; ++i) {
        t0 = std::min(t0, rec.start_ns[static_cast<std::size_t>(i)]);
        t1 = std::max(t1, rec.end_ns[static_cast<std::size_t>(i)]);
      }
      obs::emit_span(r.name,
                     r.kind == TaskKind::transfer ? obs::Cat::transfer
                                                  : obs::Cat::kernel,
                     t0, t1, r.limbs, r.modeled_ms, r.bytes);
    }
    // Busy time per device shard over the run.
    std::vector<std::int64_t> busy_ns(
        static_cast<std::size_t>(std::max(1, opt.devices)), 0);
    for (int i = 0; i < n; ++i)
      busy_ns[static_cast<std::size_t>(
          g.nodes()[static_cast<std::size_t>(i)].device %
          static_cast<int>(busy_ns.size()))] +=
          rec.end_ns[static_cast<std::size_t>(i)] -
          rec.start_ns[static_cast<std::size_t>(i)];
    const std::int64_t run_end = obs::now_ns();
    for (std::size_t d = 0; d < busy_ns.size(); ++d)
      obs::emit_span("dag occupancy d" + std::to_string(d), obs::Cat::sched,
                     run_start, run_end, 0,
                     static_cast<double>(busy_ns[d]) / 1e6);
  }

  out.executed = n;
  return out;
}

// The executor every staged driver (core/) issues its launches through.
// Every launch is DECLARED immediately (stage stats, analytic tally,
// modeled ms — program order, one thread, bit-identical bookkeeping at
// any width).  On a functional device the body becomes task nodes and
// run() executes the accumulated graph event-driven.
//
// Phases: a driver calls run() where all launches issued so far must have
// completed (end of the QR factorization, end of the finish pipeline).
// That executes and clears the graph — the driver's scratch buffers are
// still alive, since run() happens inside it.
//
// Dry-run walks only declare: no node is built, so pricing a schedule
// costs what the declarations cost (the service prices every admitted
// job this way).  The exception is a makespan pricer, which hands the
// executor a graph to fill: then every launch also becomes body-less
// nodes there, run() inserts a zero-cost barrier node instead of
// executing, and the caller prices the accumulated schedule with
// dag_makespan().
class GraphExec {
 public:
  GraphExec() = default;
  explicit GraphExec(TaskGraph& makespan) : priced_(&makespan) {}

  // Scheduling knobs for run(); pool/width default to the Device's
  // attached engine when left null.
  DagRunOptions run_options;

  template <class F>
  Wave launch(Device& dev, std::string_view stage, int blocks, int threads,
              const md::OpTally& ops, std::int64_t bytes,
              const md::OpTally& serial, std::initializer_list<Wave> deps,
              F&& body) {
    const Device::DeferredLaunch d =
        dev.declare_deferred(stage, blocks, threads, ops, bytes, serial);
    TaskGraph* g = target(dev);
    if (g == nullptr) return {};
    const int l = begin_launch(*g, dev, stage, TaskKind::kernel, d, bytes);
    TaskNode n = task(l, TaskKind::kernel, d.kernel_ms, deps);
    if (dev.functional()) n.body = std::forward<F>(body);
    g->add(std::move(n));
    return end_launch(*g, l);
  }

  // A launch whose body is partitioned into `ntasks` independent tasks:
  // body(t) for t in [0, ntasks), one node each, all with the launch's
  // edges.  Tasks must write disjoint state (the caller's tiling
  // guarantees it).
  template <class F>
  Wave launch_tiled(Device& dev, std::string_view stage, int blocks,
                    int threads, const md::OpTally& ops, std::int64_t bytes,
                    const md::OpTally& serial, int ntasks,
                    std::initializer_list<Wave> deps, F&& body) {
    const Device::DeferredLaunch d =
        dev.declare_deferred(stage, blocks, threads, ops, bytes, serial);
    TaskGraph* g = target(dev);
    if (g == nullptr) return {};
    const int l = begin_launch(*g, dev, stage, TaskKind::kernel, d, bytes);
    for (int t = 0; t < ntasks; ++t) {
      TaskNode n = task(l, TaskKind::kernel, d.kernel_ms / ntasks, deps);
      if (dev.functional()) n.body = [body, t] { body(t); };
      g->add(std::move(n));
    }
    return end_launch(*g, l);
  }

  // Host-side bookkeeping between launches (e.g. zeroing a scratch
  // accumulator) — free in the device model, runs only functionally.
  Wave host(Device& dev, std::string_view label,
            std::initializer_list<Wave> deps, std::function<void()> body) {
    TaskGraph* g = target(dev);
    if (g == nullptr) return {};
    TaskNode n = task(-1, TaskKind::host, 0.0, deps);
    n.label = std::string(label);
    if (dev.functional()) n.body = std::move(body);
    const int id = g->add(std::move(n));
    return {id, id + 1};
  }

  // A priced host<->device transfer: recorded on the device at once (the
  // wall-clock model) and, in a graph, a node on the transfer lane.
  Wave transfer_node(Device& dev, std::string_view label, std::int64_t bytes,
                     std::initializer_list<Wave> deps,
                     std::function<void()> body = {}) {
    dev.transfer(bytes);
    TaskGraph* g = target(dev);
    if (g == nullptr) return {};
    const double ms = dev.transfer_ms(bytes);
    const int l =
        begin_launch(*g, dev, label, TaskKind::transfer, {-1, ms}, bytes);
    TaskNode n = task(l, TaskKind::transfer, ms, deps);
    if (dev.functional()) n.body = std::move(body);
    g->add(std::move(n));
    return end_launch(*g, l);
  }

  void run(Device& dev) {
    if (dev.functional()) {
      if (graph_.empty()) return;
      DagRunOptions o = run_options;
      if (o.pool == nullptr) {
        o.pool = dev.task_pool();
        o.width = dev.parallelism();
      }
      // Cleared even when a node throws: the bodies reference the
      // driver's frame, which the exception is about to unwind.
      struct Clear {
        TaskGraph& g;
        ~Clear() { g.clear(); }
      } clear{graph_};
      run_graph(graph_, o);
    } else if (priced_ != nullptr && !priced_->empty()) {
      // Makespan pricing: keep accumulating; later nodes order after
      // this phase.
      TaskNode b;
      b.label = "phase barrier";
      b.kind = TaskKind::host;
      b.deps = priced_->sinks();
      barrier_ = priced_->add(std::move(b));
    }
  }

 private:
  TaskGraph* target(Device& dev) noexcept {
    return dev.functional() ? &graph_ : priced_;
  }

  static int begin_launch(TaskGraph& g, Device& dev, std::string_view name,
                          TaskKind kind, Device::DeferredLaunch d,
                          std::int64_t bytes) {
    LaunchRecord r;
    r.name = std::string(name);
    r.kind = kind;
    r.limbs = md::limbs_of(dev.precision());
    r.modeled_ms = d.kernel_ms;
    r.bytes = bytes;
    r.dev = &dev;
    r.stage_index = d.stage_index;
    r.begin = g.size();
    r.end = r.begin;
    return g.add_launch(std::move(r));
  }

  static Wave end_launch(TaskGraph& g, int launch) {
    LaunchRecord& r = g.launches()[static_cast<std::size_t>(launch)];
    r.end = g.size();
    return {r.begin, r.end};
  }

  TaskNode task(int launch, TaskKind kind, double ms,
                std::initializer_list<Wave> deps) const {
    TaskNode n;
    n.kind = kind;
    n.modeled_ms = ms;
    n.launch = launch;
    collect(n.deps, deps);
    return n;
  }

  void collect(std::vector<int>& out, std::initializer_list<Wave> deps) const {
    if (barrier_ >= 0) out.push_back(barrier_);
    TaskGraph::collect(out, deps);
  }

  TaskGraph graph_;             // the functional phase being built
  TaskGraph* priced_ = nullptr;  // a makespan pricer's dry graph, if any
  int barrier_ = -1;             // last phase barrier of priced_
};

}  // namespace mdlsq::device
