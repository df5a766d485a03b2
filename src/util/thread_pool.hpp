// A minimal fixed-size host thread pool — the substrate of the task-graph
// executor (device/dag_scheduler.hpp): submit void() jobs, then wait()
// for the queue to drain.
//
// Exception safety: a throwing job no longer terminates the process.  The
// worker captures the first exception via std::exception_ptr and wait()
// rethrows it after the queue drains (later exceptions of the same drain
// are dropped; the pool stays usable).  An exception still pending at
// destruction is swallowed — destructors must not throw — so drivers that
// care must wait() before the pool dies.
//
// The batched drivers size one pool per call for their problem-level
// graph workers; a second, shared pool lends helpers to each problem's
// launch graphs (Device::set_parallelism).  Results are bitwise
// independent of either width because problems never share mutable
// state (DESIGN.md §2) and tile tasks write disjoint blocks (DESIGN.md §5).
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace mdlsq::util {

class ThreadPool {
 public:
  explicit ThreadPool(int workers) {
    if (workers < 1) workers = 1;
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
      threads_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  int size() const noexcept { return static_cast<int>(threads_.size()); }

  void submit(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
      ++pending_;
    }
    cv_.notify_one();
  }

  // Blocks until every submitted job has finished running, then rethrows
  // the first exception any of them raised (if one did).
  void wait() {
    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> lock(mu_);
      idle_cv_.wait(lock, [this] { return pending_ == 0; });
      err = std::exchange(first_error_, nullptr);
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stopping_ and drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      try {
        job();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;       // work available / stopping
  std::condition_variable idle_cv_;  // all submitted work done
  std::deque<std::function<void()>> jobs_;
  std::vector<std::thread> threads_;
  std::exception_ptr first_error_;
  int pending_ = 0;
  bool stopping_ = false;
};

}  // namespace mdlsq::util
