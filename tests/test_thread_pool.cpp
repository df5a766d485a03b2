// util::ThreadPool — the substrate of the task-graph executor
// (DESIGN.md §5, §13; the executor's own contract is pinned in
// test_dag_scheduler.cpp).
//
// Regression coverage for the exception-propagation bug: a throwing job
// used to escape worker_loop() and terminate the process; now the first
// exception is captured via std::exception_ptr and rethrown at wait(),
// with the pool still usable afterwards.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "util/thread_pool.hpp"

using mdlsq::util::ThreadPool;

TEST(ThreadPool, ExceptionPropagatesToWait) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("kernel task failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, PoolStaysUsableAfterException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("first drain"); });
  EXPECT_THROW(pool.wait(), std::logic_error);

  // The error was consumed: the next drain starts clean and runs jobs.
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) pool.submit([&] { ++ran; });
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, OnlyFirstExceptionIsKept) {
  ThreadPool pool(1);  // one worker: deterministic job order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_NO_THROW(pool.wait());  // consumed, not sticky
}

TEST(ThreadPool, DestructionWithPendingExceptionDoesNotTerminate) {
  {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never observed"); });
    // No wait(): the destructor must swallow the captured exception.
  }
  SUCCEED();
}
