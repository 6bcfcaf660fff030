// thread_pool.hpp — a fixed-size worker pool with caller-runs waits.
//
// Sparklet executors schedule tasks onto one shared pool; the *virtual*
// cluster topology (executors × cores) is tracked separately by the
// scheduler's VirtualTimeline, so correctness never depends on the physical
// core count of the host.
//
// Jobs are posted fire-and-forget. A launcher may drain the queue itself
// (try_run_one) before it parks; that helping wait may run any queued job, so
// it is sound only while the pool has one set in flight: a SparkContext
// launches one task set at a time on its own pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace gs {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads) {
    GS_CHECK(num_threads > 0);
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueue a job and wake one idle worker. A job must not throw: one that
  /// can fail captures its error and hands it to whoever waits for it.
  void post(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      GS_CHECK_MSG(!stopping_, "post() after shutdown");
      queue_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  /// Run the oldest queued job on the calling thread. Returns false, having
  /// run nothing, when the queue is empty.
  bool try_run_one() {
    std::function<void()> job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) return false;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
    return true;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Run fn(i) for i in [0, n) across the pool and wait for completion; the
/// caller is woken once, by the last index to finish. Every index runs even
/// after one throws; the error of the lowest throwing index is rethrown on
/// the calling thread.
template <typename F>
void parallel_for(ThreadPool& pool, std::size_t n, F&& fn) {
  if (n == 0) return;
  struct Set {
    std::remove_reference_t<F>* fn = nullptr;
    std::size_t left = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  } set;
  set.fn = &fn;
  set.left = n;
  for (std::size_t i = 0; i < n; ++i) {
    pool.post([s = &set, i] {
      std::exception_ptr failure;
      try {
        (*s->fn)(i);
      } catch (...) {
        failure = std::current_exception();
      }
      // Notify under the lock: the waiter may destroy `set` the moment it
      // observes left == 0.
      std::lock_guard<std::mutex> lock(s->mu);
      if (failure && i < s->error_index) {
        s->error_index = i;
        s->error = failure;
      }
      if (--s->left == 0) s->cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(set.mu);
  set.cv.wait(lock, [&set] { return set.left == 0; });
  if (set.error) std::rethrow_exception(set.error);
}

}  // namespace gs
