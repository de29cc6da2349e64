// Fixed-size worker pool backing the lcmm::par primitives.
//
// The pool owns plain std::threads that drain a FIFO task queue. Nesting
// parallel constructs cannot deadlock: parallel_for's calling thread
// drains its own indices and waits only for helpers that are already
// running, never for a queued one (see parallel_for.hpp for the
// determinism contract).
//
// A process-global pool (ThreadPool::global()) is created lazily and grown
// on demand up to the largest worker count any parallel_for has asked for;
// once spawned, threads live until process exit.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lcmm::par {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 0).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (parallel_for captures
  /// exceptions before they reach the pool).
  void submit(std::function<void()> task);

  /// Grows the pool to at least `num_threads` workers.
  void ensure_threads(int num_threads);

  int num_threads() const;

  /// The shared process-wide pool. Starts empty; parallel_for grows it to
  /// the worker counts it needs.
  static ThreadPool& global();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
};

}  // namespace lcmm::par
