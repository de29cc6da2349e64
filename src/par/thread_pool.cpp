#include "par/thread_pool.hpp"

#include <utility>

namespace lcmm::par {

ThreadPool::ThreadPool(int num_threads) { ensure_threads(num_threads); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::ensure_threads(int num_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(threads_.size()) < num_threads) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

int ThreadPool::num_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(threads_.size());
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace lcmm::par
