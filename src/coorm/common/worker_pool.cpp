#include "coorm/common/worker_pool.hpp"

#include <algorithm>
#include <utility>

#include "coorm/common/check.hpp"

namespace coorm {

WorkerPool::WorkerPool(int threads) : threads_(std::max(threads, 1)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { workerMain(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::submit(std::function<void()> task) {
  COORM_CHECK(task != nullptr);
  pending_.push_back(std::move(task));
}

void WorkerPool::join() {
  // Move the batch out first so the pool is reusable (and consistent) even
  // when a task throws.
  std::vector<std::function<void()>> batch = std::move(pending_);
  pending_.clear();
  const std::function<void(std::size_t)> runner =
      [&batch](std::size_t i) { batch[i](); };
  runBatch(batch.size(), runner);
}

void WorkerPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& task) {
  runBatch(count, task);
}

void WorkerPool::runBatch(std::size_t count,
                          const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Serial pool (or trivial batch): run inline, in index order, with the
    // same contract as the pooled path — every task runs, the first
    // exception is rethrown after the batch.
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        if (error == nullptr) error = std::current_exception();
      }
    }
    if (error != nullptr) std::rethrow_exception(error);
    return;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  COORM_CHECK(task_ == nullptr);  // one batch at a time
  // Publication point: workers only read batch state between wake_ and the
  // activeWorkers_ decrement, and the previous join() waited for that to
  // drain, so rewriting the state here is safe.
  task_ = &task;
  total_ = count;
  next_ = 0;
  finished_ = 0;
  firstError_ = nullptr;
  ++generation_;
  wake_.notify_all();

  workShare(lock);  // the submitting thread is one of the lanes

  done_.wait(lock, [this] {
    return finished_ == total_ && activeWorkers_ == 0;
  });
  task_ = nullptr;
  if (firstError_ != nullptr) {
    std::exception_ptr error = std::exchange(firstError_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void WorkerPool::workShare(std::unique_lock<std::mutex>& lock) {
  const std::function<void(std::size_t)>* task = task_;
  while (next_ < total_) {
    const std::size_t index = next_++;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*task)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr && firstError_ == nullptr) {
      firstError_ = std::move(error);
    }
    ++finished_;
  }
}

void WorkerPool::workerMain() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    ++activeWorkers_;
    workShare(lock);
    --activeWorkers_;
    if (finished_ == total_ && activeWorkers_ == 0) done_.notify_one();
  }
}

}  // namespace coorm
