// Unbounded multi-producer multi-consumer queue (the socket hub's per-
// connection writer queues).
//
// A mutex+condvar design is deliberately chosen over a lock-free ring: the
// items are whole frames, so queue overhead is not the bottleneck, and
// blocking pop with shutdown semantics keeps the users simple and correct.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace dgr {

template <typename T>
class MpmcQueue {
 public:
  // Returns the queue depth immediately after the push, so callers tracking
  // a high-water gauge need no second lock acquisition.
  std::size_t push(T item) {
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.push_back(std::move(item));
      depth = q_.size();
      size_.store(depth, std::memory_order_relaxed);
    }
    cv_.notify_one();
    return depth;
  }

  // Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (q_.empty()) return std::nullopt;
    T item = std::move(q_.front());
    q_.pop_front();
    size_.store(q_.size(), std::memory_order_relaxed);
    return item;
  }

  // Blocking pop; returns nullopt once the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return std::nullopt;
    T item = std::move(q_.front());
    q_.pop_front();
    size_.store(q_.size(), std::memory_order_relaxed);
    return item;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  // Lock-free depth gauge, maintained by every push/pop under the lock.
  // Racy by design: a stale read never breaks queue correctness.
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> q_;
  std::atomic<std::size_t> size_{0};
  bool closed_ = false;
};

}  // namespace dgr
