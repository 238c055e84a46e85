// Unbounded multi-producer multi-consumer queue used for PE mailboxes in the
// multi-threaded engine.
//
// A mutex+condvar design is deliberately chosen over a lock-free ring: PE
// mailboxes in this system carry coarse task messages (hundreds of ns of work
// each), so queue overhead is not the bottleneck, and blocking pop with
// shutdown semantics keeps the engine simple and correct.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

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

  // Push a whole batch under one lock; `items` is consumed. Returns the
  // queue depth after the last element.
  std::size_t push_all(std::vector<T> items) {
    if (items.empty()) return 0;
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (T& item : items) q_.push_back(std::move(item));
      depth = q_.size();
      size_.store(depth, std::memory_order_relaxed);
    }
    cv_.notify_all();
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

  // Pop up to `max_n` items under one lock, appending to `out` in queue
  // order. Returns how many were taken (0 when empty).
  std::size_t pop_up_to(std::size_t max_n, std::vector<T>& out) {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    while (n < max_n && !q_.empty()) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
      ++n;
    }
    size_.store(q_.size(), std::memory_order_relaxed);
    return n;
  }

  // Timed blocking variant of pop_up_to: waits up to `timeout` for the queue
  // to become non-empty (or closed), then drains like pop_up_to. Lets an
  // idle consumer park on the condvar instead of spin-polling — on a
  // single-core host a polling loop steals the timeslice from the very
  // producer it is waiting on.
  template <typename Rep, typename Period>
  std::size_t pop_up_to_wait(std::size_t max_n, std::vector<T>& out,
                             std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, timeout, [&] { return !q_.empty() || closed_; });
    std::size_t n = 0;
    while (n < max_n && !q_.empty()) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
      ++n;
    }
    size_.store(q_.size(), std::memory_order_relaxed);
    return n;
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
  // Hot-path readers (backpressure probes, steal scans) poll peers' depths
  // constantly; taking the queue mutex for each probe would contend with
  // the owner's drain on the very queue being probed. Racy by design: a
  // stale read only mis-times a heuristic, never breaks queue correctness.
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
