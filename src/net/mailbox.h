// Per-PE mailbox for the threaded engine: serialized messages, each carrying
// some number of marking tasks.
//
// A message is a byte batch of tasks (net/frame.h) or a reliable-channel
// frame; the sender says how many tasks it carries. Every backlog figure the
// mailbox reports (pending, high-water) is in tasks, so it means the same
// thing whatever the batching.
//
// A mutex+condvar queue rather than a lock-free ring: messages are coarse
// (whole batches), so the queue is not the bottleneck, and a timed blocking
// drain with shutdown semantics keeps the engine simple.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace dgr {

class Mailbox {
 public:
  using Bytes = std::vector<std::uint8_t>;
  struct Msg {
    Bytes bytes;
    std::size_t tasks = 0;
  };

  void deliver(Bytes bytes, std::size_t tasks) {
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.push_back(Msg{std::move(bytes), tasks});
      tasks_ += tasks;
      depth = tasks_;
      pending_.store(depth, std::memory_order_relaxed);
    }
    cv_.notify_one();
    note_depth(depth);
  }

  // Pop whole messages, in delivery order, until at least `max_tasks` tasks
  // are taken or the mailbox is empty; appends to `out`. Returns the tasks
  // taken. The first message is always taken, however many tasks it holds.
  std::size_t drain(std::size_t max_tasks, std::vector<Msg>& out) {
    std::lock_guard<std::mutex> lk(mu_);
    return take(max_tasks, out);
  }

  // Like drain, but parks on the condvar for up to `timeout_us` when empty.
  // Idle PE threads use this instead of a yield loop.
  std::size_t drain_wait(std::size_t max_tasks, std::vector<Msg>& out,
                         std::uint64_t timeout_us) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::microseconds(timeout_us),
                 [&] { return !q_.empty() || closed_ || woken_; });
    woken_ = false;
    return take(max_tasks, out);
  }

  // End a drain_wait in progress (or the next one) early, empty-handed: a
  // PE parked on its mailbox then sees a pause request at once instead of
  // after its timeout.
  void wake() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      woken_ = true;
    }
    cv_.notify_all();
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  // Tasks waiting. Lock-free: idle peers poll it for steal scans, and the
  // owner (high water) and the watchdog (saturation) read it as a gauge; a
  // stale read only mis-times a heuristic.
  std::size_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

  // Deepest task backlog observed at delivery time.
  std::uint64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t take(std::size_t max_tasks, std::vector<Msg>& out) {
    std::size_t taken = 0;
    while (taken < max_tasks && !q_.empty()) {
      taken += q_.front().tasks;
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    tasks_ -= taken;
    pending_.store(tasks_, std::memory_order_relaxed);
    return taken;
  }

  // Racy-but-monotone high-water update: a stale read only under-reports,
  // which is fine for a gauge.
  void note_depth(std::size_t depth) {
    std::uint64_t hw = high_water_.load(std::memory_order_relaxed);
    while (depth > hw &&
           !high_water_.compare_exchange_weak(hw, depth,
                                              std::memory_order_relaxed)) {
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Msg> q_;
  std::size_t tasks_ = 0;  // guarded by mu_
  bool closed_ = false;
  bool woken_ = false;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> high_water_{0};
};

}  // namespace dgr
