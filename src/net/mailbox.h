// Per-PE mailbox for the threaded engine: serialized task messages with
// traffic counters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/mpmc_queue.h"

namespace dgr {

class Mailbox {
 public:
  using Bytes = std::vector<std::uint8_t>;

  void deliver(Bytes msg) {
    bytes_in_.fetch_add(msg.size(), std::memory_order_relaxed);
    msgs_in_.fetch_add(1, std::memory_order_relaxed);
    // push() reports the post-push depth, so the gauge costs no second lock
    // acquisition; the CAS loop runs only on a new high-water (rare).
    note_depth(q_.push(std::move(msg)));
  }

  // Deliver a whole batch under one queue lock; counters and the high-water
  // gauge update once per batch instead of once per message.
  void deliver_batch(std::vector<Bytes> msgs) {
    if (msgs.empty()) return;
    std::uint64_t bytes = 0;
    for (const Bytes& m : msgs) bytes += m.size();
    bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
    msgs_in_.fetch_add(msgs.size(), std::memory_order_relaxed);
    note_depth(q_.push_all(std::move(msgs)));
  }

  std::optional<Bytes> try_receive() { return q_.try_pop(); }

  // Pop up to `max_n` pending messages under one queue lock, appending to
  // `out` in delivery order. Returns how many were taken.
  std::size_t drain(std::size_t max_n, std::vector<Bytes>& out) {
    return q_.pop_up_to(max_n, out);
  }

  // Like drain, but parks on the queue condvar for up to `timeout_us` when
  // empty. Idle PE threads use this instead of a yield loop.
  std::size_t drain_wait(std::size_t max_n, std::vector<Bytes>& out,
                         std::uint64_t timeout_us) {
    return q_.pop_up_to_wait(max_n, out, std::chrono::microseconds(timeout_us));
  }

  void close() { q_.close(); }
  std::size_t pending() const { return q_.size(); }

  std::uint64_t messages_received() const {
    return msgs_in_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_received() const {
    return bytes_in_.load(std::memory_order_relaxed);
  }
  // Deepest backlog observed at delivery time.
  std::uint64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  // Racy-but-monotone high-water update: a stale read only under-reports by
  // a message or two, which is fine for a gauge.
  void note_depth(std::size_t depth) {
    std::uint64_t hw = high_water_.load(std::memory_order_relaxed);
    while (depth > hw &&
           !high_water_.compare_exchange_weak(hw, depth,
                                              std::memory_order_relaxed)) {
    }
  }

  MpmcQueue<Bytes> q_;
  std::atomic<std::uint64_t> msgs_in_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> high_water_{0};
};

}  // namespace dgr
