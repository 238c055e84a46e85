// Deterministic fault injection for the inter-PE message plane.
//
// The paper's model (and the seed implementation) assumes tasks <s,d>
// propagate over a perfectly reliable fabric. FaultPlane sits between a
// sender and the destination Mailbox and applies a seeded, per-PE-pair fault
// schedule to every message: drop, duplicate, reorder (hold the message back
// for a few subsequent sends on the same pair), and truncate-bytes. Each
// directed pair draws from its own Rng substream, so the decision sequence
// on a pair depends only on (seed, src, dst) and the order of sends on that
// pair — single-threaded send sequences replay byte-identically per seed
// (asserted by test_fault_plane), and multi-threaded runs keep per-pair
// determinism even though cross-pair interleaving is up to the scheduler.
//
// FaultPlane knows nothing about message contents or reliability; the
// recovery discipline lives one layer up (net/reliable_channel.h).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/ids.h"
#include "util/rng.h"

namespace dgr {

enum class FaultKind : std::uint8_t {
  kDrop = 0,   // message vanishes
  kDuplicate,  // delivered twice
  kReorder,    // held back, released after later sends on the pair
  kTruncate,   // delivered with a random-length prefix of its bytes
  kCount_,
};
inline constexpr std::size_t kNumFaultKinds =
    static_cast<std::size_t>(FaultKind::kCount_);
inline const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kCount_: break;
  }
  return "?";
}

// Per-pair fault probabilities, rolled independently per message in the
// fixed order drop → truncate → duplicate → reorder.
struct FaultSpec {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double truncate = 0.0;
  // A reordered message is released after 1..reorder_span subsequent sends
  // (including retransmissions) on the same pair.
  std::uint32_t reorder_span = 4;

  bool any() const {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || truncate > 0.0;
  }
};

struct FaultPlaneOptions {
  std::uint64_t seed = 1;
  FaultSpec spec;  // applied to every directed pair unless overridden
};

class FaultPlane {
 public:
  using Bytes = std::vector<std::uint8_t>;
  // Downstream delivery toward the destination, wired by MessagePlane
  // (runtime/message_plane.h): ThreadEngine pushes into the destination
  // PE's mailbox, WorkerEngine stages into its kData batch for dst.
  using DeliverFn = std::function<void(PeId src, PeId dst, Bytes msg)>;
  // Observability hook, called while a fault is injected: kind, sending and
  // receiving PE, and the affected message's size in bytes.
  using InjectHook =
      std::function<void(FaultKind, PeId src, PeId dst, std::size_t bytes)>;

  FaultPlane(std::uint32_t num_pes, FaultPlaneOptions opt, DeliverFn deliver);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  // Override the schedule for one directed pair. Call before traffic flows.
  void set_pair_spec(PeId src, PeId dst, FaultSpec spec);
  void set_inject_hook(InjectHook hook) { hook_ = std::move(hook); }

  // Apply the pair's fault schedule to `msg`: deliver 0, 1 or 2 copies now,
  // or hold it for release by later send() calls on the same pair.
  void send(PeId src, PeId dst, Bytes msg);

  // Release every held message immediately (shutdown / drain).
  void flush();

  struct Stats {
    std::uint64_t sent = 0;       // messages entering the plane
    std::uint64_t delivered = 0;  // copies leaving it (incl. duplicates)
    std::uint64_t injected[kNumFaultKinds] = {};
    std::uint64_t total_injected() const {
      std::uint64_t n = 0;
      for (std::uint64_t v : injected) n += v;
      return n;
    }
  };
  // Aggregate over all pairs (consistent only when traffic is quiescent).
  Stats stats() const;
  Stats pair_stats(PeId src, PeId dst) const;

  std::uint32_t num_pes() const { return num_pes_; }

 private:
  struct Held {
    std::uint32_t countdown;  // sends on this pair until release
    Bytes msg;
  };
  struct Pair {
    mutable std::mutex mu;
    Rng rng;
    FaultSpec spec;
    std::deque<Held> held;
    Stats stats;
  };
  Pair& pair(PeId src, PeId dst) {
    return *pairs_[static_cast<std::size_t>(src) * num_pes_ + dst];
  }
  const Pair& pair(PeId src, PeId dst) const {
    return *pairs_[static_cast<std::size_t>(src) * num_pes_ + dst];
  }
  void inject(Pair& p, FaultKind k, PeId src, PeId dst, std::size_t bytes);

  std::uint32_t num_pes_;
  DeliverFn deliver_;
  InjectHook hook_;
  std::vector<std::unique_ptr<Pair>> pairs_;
};

}  // namespace dgr
