// Per-PE metrics registry — the only source of runtime counters and
// histograms on every engine (sim, threaded, and the worker processes whose
// deltas ProcEngine merges). Read totals with total(Counter::k...).
//
// Design: one cache-line-aligned slot per PE holding relaxed atomic counters
// plus log-bucketed histograms behind a per-slot spinlock. Increments are a
// single relaxed fetch_add on the owner's line — no shared lock, no false
// sharing between PEs — so the registry is cheap enough to stay enabled in
// benches (the observability prerequisite for optimizing what we measure).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/stats.h"

namespace dgr::obs {

// Counter identities. Attribution convention: task counters are charged to
// the PE that executed the task; message counters to the sending PE.
enum class Counter : std::uint8_t {
  kMarkTasks = 0,    // kMark executions
  kReturnTasks,      // kMarkReturn executions
  kReductionTasks,   // reduction-task executions
  kRemoteMessages,   // spawns crossing a PE boundary
  kLocalMessages,    // same-PE spawns
  kBytesSent,        // wire-size of remote messages
  // Fault plane (charged to the sending PE of the affected message).
  kMsgDroppedInjected,    // messages deleted by the fault schedule
  kMsgDupInjected,        // messages duplicated by the fault schedule
  kMsgReorderedInjected,  // messages held back by the fault schedule
  kMsgTruncatedInjected,  // messages truncated by the fault schedule
  // Reliable channel (retransmit charged to sender, the rest to receiver).
  kMsgRetransmit,     // data frames re-sent after RTO expiry
  kMsgDupSuppressed,  // duplicate data frames discarded by the receiver
  kMsgDecodeError,    // frames that failed checksum/length validation
  // Batched message plane (all charged to the sending PE).
  kMsgBatched,         // messages that traveled inside a coalesced batch
  kBatchFlush,         // batches flushed (size cap, age cap, or idle/park)
  kBackpressureStall,  // retired, always 0: perfbench still reports it
  // Locality plane (PR 6). Dedup is charged to the spawning PE; steals to
  // the thief; edge counters to the PE owning the edge's source vertex.
  kBoundaryDedup,      // remote child marks suppressed by a boundary summary
  kStealBatches,       // idle-PE steal passes that took at least one task
  kStealTasks,         // tasks a PE took from a peer's mailbox to run
  kEdgeCut,            // arg edges whose endpoints live on different PEs
  kEdgesTotal,         // all arg edges (denominator for the cut fraction)
  // Cluster plane. Handoff bytes are charged to the receiving
  // worker's first owned PE; telemetry accounting to the reporting worker's
  // first owned PE. Relayed frames are counted by the controller's hub, per
  // worker (ProcEngine::cluster_metrics_json).
  kHandoffBytes,       // partition-snapshot bytes shipped at plane begin
  kTelemetryMsgs,      // kTelemetry payloads merged by the controller
  kTelemetryDropped,   // trace events lost before merge (ring + payload cap)
  // Dynamic membership + differential handoffs (docs/CLUSTER.md).
  kWorkerLost,           // worker processes declared dead (EOF / deadline)
  kPartitionReassigned,  // PEs whose owning worker changed on recovery
  kHandoffFullBytes,     // full-snapshot handoff payload bytes
  kHandoffDeltaBytes,    // differential handoff payload bytes
  kHandoffResyncs,       // checksum mismatches that forced a full resync
  // Workload driver (src/workload, docs/WORKLOAD.md). Session counters are
  // charged to the session root's PE; stall time is attributed to the
  // controller phase observed when the mutation was submitted.
  kSessionsOpened,     // sessions admitted (anchor edge added)
  kSessionsClosed,     // sessions retired (anchor edge dropped)
  kSessionChurnOps,    // churn mutations applied (acquire / drop / inject)
  kSessionsRejected,   // arrivals refused because the store was full
  kMutatorOps,         // timed driver mutations (stall histogram samples)
  kMutatorStallIdleNs,     // stall ns submitted while the controller was idle
  kMutatorStallMarkNs,     // stall ns submitted while a plane was marking
  kMutatorStallQuiesceNs,  // stall ns submitted while restructuring was due
  kCount_,
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount_);
const char* counter_name(Counter c);

enum class Hist : std::uint8_t {
  kMarkQueueDepth = 0,  // pending marking tasks at service time
  kPoolDepth,           // reduction pool depth at service time
  kMsgLatency,          // cross-PE delivery latency (sim steps)
  kChannelRtt,          // reliable-channel clean RTT samples (microseconds)
  kBatchFillPct,        // flushed batch fill (percent of the size cap)
  kMutatorStallUs,      // driver mutation blocked on locks/quiesce (float µs)
  kCount_,
};
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount_);
const char* hist_name(Hist h);

class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::uint32_t num_pes);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  std::uint32_t num_pes() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  void add(std::uint32_t pe, Counter c, std::uint64_t n = 1) noexcept {
    slots_[pe].c[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t get(std::uint32_t pe, Counter c) const noexcept {
    return slots_[pe].c[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  std::uint64_t total(Counter c) const noexcept;

  // Histogram observation; per-slot spinlock (uncontended in both engines:
  // each PE observes only its own slot).
  void observe(std::uint32_t pe, Hist h, double v) noexcept;
  // Fold a raw log-bucket delta into a slot's histogram — the receive side
  // of the cluster telemetry plane (net/proto.h TelemetryMsg::HistDelta).
  void merge_hist_bucket(std::uint32_t pe, Hist h, std::uint32_t bucket,
                         std::uint64_t n, double max_hint) noexcept;
  // Consistent copy of one histogram (merges nothing; single slot).
  Histogram hist(std::uint32_t pe, Hist h) const;
  // All PEs' histograms for `h` merged.
  Histogram merged_hist(Hist h) const;

  void reset();

  // Deterministic JSON object: {"num_pes":N,"totals":{...},"pes":[...]}.
  // Histograms export count/p50/p99/p999/max.
  std::string to_json() const;

 private:
  struct alignas(64) Slot {
    std::array<std::atomic<std::uint64_t>, kNumCounters> c{};
    mutable std::atomic_flag hist_lock = ATOMIC_FLAG_INIT;
    std::array<Histogram, kNumHists> h;
  };
  std::vector<Slot> slots_;
};

// ---- Live health rollup (dgr_soak --stats N) ----
//
// A HealthSnapshot is one sampling window's worth of registry deltas plus
// engine-side facts the registry doesn't know (cycle count, worker liveness).
// The emitters are pure formatting functions so both engines — and the unit
// tests — share one rendering of the rollup.
struct HealthSnapshot {
  std::uint64_t cycle = 0;          // cycles completed so far
  std::uint64_t cycles_window = 0;  // cycles in this window
  double window_ms = 0.0;           // wall-clock of the window
  std::uint64_t marks = 0;          // mark+return tasks this window
  std::uint64_t remote_msgs = 0;    // remote messages this window
  std::uint64_t local_msgs = 0;     // local messages this window
  std::uint64_t retransmits = 0;    // channel retransmits this window
  std::uint64_t stall_ops = 0;      // timed mutator ops so far (cumulative)
  double stall_p99_us = 0.0;        // mutator_stall_us p99 (cumulative hist)
  std::uint64_t telemetry_dropped = 0;  // cumulative (cluster runs)
  std::uint32_t workers_live = 0;   // connected workers (0 = in-process run)
  std::uint32_t workers_total = 0;
};

// One-line human form:
//   cycle 40 | 12.3 ms/cycle | 81k marks/s | remote 34.2% | retx 3 | workers 4/4
std::string health_line(const HealthSnapshot& s);
// One-object machine form (JSONL row).
std::string health_jsonl(const HealthSnapshot& s);

// dgr_soak's live rollup (--stats N, --stats-jsonl):
// samples registry totals after each cycle and, every `period` cycles,
// prints one health_line to stdout ("# " prefix) and appends one
// health_jsonl row to `jsonl_path` (null = none). Pure delta-of-totals
// sampling, so it serves every engine. An unwritable `jsonl_path` exits the
// process with status 2, naming `tool`.
class HealthEmitter {
 public:
  HealthEmitter(const char* tool, std::uint32_t period,
                const char* jsonl_path);

  void on_cycle(const MetricsRegistry& reg, std::uint64_t cycle,
                std::uint32_t workers_live, std::uint32_t workers_total);

 private:
  std::uint32_t period_;
  std::ofstream jsonl_;
  std::chrono::steady_clock::time_point last_;
  std::uint64_t prev_marks_ = 0, prev_remote_ = 0, prev_local_ = 0,
                prev_retx_ = 0;
};

}  // namespace dgr::obs
