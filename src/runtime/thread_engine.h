// Multi-threaded engine: one OS thread per PE.
//
// Realizes the paper's machine with genuine parallelism: every PE runs its
// own thread, cross-PE task spawns travel as serialized byte messages
// through mailboxes (no shared task objects), and task execution is made
// atomic by per-vertex spinlocks — a mark or return task touches only its
// destination vertex, so marking scales across PEs with no shared stack or
// queue, exactly the paper's decentralization claim (E8).
//
// Mutations (the cooperating primitives) touch several vertices; callers
// run them in atomically(), which takes the touch set's locks in sorted
// order. The restructuring phase runs under a brief global pause (quiesce)
// — the paper requires only the MARK phase to be concurrent (§4: "we
// concentrate solely upon the mark phase").
//
// Work list: each PE's pending marking work waits in its WorkList
// (runtime/work_list.h), M_R marks highest priority first. A task a PE
// thread spawns for its own PE goes straight onto that list as a typed Task:
// no encode, no allocation, no mailbox. Each pass of the PE loop moves up to
// kDrainMax tasks' worth of mailbox messages onto the list, then runs up to
// kDrainMax tasks from it. WorkerEngine runs the same list.
//
// Termination: as on ProcEngine, the return that reaches rootpar is the only
// detector (DESIGN.md, "Termination"), so no spawn touches a shared pending
// count. Every safe point checks that no task is left (quiesce_begin).
//
// Message plane (NetOptions, net/reliable_channel.h). Cross-PE messages
// land in per-PE mailboxes; each is one task batch (net/frame.h). With a
// nonzero fault schedule every batch crosses the shared MessagePlane stack
// (runtime/message_plane.h) as the one payload of a channel frame: the
// engine sees exactly-once in-order delivery while the wire drops,
// duplicates, reorders and truncates under it. With no faults a batch goes
// straight to the destination mailbox.
//
// Batching: cross-PE spawns from a PE thread coalesce per directed PE pair
// into one length-prefixed byte batch (the format WorkerEngine sends over
// sockets), on both planes; flush_batch is the one routine that sends it.
// A batch flushes when it reaches reliable.batch_bytes, ages past
// reliable.batch_flush_us, or its owning PE goes idle. batch_bytes == 0
// flushes every staged task at once (a batch of one). Spawns from outside
// the PE threads (root seeds, mutators) leave as batches of one. The
// channel's acks stay deferred or piggybacked either way.
//
// Backlog figures are in tasks: the mailbox counts the tasks each message
// carries, and a PE's backlog (mailbox plus the list size it publishes once
// per pass) feeds the watchdog and mailbox_high_water. No sender waits on
// a receiver: as in the paper's machine, a PE spawns a task and moves on,
// so a mailbox is unbounded and the watchdog's mailbox_saturated warning
// is the signal of a runaway backlog. An idle PE parks on its mailbox for
// at most kIdleWaitUs; a quiesce wakes it at once, since the mutators are
// held off the gate until every PE parks.
//
// Locality, always on:
//   - Boundary summaries: per-(destination PE, plane) tables record the
//     strongest mark priority already forwarded per remote vertex this
//     epoch; duplicate remote child marks are suppressed at the sender
//     (counted as boundary_dedup), so each remote vertex is requested at
//     most once per wave and priority level instead of once per
//     cross-partition edge.
//   - Work stealing: a PE with nothing to run takes whole messages from the
//     deepest peer mailbox, up to half its backlog (capped at kDrainMax
//     tasks), once that backlog reaches kStealMin tasks, and runs them from
//     its own list instead of parking. Sound because task execution is
//     location-transparent here: vertex locks are global stripes, counters
//     are per-executing-PE, and the channel/fault planes take their own
//     locks. A PE's list is its own; only its mailbox can be stolen from.
//
// Scope: this engine drives marking workloads plus driver-based mutation
// (the full reduction Machine runs on the deterministic SimEngine; see
// DESIGN.md §2, substitution 1).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "core/cooperation.h"
#include "core/marker.h"
#include "net/mailbox.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/audit.h"
#include "runtime/message_plane.h"
#include "runtime/pool.h"
#include "runtime/work_list.h"

namespace dgr {

// The one engine figure the metrics registry does not hold; every counter
// lives in metrics_registry().
struct ThreadEngineStats {
  // Deepest PE backlog seen, in tasks: mailbox plus work list.
  std::uint64_t mailbox_high_water = 0;
};

// Online health monitoring: a watchdog thread samples the metrics registry,
// the controller and the mailboxes every `interval_ms` and flags
//   - a marking wave with no front progress for `stall_samples` samples,
//   - a PE backlog (mailbox plus work list, in tasks) above
//     `mailbox_saturation`,
//   - more than `rescue_storm` supplementary waves within one cycle,
// as health_warning trace events (when tracing is enabled) plus always-on
// counters.
struct WatchdogOptions {
  std::uint32_t interval_ms = 2;
  std::uint32_t stall_samples = 500;  // ~1 s of no progress at 2 ms
  std::uint64_t mailbox_saturation = 1 << 16;
  std::uint64_t rescue_storm = 64;
};

struct HealthReport {
  std::uint64_t warnings[obs::kNumHealthKinds] = {};
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::uint64_t w : warnings) n += w;
    return n;
  }
};

class ThreadEngine final : public TaskSink, public EngineHooks {
 public:
  explicit ThreadEngine(Graph& g, NetOptions net = {});
  ~ThreadEngine() override;

  ThreadEngine(const ThreadEngine&) = delete;
  ThreadEngine& operator=(const ThreadEngine&) = delete;

  Graph& graph() { return g_; }
  Marker& marker() { return *marker_; }
  Mutator& mutator() { return *mutator_; }
  Controller& controller() { return *controller_; }

  void set_root(VertexId root) { controller_->set_root(root); }

  // Start the PE threads (idempotent).
  void start();
  // Stop the PE threads; pending work is abandoned.
  void stop();

  // Block until the controller finishes the in-progress cycle.
  void wait_cycle_done() {
    while (!controller_->idle()) std::this_thread::yield();
  }
  // Block until no task is pending or executing anywhere: the same wait,
  // since the cycle's own return wave detects termination.
  void wait_quiescent() { wait_cycle_done(); }

  // Inject an inert reduction task into its destination pool (workload for
  // M_T / classification benches).
  void inject(Task t);

  // ---- TaskSink (thread-safe) ----
  void spawn(Task t) override;
  // Boundary-summary admission (see the header comment). Only remote
  // children spawned from a PE thread consult the table; external callers
  // and local children are always admitted.
  bool admit_mark(Plane plane, VertexId child, std::uint8_t prior,
                  std::uint64_t epoch) override;

  // Every unexecuted reduction task as <s,d>, one per task (the Oracle's
  // input).
  void collect_task_refs(std::vector<TaskRef>& out);

  // Marking tasks still waiting: on every PE's work list, in its staged
  // batch rows (on both planes) and, on the bare plane, in its mailbox. Read
  // only while no PE thread runs (at the safe point, or after stop()).
  std::uint64_t pending_tasks() const;

  // Test hook: PE `pe` holds `t` on its work list through every safe point,
  // past the root's return, so the termination check trips. Before start().
  void hold_task_for_test(PeId pe, Task t) { pes_[pe]->held = t; }

  // ---- EngineHooks ----
  void collect_task_endpoints(std::vector<TaskEndpoint>& out) override;
  TaskRestructure restructure_tasks(
      const std::function<bool(VertexId)>& kill,
      const std::function<std::uint8_t(VertexId)>& prio) override;
  void quiesce_begin() override;
  void quiesce_end() override;
  void on_cycle_complete(const CycleResult& res) override {
    audit_.on_cycle_complete(res);
  }

  // Enable safe-point auditing (runtime/audit.h) inside every period-th
  // restructuring quiesce window; a violation also raises a kAuditViolation
  // health warning. Call before start().
  void enable_audit(AuditOptions opt = {}) { audit_.enable(opt); }
  const AuditStats& audit_stats() const { return audit_.stats(); }

  // Arm the stall watchdog (see WatchdogOptions). Call before start(); the
  // monitor thread lives from start() to stop().
  void enable_watchdog(WatchdogOptions opt = {});
  HealthReport health() const;

  // Execute `fn` with the listed vertices' locks held (sorted order) —
  // the atomic section for a multi-vertex mutation. The span overload
  // serves callers whose touch set is computed at runtime (the workload
  // driver locks a whole session subgraph at once).
  void atomically(std::initializer_list<VertexId> vs,
                  const std::function<void()>& fn);
  void atomically(std::span<const VertexId> vs,
                  const std::function<void()>& fn);

  ThreadEngineStats stats() const;
  // Null unless the fault schedule is nonzero.
  const FaultPlane* fault_plane() const { return plane_.fault(); }
  const ChannelManager* channels() const { return plane_.channel(); }
  // Per-PE counters and histograms.
  obs::MetricsRegistry& metrics_registry() { return reg_; }
  const obs::MetricsRegistry& metrics_registry() const { return reg_; }

  // Start capturing a structured trace (ring buffer; oldest dropped).
  // Timestamps are µs since engine construction. Call before start().
  obs::TraceBuffer* enable_trace(std::size_t capacity = 1 << 14);
  obs::TraceBuffer* trace() { return trace_.get(); }

 private:
  void pe_loop(PeId pe);
  void execute(PeId pe, const Task& t);
  // Receive one mailbox message addressed to `owner` on PE thread `pe` and
  // push the tasks it carries onto pe's work list. Returns how many.
  std::size_t receive(PeId pe, PeId owner, const Mailbox::Msg& msg);
  struct OutBatch;
  // Stage a cross-PE task from PE thread `src` into its byte batch for
  // `dst`.
  void stage(PeId src, PeId dst, const Task& t);
  // Send batch `b` from `src` to `dst` — into dst's mailbox on the bare
  // plane, to the channel as one payload under faults — and empty it.
  void flush_batch(PeId src, PeId dst, OutBatch& b);
  // Flush every staged batch whose sender is `pe` (force) or only the
  // size/age-ripe ones. PE-thread-local: only thread `pe` touches its
  // batches.
  void flush_outgoing(PeId pe, bool force);
  // Tasks waiting at `pe`: its mailbox plus its last published list size.
  // Only the watchdog reads it; no spawn waits on a receiver.
  std::uint64_t backlog(PeId pe) const {
    return pes_[pe]->depth.load(std::memory_order_relaxed) +
           mail_[pe]->pending();
  }
  // Idle-path mailbox stealing: take up to half of the deepest peer
  // mailbox onto pe's work list. Returns true if messages were taken.
  bool try_steal(PeId pe, std::vector<Mailbox::Msg>& buf);
  // Walk the graph once and charge edge_cut / edges_total per owning PE
  // (called from start(), before any thread runs).
  void count_edge_cut();
  // Engine clock: µs since construction (also the trace timestamp base).
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }
  void watchdog_loop();
  void warn(obs::HealthKind kind, std::uint16_t pe, std::uint64_t detail);
  std::uint32_t lock_index(VertexId v) const {
    return static_cast<std::uint32_t>(VertexIdHash{}(v) % locks_.size());
  }
  void lock_vertex(VertexId v);
  void unlock_vertex(VertexId v);

  Graph& g_;
  std::unique_ptr<Marker> marker_;
  std::unique_ptr<Mutator> mutator_;
  std::unique_ptr<Controller> controller_;

  // Cross-PE delivery plane: one mailbox per PE, indexed by destination.
  std::vector<std::unique_ptr<Mailbox>> mail_;
  // What each PE thread owns alone: its work list and its outgoing byte
  // batch per destination PE. Other threads read only the published gauges.
  struct OutBatch {
    std::vector<std::uint8_t> bytes;  // task batch format (net/frame.h)
    std::size_t tasks = 0;
    std::uint64_t deadline_us = 0;  // set when the first task is staged
  };
  struct alignas(64) PeState {
    WorkList work;
    std::vector<OutBatch> out;           // [dst]
    std::optional<Task> held;  // hold_task_for_test
    std::atomic<std::uint64_t> depth{0};       // work.size(), once per pass
    std::atomic<std::uint64_t> high_water{0};  // deepest backlog published
  };
  std::vector<std::unique_ptr<PeState>> pes_;
  // Boundary summaries, one shard per (destination PE, plane): the epoch
  // and strongest priority already forwarded for each remote vertex index.
  // Flat arrays grown on demand under the shard spinlock; stale epochs are
  // invalidated lazily by comparison, so waves never clear the table.
  struct alignas(64) BoundaryShard {
    std::atomic_flag mu = ATOMIC_FLAG_INIT;
    std::vector<std::uint64_t> epoch;
    std::vector<std::uint8_t> prior;
  };
  std::vector<std::unique_ptr<BoundaryShard>> summary_;
  NetOptions net_;
  std::vector<TaskIndex> pools_;  // inert reduction tasks, per PE
  std::vector<std::unique_ptr<std::mutex>> pool_mu_;  // [pe] guards pools_[pe]

  std::vector<std::atomic_flag> locks_;

  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};

  // Quiesce protocol: a pauser raises `pause_`; every other PE thread parks
  // and reports in via `parked_`.
  std::atomic<bool> pause_{false};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic_flag restructure_claim_ = ATOMIC_FLAG_INIT;

  obs::MetricsRegistry reg_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::chrono::steady_clock::time_point t0_;
  // Message plane (bare without faults). Under faults batches flow
  // flush_batch → channel → fault plane → mail_; receive() feeds them back
  // through the channel.
  MessagePlane plane_;

  // Safe-point audit: runs only inside the quiesce window, on the single
  // restructuring thread; read externally after stop().
  Auditor audit_;

  // ---- Watchdog ----
  WatchdogOptions wd_opt_;
  std::atomic<bool> wd_enabled_{false};
  std::thread wd_thread_;
  std::atomic<std::uint64_t> health_[obs::kNumHealthKinds] = {};
};

}  // namespace dgr
