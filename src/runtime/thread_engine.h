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
// take the locks of the touch set in id order via LockSet. The restructuring
// phase runs under a brief global pause (quiesce) — the paper requires only
// the MARK phase to be concurrent (§4: "we concentrate solely upon the mark
// phase").
//
// Scope: this engine drives marking workloads plus driver-based mutation
// (the full reduction Machine runs on the deterministic SimEngine; see
// DESIGN.md §2, substitution 1).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "core/cooperation.h"
#include "core/marker.h"
#include "net/fault_plane.h"
#include "net/mailbox.h"
#include "net/reliable_channel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/pool.h"

namespace dgr {

// Sorted-order acquisition of per-vertex spinlocks; RAII release.
class VertexLocks;

// Message-plane configuration. Cross-PE messages land in per-PE mailboxes.
// With a nonzero fault schedule (or force_reliable), every marking message
// crosses a FaultPlane wrapped in a ChannelManager: the engine sees
// exactly-once in-order delivery while the wire drops, duplicates, reorders
// and truncates under it. With the default (no faults), messages go straight
// to the destination mailbox.
//
// Batching: cross-PE spawns coalesce per directed PE pair — on the fast path
// into per-pair staging rows flushed to the destination mailbox as one
// deliver_batch, on the channel path into multi-payload frames (the same
// knobs are forwarded to ReliableOptions). A batch flushes when it reaches
// batch_bytes, ages past batch_flush_us, or its owning PE goes idle or
// parks; receivers drain up to drain_max messages per loop pass under a
// single mailbox lock. batch_bytes == 0 (the --no-batch leg) delivers each
// fast-path message on its own and puts each channel payload in its own
// frame; the channel's acks stay deferred or piggybacked either way.
struct NetOptions {
  FaultPlaneOptions faults;
  ReliableOptions reliable;
  bool force_reliable = false;  // channel layer even with a zero schedule
  std::uint32_t batch_bytes = 4096;    // size cap per staged pair (0 = none)
  std::uint32_t batch_flush_us = 100;  // age cap on a staged batch
  std::uint32_t drain_max = 64;        // receiver: messages per drain pass
  // Soft backpressure, edge-triggered per directed PE pair: the first spawn
  // that finds the destination backlog over the limit yields up to
  // backpressure_spins times (counted as backpressure_stall) and, if the
  // peer is still congested, disarms the pair — subsequent spawns proceed
  // at full speed until the backlog falls below half the limit, which
  // re-arms it. One stall episode per congestion event, not one per
  // message: a per-message yield loop is exactly the ping-pong stall that
  // produced the 2-PE cliff (see docs/PERF.md). Never blocking is
  // load-bearing: the spawner may hold vertex-stripe locks (globally shared
  // hash stripes) that the congested receiver needs to make progress.
  std::uint64_t backpressure_limit = 1 << 15;  // 0 disables the check
  std::uint32_t backpressure_spins = 64;
  // Boundary summaries: per-(destination PE, plane) tables recording the
  // strongest mark priority already forwarded per remote vertex this epoch;
  // duplicate remote child marks are suppressed at the sender (counted as
  // boundary_dedup), so each remote vertex is requested at most once per
  // wave and priority level instead of once per cross-partition edge.
  bool boundary_summary = true;
  // Work stealing: a PE whose mailbox is empty drains up to half (capped at
  // drain_max) of the deepest peer backlog and executes the batch itself
  // instead of parking. Sound because task execution is location-
  // transparent here: vertex locks are global stripes, counters are per-
  // executing-PE, and the channel/fault planes take their own locks.
  bool steal = true;
  std::uint64_t steal_min = 16;  // don't steal below this victim backlog
  // Idle parking: a PE with an empty mailbox and nothing stealable blocks
  // on its mailbox condvar for at most this long (0 = yield-spin instead).
  // Bounded so pause requests, steal opportunities and retransmit timers
  // are still polled; parking matters most on hosts with fewer cores than
  // PEs, where a yield-spinning idler competes with the busy PEs for the
  // timeslice that would produce its next message.
  std::uint32_t idle_wait_us = 100;
  bool enabled() const { return faults.spec.any() || force_reliable; }
};

// Aggregate counter view over the per-PE obs::MetricsRegistry (see
// metrics_registry() for the per-PE breakdowns and histograms).
struct ThreadEngineStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t local_messages = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t mailbox_high_water = 0;  // deepest mailbox backlog seen
  std::uint64_t msg_batched = 0;         // messages sent inside a batch
  std::uint64_t batch_flushes = 0;       // batches flushed
  std::uint64_t backpressure_stalls = 0; // spawns that hit the soft limit
  std::uint64_t boundary_dedup = 0;      // remote marks suppressed at source
  std::uint64_t steal_batches = 0;       // idle-PE steal passes that took work
  std::uint64_t steal_tasks = 0;         // tasks executed by a non-owner PE
  std::uint64_t edge_cut = 0;            // cross-PE arg edges at start()
  std::uint64_t edges_total = 0;         // all arg edges at start()
};

// Safe-point auditing (§5.4.1 invariants + Property 1 accounting on the live
// concurrent graph). The audit runs inside the restructuring quiesce window
// every `period` cycles: all PE threads are parked, both planes have
// terminated but their marks are not yet consumed, and no marking task is in
// flight — the one globally consistent state the threaded engine ever
// reaches. Violations are counted, logged, and emitted as health_warning
// trace events; they never abort (CI decides via dgr_run --health-fatal).
struct AuditOptions {
  std::uint32_t period = 1;      // audit every Nth cycle (0 disables)
  bool check_invariants = true;  // marking invariants 1-3 on terminated planes
  bool check_accounting = true;  // Property 1: GAR = V − R − F, R ∩ F = ∅
};

struct AuditStats {
  std::uint64_t audits = 0;      // safe-point audits executed
  std::uint64_t violations = 0;  // failed checks (invariant or accounting)
  std::string last_what;         // human-readable description of the latest
};

// Online health monitoring: a watchdog thread samples the metrics registry,
// the controller and the mailboxes every `interval_ms` and flags
//   - a marking wave with no front progress for `stall_samples` samples,
//   - a mailbox backlog above `mailbox_saturation`,
//   - more than `rescue_storm` supplementary waves within one cycle,
// as health_warning trace events plus always-on counters (the counters
// survive -DDGR_TRACE=OFF; only the event emission compiles out).
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

  // Block until no task is pending or executing anywhere.
  void wait_quiescent();
  // Block until the controller finishes the in-progress cycle.
  void wait_cycle_done();

  // Inject an inert reduction task into its destination pool (workload for
  // M_T / classification benches).
  void inject(Task t);

  // ---- TaskSink (thread-safe) ----
  void spawn(Task t) override;
  // Boundary-summary admission (see NetOptions::boundary_summary). Only
  // remote children spawned from a PE thread consult the table; external
  // callers and local children are always admitted.
  bool admit_mark(Plane plane, VertexId child, std::uint8_t prior,
                  std::uint64_t epoch) override;

  // ---- EngineHooks ----
  void collect_task_refs(std::vector<TaskRef>& out) override;
  TaskRestructure restructure_tasks(
      const std::function<bool(const Task&)>& kill,
      const std::function<std::uint8_t(const Task&)>& prio) override;
  void quiesce_begin() override;
  void quiesce_end() override;
  void on_cycle_complete(const CycleResult& res) override;

  // Enable safe-point auditing (see AuditOptions). Call before start().
  void enable_audit(AuditOptions opt = {});
  const AuditStats& audit_stats() const { return audit_stats_; }

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
  // Null unless NetOptions::enabled() at construction.
  const FaultPlane* fault_plane() const { return fault_.get(); }
  const ChannelManager* channels() const { return chan_.get(); }
  // Per-PE counters and histograms.
  obs::MetricsRegistry& metrics_registry() { return reg_; }
  const obs::MetricsRegistry& metrics_registry() const { return reg_; }

  // Start capturing a structured trace (ring buffer; oldest dropped).
  // Timestamps are µs since engine construction. Returns nullptr when
  // tracing is compiled out (-DDGR_TRACE=OFF). Call before start().
  obs::TraceBuffer* enable_trace(std::size_t capacity = 1 << 14);
  obs::TraceBuffer* trace() { return trace_.get(); }

 private:
  friend class VertexLocks;

  void pe_loop(PeId pe);
  void execute(PeId pe, const Task& t);
  // Fast-path batching: flush every staged pair whose sender is `pe`
  // (force) or only the size/age-ripe ones. PE-thread-local: row `pe` of
  // out_ is touched exclusively by its owning thread.
  void flush_outgoing(PeId pe, bool force);
  void flush_pair_fast(PeId src, PeId dst);
  // Edge-triggered congestion episode handling (see NetOptions). Only PE
  // thread `src` calls this for its own row, so the arming bytes need no
  // synchronization.
  void maybe_backpressure(PeId src, PeId dst);
  // Idle-path mailbox stealing: drain up to half of the deepest peer
  // backlog into `buf` and execute it here. Returns true if work was taken.
  bool try_steal(PeId pe, std::vector<Mailbox::Bytes>& buf);
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
  // Runs inside the quiesce window (all PEs parked, marks unconsumed).
  void maybe_audit();
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
  // Fast-path sender staging (fault-free plane only; the channel batches on
  // its own when active). out_[src][dst] holds cross-PE marking messages
  // awaiting a coalesced deliver_batch. No locks: row src belongs to PE
  // thread src alone; external (tl_pe == -1) spawns bypass staging.
  struct OutBatch {
    std::vector<Mailbox::Bytes> msgs;
    std::size_t bytes = 0;
    std::uint64_t deadline_us = 0;  // set when the first message is staged
  };
  std::vector<std::vector<OutBatch>> out_;
  // Backpressure arming, indexed [src][dst]. Row src is written only by PE
  // thread src (external spawns have src == dst and skip the check).
  std::vector<std::vector<std::uint8_t>> bp_armed_;
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
  // Active message plane (null on the fault-free fast path). Frames flow
  // spawn → chan_ → fault_ → mail_; pe_loop feeds raw frames back through
  // chan_->on_frame and executes the exactly-once payload stream.
  NetOptions net_;
  std::unique_ptr<FaultPlane> fault_;
  std::unique_ptr<ChannelManager> chan_;
  std::vector<std::unique_ptr<TaskPool>> pools_;  // inert reduction tasks
  std::vector<std::unique_ptr<std::mutex>> pool_mu_;

  std::vector<std::atomic_flag> locks_;

  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> outstanding_{0};  // spawned, not yet executed

  // Quiesce protocol: a pauser raises `pause_`; every other PE thread parks
  // and reports in via `parked_`.
  std::atomic<bool> pause_{false};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic_flag restructure_claim_ = ATOMIC_FLAG_INIT;

  obs::MetricsRegistry reg_;
  std::unique_ptr<obs::TraceBuffer> trace_;
  std::chrono::steady_clock::time_point t0_;

  // ---- Safe-point audit (mutated only inside the quiesce window, by the
  // single restructuring thread; read externally after stop()). ----
  AuditOptions audit_opt_;
  bool audit_enabled_ = false;
  AuditStats audit_stats_;
  bool audit_swept_check_ = false;  // cross-check swept vs GAR' this cycle
  std::size_t audit_expected_gar_ = 0;

  // ---- Watchdog ----
  WatchdogOptions wd_opt_;
  std::atomic<bool> wd_enabled_{false};
  std::thread wd_thread_;
  std::atomic<std::uint64_t> health_[obs::kNumHealthKinds] = {};
};

}  // namespace dgr
