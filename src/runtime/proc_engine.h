// Multi-process engine: a controller plus real worker processes over sockets.
//
// ProcEngine realizes the paper's machine across OS process boundaries. The
// controller owns the authoritative graph, the Controller/Marker pair that
// sequences cycles, and the restructuring phase; marking execution is farmed
// out to `workers` dgr_worker processes, each owning a contiguous block of
// PEs. Per marking plane the controller ships each worker a partition
// snapshot (kHandoff), opens the plane at an absolute epoch (kPlaneBegin),
// and seeds the wave (kSeed). Workers exchange cross-partition marks as
// kData frames relayed by the controller's SocketHub; the worker observing
// the rootpar termination return reports kPlaneDone, the controller
// broadcasts kQuiesce, merges every worker's kMarkReport into the
// authoritative graph, and only then lets the cycle advance — so the
// restructuring phase (sweep / expunge / reprioritize / deadlock report)
// runs centrally on merged marks, per the paper's "we concentrate solely
// upon the mark phase". docs/CLUSTER.md is the architecture guide.
//
// Mutation discipline: mutators run controller-side between marking cycles
// (atomically() is a plain serialized section; there are no PE threads to
// pause). Mid-wave cooperation (Fig 4-2's splice) is a shared-memory
// technique and does not transfer to partition replicas; the rescue-wave
// path (Marker::rescue + kRescueBegin) is the supported way marks chase
// references acquired while a wave runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "core/cooperation.h"
#include "core/marker.h"
#include "net/clock_sync.h"
#include "net/proto.h"
#include "net/socket_hub.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/audit.h"
#include "runtime/pool.h"

namespace dgr {

struct ProcOptions {
  std::uint32_t workers = 2;  // clamped to num_pes
  bool tcp = false;           // default: Unix-domain socket
  // Path to the dgr_worker binary; empty falls back to $DGR_WORKER_BIN,
  // then to "dgr_worker" on PATH.
  std::string worker_bin;
  // Quiesce-barrier watchdog: when a cycle makes no control-plane progress
  // for this long, silent workers are probed and — after one more window —
  // dropped (they surface as worker_lost instead of hanging the barrier).
  int barrier_timeout_ms = 10000;
  // Worker-side message plane (worker↔worker marks): the reliable channel
  // runs exactly when the fault schedule is nonzero. Worker w seeds its
  // schedule with net.faults.seed + w.
  NetOptions net;
};

struct ProcEngineStats {
  std::uint64_t planes_started = 0;   // kPlaneBegin broadcasts
  std::uint64_t handoffs_sent = 0;    // kHandoff frames
  std::uint64_t handoff_bytes = 0;    // their payload bytes (full + delta)
  std::uint64_t handoffs_full = 0;    // full-snapshot kHandoff frames
  std::uint64_t handoffs_delta = 0;   // differential kHandoff frames
  std::uint64_t handoff_full_bytes = 0;
  std::uint64_t handoff_delta_bytes = 0;
  std::uint64_t seeds_sent = 0;       // kSeed frames
  std::uint64_t rescue_begins = 0;    // kRescueBegin broadcasts
  std::uint64_t reports_merged = 0;   // kMarkReports folded into the graph
  // Dynamic membership (docs/CLUSTER.md "Membership and failure model").
  std::uint64_t workers_lost = 0;        // processes declared dead
  std::uint64_t partitions_reassigned = 0;  // PEs that changed owner
  std::uint64_t handoff_resyncs = 0;     // checksum-forced full resyncs
  std::uint64_t recoveries = 0;          // aborted + restarted cycles
  TransportStats transport;           // hub-side socket counters
};

class ProcEngine final : public TaskSink, public EngineHooks {
 public:
  explicit ProcEngine(Graph& g, ProcOptions opt = {});
  ~ProcEngine() override;

  ProcEngine(const ProcEngine&) = delete;
  ProcEngine& operator=(const ProcEngine&) = delete;

  Graph& graph() { return g_; }
  Marker& marker() { return *marker_; }
  Mutator& mutator() { return *mutator_; }
  Controller& controller() { return *controller_; }

  void set_root(VertexId root) { controller_->set_root(root); }

  // Bind the hub, fork+exec the workers, wait for registration. Aborts
  // (DGR_CHECK) when a worker cannot be launched or registered in time.
  void start();
  // Broadcast kShutdown, reap the children (SIGKILL stragglers), close.
  void stop();

  // Start a marking cycle under the engine lock. Use this instead of
  // controller().start_cycle() in multi-process runs: it excludes the
  // membership-recovery path (a worker-lost callback on a hub reader thread)
  // from racing the cycle's task-root construction.
  void start_cycle(const CycleOptions& opt = {});

  // Block until the controller is idle (no cycle in progress) and no
  // membership recovery is mid-flight.
  void wait_quiescent();
  void wait_cycle_done();

  // Every worker process died (no survivors — the run cannot continue).
  // A single lost worker no longer fails the run: the engine repartitions
  // its PEs onto the survivors and resumes from the last completed quiesce.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // ---- Dynamic membership introspection ----
  // Current membership generation (0 until the first loss/resync fence).
  std::uint16_t membership_gen() const;
  std::uint32_t workers_live() const;
  bool worker_alive(std::uint32_t worker) const;
  // The worker's OS pid (test hook: chaos legs SIGKILL it), -1 once reaped.
  long worker_pid(std::uint32_t worker) const;

  // Inject an inert reduction task into its destination pool.
  void inject(Task t);

  // ---- TaskSink (controller-side marker: wave seeds only) ----
  void spawn(Task t) override;

  // Every unexecuted reduction task as <s,d>, one per task (the Oracle's
  // input).
  void collect_task_refs(std::vector<TaskRef>& out);

  // ---- EngineHooks ----
  void collect_task_endpoints(std::vector<TaskEndpoint>& out) override;
  TaskRestructure restructure_tasks(
      const std::function<bool(VertexId)>& kill,
      const std::function<std::uint8_t(VertexId)>& prio) override;
  void quiesce_begin() override;
  void on_cycle_complete(const CycleResult& res) override {
    audit_.on_cycle_complete(res);
  }
  void on_plane_begin(Plane p) override;

  // Serialized mutation section (vertex list unused: no concurrent marking
  // touches the controller graph — the mutex excludes report merges).
  void atomically(std::initializer_list<VertexId> vs,
                  const std::function<void()>& fn);
  void atomically(std::span<const VertexId> vs,
                  const std::function<void()>& fn);

  // Safe-point auditing (runtime/audit.h) inside every period-th
  // restructuring window, once every worker's report is merged.
  void enable_audit(AuditOptions opt = {}) { audit_.enable(opt); }
  const AuditStats& audit_stats() const { return audit_.stats(); }

  // Controller-side trace ring. Call BEFORE start(): the same call arms
  // worker-side capture (each worker's kRegisterAck config carries
  // trace_enabled + capacity, and its ring ships back at every quiesce).
  obs::TraceBuffer* enable_trace(std::size_t capacity = 1 << 14);
  obs::TraceBuffer* trace() { return trace_.get(); }

  // ---- Cluster telemetry plane (docs/OBSERVABILITY.md) ----
  // Merged metrics registry: every worker's counter/histogram deltas folded
  // into per-PE slots, plus controller-side handoff/telemetry accounting.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  // MetricsRegistry::to_json() extended with a "workers":[...] rollup —
  // per-worker marks, remote traffic, retransmits, handoff/relay bytes,
  // telemetry accounting and the clock-offset estimate. dgr_analyze's
  // cluster section consumes exactly this shape.
  std::string cluster_metrics_json() const;
  // Each worker's shipped trace events with timestamps rebased onto the
  // controller clock (net/clock_sync.h). Pair with trace()->snapshot() and
  // obs::to_chrome_trace_cluster for the single merged timeline.
  std::vector<std::vector<obs::TraceEvent>> worker_traces() const;
  // The worker-minus-controller clock offset estimate (µs) and the RTT of
  // the probe it came from; offset 0 until at least one echo arrived.
  std::int64_t clock_offset_us(std::uint32_t worker) const;
  std::uint64_t clock_rtt_us(std::uint32_t worker) const;
  // Echo exchanges folded into the estimate so far (0 = no echo yet).
  std::uint64_t clock_samples(std::uint32_t worker) const;

  ProcEngineStats stats() const;
  std::uint32_t num_workers() const { return num_workers_; }
  // The hub's listen address (workers' --connect argument).
  std::string address() const { return hub_.address(); }

 private:
  struct WorkerSlot {
    PeId pe_begin = 0;            // initial contiguous block (registration)
    std::uint32_t pe_count = 0;
    std::vector<PeId> pes;        // current owned set, ascending
    bool alive = true;
    long pid = -1;
    // Per-worker handoff accounting (survives repartitions, unlike the
    // per-PE registry attribution).
    std::uint64_t handoff_bytes = 0;
    std::uint64_t handoff_full_bytes = 0;
    std::uint64_t handoff_delta_bytes = 0;
  };

  WorkerConfig make_config(std::uint32_t worker) const;
  void spawn_worker(std::uint32_t worker);
  void handle_control(std::uint32_t worker, NetFrame f);
  // Membership recovery (all under mu_). on_worker_lost runs on the dead
  // connection's hub reader thread; fence_and_restart is shared with the
  // checksum-resync path (which skips the repartition).
  void on_worker_lost(std::uint32_t worker);
  std::vector<PeId> repartition_onto_survivors();
  void fence_and_restart();
  std::uint32_t live_count_locked() const;
  PeId home_pe(std::uint32_t worker) const {
    return slots_[worker].pes.empty() ? slots_[worker].pe_begin
                                      : slots_[worker].pes.front();
  }
  void watchdog_loop();
  void touch_progress() {
    last_progress_us_.store(now_us(), std::memory_order_release);
  }
  // One Cristian probe (kClockProbe); the echo feeds clock_[worker]. Sent to
  // every worker after registration and again at each plane begin, so the
  // estimate tightens as the run warms up (min-RTT sample wins).
  void send_clock_probe(std::uint32_t worker);
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  Graph& g_;
  ProcOptions opt_;
  std::uint32_t num_workers_;
  std::vector<WorkerSlot> slots_;
  std::unique_ptr<Marker> marker_;
  std::unique_ptr<Mutator> mutator_;
  std::unique_ptr<Controller> controller_;
  SocketHub hub_;

  // Serializes every control-plane transition: cycle starts (via the hook
  // entry points), report merges, restructuring, mutations, pool access.
  // Recursive because a merged report finishes the plane, which re-enters
  // through on_plane_begin/spawn for the next one.
  mutable std::recursive_mutex mu_;

  bool started_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> failed_{false};

  // Plane-begin staging: on_plane_begin ships handoffs pre-epoch-bump; the
  // first seed spawn afterwards broadcasts kPlaneBegin with the bumped
  // epoch, then every seed rides a kSeed frame.
  bool begin_pending_ = false;
  Plane begin_plane_ = Plane::kR;

  // Quiesce merge state for the wave being collected.
  bool collecting_ = false;
  Plane collect_plane_ = Plane::kR;
  std::uint64_t collect_epoch_ = 0;
  std::uint32_t reports_in_ = 0;
  std::vector<std::uint8_t> reported_;  // per-worker dedup for this wave
  MarkStats collect_stats_;

  // ---- Dynamic membership ----
  // Generation is bumped (and fenced via kEpochFence) whenever membership
  // changes; every outgoing frame is stamped with it and workers void any
  // kData/kSeed carrying a stale one. Guarded by mu_ like the rest of the
  // control plane; dead_mask_ mirrors slot liveness for the registration
  // policy, which runs under the hub lock only (lock order: mu_ → hub).
  std::uint16_t gen_ = 0;
  std::atomic<std::uint64_t> dead_mask_{0};

  // ---- Differential handoffs ----
  HandoffTracker tracker_;
  std::vector<std::uint64_t> sent_seq_;   // last handoff seq shipped per worker
  std::vector<std::uint64_t> acked_seq_;  // last seq checksum-acked per worker
  std::vector<std::uint8_t> force_full_;  // next handoff must be a snapshot
  std::uint64_t handoff_count_ = 0;       // plane-begins, for the periodic full

  // ---- Quiesce-barrier watchdog ----
  // Two-deadline protocol: a stall first sends clock probes (cheap liveness
  // pings) and snapshots per-worker echo counts; workers that neither echo
  // nor report by the second deadline are dropped. probing_ survives progress
  // touches so one chatty worker cannot mask another's death.
  std::thread watchdog_;
  std::atomic<std::uint64_t> last_progress_us_{0};
  bool probing_ = false;                     // guarded by mu_
  std::vector<std::uint64_t> probe_snapshot_;  // clock samples at probe time
  std::uint64_t probe_deadline_us_ = 0;

  std::vector<TaskIndex> pools_;  // inert reduction tasks, per PE

  ProcEngineStats stats_;

  std::unique_ptr<obs::TraceBuffer> trace_;
  // Worker-side capture request recorded by enable_trace, read by
  // make_config when registration acks go out.
  bool worker_trace_ = false;
  std::uint32_t trace_capacity_ = 1u << 14;

  // ---- Cluster telemetry plane ----
  // Merged per-PE registry: worker deltas fold in at quiesce; the controller
  // charges its own handoff/telemetry accounting to each worker's first
  // owned PE. Always on (counters are cheap); traces stay opt-in.
  obs::MetricsRegistry metrics_;
  std::vector<ClockSync> clock_;  // per-worker offset estimators
  std::uint32_t clock_seq_ = 0;
  struct WorkerTele {
    std::uint64_t telemetry_msgs = 0;
    std::uint64_t ring_dropped = 0;
    std::uint64_t events_omitted = 0;
  };
  std::vector<WorkerTele> tele_;
  // Shipped worker events, still on each worker's own clock; rebased copies
  // come out of worker_traces().
  std::vector<std::vector<obs::TraceEvent>> worker_events_;
  std::chrono::steady_clock::time_point t0_;
  Auditor audit_;
};

}  // namespace dgr
