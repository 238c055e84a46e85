// Post-mortem trace analytics backing the dgr_analyze CLI.
//
// Consumes the JSONL event stream produced by to_jsonl / dgr_run
// --trace-jsonl (re-parsed via from_jsonl) and reconstructs, per ISSUE
// archetype "how did this run behave":
//   - per-cycle summaries: phase durations, mark/return totals, rescue-wave
//     counts, restructuring outcomes (swept / expunged / reprioritized);
//   - a per-PE load table: wave-front sample share, cycles participated,
//     idle fraction, rescue/taint attribution (optionally enriched with the
//     metrics registry's --metrics JSON: exact task counts + mailbox depth);
//   - wave-propagation latency: for every (cycle, PE), the time from the
//     plane's phase_begin until that PE's first wave_front sample — i.e. how
//     long the decentralized wave takes to reach each processor (§4's
//     locality claim, measured);
//   - deadlock post-mortems: for every cycle whose restructuring phase
//     reported DL'_v = R'_v − T' (Theorem 2), the evidence chain — the M_T
//     and M_R wave stats the subtraction was computed from plus the named
//     deadlocked vertices (kDeadlockVertex events).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/fault_plane.h"  // FaultKind taxonomy (header-only)
#include "obs/trace.h"

namespace dgr::obs {

// One marking plane's wave inside one cycle.
struct PhaseReport {
  bool ran = false;
  bool finished = false;       // phase_end observed
  std::uint64_t begin_ts = 0;  // engine clock (sim steps / µs)
  std::uint64_t end_ts = 0;
  std::uint64_t marks = 0;    // from phase_end payload
  std::uint64_t returns = 0;
  std::uint64_t duration() const {
    return finished && end_ts >= begin_ts ? end_ts - begin_ts : 0;
  }
};

struct CycleReport {
  std::uint64_t cycle = 0;
  bool complete = false;  // cycle_end observed
  std::uint64_t start_ts = 0;
  std::uint64_t end_ts = 0;
  PhaseReport mt;  // Plane::kT (deadlock-detection wave; optional)
  PhaseReport mr;  // Plane::kR (priority marking wave)
  std::uint64_t rescue_waves = 0;
  std::uint64_t rescue_queued = 0;
  std::uint64_t coop_taints = 0;
  std::uint64_t swept = 0;
  std::uint64_t expunged = 0;
  std::uint64_t reprioritized = 0;
  bool deadlock_report = false;      // restructuring ran phase (d)
  std::uint64_t deadlocked_count = 0;  // |DL'_v|
  std::uint64_t audits = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t health_warnings = 0;
  std::uint64_t duration() const {
    return complete && end_ts >= start_ts ? end_ts - start_ts : 0;
  }
};

// Load attribution for one PE across the whole trace.
struct PeLoad {
  std::uint16_t pe = 0;
  std::uint64_t wave_samples_r = 0;  // wave_front events on this PE, plane R
  std::uint64_t wave_samples_t = 0;
  double work_share = 0.0;           // this PE's share of all wave samples
  std::uint64_t cycles_participated = 0;
  double idle_fraction = 0.0;        // 1 − participated / completed cycles
  std::uint64_t rescue_queued = 0;
  std::uint64_t coop_taints = 0;
  std::uint64_t health_warnings = 0;
  // Reliable-delivery attribution: retransmits by this PE as sender,
  // duplicates it suppressed as receiver. Counted from trace events;
  // overwritten with exact registry counts by --metrics enrichment.
  std::uint64_t msg_retransmit = 0;
  std::uint64_t msg_dup_suppressed = 0;
  // Batched-plane attribution (this PE as sender). Counted from kBatchFlush
  // events; overwritten by --metrics enrichment.
  std::uint64_t msg_batched = 0;
  std::uint64_t batch_flush = 0;
  // From --metrics enrichment (enrich_with_metrics_json); 0 until provided.
  std::uint64_t mark_tasks = 0;
  std::uint64_t return_tasks = 0;
  std::uint64_t mailbox_high_water = 0;
  // Locality attribution (--metrics enrichment only): spawns by this PE as
  // sender split local/remote, boundary-summary suppressions it made as
  // sender, steals it performed as thief, and the static edge cut over the
  // args edges whose source vertices it owns.
  std::uint64_t remote_messages = 0;
  std::uint64_t local_messages = 0;
  std::uint64_t boundary_dedup = 0;
  std::uint64_t steal_batches = 0;
  std::uint64_t steal_tasks = 0;
  std::uint64_t edge_cut = 0;
  std::uint64_t edges_total = 0;
  double remote_ratio = 0.0;  // remote / (remote + local), 0 when no traffic
};

// Wave-propagation latency distribution for one plane: per (cycle, PE), the
// delay from phase_begin to the PE's first wave_front sample.
struct WaveLatency {
  std::uint64_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

// Evidence chain for one cycle's deadlock report (Theorem 2: DL'_v ⊆ DL).
struct DeadlockPostMortem {
  std::uint64_t cycle = 0;
  std::uint64_t report_ts = 0;
  std::uint64_t count = 0;     // |DL'_v|
  std::uint64_t mt_marks = 0;  // T' was built by this wave...
  std::uint64_t mt_returns = 0;
  std::uint64_t mr_marks = 0;  // ...and R' (vital requests) by this one.
  std::uint64_t mr_returns = 0;
  std::vector<std::pair<std::uint16_t, std::uint64_t>> vertices;  // (pe, idx)
};

// One worker process's row in the cluster rollup (proc-engine runs only;
// filled by enrich_with_metrics_json when the dump carries a "workers"
// array — the cluster form ProcEngine::cluster_metrics_json writes).
struct WorkerRow {
  std::uint32_t worker = 0;
  std::uint32_t pe_begin = 0;
  std::uint32_t pe_count = 0;
  // The PEs the worker owns, ascending; after a recovery this can be
  // non-contiguous or empty. Dumps without "owned_pes" read as the
  // registration block pe_begin..pe_begin+pe_count-1.
  std::vector<std::uint32_t> pes;
  std::uint64_t marks = 0;
  std::uint64_t returns = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t handoff_bytes = 0;
  std::uint64_t handoff_full_bytes = 0;
  std::uint64_t handoff_delta_bytes = 0;
  std::uint64_t relayed_frames = 0;
  std::uint64_t relayed_bytes = 0;
  std::uint64_t telemetry_msgs = 0;
  std::uint64_t telemetry_dropped = 0;
  std::int64_t clock_offset_us = 0;  // worker minus controller; may be < 0
  std::uint64_t clock_rtt_us = 0;    // RTT of the winning offset probe
};

// Session-workload SLO rollup (kSessionOpen/Churn/Close events from the
// src/workload driver; stall fields come from --metrics enrichment, reading
// the mutator_stall_us histogram and the per-phase stall counters).
struct SessionSlo {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t churn = 0;
  std::uint64_t peak_live = 0;       // max concurrently open sessions
  std::uint64_t first_ts = 0;        // first/last session event (engine clock)
  std::uint64_t last_ts = 0;
  // closed / event span. The trace clock is µs on the threaded engine and
  // steps on the simulator, so this is sessions-per-second only for traces
  // with a µs clock (dgr_soak reports a wall-clock rate independently).
  double sessions_per_sec = 0.0;
  // --metrics enrichment. Percentiles are the worst (max) across the per-PE
  // histograms — a conservative ceiling, since log-bucket percentiles don't
  // merge exactly; the attribution totals are exact counter sums in ns.
  std::uint64_t stall_ops = 0;
  double stall_p50_us = 0.0;
  double stall_p99_us = 0.0;
  double stall_p999_us = 0.0;
  double stall_max_us = 0.0;
  std::uint64_t stall_idle_ns = 0;     // stalled while the collector was idle
  std::uint64_t stall_mark_ns = 0;     // ...while a plane was marking
  std::uint64_t stall_quiesce_ns = 0;  // ...while restructuring was due
  std::uint64_t rejected = 0;          // arrivals refused (store full)
};

struct TraceReport {
  std::uint64_t events = 0;
  std::uint32_t num_pes = 0;  // 1 + max pe observed (or metrics-provided)
  bool metrics_enriched = false;
  std::vector<CycleReport> cycles;
  std::uint64_t complete_cycles = 0;
  std::vector<PeLoad> pes;
  WaveLatency wave_r;
  WaveLatency wave_t;
  std::vector<DeadlockPostMortem> deadlocks;
  std::uint64_t health_warnings[kNumHealthKinds] = {};
  std::uint64_t audits = 0;
  std::uint64_t audit_violations = 0;
  // Reliable-delivery totals (kFaultInjected / kMsgRetransmit /
  // kMsgDupSuppressed events; all zero on fault-free traces).
  std::uint64_t faults_injected[kNumFaultKinds] = {};
  std::uint64_t retransmits = 0;
  std::uint64_t dup_suppressed = 0;
  // Batched-plane totals (kBatchFlush events; all zero on unbatched
  // traces).
  std::uint64_t msgs_batched = 0;
  std::uint64_t batch_flushes = 0;
  // Telemetry-loss accounting (kTraceDrop events: ring overwrites upstream
  // plus events past the per-payload cap; zero on a lossless trace).
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_events_omitted = 0;
  // Membership events (kWorkerLost / kPartitionReassign / kHandoffResync;
  // all zero on a run with stable membership).
  std::uint64_t workers_lost = 0;
  std::uint64_t partition_reassigns = 0;  // recovery events, not PEs moved
  std::uint64_t pes_reassigned = 0;       // PEs that changed owner, total
  std::uint64_t handoff_resyncs = 0;
  // Cluster rollup (empty unless the metrics JSON carried worker rows).
  std::vector<WorkerRow> workers;
  // Membership summary from the cluster metrics JSON (gen 0 = no loss).
  std::uint64_t membership_gen = 0;
  std::uint64_t workers_live = 0;
  std::uint64_t workers_total = 0;
  // Session-workload SLO rollup (all zero on traces without a driver).
  SessionSlo sessions;
};

// Build the report from events in emission order (as from_jsonl returns
// them). Tolerates truncated traces (ring wrap): cycles missing their start
// or end are reported incomplete, never dropped silently.
TraceReport analyze(const std::vector<TraceEvent>& events);

// Merge a metrics-registry JSON dump (obs::MetricsRegistry::to_json, the
// file dgr_run --metrics writes) into the per-PE table: exact mark/return
// task counts and the mark_queue_depth high water. Returns false (report
// untouched) when the JSON does not look like a registry dump.
bool enrich_with_metrics_json(TraceReport& report, const std::string& json);

// Deterministic JSON object (stable key order) for --json / CI consumption.
std::string report_to_json(const TraceReport& report);

// Human-readable tables (what dgr_analyze prints by default).
std::string report_to_text(const TraceReport& report);

}  // namespace dgr::obs
