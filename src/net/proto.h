// ProcEngine control-plane payloads: worker configuration, graph-partition
// handoff, and mark-report merge (docs/CLUSTER.md has the frame walkthrough).
//
// All payloads ride inside net/frame.h frames and use the same ByteWriter /
// ByteReader conventions as the task wire format. Decoders are recoverable
// (sticky-failure readers, bool returns) — a malformed control payload drops
// the connection rather than aborting the process.
//
// A handoff ships exactly what a marking replica reads: vertex liveness,
// topology (args with request kind + request epoch, requested,
// stale_requested), and both epoch-tagged mark planes. Values, evaluation
// state, and free lists stay controller-side — workers only mark; they never
// reduce, allocate, or sweep (the restructuring phase is centralized, per
// the paper's "we concentrate solely upon the mark phase").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/marker.h"
#include "graph/graph.h"
#include "net/reliable_channel.h"
#include "net/wire.h"
#include "obs/metrics.h"  // Counter/Hist index bounds (inline constants only)
#include "obs/trace.h"    // TraceEvent

namespace dgr {

// 2: kData payloads are length-prefixed message batches (net/frame.h).
// 3: WorkerConfig loses its channel-enable byte (the channel runs exactly
// when the fault schedule is nonzero). An older worker would misread
// either, so the hub refuses it at kRegister.
// 4: a channel frame carries exactly one payload, a task batch, and under
// faults each kData payload is one channel frame instead of a batch of them.
inline constexpr std::uint32_t kProtoVersion = 4;
// kRegister flag bits.
inline constexpr std::uint32_t kRegisterFlagReconnect = 1u << 0;
// "Assign me any free slot" worker index in a kRegister payload.
inline constexpr std::uint32_t kAnyWorkerIndex = 0xffffffffu;

using Bytes = std::vector<std::uint8_t>;

// Everything a worker needs to mirror the controller's engine configuration,
// delivered inside the kRegisterAck frame.
struct WorkerConfig {
  std::uint32_t num_pes = 0;
  std::uint32_t pe_begin = 0;  // contiguous owned PE block [pe_begin,
  std::uint32_t pe_count = 0;  //                            pe_begin+pe_count)
  // Worker<->worker message plane: a nonzero schedule runs the reliable
  // channel over a fault plane, worker side. ProcEngine gives each worker
  // its own net.faults.seed.
  NetOptions net;
  // Telemetry plane: capture a worker-side trace ring and ship it at every
  // quiesce (counters always ship).
  bool trace_enabled = false;
  std::uint32_t trace_capacity = 1u << 14;
};

Bytes encode_worker_config(const WorkerConfig& c);
bool decode_worker_config(const Bytes& b, WorkerConfig& out);

// kRegister payload.
struct RegisterMsg {
  std::uint32_t proto_version = kProtoVersion;
  std::uint32_t flags = 0;
  std::uint32_t worker_index = kAnyWorkerIndex;
};
Bytes encode_register(const RegisterMsg& m);
bool decode_register(const Bytes& b, RegisterMsg& out);

// kRegisterAck payload: the slot the controller assigned plus the config.
struct RegisterAckMsg {
  std::uint32_t worker_index = 0;
  std::uint32_t num_workers = 0;
  WorkerConfig config;
};
Bytes encode_register_ack(const RegisterAckMsg& m);
bool decode_register_ack(const Bytes& b, RegisterAckMsg& out);

// kReject payload.
struct RejectMsg {
  std::uint32_t code = 0;
  std::string reason;
};
Bytes encode_reject(const RejectMsg& m);
bool decode_reject(const Bytes& b, RejectMsg& out);

// kPlaneBegin / kQuiesce / kPlaneDone payload: which plane, which epoch.
Bytes encode_plane_signal(Plane plane, std::uint64_t epoch);
bool decode_plane_signal(const Bytes& b, Plane& plane, std::uint64_t& epoch);

// One vertex's marking-relevant state (see header comment).
void encode_vertex_record(ByteWriter& w, std::uint32_t idx, const Vertex& v);
bool decode_vertex_record(ByteReader& r, std::uint32_t& idx, Vertex& v);

// ---- kHandoff: full snapshots and differential frames ----
//
// A handoff is tailored to one worker: full records for its owned PEs,
// liveness views for the rest (mark3 consults liveness of possibly-remote
// stale_requested entries). Ownership travels inside the payload as a
// per-PE flag, so a repartition-on-survivors needs no separate assignment
// frame — the worker adopts whatever the latest handoff says it owns.
//
// Two kinds ride the same frame type:
//   kHandoffFull   — wipe and rebuild every store (the PR-7 behavior);
//   kHandoffDelta  — only slots whose structural state changed since the
//                    last handoff this worker acked. Mark planes are
//                    epoch-tagged (stale state is semantically unmarked), so
//                    deltas track structure only: liveness, aux, op, args
//                    (to/req/req_epoch), requested, stale_requested.
//
// Every handoff carries the structural checksum of the post-apply view; the
// worker recomputes it over its replica and answers kHandoffAck. A mismatch
// (diverged replica) makes the controller fence the epoch and force a full
// resync — see docs/CLUSTER.md "Membership and failure model".
inline constexpr std::uint8_t kHandoffFull = 0;
inline constexpr std::uint8_t kHandoffDelta = 1;

// Decoded kHandoff header (the body is consumed by apply_handoff).
struct HandoffMsg {
  std::uint8_t kind = kHandoffFull;
  std::uint64_t seq = 0;       // controller scan sequence being shipped
  std::uint64_t checksum = 0;  // expected post-apply structural checksum
};

// kHandoffAck payload (worker → controller, same FIFO as its mark reports).
struct HandoffAckMsg {
  std::uint64_t seq = 0;
  bool ok = true;  // false: replica checksum diverged, needs a full resync
};
Bytes encode_handoff_ack(const HandoffAckMsg& m);
bool decode_handoff_ack(const Bytes& b, HandoffAckMsg& out);

// Structural checksum of one worker's view: per PE the capacity, then for
// owned PEs every live slot's structural fields, for the rest the liveness
// bits. Computed identically over the authoritative graph and a replica.
// owned[pe] != 0 marks the worker's PEs (owned.size() == num_pes).
std::uint64_t handoff_checksum(const Graph& g,
                               const std::vector<std::uint8_t>& owned);

// Controller-side change tracker behind differential handoffs. scan() runs
// one O(V) fingerprint pass per plane begin; encode() then cuts per-worker
// payloads against each worker's acked baseline.
class HandoffTracker {
 public:
  // Refresh per-slot structural fingerprints; slots that moved are stamped
  // with the new scan sequence. Call once per plane begin, before encode().
  void scan(const Graph& g);
  std::uint64_t seq() const { return seq_; }

  // Cut the handoff for one worker. `since` is the scan sequence the worker
  // last acked (0 = nothing); force_full or since == 0 ships a snapshot.
  // A delta that would not undercut the snapshot falls back to full.
  // On return *kind_out (if set) says which kind was encoded.
  Bytes encode(const Graph& g, const std::vector<std::uint8_t>& owned,
               std::uint64_t since, bool force_full,
               std::uint8_t* kind_out = nullptr) const;

 private:
  std::uint64_t seq_ = 0;
  std::vector<std::vector<std::uint64_t>> fp_;       // [pe][idx] fingerprint
  std::vector<std::vector<std::uint64_t>> changed_;  // [pe][idx] last scan
};

// Worker side: apply a full or delta handoff onto the replica. Updates
// `owned` from the payload's per-PE flags and returns the decoded header in
// `out`. Returns false on a malformed payload or a delta that disagrees with
// the replica's shape (caller should nack and await a full resync).
bool apply_handoff(const Bytes& b, Graph& g, std::vector<std::uint8_t>& owned,
                   HandoffMsg& out);

// kRescueBegin: the plane reopens, and the controller-minted rescue root
// (possibly a slot the handoff never shipped) is replicated to every worker.
Bytes encode_rescue_begin(Plane plane, std::uint64_t epoch, VertexId root,
                          const Vertex& v);
bool apply_rescue_begin(const Bytes& b, Graph& g, Plane& plane,
                        std::uint64_t& epoch);

// kMarkReport: the wave's per-vertex results for one worker's owned PEs —
// every slot (aux included) whose plane record is tagged with this epoch —
// plus the worker's wave counters. `pes` is the worker's owned PE set (not
// necessarily contiguous once a repartition-on-survivors has run).
Bytes encode_mark_report(const Graph& g, Plane plane, std::uint64_t epoch,
                         const std::vector<PeId>& pes, const MarkStats& stats);
// Controller side: merge the marks into the authoritative graph (mt_cnt and
// mt_par are tree-collapse scaffolding — gone by termination — so they merge
// as 0 / invalid). Returns false on a malformed payload or epoch mismatch.
bool apply_mark_report(const Bytes& b, Graph& g, Plane expect_plane,
                       std::uint64_t expect_epoch, MarkStats& stats_out);

// ---- Telemetry plane (net/clock_sync.h has the offset estimator) ----

// kClockProbe payload (controller → worker). The worker echoes every field
// back in its kClockEcho so the controller computes RTT and offset without
// per-sequence bookkeeping.
struct ClockProbeMsg {
  std::uint32_t seq = 0;
  std::uint64_t t_controller_us = 0;
};
Bytes encode_clock_probe(const ClockProbeMsg& m);
bool decode_clock_probe(const Bytes& b, ClockProbeMsg& out);

// kClockEcho payload (worker → controller).
struct ClockEchoMsg {
  std::uint32_t seq = 0;
  std::uint64_t t_controller_us = 0;  // echoed probe field
  std::uint64_t t_worker_us = 0;      // worker clock at echo time
};
Bytes encode_clock_echo(const ClockEchoMsg& m);
bool decode_clock_echo(const Bytes& b, ClockEchoMsg& out);

// Hard cap on trace events per kTelemetry payload. A quiesce interval that
// drained more is truncated (newest dropped) and the remainder surfaces in
// events_omitted — the payload stays bounded no matter how hot the plane.
inline constexpr std::size_t kMaxTelemetryEvents = 8192;

// kTelemetry payload (worker → controller), sent at every quiesce barrier
// immediately before the kMarkReport on the same FIFO connection — so the
// controller has merged the interval's telemetry before the wave's final
// report lets the cycle advance. Counters and histogram buckets travel as
// deltas since the worker's previous report (nonzero entries only): the
// wire cost tracks activity, not registry width.
struct TelemetryMsg {
  Plane plane = Plane::kR;
  std::uint64_t epoch = 0;
  std::uint32_t pe_begin = 0;  // owned PE block, mirrors the mark report
  std::uint32_t pe_count = 0;

  struct CounterDelta {
    std::uint32_t pe = 0;
    std::uint8_t counter = 0;  // obs::Counter index
    std::uint64_t delta = 0;
  };
  std::vector<CounterDelta> counters;

  // One entry per (pe, hist) with activity: the changed log-buckets plus the
  // worker's cumulative max for that histogram (bucket midpoints alone would
  // understate it on the controller).
  struct HistDelta {
    std::uint32_t pe = 0;
    std::uint8_t hist = 0;  // obs::Hist index
    double max = 0.0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
  };
  std::vector<HistDelta> hists;

  // Trace events drained from the worker's ring this interval (empty unless
  // trace_enabled), capped at kMaxTelemetryEvents.
  std::vector<obs::TraceEvent> events;
  std::uint64_t events_omitted = 0;  // drained but over the payload cap
  std::uint64_t ring_dropped = 0;    // ring overwrites since the last report
};
Bytes encode_telemetry(const TelemetryMsg& m);
bool decode_telemetry(const Bytes& b, TelemetryMsg& out);

}  // namespace dgr
