// Structured trace ring buffer for marking-cycle observability.
//
// The controller, marker and mutator emit typed events (cycle start/end,
// plane begin/done, wave-front advance, rescue activity, restructuring
// actions, cooperation taints) into a bounded ring. Timestamps come from an
// engine-supplied clock: sim steps on the deterministic engine (so traces are
// byte-reproducible per seed) and microseconds on the threaded engine.
// Exporters (obs/export.h) turn a snapshot into JSONL or Chrome trace_event
// JSON — see docs/OBSERVABILITY.md for the taxonomy and how to read a cycle.
//
// Emission sites use the DGR_TRACE_EVENT macro, which costs one null test of
// the sink when tracing is not enabled at run time (docs/OBSERVABILITY.md,
// "What tracing costs").
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "graph/vertex.h"

#define DGR_TRACE_EVENT(sink, ...)           \
  do {                                       \
    if (sink) (sink)->emit(__VA_ARGS__);     \
  } while (0)

namespace dgr::obs {

enum class EventType : std::uint8_t {
  kCycleStart = 0,   // controller: cycle kicked off        a = #roots
  kPhaseBegin,       // controller: M_T / M_R wave launched a = epoch
  kPhaseEnd,         // controller: wave terminated         a = marks, b = returns
  kWaveFront,        // marker: every Nth mark exec         a = marks so far
  kRescueWave,       // marker: supplementary wave launched a = #seeds
  kRescueQueued,     // mutator: acquired ref queued        pe = referent's PE
  kCoopTaint,        // mutator: no transient helper; cycle tainted
  kSweep,            // controller: restructure (a)         a = vertices freed
  kExpunge,          // controller: restructure (b)         a = tasks expunged
  kReprioritize,     // controller: restructure (c)         a = tasks retargeted
  kDeadlockReport,   // controller: restructure (d)         a = |DL'_v|
  kDeadlockVertex,   // controller: one DL'_v member        pe = owner, a = idx
  kCycleEnd,         // controller: cycle complete          a = swept, b = expunged
  kAudit,            // engine: safe-point audit ran        a = violations, b = |GAR'|
  kHealthWarning,    // watchdog/audit: health flag         a = HealthKind, b = detail
  kFaultInjected,    // fault plane: fault applied          pe = sender, a = FaultKind, b = bytes
  kMsgRetransmit,    // channel: data frame re-sent         pe = sender, a = seq, b = attempt
  kMsgDupSuppressed, // channel: duplicate discarded        pe = receiver, a = seq
  kBatchFlush,       // message plane: batch flushed        pe = sender, a = #messages, b = bytes
  kTraceDrop,        // telemetry: events lost upstream     a = ring drops, b = payload-cap drops
  kWorkerLost,       // membership: worker declared dead    pe = home PE, a = worker, b = new gen
  kPartitionReassign,// membership: PEs moved to survivors  a = PEs moved, b = survivors
  kHandoffResync,    // membership: replica checksum diverged  a = worker, b = handoff seq
  // Workload driver (src/workload). Payloads are schedule facts, never
  // engine timings, so a seeded run's session events are engine-independent
  // (the determinism contract tested by tests/test_workload.cpp).
  kSessionOpen,      // driver: session admitted   pe = root PE, a = session, b = size
  kSessionChurn,     // driver: churn op applied   pe = root PE, a = session, b = op<<32|hot
  kSessionClose,     // driver: session retired    pe = root PE, a = session, b = ticks lived
  kCount_,
};
inline constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(EventType::kCount_);
const char* event_name(EventType t);

// Payload `a` of kHealthWarning events (emitted by the ThreadEngine watchdog
// and safe-point auditor; see runtime/thread_engine.h).
enum class HealthKind : std::uint8_t {
  kMarkStall = 0,      // marking wave made no front progress   b = stalled marks
  kMailboxSaturated,   // mailbox backlog over threshold        b = backlog, pe set
  kRescueStorm,        // rescue waves over threshold in cycle  b = waves
  kAuditViolation,     // safe-point audit found a violation    b = audit #
  kCount_,
};
inline constexpr std::size_t kNumHealthKinds =
    static_cast<std::size_t>(HealthKind::kCount_);
inline const char* health_kind_name(HealthKind k) {
  switch (k) {
    case HealthKind::kMarkStall: return "mark_stall";
    case HealthKind::kMailboxSaturated: return "mailbox_saturated";
    case HealthKind::kRescueStorm: return "rescue_storm";
    case HealthKind::kAuditViolation: return "audit_violation";
    case HealthKind::kCount_: break;
  }
  return "?";
}

struct TraceEvent {
  std::uint64_t ts = 0;     // engine clock (sim steps / µs)
  std::uint64_t cycle = 0;  // marking-cycle number; 0 = not cycle-scoped
  std::uint64_t a = 0;      // payload (see EventType comments)
  std::uint64_t b = 0;
  EventType type = EventType::kCycleStart;
  Plane plane = Plane::kR;
  std::uint16_t pe = 0;  // track attribution

  bool operator==(const TraceEvent&) const = default;
};

// A synthetic event recording that `ring_dropped` events were overwritten in
// the source ring and `omitted` more fell past the telemetry payload cap
// before this point in the stream. Emitted by the cluster merger (and usable
// by any exporter) so drop accounting rides the normal event path.
inline TraceEvent make_drop_event(std::uint64_t ts, std::uint64_t cycle,
                                  std::uint16_t pe, std::uint64_t ring_dropped,
                                  std::uint64_t omitted) {
  TraceEvent e;
  e.ts = ts;
  e.cycle = cycle;
  e.a = ring_dropped;
  e.b = omitted;
  e.type = EventType::kTraceDrop;
  e.pe = pe;
  return e;
}

class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1 << 14);

  // Engine clock; defaults to 0 until set.
  using Clock = std::function<std::uint64_t()>;
  void set_clock(Clock c);

  void emit(EventType type, Plane plane, std::uint16_t pe, std::uint64_t cycle,
            std::uint64_t a = 0, std::uint64_t b = 0);

  // Events in emission order (oldest surviving first).
  std::vector<TraceEvent> snapshot() const;

  std::size_t size() const;
  std::size_t capacity() const { return ring_.size(); }
  // Events overwritten because the ring wrapped.
  std::uint64_t dropped() const;
  void clear();

 private:
  mutable std::mutex mu_;
  Clock clock_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;     // next write position
  std::size_t count_ = 0;    // valid events (≤ capacity)
  std::uint64_t dropped_ = 0;
};

}  // namespace dgr::obs
