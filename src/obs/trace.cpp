#include "obs/trace.h"

namespace dgr::obs {

const char* event_name(EventType t) {
  switch (t) {
    case EventType::kCycleStart: return "cycle_start";
    case EventType::kPhaseBegin: return "phase_begin";
    case EventType::kPhaseEnd: return "phase_end";
    case EventType::kWaveFront: return "wave_front";
    case EventType::kRescueWave: return "rescue_wave";
    case EventType::kRescueQueued: return "rescue_queued";
    case EventType::kCoopTaint: return "coop_taint";
    case EventType::kSweep: return "sweep";
    case EventType::kExpunge: return "expunge";
    case EventType::kReprioritize: return "reprioritize";
    case EventType::kDeadlockReport: return "deadlock_report";
    case EventType::kDeadlockVertex: return "deadlock_vertex";
    case EventType::kCycleEnd: return "cycle_end";
    case EventType::kAudit: return "audit";
    case EventType::kHealthWarning: return "health_warning";
    case EventType::kFaultInjected: return "fault_injected";
    case EventType::kMsgRetransmit: return "msg_retransmit";
    case EventType::kMsgDupSuppressed: return "dup_suppressed";
    case EventType::kBatchFlush: return "batch_flush";
    case EventType::kTraceDrop: return "trace_drop";
    case EventType::kWorkerLost: return "worker_lost";
    case EventType::kPartitionReassign: return "partition_reassign";
    case EventType::kHandoffResync: return "handoff_resync";
    case EventType::kSessionOpen: return "session_open";
    case EventType::kSessionChurn: return "session_churn";
    case EventType::kSessionClose: return "session_close";
    case EventType::kCount_: break;
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : ring_(capacity ? capacity : 1) {}

void TraceBuffer::set_clock(Clock c) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_ = std::move(c);
}

void TraceBuffer::emit(EventType type, Plane plane, std::uint16_t pe,
                       std::uint64_t cycle, std::uint64_t a, std::uint64_t b) {
  std::lock_guard<std::mutex> lk(mu_);
  TraceEvent& e = ring_[next_];
  e.ts = clock_ ? clock_() : 0;
  e.cycle = cycle;
  e.a = a;
  e.b = b;
  e.type = type;
  e.plane = plane;
  e.pe = pe;
  next_ = (next_ + 1) % ring_.size();
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++dropped_;
  }
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest surviving event sits at next_ when the ring is full, else at 0.
  const std::size_t start =
      count_ == ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < count_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

std::size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return count_;
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  next_ = 0;
  count_ = 0;
  dropped_ = 0;
}

}  // namespace dgr::obs
