// The engines' shared message-plane stack: a FaultPlane under a
// ChannelManager, wired into an obs::MetricsRegistry and a trace ring.
//
// One rule on every engine: the stack exists exactly when the fault
// schedule is nonzero (net.faults.spec.any(); NetOptions lives in
// net/reliable_channel.h). Outgoing payloads then take
// channel → fault plane → `deliver`, and every received frame runs back
// through the channel, which hands up an exactly-once in-order payload
// stream. Without faults the plane is bare: each message is one encoded task
// and receive() decodes it directly.
//
// ThreadEngine delivers into the destination PE's mailbox; WorkerEngine
// stages into its per-destination kData batch.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "core/task.h"
#include "net/fault_plane.h"
#include "net/reliable_channel.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dgr {

// A batch of `payloads` messages (`bytes` long) left `src`, under a size cap
// of `cap` bytes: counters, fill histogram (skipped at cap 0, where every
// batch holds one message), trace event. Shared by the channel's frames and
// ThreadEngine's fast-path batches.
inline void note_batch_flush(obs::MetricsRegistry& reg,
                             obs::TraceBuffer* trace, PeId src,
                             std::size_t payloads, std::size_t bytes,
                             std::uint32_t cap) {
  reg.add(src, obs::Counter::kBatchFlush);
  reg.add(src, obs::Counter::kMsgBatched, payloads);
  if (cap > 0)
    reg.observe(src, obs::Hist::kBatchFillPct,
                100.0 * static_cast<double>(bytes) / static_cast<double>(cap));
  DGR_TRACE_EVENT(trace, obs::EventType::kBatchFlush, Plane::kR,
                  static_cast<std::uint16_t>(src), 0,
                  static_cast<std::uint64_t>(payloads),
                  static_cast<std::uint64_t>(bytes));
}

class MessagePlane {
 public:
  // Builds the fault plane + channel pair when net.faults.spec.any(), else
  // nothing. The hooks charge `reg`.
  MessagePlane(std::uint32_t num_pes, const NetOptions& net,
               FaultPlane::DeliverFn deliver, obs::MetricsRegistry& reg);

  // The ring the hooks emit into, read when each event fires (an engine may
  // enable tracing after its plane exists). Null = none.
  void set_trace(obs::TraceBuffer* t) { sink_->trace = t; }

  // Null on the bare plane.
  FaultPlane* fault() const { return fault_.get(); }
  ChannelManager* channel() const { return chan_.get(); }

  // Receive one message at `owner`, executed by `pe` (a thief runs a stolen
  // frame as the owner's receiver, so channel state stays exactly-once).
  // Each payload that decodes as a task goes to exec(const Task&); one that
  // does not is counted as kMsgDecodeError against `pe` and skipped.
  // `now()` is read only on the channel path. Returns the payloads consumed,
  // executed or not.
  template <class Now, class Exec>
  std::size_t receive(PeId pe, PeId owner, std::span<const std::uint8_t> msg,
                      Now&& now, Exec&& exec) {
    if (!chan_) {
      run(pe, msg, exec);
      return 1;
    }
    std::size_t n = 0;
    for (const auto& payload : chan_->on_frame(owner, msg, now())) {
      run(pe, payload, exec);
      ++n;
    }
    return n;
  }

 private:
  template <class Exec>
  void run(PeId pe, std::span<const std::uint8_t> payload, Exec& exec) {
    if (const std::optional<Task> t = try_decode_task(payload)) {
      exec(*t);
    } else {
      // Unreachable unless corruption slips past the frame checksum; loud,
      // never fatal.
      sink_->reg->add(pe, obs::Counter::kMsgDecodeError);
    }
  }

  // What the hooks charge. On the heap so the hooks outlive a move of the
  // plane (WorkerEngine builds a fresh one at every membership fence).
  struct Sink {
    obs::MetricsRegistry* reg;
    obs::TraceBuffer* trace = nullptr;
  };
  std::unique_ptr<Sink> sink_;
  std::unique_ptr<FaultPlane> fault_;   // declared first: chan_ sends into it
  std::unique_ptr<ChannelManager> chan_;
};

}  // namespace dgr
