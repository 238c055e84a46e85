// The engines' shared message-plane stack: a FaultPlane under a
// ChannelManager, wired into an obs::MetricsRegistry and a trace ring.
//
// One rule on every engine: the stack exists exactly when the fault
// schedule is nonzero (net.faults.spec.any(); NetOptions lives in
// net/reliable_channel.h). A message is always one task batch (net/frame.h),
// staged and flushed by the engine that sends it. Without faults the batch
// itself is the message; with faults the engine hands it to the channel,
// which sends it as the one payload of a data frame through the fault plane
// to `deliver`, and every received frame runs back through the channel,
// which hands up an exactly-once in-order stream of batches. Either way
// receive() is where a batch is split and its tasks decoded.
//
// ThreadEngine delivers into the destination PE's mailbox; WorkerEngine
// writes each frame to its socket as one kData frame.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/task.h"
#include "net/fault_plane.h"
#include "net/frame.h"
#include "net/reliable_channel.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dgr {

// A batch of `tasks` tasks (`bytes` long) left `src`, under a size cap of
// `cap` bytes: counters, fill histogram (skipped at cap 0, where every batch
// holds one task), trace event. Each engine's flush routine calls it once
// per batch, on the bare plane and under faults alike.
inline void note_batch_flush(obs::MetricsRegistry& reg,
                             obs::TraceBuffer* trace, PeId src,
                             std::size_t tasks, std::size_t bytes,
                             std::uint32_t cap) {
  reg.add(src, obs::Counter::kBatchFlush);
  reg.add(src, obs::Counter::kMsgBatched, tasks);
  if (cap > 0)
    reg.observe(src, obs::Hist::kBatchFillPct,
                100.0 * static_cast<double>(bytes) / static_cast<double>(cap));
  DGR_TRACE_EVENT(trace, obs::EventType::kBatchFlush, Plane::kR,
                  static_cast<std::uint16_t>(src), 0,
                  static_cast<std::uint64_t>(tasks),
                  static_cast<std::uint64_t>(bytes));
}

// Append `t` to the task batch `batch` as one message; returns its encoded
// size.
inline std::size_t batch_append_task(std::vector<std::uint8_t>& batch,
                                     const Task& t) {
  const std::size_t at = batch_open(batch);
  append_task(batch, t);
  batch_close(batch, at);
  return batch.size() - at - kBatchPrefixSize;
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
  // Each task of each batch the message releases goes to exec(const Task&);
  // one that does not decode is counted as kMsgDecodeError against `pe` and
  // skipped. `now()` is read only on the channel path. Returns false when a
  // batch was malformed (counted too, none of its tasks run): a worker
  // treats that as a protocol error.
  template <class Now, class Exec>
  bool receive(PeId pe, PeId owner, std::span<const std::uint8_t> msg,
               Now&& now, Exec&& exec) {
    if (!chan_) return run(pe, msg, exec);
    bool ok = true;
    for (const auto& batch : chan_->on_frame(owner, msg, now()))
      ok = run(pe, batch, exec) && ok;
    return ok;
  }

 private:
  template <class Exec>
  bool run(PeId pe, std::span<const std::uint8_t> batch, Exec& exec) {
    // Under faults a malformed batch or task is unreachable unless
    // corruption slips past the frame checksum; loud either way.
    if (!batch_count(batch)) {
      sink_->reg->add(pe, obs::Counter::kMsgDecodeError);
      return false;
    }
    batch_for_each(batch, [&](std::span<const std::uint8_t> m) {
      if (const std::optional<Task> t = try_decode_task(m))
        exec(*t);
      else
        sink_->reg->add(pe, obs::Counter::kMsgDecodeError);
    });
    return true;
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
