#include "runtime/message_plane.h"

#include <utility>

namespace dgr {

MessagePlane::MessagePlane(std::uint32_t num_pes, const NetOptions& net,
                           FaultPlane::DeliverFn deliver,
                           obs::MetricsRegistry& reg)
    : sink_(std::make_unique<Sink>(Sink{&reg})) {
  if (!net.faults.spec.any()) return;
  Sink* const sink = sink_.get();
  fault_ =
      std::make_unique<FaultPlane>(num_pes, net.faults, std::move(deliver));
  fault_->set_inject_hook(
      [sink](FaultKind k, PeId src, PeId, std::size_t bytes) {
        static constexpr obs::Counter kFaultCounter[kNumFaultKinds] = {
            obs::Counter::kMsgDroppedInjected,
            obs::Counter::kMsgDupInjected,
            obs::Counter::kMsgReorderedInjected,
            obs::Counter::kMsgTruncatedInjected,
        };
        sink->reg->add(src, kFaultCounter[static_cast<std::size_t>(k)]);
        DGR_TRACE_EVENT(sink->trace, obs::EventType::kFaultInjected, Plane::kR,
                        static_cast<std::uint16_t>(src), 0,
                        static_cast<std::uint64_t>(k), bytes);
      });
  FaultPlane* const fault = fault_.get();
  chan_ = std::make_unique<ChannelManager>(
      num_pes, net.reliable, [fault](PeId src, PeId dst, ChannelManager::Bytes f) {
        fault->send(src, dst, std::move(f));
      });
  ChannelManager::Hooks hooks;
  hooks.on_retransmit = [sink](PeId src, PeId, std::uint64_t seq,
                               std::uint32_t attempt) {
    sink->reg->add(src, obs::Counter::kMsgRetransmit);
    DGR_TRACE_EVENT(sink->trace, obs::EventType::kMsgRetransmit, Plane::kR,
                    static_cast<std::uint16_t>(src), 0, seq, attempt);
  };
  hooks.on_dup_suppressed = [sink](PeId dst, PeId, std::uint64_t seq) {
    sink->reg->add(dst, obs::Counter::kMsgDupSuppressed);
    DGR_TRACE_EVENT(sink->trace, obs::EventType::kMsgDupSuppressed, Plane::kR,
                    static_cast<std::uint16_t>(dst), 0, seq);
  };
  hooks.on_decode_error = [sink](PeId pe) {
    sink->reg->add(pe, obs::Counter::kMsgDecodeError);
  };
  hooks.on_rtt = [sink](PeId src, double rtt_us) {
    sink->reg->observe(src, obs::Hist::kChannelRtt, rtt_us);
  };
  chan_->set_hooks(std::move(hooks));
}

}  // namespace dgr
