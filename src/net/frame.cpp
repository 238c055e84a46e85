#include "net/frame.h"

#include <cstring>

namespace dgr {
namespace {

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 24));
}

void set_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kData: return "data";
    case FrameType::kSeed: return "seed";
    case FrameType::kRegister: return "register";
    case FrameType::kRegisterAck: return "register_ack";
    case FrameType::kReject: return "reject";
    case FrameType::kHandoff: return "handoff";
    case FrameType::kPlaneBegin: return "plane_begin";
    case FrameType::kRescueBegin: return "rescue_begin";
    case FrameType::kQuiesce: return "quiesce";
    case FrameType::kMarkReport: return "mark_report";
    case FrameType::kPlaneDone: return "plane_done";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kTelemetry: return "telemetry";
    case FrameType::kClockProbe: return "clock_probe";
    case FrameType::kClockEcho: return "clock_echo";
    case FrameType::kEpochFence: return "epoch_fence";
    case FrameType::kHandoffAck: return "handoff_ack";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(const NetFrame& f) {
  std::vector<std::uint8_t> b;
  b.reserve(kFrameHeaderSize + f.payload.size());
  open_frame(b, f.type, f.gen, f.src, f.dst);
  b.insert(b.end(), f.payload.begin(), f.payload.end());
  seal_frame(b, 0);
  return b;
}

std::size_t open_frame(std::vector<std::uint8_t>& wire, FrameType type,
                       std::uint16_t gen, PeId src, PeId dst) {
  const std::size_t at = wire.size();
  put_u32(wire, kFrameMagic);
  wire.push_back(kFrameVersion);
  wire.push_back(static_cast<std::uint8_t>(type));
  wire.push_back(static_cast<std::uint8_t>(gen));
  wire.push_back(static_cast<std::uint8_t>(gen >> 8));
  put_u32(wire, src);
  put_u32(wire, dst);
  put_u32(wire, 0);  // payload length, patched by seal_frame
  return at;
}

void seal_frame(std::vector<std::uint8_t>& wire, std::size_t at) {
  set_u32(wire.data() + at + 16,
          static_cast<std::uint32_t>(wire.size() - at - kFrameHeaderSize));
}

std::size_t batch_open(std::vector<std::uint8_t>& batch) {
  const std::size_t at = batch.size();
  put_u32(batch, 0);  // patched by batch_close
  return at;
}

void batch_close(std::vector<std::uint8_t>& batch, std::size_t at) {
  set_u32(batch.data() + at,
          static_cast<std::uint32_t>(batch.size() - at - kBatchPrefixSize));
}

std::optional<std::size_t> batch_count(std::span<const std::uint8_t> batch) {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos < batch.size(); ++n) {
    const std::size_t left = batch.size() - pos;
    if (left < kBatchPrefixSize) return std::nullopt;
    const std::uint32_t len = get_u32(batch.data() + pos);
    if (left - kBatchPrefixSize < len) return std::nullopt;
    pos += kBatchPrefixSize + len;
  }
  return n;
}

void FrameCodec::feed(const std::uint8_t* p, std::size_t n) {
  if (error_ || n == 0) return;
  // A partially decoded frame survived the previous feed boundary: when it
  // finally completes, that is one partial-read resume.
  if (mid_frame_ && !resumed_) {
    resumed_ = true;
    ++partial_resumes_;
  }
  // Compact the consumed prefix before growing, so a long-lived connection
  // doesn't accrete every byte it ever saw.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), p, p + n);
  mid_frame_ = buf_.size() > pos_;  // any unconsumed bytes = a frame in flight
}

bool FrameCodec::next(NetFrame& out) {
  if (error_) return false;
  const std::size_t avail = buf_.size() - pos_;
  const std::uint8_t* h = buf_.data() + pos_;
  // Validate the magic/version prefix on however many bytes have arrived:
  // garbage shorter than a full header must surface as an error immediately,
  // not leave the connection wedged waiting for a header that never comes.
  for (std::size_t i = 0; i < avail && i < 4; ++i) {
    if (h[i] != static_cast<std::uint8_t>(kFrameMagic >> (8 * i))) {
      fail("bad magic");
      return false;
    }
  }
  if (avail >= 5 && h[4] != kFrameVersion) {
    fail("unsupported version");
    return false;
  }
  if (avail < kFrameHeaderSize) return false;
  const std::uint32_t len = get_u32(h + 16);
  if (len > max_payload_) {
    ++oversized_;
    fail("oversized frame");
    return false;
  }
  if (avail < kFrameHeaderSize + len) return false;
  out.type = static_cast<FrameType>(h[5]);
  out.gen = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(h[6]) |
      (static_cast<std::uint16_t>(h[7]) << 8));
  out.src = get_u32(h + 8);
  out.dst = get_u32(h + 12);
  out.payload.assign(h + kFrameHeaderSize, h + kFrameHeaderSize + len);
  pos_ += kFrameHeaderSize + len;
  mid_frame_ = buf_.size() > pos_;
  resumed_ = false;  // the next frame starts a fresh straddle count
  return true;
}

}  // namespace dgr
