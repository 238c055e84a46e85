// Socket frame format + incremental decoder.
//
// Every byte crossing a ProcEngine socket is a length-prefixed frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------
//        0     4  magic 'DGRF' (0x46524744 little-endian)
//        4     1  version (kFrameVersion)
//        5     1  type (FrameType)
//        6     2  membership generation (u16 LE; 0 until a worker is lost)
//        8     4  src endpoint / PE (u32 LE)
//       12     4  dst endpoint / PE (u32 LE)
//       16     4  payload length in bytes (u32 LE)
//       20     n  payload
//
// The decoder is incremental: feed() it whatever read() returned — half a
// header, three frames and a tail, anything — and next() yields complete
// frames in order. A frame whose bytes arrived across more than one feed()
// bumps partial_resumes (exported as TransportStats::partial_read_resumes).
// Bad magic, unknown version, or an oversized payload is a sticky error:
// the stream is unframed garbage and the connection must drop.
//
// A task batch — the kData payload on a fault-free plane, and the one
// payload of a reliable-channel frame (net/reliable_channel.h) under faults
// — is a run of messages, each prefixed by its length:
//
//   repeat { u32 LE length n; n message bytes }
//
// Each engine stages one batch per destination PE and flushes it whole:
// WorkerEngine as one kData frame (or one channel frame inside one), which
// the hub routes by dst without opening; ThreadEngine as one mailbox
// message. MessagePlane::receive (runtime/message_plane.h) splits it and
// decodes its tasks. A length running past the end, or a tail too short for
// a length, makes the batch malformed: on a worker a protocol error, like a
// malformed frame.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/ids.h"

namespace dgr {

inline constexpr std::uint32_t kFrameMagic = 0x46524744u;  // "DGRF"
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 20;
// Largest payload a peer may send; a full-graph handoff at the default
// chaos-harness scale is ~100 KiB, so 16 MiB is a generous ceiling.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

enum class FrameType : std::uint8_t {
  kData = 0,      // message-plane payload: task batch / channel frame
  kSeed = 1,      // controller-originated marking task, bypasses the channel
  kRegister = 2,  // worker → controller: first frame on a connection
  kRegisterAck = 3,  // controller → worker: accepted, carries config
  kReject = 4,       // controller → worker: refused, carries reason
  kHandoff = 5,      // controller → worker: graph partition snapshot
  kPlaneBegin = 6,   // controller → workers: a marking plane opens
  kRescueBegin = 7,  // controller → workers: rescue wave reopens the plane
  kQuiesce = 8,      // controller → workers: wave done, flush + report
  kMarkReport = 9,   // worker → controller: per-vertex mark results
  kPlaneDone = 10,   // worker → controller: termination return reached root
  kShutdown = 11,    // controller → workers: exit cleanly
  // Telemetry plane (docs/OBSERVABILITY.md "Observing a cluster run").
  kTelemetry = 12,   // worker → controller: metrics/trace delta per quiesce
  kClockProbe = 13,  // controller → worker: clock-offset probe (echoed back)
  kClockEcho = 14,   // worker → controller: probe + worker clock sample
  // Dynamic membership (docs/CLUSTER.md "Membership and failure model").
  kEpochFence = 15,   // controller → workers: adopt gen, void stale traffic
  kHandoffAck = 16,   // worker → controller: handoff seq + checksum verdict
};

const char* frame_type_name(FrameType t);

struct NetFrame {
  FrameType type = FrameType::kData;
  // Membership generation the sender believed current. Bumped by the
  // controller when a worker is lost; receivers drop kData/kSeed frames whose
  // gen differs from their own (the epoch fence), so marks from a failed
  // wave cannot leak into the restarted one. 0 until the first loss.
  std::uint16_t gen = 0;
  PeId src = 0;
  PeId dst = 0;
  std::vector<std::uint8_t> payload;
};

// Serialize header + payload into one contiguous buffer.
std::vector<std::uint8_t> encode_frame(const NetFrame& f);

// Build a frame in place: open_frame appends a header with a zero payload
// length to `wire` and returns its offset; append the payload after it, then
// seal_frame patches the length in.
std::size_t open_frame(std::vector<std::uint8_t>& wire, FrameType type,
                       std::uint16_t gen, PeId src, PeId dst);
void seal_frame(std::vector<std::uint8_t>& wire, std::size_t at);

// ---- Task batches (format above) ----

inline constexpr std::size_t kBatchPrefixSize = 4;

// Open a message at the end of a batch: reserves its length prefix and
// returns the offset to hand to batch_close once its bytes are appended.
std::size_t batch_open(std::vector<std::uint8_t>& batch);
void batch_close(std::vector<std::uint8_t>& batch, std::size_t at);

// The messages in `batch`, or nullopt when it is malformed.
std::optional<std::size_t> batch_count(std::span<const std::uint8_t> batch);

// Calls fn(message) for each message of a batch that batch_count accepted,
// in order. The views point into `batch`: no copies.
template <class Fn>
void batch_for_each(std::span<const std::uint8_t> batch, Fn&& fn) {
  for (std::size_t pos = 0; pos < batch.size();) {
    const std::uint8_t* p = batch.data() + pos;
    const std::size_t len = static_cast<std::size_t>(p[0]) | (p[1] << 8) |
                            (p[2] << 16) | (std::size_t{p[3]} << 24);
    fn(batch.subspan(pos + kBatchPrefixSize, len));
    pos += kBatchPrefixSize + len;
  }
}

// Incremental frame reassembler for one connection's byte stream.
class FrameCodec {
 public:
  explicit FrameCodec(std::uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  // Append n raw stream bytes. No-op after a sticky error.
  void feed(const std::uint8_t* p, std::size_t n);

  // Extract the next complete frame. Returns false when more bytes are
  // needed or the stream is in error.
  bool next(NetFrame& out);

  bool error() const { return error_; }
  const char* error_reason() const { return error_reason_; }

  // Frames whose bytes spanned more than one feed() call.
  std::uint64_t partial_resumes() const { return partial_resumes_; }
  // Frames rejected for exceeding max_payload.
  std::uint64_t oversized() const { return oversized_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;       // consumed prefix of buf_
  bool mid_frame_ = false;    // a frame straddles the last feed boundary
  bool resumed_ = false;      // current frame already straddled a boundary
  bool error_ = false;
  const char* error_reason_ = "";
  std::uint64_t partial_resumes_ = 0;
  std::uint64_t oversized_ = 0;
  std::uint32_t max_payload_;

  void fail(const char* reason) {
    error_ = true;
    error_reason_ = reason;
  }
};

}  // namespace dgr
