// Reliable delivery over an unreliable message plane.
//
// ChannelManager maintains one logical channel per directed PE pair and
// turns the fault plane's at-most-once, possibly-duplicated, possibly-
// reordered, possibly-truncated frame delivery into exactly-once in-order
// payload delivery — the discipline Hudak's marking correctness argument
// (Axioms 1–6) silently assumes of the fabric:
//
//   sender     per-pair sequence numbers; unacked frames buffered with their
//              send timestamps; timeout-driven retransmission with capped
//              exponential backoff (serviced from the owning PE's loop);
//   receiver   cumulative acks (deferred or piggybacked, and re-armed by
//              every data frame, so lost acks are repaired by the
//              retransmit → re-ack exchange), an out-of-order buffer that
//              releases payloads strictly in sequence, and duplicate
//              suppression (seq below the in-order frontier or already
//              buffered);
//   framing    every frame carries its payload length and an FNV-1a
//              checksum, so a truncated or corrupted frame fails decode
//              recoverably and is simply dropped — retransmission recovers
//              the payload.
//
// A data frame carries exactly one payload, framed and transmitted the
// moment send() is called. The channel does no coalescing of its own: the
// engines hand it whole task batches (their per-pair byte batches, one
// payload per flush), so one frame = one sequence number = one ack already
// amortizes the per-message protocol cost over a batch. Acks piggyback on
// reverse-direction data frames (the `ack` field carries the receiver's
// cumulative frontier); standalone acks are deferred up to batch_flush_us
// and sent from service() only when no reverse data materializes.
//
// Frames leave through a SendFn (the fault plane, a bare mailbox, or a test
// harness) and arrive via on_frame. Time is passed in explicitly
// (microseconds, any monotonic origin), which keeps the protocol state
// machine deterministic and unit-testable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "graph/ids.h"
#include "net/fault_plane.h"

namespace dgr {

struct ReliableOptions {
  std::uint64_t rto_initial_us = 300;  // first retransmit timeout
  std::uint64_t rto_max_us = 20000;    // backoff cap
  std::uint32_t max_retransmit_batch = 32;  // frames re-sent per service()
  // The engines' task-batch knobs, on the bare plane and under faults alike.
  std::uint32_t batch_bytes = 4096;    // batch size cap; 0 = one task a batch
  std::uint64_t batch_flush_us = 100;  // batch age cap; the channel's ack delay
};

// The one message-plane configuration, held by every engine (ThreadEngine,
// ProcEngine's workers via WorkerConfig) and by MessagePlane: a nonzero
// fault schedule runs the reliable channel over a fault plane; the batching
// knobs apply with or without it.
struct NetOptions {
  FaultPlaneOptions faults;
  ReliableOptions reliable;
};

// One decoded frame. `src`/`dst` identify the *data direction* of the
// channel: an ack for channel (s → d) travels d → s but still carries
// src = s, dst = d.
struct ChannelFrame {
  bool is_data = true;
  PeId src = 0;
  PeId dst = 0;
  std::uint64_t seq = 0;  // data: sequence number; ack: cumulative ack
  // Data frames: piggybacked cumulative ack for the reverse channel
  // (dst → src); 0 = no information. Always 0 on standalone ack frames.
  std::uint64_t ack = 0;
  // A data frame's one payload, delivered in frame-sequence order. Empty on
  // ack frames.
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> encode_frame(const ChannelFrame& f);
// nullopt on truncated input or checksum mismatch — never aborts.
std::optional<ChannelFrame> try_decode_frame(
    std::span<const std::uint8_t> bytes);
// The payload a data frame carries, read without checking the frame (empty
// for an ack frame or a header too short to tell; clipped to the frame's
// bytes). A mailbox counts a frame's tasks with it.
std::span<const std::uint8_t> frame_payload(
    std::span<const std::uint8_t> bytes);

class ChannelManager {
 public:
  using Bytes = std::vector<std::uint8_t>;
  using SendFn = std::function<void(PeId src, PeId dst, Bytes frame)>;

  // Observability hooks; all fire on cold paths only.
  struct Hooks {
    // A data frame was re-sent (attempt counts from 2).
    std::function<void(PeId src, PeId dst, std::uint64_t seq,
                       std::uint32_t attempt)>
        on_retransmit;
    // A duplicate data frame was suppressed at the receiver.
    std::function<void(PeId dst, PeId src, std::uint64_t seq)>
        on_dup_suppressed;
    // A frame failed to decode at `pe` (truncation/corruption).
    std::function<void(PeId pe)> on_decode_error;
    // Clean (never-retransmitted) round-trip time sample for a frame sent
    // by `src` (Karn's rule: retransmitted frames yield no RTT sample).
    std::function<void(PeId src, double rtt_us)> on_rtt;
  };

  ChannelManager(std::uint32_t num_pes, ReliableOptions opt, SendFn send);

  ChannelManager(const ChannelManager&) = delete;
  ChannelManager& operator=(const ChannelManager&) = delete;

  void set_hooks(Hooks h) { hooks_ = std::move(h); }

  // Sender side: frame `payload` as (src → dst)'s next data frame, keep it
  // for retransmission until acked, and transmit it now.
  void send(PeId src, PeId dst, std::span<const std::uint8_t> payload,
            std::uint64_t now_us);

  // Receiver side: feed one raw frame that arrived at `pe`. Returns the
  // payloads newly deliverable in order (possibly none: out-of-order data,
  // duplicate, ack, or garbage). Acks are replied/processed internally.
  std::vector<Bytes> on_frame(PeId pe, std::span<const std::uint8_t> frame,
                              std::uint64_t now_us);

  // Timers for PE `pe`: retransmits for channels it sends on, plus due
  // deferred acks for channels it receives on. Call from the owning PE's
  // loop; cheap when nothing is due.
  void service(PeId pe, std::uint64_t now_us);

  struct Stats {
    std::uint64_t data_sent = 0;        // first transmissions (frames)
    std::uint64_t retransmits = 0;
    std::uint64_t delivered = 0;        // payloads released in order
    std::uint64_t dup_suppressed = 0;
    std::uint64_t acks_sent = 0;        // standalone ack frames
    std::uint64_t decode_errors = 0;
    std::uint64_t unacked = 0;          // snapshot: still awaiting ack
  };
  Stats stats() const;  // aggregate over all channels
  // Frames sent on (src → dst) and not yet cumulatively acked.
  std::uint64_t unacked(PeId src, PeId dst) const;

 private:
  struct Unacked {
    Bytes frame;  // encoded frame, resent verbatim
    std::uint64_t first_send_us = 0;
    std::uint32_t attempts = 1;
  };
  struct Channel {
    mutable std::mutex mu;
    // Sender state (owned by src's side).
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Unacked> unacked;
    std::uint64_t rto_deadline_us = 0;
    std::uint32_t backoff_shift = 0;
    // Receiver state (owned by dst's side).
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, Bytes> out_of_order;
    // Receiver deferred-ack state: a standalone ack owed for
    // data already delivered, sent by service() unless a reverse-direction
    // data frame piggybacks it first.
    bool ack_pending = false;
    std::uint64_t ack_deadline_us = 0;
    // Counters (guarded by mu).
    Stats stats;
  };

  Channel& channel(PeId src, PeId dst) {
    return *channels_[static_cast<std::size_t>(src) * num_pes_ + dst];
  }
  const Channel& channel(PeId src, PeId dst) const {
    return *channels_[static_cast<std::size_t>(src) * num_pes_ + dst];
  }
  std::uint64_t rto_us(std::uint32_t shift) const;
  std::vector<Bytes> on_data(ChannelFrame& f, std::uint64_t now_us);
  // Apply a cumulative ack `cum` against sender channel (src → dst).
  void process_ack(PeId src, PeId dst, std::uint64_t cum, std::uint64_t now_us);
  // Consume the reverse channel's piggyback: returns (dst → src)'s cumulative
  // frontier and clears its deferred-ack obligation.
  std::uint64_t take_piggyback(PeId src, PeId dst);
  void send_standalone_ack(PeId src, PeId dst, std::uint64_t cum);

  std::uint32_t num_pes_;
  ReliableOptions opt_;
  SendFn send_;
  Hooks hooks_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace dgr
