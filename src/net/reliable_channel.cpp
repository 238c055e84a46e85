#include "net/reliable_channel.h"

#include <algorithm>

#include "net/wire.h"
#include "util/assert.h"

namespace dgr {

namespace {

constexpr std::uint8_t kFrameData = 0xD1;
constexpr std::uint8_t kFrameAck = 0xA7;

// Wire bytes a payload adds to a data frame beyond its own length.
constexpr std::size_t kPerPayloadOverhead = 4;  // u32 length prefix

// FNV-1a over the frame bytes preceding the checksum field.
std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const ChannelFrame& f) {
  ByteWriter w;
  w.u8(f.is_data ? kFrameData : kFrameAck);
  w.u32(f.src);
  w.u32(f.dst);
  w.u64(f.seq);
  w.u64(f.ack);
  w.u32(static_cast<std::uint32_t>(f.payloads.size()));
  std::vector<std::uint8_t> out = w.take();
  for (const auto& p : f.payloads) {
    ByteWriter len;
    len.u32(static_cast<std::uint32_t>(p.size()));
    std::vector<std::uint8_t> l = len.take();
    out.insert(out.end(), l.begin(), l.end());
    out.insert(out.end(), p.begin(), p.end());
  }
  const std::uint64_t sum = fnv1a(out.data(), out.size());
  ByteWriter tail;
  tail.u64(sum);
  std::vector<std::uint8_t> t = tail.take();
  out.insert(out.end(), t.begin(), t.end());
  return out;
}

std::optional<ChannelFrame> try_decode_frame(ByteSpan bytes) {
  // type(1) + src(4) + dst(4) + seq(8) + ack(8) + count(4) + checksum(8)
  constexpr std::size_t kMinFrame = 37;
  if (bytes.size() < kMinFrame) return std::nullopt;
  const std::uint64_t want = fnv1a(bytes.data(), bytes.size() - 8);
  ByteReader r(bytes);
  ChannelFrame f;
  const std::uint8_t type = r.u8();
  f.src = r.u32();
  f.dst = r.u32();
  f.seq = r.u64();
  f.ack = r.u64();
  const std::uint32_t count = r.u32();
  if (type == kFrameData) {
    f.is_data = true;
  } else if (type == kFrameAck) {
    f.is_data = false;
  } else {
    return std::nullopt;
  }
  f.payloads.reserve(std::min<std::size_t>(count, r.remaining()));
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t len = r.u32();
    // Bounds-check before allocating: a corrupted length must not trigger a
    // huge resize (the checksum already vetted the bytes, but stay paranoid).
    if (!r.ok() || r.remaining() < static_cast<std::size_t>(len) + 8)
      return std::nullopt;
    std::vector<std::uint8_t> p(len);
    for (std::uint32_t j = 0; j < len; ++j) p[j] = r.u8();
    f.payloads.push_back(std::move(p));
  }
  if (r.remaining() != 8) return std::nullopt;
  const std::uint64_t got = r.u64();
  if (!r.done() || got != want) return std::nullopt;
  return f;
}

ChannelManager::ChannelManager(std::uint32_t num_pes, ReliableOptions opt,
                               SendFn send)
    : num_pes_(num_pes ? num_pes : 1), opt_(opt), send_(std::move(send)) {
  DGR_CHECK(send_ != nullptr);
  channels_.reserve(static_cast<std::size_t>(num_pes_) * num_pes_);
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(num_pes_) * num_pes_; ++i)
    channels_.push_back(std::make_unique<Channel>());
}

std::uint64_t ChannelManager::rto_us(std::uint32_t shift) const {
  const std::uint64_t base = opt_.rto_initial_us ? opt_.rto_initial_us : 1;
  // Doubling capped at rto_max; guard the shift so it can't overflow.
  if (shift >= 63) return opt_.rto_max_us;
  const std::uint64_t rto = base << shift;
  return std::min(rto, opt_.rto_max_us ? opt_.rto_max_us : rto);
}

std::uint64_t ChannelManager::take_piggyback(PeId src, PeId dst,
                                             bool* had_deferred) {
  // Reverse channel (dst → src): its receiver side lives at `src`, i.e. the
  // PE about to transmit — the cumulative frontier we can piggyback.
  Channel& rev = channel(dst, src);
  std::lock_guard<std::mutex> lk(rev.mu);
  *had_deferred = rev.ack_pending;
  rev.ack_pending = false;
  return rev.next_expected - 1;
}

void ChannelManager::restore_deferred_ack(PeId src, PeId dst) {
  Channel& rev = channel(dst, src);
  std::uint64_t cum = 0;
  {
    std::lock_guard<std::mutex> lk(rev.mu);
    cum = rev.next_expected - 1;
    ++rev.stats.acks_sent;
  }
  // The data frame that would have piggybacked it never materialized: send
  // the owed ack standalone instead of re-arming a timer.
  send_standalone_ack(dst, src, cum);
}

void ChannelManager::send_standalone_ack(PeId src, PeId dst,
                                         std::uint64_t cum) {
  ChannelFrame ack;
  ack.is_data = false;
  ack.src = src;
  ack.dst = dst;
  ack.seq = cum;
  send_(dst, src, encode_frame(ack));
}

void ChannelManager::send(PeId src, PeId dst, Bytes payload,
                          std::uint64_t now_us) {
  // Stage the payload; flush at the size cap (the age cap is service()'s
  // job, flush() the idle sender's). A zero cap flushes every payload as its
  // own frame.
  Channel& ch = channel(src, dst);
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lk(ch.mu);
    if (ch.pending.empty())
      ch.batch_deadline_us = now_us + opt_.batch_flush_us;
    ch.pending_bytes += payload.size() + kPerPayloadOverhead;
    ch.pending.push_back(std::move(payload));
    flush_now = ch.pending_bytes >= opt_.batch_bytes;
  }
  if (flush_now) flush_pair(src, dst, now_us);
}

void ChannelManager::flush_pair(PeId src, PeId dst, std::uint64_t now_us) {
  // Lock discipline: never hold two channel mutexes. Take the reverse
  // channel's piggyback first; if the batch turns out empty (another thread
  // raced the flush), repay the consumed deferred ack standalone.
  bool had_deferred = false;
  const std::uint64_t pig = take_piggyback(src, dst, &had_deferred);
  Channel& ch = channel(src, dst);
  Bytes frame;
  std::size_t count = 0;
  {
    std::lock_guard<std::mutex> lk(ch.mu);
    if (!ch.pending.empty()) {
      ChannelFrame f;
      f.is_data = true;
      f.src = src;
      f.dst = dst;
      f.seq = ch.next_seq++;
      f.ack = pig;
      f.payloads = std::move(ch.pending);
      ch.pending.clear();
      ch.pending_bytes = 0;
      count = f.payloads.size();
      frame = encode_frame(f);
      const bool was_empty = ch.unacked.empty();
      ch.unacked.emplace(f.seq, Unacked{frame, now_us, 1});
      if (was_empty) {
        ch.backoff_shift = 0;
        ch.rto_deadline_us = now_us + rto_us(0);
      }
      ++ch.stats.data_sent;
      ++ch.stats.batch_flushes;
      ch.stats.payloads_coalesced += count;
    }
  }
  if (count == 0) {
    // Lost the race to another flush — but the deferred-ack obligation we
    // consumed in take_piggyback must still reach the peer.
    if (had_deferred) restore_deferred_ack(src, dst);
    return;
  }
  const std::size_t frame_bytes = frame.size();
  send_(src, dst, std::move(frame));
  if (hooks_.on_batch_flush)
    hooks_.on_batch_flush(src, dst, count, frame_bytes);
}

void ChannelManager::flush(PeId pe, std::uint64_t now_us) {
  for (PeId dst = 0; dst < num_pes_; ++dst) {
    bool has_pending;
    {
      Channel& ch = channel(pe, dst);
      std::lock_guard<std::mutex> lk(ch.mu);
      has_pending = !ch.pending.empty();
    }
    if (has_pending) flush_pair(pe, dst, now_us);
  }
}

std::vector<ChannelManager::Bytes> ChannelManager::on_frame(
    PeId pe, std::span<const std::uint8_t> frame, std::uint64_t now_us) {
  std::optional<ChannelFrame> f = try_decode_frame(frame);
  if (!f) {
    // Count the error against the receiving PE's self-channel: garbage
    // carries no trustworthy src/dst.
    Channel& ch = channel(pe, pe);
    {
      std::lock_guard<std::mutex> lk(ch.mu);
      ++ch.stats.decode_errors;
    }
    if (hooks_.on_decode_error) hooks_.on_decode_error(pe);
    return {};
  }
  if (f->dst >= num_pes_ || f->src >= num_pes_) return {};
  if (f->is_data) return on_data(*f, now_us);
  on_ack(*f, now_us);
  return {};
}

std::vector<ChannelManager::Bytes> ChannelManager::on_data(
    const ChannelFrame& f, std::uint64_t now_us) {
  // A data frame s → d may piggyback d's cumulative frontier for the
  // reverse channel (d → s): credit it before touching receive state.
  if (f.ack > 0) process_ack(f.dst, f.src, f.ack, now_us);
  Channel& ch = channel(f.src, f.dst);
  std::vector<Bytes> out;
  {
    std::lock_guard<std::mutex> lk(ch.mu);
    if (f.seq < ch.next_expected ||
        ch.out_of_order.count(f.seq) != 0) {
      ++ch.stats.dup_suppressed;
      if (hooks_.on_dup_suppressed) hooks_.on_dup_suppressed(f.dst, f.src, f.seq);
    } else {
      ch.out_of_order.emplace(f.seq, f.payloads);
      // Drain the in-order run starting at next_expected.
      for (auto it = ch.out_of_order.find(ch.next_expected);
           it != ch.out_of_order.end() && it->first == ch.next_expected;
           it = ch.out_of_order.find(ch.next_expected)) {
        for (Bytes& p : it->second) out.push_back(std::move(p));
        ch.out_of_order.erase(it);
        ++ch.next_expected;
      }
      ch.stats.delivered += out.size();
    }
    // Defer the ack, hoping a reverse data frame piggybacks it within
    // batch_flush_us; service() sends it standalone otherwise. Duplicates
    // re-arm it too, so a lost ack is repaired by the sender's retransmit
    // → our re-ack, one deferral later.
    if (!ch.ack_pending) {
      ch.ack_pending = true;
      ch.ack_deadline_us = now_us + opt_.batch_flush_us;
    }
  }
  return out;
}

void ChannelManager::on_ack(const ChannelFrame& f, std::uint64_t now_us) {
  process_ack(f.src, f.dst, f.seq, now_us);
}

void ChannelManager::process_ack(PeId src, PeId dst, std::uint64_t cum,
                                 std::uint64_t now_us) {
  Channel& ch = channel(src, dst);
  double rtt = -1.0;
  {
    std::lock_guard<std::mutex> lk(ch.mu);
    bool acked_any = false;
    for (auto it = ch.unacked.begin();
         it != ch.unacked.end() && it->first <= cum;) {
      // Karn's rule: only frames never retransmitted give an RTT sample
      // (a retransmitted frame's ack is ambiguous). Sample the newest.
      if (it->second.attempts == 1 && now_us >= it->second.first_send_us)
        rtt = static_cast<double>(now_us - it->second.first_send_us);
      it = ch.unacked.erase(it);
      acked_any = true;
    }
    if (acked_any) {
      ch.backoff_shift = 0;
      ch.rto_deadline_us =
          ch.unacked.empty() ? 0 : now_us + rto_us(0);
    }
  }
  if (rtt >= 0.0 && hooks_.on_rtt) hooks_.on_rtt(src, rtt);
}

void ChannelManager::service(PeId pe, std::uint64_t now_us) {
  for (PeId dst = 0; dst < num_pes_; ++dst) {
    Channel& ch = channel(pe, dst);
    // Aged batch flush (sender side).
    bool aged;
    {
      std::lock_guard<std::mutex> lk(ch.mu);
      aged = !ch.pending.empty() && now_us >= ch.batch_deadline_us;
    }
    if (aged) flush_pair(pe, dst, now_us);
    // Retransmit timer.
    std::vector<Bytes> resend;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> notes;  // seq,attempt
    {
      std::lock_guard<std::mutex> lk(ch.mu);
      if (!ch.unacked.empty() && now_us >= ch.rto_deadline_us) {
        std::uint32_t budget = opt_.max_retransmit_batch
                                   ? opt_.max_retransmit_batch
                                   : 1;
        for (auto& [seq, u] : ch.unacked) {
          if (budget-- == 0) break;
          ++u.attempts;
          resend.push_back(u.frame);
          notes.emplace_back(seq, u.attempts);
        }
        ch.stats.retransmits += resend.size();
        if (ch.backoff_shift < 63) ++ch.backoff_shift;
        ch.rto_deadline_us = now_us + rto_us(ch.backoff_shift);
      }
    }
    for (std::size_t i = 0; i < resend.size(); ++i) {
      if (hooks_.on_retransmit)
        hooks_.on_retransmit(pe, dst, notes[i].first, notes[i].second);
      send_(pe, dst, std::move(resend[i]));
    }
    // Due deferred ack for the channel this PE *receives* on (src=dst row in
    // this loop doubles as the reverse scan: channel(dst → pe)).
    Channel& rx = channel(dst, pe);
    bool owe = false;
    std::uint64_t cum = 0;
    {
      std::lock_guard<std::mutex> lk(rx.mu);
      if (rx.ack_pending && now_us >= rx.ack_deadline_us) {
        rx.ack_pending = false;
        cum = rx.next_expected - 1;
        owe = true;
        ++rx.stats.acks_sent;
      }
    }
    if (owe) send_standalone_ack(dst, pe, cum);
  }
}

ChannelManager::Stats ChannelManager::stats() const {
  Stats total;
  for (const auto& chp : channels_) {
    const Channel& ch = *chp;
    std::lock_guard<std::mutex> lk(ch.mu);
    total.data_sent += ch.stats.data_sent;
    total.retransmits += ch.stats.retransmits;
    total.delivered += ch.stats.delivered;
    total.dup_suppressed += ch.stats.dup_suppressed;
    total.acks_sent += ch.stats.acks_sent;
    total.decode_errors += ch.stats.decode_errors;
    total.unacked += ch.unacked.size();
    total.batch_flushes += ch.stats.batch_flushes;
    total.payloads_coalesced += ch.stats.payloads_coalesced;
  }
  return total;
}

std::uint64_t ChannelManager::unacked(PeId src, PeId dst) const {
  const Channel& ch = channel(src, dst);
  std::lock_guard<std::mutex> lk(ch.mu);
  return ch.unacked.size();
}

}  // namespace dgr
