#include "net/reliable_channel.h"

#include <algorithm>
#include <cstring>

#include "net/wire.h"
#include "util/assert.h"

namespace dgr {

namespace {

constexpr std::uint8_t kFrameData = 0xD1;
constexpr std::uint8_t kFrameAck = 0xA7;

// type(1) + src(4) + dst(4) + seq(8) + ack(8) + payload length(4).
constexpr std::size_t kFrameHeader = 29;
constexpr std::size_t kFrameChecksum = 8;

// FNV-1a over the frame bytes preceding the checksum field.
std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::uint8_t> encode(bool is_data, PeId src, PeId dst,
                                 std::uint64_t seq, std::uint64_t ack,
                                 ByteSpan payload) {
  std::vector<std::uint8_t> buf;
  buf.reserve(kFrameHeader + payload.size() + kFrameChecksum);
  ByteWriter w(std::move(buf));
  w.u8(is_data ? kFrameData : kFrameAck);
  w.u32(src);
  w.u32(dst);
  w.u64(seq);
  w.u64(ack);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  std::vector<std::uint8_t> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  const std::uint64_t sum = fnv1a(out.data(), out.size());
  ByteWriter tail(std::move(out));
  tail.u64(sum);
  return tail.take();
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const ChannelFrame& f) {
  return encode(f.is_data, f.src, f.dst, f.seq, f.ack, f.payload);
}

std::optional<ChannelFrame> try_decode_frame(ByteSpan bytes) {
  if (bytes.size() < kFrameHeader + kFrameChecksum) return std::nullopt;
  ByteReader r(bytes);
  ChannelFrame f;
  const std::uint8_t type = r.u8();
  f.src = r.u32();
  f.dst = r.u32();
  f.seq = r.u64();
  f.ack = r.u64();
  const std::uint32_t len = r.u32();
  if (type != kFrameData && type != kFrameAck) return std::nullopt;
  f.is_data = type == kFrameData;
  // The length must account for every byte between header and checksum, so
  // a truncated frame fails here before the checksum is even consulted.
  if (r.remaining() != static_cast<std::size_t>(len) + kFrameChecksum)
    return std::nullopt;
  const std::size_t body = kFrameHeader + len;
  std::uint64_t got;
  std::memcpy(&got, bytes.data() + body, sizeof got);
  if (got != fnv1a(bytes.data(), body)) return std::nullopt;
  f.payload.assign(bytes.begin() + kFrameHeader, bytes.begin() + body);
  return f;
}

ByteSpan frame_payload(ByteSpan bytes) {
  if (bytes.size() < kFrameHeader || bytes[0] != kFrameData) return {};
  std::uint32_t len;
  std::memcpy(&len, bytes.data() + kFrameHeader - 4, sizeof len);
  return bytes.subspan(
      kFrameHeader, std::min<std::size_t>(len, bytes.size() - kFrameHeader));
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

std::uint64_t ChannelManager::take_piggyback(PeId src, PeId dst) {
  // Reverse channel (dst → src): its receiver side lives at `src`, i.e. the
  // PE about to transmit — the cumulative frontier we can piggyback.
  Channel& rev = channel(dst, src);
  std::lock_guard<std::mutex> lk(rev.mu);
  rev.ack_pending = false;
  return rev.next_expected - 1;
}

void ChannelManager::send_standalone_ack(PeId src, PeId dst,
                                         std::uint64_t cum) {
  send_(dst, src, encode(/*is_data=*/false, src, dst, cum, 0, {}));
}

void ChannelManager::send(PeId src, PeId dst, ByteSpan payload,
                          std::uint64_t now_us) {
  // Lock discipline: never hold two channel mutexes, so the reverse
  // channel's piggyback is taken first. The frame it rides on is sent
  // unconditionally, so the consumed deferred ack always reaches the peer.
  const std::uint64_t pig = take_piggyback(src, dst);
  Channel& ch = channel(src, dst);
  Bytes frame;
  {
    std::lock_guard<std::mutex> lk(ch.mu);
    const std::uint64_t seq = ch.next_seq++;
    frame = encode(/*is_data=*/true, src, dst, seq, pig, payload);
    if (ch.unacked.empty()) {
      ch.backoff_shift = 0;
      ch.rto_deadline_us = now_us + rto_us(0);
    }
    ch.unacked.emplace(seq, Unacked{frame, now_us, 1});
    ++ch.stats.data_sent;
  }
  send_(src, dst, std::move(frame));
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
  process_ack(f->src, f->dst, f->seq, now_us);
  return {};
}

std::vector<ChannelManager::Bytes> ChannelManager::on_data(
    ChannelFrame& f, std::uint64_t now_us) {
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
      ch.out_of_order.emplace(f.seq, std::move(f.payload));
      // Drain the in-order run starting at next_expected.
      for (auto it = ch.out_of_order.find(ch.next_expected);
           it != ch.out_of_order.end() && it->first == ch.next_expected;
           it = ch.out_of_order.find(ch.next_expected)) {
        out.push_back(std::move(it->second));
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
  }
  return total;
}

std::uint64_t ChannelManager::unacked(PeId src, PeId dst) const {
  const Channel& ch = channel(src, dst);
  std::lock_guard<std::mutex> lk(ch.mu);
  return ch.unacked.size();
}

}  // namespace dgr
