// Socket-layer isolation tests (docs/CLUSTER.md): the frame codec under
// adversarial segmentation, the hub's registration/reconnect discipline —
// everything below the engines, exercised without an engine — and one
// worker on a socketpair fed a malformed control frame.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/proto.h"
#include "net/socket.h"
#include "net/socket_hub.h"
#include "net/wire.h"
#include "runtime/worker_engine.h"

namespace dgr {
namespace {

NetFrame data_frame(PeId src, PeId dst, std::initializer_list<std::uint8_t> p) {
  NetFrame f;
  f.type = FrameType::kData;
  f.src = src;
  f.dst = dst;
  f.payload = p;
  return f;
}

// ---- FrameCodec: reassembly under every segmentation the kernel can dish. --

TEST(FrameCodec, RoundTripSingleFrame) {
  const NetFrame in = data_frame(3, 7, {1, 2, 3, 4, 5});
  const std::vector<std::uint8_t> wire = encode_frame(in);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + 5);

  FrameCodec c;
  NetFrame out;
  EXPECT_FALSE(c.next(out));  // nothing fed yet
  c.feed(wire.data(), wire.size());
  ASSERT_TRUE(c.next(out));
  EXPECT_EQ(out.type, FrameType::kData);
  EXPECT_EQ(out.src, 3u);
  EXPECT_EQ(out.dst, 7u);
  EXPECT_EQ(out.payload, in.payload);
  EXPECT_FALSE(c.next(out));
  EXPECT_EQ(c.partial_resumes(), 0u);  // one feed, no straddling
}

TEST(FrameCodec, ByteAtATimeReassembly) {
  // The hardest short-read schedule: every byte is its own read(). The codec
  // must surface exactly the original frames, counting the resumes.
  std::vector<std::uint8_t> wire;
  const NetFrame a = data_frame(0, 1, {0xaa, 0xbb});
  const NetFrame b = data_frame(1, 0, {});  // empty payload is legal
  NetFrame big;
  big.type = FrameType::kSeed;
  big.src = 2;
  big.dst = 3;
  big.payload.assign(4096, 0x5a);
  const NetFrame* frames[] = {&a, &b, &big};
  for (const NetFrame* f : frames) {
    const auto w = encode_frame(*f);
    wire.insert(wire.end(), w.begin(), w.end());
  }

  FrameCodec c;
  std::vector<NetFrame> got;
  for (std::uint8_t byte : wire) {
    c.feed(&byte, 1);
    NetFrame f;
    while (c.next(f)) got.push_back(std::move(f));
  }
  ASSERT_FALSE(c.error());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].payload, a.payload);
  EXPECT_TRUE(got[1].payload.empty());
  EXPECT_EQ(got[2].type, FrameType::kSeed);
  EXPECT_EQ(got[2].payload, big.payload);
  EXPECT_GT(c.partial_resumes(), 0u);
}

TEST(FrameCodec, ManyFramesInOneFeedPlusTail) {
  // Opposite schedule: one read carries N whole frames and half of the next;
  // the tail completes on the following feed.
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < 16; ++i) {
    const auto w = encode_frame(data_frame(i, i + 1, {0x10, 0x20}));
    wire.insert(wire.end(), w.begin(), w.end());
  }
  const auto last = encode_frame(data_frame(99, 100, {7, 8, 9}));
  const std::size_t cut = last.size() / 2;
  wire.insert(wire.end(), last.begin(), last.begin() + cut);

  FrameCodec c;
  c.feed(wire.data(), wire.size());
  NetFrame f;
  int n = 0;
  while (c.next(f)) ++n;
  EXPECT_EQ(n, 16);
  c.feed(last.data() + cut, last.size() - cut);
  ASSERT_TRUE(c.next(f));
  EXPECT_EQ(f.src, 99u);
  EXPECT_EQ(f.payload.size(), 3u);
  EXPECT_GE(c.partial_resumes(), 1u);
}

TEST(FrameCodec, OversizedFrameIsStickyError) {
  NetFrame f = data_frame(0, 1, {});
  f.payload.assign(64, 0);
  auto wire = encode_frame(f);
  // Forge the length field past the cap (offset 16, u32 LE).
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(wire.data() + 16, &huge, 4);

  FrameCodec c;
  c.feed(wire.data(), wire.size());
  NetFrame out;
  EXPECT_FALSE(c.next(out));
  EXPECT_TRUE(c.error());
  EXPECT_EQ(c.oversized(), 1u);
  // Sticky: a valid frame fed afterwards must not resurrect the stream.
  const auto good = encode_frame(data_frame(1, 2, {1}));
  c.feed(good.data(), good.size());
  EXPECT_FALSE(c.next(out));
}

TEST(FrameCodec, GarbageMagicIsStickyError) {
  const std::uint8_t junk[] = {'H', 'T', 'T', 'P', '/', '1', '.', '1',
                               ' ', '2', '0', '0', ' ', 'O', 'K', '\r',
                               '\n', '\r', '\n', ' '};
  FrameCodec c;
  c.feed(junk, sizeof(junk));
  NetFrame out;
  EXPECT_FALSE(c.next(out));
  EXPECT_TRUE(c.error());
  EXPECT_STRNE(c.error_reason(), "");
}

TEST(FrameCodec, WrongVersionIsError) {
  auto wire = encode_frame(data_frame(0, 1, {1, 2}));
  wire[4] = kFrameVersion + 1;
  FrameCodec c;
  c.feed(wire.data(), wire.size());
  NetFrame out;
  EXPECT_FALSE(c.next(out));
  EXPECT_TRUE(c.error());
}

// ---- Task batches: length-prefixed messages in one payload. ----

using Msg = std::vector<std::uint8_t>;

// Append one message the way the engines stage a task: reserve the length
// prefix, write the bytes, patch the prefix.
void append_msg(std::vector<std::uint8_t>& b, const Msg& m) {
  const std::size_t at = batch_open(b);
  b.insert(b.end(), m.begin(), m.end());
  batch_close(b, at);
}

std::vector<Msg> split_copy(const std::vector<std::uint8_t>& batch,
                            bool* ok) {
  std::vector<Msg> out;
  const std::optional<std::size_t> n = batch_count(batch);
  *ok = n.has_value();
  if (!n) return out;
  batch_for_each(batch, [&](std::span<const std::uint8_t> v) {
    out.emplace_back(v.begin(), v.end());
  });
  EXPECT_EQ(out.size(), *n);
  return out;
}

TEST(DataBatch, RoundTripOneMessage) {
  std::vector<std::uint8_t> b;
  append_msg(b, Msg{7, 8, 9});
  EXPECT_EQ(b.size(), kBatchPrefixSize + 3);
  bool ok = false;
  const std::vector<Msg> got = split_copy(b, &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Msg{7, 8, 9}));
}

TEST(DataBatch, RoundTripManyMessagesInOrder) {
  std::vector<std::uint8_t> b;
  std::vector<Msg> want;
  for (std::uint8_t i = 0; i < 50; ++i) {
    want.push_back(Msg(i % 7 + 1, i));
    append_msg(b, want.back());
  }
  bool ok = false;
  EXPECT_EQ(split_copy(b, &ok), want);
  EXPECT_TRUE(ok);
}

TEST(DataBatch, ZeroLengthMessageAndEmptyBatch) {
  std::vector<std::uint8_t> b;
  append_msg(b, Msg{});
  append_msg(b, Msg{1});
  append_msg(b, Msg{});
  bool ok = false;
  const std::vector<Msg> got = split_copy(b, &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, (std::vector<Msg>{{}, {1}, {}}));
  // No messages at all is a well-formed (empty) batch.
  EXPECT_TRUE(split_copy({}, &ok).empty());
  EXPECT_TRUE(ok);
}

TEST(DataBatch, LengthPastEndIsRejected) {
  std::vector<std::uint8_t> b;
  append_msg(b, Msg{1, 2});
  append_msg(b, Msg{3, 4, 5, 6});
  // Every cut inside the second message leaves its prefix overrunning.
  for (std::size_t cut = b.size() - 4; cut < b.size(); ++cut)
    EXPECT_FALSE(batch_count(std::span(b.data(), cut))) << cut;
  // A prefix claiming more than the payload holds.
  std::vector<std::uint8_t> huge = {0xff, 0xff, 0xff, 0x7f, 1, 2};
  bool ok = true;
  split_copy(huge, &ok);
  EXPECT_FALSE(ok);
}

TEST(DataBatch, TrailingBytesAreRejected) {
  std::vector<std::uint8_t> b;
  append_msg(b, Msg{9, 9});
  // 1-3 stray bytes cannot hold a length prefix.
  for (int extra = 1; extra < static_cast<int>(kBatchPrefixSize); ++extra) {
    std::vector<std::uint8_t> t = b;
    t.insert(t.end(), static_cast<std::size_t>(extra), 0);
    bool ok = true;
    EXPECT_TRUE(split_copy(t, &ok).empty());
    EXPECT_FALSE(ok) << extra;
  }
}

// ---- SocketHub: registration handshake, rejection, loss, reconnect. ----

class HubRig {
 public:
  explicit HubRig(std::uint32_t num_workers = 2, std::uint32_t pes_per = 2) {
    hub_.set_control_handler([](std::uint32_t, NetFrame) {});
    SocketAddr addr;
    EXPECT_TRUE(SocketAddr::parse("tcp:127.0.0.1:0", addr));
    const bool up =
        hub_.listen(addr, [num_workers, pes_per](const RegisterMsg& reg) {
          SocketHub::Decision d;
          if (reg.worker_index >= num_workers) {
            d.reject = RejectMsg{3, "worker index out of range"};
            return d;
          }
          d.accept = true;
          d.ack.worker_index = reg.worker_index;
          d.ack.num_workers = num_workers;
          d.ack.config.num_pes = num_workers * pes_per;
          d.ack.config.pe_begin = reg.worker_index * pes_per;
          d.ack.config.pe_count = pes_per;
          return d;
        });
    EXPECT_TRUE(up) << hub_.error();
  }

  SocketHub& hub() { return hub_; }

  Socket connect() {
    SocketAddr addr;
    EXPECT_TRUE(SocketAddr::parse(hub_.address(), addr));
    return socket_connect(addr, 2000);
  }

  // Send a registration for `index` over `s` without waiting for the reply.
  static void send_register(Socket& s, std::uint32_t index,
                            std::uint32_t version = kProtoVersion,
                            std::uint32_t flags = 0) {
    RegisterMsg reg;
    reg.proto_version = version;
    reg.worker_index = index;
    reg.flags = flags;
    NetFrame rf;
    rf.type = FrameType::kRegister;
    rf.payload = encode_register(reg);
    const auto wire = encode_frame(rf);
    EXPECT_TRUE(s.write_all(wire.data(), wire.size()));
  }

  // Register over `s`; returns the reply frame (ack or reject).
  static NetFrame do_register(Socket& s, std::uint32_t index,
                              std::uint32_t version = kProtoVersion,
                              std::uint32_t flags = 0) {
    send_register(s, index, version, flags);
    return read_frame(s);
  }

  // Blockingly read one frame (zeroed kData frame on EOF).
  static NetFrame read_frame(Socket& s) {
    FrameCodec c;
    std::uint8_t buf[4096];
    NetFrame f;
    while (!c.next(f)) {
      const long n = s.read_some(buf, sizeof(buf));
      if (n <= 0 || c.error()) return NetFrame{};
      c.feed(buf, static_cast<std::size_t>(n));
    }
    return f;
  }

 private:
  SocketHub hub_;
};

TEST(SocketHub, RegistrationAckCarriesConfig) {
  HubRig rig;
  Socket s = rig.connect();
  ASSERT_TRUE(s.valid());
  const NetFrame reply = HubRig::do_register(s, 1);
  ASSERT_EQ(reply.type, FrameType::kRegisterAck);
  RegisterAckMsg ack;
  ASSERT_TRUE(decode_register_ack(reply.payload, ack));
  EXPECT_EQ(ack.worker_index, 1u);
  EXPECT_EQ(ack.config.pe_begin, 2u);
  EXPECT_EQ(ack.config.pe_count, 2u);
  EXPECT_TRUE(rig.hub().wait_workers(1, 1000));
}

// A worker must read its ack before any frame the controller sends once the
// slot is visible (ProcEngine sends a clock probe as soon as wait_workers
// returns). Each round sends the first frame the moment the slot appears.
TEST(SocketHub, AckPrecedesFramesSentOnceSlotIsVisible) {
  constexpr std::uint32_t kRounds = 64;
  HubRig rig(/*num_workers=*/kRounds, /*pes_per=*/1);
  std::vector<Socket> conns;
  for (std::uint32_t w = 0; w < kRounds; ++w) {
    conns.push_back(rig.connect());
    Socket& s = conns.back();
    ASSERT_TRUE(s.valid());
    HubRig::send_register(s, w);
    while (rig.hub().workers_connected() <= w) std::this_thread::yield();
    NetFrame probe;
    probe.type = FrameType::kClockProbe;
    rig.hub().send_to_worker(w, probe);
    // One codec for both frames: they may arrive in one read.
    FrameCodec codec;
    std::vector<FrameType> got;
    std::uint8_t buf[4096];
    NetFrame f;
    while (got.size() < 2) {
      if (codec.next(f)) {
        got.push_back(f.type);
        continue;
      }
      const long n = s.read_some(buf, sizeof(buf));
      ASSERT_GT(n, 0);
      codec.feed(buf, static_cast<std::size_t>(n));
    }
    ASSERT_EQ(got[0], FrameType::kRegisterAck) << "round " << w;
    ASSERT_EQ(got[1], FrameType::kClockProbe);
  }
}

TEST(SocketHub, PolicyRejectionIsDelivered) {
  HubRig rig(/*num_workers=*/2);
  Socket s = rig.connect();
  ASSERT_TRUE(s.valid());
  const NetFrame reply = HubRig::do_register(s, /*index=*/9);
  ASSERT_EQ(reply.type, FrameType::kReject);
  RejectMsg rej;
  ASSERT_TRUE(decode_reject(reply.payload, rej));
  EXPECT_EQ(rej.code, 3u);
  // The connection is closed after a rejection.
  std::uint8_t b;
  EXPECT_LE(s.read_some(&b, 1), 0);
  EXPECT_EQ(rig.hub().workers_connected(), 0u);
  EXPECT_EQ(rig.hub().stats().handshakes_rejected, 1u);
}

TEST(SocketHub, BadProtocolVersionRejected) {
  HubRig rig;
  Socket s = rig.connect();
  ASSERT_TRUE(s.valid());
  const NetFrame reply = HubRig::do_register(s, 0, /*version=*/99);
  ASSERT_EQ(reply.type, FrameType::kReject);
  RejectMsg rej;
  ASSERT_TRUE(decode_reject(reply.payload, rej));
  EXPECT_EQ(rej.code, 1u);
}

TEST(SocketHub, UnframedGarbageDropsConnection) {
  HubRig rig;
  Socket s = rig.connect();
  ASSERT_TRUE(s.valid());
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(s.write_all(junk, sizeof(junk)));
  std::uint8_t b;
  EXPECT_LE(s.read_some(&b, 1), 0);  // dropped without an ack
  // The drop is accounted as a rejected handshake (eventually: the reader
  // thread updates stats on exit).
  for (int i = 0; i < 200 && rig.hub().stats().handshakes_rejected == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(rig.hub().stats().handshakes_rejected, 1u);
  EXPECT_EQ(rig.hub().workers_connected(), 0u);
}

TEST(SocketHub, SlotConflictRejectedThenReconnectAfterDrop) {
  HubRig rig;
  Socket first = rig.connect();
  ASSERT_TRUE(first.valid());
  ASSERT_EQ(HubRig::do_register(first, 0).type, FrameType::kRegisterAck);

  // Same slot while the first connection is alive: refused, code 2.
  {
    Socket dup = rig.connect();
    ASSERT_TRUE(dup.valid());
    const NetFrame reply = HubRig::do_register(dup, 0);
    ASSERT_EQ(reply.type, FrameType::kReject);
    RejectMsg rej;
    ASSERT_TRUE(decode_reject(reply.payload, rej));
    EXPECT_EQ(rej.code, 2u);
  }
  EXPECT_EQ(rig.hub().workers_connected(), 1u);

  // Drop the first connection; the slot frees and a reconnect re-claims it.
  first.close();
  for (int i = 0; i < 200 && rig.hub().workers_connected() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(rig.hub().workers_connected(), 0u);

  Socket again = rig.connect();
  ASSERT_TRUE(again.valid());
  const NetFrame reply = HubRig::do_register(again, 0, kProtoVersion,
                                             kRegisterFlagReconnect);
  ASSERT_EQ(reply.type, FrameType::kRegisterAck);
  EXPECT_EQ(rig.hub().workers_connected(), 1u);
  EXPECT_EQ(rig.hub().stats().reconnects, 1u);
}

TEST(SocketHub, WorkerLostCallbackFires) {
  HubRig rig;
  std::atomic<int> lost{-1};
  rig.hub().set_worker_lost([&](std::uint32_t w) {
    lost.store(static_cast<int>(w));
  });
  Socket s = rig.connect();
  ASSERT_TRUE(s.valid());
  ASSERT_EQ(HubRig::do_register(s, 1).type, FrameType::kRegisterAck);
  s.close();
  for (int i = 0; i < 200 && lost.load() < 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(lost.load(), 1);
}

TEST(SocketHub, DataFramesRelayToEndpointOwner) {
  // Worker 0 owns PEs {0,1}, worker 1 owns {2,3}. A kData frame sent by
  // worker 0 toward PE 3 must come back out of worker 1's socket.
  HubRig rig;
  Socket w0 = rig.connect();
  Socket w1 = rig.connect();
  ASSERT_TRUE(w0.valid());
  ASSERT_TRUE(w1.valid());
  ASSERT_EQ(HubRig::do_register(w0, 0).type, FrameType::kRegisterAck);
  ASSERT_EQ(HubRig::do_register(w1, 1).type, FrameType::kRegisterAck);

  const NetFrame out = data_frame(1, 3, {0xde, 0xad});
  const auto wire = encode_frame(out);
  ASSERT_TRUE(w0.write_all(wire.data(), wire.size()));
  const NetFrame in = HubRig::read_frame(w1);
  EXPECT_EQ(in.type, FrameType::kData);
  EXPECT_EQ(in.src, 1u);
  EXPECT_EQ(in.dst, 3u);
  EXPECT_EQ(in.payload, out.payload);

  // A 100-message batch, one message empty, crosses the hub as one frame,
  // byte for byte, and splits back into the messages in order.
  std::vector<Msg> sent;
  NetFrame batch = data_frame(0, 2, {});
  for (std::uint32_t i = 0; i < 100; ++i) {
    sent.push_back(i == 40 ? Msg{}
                           : Msg{static_cast<std::uint8_t>(i),
                                 static_cast<std::uint8_t>(i >> 8)});
    append_msg(batch.payload, sent.back());
  }
  const std::uint64_t relayed = rig.hub().stats().frames_relayed;
  const auto batch_wire = encode_frame(batch);
  ASSERT_TRUE(w0.write_all(batch_wire.data(), batch_wire.size()));
  const NetFrame got = HubRig::read_frame(w1);
  EXPECT_EQ(got.type, FrameType::kData);
  EXPECT_EQ(got.dst, 2u);
  EXPECT_EQ(got.payload, batch.payload);
  bool ok = false;
  EXPECT_EQ(split_copy(got.payload, &ok), sent);
  EXPECT_TRUE(ok);
  EXPECT_EQ(rig.hub().stats().frames_relayed - relayed, 1u);
}

// ---- Membership plumbing: forced drops, slot reclaim, ownership remap. ----

TEST(SocketHub, DropWorkerForcesPromptEofAndSlotReclaim) {
  // drop_worker is the watchdog's hammer for a silently wedged worker: the
  // hub shuts the connection down both ways, so the loss surfaces on the
  // SAME reader-EOF path a crashed process takes — promptly, not after a
  // network timeout.
  HubRig rig;
  std::atomic<int> lost{-1};
  rig.hub().set_worker_lost([&](std::uint32_t w) {
    lost.store(static_cast<int>(w));
  });
  Socket s = rig.connect();
  ASSERT_TRUE(s.valid());
  ASSERT_EQ(HubRig::do_register(s, 0).type, FrameType::kRegisterAck);
  ASSERT_TRUE(rig.hub().wait_workers(1, 1000));

  const auto t0 = std::chrono::steady_clock::now();
  rig.hub().drop_worker(0);
  // The dropped worker's blocking read unblocks with EOF...
  std::uint8_t b;
  EXPECT_LE(s.read_some(&b, 1), 0);
  const auto eof_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_LT(eof_ms, 2000) << "EOF took " << eof_ms << " ms — a drop must "
                          << "not wait on any timeout";
  // ...the lost callback names the dropped slot...
  for (int i = 0; i < 200 && lost.load() < 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(lost.load(), 0);
  // ...and the freed slot accepts a reconnect.
  for (int i = 0; i < 200 && rig.hub().workers_connected() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(rig.hub().workers_connected(), 0u);
  Socket again = rig.connect();
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(HubRig::do_register(again, 0, kProtoVersion,
                                kRegisterFlagReconnect)
                .type,
            FrameType::kRegisterAck);
  EXPECT_EQ(rig.hub().workers_connected(), 1u);
}

TEST(SocketHub, EndpointOwnerRemapReroutesRelay) {
  // Repartition-on-survivors in miniature: PE 3 starts at worker 1; after
  // set_endpoint_owner(3, 0) the same kData frame comes out of worker 0's
  // socket instead.
  HubRig rig;
  Socket w0 = rig.connect();
  Socket w1 = rig.connect();
  ASSERT_TRUE(w0.valid());
  ASSERT_TRUE(w1.valid());
  ASSERT_EQ(HubRig::do_register(w0, 0).type, FrameType::kRegisterAck);
  ASSERT_EQ(HubRig::do_register(w1, 1).type, FrameType::kRegisterAck);

  const NetFrame before = data_frame(1, 3, {0x01});
  auto wire = encode_frame(before);
  ASSERT_TRUE(w0.write_all(wire.data(), wire.size()));
  EXPECT_EQ(HubRig::read_frame(w1).payload, before.payload);

  rig.hub().set_endpoint_owner(3, 0);
  const NetFrame after = data_frame(2, 3, {0x02});
  wire = encode_frame(after);
  ASSERT_TRUE(w1.write_all(wire.data(), wire.size()));
  const NetFrame in = HubRig::read_frame(w0);
  EXPECT_EQ(in.type, FrameType::kData);
  EXPECT_EQ(in.dst, 3u);
  EXPECT_EQ(in.payload, after.payload);
}

TEST(SocketHub, FencedSlotRejectsReRegistration) {
  // The engine-side policy after a membership fence: a slot whose owner was
  // declared dead refuses re-registration (code 4) — its partition already
  // moved, and a zombie replica writing marks for it would break the
  // single-owner invariant. Modeled here with the same policy shape
  // ProcEngine installs.
  std::atomic<std::uint64_t> dead_mask{0};
  SocketHub hub;
  hub.set_control_handler([](std::uint32_t, NetFrame) {});
  SocketAddr addr;
  ASSERT_TRUE(SocketAddr::parse("tcp:127.0.0.1:0", addr));
  ASSERT_TRUE(hub.listen(addr, [&](const RegisterMsg& reg) {
    SocketHub::Decision d;
    if (reg.worker_index >= 2) {
      d.reject = RejectMsg{3, "worker index out of range"};
      return d;
    }
    if (dead_mask.load() & (1ull << reg.worker_index)) {
      d.reject = RejectMsg{4, "worker slot fenced after loss"};
      return d;
    }
    d.accept = true;
    d.ack.worker_index = reg.worker_index;
    d.ack.num_workers = 2;
    d.ack.config.num_pes = 4;
    d.ack.config.pe_begin = reg.worker_index * 2;
    d.ack.config.pe_count = 2;
    return d;
  }))
      << hub.error();

  auto dial = [&] {
    SocketAddr a;
    EXPECT_TRUE(SocketAddr::parse(hub.address(), a));
    return socket_connect(a, 2000);
  };

  Socket s = dial();
  ASSERT_TRUE(s.valid());
  ASSERT_EQ(HubRig::do_register(s, 1).type, FrameType::kRegisterAck);

  // The worker "dies" and the controller fences its generation.
  s.close();
  for (int i = 0; i < 200 && hub.workers_connected() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  dead_mask.store(1ull << 1);

  // Pre-fence traffic hitting the slot again — even with the reconnect
  // flag — is refused with the fence code.
  Socket again = dial();
  ASSERT_TRUE(again.valid());
  const NetFrame reply = HubRig::do_register(again, 1, kProtoVersion,
                                             kRegisterFlagReconnect);
  ASSERT_EQ(reply.type, FrameType::kReject);
  RejectMsg rej;
  ASSERT_TRUE(decode_reject(reply.payload, rej));
  EXPECT_EQ(rej.code, 4u);
  // A different (live) slot still registers fine.
  Socket other = dial();
  ASSERT_TRUE(other.valid());
  EXPECT_EQ(HubRig::do_register(other, 0).type, FrameType::kRegisterAck);
}

// ---- WorkerEngine: a malformed control frame ends the worker nonzero. ----

TEST(WorkerEngine, TruncatedSeedExitsNonzero) {
  // Every malformed control frame ends a worker with exit status 1, so the
  // controller sees a lost worker instead of a crashed process. A kShutdown
  // queued behind the seed tells the two apart from a worker that ignores
  // the seed, which would exit 0.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket controller(fds[1]);
  NetFrame seed;
  seed.type = FrameType::kSeed;
  seed.payload = encode_task(
      Task::mark(Plane::kR, VertexId{0, 0}, VertexId::invalid(), 3));
  seed.payload.pop_back();
  NetFrame shutdown;
  shutdown.type = FrameType::kShutdown;
  for (const NetFrame& f : {seed, shutdown}) {
    const std::vector<std::uint8_t> wire = encode_frame(f);
    ASSERT_TRUE(controller.write_all(wire.data(), wire.size()));
  }
  WorkerConfig cfg;
  cfg.num_pes = 1;
  cfg.pe_count = 1;
  WorkerEngine worker(Socket(fds[0]), FrameCodec{}, 0, cfg);
  EXPECT_EQ(worker.run(), 1);
}

TEST(WorkerEngine, MalformedDataBatchExitsNonzero) {
  // The same rule for a kData task batch whose length prefix runs past its
  // end: the split in MessagePlane::receive refuses it, and the worker
  // exits 1 rather than skipping it.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket controller(fds[1]);
  NetFrame data;
  data.type = FrameType::kData;
  append_msg(data.payload, encode_task(Task::mark(Plane::kR, VertexId{0, 0},
                                                  VertexId::invalid(), 3)));
  data.payload.pop_back();
  NetFrame shutdown;
  shutdown.type = FrameType::kShutdown;
  for (const NetFrame& f : {data, shutdown}) {
    const std::vector<std::uint8_t> wire = encode_frame(f);
    ASSERT_TRUE(controller.write_all(wire.data(), wire.size()));
  }
  WorkerConfig cfg;
  cfg.num_pes = 1;
  cfg.pe_count = 1;
  WorkerEngine worker(Socket(fds[0]), FrameCodec{}, 0, cfg);
  EXPECT_EQ(worker.run(), 1);
}

}  // namespace
}  // namespace dgr
