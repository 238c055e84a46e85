// Reliable-channel tests. The frame codec must reject truncation and
// corruption recoverably; the ChannelManager must turn a scripted lossy /
// duplicating / reordering wire into exactly-once in-order delivery;
// and — the property the whole layer exists for — a ThreadEngine marking
// cycle over an actively faulted message plane must still agree with the
// sequential Oracle and sweep exactly GAR' (Property 1), with zero
// safe-point audit violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "graph/oracle.h"
#include "net/reliable_channel.h"
#include "runtime/thread_engine.h"

namespace dgr {
namespace {

using Bytes = ChannelManager::Bytes;

Bytes payload(std::uint8_t tag) { return Bytes(12, tag); }

TEST(ChannelFrame, RoundTripDataAndAck) {
  ChannelFrame d;
  d.is_data = true;
  d.src = 3;
  d.dst = 1;
  d.seq = 77;
  d.ack = 12;  // piggybacked cumulative ack for the reverse channel
  d.payloads = {payload(0xAB)};
  const std::optional<ChannelFrame> d2 = try_decode_frame(encode_frame(d));
  ASSERT_TRUE(d2.has_value());
  EXPECT_TRUE(d2->is_data);
  EXPECT_EQ(d2->src, 3u);
  EXPECT_EQ(d2->dst, 1u);
  EXPECT_EQ(d2->seq, 77u);
  EXPECT_EQ(d2->ack, 12u);
  EXPECT_EQ(d2->payloads, d.payloads);

  ChannelFrame a;
  a.is_data = false;
  a.src = 1;
  a.dst = 2;
  a.seq = 41;  // cumulative ack
  const std::optional<ChannelFrame> a2 = try_decode_frame(encode_frame(a));
  ASSERT_TRUE(a2.has_value());
  EXPECT_FALSE(a2->is_data);
  EXPECT_EQ(a2->seq, 41u);
  EXPECT_TRUE(a2->payloads.empty());
}

TEST(ChannelFrame, RoundTripMultiPayload) {
  ChannelFrame d;
  d.is_data = true;
  d.src = 0;
  d.dst = 2;
  d.seq = 5;
  d.payloads = {payload(0x01), Bytes{}, payload(0x02), Bytes(1, 0xFF)};
  const std::optional<ChannelFrame> d2 = try_decode_frame(encode_frame(d));
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->payloads, d.payloads);  // order and empties preserved
}

TEST(ChannelFrame, TruncationAtEveryLengthRejected) {
  ChannelFrame f;
  f.src = 0;
  f.dst = 1;
  f.seq = 9;
  f.payloads = {payload(0x5C), payload(0x5D)};
  const Bytes full = encode_frame(f);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const Bytes prefix(full.begin(), full.begin() + cut);
    EXPECT_FALSE(try_decode_frame(prefix).has_value()) << "cut=" << cut;
  }
  EXPECT_TRUE(try_decode_frame(full).has_value());
}

TEST(ChannelFrame, AnySingleBitFlipRejected) {
  ChannelFrame f;
  f.src = 2;
  f.dst = 0;
  f.seq = 1234;
  f.payloads = {payload(0x11)};
  const Bytes full = encode_frame(f);
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    Bytes bad = full;
    bad[byte] ^= 0x40;
    EXPECT_FALSE(try_decode_frame(bad).has_value()) << "byte=" << byte;
  }
}

// One payload per frame, so a test can reason frame by frame. Acks are still
// deferred (or piggybacked) like on any batch.
ReliableOptions per_frame() {
  ReliableOptions opt;
  opt.batch_bytes = 0;
  return opt;
}

// Scripted wire: SendFn captures frames onto a queue (optionally misbehaving
// first), pump() feeds them to the receiver. Time is a plain counter, so
// retransmit timers and deferred acks fire exactly when the test says.
struct Harness {
  std::deque<std::pair<PeId, Bytes>> wire;  // (deliver-to, frame)
  std::vector<Bytes> got;
  std::uint64_t transmissions = 0;
  std::set<std::uint64_t> drop;        // transmissions lost on the wire
  bool duplicate_data = false;
  bool drop_all_acks = false;
  ReliableOptions opt;
  std::unique_ptr<ChannelManager> mgr;

  explicit Harness(ReliableOptions o = per_frame()) : opt(o) {
    mgr = std::make_unique<ChannelManager>(
        2, opt, [this](PeId, PeId to, Bytes frame) {
          ++transmissions;
          const std::optional<ChannelFrame> f = try_decode_frame(frame);
          if (drop_all_acks && f && !f->is_data) return;
          if (drop.count(transmissions)) return;
          if (duplicate_data && f && f->is_data)
            wire.emplace_back(to, frame);
          wire.emplace_back(to, std::move(frame));
        });
  }
  void pump(std::uint64_t now) {
    while (!wire.empty()) {
      auto [to, frame] = std::move(wire.front());
      wire.pop_front();
      for (Bytes& p : mgr->on_frame(to, frame, now))
        got.push_back(std::move(p));
    }
  }
  // Let the receiver (PE 1) send its deferred ack, then deliver it.
  void settle(std::uint64_t now) {
    now += opt.batch_flush_us;
    mgr->service(1, now);
    pump(now);
  }
};

TEST(ChannelManager, InOrderNoFaultsPassThrough) {
  Harness h;
  for (std::uint8_t i = 0; i < 20; ++i) h.mgr->send(0, 1, payload(i), 0);
  h.pump(1);
  ASSERT_EQ(h.got.size(), 20u);
  for (std::uint8_t i = 0; i < 20; ++i) EXPECT_EQ(h.got[i], payload(i));
  h.settle(1);
  EXPECT_EQ(h.mgr->unacked(0, 1), 0u);
  EXPECT_EQ(h.mgr->stats().retransmits, 0u);
}

TEST(ChannelManager, LossRecoveredByRetransmit) {
  ReliableOptions opt = per_frame();
  opt.rto_initial_us = 100;
  opt.rto_max_us = 1000;
  Harness h(opt);
  h.drop = {1, 2, 5};  // payloads 0, 1 and 4 lost on first transmission
  std::uint64_t now = 0;
  for (std::uint8_t i = 0; i < 5; ++i) h.mgr->send(0, 1, payload(i), now);
  h.pump(now);
  // Sequences 3 and 4 arrived out of order: buffered, nothing deliverable.
  EXPECT_TRUE(h.got.empty());
  EXPECT_EQ(h.mgr->unacked(0, 1), 5u);

  now = 200;  // past the RTO: sender retransmits everything unacked
  h.mgr->service(0, now);
  h.pump(now);
  ASSERT_EQ(h.got.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) EXPECT_EQ(h.got[i], payload(i));
  h.settle(now);
  EXPECT_EQ(h.mgr->unacked(0, 1), 0u);
  const ChannelManager::Stats s = h.mgr->stats();
  EXPECT_EQ(s.retransmits, 5u);
  EXPECT_EQ(s.dup_suppressed, 2u);  // re-sent 3 and 4 discarded as dups
  EXPECT_EQ(s.delivered, 5u);
}

TEST(ChannelManager, DuplicatedWireDeliversExactlyOnce) {
  Harness h;
  h.duplicate_data = true;  // every data frame arrives twice
  for (std::uint8_t i = 0; i < 10; ++i) h.mgr->send(0, 1, payload(i), 0);
  h.pump(1);
  ASSERT_EQ(h.got.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(h.got[i], payload(i));
  EXPECT_EQ(h.mgr->stats().dup_suppressed, 10u);
  h.settle(1);
  EXPECT_EQ(h.mgr->unacked(0, 1), 0u);
}

TEST(ChannelManager, ReorderedWireDeliversInOrder) {
  Harness h;
  for (std::uint8_t i = 0; i < 8; ++i) h.mgr->send(0, 1, payload(i), 0);
  // Adversarial wire: deliver the queued data frames back to front.
  std::reverse(h.wire.begin(), h.wire.end());
  h.pump(1);
  ASSERT_EQ(h.got.size(), 8u);
  for (std::uint8_t i = 0; i < 8; ++i) EXPECT_EQ(h.got[i], payload(i));
  EXPECT_EQ(h.mgr->stats().dup_suppressed, 0u);
}

TEST(ChannelManager, LostAcksRepairedByRetransmitReAck) {
  ReliableOptions opt = per_frame();
  opt.rto_initial_us = 100;
  Harness h(opt);
  h.drop_all_acks = true;
  std::uint64_t now = 0;
  for (std::uint8_t i = 0; i < 4; ++i) h.mgr->send(0, 1, payload(i), now);
  h.pump(now);
  h.settle(now);                      // the deferred ack is lost
  ASSERT_EQ(h.got.size(), 4u);        // data got through...
  EXPECT_EQ(h.mgr->unacked(0, 1), 4u);  // ...but the sender does not know

  h.drop_all_acks = false;
  now = 200;
  h.mgr->service(0, now);  // retransmit → receiver suppresses dups, re-acks
  h.pump(now);
  EXPECT_EQ(h.got.size(), 4u);  // still exactly once
  h.settle(now);
  EXPECT_EQ(h.mgr->unacked(0, 1), 0u);
  EXPECT_EQ(h.mgr->stats().dup_suppressed, 4u);
}

TEST(ChannelManager, BackoffCapsAndResets) {
  ReliableOptions opt = per_frame();
  opt.rto_initial_us = 100;
  opt.rto_max_us = 400;
  Harness h(opt);
  // Black-hole wire: count retransmissions under repeated service calls.
  h.drop = {};
  h.mgr.reset();
  std::uint64_t resent = 0;
  h.mgr = std::make_unique<ChannelManager>(
      2, opt, [&](PeId, PeId, Bytes) { ++resent; });
  h.mgr->send(0, 1, payload(1), 0);
  resent = 0;
  // Deadlines double 100 → 200 → 400 and cap at 400.
  std::uint64_t now = 0;
  std::uint64_t fires = 0;
  for (int tick = 1; tick <= 23; ++tick) {
    now = static_cast<std::uint64_t>(tick) * 100;
    const std::uint64_t before = resent;
    h.mgr->service(0, now);
    if (resent > before) ++fires;
  }
  // 2300µs of black hole: fires at 100 (+200) 300 (+400) 700 (+400) 1100,
  // 1500, 1900, 2300 — seven, not twenty-three.
  EXPECT_EQ(fires, 7u);
  EXPECT_EQ(h.mgr->stats().retransmits, resent);
}

TEST(ChannelManager, GarbageFrameCountsDecodeError) {
  Harness h;
  std::uint64_t errors = 0;
  ChannelManager::Hooks hooks;
  hooks.on_decode_error = [&](PeId pe) {
    EXPECT_EQ(pe, 1u);
    ++errors;
  };
  h.mgr->set_hooks(std::move(hooks));
  EXPECT_TRUE(h.mgr->on_frame(1, Bytes{1, 2, 3}, 0).empty());
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(h.mgr->stats().decode_errors, 1u);
}

TEST(ChannelManager, PerFrameAckPiggybacksOnReverseData) {
  ReliableOptions opt = per_frame();
  opt.rto_initial_us = 100000;
  Harness h(opt);
  h.mgr->send(0, 1, payload(1), 0);  // one payload: sent at once
  h.pump(0);
  ASSERT_EQ(h.got.size(), 1u);
  EXPECT_EQ(h.mgr->unacked(0, 1), 1u);
  h.mgr->send(1, 0, payload(2), 10);  // reverse data carries the ack
  h.pump(10);
  ASSERT_EQ(h.got.size(), 2u);
  EXPECT_EQ(h.mgr->unacked(0, 1), 0u);
  EXPECT_EQ(h.mgr->stats().acks_sent, 0u);
  EXPECT_EQ(h.mgr->unacked(1, 0), 1u);
}

// ---- Coalescing (ReliableOptions::batch_bytes above one payload). ----

TEST(ChannelBatching, SizeCapCoalescesManyPayloadsPerFrame) {
  ReliableOptions opt;
  opt.batch_bytes = 64;  // payload(_) stages 12 + 4 overhead = 16 bytes
  opt.batch_flush_us = 1000;
  Harness h(opt);
  std::uint64_t now = 0;
  for (std::uint8_t i = 0; i < 20; ++i) h.mgr->send(0, 1, payload(i), now);
  h.mgr->flush(0, now);  // force the tail out
  h.pump(1);
  ASSERT_EQ(h.got.size(), 20u);
  for (std::uint8_t i = 0; i < 20; ++i) EXPECT_EQ(h.got[i], payload(i));
  const ChannelManager::Stats s = h.mgr->stats();
  EXPECT_EQ(s.payloads_coalesced, 20u);
  EXPECT_EQ(s.delivered, 20u);
  // 4 payloads per size-capped flush: 5 data frames, not 20.
  EXPECT_EQ(s.data_sent, 5u);
  EXPECT_EQ(s.batch_flushes, 5u);
}

TEST(ChannelBatching, AgeCapFlushesAndDeferredAckGoesStandalone) {
  ReliableOptions opt;
  opt.batch_bytes = 1024;
  opt.batch_flush_us = 100;
  opt.rto_initial_us = 100000;  // keep retransmits out of the picture
  Harness h(opt);
  h.mgr->send(0, 1, payload(1), 0);
  h.mgr->send(0, 1, payload(2), 0);
  EXPECT_EQ(h.transmissions, 0u);  // staged, not sent
  h.mgr->service(0, 50);
  EXPECT_EQ(h.transmissions, 0u);  // younger than the age cap
  h.mgr->service(0, 100);
  EXPECT_EQ(h.transmissions, 1u);  // aged batch flushed as one frame
  h.pump(100);
  ASSERT_EQ(h.got.size(), 2u);
  // The receiver defers its ack hoping for reverse data to piggyback on...
  EXPECT_EQ(h.mgr->unacked(0, 1), 1u);
  h.mgr->service(1, 150);
  h.pump(150);
  EXPECT_EQ(h.mgr->unacked(0, 1), 1u);  // ...not due yet...
  h.mgr->service(1, 200);
  h.pump(200);
  EXPECT_EQ(h.mgr->unacked(0, 1), 0u);  // ...sent standalone at the age cap
  EXPECT_EQ(h.mgr->stats().acks_sent, 1u);
}

TEST(ChannelBatching, AckPiggybacksOnReverseData) {
  ReliableOptions opt;
  opt.batch_bytes = 1024;
  opt.batch_flush_us = 100;
  opt.rto_initial_us = 100000;
  Harness h(opt);
  h.mgr->send(0, 1, payload(1), 0);
  h.mgr->flush(0, 0);
  h.pump(0);
  ASSERT_EQ(h.got.size(), 1u);
  EXPECT_EQ(h.mgr->unacked(0, 1), 1u);
  // Reverse data inside the deferral window carries the cumulative ack.
  h.mgr->send(1, 0, payload(2), 10);
  h.mgr->flush(1, 10);
  h.pump(10);
  ASSERT_EQ(h.got.size(), 2u);
  EXPECT_EQ(h.mgr->unacked(0, 1), 0u);         // acked by piggyback...
  EXPECT_EQ(h.mgr->stats().acks_sent, 0u);     // ...no standalone ack frame
  EXPECT_EQ(h.mgr->unacked(1, 0), 1u);         // reverse frame awaits its own
}

TEST(ChannelBatching, LostBatchRecoveredWholeByRetransmit) {
  ReliableOptions opt;
  opt.batch_bytes = 48;  // exactly three staged payloads
  opt.batch_flush_us = 1000;
  opt.rto_initial_us = 100;
  Harness h(opt);
  h.drop = {1};  // the (only) first data transmission vanishes
  std::uint64_t now = 0;
  for (std::uint8_t i = 0; i < 3; ++i) h.mgr->send(0, 1, payload(i), now);
  h.pump(now);
  EXPECT_TRUE(h.got.empty());
  EXPECT_EQ(h.mgr->unacked(0, 1), 1u);  // one frame holds the whole batch
  now = 200;
  h.mgr->service(0, now);
  h.pump(now);
  ASSERT_EQ(h.got.size(), 3u);
  for (std::uint8_t i = 0; i < 3; ++i) EXPECT_EQ(h.got[i], payload(i));
  EXPECT_EQ(h.mgr->stats().retransmits, 1u);
  EXPECT_EQ(h.mgr->stats().delivered, 3u);
}

// ---- End to end: ThreadEngine marking over an actively faulted plane. ----

Graph make_presized(std::uint32_t pes, std::uint32_t cap) {
  Graph g(pes, cap);
  for (PeId pe = 0; pe < pes; ++pe) g.store(pe).set_fixed_capacity(true);
  return g;
}

NetOptions lossy_net(std::uint64_t seed) {
  NetOptions net;
  net.faults.seed = seed;
  net.faults.spec.drop = 0.10;
  net.faults.spec.duplicate = 0.10;
  net.faults.spec.reorder = 0.20;
  net.faults.spec.truncate = 0.05;
  net.reliable.rto_initial_us = 200;
  return net;
}

TEST(ThreadEngineUnderFaults, MarksLikeOracleAndSweepsExactlyGar) {
  Graph g = make_presized(4, 2000);
  RandomGraphOptions opt;
  opt.num_vertices = 3000;
  opt.seed = 42;
  opt.num_tasks = 32;
  const BuiltGraph b = build_random_graph(g, opt);
  Oracle o(g, b.root, b.tasks);
  const std::size_t expected_gar = o.count_GAR();

  ThreadEngine eng(g, lossy_net(/*seed=*/7));
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
  eng.start();
  eng.controller().start_cycle();
  eng.wait_cycle_done();
  eng.stop();

  // Property 1 under faults: the sweep freed exactly GAR'.
  EXPECT_EQ(eng.controller().last().swept, expected_gar);
  for (VertexId v : b.vertices) {
    if (g.is_free(v)) continue;
    EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v));
    EXPECT_EQ(eng.marker().prior(Plane::kR, v), o.prior_at(v));
  }
  // The plane really misbehaved, and the channel really recovered.
  ASSERT_NE(eng.fault_plane(), nullptr);
  EXPECT_GT(eng.fault_plane()->stats().total_injected(), 0u);
  const auto& reg = eng.metrics_registry();
  EXPECT_GT(reg.total(obs::Counter::kMsgDroppedInjected) +
                reg.total(obs::Counter::kMsgReorderedInjected),
            0u);
  EXPECT_GT(reg.total(obs::Counter::kMsgRetransmit), 0u);
  // Every decode error happened at the frame layer (checksum rejection of a
  // truncated frame, recovered by retransmission); none leaked through
  // exactly-once delivery to the task decoder.
  EXPECT_EQ(reg.total(obs::Counter::kMsgDecodeError),
            eng.channels()->stats().decode_errors);
}

TEST(ThreadEngineUnderFaults, AuditedCyclesStayClean) {
  Graph g = make_presized(4, 2500);
  RandomGraphOptions opt;
  opt.num_vertices = 1500;
  opt.seed = 11;
  opt.num_tasks = 16;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g, lossy_net(/*seed=*/42));
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
  eng.enable_audit();
  eng.enable_watchdog();
  eng.start();
  for (int i = 0; i < 5; ++i) {
    CycleOptions copt;
    copt.detect_deadlock = i % 2 == 0;
    eng.controller().start_cycle(copt);
    eng.wait_cycle_done();
  }
  eng.stop();
  // §5.4.1 invariants, Property 1 accounting and the swept == GAR'
  // cross-check all held at every safe point despite the faulted wire.
  EXPECT_EQ(eng.audit_stats().audits, 5u);
  EXPECT_EQ(eng.audit_stats().violations, 0u) << eng.audit_stats().last_what;
  EXPECT_EQ(eng.health().total(), 0u);
}

TEST(ThreadEngineUnderFaults, ForceReliableWithoutFaultsIsTransparent) {
  Graph g = make_presized(2, 1200);
  RandomGraphOptions opt;
  opt.num_vertices = 800;
  opt.seed = 3;
  const BuiltGraph b = build_random_graph(g, opt);
  Oracle o(g, b.root, {});
  NetOptions net;
  net.force_reliable = true;  // channel layer on, zero fault schedule
  // A spurious RTO under scheduler jitter would retransmit (harmless but
  // nonzero counters); under TSan a PE can stall well past the default
  // 20 ms rto_max, so push both knobs out to 10 min to keep zeros exact.
  net.reliable.rto_initial_us = 600000000;
  net.reliable.rto_max_us = 600000000;
  ThreadEngine eng(g, net);
  eng.set_root(b.root);
  eng.start();
  eng.controller().start_cycle();
  eng.wait_cycle_done();
  eng.stop();
  for (VertexId v : b.vertices) {
    if (g.is_free(v)) continue;
    EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v));
  }
  ASSERT_NE(eng.channels(), nullptr);
  EXPECT_EQ(eng.fault_plane()->stats().total_injected(), 0u);
  EXPECT_EQ(eng.metrics_registry().total(obs::Counter::kMsgDupSuppressed), 0u);
}

}  // namespace
}  // namespace dgr
