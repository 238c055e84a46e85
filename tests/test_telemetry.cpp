// Cluster telemetry plane units: wire codecs for kTelemetry/kClockProbe/
// kClockEcho, the Cristian clock-offset estimator, registry bucket merging,
// and the live health-rollup formatters (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/clock_sync.h"
#include "net/proto.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dgr {
namespace {

// ---- ClockSync -------------------------------------------------------------

TEST(ClockSync, MidpointOffsetFromOneExchange) {
  ClockSync cs;
  EXPECT_FALSE(cs.valid());
  EXPECT_EQ(cs.offset_us(), 0);
  // Controller sends at 1000, receives at 1200; worker clock read 5100 at the
  // midpoint (1100) -> offset = +4000.
  cs.on_echo(1000, 1200, 5100);
  EXPECT_TRUE(cs.valid());
  EXPECT_EQ(cs.samples(), 1u);
  EXPECT_EQ(cs.offset_us(), 4000);
  EXPECT_EQ(cs.rtt_us(), 200u);
}

TEST(ClockSync, NegativeSkewWorkerBehindController) {
  // Workers fork after the controller, so their monotonic clocks usually
  // read BEHIND it: offset must come out negative and rebase must add the
  // magnitude back.
  ClockSync cs;
  cs.on_echo(10000, 10400, 7200);  // midpoint 10200 -> offset -3000
  EXPECT_EQ(cs.offset_us(), -3000);
  EXPECT_EQ(cs.rebase(7200), 10200u);  // worker ts maps onto controller time
  EXPECT_EQ(cs.rebase(0), 3000u);
}

TEST(ClockSync, RebaseClampsAtZeroAndStaysMonotone) {
  ClockSync cs;
  cs.on_echo(100, 100, 9000);  // offset +8900 (zero RTT)
  EXPECT_EQ(cs.rebase(50), 0u);    // would be negative: pinned to 0
  EXPECT_EQ(cs.rebase(8900), 0u);  // exactly the offset
  EXPECT_EQ(cs.rebase(8901), 1u);
  // Clamping never reorders: nondecreasing in, nondecreasing out.
  std::uint64_t prev = 0;
  for (std::uint64_t ts : {0u, 10u, 8899u, 8900u, 9000u, 20000u}) {
    const std::uint64_t r = cs.rebase(ts);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(ClockSync, MinRttSampleWins) {
  ClockSync cs;
  cs.on_echo(1000, 1400, 1500);  // rtt 400, offset +300
  EXPECT_EQ(cs.offset_us(), 300);
  // A looser exchange must not override the estimate...
  cs.on_echo(2000, 3000, 9999);  // rtt 1000
  EXPECT_EQ(cs.offset_us(), 300);
  EXPECT_EQ(cs.rtt_us(), 400u);
  // ...but a tighter one must.
  cs.on_echo(5000, 5100, 5150);  // rtt 100, offset +100
  EXPECT_EQ(cs.offset_us(), 100);
  EXPECT_EQ(cs.rtt_us(), 100u);
  EXPECT_EQ(cs.samples(), 3u);
}

TEST(ClockSync, DiscardsBackwardControllerClock) {
  ClockSync cs;
  cs.on_echo(500, 400, 777);  // t1 < t0: impossible exchange
  EXPECT_FALSE(cs.valid());
  EXPECT_EQ(cs.samples(), 0u);
}

// ---- Wire codecs -----------------------------------------------------------

TEST(TelemetryCodec, ClockProbeEchoRoundTrip) {
  ClockProbeMsg p;
  p.seq = 42;
  p.t_controller_us = 123456789ull;
  ClockProbeMsg p2;
  ASSERT_TRUE(decode_clock_probe(encode_clock_probe(p), p2));
  EXPECT_EQ(p2.seq, p.seq);
  EXPECT_EQ(p2.t_controller_us, p.t_controller_us);

  ClockEchoMsg e;
  e.seq = 42;
  e.t_controller_us = p.t_controller_us;
  e.t_worker_us = 55555ull;
  ClockEchoMsg e2;
  ASSERT_TRUE(decode_clock_echo(encode_clock_echo(e), e2));
  EXPECT_EQ(e2.seq, e.seq);
  EXPECT_EQ(e2.t_controller_us, e.t_controller_us);
  EXPECT_EQ(e2.t_worker_us, e.t_worker_us);

  ClockProbeMsg junk;
  EXPECT_FALSE(decode_clock_probe(Bytes{1, 2, 3}, junk));
}

TelemetryMsg sample_telemetry() {
  TelemetryMsg m;
  m.plane = Plane::kT;
  m.epoch = 17;
  m.pe_begin = 2;
  m.pe_count = 2;
  m.counters.push_back(
      {2, static_cast<std::uint8_t>(obs::Counter::kMarkTasks), 31});
  m.counters.push_back(
      {3, static_cast<std::uint8_t>(obs::Counter::kRemoteMessages), 7});
  TelemetryMsg::HistDelta hd;
  hd.pe = 3;
  hd.hist = static_cast<std::uint8_t>(obs::Hist::kMarkQueueDepth);
  hd.max = 12.5;
  hd.buckets.emplace_back(0, 4);
  hd.buckets.emplace_back(5, 2);
  m.hists.push_back(hd);
  obs::TraceEvent ev;
  ev.ts = 999;
  ev.cycle = 3;
  ev.a = 64;
  ev.type = obs::EventType::kWaveFront;
  ev.plane = Plane::kT;
  ev.pe = 2;
  m.events.push_back(ev);
  m.events.push_back(obs::make_drop_event(1000, 3, 2, 5, 1));
  m.events_omitted = 1;
  m.ring_dropped = 5;
  return m;
}

TEST(TelemetryCodec, RoundTripPreservesEverything) {
  const TelemetryMsg m = sample_telemetry();
  TelemetryMsg d;
  ASSERT_TRUE(decode_telemetry(encode_telemetry(m), d));
  EXPECT_EQ(d.plane, m.plane);
  EXPECT_EQ(d.epoch, m.epoch);
  EXPECT_EQ(d.pe_begin, m.pe_begin);
  EXPECT_EQ(d.pe_count, m.pe_count);
  ASSERT_EQ(d.counters.size(), 2u);
  EXPECT_EQ(d.counters[0].pe, 2u);
  EXPECT_EQ(d.counters[0].counter,
            static_cast<std::uint8_t>(obs::Counter::kMarkTasks));
  EXPECT_EQ(d.counters[0].delta, 31u);
  EXPECT_EQ(d.counters[1].delta, 7u);
  ASSERT_EQ(d.hists.size(), 1u);
  EXPECT_EQ(d.hists[0].pe, 3u);
  EXPECT_DOUBLE_EQ(d.hists[0].max, 12.5);
  ASSERT_EQ(d.hists[0].buckets.size(), 2u);
  EXPECT_EQ(d.hists[0].buckets[1], (std::pair<std::uint32_t, std::uint64_t>{
                                       5u, 2u}));
  ASSERT_EQ(d.events.size(), 2u);
  EXPECT_EQ(d.events[0], m.events[0]);
  EXPECT_EQ(d.events[1].type, obs::EventType::kTraceDrop);
  EXPECT_EQ(d.events[1].a, 5u);  // ring drops
  EXPECT_EQ(d.events[1].b, 1u);  // payload-cap drops
  EXPECT_EQ(d.events_omitted, 1u);
  EXPECT_EQ(d.ring_dropped, 5u);
}

TEST(TelemetryCodec, EmptyDeltaIsValid) {
  TelemetryMsg m;  // a quiet interval ships an empty (but well-formed) delta
  TelemetryMsg d = sample_telemetry();  // prove decode overwrites
  ASSERT_TRUE(decode_telemetry(encode_telemetry(m), d));
  EXPECT_TRUE(d.counters.empty());
  EXPECT_TRUE(d.hists.empty());
  EXPECT_TRUE(d.events.empty());
  EXPECT_EQ(d.ring_dropped, 0u);
}

TEST(TelemetryCodec, RejectsOutOfRangeIds) {
  TelemetryMsg d;
  {
    TelemetryMsg m = sample_telemetry();
    m.counters[0].counter = static_cast<std::uint8_t>(obs::kNumCounters);
    EXPECT_FALSE(decode_telemetry(encode_telemetry(m), d));
  }
  {
    TelemetryMsg m = sample_telemetry();
    m.hists[0].hist = static_cast<std::uint8_t>(obs::kNumHists);
    EXPECT_FALSE(decode_telemetry(encode_telemetry(m), d));
  }
  {
    TelemetryMsg m = sample_telemetry();
    m.events[0].type = static_cast<obs::EventType>(obs::kNumEventTypes);
    EXPECT_FALSE(decode_telemetry(encode_telemetry(m), d));
  }
  {
    Bytes b = encode_telemetry(sample_telemetry());
    b.pop_back();  // truncated payload
    EXPECT_FALSE(decode_telemetry(b, d));
  }
}

TEST(TelemetryCodec, WorkerConfigCarriesTraceRequest) {
  WorkerConfig c;
  c.num_pes = 8;
  c.pe_begin = 4;
  c.pe_count = 4;
  c.net.faults.seed = 9;
  c.net.faults.spec.drop = 0.25;
  c.net.faults.spec.duplicate = 0.125;
  c.net.faults.spec.reorder = 0.5;
  c.net.faults.spec.truncate = 0.0625;
  c.net.faults.spec.reorder_span = 7;
  c.net.reliable.rto_initial_us = 250;
  c.net.reliable.rto_max_us = 9000;
  c.net.reliable.max_retransmit_batch = 5;
  c.net.reliable.batch_bytes = 1024;
  c.net.reliable.batch_flush_us = 33;
  c.trace_enabled = true;
  c.trace_capacity = 512;
  // Wire format pin (kProtoVersion 4): these exact bytes, field by field,
  // little-endian. A worker decodes the kRegisterAck that carries them, so
  // any change here needs a protocol version bump.
  const Bytes golden = {
      // num_pes, pe_begin, pe_count
      0x08, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
      // net.faults.seed
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // drop, duplicate, reorder, truncate (IEEE-754 bits)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xb0, 0x3f,
      // reorder_span
      0x07, 0x00, 0x00, 0x00,
      // rto_initial_us, rto_max_us
      0xfa, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x23, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
      // max_retransmit_batch, batch_bytes
      0x05, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
      // batch_flush_us
      0x21, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // trace_enabled, trace_capacity
      0x01, 0x00, 0x02, 0x00, 0x00,
  };
  EXPECT_EQ(encode_worker_config(c), golden);
  RegisterAckMsg ack;
  ack.worker_index = 1;
  ack.num_workers = 2;
  ack.config = c;
  Bytes ack_golden = {0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
                      0x5d, 0x00, 0x00, 0x00};  // index, workers, length
  ack_golden.insert(ack_golden.end(), golden.begin(), golden.end());
  EXPECT_EQ(encode_register_ack(ack), ack_golden);
  EXPECT_EQ(kProtoVersion, 4u);

  WorkerConfig d;
  ASSERT_TRUE(decode_worker_config(golden, d));
  EXPECT_EQ(d.pe_begin, 4u);
  EXPECT_EQ(d.net.faults.seed, 9u);
  EXPECT_EQ(d.net.faults.spec.drop, 0.25);
  EXPECT_EQ(d.net.faults.spec.truncate, 0.0625);
  EXPECT_EQ(d.net.faults.spec.reorder_span, 7u);
  EXPECT_EQ(d.net.reliable.max_retransmit_batch, 5u);
  EXPECT_EQ(d.net.reliable.batch_flush_us, 33u);
  EXPECT_TRUE(d.trace_enabled);
  EXPECT_EQ(d.trace_capacity, 512u);
  c.trace_enabled = false;
  ASSERT_TRUE(decode_worker_config(encode_worker_config(c), d));
  EXPECT_FALSE(d.trace_enabled);
}

// ---- Registry merge (receive side of HistDelta) ----------------------------

TEST(MetricsRegistry, MergeHistBucketFoldsRawDeltas) {
  obs::MetricsRegistry local(2);
  local.observe(1, obs::Hist::kMarkQueueDepth, 3.0);
  local.observe(1, obs::Hist::kMarkQueueDepth, 3.0);
  local.observe(1, obs::Hist::kMarkQueueDepth, 100.0);
  const Histogram src = local.hist(1, obs::Hist::kMarkQueueDepth);

  // Ship every bucket as a delta into a fresh "controller" registry.
  obs::MetricsRegistry merged(2);
  for (std::size_t b = 0; b < src.num_buckets(); ++b)
    if (src.bucket_count(b))
      merged.merge_hist_bucket(1, obs::Hist::kMarkQueueDepth,
                               static_cast<std::uint32_t>(b),
                               src.bucket_count(b), src.max_value());
  const Histogram dst = merged.hist(1, obs::Hist::kMarkQueueDepth);
  EXPECT_EQ(dst.count(), src.count());
  EXPECT_DOUBLE_EQ(dst.max_value(), src.max_value());
  for (std::size_t b = 0; b < src.num_buckets(); ++b)
    EXPECT_EQ(dst.bucket_count(b), src.bucket_count(b)) << "bucket " << b;
}

// ---- Health rollup formatters ----------------------------------------------

obs::HealthSnapshot sample_health() {
  obs::HealthSnapshot s;
  s.cycle = 40;
  s.cycles_window = 10;
  s.window_ms = 123.0;
  s.marks = 12300;
  s.remote_msgs = 400;
  s.local_msgs = 600;
  s.retransmits = 3;
  s.workers_live = 3;
  s.workers_total = 4;
  return s;
}

TEST(Health, LineCarriesRateShareAndLiveness) {
  const std::string line = obs::health_line(sample_health());
  EXPECT_NE(line.find("cycle 40"), std::string::npos) << line;
  // 123 ms / 10 cycles and 12300 marks / 0.123 s.
  EXPECT_NE(line.find("12.30 ms/cycle"), std::string::npos) << line;
  EXPECT_NE(line.find("1e+05 marks/s"), std::string::npos) << line;
  // 400 remote of 1000 total messages.
  EXPECT_NE(line.find("remote 40.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("retx 3"), std::string::npos) << line;
  EXPECT_NE(line.find("workers 3/4"), std::string::npos) << line;
  // No drops -> no drop segment.
  EXPECT_EQ(line.find("tele-drop"), std::string::npos) << line;

  obs::HealthSnapshot s = sample_health();
  s.telemetry_dropped = 9;
  s.workers_total = 0;  // in-process run: no worker segment
  const std::string l2 = obs::health_line(s);
  EXPECT_NE(l2.find("tele-drop 9"), std::string::npos) << l2;
  EXPECT_EQ(l2.find("workers"), std::string::npos) << l2;
}

TEST(Health, JsonlRowIsCompleteAndParseable) {
  const std::string row = obs::health_jsonl(sample_health());
  EXPECT_EQ(row.front(), '{');
  EXPECT_EQ(row.back(), '}');
  for (const char* key :
       {"\"cycle\":40", "\"cycles_window\":10", "\"window_ms\":123",
        "\"marks\":12300", "\"remote_msgs\":400", "\"local_msgs\":600",
        "\"retransmits\":3", "\"telemetry_dropped\":0", "\"workers_live\":3",
        "\"workers_total\":4"})
    EXPECT_NE(row.find(key), std::string::npos) << key << " in " << row;
}

}  // namespace
}  // namespace dgr
