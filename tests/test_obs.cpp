// Tests for the observability layer: the per-PE metrics registry (concurrent
// counter integrity, engine wiring) and the trace ring buffer + exporters
// (JSONL round-trip, Chrome export shape, ring overflow, and byte-identical
// traces across same-seed simulator runs).
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sim_engine.h"
#include "runtime/thread_engine.h"

namespace dgr {
namespace {

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  constexpr std::uint32_t kPes = 4;
  constexpr int kThreadsPerPe = 2;
  constexpr std::uint64_t kPerThread = 50000;
  obs::MetricsRegistry reg(kPes);
  std::vector<std::thread> ts;
  for (std::uint32_t pe = 0; pe < kPes; ++pe)
    for (int t = 0; t < kThreadsPerPe; ++t)
      ts.emplace_back([&reg, pe] {
        for (std::uint64_t i = 0; i < kPerThread; ++i)
          reg.add(pe, obs::Counter::kMarkTasks);
      });
  for (auto& t : ts) t.join();
  for (std::uint32_t pe = 0; pe < kPes; ++pe)
    EXPECT_EQ(reg.get(pe, obs::Counter::kMarkTasks),
              kThreadsPerPe * kPerThread);
  EXPECT_EQ(reg.total(obs::Counter::kMarkTasks),
            kPes * kThreadsPerPe * kPerThread);
}

TEST(MetricsRegistry, HistogramsAndJson) {
  obs::MetricsRegistry reg(2);
  for (int i = 1; i <= 100; ++i)
    reg.observe(0, obs::Hist::kMarkQueueDepth, double(i));
  EXPECT_EQ(reg.hist(0, obs::Hist::kMarkQueueDepth).count(), 100u);
  EXPECT_EQ(reg.hist(1, obs::Hist::kMarkQueueDepth).count(), 0u);
  EXPECT_EQ(reg.merged_hist(obs::Hist::kMarkQueueDepth).count(), 100u);

  reg.add(1, obs::Counter::kBytesSent, 17);
  const std::string j = reg.to_json();
  EXPECT_NE(j.find("\"num_pes\":2"), std::string::npos);
  EXPECT_NE(j.find("\"bytes_sent\":17"), std::string::npos);
  EXPECT_NE(j.find("\"mark_queue_depth\""), std::string::npos);
  // Deterministic: serializing twice gives the same bytes.
  EXPECT_EQ(j, reg.to_json());

  reg.reset();
  EXPECT_EQ(reg.total(obs::Counter::kBytesSent), 0u);
  EXPECT_EQ(reg.merged_hist(obs::Hist::kMarkQueueDepth).count(), 0u);
}

// Fixed-capacity stores (threaded-engine requirement).
Graph make_presized(std::uint32_t pes, std::uint32_t cap) {
  Graph g(pes, cap);
  for (PeId pe = 0; pe < pes; ++pe) g.store(pe).set_fixed_capacity(true);
  return g;
}

TEST(MetricsRegistry, ThreadEngineCountersMatchMarker) {
  Graph g = make_presized(4, 2000);
  RandomGraphOptions opt;
  opt.num_vertices = 3000;
  opt.seed = 11;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  eng.start();
  eng.controller().start_cycle(CycleOptions{false});
  eng.wait_cycle_done();
  eng.stop();

  const obs::MetricsRegistry& reg = eng.metrics_registry();
  // Every mark/return execution increments the registry exactly once, so the
  // totals must agree with the marker's own counters.
  EXPECT_EQ(reg.total(obs::Counter::kMarkTasks),
            eng.controller().last().stats_r.marks);
  EXPECT_EQ(reg.total(obs::Counter::kReturnTasks),
            eng.controller().last().stats_r.returns);
  EXPECT_GT(reg.total(obs::Counter::kRemoteMessages), 0u);
  EXPECT_GT(reg.total(obs::Counter::kBytesSent), 0u);
  EXPECT_GT(eng.stats().mailbox_high_water, 0u);
}

TEST(MetricsRegistry, SimEngineChargesExecutingPe) {
  Graph g(2);
  RandomGraphOptions opt;
  opt.num_vertices = 500;
  opt.seed = 5;
  const BuiltGraph b = build_random_graph(g, opt);
  SimEngine eng(g);
  eng.set_root(b.root);
  eng.controller().start_cycle(CycleOptions{false});
  eng.run_until_cycle_done();
  const std::uint64_t marks =
      eng.metrics_registry().total(obs::Counter::kMarkTasks);
  EXPECT_EQ(marks, eng.controller().last().stats_r.marks);
  // Per-PE attribution sums to the total.
  std::uint64_t sum = 0;
  for (std::uint32_t pe = 0; pe < 2; ++pe)
    sum += eng.metrics_registry().get(pe, obs::Counter::kMarkTasks);
  EXPECT_EQ(sum, marks);
}

TEST(TraceBuffer, RingOverflowDropsOldest) {
  obs::TraceBuffer t(8);
  for (std::uint64_t i = 0; i < 20; ++i)
    t.emit(obs::EventType::kSweep, Plane::kR, 0, 1, i);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  const auto ev = t.snapshot();
  ASSERT_EQ(ev.size(), 8u);
  // Oldest surviving first: payloads 12..19.
  for (std::size_t i = 0; i < ev.size(); ++i) EXPECT_EQ(ev[i].a, 12 + i);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceExport, JsonlRoundTrip) {
  std::vector<obs::TraceEvent> ev;
  obs::TraceEvent e;
  e.ts = 12;
  e.type = obs::EventType::kSweep;
  e.plane = Plane::kR;
  e.pe = 0;
  e.cycle = 3;
  e.a = 17;
  ev.push_back(e);
  e.ts = 99;
  e.type = obs::EventType::kPhaseBegin;
  e.plane = Plane::kT;
  e.pe = 7;
  e.cycle = 4;
  e.a = 2;
  e.b = 5;
  ev.push_back(e);

  const std::string text = obs::to_jsonl(ev);
  EXPECT_NE(text.find("\"type\":\"sweep\""), std::string::npos);
  const std::vector<obs::TraceEvent> back = obs::from_jsonl(text);
  ASSERT_EQ(back.size(), ev.size());
  for (std::size_t i = 0; i < ev.size(); ++i) EXPECT_EQ(back[i], ev[i]);
}

// Shared fixture: a marking cycle over a static graph with garbage, traced.
std::vector<obs::TraceEvent> traced_cycle(std::uint64_t seed) {
  Graph g(4);
  RandomGraphOptions opt;
  opt.num_vertices = 2000;
  opt.seed = 21;
  opt.num_tasks = 16;
  const BuiltGraph b = build_random_graph(g, opt);
  SimOptions sopt;
  sopt.seed = seed;
  SimEngine eng(g, sopt);
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.spawn(Task::request(t.s, t.d, ReqKind::kVital));
  obs::TraceBuffer* tb = eng.enable_trace();
  EXPECT_NE(tb, nullptr);
  eng.controller().start_cycle(CycleOptions{true});
  eng.run_until_cycle_done();
  return tb->snapshot();
}

TEST(TraceExport, SameSeedTracesAreByteIdentical) {
  const std::string a = obs::to_jsonl(traced_cycle(9));
  const std::string b = obs::to_jsonl(traced_cycle(9));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  const std::string c = obs::to_jsonl(traced_cycle(10));
  EXPECT_NE(a, c);  // a different interleaving leaves a different trace
}

TEST(TraceExport, CycleEmitsRichTaxonomy) {
  const std::vector<obs::TraceEvent> ev = traced_cycle(9);
  std::set<obs::EventType> kinds;
  for (const obs::TraceEvent& e : ev) kinds.insert(e.type);
  EXPECT_GE(kinds.size(), 6u);
  EXPECT_TRUE(kinds.count(obs::EventType::kCycleStart));
  EXPECT_TRUE(kinds.count(obs::EventType::kPhaseBegin));
  EXPECT_TRUE(kinds.count(obs::EventType::kPhaseEnd));
  EXPECT_TRUE(kinds.count(obs::EventType::kWaveFront));
  EXPECT_TRUE(kinds.count(obs::EventType::kSweep));
  EXPECT_TRUE(kinds.count(obs::EventType::kCycleEnd));
}

TEST(TraceExport, ChromeTraceShape) {
  const std::vector<obs::TraceEvent> ev = traced_cycle(9);
  const std::string json = obs::to_chrome_trace(ev, 4);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  // One named track per PE plus the controller track.
  for (const char* name : {"\"PE 0\"", "\"PE 1\"", "\"PE 2\"", "\"PE 3\"",
                           "\"controller\""})
    EXPECT_NE(json.find(name), std::string::npos) << name;
  // Phase spans appear as complete duration events.
  EXPECT_NE(json.find("\"name\":\"M_R\",\"ph\":\"X\""), std::string::npos);
}

TEST(TraceExport, ThreadEngineTraceCapturesCycle) {
  Graph g = make_presized(2, 1500);
  RandomGraphOptions opt;
  opt.num_vertices = 2000;
  opt.seed = 13;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  obs::TraceBuffer* tb = eng.enable_trace();
  ASSERT_NE(tb, nullptr);
  eng.start();
  eng.controller().start_cycle(CycleOptions{false});
  eng.wait_cycle_done();
  eng.stop();
  const auto ev = tb->snapshot();
  std::set<obs::EventType> kinds;
  for (const obs::TraceEvent& e : ev) kinds.insert(e.type);
  EXPECT_TRUE(kinds.count(obs::EventType::kCycleStart));
  EXPECT_TRUE(kinds.count(obs::EventType::kCycleEnd));
  EXPECT_TRUE(kinds.count(obs::EventType::kWaveFront));
}

}  // namespace
}  // namespace dgr
