// Seeded determinism of the session-workload driver (docs/WORKLOAD.md).
//
// The contract the soak harness and the differential chaos leg both lean on:
// the schedule is a PURE function of WorkloadOptions — no engine, no clock —
// and the driver's kSession* trace events carry schedule facts only, so the
// same seed must produce byte-identical session streams on every engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "obs/export.h"
#include "runtime/sim_engine.h"
#include "runtime/thread_engine.h"
#include "workload/session.h"

namespace dgr {
namespace {

using workload::EventKind;
using workload::SessionDriver;
using workload::SessionEvent;
using workload::WorkloadOptions;

WorkloadOptions small_options(std::uint64_t seed) {
  WorkloadOptions w;
  w.seed = seed;
  w.pes = 4;
  w.ticks = 32;
  w.rate = 2.0;
  w.sim_steps_per_tick = 2000;
  return w;
}

TEST(WorkloadSchedule, SameSeedSameSchedule) {
  const WorkloadOptions w = small_options(42);
  const auto a = workload::generate_schedule(w);
  const auto b = workload::generate_schedule(w);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(WorkloadSchedule, DifferentSeedDifferentSchedule) {
  const auto a = workload::generate_schedule(small_options(1));
  const auto b = workload::generate_schedule(small_options(2));
  EXPECT_NE(a, b);
}

TEST(WorkloadSchedule, EveryArrivalCompletes) {
  const auto sched = workload::generate_schedule(small_options(7));
  std::map<std::uint64_t, int> open;  // session -> +1 arrive / -1 complete
  std::uint32_t last_tick = 0;
  for (const SessionEvent& ev : sched) {
    EXPECT_GE(ev.tick, last_tick) << "schedule not tick-ordered";
    last_tick = std::max(last_tick, ev.tick);
    if (ev.kind == EventKind::kArrive) {
      EXPECT_EQ(open.count(ev.session), 0u);
      open[ev.session] = 1;
      EXPECT_GE(ev.depth, small_options(7).depth_min);
      EXPECT_LE(ev.depth, small_options(7).depth_max);
    } else if (ev.kind == EventKind::kComplete) {
      ASSERT_EQ(open.count(ev.session), 1u) << "complete without arrive";
      open.erase(ev.session);
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " sessions never complete";
}

TEST(WorkloadSchedule, ZipfSkewsTowardLowKeys) {
  WorkloadOptions w = small_options(3);
  w.ticks = 128;
  w.zipf_s = 1.4;
  const auto sched = workload::generate_schedule(w);
  std::vector<std::uint64_t> hits(w.hot_keys, 0);
  for (const SessionEvent& ev : sched) ++hits[ev.hot % w.hot_keys];
  // Zipf: the hottest key dominates the coldest half combined being rare;
  // concretely key 0 must beat the per-key uniform share by a wide margin.
  std::uint64_t total = 0;
  for (auto h : hits) total += h;
  ASSERT_GT(total, 0u);
  EXPECT_GT(hits[0], total / w.hot_keys * 2)
      << "hot key 0 not hot: " << hits[0] << "/" << total;
}

// The schedule-fact tuple of a driver trace: everything except the engine
// clock (ts) and the cycle stamp, which legitimately differ across engines.
struct SessionTuple {
  obs::EventType type;
  std::uint16_t pe;
  std::uint64_t a, b;
  bool operator==(const SessionTuple&) const = default;
};

std::vector<SessionTuple> session_tuples(const std::vector<obs::TraceEvent>& evs) {
  std::vector<SessionTuple> out;
  for (const auto& e : evs) {
    switch (e.type) {
      case obs::EventType::kSessionOpen:
      case obs::EventType::kSessionChurn:
      case obs::EventType::kSessionClose:
        out.push_back({e.type, e.pe, e.a, e.b});
        break;
      default:
        break;
    }
  }
  return out;
}

std::vector<SessionTuple> run_sim(const WorkloadOptions& w,
                                  workload::SoakTotals* totals = nullptr,
                                  std::size_t* live_non_aux = nullptr) {
  Graph g(w.pes, workload::required_capacity(w));
  SimOptions sopt;
  sopt.seed = w.seed;
  SimEngine eng(g, sopt);
  obs::TraceBuffer* tb = eng.enable_trace();
  auto drv_eng = workload::make_driver(eng);
  SessionDriver drv(*drv_eng, w);
  drv.setup();
  for (PeId pe = 0; pe < g.num_pes(); ++pe)
    g.store(pe).set_fixed_capacity(true);
  drv.run(workload::generate_schedule(w));
  if (totals) *totals = drv.totals();
  if (live_non_aux) {
    std::size_t n = 0;
    g.for_each_live([&](VertexId) { ++n; });
    *live_non_aux = n;
  }
  return session_tuples(tb->snapshot());
}

std::vector<SessionTuple> run_thread(const WorkloadOptions& w) {
  Graph g(w.pes, workload::required_capacity(w));
  ThreadEngine eng(g, NetOptions{});
  obs::TraceBuffer* tb = eng.enable_trace();
  auto drv_eng = workload::make_driver(eng);
  SessionDriver drv(*drv_eng, w);
  drv.setup();
  for (PeId pe = 0; pe < g.num_pes(); ++pe)
    g.store(pe).set_fixed_capacity(true);
  eng.start();
  drv.run(workload::generate_schedule(w));
  eng.stop();
  return session_tuples(tb->snapshot());
}

TEST(WorkloadDeterminism, TraceIdenticalAcrossSimRuns) {
  const WorkloadOptions w = small_options(11);
  const auto a = run_sim(w);
  const auto b = run_sim(w);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(WorkloadDeterminism, TraceIdenticalSimVsThread) {
  // The cross-engine leg of the contract: the threaded engine races real PE
  // threads against the mutator, yet the session stream (admissions, churn,
  // retirements — all schedule facts) must match the simulator's exactly.
  const WorkloadOptions w = small_options(5);
  const auto sim = run_sim(w);
  const auto thr = run_thread(w);
  ASSERT_FALSE(sim.empty());
  EXPECT_EQ(sim, thr);
}

TEST(WorkloadLifecycle, AllSessionsRetireAndRegionsSweep) {
  const WorkloadOptions w = small_options(9);
  workload::SoakTotals totals;
  std::size_t live = 0;
  run_sim(w, &totals, &live);
  EXPECT_GT(totals.opened, 0u);
  EXPECT_EQ(totals.opened, totals.closed);
  EXPECT_EQ(totals.rejected, 0u);
  EXPECT_EQ(totals.divergence, 0u);
  EXPECT_GT(totals.cycles, 0u);
  // After the drain cycles the only non-aux survivors are the standing
  // fixture: one anchor per PE plus the hot-key set.
  EXPECT_EQ(live, w.pes + w.hot_keys);
}

}  // namespace
}  // namespace dgr
