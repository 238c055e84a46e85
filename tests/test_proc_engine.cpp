// ProcEngine end-to-end: real dgr_worker processes over sockets, held to the
// sequential Oracle cycle after cycle (docs/CLUSTER.md walks the protocol).
// The worker binary resolves via $DGR_WORKER_BIN (set by ctest) or PATH.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "graph/builder.h"
#include "graph/oracle.h"
#include "runtime/proc_engine.h"
#include "util/rng.h"

namespace dgr {
namespace {

Graph make_presized(std::uint32_t pes, std::uint32_t cap) {
  Graph g(pes, cap);
  for (PeId pe = 0; pe < pes; ++pe) g.store(pe).set_fixed_capacity(true);
  return g;
}

struct RigParams {
  std::uint64_t seed = 3;
  std::uint32_t pes = 4;
  std::uint32_t capacity = 900;
  std::uint32_t vertices = 500;
  std::uint32_t tasks = 12;
  // Arm controller + worker trace rings before start().
  bool trace = false;
  std::size_t trace_capacity = 1 << 14;
};

class ProcRig {
 public:
  ProcRig(const RigParams& rp, ProcOptions popt)
      : g_(make_presized(rp.pes, rp.capacity)), rng_(rp.seed * 31 + 7) {
    RandomGraphOptions opt;
    opt.num_vertices = rp.vertices;
    opt.seed = rp.seed;
    opt.num_tasks = rp.tasks;
    opt.p_detached = 0.3;
    b_ = build_random_graph(g_, opt);
    eng_ = std::make_unique<ProcEngine>(g_, popt);
    eng_->set_root(b_.root);
    if (rp.trace) eng_->enable_trace(rp.trace_capacity);
    for (const TaskRef& t : b_.tasks)
      eng_->inject(Task::request(t.s, t.d, ReqKind::kVital));
    eng_->start();
  }

  ~ProcRig() { eng_->stop(); }

  Graph& g() { return g_; }
  ProcEngine& eng() { return *eng_; }
  VertexId root() const { return b_.root; }

  // Mutate a little so consecutive cycles see different reachability.
  void churn(int ops) {
    for (int i = 0; i < ops; ++i) {
      VertexId v = b_.root;
      for (std::uint64_t j = rng_.below(8); j > 0; --j) {
        const Vertex& vx = g_.at(v);
        if (vx.args.empty()) break;
        const VertexId nxt = vx.args[rng_.below(vx.args.size())].to;
        if (!nxt.valid() || g_.is_free(nxt)) break;
        v = nxt;
      }
      const Vertex& vv = g_.at(v);
      if (vv.args.empty()) continue;
      const VertexId tgt = vv.args[rng_.below(vv.args.size())].to;
      eng_->atomically({v, tgt},
                       [&] { eng_->mutator().delete_reference(v, tgt); });
    }
  }

  // One marking cycle, checked vertex-for-vertex against the Oracle.
  void cycle_checked(bool detect_deadlock, int round) {
    std::vector<TaskRef> refs;
    eng_->collect_task_refs(refs);
    Oracle o(g_, b_.root, refs);
    std::size_t irrelevant = 0;
    for (const TaskRef& t : refs)
      if (o.classify(t) == TaskClass::kIrrelevant) ++irrelevant;

    CycleOptions copt;
    copt.detect_deadlock = detect_deadlock;
    // Under the engine lock, which holds restructuring (it clears the task
    // roots) off until they are read: per pool PE (the PE owning the task's
    // destination) they hold the live endpoints of the refs, each once —
    // what a walk over every pooled task attaches (§5.2).
    std::vector<std::set<std::uint64_t>> want(g_.num_pes());
    for (const TaskRef& r : refs)
      for (const VertexId v : {r.s, r.d})
        if (v.valid() && g_.at(v).live) want[r.d.pe].insert(v.pack());
    std::vector<std::set<std::uint64_t>> got(g_.num_pes());
    std::size_t attached = 0;
    eng_->atomically({}, [&] {
      eng_->start_cycle(copt);
      for (PeId pe = 0; pe < g_.num_pes(); ++pe)
        for (const ArgEdge& e : g_.at(g_.store(pe).taskroot()).args) {
          got[pe].insert(e.to.pack());
          ++attached;
        }
    });
    if (detect_deadlock) {
      EXPECT_EQ(got, want) << "task roots, round " << round;
      std::size_t distinct = 0;
      for (const auto& set : got) distinct += set.size();
      EXPECT_EQ(attached, distinct)
          << "an endpoint attached twice, round " << round;
    }
    eng_->wait_cycle_done();
    ASSERT_FALSE(eng_->failed()) << "worker died in round " << round;

    const CycleResult& res = eng_->controller().last();
    EXPECT_EQ(res.swept, o.count_GAR()) << "round " << round;
    EXPECT_EQ(res.expunged, irrelevant) << "round " << round;
    if (detect_deadlock) {
      EXPECT_TRUE(res.deadlock_report_valid) << "round " << round;
      std::vector<VertexId> got = res.deadlocked;
      std::vector<VertexId> want = o.members_DLv();
      auto less = [](VertexId a, VertexId b) {
        return a.pe != b.pe ? a.pe < b.pe : a.idx < b.idx;
      };
      std::sort(got.begin(), got.end(), less);
      std::sort(want.begin(), want.end(), less);
      EXPECT_EQ(got, want) << "DL'_v mismatch in round " << round;
    }
    g_.for_each_live([&](VertexId v) {
      EXPECT_EQ(eng_->marker().is_marked(Plane::kR, v), o.in_R(v))
          << "R mark of (" << v.pe << "," << v.idx << ") round " << round;
      EXPECT_EQ(eng_->marker().prior(Plane::kR, v), o.prior_at(v))
          << "priority of (" << v.pe << "," << v.idx << ") round " << round;
      if (detect_deadlock) {
        EXPECT_EQ(eng_->marker().is_marked(Plane::kT, v), o.in_T(v))
            << "T mark of (" << v.pe << "," << v.idx << ") round " << round;
      }
    });
  }

 private:
  Graph g_;
  Rng rng_;
  BuiltGraph b_;
  std::unique_ptr<ProcEngine> eng_;
};

TEST(ProcEngine, TwoWorkersMatchOracleAcrossCycles) {
  RigParams rp;
  rp.trace = true;
  ProcOptions popt;
  popt.workers = 2;
  ProcRig rig(rp, popt);
  rig.eng().controller().set_paranoid_sweep_check(true);
  rig.eng().enable_audit();
  for (int round = 0; round < 3; ++round) {
    rig.cycle_checked(/*detect_deadlock=*/round % 2 == 0, round);
    if (::testing::Test::HasFatalFailure()) return;
    rig.churn(6);
  }
  // The safe-point audits ran inside the restructuring window and all held.
  EXPECT_GT(rig.eng().audit_stats().audits, 0u);
  EXPECT_EQ(rig.eng().audit_stats().violations, 0u)
      << rig.eng().audit_stats().last_what;
  // Every audit reached the controller's trace as one kAudit event.
  ASSERT_NE(rig.eng().trace(), nullptr);
  ASSERT_EQ(rig.eng().trace()->dropped(), 0u);
  const std::vector<obs::TraceEvent> ev = rig.eng().trace()->snapshot();
  EXPECT_EQ(static_cast<std::uint64_t>(std::count_if(
                ev.begin(), ev.end(),
                [](const obs::TraceEvent& e) {
                  return e.type == obs::EventType::kAudit;
                })),
            rig.eng().audit_stats().audits);
  // Protocol accounting: every plane shipped one handoff per worker and the
  // waves really crossed the wire.
  const ProcEngineStats s = rig.eng().stats();
  EXPECT_EQ(s.handoffs_sent, s.planes_started * rig.eng().num_workers());
  EXPECT_GT(s.handoff_bytes, 0u);
  EXPECT_GT(s.seeds_sent, 0u);
  EXPECT_EQ(s.reports_merged,
            (s.planes_started + s.rescue_begins) * rig.eng().num_workers());
  EXPECT_GT(s.transport.frames_received, 0u);
}

// The task roots of an M_T cycle (checked in cycle_checked) over duplicate
// <s,d> tasks, source-less <-,d> tasks, and a source that one cycle sweeps
// and the next finds live again in its reused slot: the task still names
// the slot, so it is attached, as the per-task walk and the Oracle do.
TEST(ProcEngine, TaskRootsHoldTheLiveEndpointsOfThePooledTasks) {
  RigParams rp;
  rp.seed = 17;
  ProcOptions popt;
  popt.workers = 2;
  ProcRig rig(rp, popt);
  Graph& g = rig.g();
  const VertexId root = rig.root();
  VertexId x = VertexId::invalid();
  rig.eng().atomically({}, [&] { x = g.alloc(1, OpCode::kLit); });
  rig.eng().inject(Task::request(x, root, ReqKind::kVital));
  for (const ArgEdge& e : g.at(root).args) {
    if (!e.to.valid()) continue;
    rig.eng().inject(Task::request(root, e.to, ReqKind::kVital));
    rig.eng().inject(Task::request(root, e.to, ReqKind::kEager));
    rig.eng().inject(Task::request(VertexId::invalid(), e.to, ReqKind::kVital));
  }
  rig.cycle_checked(/*detect_deadlock=*/true, 0);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(g.is_free(x)) << "the unreachable source was not swept";
  rig.eng().atomically({}, [&] {
    VertexId y = VertexId::invalid();
    while (y != x) y = g.alloc(x.pe, OpCode::kLit);
  });
  rig.cycle_checked(true, 1);
  if (::testing::Test::HasFatalFailure()) return;
  rig.churn(6);
  rig.cycle_checked(true, 2);
}

TEST(ProcEngine, FourWorkersOverTcp) {
  RigParams rp;
  rp.seed = 11;
  ProcOptions popt;
  popt.workers = 4;  // one PE each
  popt.tcp = true;
  ProcRig rig(rp, popt);
  for (int round = 0; round < 2; ++round) {
    rig.cycle_checked(/*detect_deadlock=*/round == 0, round);
    if (::testing::Test::HasFatalFailure()) return;
    rig.churn(4);
  }
  EXPECT_EQ(rig.eng().num_workers(), 4u);
}

TEST(ProcEngine, SingleWorkerDegenerateCase) {
  RigParams rp;
  rp.seed = 5;
  rp.vertices = 200;
  rp.capacity = 400;
  ProcOptions popt;
  popt.workers = 1;  // every PE on one worker: no relay traffic at all
  ProcRig rig(rp, popt);
  rig.cycle_checked(/*detect_deadlock=*/true, 0);
}

TEST(ProcEngine, FaultedWorkerChannelStillExact) {
  // The worker-side fault plane drops/dups/reorders worker<->worker mark
  // traffic; the reliable channel must make it invisible — the merged marks
  // still match the Oracle exactly. Fault-plane-over-socket composition per
  // docs/FAULTS.md.
  RigParams rp;
  rp.seed = 21;
  ProcOptions popt;
  popt.workers = 2;
  popt.net.faults.seed = 77;
  popt.net.faults.spec.drop = 0.10;
  popt.net.faults.spec.duplicate = 0.10;
  popt.net.faults.spec.reorder = 0.20;
  popt.net.reliable.rto_initial_us = 300;
  ProcRig rig(rp, popt);
  rig.eng().controller().set_paranoid_sweep_check(true);
  for (int round = 0; round < 3; ++round) {
    rig.cycle_checked(/*detect_deadlock=*/round == 1, round);
    if (::testing::Test::HasFatalFailure()) return;
    rig.churn(5);
  }
}

TEST(ProcEngine, RescueWaveCrossesProcessBoundary) {
  // Queue a rescue for a root-unreachable vertex while the R wave is in
  // flight on the workers: the controller must reopen the plane
  // (kRescueBegin), replicate the freshly minted rescue root, and the
  // supplementary wave's marks must come back in the next report merge.
  RigParams rp;
  rp.seed = 9;
  ProcOptions popt;
  popt.workers = 2;
  ProcRig rig(rp, popt);
  rig.eng().controller().set_paranoid_sweep_check(true);

  bool rescued = false;
  for (int attempt = 0; attempt < 20 && !rescued; ++attempt) {
    // A live non-aux vertex the root cannot reach (fresh garbage works too —
    // churn keeps producing it).
    Oracle pre(rig.g(), rig.root(), {});
    VertexId target = VertexId::invalid();
    rig.g().for_each_live([&](VertexId v) {
      if (!target.valid() && !rig.g().at(v).aux && !pre.in_R(v))
        target = v;
    });
    if (!target.valid()) {
      rig.churn(4);
      continue;
    }
    const std::uint64_t waves_before =
        rig.eng().marker().rescue_waves(Plane::kR);
    CycleOptions copt;
    copt.detect_deadlock = false;
    rig.eng().controller().start_cycle(copt);
    // Race the wave: if it already terminated, rescue() no-ops and we retry.
    rig.eng().atomically({target}, [&] {
      rig.eng().marker().rescue(Plane::kR, target, /*prior=*/1);
    });
    rig.eng().wait_cycle_done();
    ASSERT_FALSE(rig.eng().failed());
    if (rig.eng().marker().rescue_waves(Plane::kR) > waves_before) {
      rescued = true;
      // The rescue wave marked the unreachable target, so the sweep that
      // just ran spared it: rescued garbage survives until the next cycle.
      EXPECT_TRUE(rig.eng().marker().is_marked(Plane::kR, target));
      EXPECT_TRUE(rig.g().at(target).live);
      EXPECT_GT(rig.eng().stats().rescue_begins, 0u);
    }
  }
  EXPECT_TRUE(rescued)
      << "no attempt landed a rescue inside an in-flight wave";
}

// ---- Cluster telemetry plane (PR 8) ----------------------------------------

// Every "key": value occurrence in a JSON string, in document order.
std::vector<std::uint64_t> scan_all_u64(const std::string& json,
                                        const std::string& key) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  const std::string pat = "\"" + key + "\":";
  while ((pos = json.find(pat, pos)) != std::string::npos) {
    pos += pat.size();
    out.push_back(std::strtoull(json.c_str() + pos, nullptr, 10));
  }
  return out;
}

// ---- Wire batching (docs/CLUSTER.md "Data batches") ----------------------

// One M_R cycle over a 4096-vertex graph on 2 workers (one PE each), held
// to the Oracle, that returns the cluster rollup JSON and checks every
// worker sent remote messages.
std::string batched_cycle(ProcRig& rig) {
  rig.cycle_checked(/*detect_deadlock=*/false, 0);
  if (::testing::Test::HasFatalFailure()) return {};
  const std::string full = rig.eng().cluster_metrics_json();
  const std::size_t rollup = full.find("\"workers\":[");
  EXPECT_NE(rollup, std::string::npos) << full;
  if (rollup == std::string::npos) return {};
  const std::string json = full.substr(rollup);
  const std::vector<std::uint64_t> remote =
      scan_all_u64(json, "remote_messages");
  EXPECT_EQ(remote.size(), 2u) << json;
  for (std::size_t w = 0; w < remote.size(); ++w)
    EXPECT_GT(remote[w], 0u) << "worker " << w;
  return json;
}

RigParams batching_rig() {
  RigParams rp;
  rp.seed = 23;
  rp.pes = 2;
  rp.vertices = 4096;
  rp.capacity = 2600;
  return rp;
}

TEST(ProcBatching, BarePathBatchesAndMatchesOracle) {
  // Worker↔worker marks travel in per-destination kData batches written at
  // fixed flush points, so every worker's relayed frames stay at or under
  // 1/20 of the messages it sent.
  ProcOptions popt;
  popt.workers = 2;
  ProcRig rig(batching_rig(), popt);
  const std::string json = batched_cycle(rig);
  if (::testing::Test::HasFailure()) return;
  const std::vector<std::uint64_t> relayed =
      scan_all_u64(json, "relayed_frames");
  const std::vector<std::uint64_t> remote =
      scan_all_u64(json, "remote_messages");
  ASSERT_EQ(relayed.size(), 2u) << json;
  for (std::size_t w = 0; w < 2; ++w)
    EXPECT_LE(relayed[w] * 20, remote[w]) << "worker " << w << ": " << json;
  // The workers' flush routine counts its batches on the bare plane too,
  // and the merged registry holds them.
  const obs::MetricsRegistry& reg = rig.eng().metrics();
  EXPECT_GT(reg.total(obs::Counter::kBatchFlush), 0u);
  EXPECT_GT(reg.total(obs::Counter::kMsgBatched),
            reg.total(obs::Counter::kBatchFlush));
}

TEST(ProcBatching, ChannelPathUnderFaultsBatchesAndMatchesOracle) {
  // Guards the workers' batching under faults: each batch goes to the
  // channel as one frame's payload, and some batch carried more than one
  // task. With one task per frame, each lost frame would also cost an RTO
  // round of go-back-32 retransmits at this drop rate.
  ProcOptions popt;
  popt.workers = 2;
  popt.net.faults.seed = 77;
  popt.net.faults.spec.drop = 0.10;
  popt.net.faults.spec.duplicate = 0.10;
  popt.net.faults.spec.reorder = 0.20;
  ProcRig rig(batching_rig(), popt);
  batched_cycle(rig);
  if (::testing::Test::HasFailure()) return;
  const obs::MetricsRegistry& reg = rig.eng().metrics();
  for (PeId pe = 0; pe < 2; ++pe) {
    const std::uint64_t frames = reg.get(pe, obs::Counter::kBatchFlush);
    EXPECT_GT(frames, 0u) << "worker " << pe;
    EXPECT_GT(reg.get(pe, obs::Counter::kMsgBatched), frames)
        << "worker " << pe << ": one task per batch";
  }
}

TEST(ProcTelemetry, CountersAgreeWithMergedMarkReports) {
  // The telemetry plane (counter deltas at every quiesce) and the mark-report
  // merge are independent paths over the same execution: the merged registry
  // totals must agree exactly with the wave stats the controller merged.
  RigParams rp;
  ProcOptions popt;
  popt.workers = 2;
  ProcRig rig(rp, popt);
  CycleOptions copt;
  copt.detect_deadlock = true;  // exercise both planes in one wave
  rig.eng().controller().start_cycle(copt);
  rig.eng().wait_cycle_done();
  ASSERT_FALSE(rig.eng().failed());

  const obs::MetricsRegistry& reg = rig.eng().metrics();
  const MarkStats& mr = rig.eng().marker().stats(Plane::kR);
  const MarkStats& mt = rig.eng().marker().stats(Plane::kT);
  const std::uint64_t reported_marks =
      mr.marks.load(std::memory_order_relaxed) +
      mt.marks.load(std::memory_order_relaxed);
  const std::uint64_t reported_returns =
      mr.returns.load(std::memory_order_relaxed) +
      mt.returns.load(std::memory_order_relaxed);
  EXPECT_GT(reported_marks, 0u);
  EXPECT_EQ(reg.total(obs::Counter::kMarkTasks), reported_marks);
  EXPECT_EQ(reg.total(obs::Counter::kReturnTasks), reported_returns);
  // Controller-side accounting rides the same registry.
  EXPECT_EQ(reg.total(obs::Counter::kHandoffBytes),
            rig.eng().stats().handoff_bytes);
  EXPECT_EQ(reg.total(obs::Counter::kTelemetryDropped), 0u);
}

TEST(ProcTelemetry, EveryWorkerReportsEveryPlane) {
  RigParams rp;
  rp.seed = 13;
  ProcOptions popt;
  popt.workers = 2;
  ProcRig rig(rp, popt);
  for (int round = 0; round < 3; ++round) {
    CycleOptions copt;
    copt.detect_deadlock = round == 1;
    rig.eng().controller().start_cycle(copt);
    rig.eng().wait_cycle_done();
    ASSERT_FALSE(rig.eng().failed());
    rig.churn(4);
  }
  const ProcEngineStats s = rig.eng().stats();
  const std::string full = rig.eng().cluster_metrics_json();
  // Scope the scans to the worker rollup: the registry's own totals/per-PE
  // blocks reuse counter names like telemetry_msgs.
  const std::size_t rollup = full.find("\"workers\":[");
  ASSERT_NE(rollup, std::string::npos) << full;
  const std::string json = full.substr(rollup);
  // One rollup row per worker.
  const std::vector<std::uint64_t> workers = scan_all_u64(json, "worker");
  ASSERT_EQ(workers.size(), 2u) << json;
  // Each worker shipped one telemetry payload per quiesce barrier — every
  // plane begin (and rescue reopen) ends in exactly one.
  const std::vector<std::uint64_t> tmsgs =
      scan_all_u64(json, "telemetry_msgs");
  ASSERT_EQ(tmsgs.size(), 2u);
  EXPECT_EQ(tmsgs[0], s.planes_started + s.rescue_begins);
  EXPECT_EQ(tmsgs[1], tmsgs[0]);
  // Rows partition the registry: per-worker marks sum to the merged total.
  // ("marks" as a key appears only in worker rows; the registry counter is
  // named "mark_tasks".)
  const std::vector<std::uint64_t> marks = scan_all_u64(json, "marks");
  ASSERT_EQ(marks.size(), 2u) << json;
  EXPECT_EQ(marks[0] + marks[1],
            rig.eng().metrics().total(obs::Counter::kMarkTasks));
  // Nothing dropped, and the drops field is present and zero.
  const std::vector<std::uint64_t> drops =
      scan_all_u64(json, "telemetry_dropped");
  ASSERT_GE(drops.size(), 2u);
  for (std::uint64_t d : drops) EXPECT_EQ(d, 0u);
  // At least one clock echo folded in per worker (probed at registration and
  // at every plane begin).
  EXPECT_GT(rig.eng().clock_samples(0), 0u);
  EXPECT_GT(rig.eng().clock_samples(1), 0u);
}

// Lane projection that ignores wall-clock: the behavioral part of a worker's
// trace (event kinds, planes, PE attribution, cumulative mark counts) is
// deterministic for a given seed even though timestamps never are.
std::vector<std::tuple<obs::EventType, Plane, std::uint16_t, std::uint64_t>>
project(const std::vector<obs::TraceEvent>& ev) {
  std::vector<std::tuple<obs::EventType, Plane, std::uint16_t, std::uint64_t>>
      out;
  for (const obs::TraceEvent& e : ev)
    out.emplace_back(e.type, e.plane, e.pe, e.a);
  return out;
}

TEST(ProcTelemetry, GoldenMergedTraceIsDeterministicPerSeed) {
  RigParams rp;
  rp.seed = 17;
  rp.trace = true;
  ProcOptions popt;
  popt.workers = 2;

  auto run = [&] {
    ProcRig rig(rp, popt);
    for (int round = 0; round < 2; ++round) {
      rig.eng().controller().start_cycle(CycleOptions{false});
      rig.eng().wait_cycle_done();
    }
    EXPECT_FALSE(rig.eng().failed());
    return rig.eng().worker_traces();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::uint32_t w = 0; w < 2; ++w) {
    // Every worker lane has at least the per-quiesce wave-front stamps.
    EXPECT_GE(a[w].size(), 2u) << "worker " << w;
    EXPECT_EQ(project(a[w]), project(b[w])) << "worker " << w;
    // Rebased lanes stay monotone.
    for (std::size_t i = 1; i < a[w].size(); ++i)
      EXPECT_GE(a[w][i].ts, a[w][i - 1].ts) << "worker " << w << " ev " << i;
  }
}

TEST(ProcTelemetry, TinyRingSurfacesDropAccounting) {
  // A 2-slot worker ring cannot hold a wave's worth of events: the overflow
  // must surface as ring_dropped -> kTelemetryDropped counters, a kTraceDrop
  // event in the merged lane, and a nonzero rollup field — never silently.
  RigParams rp;
  rp.seed = 19;
  rp.trace = true;
  rp.trace_capacity = 2;
  ProcOptions popt;
  popt.workers = 2;
  ProcRig rig(rp, popt);
  rig.eng().controller().start_cycle(CycleOptions{false});
  rig.eng().wait_cycle_done();
  ASSERT_FALSE(rig.eng().failed());

  EXPECT_GT(rig.eng().metrics().total(obs::Counter::kTelemetryDropped), 0u);
  const auto lanes = rig.eng().worker_traces();
  bool saw_drop_event = false;
  std::uint64_t drop_sum = 0;
  for (const auto& lane : lanes)
    for (const obs::TraceEvent& e : lane)
      if (e.type == obs::EventType::kTraceDrop) {
        saw_drop_event = true;
        drop_sum += e.a + e.b;
      }
  EXPECT_TRUE(saw_drop_event);
  EXPECT_EQ(drop_sum,
            rig.eng().metrics().total(obs::Counter::kTelemetryDropped));
  const std::string json = rig.eng().cluster_metrics_json();
  std::uint64_t rollup_drops = 0;
  for (std::uint64_t d : scan_all_u64(json, "telemetry_dropped"))
    rollup_drops += d;
  // The rollup rows and the per-PE registry double-book the same loss; each
  // worker row must account for what its lane lost.
  EXPECT_GE(rollup_drops, drop_sum);
}

}  // namespace
}  // namespace dgr
