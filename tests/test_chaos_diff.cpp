// Differential chaos harness: the batched message plane must be
// *observationally invisible*, and so must the process boundary.
//
// Three replicas of the same seeded graph run side by side:
//   [0] SimEngine              — the deterministic reference executor,
//   [1] ThreadEngine, batch off — PR-4 semantics (one message per frame),
//   [2] ThreadEngine, batch on  — aggressive coalescing + batch drain.
// and, when ChaosParams::proc_workers > 0, a fourth:
//   [3] ProcEngine — real worker processes marking partition replicas over
//       sockets (docs/CLUSTER.md), merged back every wave.
//
// A seeded op stream (delete-reference / add-reference / expand-node /
// task-injection) is generated by probing replica 0 and applied verbatim to
// all three BETWEEN marking cycles (engines idle, so the stream — not
// scheduling — is the only mutation source). Before every cycle the
// sequential Oracle snapshots replica 0; after the cycle every replica must
// agree with it exactly:
//   swept == |GAR'|                    (Property 1)
//   expunged == #tasks classified irrelevant   (Property 6)
//   deadlocked == DL'_v, member for member     (Theorem 2, quiescent case)
//   per-vertex marks and priorities == R / R_v / R_e / R_r / T
// and the three replicas' graph censuses (liveness, edges, request kinds,
// requester sets) must be identical — any divergence the batching layer
// introduces (lost frame, reordered flush, double-delivered batch) surfaces
// as a census or accounting mismatch on a named seed.
#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "graph/builder.h"
#include "graph/oracle.h"
#include "runtime/proc_engine.h"
#include "runtime/sim_engine.h"
#include "runtime/thread_engine.h"
#include "util/rng.h"
#include "workload/session.h"

namespace dgr {
namespace {

Graph make_presized(std::uint32_t pes, std::uint32_t cap) {
  Graph g(pes, cap);
  for (PeId pe = 0; pe < pes; ++pe) g.store(pe).set_fixed_capacity(true);
  return g;
}

bool vid_less(VertexId a, VertexId b) {
  return std::tie(a.pe, a.idx) < std::tie(b.pe, b.idx);
}

std::vector<VertexId> sorted_vids(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end(), vid_less);
  return v;
}

// Structural digest of a graph: everything the op stream and the collector
// can change, nothing schedule-dependent (marking epochs and returned values
// are excluded). Identical digests <=> identical observable graph state.
std::vector<std::uint64_t> census(const Graph& g) {
  std::vector<std::uint64_t> d;
  g.for_each_live([&](VertexId v) {
    const Vertex& vx = g.at(v);
    d.push_back(v.pe);
    d.push_back(v.idx);
    d.push_back(static_cast<std::uint64_t>(vx.op));
    d.push_back(vx.args.size());
    for (const ArgEdge& e : vx.args) {
      d.push_back(e.to.pe);
      d.push_back(e.to.idx);
      d.push_back(static_cast<std::uint64_t>(e.req));
    }
    std::vector<VertexId> req = vx.requested;
    std::sort(req.begin(), req.end(), vid_less);
    d.push_back(req.size());
    for (VertexId r : req) {
      d.push_back(r.pe);
      d.push_back(r.idx);
    }
  });
  return d;
}

bool ref_less(TaskRef a, TaskRef b) {
  return std::tie(a.s.pe, a.s.idx, a.d.pe, a.d.idx) <
         std::tie(b.s.pe, b.s.idx, b.d.pe, b.d.idx);
}

// The seeded op stream. Ops are generated by probing replica 0 (the sim)
// and then applied — with the concrete vertex ids baked in — to every
// replica, so all three see the byte-identical mutation sequence.
struct ChaosParams {
  std::uint64_t seed = 1;
  std::uint32_t pes = 4;
  std::uint32_t capacity = 1400;
  std::uint32_t vertices = 800;
  std::uint32_t tasks = 10;
  int rounds = 4;
  int ops_per_round = 40;
  NetOptions net_on;   // batching replica
  NetOptions net_off;  // comparison replica
  // >0 adds the multi-process leg: a ProcEngine with this many dgr_worker
  // processes ($DGR_WORKER_BIN or PATH) held to the same oracle numbers.
  std::uint32_t proc_workers = 0;
};

NetOptions batch_on_net() {
  NetOptions net;
  net.batch_bytes = 32768;  // far past any single burst: age/idle flush rules
  net.batch_flush_us = 50;  // must carry the whole protocol
  return net;
}

NetOptions batch_off_net() {
  NetOptions net;
  net.batch_bytes = 0;
  return net;
}

class ChaosRig {
 public:
  explicit ChaosRig(const ChaosParams& p)
      : p_(p),
        g_sim_(make_presized(p.pes, p.capacity)),
        g_off_(make_presized(p.pes, p.capacity)),
        g_on_(make_presized(p.pes, p.capacity)),
        g_proc_(make_presized(p.pes, p.capacity)),
        rng_(p.seed * 7919 + 13) {
    RandomGraphOptions opt;
    opt.num_vertices = p.vertices;
    opt.seed = p.seed;
    opt.num_tasks = p.tasks;
    opt.p_detached = 0.25;
    b_ = build_random_graph(g_sim_, opt);
    const BuiltGraph b_off = build_random_graph(g_off_, opt);
    const BuiltGraph b_on = build_random_graph(g_on_, opt);
    EXPECT_EQ(b_.root, b_off.root);
    EXPECT_EQ(b_.root, b_on.root);

    SimOptions sopt;
    sopt.seed = p.seed;
    sim_ = std::make_unique<SimEngine>(g_sim_, sopt);
    off_ = std::make_unique<ThreadEngine>(g_off_, p.net_off);
    on_ = std::make_unique<ThreadEngine>(g_on_, p.net_on);
    sim_->set_root(b_.root);
    off_->set_root(b_.root);
    on_->set_root(b_.root);
    if (p.proc_workers > 0) {
      const BuiltGraph b_proc = build_random_graph(g_proc_, opt);
      EXPECT_EQ(b_.root, b_proc.root);
      ProcOptions popt;
      popt.workers = p.proc_workers;
      proc_ = std::make_unique<ProcEngine>(g_proc_, popt);
      proc_->set_root(b_.root);
    }
    for (const TaskRef& t : b_.tasks) inject(Task::request(t.s, t.d,
                                                           ReqKind::kVital));
    off_->start();
    on_->start();
    if (proc_) proc_->start();
  }

  ~ChaosRig() {
    off_->stop();
    on_->stop();
    if (proc_) proc_->stop();
  }

  SimEngine& sim() { return *sim_; }
  ThreadEngine& off() { return *off_; }
  ThreadEngine& on() { return *on_; }
  ProcEngine& proc() { return *proc_; }

  void inject(Task t) {
    sim_->spawn(t);
    off_->inject(t);
    on_->inject(t);
    if (proc_) proc_->inject(t);
  }

  // Walk args edges from the root of replica 0 for a "currently interesting"
  // live vertex (the same sampler the concurrent-mutation test uses).
  VertexId sample() {
    VertexId v = b_.root;
    for (std::uint64_t i = rng_.below(10); i > 0; --i) {
      const Vertex& vx = g_sim_.at(v);
      if (vx.args.empty()) break;
      const VertexId nxt = vx.args[rng_.below(vx.args.size())].to;
      if (!nxt.valid() || g_sim_.is_free(nxt)) break;
      v = nxt;
    }
    return v;
  }

  // One op, same concrete ids everywhere. Returns false when the probe found
  // no valid op this draw (the round simply retries with fresh randomness).
  bool apply_one_op() {
    const VertexId a = sample();
    switch (rng_.below(4)) {
      case 0: {  // delete-reference(a, args[i])
        const Vertex& va = g_sim_.at(a);
        if (va.args.empty()) return false;
        const VertexId tgt = va.args[rng_.below(va.args.size())].to;
        sim_->mutator().delete_reference(a, tgt);
        off_->atomically({a, tgt}, [&] {
          off_->mutator().delete_reference(a, tgt);
        });
        on_->atomically({a, tgt}, [&] {
          on_->mutator().delete_reference(a, tgt);
        });
        if (proc_) {
          proc_->atomically({a, tgt}, [&] {
            proc_->mutator().delete_reference(a, tgt);
          });
        }
        return true;
      }
      case 1: {  // add-reference(a, b, c)
        const Vertex& va = g_sim_.at(a);
        if (va.args.empty()) return false;
        const VertexId bb = va.args[rng_.below(va.args.size())].to;
        if (!bb.valid() || g_sim_.is_free(bb) || g_sim_.at(bb).args.empty())
          return false;
        const Vertex& vb = g_sim_.at(bb);
        const VertexId c = vb.args[rng_.below(vb.args.size())].to;
        if (!c.valid() || g_sim_.is_free(c)) return false;
        const ReqKind k = rng_.below(2) ? ReqKind::kVital : ReqKind::kEager;
        sim_->mutator().add_reference(a, bb, c, k);
        off_->atomically({a, bb, c}, [&] {
          off_->mutator().add_reference(a, bb, c, k);
        });
        on_->atomically({a, bb, c}, [&] {
          on_->mutator().add_reference(a, bb, c, k);
        });
        if (proc_) {
          proc_->atomically({a, bb, c}, [&] {
            proc_->mutator().add_reference(a, bb, c, k);
          });
        }
        return true;
      }
      case 2: {  // expand-node(a, {fresh})
        const VertexId f_sim = g_sim_.alloc(a.pe, OpCode::kData);
        const VertexId f_off = g_off_.alloc(a.pe, OpCode::kData);
        const VertexId f_on = g_on_.alloc(a.pe, OpCode::kData);
        // Free lists must agree — the sweep order is engine-independent.
        EXPECT_EQ(f_sim, f_off);
        EXPECT_EQ(f_sim, f_on);
        if (proc_) {
          EXPECT_EQ(f_sim, g_proc_.alloc(a.pe, OpCode::kData));
        }
        if (!f_sim.valid()) return false;  // all stores full
        auto expand = [&](Mutator& m, VertexId f) {
          const VertexId fresh[] = {f};
          m.expand_node(a, fresh);
          m.add_reference_via(a, std::span<const VertexId>(&a, 1), f,
                              ReqKind::kEager);
        };
        expand(sim_->mutator(), f_sim);
        off_->atomically({a, f_off}, [&] { expand(off_->mutator(), f_off); });
        on_->atomically({a, f_on}, [&] { expand(on_->mutator(), f_on); });
        if (proc_) {
          proc_->atomically({a, f_sim},
                            [&] { expand(proc_->mutator(), f_sim); });
        }
        return true;
      }
      default: {  // inject an inert request task <s, d>
        const VertexId s = sample();
        const VertexId d = sample();
        const ReqKind k = rng_.below(2) ? ReqKind::kVital : ReqKind::kEager;
        inject(Task::request(s, d, k));
        return true;
      }
    }
  }

  // One full chaos round: mutate, snapshot the oracle, cycle everywhere,
  // then hold every replica to the oracle's numbers.
  void run_round(int round) {
    for (int i = 0; i < p_.ops_per_round; ++i) apply_one_op();
    off_->wait_quiescent();
    on_->wait_quiescent();

    // Identical task populations before the cycle (pools only: quiescent).
    std::vector<TaskRef> refs;
    sim_->collect_task_refs(refs);
    std::sort(refs.begin(), refs.end(), ref_less);
    {
      std::vector<TaskRef> r_off, r_on;
      off_->collect_task_refs(r_off);
      on_->collect_task_refs(r_on);
      std::sort(r_off.begin(), r_off.end(), ref_less);
      std::sort(r_on.begin(), r_on.end(), ref_less);
      ASSERT_EQ(refs, r_off) << "pool divergence before cycle " << round;
      ASSERT_EQ(refs, r_on) << "pool divergence before cycle " << round;
      if (proc_) {
        std::vector<TaskRef> r_proc;
        proc_->collect_task_refs(r_proc);
        std::sort(r_proc.begin(), r_proc.end(), ref_less);
        ASSERT_EQ(refs, r_proc)
            << "proc pool divergence before cycle " << round;
      }
    }

    Oracle o(g_sim_, b_.root, refs);
    std::size_t irrelevant = 0;
    for (const TaskRef& t : refs)
      if (o.classify(t) == TaskClass::kIrrelevant) ++irrelevant;

    CycleOptions copt;
    copt.detect_deadlock = round % 2 == 0;
    sim_->controller().start_cycle(copt);
    sim_->run_until_cycle_done();
    off_->controller().start_cycle(copt);
    off_->wait_cycle_done();
    on_->controller().start_cycle(copt);
    on_->wait_cycle_done();
    if (proc_) {
      // ProcEngine::start_cycle, not controller().start_cycle(): the kill leg
      // fires membership recovery on a hub reader thread, and the engine
      // wrapper excludes it from racing the cycle's task-root construction.
      proc_->start_cycle(copt);
      proc_->wait_cycle_done();
      ASSERT_FALSE(proc_->failed())
          << "every worker died in round " << round;
    }

    check_replica("sim", *sim_, g_sim_, o, irrelevant, copt, round);
    check_replica("batch-off", *off_, g_off_, o, irrelevant, copt, round);
    check_replica("batch-on", *on_, g_on_, o, irrelevant, copt, round);
    if (proc_) check_replica("proc", *proc_, g_proc_, o, irrelevant, copt,
                             round);

    // Byte-identical structural censuses across all replicas.
    const std::vector<std::uint64_t> c_sim = census(g_sim_);
    EXPECT_EQ(c_sim, census(g_off_)) << "census divergence (off) round "
                                     << round;
    EXPECT_EQ(c_sim, census(g_on_)) << "census divergence (on) round "
                                    << round;
    if (proc_) {
      EXPECT_EQ(c_sim, census(g_proc_))
          << "census divergence (proc) round " << round;
    }
  }

  void run_all() {
    for (int r = 0; r < p_.rounds; ++r) {
      run_round(r);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  template <typename Engine>
  void check_replica(const char* name, Engine& eng, const Graph& g,
                     const Oracle& o, std::size_t irrelevant,
                     const CycleOptions& copt, int round) {
    const CycleResult& res = eng.controller().last();
    EXPECT_EQ(res.swept, o.count_GAR())
        << name << " swept != |GAR'| in round " << round;
    EXPECT_EQ(res.expunged, irrelevant)
        << name << " expunged != #irrelevant in round " << round;
    if (copt.detect_deadlock) {
      EXPECT_TRUE(res.deadlock_report_valid) << name << " round " << round;
      EXPECT_EQ(sorted_vids(res.deadlocked), sorted_vids(o.members_DLv()))
          << name << " DL'_v mismatch in round " << round;
    }
    g.for_each_live([&](VertexId v) {
      EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v))
          << name << " R mark of (" << v.pe << "," << v.idx << ")";
      EXPECT_EQ(eng.marker().prior(Plane::kR, v), o.prior_at(v))
          << name << " priority of (" << v.pe << "," << v.idx << ")";
      if (copt.detect_deadlock) {
        EXPECT_EQ(eng.marker().is_marked(Plane::kT, v), o.in_T(v))
            << name << " T mark of (" << v.pe << "," << v.idx << ")";
      }
    });
  }

  ChaosParams p_;
  Graph g_sim_, g_off_, g_on_, g_proc_;
  Rng rng_;
  BuiltGraph b_;
  std::unique_ptr<SimEngine> sim_;
  std::unique_ptr<ThreadEngine> off_;
  std::unique_ptr<ThreadEngine> on_;
  std::unique_ptr<ProcEngine> proc_;
};

// ---- The tier-1 seed matrix (each seed is its own ctest case). ----

class ChaosDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosDiff, PerCycleAgreement) {
  ChaosParams p;
  p.seed = GetParam();
  p.net_on = batch_on_net();
  p.net_off = batch_off_net();
  p.proc_workers = 2;  // the process leg: 2 dgr_worker processes, 2 PEs each
  ChaosRig rig(p);
  rig.run_all();
  // The batching replica must actually have batched: coalesced multi-task
  // deliveries on the marking hot path, not a degenerate one-per-frame run.
  EXPECT_GT(rig.on().stats().msg_batched, 0u);
  EXPECT_GT(rig.on().stats().batch_flushes, 0u);
  EXPECT_EQ(rig.off().stats().msg_batched, 0u);  // and the control did not
  // And the process leg really ran the protocol: per-plane handoffs went
  // out, seeds crossed the wire, every wave merged one report per worker.
  const ProcEngineStats ps = rig.proc().stats();
  EXPECT_GT(ps.planes_started, 0u);
  EXPECT_GT(ps.handoffs_sent, 0u);
  EXPECT_GT(ps.seeds_sent, 0u);
  EXPECT_EQ(ps.reports_merged,
            (ps.planes_started + ps.rescue_begins) * rig.proc().num_workers());
}

INSTANTIATE_TEST_SUITE_P(Seeded, ChaosDiff,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed_" + std::to_string(i.param);
                         });

// ---- Worker-kill leg: the surviving cluster is still oracle-exact. ----
//
// Same rig, 3 worker processes. Two clean rounds establish the baseline,
// then worker 1 is SIGKILLed while the engines are idle; the controller must
// detect the loss, repartition the dead worker's PEs onto the survivors,
// fence the membership generation, and the remaining two rounds must still
// match the sequential Oracle vertex-for-vertex (sweep == |GAR'|, DL'_v
// member-for-member) — the loss is observationally invisible to the Hudak
// invariants.

class ChaosKill : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosKill, SurvivorsStayOracleExact) {
  ChaosParams p;
  p.seed = GetParam();
  p.net_on = batch_on_net();
  p.net_off = batch_off_net();
  p.proc_workers = 3;
  ChaosRig rig(p);

  rig.run_round(0);
  if (::testing::Test::HasFatalFailure()) return;
  rig.run_round(1);
  if (::testing::Test::HasFatalFailure()) return;

  const long pid = rig.proc().worker_pid(1);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);
  // The loss may be noticed now (reader EOF while idle) or inside round 2's
  // cycle (mid-wave abort + restart); both paths must end oracle-exact.
  rig.run_round(2);
  if (::testing::Test::HasFatalFailure()) return;
  rig.run_round(3);
  if (::testing::Test::HasFatalFailure()) return;

  const ProcEngineStats ps = rig.proc().stats();
  EXPECT_EQ(ps.workers_lost, 1u);
  EXPECT_GT(ps.partitions_reassigned, 0u);
  EXPECT_GE(rig.proc().membership_gen(), 1u);
  EXPECT_FALSE(rig.proc().worker_alive(1));
  EXPECT_EQ(rig.proc().workers_live(), 2u);
  // Post-fence planes really ran on the survivors (full snapshots after the
  // fence, then deltas again).
  EXPECT_GT(ps.handoffs_full, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeded, ChaosKill,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed_" + std::to_string(i.param);
                         });

// ---- Wider seed sweep (slow label; CI's long leg). ----

TEST(ChaosDiffSweep, ManySeedsSmallGraphs) {
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    ChaosParams p;
    p.seed = seed;
    p.vertices = 400;
    p.capacity = 800;
    p.rounds = 2;
    p.ops_per_round = 24;
    p.net_on = batch_on_net();
    p.net_off = batch_off_net();
    ChaosRig rig(p);
    rig.run_all();
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

// ---- Session-soak leg: the workload driver's op stream, fanned out. ----
//
// Instead of the synthetic probe stream above, the seeded session workload
// (docs/WORKLOAD.md) generates the mutations: arrivals build request graphs
// under per-PE anchors, churn acquires/drops Zipf hot keys and injects
// request tasks, completions retire whole regions. One SessionDriver fans
// every mutation out through MultiDriverEngine to three replicas — sim,
// threaded (batching on), and a 2-worker ProcEngine — and between cycles the
// sequential Oracle snapshots the sim replica; every replica must sweep
// exactly |GAR'|, expunge exactly the irrelevant tasks, agree on every
// R-mark, and match the structural census byte for byte.

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, SessionStreamStaysOracleExact) {
  workload::WorkloadOptions w;
  w.seed = GetParam();
  w.pes = 4;
  w.ticks = 16;
  w.rate = 1.5;
  w.max_live = 64;
  const std::uint32_t cap = workload::required_capacity(w);

  Graph g_sim = make_presized(w.pes, cap);
  Graph g_thr = make_presized(w.pes, cap);
  Graph g_proc = make_presized(w.pes, cap);
  SimOptions sopt;
  sopt.seed = w.seed;
  SimEngine sim(g_sim, sopt);
  ThreadEngine thr(g_thr, batch_on_net());
  ProcOptions popt;
  popt.workers = 2;
  ProcEngine proc(g_proc, popt);

  auto d_sim = workload::make_driver(sim);
  auto d_thr = workload::make_driver(thr);
  auto d_proc = workload::make_driver(proc);
  workload::MultiDriverEngine multi({d_sim.get(), d_thr.get(), d_proc.get()});
  workload::SessionDriver drv(multi, w);
  drv.setup();
  thr.start();
  proc.start();

  const auto sched = workload::generate_schedule(w);
  ASSERT_FALSE(sched.empty());
  const std::uint32_t last_tick = sched.back().tick;

  int round = 0;
  auto oracle_cycle = [&] {
    multi.wait_quiescent();
    // Identical task populations on every replica before the cycle.
    std::vector<TaskRef> refs, r_thr, r_proc;
    sim.collect_task_refs(refs);
    thr.collect_task_refs(r_thr);
    proc.collect_task_refs(r_proc);
    std::sort(refs.begin(), refs.end(), ref_less);
    std::sort(r_thr.begin(), r_thr.end(), ref_less);
    std::sort(r_proc.begin(), r_proc.end(), ref_less);
    EXPECT_EQ(refs, r_thr) << "thread pool divergence, round " << round;
    EXPECT_EQ(refs, r_proc) << "proc pool divergence, round " << round;

    Oracle o(g_sim, sim.controller().marking_root(), refs);
    std::size_t irrelevant = 0;
    for (const TaskRef& t : refs)
      if (o.classify(t) == TaskClass::kIrrelevant) ++irrelevant;

    CycleOptions copt;
    copt.detect_deadlock = round % 2 == 0;
    multi.start_cycle(copt);
    multi.wait_cycle_done();
    EXPECT_FALSE(proc.failed()) << "every worker died, round " << round;

    auto check = [&](const char* name, auto& eng, const Graph& g) {
      const CycleResult& res = eng.controller().last();
      EXPECT_EQ(res.swept, o.count_GAR())
          << name << " swept != |GAR'|, round " << round;
      EXPECT_EQ(res.expunged, irrelevant)
          << name << " expunged != #irrelevant, round " << round;
      g.for_each_live([&](VertexId v) {
        EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v))
            << name << " R mark of (" << v.pe << "," << v.idx << "), round "
            << round;
      });
    };
    check("sim", sim, g_sim);
    check("thread", thr, g_thr);
    check("proc", proc, g_proc);

    const std::vector<std::uint64_t> c_sim = census(g_sim);
    EXPECT_EQ(c_sim, census(g_thr))
        << "census divergence (thread), round " << round;
    EXPECT_EQ(c_sim, census(g_proc))
        << "census divergence (proc), round " << round;
    ++round;
  };

  for (std::uint32_t tick = 0; tick <= last_tick; ++tick) {
    drv.apply_tick(sched, tick);
    if ((tick + 1) % w.cycle_every == 0) oracle_cycle();
    if (::testing::Test::HasFailure()) break;
  }
  // Drain: the final completes have retired their regions; two more cycles
  // sweep them and the now-irrelevant injected tasks.
  if (!::testing::Test::HasFailure()) oracle_cycle();
  if (!::testing::Test::HasFailure()) oracle_cycle();

  thr.stop();
  proc.stop();

  EXPECT_GT(drv.totals().opened, 0u);
  EXPECT_EQ(drv.totals().opened, drv.totals().closed);
  EXPECT_EQ(drv.totals().rejected, 0u);
  EXPECT_EQ(drv.totals().divergence, 0u)
      << "replica alloc streams disagreed";
  EXPECT_EQ(drv.live_sessions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeded, ChaosSoak,
                         ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed_" + std::to_string(i.param);
                         });

// ---- Steal leg: idle-PE work stealing must be observationally invisible. ----

TEST(ChaosDiffSteal, StealOnOffAgreeWithOracle) {
  ChaosParams p;
  p.seed = 5;
  p.net_on = batch_off_net();   // per-task frames: backlog visible to thieves
  p.net_on.steal_min = 1;       // steal at the slightest imbalance
  p.net_off = batch_off_net();
  p.net_off.steal = false;      // control: no stealing at all
  ChaosRig rig(p);
  rig.run_all();
  // The stealing replica really stole, and the control never did — yet both
  // matched the sequential Oracle on every cycle above.
  EXPECT_GT(rig.on().stats().steal_tasks, 0u);
  EXPECT_EQ(rig.off().stats().steal_tasks, 0u);
}

// ---- Fault leg: batching composed with an actively faulted plane. ----

TEST(ChaosDiffFaults, LossyBatchedPlaneStillAgreesWithOracle) {
  NetOptions lossy;
  lossy.faults.seed = 77;
  lossy.faults.spec.drop = 0.08;
  lossy.faults.spec.duplicate = 0.08;
  lossy.faults.spec.reorder = 0.15;
  lossy.faults.spec.truncate = 0.04;
  lossy.reliable.rto_initial_us = 200;

  ChaosParams p;
  p.seed = 21;
  p.rounds = 3;
  p.net_on = lossy;          // channel-layer batching (default batch_bytes)
  p.net_off = lossy;
  p.net_off.batch_bytes = 0; // one payload per frame, same protocol
  ChaosRig rig(p);
  rig.run_all();
  // Both planes really misbehaved, the batched channel really coalesced, and
  // the control sent exactly one payload per frame.
  ASSERT_NE(rig.on().fault_plane(), nullptr);
  EXPECT_GT(rig.on().fault_plane()->stats().total_injected(), 0u);
  EXPECT_GT(rig.off().fault_plane()->stats().total_injected(), 0u);
  ASSERT_NE(rig.on().channels(), nullptr);
  EXPECT_GT(rig.on().channels()->stats().payloads_coalesced, 0u);
  ASSERT_NE(rig.off().channels(), nullptr);
  const ChannelManager::Stats off = rig.off().channels()->stats();
  EXPECT_GT(off.batch_flushes, 0u);
  EXPECT_EQ(off.payloads_coalesced, off.batch_flushes);
}

}  // namespace
}  // namespace dgr
