// Tests for the multi-threaded engine: parallel decentralized marking with
// real OS threads, wire-serialized cross-PE messages, concurrent cooperating
// mutations, and full cycles with quiesced restructuring.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/oracle.h"
#include "net/wire.h"
#include "runtime/thread_engine.h"

namespace dgr {
namespace {

TEST(Wire, TaskRoundTrip) {
  Task t = Task::mark(Plane::kT, VertexId{3, 77}, VertexId{1, 2}, 2);
  const std::optional<Task> u = try_decode_task(encode_task(t));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->kind, t.kind);
  EXPECT_EQ(u->plane, t.plane);
  EXPECT_EQ(u->d, t.d);
  EXPECT_EQ(u->s, t.s);
  EXPECT_EQ(u->prior, t.prior);

  Task r = Task::return_val(VertexId{0, 1}, VertexId{5, 9},
                            Value::of_int(-42), 2);
  const std::optional<Task> r2 = try_decode_task(encode_task(r));
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->value.as_int(), -42);
  EXPECT_EQ(r2->pool_prior, 2);

  Task q = Task::request(VertexId::invalid(), VertexId{2, 4}, ReqKind::kEager);
  const std::optional<Task> q2 = try_decode_task(encode_task(q));
  ASSERT_TRUE(q2.has_value());
  EXPECT_EQ(q2->demand, ReqKind::kEager);
  EXPECT_FALSE(q2->s.valid());
}

// Fixed-capacity stores so the slot vectors never reallocate under the
// threads (the documented requirement of the threaded engine).
Graph make_presized(std::uint32_t pes, std::uint32_t cap) {
  Graph g(pes, cap);
  for (PeId pe = 0; pe < pes; ++pe) g.store(pe).set_fixed_capacity(true);
  return g;
}

TEST(ThreadEngine, MarksStaticGraphLikeOracle) {
  Graph g = make_presized(4, 2000);
  RandomGraphOptions opt;
  opt.num_vertices = 3000;
  opt.seed = 42;
  opt.num_tasks = 32;
  const BuiltGraph b = build_random_graph(g, opt);
  Oracle o(g, b.root, b.tasks);
  const std::size_t expected_gar = o.count_GAR();

  ThreadEngine eng(g);
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
  eng.start();
  eng.controller().start_cycle();
  eng.wait_cycle_done();
  eng.stop();

  EXPECT_EQ(eng.controller().last().swept, expected_gar);
  for (VertexId v : b.vertices) {
    if (g.is_free(v)) continue;
    EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v));
    EXPECT_EQ(eng.marker().prior(Plane::kR, v), o.prior_at(v));
    EXPECT_EQ(eng.marker().is_marked(Plane::kT, v), o.in_T(v));
  }
}

TEST(ThreadEngine, DeadlockScenarioDetected) {
  Graph g = make_presized(2, 64);
  const DeadlockScenario sc = build_deadlock_scenario(g);
  ThreadEngine eng(g);
  eng.set_root(sc.root);
  for (const TaskRef& t : sc.tasks)
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
  eng.start();
  eng.controller().start_cycle();
  eng.wait_cycle_done();
  eng.stop();
  const CycleResult& res = eng.controller().last();
  ASSERT_TRUE(res.deadlock_report_valid);
  ASSERT_EQ(res.deadlocked.size(), 1u);
  EXPECT_EQ(res.deadlocked[0], sc.x);
}

TEST(ThreadEngine, RepeatedCyclesAreStable) {
  Graph g = make_presized(4, 1500);
  RandomGraphOptions opt;
  opt.num_vertices = 2000;
  opt.seed = 7;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  eng.start();
  std::size_t first_swept = 0;
  for (int i = 0; i < 5; ++i) {
    CycleOptions copt;
    copt.detect_deadlock = i % 2 == 0;
    eng.controller().start_cycle(copt);
    eng.wait_cycle_done();
    if (i == 0) {
      first_swept = eng.controller().last().swept;
    } else {
      // Nothing mutates between cycles: all garbage went in cycle 1.
      EXPECT_EQ(eng.controller().last().swept, 0u);
    }
  }
  eng.stop();
  EXPECT_GT(first_swept, 0u);
}

TEST(ThreadEngine, ConcurrentMutationsDoNotLoseReachableVertices) {
  // Marking races a mutator thread doing cooperating add/delete/expand.
  // Afterwards: everything reachable is marked, everything garbage at start
  // was swept (Theorem 1 under real concurrency).
  Graph g = make_presized(4, 4000);
  RandomGraphOptions opt;
  opt.num_vertices = 3000;
  opt.seed = 11;
  opt.p_detached = 0.3;
  const BuiltGraph b = build_random_graph(g, opt);

  std::vector<VertexId> gar_tb;
  {
    Oracle o(g, b.root, {});
    for (VertexId v : b.vertices)
      if (!g.is_free(v) && o.in_GAR(v)) gar_tb.push_back(v);
  }

  ThreadEngine eng(g);
  eng.set_root(b.root);
  eng.start();
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);

  // Mutator storm from this (external) thread, via atomic sections.
  Rng rng(999);
  auto sample = [&] {
    VertexId v = b.root;
    for (std::uint64_t i = rng.below(10); i > 0; --i) {
      // Probe under the vertex's own lock-free read: acceptable for test
      // sampling; mutations themselves are properly locked.
      const Vertex& vx = g.at(v);
      if (vx.args.empty()) break;
      const VertexId nxt = vx.args[rng.below(vx.args.size())].to;
      if (!nxt.valid() || g.is_free(nxt)) break;
      v = nxt;
    }
    return v;
  };
  // Mutations race the marking wave only. One that reached the gate after
  // the cycle ended would have no marking to cooperate with, and its fresh
  // vertex would be reachable yet unmarked at the final check.
  auto during_cycle = [&](std::initializer_list<VertexId> vs, auto fn) {
    eng.atomically(vs, [&] {
      if (!eng.controller().idle()) fn();
    });
  };
  int mutations = 0;
  while (!eng.controller().idle() && mutations < 2000) {
    const VertexId a = sample();
    switch (rng.below(3)) {
      case 0: {
        during_cycle({a}, [&] {
          Vertex& va = g.at(a);
          if (!va.args.empty())
            eng.mutator().delete_reference(a, va.args[0].to);
        });
        break;
      }
      case 1: {
        // add-reference(a,b,c): probe, then revalidate under the locks.
        const Vertex& va = g.at(a);
        if (va.args.empty()) break;
        const VertexId bb = va.args[0].to;
        if (!bb.valid() || g.is_free(bb) || g.at(bb).args.empty()) break;
        const VertexId c = g.at(bb).args[0].to;
        if (!c.valid() || g.is_free(c)) break;
        during_cycle({a, bb, c}, [&] {
          // Revalidate under the locks.
          if (g.is_free(a) || g.is_free(bb) || g.is_free(c)) return;
          if (g.at(a).arg_index(bb) < 0 || g.at(bb).arg_index(c) < 0) return;
          eng.mutator().add_reference(a, bb, c, ReqKind::kVital);
        });
        break;
      }
      case 2: {
        // Allocate inside the atomic section, like every mutator: outside
        // the mutation gate the cycle's sweep could free the fresh vertex
        // (unmarked, unattached) before it is attached.
        during_cycle({a}, [&] {
          if (g.is_free(a)) return;
          const VertexId f = g.alloc(a.pe, OpCode::kData);
          if (!f.valid()) return;  // store full
          const VertexId fresh[] = {f};
          eng.mutator().expand_node(a, fresh);
          eng.mutator().add_reference_via(
              a, std::span<const VertexId>(&a, 1), f, ReqKind::kEager);
        });
        break;
      }
    }
    ++mutations;
  }
  eng.wait_cycle_done();
  eng.stop();

  for (VertexId v : gar_tb) EXPECT_TRUE(g.is_free(v));
  ASSERT_FALSE(g.is_free(b.root));
  Oracle after(g, b.root, {});
  g.for_each_live([&](VertexId v) {
    if (after.in_R(v)) {
      EXPECT_TRUE(eng.marker().is_marked(Plane::kR, v));
    }
    for (const ArgEdge& e : g.at(v).args) {
      EXPECT_FALSE(g.is_free(e.to)) << "dangling edge after threaded cycle";
    }
  });
}

TEST(ThreadEngine, ConcurrentRescuesInOneWaveAreAllMarked) {
  // Mutators on disjoint stripes share the mutation gate, so several can
  // queue rescues at once while a PE thread may launch the rescue wave. Pin
  // the M_R wave at the root (a mutator holds the root's stripe) while 4
  // threads queue rescues for 256 unreachable vertices; once released, the
  // wave terminates and the rescue wave must mark every one of them. A
  // fifth mutator allocates on store 0 while that wave launches: start()
  // minted the rescue root, so the launching PE thread allocates nothing
  // (minted lazily, it would race this mutator on the store's free list).
  Graph g = make_presized(2, 1200);
  RandomGraphOptions opt;
  opt.num_vertices = 600;
  opt.seed = 5;
  const BuiltGraph b = build_random_graph(g, opt);
  std::vector<VertexId> orphans;
  for (std::uint32_t i = 0; i < 256; ++i)
    orphans.push_back(g.alloc(i % 2, OpCode::kData));

  ThreadEngine eng(g);
  eng.set_root(b.root);
  eng.start();
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    eng.atomically({b.root}, [&] {
      holding = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!holding) std::this_thread::yield();
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> mutators;
  for (int t = 0; t < kThreads; ++t) {
    mutators.emplace_back([&, t] {
      ++ready;
      while (ready < kThreads) std::this_thread::yield();
      for (std::size_t i = t; i < orphans.size(); i += kThreads)
        eng.atomically(std::span<const VertexId>(), [&] {
          eng.marker().rescue(Plane::kR, orphans[i]);
        });
    });
  }
  for (std::thread& m : mutators) m.join();
  // The wave cannot pass the held root, so every rescue landed in it.
  EXPECT_TRUE(eng.marker().marking_in_progress(Plane::kR));
  for (VertexId v : orphans)
    EXPECT_TRUE(eng.marker().is_rescue_queued(Plane::kR, v));
  // Nothing the churner does after `churning` is ordered with the PE
  // thread that launches the rescue wave.
  std::atomic<bool> churning{false};
  std::thread churner([&] {
    churning = true;
    while (eng.marker().rescue_waves(Plane::kR) == 0 &&
           !eng.controller().idle()) {
      eng.atomically(std::span<const VertexId>(), [&] {
        const VertexId v = g.alloc(0, OpCode::kData);
        if (v.valid()) g.store(0).release(v.idx);
      });
      std::this_thread::yield();
    }
  });
  while (!churning) std::this_thread::yield();
  release = true;
  holder.join();
  churner.join();
  eng.wait_cycle_done();
  eng.stop();

  EXPECT_GE(eng.marker().rescue_waves(Plane::kR), 1u);
  for (VertexId v : orphans) {
    EXPECT_FALSE(g.is_free(v));
    EXPECT_TRUE(eng.marker().is_marked(Plane::kR, v));
  }
}

TEST(ThreadEngine, ManyPesScaleSmoke) {
  const std::uint32_t pes =
      std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
  Graph g = make_presized(pes, 3000);
  RandomGraphOptions opt;
  opt.num_vertices = pes * 2000;
  opt.seed = 5;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  eng.start();
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);
  eng.wait_cycle_done();
  eng.stop();
  // Cross-PE message traffic must exist (partition-crossing marking).
  EXPECT_GT(eng.metrics_registry().total(obs::Counter::kRemoteMessages), 0u);
  EXPECT_GT(eng.metrics_registry().total(obs::Counter::kBytesSent), 0u);
  Oracle o(g, b.root, {});
  g.for_each_live([&](VertexId v) {
    EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v));
  });
}

// ---- Batched plane equivalence. ----

// One engine run: cycles with audits on, returning the per-cycle sweep
// counts. Marking correctness per cycle is already pinned by the audit's
// swept == GAR' cross-check; what this fixture adds is that two runs over
// identical graphs agree count for count.
std::vector<std::size_t> audited_run(NetOptions net, std::uint64_t seed) {
  Graph g = make_presized(4, 2500);
  RandomGraphOptions opt;
  opt.num_vertices = 1800;
  opt.seed = seed;
  opt.num_tasks = 24;
  opt.p_detached = 0.3;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g, net);
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
  eng.enable_audit();
  eng.start();
  std::vector<std::size_t> swept;
  for (int i = 0; i < 3; ++i) {
    CycleOptions copt;
    copt.detect_deadlock = i % 2 == 0;
    eng.controller().start_cycle(copt);
    eng.wait_cycle_done();
    swept.push_back(eng.controller().last().swept);
  }
  eng.stop();
  EXPECT_EQ(eng.audit_stats().violations, 0u) << eng.audit_stats().last_what;
  EXPECT_EQ(eng.health().total(), 0u);
  return swept;
}

TEST(ThreadEngineBatching, NoBatchAndAggressiveBatchingAgree) {
  NetOptions off;
  off.reliable.batch_bytes = 0;  // cap 0: every message a batch of one
  NetOptions on;
  on.reliable.batch_bytes = 32768;  // never size-ripe: age/idle flush
  on.reliable.batch_flush_us = 50;  // carries it all
  const std::vector<std::size_t> a = audited_run(off, 31);
  const std::vector<std::size_t> b = audited_run(on, 31);
  EXPECT_EQ(a, b);  // identical sweep census, cycle for cycle
}

TEST(ThreadEngineBatching, BatchedCycleBatchesAndStaysClean) {
  Graph g = make_presized(4, 2000);
  RandomGraphOptions opt;
  opt.num_vertices = 3000;
  opt.seed = 42;
  opt.num_tasks = 32;
  const BuiltGraph b = build_random_graph(g, opt);
  Oracle o(g, b.root, b.tasks);
  const std::size_t expected_gar = o.count_GAR();

  ThreadEngine eng(g);  // default NetOptions: engine staging at 4 KiB
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
  eng.start();
  eng.controller().start_cycle();
  eng.wait_cycle_done();
  eng.stop();

  EXPECT_EQ(eng.controller().last().swept, expected_gar);
  // The hot path really ran batched: multi-message deliveries with sane
  // accounting (flushes never exceed the messages they carried).
  const std::uint64_t batched =
      eng.metrics_registry().total(obs::Counter::kMsgBatched);
  const std::uint64_t flushes =
      eng.metrics_registry().total(obs::Counter::kBatchFlush);
  EXPECT_GT(batched, 0u);
  EXPECT_GT(flushes, 0u);
  EXPECT_LE(flushes, batched);
}

// ---- Locality plane: boundary summaries + idle-PE work stealing. ----

TEST(ThreadEngineLocality, BoundaryDedupCutsRemoteTrafficNotMarks) {
  // Round-robin placement maximizes the edge cut, so every marking wave
  // re-crosses PE boundaries constantly — the dedup table's worst case. The
  // suppression counter must account for real work, and the final
  // marks/priors must still match the sequential Oracle exactly.
  Graph g = make_presized(4, 1200);
  RandomGraphOptions opt;
  opt.num_vertices = 3000;
  opt.seed = 42;
  opt.num_tasks = 32;
  opt.partition = PartitionStrategy::kRoundRobin;
  const BuiltGraph b = build_random_graph(g, opt);
  Oracle o(g, b.root, b.tasks);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
  eng.start();
  eng.controller().start_cycle();
  eng.wait_cycle_done();
  eng.stop();
  EXPECT_GT(eng.metrics_registry().total(obs::Counter::kBoundaryDedup), 0u);
  for (VertexId v : b.vertices) {
    if (g.is_free(v)) continue;
    EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v));
    EXPECT_EQ(eng.marker().prior(Plane::kR, v), o.prior_at(v));
    EXPECT_EQ(eng.marker().is_marked(Plane::kT, v), o.in_T(v));
  }
}

TEST(ThreadEngineLocality, StealingMovesTasksAndAgreesWithOracle) {
  // Block placement concentrates the wave on one PE at a time, leaving the
  // others idle — the imbalance stealing exists to fix; correctness must be
  // untouched.
  Graph g = make_presized(4, 1200);
  RandomGraphOptions opt;
  opt.num_vertices = 4000;
  opt.seed = 13;
  opt.num_tasks = 24;
  opt.partition = PartitionStrategy::kBlock;
  const BuiltGraph b = build_random_graph(g, opt);
  Oracle o(g, b.root, b.tasks);
  NetOptions net;
  net.reliable.batch_bytes = 0;  // per-task frames: depth == task backlog
  ThreadEngine eng(g, net);
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
  eng.start();
  for (int i = 0; i < 3; ++i) {
    eng.controller().start_cycle();
    eng.wait_cycle_done();
  }
  eng.stop();
  const obs::MetricsRegistry& reg = eng.metrics_registry();
  EXPECT_GT(reg.total(obs::Counter::kStealBatches), 0u);
  EXPECT_GT(reg.total(obs::Counter::kStealTasks), 0u);
  EXPECT_GE(reg.total(obs::Counter::kStealTasks),
            reg.total(obs::Counter::kStealBatches));
  g.for_each_live([&](VertexId v) {
    EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v));
    EXPECT_EQ(eng.marker().prior(Plane::kR, v), o.prior_at(v));
  });
}

// ---- Priority-ordered work lists. ----

// One PE runs every task from its own work list, strongest M_R mark first,
// so each vertex is first marked at its final priority: no upgrade re-mark,
// and no task is ever encoded (the root seed arrives as a batch of one from
// outside, which is not a cross-PE send).
TEST(ThreadEngineOrder, OnePeCycleHasNoRemarksAndSendsNoBytes) {
  Graph g = make_presized(1, 8192 + 64);
  RandomGraphOptions opt;
  opt.num_vertices = 8192;
  opt.avg_out_degree = 3.0;
  opt.p_detached = 0.2;
  opt.num_tasks = 0;
  opt.seed = 1;
  const BuiltGraph b = build_random_graph(g, opt);
  Oracle o(g, b.root, {});
  const std::size_t expected_gar = o.count_GAR();
  ThreadEngine eng(g);
  eng.set_root(b.root);
  eng.start();
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);
  eng.wait_cycle_done();
  eng.stop();
  const MarkStats& mr = eng.marker().stats(Plane::kR);
  EXPECT_GT(mr.marks.load(), 8000u);
  EXPECT_EQ(mr.remarks.load(), 0u);
  EXPECT_EQ(eng.metrics_registry().total(obs::Counter::kBytesSent), 0u);
  EXPECT_EQ(eng.metrics_registry().total(obs::Counter::kRemoteMessages), 0u);
  EXPECT_EQ(eng.controller().last().swept, expected_gar);
  for (VertexId v : b.vertices) {
    if (g.is_free(v)) continue;
    EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v));
    EXPECT_EQ(eng.marker().prior(Plane::kR, v), o.prior_at(v));
  }
}

// The paper's re-mark case on an ordered engine: x (PE 1) is reached by an
// eager path root -e-> y -v-> x and by a vital path root -v-> z -v-> w -v-> x
// that crosses to PE 0 and back. The root's marks for y and z leave PE 0 in
// one batch; PE 1 runs z first (priority order), but z's child w is staged
// until PE 1 has run y, x and x's subtree at priority 2. The vital mark
// therefore reaches x late, from the other PE, whatever the timing, and
// must upgrade it (Fig 5-1) and re-trace the subtree; the result is still
// exact.
TEST(ThreadEngineOrder, LateVitalArrivalFromAnotherPeForcesUpgrade) {
  Graph g = make_presized(2, 64);
  const VertexId root = g.alloc(0, OpCode::kData);
  const VertexId y = g.alloc(1, OpCode::kData);
  const VertexId z = g.alloc(1, OpCode::kData);
  const VertexId w = g.alloc(0, OpCode::kData);
  const VertexId x = g.alloc(1, OpCode::kData);
  connect(g, root, y, ReqKind::kEager);
  connect(g, root, z, ReqKind::kVital);
  connect(g, y, x, ReqKind::kVital);
  connect(g, z, w, ReqKind::kVital);
  connect(g, w, x, ReqKind::kVital);
  VertexId prev = x;
  for (int i = 0; i < 16; ++i) {
    const VertexId t = g.alloc(1, OpCode::kData);
    connect(g, prev, t, ReqKind::kVital);
    prev = t;
  }
  Oracle o(g, root, {});
  ThreadEngine eng(g);
  eng.set_root(root);
  eng.start();
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);
  eng.wait_cycle_done();
  eng.stop();
  // One upgrade each for x and the 16 vertices below it.
  EXPECT_EQ(eng.marker().stats(Plane::kR).remarks.load(), 17u);
  EXPECT_EQ(eng.marker().prior(Plane::kR, y), 2);
  EXPECT_EQ(eng.marker().prior(Plane::kR, x), 3);
  g.for_each_live([&](VertexId v) {
    EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v));
    EXPECT_EQ(eng.marker().prior(Plane::kR, v), o.prior_at(v));
  });
}

// ---- Task roots: the endpoints attached at cycle start (§5.2). ----

// Per pool PE (the PE owning the task's destination), the live endpoints of
// the task refs: what a walk over every pooled task attaches to taskroot_i,
// and what the Oracle marks in T.
std::vector<std::set<std::uint64_t>> live_task_endpoints(
    const Graph& g, const std::vector<TaskRef>& refs) {
  std::vector<std::set<std::uint64_t>> out(g.num_pes());
  for (const TaskRef& r : refs)
    for (const VertexId v : {r.s, r.d})
      if (v.valid() && g.at(v).live) out[r.d.pe].insert(v.pack());
  return out;
}

TEST(ThreadEngine, TaskRootsHoldTheLiveEndpointsOfThePooledTasks) {
  Graph g = make_presized(4, 2000);
  RandomGraphOptions opt;
  opt.num_vertices = 3000;
  opt.seed = 45;
  opt.num_tasks = 32;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks) {
    eng.inject(Task::request(t.s, t.d, ReqKind::kVital));
    eng.inject(Task::request(t.s, t.d, ReqKind::kEager));  // duplicate <s,d>
    eng.inject(Task::request(VertexId::invalid(), t.d, ReqKind::kVital));
  }
  // A source the first cycle sweeps: unreachable, with its task aimed at the
  // root, which is never irrelevant, so the task outlives it.
  const VertexId x = g.alloc(1, OpCode::kLit);
  eng.inject(Task::request(x, b.root, ReqKind::kVital));
  eng.start();

  const auto cycle_checked = [&](int round) {
    std::vector<TaskRef> refs;
    eng.collect_task_refs(refs);
    const Oracle o(g, b.root, refs);
    const std::vector<std::set<std::uint64_t>> want =
        live_task_endpoints(g, refs);
    std::vector<std::set<std::uint64_t>> got(g.num_pes());
    std::size_t attached = 0;
    // The shared gate holds restructuring, which clears the task roots, off
    // until they are read.
    eng.atomically({}, [&] {
      eng.controller().start_cycle();  // with M_T: the task roots are built
      for (PeId pe = 0; pe < g.num_pes(); ++pe)
        for (const ArgEdge& e : g.at(g.store(pe).taskroot()).args) {
          got[pe].insert(e.to.pack());
          ++attached;
        }
    });
    eng.wait_cycle_done();
    EXPECT_EQ(got, want) << "round " << round;
    std::size_t distinct = 0;
    for (const auto& set : got) distinct += set.size();
    EXPECT_EQ(attached, distinct) << "an endpoint attached twice, round "
                                  << round;
    EXPECT_EQ(eng.controller().last().swept, o.count_GAR()) << round;
    g.for_each_live([&](VertexId v) {
      EXPECT_EQ(eng.marker().is_marked(Plane::kT, v), o.in_T(v))
          << "T mark of (" << v.pe << "," << v.idx << ") round " << round;
      EXPECT_EQ(eng.marker().is_marked(Plane::kR, v), o.in_R(v))
          << "R mark of (" << v.pe << "," << v.idx << ") round " << round;
    });
    return want;
  };

  cycle_checked(0);
  ASSERT_TRUE(g.is_free(x)) << "the unreachable source was not swept";
  // Reuse x's slot: allocate on its PE until the store hands it back (the
  // others are unreachable and go in the next sweep).
  eng.atomically({}, [&] {
    VertexId y = VertexId::invalid();
    while (y != x) y = g.alloc(x.pe, OpCode::kLit);
  });
  // The task still names x, so the slot is attached, as the per-task walk
  // and the Oracle attach it.
  const auto want = cycle_checked(1);
  EXPECT_EQ(want[b.root.pe].count(x.pack()), 1u);
  eng.stop();
}

// ---- Online health auditing (safe-point audits + watchdog). ----

TEST(ThreadEngine, SafePointAuditCleanOnStaticGraph) {
  Graph g = make_presized(4, 2500);
  RandomGraphOptions opt;
  opt.num_vertices = 1500;
  opt.seed = 11;
  opt.num_tasks = 16;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g);
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
  // Every restructure quiesce window audited; §5.4.1 invariants and the
  // Property 1 accounting must hold at each, and the sweep cross-check
  // (swept == GAR') must agree every cycle.
  EXPECT_EQ(eng.audit_stats().audits, 5u);
  EXPECT_EQ(eng.audit_stats().violations, 0u) << eng.audit_stats().last_what;
  EXPECT_EQ(eng.health().total(), 0u);
}

TEST(ThreadEngine, AuditPeriodSkipsCycles) {
  Graph g = make_presized(2, 600);
  RandomGraphOptions opt;
  opt.num_vertices = 400;
  opt.seed = 3;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  AuditOptions aopt;
  aopt.period = 2;  // audit cycles 2 and 4 only
  eng.enable_audit(aopt);
  eng.start();
  for (int i = 0; i < 5; ++i) {
    eng.controller().start_cycle();
    eng.wait_cycle_done();
  }
  eng.stop();
  EXPECT_EQ(eng.audit_stats().audits, 2u);
  EXPECT_EQ(eng.audit_stats().violations, 0u) << eng.audit_stats().last_what;
}

// ---- Termination: the root's return is the only detector. ----

// A 2-PE graph whose marking crosses PEs both ways.
BuiltGraph build_cross_pe_graph(Graph& g) {
  RandomGraphOptions opt;
  opt.num_vertices = 1200;
  opt.seed = 17;
  opt.partition = PartitionStrategy::kRoundRobin;
  const BuiltGraph b = build_random_graph(g, opt);
  std::size_t cut = 0;
  for (VertexId v : b.vertices)
    for (const ArgEdge& e : g.at(v).args)
      if (e.to.valid() && e.to.pe != v.pe) ++cut;
  EXPECT_GT(cut, 100u);
  return b;
}

TEST(ThreadEngineTermination, WaitQuiescentReturnsOnlyWithTheCycleDone) {
  // On the bare plane and on a faulted one: either way the staged rows hold
  // every task not yet sent, so the safe point sees them.
  NetOptions faulted;
  faulted.faults.seed = 3;
  faulted.faults.spec.drop = 0.05;
  faulted.faults.spec.duplicate = 0.05;
  faulted.faults.spec.reorder = 0.1;
  faulted.reliable.rto_initial_us = 200;
  for (const NetOptions& net : {NetOptions{}, faulted}) {
    SCOPED_TRACE(net.faults.spec.any() ? "faulted plane" : "bare plane");
    Graph g = make_presized(2, 1000);
    const BuiltGraph b = build_cross_pe_graph(g);
    ThreadEngine eng(g, net);
    eng.set_root(b.root);
    eng.start();
    for (std::uint64_t cycle = 1; cycle <= 3; ++cycle) {
      eng.controller().start_cycle();
      eng.wait_quiescent();
      EXPECT_TRUE(eng.controller().idle());
      EXPECT_EQ(eng.controller().cycles_completed(), cycle);
    }
    eng.stop();
    EXPECT_GT(eng.metrics_registry().total(obs::Counter::kRemoteMessages),
              0u);
    // Every safe point found every list, row and (bare) mailbox empty, and
    // so does the stopped engine.
    EXPECT_EQ(eng.audit_stats().violations, 0u)
        << eng.audit_stats().last_what;
    EXPECT_EQ(eng.pending_tasks(), 0u);
  }
}

TEST(ThreadEngineTermination, TaskHeldPastTheRootsReturnTripsTheSafePoint) {
  Graph g = make_presized(2, 1000);
  const BuiltGraph b = build_cross_pe_graph(g);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  eng.hold_task_for_test(
      1, Task::mark(Plane::kR, VertexId{1, 0}, VertexId::rootpar(), 3));
  eng.start();
  eng.controller().start_cycle();
  eng.wait_quiescent();
  eng.stop();
  EXPECT_EQ(eng.controller().cycles_completed(), 1u);
  EXPECT_EQ(eng.audit_stats().violations, 1u);
  EXPECT_NE(eng.audit_stats().last_what.find(
                "termination: 1 marking task(s) pending"),
            std::string::npos)
      << eng.audit_stats().last_what;
  EXPECT_EQ(eng.health().warnings[static_cast<std::size_t>(
                obs::HealthKind::kAuditViolation)],
            1u);
}

TEST(ThreadEngine, WatchdogRescueStormThresholdFires) {
  // With the storm threshold at zero every watchdog sample trips the alarm:
  // proves the monitor thread samples, warns, and counts while PEs run.
  Graph g = make_presized(2, 600);
  RandomGraphOptions opt;
  opt.num_vertices = 300;
  opt.seed = 9;
  const BuiltGraph b = build_random_graph(g, opt);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  WatchdogOptions wopt;
  wopt.interval_ms = 1;
  wopt.rescue_storm = 0;
  eng.enable_watchdog(wopt);
  eng.start();
  eng.controller().start_cycle();
  eng.wait_cycle_done();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  eng.stop();
  const HealthReport hr = eng.health();
  EXPECT_GE(hr.warnings[static_cast<std::size_t>(obs::HealthKind::kRescueStorm)],
            1u);
  // Edge-triggered: one warning per cycle, not one per sample.
  EXPECT_LE(hr.warnings[static_cast<std::size_t>(obs::HealthKind::kRescueStorm)],
            2u);
  EXPECT_EQ(eng.audit_stats().audits, 0u);  // auditing was never enabled
}

// ---- Mailbox saturation: the watchdog's runaway-backlog signal. ----

// Marking cycles on a block-partitioned graph with per-task frames (the
// wave runs mostly inside one PE at a time, so its backlog grows), watched
// at `saturation` tasks. Returns the mailbox_saturated warnings.
std::uint64_t saturation_warnings(std::uint64_t saturation, int cycles) {
  Graph g = make_presized(2, 6000);
  RandomGraphOptions opt;
  opt.num_vertices = 8000;
  opt.seed = 13;
  opt.partition = PartitionStrategy::kBlock;
  const BuiltGraph b = build_random_graph(g, opt);
  NetOptions net;
  net.reliable.batch_bytes = 0;
  ThreadEngine eng(g, net);
  eng.set_root(b.root);
  WatchdogOptions wopt;
  wopt.interval_ms = 1;
  wopt.mailbox_saturation = saturation;
  eng.enable_watchdog(wopt);
  eng.start();
  for (int i = 0; i < cycles; ++i) {
    eng.controller().start_cycle();
    eng.wait_cycle_done();
  }
  eng.stop();
  EXPECT_GT(eng.stats().mailbox_high_water, 0u);
  return eng.health().warnings[static_cast<std::size_t>(
      obs::HealthKind::kMailboxSaturated)];
}

TEST(ThreadEngineHealth, MailboxSaturationWarns) {
  // At one task the threshold is crossed by any backlog a sample sees, and
  // its re-arm level (half of it, 0) is one no backlog goes below: the edge
  // trigger allows at most one warning per PE however many samples find a
  // backlog, where a level trigger would warn on every one of them.
  const std::uint64_t w = saturation_warnings(1, 10);
  EXPECT_GE(w, 1u);
  EXPECT_LE(w, 2u);
}

TEST(ThreadEngineHealth, MailboxSaturationPassesAtDefault) {
  // The same run at the default threshold, far above any backlog an
  // 8000-vertex graph can build: no warning.
  EXPECT_EQ(saturation_warnings(WatchdogOptions{}.mailbox_saturation, 10), 0u);
}

TEST(ThreadEngine, WatchdogRescueCountRestartsWithThePlane) {
  // Marker::rescue_waves restarts at 0 whenever a plane begins. A cycle with
  // rescue waves, then a cycle without any, must not read as a storm: the
  // count going backwards is a new plane run, not 2^64 waves.
  Graph g = make_presized(2, 600);
  RandomGraphOptions opt;
  opt.num_vertices = 300;
  opt.seed = 9;
  const BuiltGraph b = build_random_graph(g, opt);
  const VertexId orphan = g.alloc(1, OpCode::kData);
  ThreadEngine eng(g);
  eng.set_root(b.root);
  WatchdogOptions wopt;
  wopt.interval_ms = 1;
  eng.enable_watchdog(wopt);
  eng.start();

  // Hold the root's stripe so the M_R wave waits at the root while the
  // cycle runs; `queue` runs inside the held cycle.
  const auto held_cycle = [&](const std::function<void()>& queue) {
    std::atomic<bool> holding{false}, release{false};
    std::thread holder([&] {
      eng.atomically({b.root}, [&] {
        holding = true;
        while (!release) std::this_thread::yield();
      });
    });
    while (!holding) std::this_thread::yield();
    CycleOptions copt;
    copt.detect_deadlock = false;
    eng.controller().start_cycle(copt);
    queue();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release = true;
    holder.join();
    eng.wait_cycle_done();
  };
  held_cycle([&] {
    eng.atomically(std::span<const VertexId>(),
                   [&] { eng.marker().rescue(Plane::kR, orphan); });
  });
  ASSERT_GE(eng.marker().rescue_waves(Plane::kR), 1u);
  // Let the watchdog see the finished cycle (and its nonzero count).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  held_cycle([] {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  eng.stop();
  EXPECT_EQ(eng.marker().rescue_waves(Plane::kR), 0u);
  EXPECT_EQ(eng.health().warnings[static_cast<std::size_t>(
                obs::HealthKind::kRescueStorm)],
            0u);
}

}  // namespace
}  // namespace dgr
