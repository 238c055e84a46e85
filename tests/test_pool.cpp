// Unit tests for the priority task pool (§3.2 item 1: vital tasks compete
// with eager ones — the pool always serves the highest class) and its
// restructuring pass, checked against the erase-in-loop reference, the
// destination-indexed inert pool checked against TaskPool, the PE
// work list's drain order, the per-PE mailbox (task-counted delivery and
// drain), and fuzz tests for the wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "net/mailbox.h"
#include "net/wire.h"
#include "runtime/pool.h"
#include "runtime/sim_engine.h"
#include "runtime/work_list.h"

namespace dgr {
namespace {

Task mk(std::uint8_t prior, std::uint32_t idx) {
  Task t = Task::request(VertexId::invalid(), VertexId{0, idx},
                         ReqKind::kVital);
  t.pool_prior = prior;
  return t;
}

TEST(TaskPool, ServesHighestPriorityFirst) {
  TaskPool p;
  p.push(mk(1, 10));
  p.push(mk(3, 11));
  p.push(mk(2, 12));
  EXPECT_EQ(p.pop().d.idx, 11u);  // vital first
  EXPECT_EQ(p.pop().d.idx, 12u);  // then eager
  EXPECT_EQ(p.pop().d.idx, 10u);  // then reserve
  EXPECT_TRUE(p.empty());
}

TEST(TaskPool, FifoWithinBucketWithoutRng) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 5; ++i) p.push(mk(3, i));
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(p.pop().d.idx, i);
}

TEST(TaskPool, ExpungeByPredicate) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 10; ++i) p.push(mk(1 + i % 3, i));
  const TaskRestructure r =
      p.restructure([](const Task& t) { return t.d.idx % 2 == 0; },
                    [](const Task& t) { return t.pool_prior; });
  EXPECT_EQ(r.expunged, 5u);
  EXPECT_EQ(r.reprioritized, 0u);
  EXPECT_EQ(p.size(), 5u);
  while (!p.empty()) EXPECT_EQ(p.pop().d.idx % 2, 1u);
}

TEST(TaskPool, ReprioritizeMovesBuckets) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 6; ++i) p.push(mk(1, i));
  // Every second task becomes vital.
  const TaskRestructure r = p.restructure(
      [](const Task&) { return false; },
      [](const Task& t) { return t.d.idx % 2 == 0 ? std::uint8_t{3}
                                                  : std::uint8_t{1}; });
  EXPECT_EQ(r.expunged, 0u);
  EXPECT_EQ(r.reprioritized, 3u);
  // Vital ones come out first now.
  EXPECT_EQ(p.pop().d.idx % 2, 0u);
  EXPECT_EQ(p.pop().d.idx % 2, 0u);
  EXPECT_EQ(p.pop().d.idx % 2, 0u);
  EXPECT_EQ(p.pop().d.idx % 2, 1u);
}

TEST(TaskPool, ReprioritizeStableWhenUnchanged) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 4; ++i) p.push(mk(2, i));
  EXPECT_EQ(p.restructure([](const Task&) { return false; },
                          [](const Task&) { return std::uint8_t{2}; })
                .reprioritized,
            0u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(p.pop().d.idx, i);
}

// The erase-in-loop restructuring TaskPool used to run as two passes
// (expunge, then reprioritize); kept here as the reference that the
// single-pass TaskPool::restructure must match exactly.
struct ReferencePool {
  std::deque<Task> buckets[3];

  static int bucket(std::uint8_t prior) {
    if (prior >= 3) return 2;
    if (prior == 2) return 1;
    return 0;
  }
  void push(Task t) { buckets[bucket(t.pool_prior)].push_back(std::move(t)); }

  std::size_t expunge(const std::function<bool(const Task&)>& kill) {
    std::size_t n = 0;
    for (auto& q : buckets) {
      for (std::size_t i = 0; i < q.size();) {
        if (kill(q[i])) {
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
          ++n;
        } else {
          ++i;
        }
      }
    }
    return n;
  }

  std::size_t reprioritize(
      const std::function<std::uint8_t(const Task&)>& prio) {
    std::size_t moved = 0;
    std::deque<Task> moving;
    for (int b = 0; b < 3; ++b) {
      auto& q = buckets[b];
      for (std::size_t i = 0; i < q.size();) {
        const std::uint8_t p = prio(q[i]);
        if (bucket(p) != b) {
          Task t = std::move(q[i]);
          t.pool_prior = p;
          moving.push_back(std::move(t));
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
          ++moved;
        } else {
          q[i].pool_prior = p;
          ++i;
        }
      }
    }
    for (Task& t : moving) buckets[bucket(t.pool_prior)].push_back(std::move(t));
    return moved;
  }
};

// A task's identity and everything restructuring may change.
using TaskKey = std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>;

std::vector<TaskKey> contents(const TaskPool& p) {
  std::vector<TaskKey> out;
  p.for_each([&](const Task& t) {
    out.emplace_back(t.d.idx, t.s.idx, t.pool_prior);
  });
  return out;
}

std::vector<TaskKey> contents(const ReferencePool& p) {
  std::vector<TaskKey> out;
  for (const auto& q : p.buckets)
    for (const Task& t : q) out.emplace_back(t.d.idx, t.s.idx, t.pool_prior);
  return out;
}

TEST(TaskPool, RestructureMatchesEraseInLoopReference) {
  Rng rng(14);
  std::vector<std::uint32_t> sizes = {0, 1, 2, 5000};
  for (int i = 0; i < 40; ++i)
    sizes.push_back(static_cast<std::uint32_t>(rng.below(5001)));
  for (const std::uint32_t n : sizes) {
    SCOPED_TRACE(n);
    // Per-trial rates, so some trials kill or move nothing and some nearly
    // everything. Priorities range over 0..4: bucket 0 holds 0 and 1, bucket
    // 2 holds 3 and 4, so a task can change priority without moving.
    const double p_kill = rng.chance(0.2) ? 0.0 : rng.uniform01();
    const double p_move = rng.chance(0.2) ? 0.0 : rng.uniform01();
    std::vector<bool> kill(n);
    std::vector<std::uint8_t> prio(n);
    TaskPool pool;
    ReferencePool ref;
    for (std::uint32_t i = 0; i < n; ++i) {
      Task t = mk(static_cast<std::uint8_t>(rng.below(5)), i);
      t.s = VertexId{1, static_cast<std::uint32_t>(rng.below(1000))};
      kill[i] = rng.chance(p_kill);
      prio[i] = rng.chance(p_move) ? static_cast<std::uint8_t>(rng.below(5))
                                   : t.pool_prior;
      pool.push(t);
      ref.push(t);
    }
    auto killf = [&](const Task& t) { return static_cast<bool>(kill[t.d.idx]); };
    auto priof = [&](const Task& t) { return prio[t.d.idx]; };

    const TaskRestructure r = pool.restructure(killf, priof);
    const std::size_t ref_expunged = ref.expunge(killf);
    const std::size_t ref_moved = ref.reprioritize(priof);

    EXPECT_EQ(r.expunged, ref_expunged);
    EXPECT_EQ(r.reprioritized, ref_moved);
    EXPECT_EQ(pool.size(), n - ref_expunged);
    ASSERT_EQ(contents(pool), contents(ref));
    // Bucket boundaries too: popping serves the buckets in the same order.
    for (int b = 2; b >= 0; --b)
      for (const Task& t : ref.buckets[b]) {
        ASSERT_FALSE(pool.empty());
        EXPECT_EQ(pool.pop().d.idx, t.d.idx);
      }
    EXPECT_TRUE(pool.empty());
  }
}

// SimEngine's hook covers its pools and the reduction tasks still in flight
// between PEs; the fused pass must do to both exactly what an expunge pass
// followed by a reprioritize pass did.
TEST(SimRestructure, FusedHookCoversPooledAndInFlightTasks) {
  Graph g(2);
  SimOptions opt;
  opt.max_latency = 1000;  // PE 0 → PE 1 tasks stay in flight until a step
  SimEngine sim(g, opt);
  Rng rng(7);
  constexpr std::uint32_t kTasks = 600;
  std::vector<bool> kill(kTasks);
  std::vector<std::uint8_t> prio(kTasks);
  std::vector<Task> pooled, flying;  // what the engine holds, in its order
  for (std::uint32_t i = 0; i < kTasks; ++i) {
    // Spawned outside any task execution, from PE 0: PE-0 destinations
    // pool at once, PE-1 destinations go in flight.
    const PeId pe = static_cast<PeId>(rng.below(2));
    Task t = Task::request(VertexId{0, 100000 + i}, VertexId{pe, i},
                           rng.chance(0.5) ? ReqKind::kVital
                                           : ReqKind::kEager);
    kill[i] = rng.chance(0.3);
    prio[i] = static_cast<std::uint8_t>(1 + rng.below(3));
    (pe == 0 ? pooled : flying).push_back(t);
    sim.spawn(t);
  }
  ASSERT_EQ(sim.in_flight(), flying.size());
  ASSERT_EQ(sim.pool(0).size(), pooled.size());

  // Reference: expunge (the pool erase-in-loop; in flight swap-with-back),
  // then reprioritize the survivors.
  auto killf = [&](const Task& t) { return static_cast<bool>(kill[t.d.idx]); };
  auto priof = [&](const Task& t) { return prio[t.d.idx]; };
  ReferencePool ref;
  for (const Task& t : pooled) ref.push(t);
  std::size_t want_expunged = ref.expunge(killf);
  std::size_t want_reprioritized = ref.reprioritize(priof);
  for (std::size_t i = 0; i < flying.size();) {
    if (killf(flying[i])) {
      flying[i] = flying.back();
      flying.pop_back();
      ++want_expunged;
    } else {
      ++i;
    }
  }
  for (Task& t : flying) {
    const std::uint8_t p = priof(t);
    if (p != t.pool_prior) ++want_reprioritized;
    t.pool_prior = p;
  }

  const TaskRestructure r = sim.restructure_tasks(
      [&](VertexId d) { return static_cast<bool>(kill[d.idx]); },
      [&](VertexId d) { return prio[d.idx]; });
  EXPECT_EQ(r.expunged, want_expunged);
  EXPECT_EQ(r.reprioritized, want_reprioritized);
  EXPECT_EQ(contents(sim.pool(0)), contents(ref));
  EXPECT_TRUE(sim.pool(1).empty());

  // collect_task_refs lists the pools, then the in-flight tasks in order.
  std::vector<TaskRef> refs;
  sim.collect_task_refs(refs);
  ASSERT_EQ(refs.size(), contents(ref).size() + flying.size());
  const std::size_t off = contents(ref).size();
  for (std::size_t i = 0; i < flying.size(); ++i) {
    EXPECT_EQ(refs[off + i].d, flying[i].d);
    EXPECT_EQ(refs[off + i].s, flying[i].s);
  }

  // Deliver and execute everything: each surviving in-flight task arrives
  // with its new priority.
  std::map<std::uint32_t, std::uint8_t> executed;
  sim.set_reducer([&](const Task& t) {
    if (t.d.pe == 1) executed[t.d.idx] = t.pool_prior;
  });
  sim.run();
  ASSERT_EQ(executed.size(), flying.size());
  for (const Task& t : flying) EXPECT_EQ(executed[t.d.idx], t.pool_prior);
}

TEST(TaskPool, RandomPopIsSeedDeterministic) {
  TaskPool p1, p2;
  for (std::uint32_t i = 0; i < 16; ++i) {
    p1.push(mk(3, i));
    p2.push(mk(3, i));
  }
  Rng r1(77), r2(77);
  while (!p1.empty()) EXPECT_EQ(p1.pop(&r1).d.idx, p2.pop(&r2).d.idx);
}

TEST(TaskPool, ForEachSeesEverything) {
  TaskPool p;
  for (std::uint32_t i = 0; i < 9; ++i) p.push(mk(1 + i % 3, i));
  std::size_t n = 0;
  std::uint64_t sum = 0;
  p.for_each([&](const Task& t) {
    ++n;
    sum += t.d.idx;
  });
  EXPECT_EQ(n, 9u);
  EXPECT_EQ(sum, 36u);
}

// ---- TaskIndex: the inert pool, differential against TaskPool. ----

bool ref_less(TaskRef a, TaskRef b) {
  return a.s.pack() != b.s.pack() ? a.s.pack() < b.s.pack()
                                  : a.d.pack() < b.d.pack();
}

// Both pools must hold the same <s,d> multiset with the same bucket counts,
// and the index's endpoint listing must be the refs' endpoint set: every
// destination once, then every distinct valid source once.
void expect_same_population(const TaskPool& pool, const TaskIndex& index) {
  std::vector<TaskRef> want, got;
  std::size_t want_bucket[3] = {};
  pool.for_each([&](const Task& t) {
    want.push_back(TaskRef{t.s, t.d});
    ++want_bucket[pool_bucket(t.pool_prior)];
  });
  index.for_each_ref([&](TaskRef r) { got.push_back(r); });
  std::sort(want.begin(), want.end(), ref_less);
  std::sort(got.begin(), got.end(), ref_less);
  ASSERT_EQ(got, want);
  EXPECT_EQ(index.size(), pool.size());
  EXPECT_EQ(index.bucket_size(1), want_bucket[0]);
  EXPECT_EQ(index.bucket_size(2), want_bucket[1]);
  EXPECT_EQ(index.bucket_size(3), want_bucket[2]);

  std::set<std::uint64_t> dests, sources;
  for (const TaskRef& r : want) {
    dests.insert(r.d.pack());
    if (r.s.valid()) sources.insert(r.s.pack());
  }
  std::vector<std::uint64_t> listed;
  index.for_each_endpoint([&](VertexId v) { listed.push_back(v.pack()); });
  ASSERT_EQ(listed.size(), dests.size() + sources.size());
  std::set<std::uint64_t> listed_d(listed.begin(),
                                   listed.begin() + dests.size());
  std::set<std::uint64_t> listed_s(listed.begin() + dests.size(),
                                   listed.end());
  EXPECT_EQ(listed_d, dests);
  EXPECT_EQ(listed_s, sources);
}

TEST(TaskIndex, MatchesTaskPoolUnderRandomPushesAndRestructures) {
  Rng rng(25);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE(trial);
    // Few destinations and sources, so duplicate <s,d> tasks are common.
    const auto dests = static_cast<std::uint32_t>(1 + rng.below(40));
    const auto srcs = static_cast<std::uint32_t>(1 + rng.below(60));
    TaskPool pool;
    TaskIndex index;
    for (int op = 0; op < 60; ++op) {
      if (rng.chance(0.6)) {
        for (std::uint64_t n = rng.below(300); n > 0; --n) {
          const VertexId d{static_cast<PeId>(rng.below(2)),
                           static_cast<std::uint32_t>(rng.below(dests))};
          // <-,d> tasks have no source; a source may also be a destination.
          const VertexId s =
              rng.chance(0.1)
                  ? VertexId::invalid()
                  : VertexId{static_cast<PeId>(rng.below(2)),
                             static_cast<std::uint32_t>(rng.below(srcs))};
          Task t = Task::request(s, d, ReqKind::kVital);
          t.pool_prior = static_cast<std::uint8_t>(rng.below(5));
          pool.push(t);
          index.push(t);
        }
      } else {
        // Per-destination decisions, at per-pass rates from none to all.
        const double p_kill = rng.chance(0.3) ? 0.0 : rng.uniform01();
        std::map<std::uint64_t, bool> kill;
        std::map<std::uint64_t, std::uint8_t> prio;
        for (PeId pe = 0; pe < 2; ++pe)
          for (std::uint32_t i = 0; i < dests; ++i) {
            const std::uint64_t key = VertexId{pe, i}.pack();
            kill[key] = rng.chance(p_kill);
            prio[key] = static_cast<std::uint8_t>(rng.below(5));
          }
        const auto killd = [&](VertexId d) { return kill.at(d.pack()); };
        const auto priod = [&](VertexId d) { return prio.at(d.pack()); };
        const TaskRestructure want =
            pool.restructure([&](const Task& t) { return killd(t.d); },
                             [&](const Task& t) { return priod(t.d); });
        const TaskRestructure got = index.restructure(killd, priod);
        EXPECT_EQ(got.expunged, want.expunged);
        EXPECT_EQ(got.reprioritized, want.reprioritized);
      }
      expect_same_population(pool, index);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---- WorkList: M_R marks by priority, everything else in arrival order. ----

TEST(WorkList, DrainsMrMarksByPriorityThenTheRestInArrivalOrder) {
  const auto mark = [](Plane p, std::uint8_t prior, std::uint32_t idx) {
    return Task::mark(p, VertexId{0, idx}, VertexId{0, 0}, prior);
  };
  WorkList w;
  w.push(Task::mark_return(Plane::kR, VertexId{0, 1}));
  w.push(mark(Plane::kR, 1, 2));
  w.push(mark(Plane::kT, 0, 3));
  w.push(mark(Plane::kR, 2, 4));
  w.push(mark(Plane::kR, 3, 5));
  w.push(Task::mark_return(Plane::kT, VertexId{0, 6}));
  w.push(mark(Plane::kR, 2, 7));
  w.push(mark(Plane::kR, 3, 8));
  w.push(mark(Plane::kR, 1, 9));
  w.push(Task::mark_return(Plane::kR, VertexId{0, 10}));
  w.push(mark(Plane::kR, 0, 11));  // priority-free mark1: arrival order
  EXPECT_EQ(w.size(), 11u);
  std::vector<std::uint32_t> order;
  while (!w.empty()) order.push_back(w.pop().d.idx);
  // 3s, 2s, 1s (FIFO within each), then returns, M_T marks and mark1 in
  // the order they arrived.
  EXPECT_EQ(order, (std::vector<std::uint32_t>{5, 8, 4, 7, 2, 9, 1, 3, 6, 10,
                                               11}));
  EXPECT_EQ(w.size(), 0u);
}

TEST(WorkList, StrongerMarkOvertakesQueuedWeakerOnes) {
  WorkList w;
  for (std::uint32_t i = 0; i < 3000; ++i)
    w.push(Task::mark(Plane::kR, VertexId{0, i}, VertexId{0, 0}, 1));
  for (std::uint32_t i = 0; i < 1500; ++i) EXPECT_EQ(w.pop().d.idx, i);
  w.push(Task::mark(Plane::kR, VertexId{1, 7}, VertexId{0, 0}, 3));
  w.push(Task::mark(Plane::kR, VertexId{1, 8}, VertexId{0, 0}, 2));
  EXPECT_EQ(w.pop().d, (VertexId{1, 7}));
  EXPECT_EQ(w.pop().d, (VertexId{1, 8}));
  for (std::uint32_t i = 1500; i < 3000; ++i) EXPECT_EQ(w.pop().d.idx, i);
  EXPECT_TRUE(w.empty());
  w.push(Task::mark_return(Plane::kR, VertexId{0, 4}));
  w.clear();
  EXPECT_TRUE(w.empty());
}

// ---- Mailbox: task-counted delivery and drain. ----

Mailbox::Bytes msg(std::uint8_t tag, std::size_t n = 8) {
  return Mailbox::Bytes(n, tag);
}

TEST(Mailbox, CountsTasksNotMessages) {
  Mailbox mb;
  mb.deliver(msg(0), 1);
  mb.deliver(msg(1, 40), 30);
  mb.deliver(msg(2), 0);  // e.g. a channel ack frame
  EXPECT_EQ(mb.pending(), 31u);
  EXPECT_EQ(mb.high_water(), 31u);
}

TEST(Mailbox, DrainTakesWholeMessagesUpToATaskBudget) {
  Mailbox mb;
  for (std::uint8_t i = 0; i < 10; ++i) mb.deliver(msg(i), 5);
  std::vector<Mailbox::Msg> out;
  EXPECT_EQ(mb.drain(12, out), 15u);  // stops once the budget is reached
  EXPECT_EQ(mb.pending(), 35u);
  EXPECT_EQ(mb.drain(1, out), 5u);  // the first message, whatever its size
  EXPECT_EQ(mb.drain(100, out), 30u);  // appends; never blocks when short
  EXPECT_EQ(mb.drain(100, out), 0u);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].bytes[0], i);  // delivery order
    EXPECT_EQ(out[i].tasks, 5u);
  }
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_EQ(mb.drain_wait(100, out, 10), 0u);  // times out empty
}

TEST(Mailbox, WakeEndsAParkedDrainEmptyHanded) {
  Mailbox mb;
  std::vector<Mailbox::Msg> out;
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mb.wake();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(mb.drain_wait(64, out, 60'000'000), 0u);  // would park 60 s
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
  waker.join();
  EXPECT_TRUE(out.empty());
  mb.wake();  // a wake with no waiter ends the next park at once
  EXPECT_EQ(mb.drain_wait(64, out, 60'000'000), 0u);
  mb.deliver(msg(1), 3);  // and is spent: mail still drains as usual
  EXPECT_EQ(mb.drain_wait(64, out, 0), 3u);
}

TEST(Mailbox, HighWaterIsMonotoneInTasks) {
  Mailbox mb;
  mb.deliver(msg(1), 1);
  EXPECT_EQ(mb.high_water(), 1u);
  mb.deliver(msg(2), 7);
  EXPECT_EQ(mb.high_water(), 8u);
  std::vector<Mailbox::Msg> out;
  mb.drain(8, out);
  mb.deliver(msg(3), 2);
  EXPECT_EQ(mb.high_water(), 8u);  // monotone
  EXPECT_EQ(mb.pending(), 2u);
}

// ---- Wire codec fuzz: random tasks must round-trip bit-exactly. ----

TEST(WireFuzz, RandomTaskRoundTrips) {
  Rng rng(2026);
  for (int i = 0; i < 5000; ++i) {
    Task t;
    t.kind = static_cast<TaskKind>(rng.below(7));
    t.plane = rng.chance(0.5) ? Plane::kR : Plane::kT;
    t.d = VertexId{static_cast<PeId>(rng.below(64)),
                   static_cast<std::uint32_t>(rng.next())};
    t.s = rng.chance(0.2)
              ? VertexId::invalid()
              : VertexId{static_cast<PeId>(rng.below(64)),
                         static_cast<std::uint32_t>(rng.next())};
    t.prior = static_cast<std::uint8_t>(rng.below(4));
    t.demand = static_cast<ReqKind>(rng.below(3));
    t.pool_prior = static_cast<std::uint8_t>(1 + rng.below(3));
    switch (rng.below(4)) {
      case 0: t.value = Value::of_int(static_cast<std::int64_t>(rng.next())); break;
      case 1: t.value = Value::of_bool(rng.chance(0.5)); break;
      case 2: t.value = Value::of_node(VertexId{1, 2}); break;
      default: t.value = Value::nil(); break;
    }
    const Task u = decode_task(encode_task(t));
    EXPECT_EQ(u.kind, t.kind);
    EXPECT_EQ(u.plane, t.plane);
    EXPECT_EQ(u.d, t.d);
    EXPECT_EQ(u.s, t.s);
    EXPECT_EQ(u.prior, t.prior);
    EXPECT_EQ(u.demand, t.demand);
    EXPECT_EQ(u.pool_prior, t.pool_prior);
    EXPECT_TRUE(u.value == t.value);
  }
}

TEST(WireFuzz, TruncatedBufferIsRejected) {
  const Task t = Task::mark(Plane::kR, VertexId{1, 2}, VertexId{3, 4}, 3);
  auto bytes = encode_task(t);
  bytes.pop_back();
  EXPECT_DEATH(decode_task(bytes), "");
}

}  // namespace
}  // namespace dgr
