// E2/E3/E7 — Task classification and the Venn structure of Figs 3-2/3-3
// (Properties 3-6): one M_R pass classifies every pooled task as vital /
// eager / reserve / irrelevant through the destination's marked priority,
// agreeing exactly with the sequential reachability oracle; irrelevant tasks
// are expunged by the restructuring phase. BM_PoolRestructure times that
// phase's pass over one executing task pool (SimEngine's), and
// BM_TaskIndexRestructure over one inert, destination-indexed pool
// (ThreadEngine's and ProcEngine's).
#include "bench/bench_common.h"
#include "runtime/pool.h"

namespace dgr::bench {
namespace {

struct Row {
  std::size_t vital = 0, eager = 0, reserve = 0, irrelevant = 0;
  std::size_t expunged = 0;
  bool oracle_agrees = true;
};

Row run(std::uint32_t n, std::uint64_t seed) {
  Graph g(8);
  RandomGraphOptions opt;
  opt.num_vertices = n;
  opt.num_tasks = n / 4;
  opt.p_detached = 0.25;
  opt.seed = seed;
  BuiltGraph b = build_random_graph(g, opt);
  Oracle o(g, b.root, b.tasks);

  Row r;
  for (const TaskRef& t : b.tasks) {
    switch (o.classify(t)) {
      case TaskClass::kVital: ++r.vital; break;
      case TaskClass::kEager: ++r.eager; break;
      case TaskClass::kReserve: ++r.reserve; break;
      case TaskClass::kIrrelevant: ++r.irrelevant; break;
    }
  }

  SimOptions sopt;
  sopt.seed = seed ^ 0x5a5a;
  SimEngine eng(g, sopt);
  eng.set_root(b.root);
  for (const TaskRef& t : b.tasks)
    eng.spawn(Task::request(t.s, t.d, ReqKind::kVital));
  eng.controller().start_cycle(CycleOptions{true});
  eng.run_until_cycle_done();
  r.expunged = eng.controller().last().expunged;

  // Distributed classification = marked priority of the destination.
  std::size_t dv = 0, de = 0, dr = 0;
  for (PeId pe = 0; pe < g.num_pes(); ++pe) {
    eng.pool(pe).for_each([&](const Task& t) {
      switch (eng.marker().prior(Plane::kR, t.d)) {
        case 3: ++dv; break;
        case 2: ++de; break;
        default: ++dr; break;
      }
    });
  }
  r.oracle_agrees = dv == r.vital && de == r.eager && dr == r.reserve &&
                    r.expunged == r.irrelevant;
  return r;
}

void table() {
  print_header("E2/E3/E7: dynamic task classification",
               "Figs 3-2/3-3, Properties 3-6, Corollary 1",
               "marked priorities reproduce the oracle's VIT/EAG/RES split; "
               "IRR tasks are expunged");
  std::printf("%8s %6s %8s %8s %8s %12s %10s %8s\n", "V", "seed", "vital",
              "eager", "reserve", "irrelevant", "expunged", "agree");
  for (std::uint32_t n : {200u, 2000u, 20000u}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const Row r = run(n, seed);
      std::printf("%8u %6llu %8zu %8zu %8zu %12zu %10zu %8s\n", n,
                  (unsigned long long)seed, r.vital, r.eager, r.reserve,
                  r.irrelevant, r.expunged, r.oracle_agrees ? "yes" : "NO");
    }
  }
}

void BM_ClassifyCycle(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) benchmark::DoNotOptimize(run(n, seed++).vital);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ClassifyCycle)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// The restructuring pass over one pool of n tasks, with half of them
// changing bucket on every pass (even destinations flip between vital and
// reserve) — the per-cycle churn hot keys cause. The pass is linear, so
// time_per_task should stay flat as n grows.
void BM_PoolRestructure(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  TaskPool pool;
  for (std::uint32_t i = 0; i < n; ++i)
    pool.push(Task::request(VertexId{0, n + i}, VertexId{0, i},
                            i % 4 < 2 ? ReqKind::kVital : ReqKind::kEager));
  const auto kill_none = [](const Task&) { return false; };
  const auto flip = [](const Task& t) {
    if (t.d.idx % 2 != 0) return t.pool_prior;
    return t.pool_prior == 3 ? std::uint8_t{1} : std::uint8_t{3};
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(pool.restructure(kill_none, flip).reprioritized);
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["time_per_task"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_PoolRestructure)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The same pass over the inert pool, which decides once per destination:
// n tasks from n distinct sources aimed at 16 destinations, and the even
// destinations flip between vital and reserve on every pass, so half the
// groups change bucket each time. The pass visits groups, not tasks, so the
// time per pass should stay flat as n grows.
void BM_TaskIndexRestructure(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t kDests = 16;
  TaskIndex index;
  for (std::uint32_t i = 0; i < n; ++i)
    index.push(Task::request(VertexId{0, kDests + i}, VertexId{0, i % kDests},
                             ReqKind::kVital));
  std::uint8_t even_prior = 3;
  const auto kill_none = [](VertexId) { return false; };
  const auto flip = [&](VertexId d) {
    return d.idx % 2 == 0 ? even_prior : std::uint8_t{3};
  };
  for (auto _ : state) {
    even_prior = even_prior == 3 ? 1 : 3;
    benchmark::DoNotOptimize(index.restructure(kill_none, flip).reprioritized);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["time_per_task"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_TaskIndexRestructure)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  dgr::bench::table();
  return dgr::bench::run_bench_main("task_classify", argc, argv);
}
