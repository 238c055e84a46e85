// E9 — On-the-fly vs stop-the-world collection (paper §4 motivation: a
// static marking algorithm "would require that the computation be halted
// while marking takes place").
//
// Workload: fib(N) reducing on the simulator with finite stores, collected
// either (a) concurrently by the paper's marker, or (b) by halting reduction
// and running the STW baseline whenever stores run low.
//
// Reported shape (paper's implicit claim): the concurrent collector's
// mutator stall is the restructuring phase only — orders of magnitude below
// the STW pause, at a modest throughput overhead (the marking tax).
#include "baseline/stw_collector.h"
#include "bench/bench_common.h"

namespace dgr::bench {
namespace {

struct RunResult {
  std::uint64_t total_steps = 0;       // sim work units overall
  std::uint64_t reduction_steps = 0;   // useful mutator work
  std::uint64_t collections = 0;
  std::uint64_t max_pause = 0;   // longest mutator stall, work units
  std::uint64_t total_pause = 0;
  std::uint64_t remote_msgs = 0;
  std::int64_t result = -1;
};

constexpr std::uint32_t kPes = 4;
constexpr std::uint32_t kCapacity = 1200;  // per PE — forces collections
const char* kProg =
    "def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);"
    "def main() = fib(14);";

RunResult run_concurrent(std::uint64_t seed) {
  Graph g(kPes, kCapacity);
  for (PeId pe = 0; pe < kPes; ++pe) g.store(pe).set_fixed_capacity(true);
  SimOptions sopt;
  sopt.seed = seed;
  SimEngine eng(g, sopt);
  Machine m(g, eng.mutator(), eng, Program::from_source(kProg));
  const VertexId root = m.load_main();
  eng.set_root(root);
  eng.set_reducer([&](const Task& t) { m.exec(t); });
  m.set_exhaustion_handler([&] {
    if (eng.controller().idle()) {
      CycleOptions c;
      c.detect_deadlock = false;
      eng.controller().start_cycle(c);
    }
  });
  m.demand(root);

  RunResult r;
  while (!m.result_of(root).has_value()) {
    if (!eng.step()) break;
  }
  r.total_steps = eng.steps();
  r.reduction_steps =
      eng.metrics_registry().total(obs::Counter::kReductionTasks);
  r.collections = eng.controller().cycles_completed();
  // The concurrent collector's only stop-the-world moment is restructuring:
  // a scan of live vertices (quiesced in the threaded engine). Use the
  // post-cycle live count as the per-cycle pause bound.
  const std::uint64_t restructure_scan = g.total_live();
  r.max_pause = restructure_scan;
  r.total_pause = restructure_scan * r.collections;
  r.remote_msgs = eng.metrics_registry().total(obs::Counter::kRemoteMessages);
  r.result = m.result_of(root) ? m.result_of(root)->as_int() : -1;
  return r;
}

RunResult run_stw(std::uint64_t seed) {
  Graph g(kPes, kCapacity);
  for (PeId pe = 0; pe < kPes; ++pe) g.store(pe).set_fixed_capacity(true);
  SimOptions sopt;
  sopt.seed = seed;
  SimEngine eng(g, sopt);
  Machine m(g, eng.mutator(), eng, Program::from_source(kProg));
  const VertexId root = m.load_main();
  eng.set_root(root);
  eng.set_reducer([&](const Task& t) { m.exec(t); });
  StwCollector stw(g);
  RunResult r;
  bool need_gc = false;
  m.set_exhaustion_handler([&] { need_gc = true; });
  m.demand(root);
  while (!m.result_of(root).has_value()) {
    if (need_gc) {
      // The world stops: no reduction happens while the collector runs.
      const StwResult res = stw.collect(root);
      r.max_pause = std::max(r.max_pause, res.pause_work);
      r.total_pause += res.pause_work;
      ++r.collections;
      need_gc = false;
    }
    if (!eng.step()) break;
  }
  r.total_steps = eng.steps() + stw.total_pause_work();
  r.reduction_steps =
      eng.metrics_registry().total(obs::Counter::kReductionTasks);
  r.result = m.result_of(root) ? m.result_of(root)->as_int() : -1;
  return r;
}

void table() {
  print_header("E9: concurrent marking vs stop-the-world",
               "§4 motivation / §6 interference remarks",
               "on-the-fly collection removes the STW pause at a modest "
               "throughput cost");
  std::printf("%12s %6s %12s %12s %12s %12s %10s\n", "collector", "seed",
              "total_work", "reduction", "collections", "max_pause",
              "result");
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const RunResult c = run_concurrent(seed);
    std::printf("%12s %6llu %12llu %12llu %12llu %12llu %10lld\n",
                "concurrent", (unsigned long long)seed,
                (unsigned long long)c.total_steps,
                (unsigned long long)c.reduction_steps,
                (unsigned long long)c.collections,
                (unsigned long long)c.max_pause, (long long)c.result);
    const RunResult s = run_stw(seed);
    std::printf("%12s %6llu %12llu %12llu %12llu %12llu %10lld\n", "stw",
                (unsigned long long)seed, (unsigned long long)s.total_steps,
                (unsigned long long)s.reduction_steps,
                (unsigned long long)s.collections,
                (unsigned long long)s.max_pause, (long long)s.result);
  }
}

void BM_ConcurrentRun(benchmark::State& state) {
  RunResult last;
  for (auto _ : state) {
    last = run_concurrent(1);
    benchmark::DoNotOptimize(last.result);
  }
  state.counters["collections"] = double(last.collections);
  state.counters["remote_msgs"] = double(last.remote_msgs);
}
BENCHMARK(BM_ConcurrentRun)->Unit(benchmark::kMillisecond);

void BM_StwRun(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run_stw(1).result);
}
BENCHMARK(BM_StwRun)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  dgr::bench::table();
  return dgr::bench::run_bench_main("concurrent_vs_stw", argc, argv);
}
