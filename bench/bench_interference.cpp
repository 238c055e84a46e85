// E11 — Marker/mutator interference (paper §6: "the marking processes'
// interference with the reduction process is thus minimal" — no nested
// vertex locking, bounded marking-task execution).
//
// Workload: fib(13) reducing while marking cycles run continuously, sweeping
// the marking-tax knob (how many marking tasks are serviced per reduction
// task while a cycle is active). Reported shape: reduction work (tasks
// needed to finish) is INDEPENDENT of the tax — marking never blocks or
// duplicates reduction work; only wall-clock sharing changes. A row without
// any collection gives the no-GC baseline.
#include "bench/bench_common.h"

namespace dgr::bench {
namespace {

struct Row {
  std::uint64_t total_steps;
  std::uint64_t reduction_tasks;
  std::uint64_t mark_tasks;
  std::uint64_t cycles;
  std::int64_t result;
};

Row run(std::uint32_t tax, bool collect, std::uint64_t seed) {
  SimOptions sopt;
  sopt.marking_tax = tax;
  SimRig rig(4, seed, sopt);
  rig.load(std::string(kFib) + "def main() = fib(13);");
  if (collect) {
    rig.eng.controller().set_continuous(true, CycleOptions{false});
    rig.eng.controller().start_cycle(CycleOptions{false});
  }
  while (!rig.machine->result_of(rig.root).has_value()) {
    if (!rig.eng.step()) break;
  }
  rig.eng.controller().set_continuous(false);
  Row r;
  const obs::MetricsRegistry& reg = rig.eng.metrics_registry();
  r.total_steps = rig.eng.steps();
  r.reduction_tasks = reg.total(obs::Counter::kReductionTasks);
  r.mark_tasks = reg.total(obs::Counter::kMarkTasks) +
                 reg.total(obs::Counter::kReturnTasks);
  r.cycles = rig.eng.controller().cycles_completed();
  const auto res = rig.machine->result_of(rig.root);
  r.result = res ? res->as_int() : -1;
  return r;
}

void table() {
  print_header("E11: marker/mutator interference vs marking duty",
               "§6 remarks",
               "reduction work is invariant under collection intensity; "
               "marking adds bandwidth, not mutator work");
  std::printf("%14s %12s %12s %12s %8s %8s\n", "mode", "total_steps",
              "reduction", "marking", "cycles", "result");
  const Row base = run(8, false, 1);
  std::printf("%14s %12llu %12llu %12llu %8llu %8lld\n", "no-gc",
              (unsigned long long)base.total_steps,
              (unsigned long long)base.reduction_tasks,
              (unsigned long long)base.mark_tasks,
              (unsigned long long)base.cycles, (long long)base.result);
  for (std::uint32_t tax : {0u, 2u, 8u, 32u}) {
    const Row r = run(tax, true, 1);
    std::printf("%11s tax=%-2u %10llu %12llu %12llu %8llu %8lld\n",
                "continuous", tax, (unsigned long long)r.total_steps,
                (unsigned long long)r.reduction_tasks,
                (unsigned long long)r.mark_tasks, (unsigned long long)r.cycles,
                (long long)r.result);
  }
}

void BM_FibNoGc(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run(8, false, 1).result);
}
BENCHMARK(BM_FibNoGc)->Unit(benchmark::kMillisecond);

void BM_FibContinuousGc(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run(static_cast<std::uint32_t>(state.range(0)), true, 1).result);
}
BENCHMARK(BM_FibContinuousGc)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  dgr::bench::table();
  return dgr::bench::run_bench_main("interference", argc, argv);
}
