// E17 — Partitioning/locality (paper §2: "the computation graph is divided
// into a number of subgraphs (called partitions), each of which is assigned
// to an autonomous PE ... more akin to conventional distributed computing
// models" — i.e. granularity/locality is the model's lever against the
// "high communication overhead inherent in the fine-grained dataflow
// approach").
//
// Sweep the instance-placement policy: scatter (each template node lands on
// the next PE round-robin — fine-grained, dataflow-like) vs owner-local
// (whole instance on the caller's PE — coarse partitions). Measured shape:
// scatter maximizes cross-PE traffic; owner-local keeps most task
// propagation inside a partition, exactly the §2 trade-off.
#include "bench/bench_common.h"

namespace dgr::bench {
namespace {

struct Row {
  std::int64_t result;
  std::uint64_t remote;
  std::uint64_t local;
  std::uint64_t bytes;
};

Row run(Placement placement, std::uint32_t pes, std::uint64_t seed) {
  Graph g(pes);
  SimOptions sopt;
  sopt.seed = seed;
  SimEngine eng(g, sopt);
  MachineOptions mopt;
  mopt.placement = placement;
  Machine m(g, eng.mutator(), eng,
            Program::from_source(std::string(kFib) + "def main() = fib(15);"),
            mopt);
  const VertexId root = m.load_main();
  eng.set_root(root);
  eng.set_reducer([&](const Task& t) { m.exec(t); });
  eng.controller().set_continuous(true, CycleOptions{false});
  eng.controller().start_cycle(CycleOptions{false});
  m.demand(root);
  while (!m.result_of(root).has_value()) {
    if (!eng.step()) break;
  }
  eng.controller().set_continuous(false);
  Row r;
  r.result = m.result_of(root) ? m.result_of(root)->as_int() : -1;
  const obs::MetricsRegistry& reg = eng.metrics_registry();
  r.remote = reg.total(obs::Counter::kRemoteMessages);
  r.local = reg.total(obs::Counter::kLocalMessages);
  r.bytes = reg.total(obs::Counter::kBytesSent);
  return r;
}

void table() {
  print_header("E17: placement policy vs communication overhead",
               "§2 partitioning rationale",
               "coarse (owner-local) partitions keep task propagation "
               "inside PEs; fine-grained scatter pays dataflow-level "
               "message traffic for the same computation");
  std::printf("%6s %14s %12s %12s %10s %14s %8s\n", "PEs", "placement",
              "remote_msgs", "local_msgs", "remote%", "bytes", "result");
  for (std::uint32_t pes : {2u, 4u, 8u}) {
    for (Placement p :
         {Placement::kHome, Placement::kChunk, Placement::kScatter}) {
      const Row r = run(p, pes, 11);
      const double pct = 100.0 * static_cast<double>(r.remote) /
                         static_cast<double>(r.remote + r.local);
      std::printf("%6u %14s %12llu %12llu %9.1f%% %14llu %8lld\n", pes,
                  placement_name(p),
                  (unsigned long long)r.remote, (unsigned long long)r.local,
                  pct, (unsigned long long)r.bytes, (long long)r.result);
    }
  }
  std::printf(
      "\nnote: home with a single entry call degenerates to one partition —\n"
      "zero communication but zero parallelism; scatter is the fine-grained\n"
      "dataflow end. chunk (one PE per instantiation) is the streaming\n"
      "greedy between the two, which is precisely the trade-off §2 frames.\n");
}

void BM_Scatter(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(run(Placement::kScatter, 4, seed++).result);
}
BENCHMARK(BM_Scatter)->Unit(benchmark::kMillisecond);

void BM_OwnerLocal(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(run(Placement::kHome, 4, seed++).result);
}
BENCHMARK(BM_OwnerLocal)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  dgr::bench::table();
  return dgr::bench::run_bench_main("locality", argc, argv);
}
