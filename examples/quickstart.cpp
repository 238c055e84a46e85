// Quickstart: evaluate a small functional program on the distributed
// graph-reduction runtime, with the concurrent marking collector running
// continuously underneath.
//
//   $ ./quickstart
//
// What it shows, end to end:
//   1. compile a program to function templates,
//   2. load it into a 4-PE partitioned graph,
//   3. demand the root's value (the initial <-,root> task),
//   4. interleave reduction with endless mark/restructure cycles,
//   5. read the result and the collector's tallies.
#include <cstdio>

#include "reduction/machine.h"
#include "runtime/sim_engine.h"

int main() {
  using namespace dgr;

  const char* source =
      "# Sum of the first n squares, recursively.\n"
      "def square(x) = x * x;\n"
      "def sum_sq(n) = if n == 0 then 0 else square(n) + sum_sq(n - 1);\n"
      "def main() = sum_sq(100);\n";

  // A computation graph partitioned over 4 processing elements.
  Graph graph(4);
  SimOptions sim;
  sim.seed = 2026;
  SimEngine engine(graph, sim);

  // Compile and load the program; `main` becomes the root vertex.
  Machine machine(graph, engine.mutator(), engine, Program::from_source(source));
  const VertexId root = machine.load_main();
  engine.set_root(root);
  engine.set_reducer([&](const Task& t) { machine.exec(t); });

  // Collect continuously while the program runs (the paper's endless
  // mark/restructure cycle).
  engine.controller().set_continuous(true, CycleOptions{false});
  engine.controller().start_cycle(CycleOptions{false});

  // Demand the answer and run until it arrives.
  machine.demand(root);
  while (!machine.result_of(root).has_value()) {
    if (!engine.step()) break;
  }
  engine.controller().set_continuous(false);
  engine.run();

  if (machine.has_error()) {
    std::printf("runtime error: %s\n", machine.error().c_str());
    return 1;
  }
  const auto result = machine.result_of(root);
  std::printf("sum of squares 1..100 = %s   (expected 338350)\n",
              result->to_string().c_str());
  const obs::MetricsRegistry& reg = engine.metrics_registry();
  std::printf("tasks executed: %llu reduction, %llu marking\n",
              (unsigned long long)reg.total(obs::Counter::kReductionTasks),
              (unsigned long long)(reg.total(obs::Counter::kMarkTasks) +
                                   reg.total(obs::Counter::kReturnTasks)));
  std::printf("collector: %llu cycles, %llu vertices reclaimed\n",
              (unsigned long long)engine.controller().cycles_completed(),
              (unsigned long long)engine.controller().total_swept());
  std::printf("cross-PE messages: %llu\n",
              (unsigned long long)reg.total(obs::Counter::kRemoteMessages));
  return result->as_int() == 338350 ? 0 : 1;
}
