// dgr_run — evaluate a program written in the mini-language from a file or
// stdin on the distributed reduction runtime.
//
//   $ ./dgr_run program.dgr
//   $ echo 'def main() = 6 * 7;' | ./dgr_run -
//
// Flags (simple positional/env-free parsing):
//   --pes N          number of processing elements (default 4)
//   --seed S         scheduler seed (default 1)
//   --speculate      eager-evaluate both branches of every if
//   --gc             run continuous marking cycles during evaluation
//   --detect-deadlock  run M_T in --gc cycles; report deadlocked vertices
//                    if evaluation wedges
//   --latency N      cross-PE message delivery delay, in sim steps
//   --stats          print machine/engine statistics
//   --trace FILE     write a Chrome trace_event file (implies --gc; load in
//                    chrome://tracing or https://ui.perfetto.dev)
//   --trace-jsonl FILE  write the raw trace as deterministic JSONL
//   --metrics FILE   write the per-PE metrics registry as JSON
//   --audit          paranoid sweep check: abort if a sweep would free a
//                    vertex the sequential Oracle finds reachable (implies
//                    --gc)
//   --wedge-steps N  with --gc: declare evaluation wedged after N sim steps
//                    of zero reduction progress (default 200000)
//   --partition P    instance-vertex placement: scatter (default; each
//                    template node round-robins across PEs), home (all on
//                    the caller's PE), chunk/greedy (one PE per
//                    instantiation — the streaming greedy partitioner)
//
// Safe-point audits, fault injection and multi-process runs of the threaded
// and process engines live in tools/dgr_soak (docs/WORKLOAD.md).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reduction/machine.h"
#include "runtime/sim_engine.h"

namespace {

void write_file(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "dgr_run: cannot write '%s'\n", path.c_str());
    std::exit(2);
  }
  f << data;
}

std::string read_all(const char* path) {
  if (std::strcmp(path, "-") == 0) {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "dgr_run: cannot open '%s'\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dgr;

  const char* path = nullptr;
  std::uint32_t pes = 4;
  std::uint64_t seed = 1;
  bool speculate = false, gc = false, detect = false, stats = false;
  bool audit = false;
  std::uint64_t wedge_steps = 200000;
  std::uint32_t latency = 0;
  Placement placement = Placement::kScatter;
  const char* trace_path = nullptr;
  const char* jsonl_path = nullptr;
  const char* metrics_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--pes") && i + 1 < argc) {
      pes = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--latency") && i + 1 < argc) {
      latency = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
      trace_path = argv[++i];
      gc = true;  // a trace without marking cycles would be empty
    } else if (!std::strcmp(argv[i], "--trace-jsonl") && i + 1 < argc) {
      jsonl_path = argv[++i];
      gc = true;
    } else if (!std::strcmp(argv[i], "--metrics") && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--speculate")) {
      speculate = true;
    } else if (!std::strcmp(argv[i], "--gc")) {
      gc = true;
    } else if (!std::strcmp(argv[i], "--detect-deadlock")) {
      detect = true;
    } else if (!std::strcmp(argv[i], "--stats")) {
      stats = true;
    } else if (!std::strcmp(argv[i], "--audit")) {
      audit = true;
      gc = true;  // auditing is about the marking cycles
    } else if (!std::strcmp(argv[i], "--wedge-steps") && i + 1 < argc) {
      wedge_steps = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--partition") && i + 1 < argc) {
      if (!parse_placement(argv[++i], &placement)) {
        std::fprintf(stderr,
                     "dgr_run: --partition expects scatter|home|chunk|greedy "
                     "(got '%s')\n",
                     argv[i]);
        return 2;
      }
    } else if (argv[i][0] != '-' || !std::strcmp(argv[i], "-")) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "dgr_run: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (!path) {
    std::fprintf(stderr,
                 "usage: dgr_run [--pes N] [--seed S] [--speculate] [--gc] "
                 "[--detect-deadlock] [--latency N] [--stats] [--trace FILE] "
                 "[--trace-jsonl FILE] [--metrics FILE] [--audit] "
                 "[--wedge-steps N] [--partition P] <file|->\n");
    return 2;
  }

  Graph graph(pes);
  SimOptions sim;
  sim.seed = seed;
  sim.max_latency = latency;
  SimEngine engine(graph, sim);
  MachineOptions mopt;
  mopt.speculate_if = speculate;
  mopt.placement = placement;

  std::unique_ptr<Machine> machine;
  try {
    machine = std::make_unique<Machine>(graph, engine.mutator(), engine,
                                        Program::from_source(read_all(path)),
                                        mopt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dgr_run: %s\n", e.what());
    return 2;
  }
  const VertexId root = machine->load_main();
  engine.set_root(root);
  engine.set_reducer([&](const Task& t) { machine->exec(t); });
  if (trace_path || jsonl_path) engine.enable_trace();
  if (audit) engine.controller().set_paranoid_sweep_check(true);
  if (gc) {
    // With --detect-deadlock, every continuous cycle runs M_T before M_R
    // (deadlock detection per cycle); otherwise cycles are M_R-only.
    const CycleOptions copt{detect};
    engine.controller().set_continuous(true, copt);
    engine.controller().start_cycle(copt);
  }
  machine->demand(root);
  // With continuous GC the engine always has marking work, so step() alone
  // cannot signal a wedged evaluation. Track reduction progress: if the
  // machine does nothing for a long window while only the collector steps,
  // the computation is wedged (same deterministic break point per seed).
  std::uint64_t last_work = 0, quiet_steps = 0;
  while (!machine->result_of(root).has_value()) {
    if (!engine.step()) break;
    if (gc) {
      const MachineStats& ms = machine->stats();
      const std::uint64_t work =
          ms.requests + ms.returns + ms.evals + ms.instantiations;
      quiet_steps = work == last_work ? quiet_steps + 1 : 0;
      last_work = work;
      if (quiet_steps > wedge_steps) break;
    }
  }
  engine.controller().set_continuous(false);
  engine.run();

  int rc = 0;
  if (machine->has_error()) {
    std::printf("error: %s\n", machine->error().c_str());
    rc = 1;
  } else if (auto r = machine->result_of(root)) {
    std::printf("%s\n", r->to_string().c_str());
  } else {
    std::printf("no result: evaluation wedged\n");
    rc = 1;
    if (detect) {
      engine.controller().start_cycle(CycleOptions{true});
      engine.run_until_cycle_done();
      for (VertexId v : engine.controller().last().deadlocked)
        std::printf("deadlocked vertex %u:%u (op %s)\n", v.pe, v.idx,
                    op_name(graph.at(v).op));
    }
  }
  if (stats) {
    const MachineStats& ms = machine->stats();
    std::printf(
        "# requests=%llu returns=%llu evals=%llu instantiations=%llu "
        "alloc=%llu\n",
        (unsigned long long)ms.requests, (unsigned long long)ms.returns,
        (unsigned long long)ms.evals, (unsigned long long)ms.instantiations,
        (unsigned long long)ms.vertices_allocated);
    std::printf("# steps=%llu remote_msgs=%llu gc_cycles=%llu swept=%llu\n",
                (unsigned long long)engine.steps(),
                (unsigned long long)engine.metrics_registry().total(
                    obs::Counter::kRemoteMessages),
                (unsigned long long)engine.controller().cycles_completed(),
                (unsigned long long)engine.controller().total_swept());
  }
  if (trace_path || jsonl_path) {
    const std::vector<obs::TraceEvent> events = engine.trace()->snapshot();
    if (trace_path)
      write_file(trace_path, obs::to_chrome_trace(events, graph.num_pes()));
    if (jsonl_path) write_file(jsonl_path, obs::to_jsonl(events));
  }
  if (metrics_path)
    write_file(metrics_path, engine.metrics_registry().to_json() + "\n");
  return rc;
}
