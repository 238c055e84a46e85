// Shared setup helpers for the experiment benches. Each bench binary
// regenerates one experiment from DESIGN.md §3 (the per-figure/property
// reproduction index): it first prints the experiment's table (deterministic,
// simulator work-unit numbers), then runs google-benchmark wall-clock
// timings for the same code paths.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/oracle.h"
#include "obs/metrics.h"
#include "reduction/machine.h"
#include "runtime/sim_engine.h"

namespace dgr::bench {

inline const char* kFib =
    "def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);";

// True when this process was invoked with --smoke (CI's bench-smoke job).
// Benches consult it to shrink table() sweeps and per-iteration workloads so
// every code path still runs but the whole binary finishes in seconds.
// run_bench_main sets it too, but mains that print tables before calling
// run_bench_main should call detect_smoke first.
inline bool g_smoke = false;

// Scan argv for --smoke (without consuming it — run_bench_main strips it).
inline bool detect_smoke(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") g_smoke = true;
  return g_smoke;
}

struct SimRig {
  Graph g;
  SimEngine eng;
  std::unique_ptr<Machine> machine;
  VertexId root = VertexId::invalid();

  SimRig(std::uint32_t pes, std::uint64_t seed, SimOptions sopt = {})
      : g(pes), eng(g, [&] {
          sopt.seed = seed;
          return sopt;
        }()) {}

  // Attach a program and demand main.
  void load(const std::string& src, MachineOptions mopt = {}) {
    machine = std::make_unique<Machine>(g, eng.mutator(), eng,
                                        Program::from_source(src), mopt);
    root = machine->load_main();
    eng.set_root(root);
    eng.set_reducer([this](const Task& t) { machine->exec(t); });
    machine->demand(root);
  }

  // Attach a static random graph workload.
  BuiltGraph load_static(const RandomGraphOptions& opt) {
    BuiltGraph b = build_random_graph(g, opt);
    root = b.root;
    eng.set_root(root);
    for (const TaskRef& t : b.tasks)
      eng.spawn(Task::request(t.s, t.d, ReqKind::kVital));
    return b;
  }
};

inline void print_header(const char* experiment, const char* source,
                         const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s  (paper: %s)\n", experiment, source);
  std::printf("claim: %s\n", claim);
  std::printf("================================================================\n");
}

// Attach the obs registry's aggregate counters to a google-benchmark state so
// BENCH_*.json carries work-unit context next to the wall-clock numbers.
inline void report_obs_counters(benchmark::State& state,
                                const obs::MetricsRegistry& reg) {
  using obs::Counter;
  state.counters["mark_tasks"] = double(reg.total(Counter::kMarkTasks));
  state.counters["return_tasks"] = double(reg.total(Counter::kReturnTasks));
  state.counters["remote_msgs"] = double(reg.total(Counter::kRemoteMessages));
  state.counters["local_msgs"] = double(reg.total(Counter::kLocalMessages));
  state.counters["bytes_sent"] = double(reg.total(Counter::kBytesSent));
}

// Per-phase breakdown of the engine's last completed cycle: M_T (task-rooted,
// deadlock detection) vs M_R (priority marking) costs, per DESIGN.md §5.
inline void report_phase_counters(benchmark::State& state, SimEngine& eng) {
  const CycleResult& c = eng.controller().last();
  state.counters["mt_marks"] = double(c.stats_t.marks);
  state.counters["mt_returns"] = double(c.stats_t.returns);
  state.counters["mr_marks"] = double(c.stats_r.marks);
  state.counters["mr_returns"] = double(c.stats_r.returns);
  state.counters["swept"] = double(c.swept);
  state.counters["expunged"] = double(c.expunged);
  report_obs_counters(state, eng.metrics_registry());
}

// The host a BENCH_*.json came from, in perfbench's context format: cores,
// build type, compiler and the source tree's git commit ("-dirty" when it
// had uncommitted changes; "unknown" outside a git checkout).
// check_bench_regression.py reads nproc from it to decide which multi-PE
// legs can really run in parallel.
inline std::string host_context_json() {
  std::string sha = "unknown";
  const std::string cmd = std::string("git -C '") + DGR_BENCH_SOURCE_DIR +
                          "' describe --always --dirty --abbrev=40 2>/dev/null";
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[128] = {};
    if (std::fgets(buf, sizeof(buf), p)) {
      std::string s(buf);
      while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
      if (!s.empty()) sha = s;
    }
    ::pclose(p);
  }
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":\"" + DGR_BENCH_BUILD_TYPE +
         "\",\"compiler\":\"" + DGR_BENCH_COMPILER + "\",\"git_sha\":\"" +
         sha + "\"}";
}

// Machine-readable results: every bench binary writes BENCH_<name>.json next
// to its console output (schema documented in docs/OBSERVABILITY.md): the
// host context, then one entry per measured run: the full benchmark name
// (params are encoded in it, e.g. "BM_MarkCycle/8"), iteration count,
// adjusted real/cpu time in the bench's time unit, and every user counter
// the bench attached (the obs registry totals from report_obs_counters /
// report_phase_counters).
// Subclasses ConsoleReporter so one reporter both prints the usual table and
// collects the JSON (the library rejects a standalone file reporter unless
// --benchmark_out is also given).
class JsonBenchReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonBenchReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.run_type == Run::RT_Aggregate) continue;  // keep raw runs only
      std::string e = "    {\"name\":\"";
      e += json_escape(r.benchmark_name());
      e += "\",\"iterations\":";
      e += std::to_string(static_cast<long long>(r.iterations));
      e += ",\"real_time\":";
      e += num(r.GetAdjustedRealTime());
      e += ",\"cpu_time\":";
      e += num(r.GetAdjustedCPUTime());
      e += ",\"time_unit\":\"";
      e += benchmark::GetTimeUnitString(r.time_unit);
      e += "\",\"error\":";
      e += r.error_occurred ? "true" : "false";
      e += ",\"counters\":{";
      bool first = true;
      for (const auto& [name, c] : r.counters) {
        if (!first) e += ',';
        first = false;
        e += '"';
        e += json_escape(name);
        e += "\":";
        e += num(static_cast<double>(c));
      }
      e += "}}";
      entries_.push_back(std::move(e));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::ofstream f("BENCH_" + bench_name_ + ".json",
                    std::ios::binary | std::ios::trunc);
    if (!f) return;
    f << "{\n  \"bench\": \"" << json_escape(bench_name_)
      << "\",\n  \"context\": " << host_context_json()
      << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i)
      f << entries_[i] << (i + 1 < entries_.size() ? ",\n" : "\n");
    f << "  ]\n}\n";
  }

 private:
  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }
  static std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string bench_name_;
  std::vector<std::string> entries_;
};

// Shared main: console output as usual plus the BENCH_<name>.json artifact.
//
// `--smoke` (ours, stripped before google-benchmark sees the args) caps each
// measurement at `smoke_min_time` seconds (default 0.01) so CI's bench-smoke
// job can exercise every bench path and still produce the JSON artifacts in
// seconds. Numbers from a smoke run are for plumbing validation only — never
// quote them. Benches whose per-iteration cost dwarfs the default cap (one
// iteration = pure scheduling noise) pass a larger smoke_min_time so the
// regression gate's ratios average over a few iterations.
inline int run_bench_main(const char* name, int argc, char** argv,
                          const char* smoke_min_time = "0.01") {
  std::vector<char*> args(argv, argv + argc);
  bool smoke = false;
  for (auto it = args.begin(); it != args.end();) {
    if (std::string(*it) == "--smoke") {
      smoke = true;
      g_smoke = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  static char min_time[64];
  std::snprintf(min_time, sizeof(min_time), "--benchmark_min_time=%s",
                smoke_min_time);
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  JsonBenchReporter reporter(name);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}

}  // namespace dgr::bench
