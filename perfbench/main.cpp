// perfbench: one run of one workload of the end-to-end benchmark.
//
//   perfbench --workload <mark_thread|mark_proc|sessions_thread> --seed N
//             --seconds S --trace <0|1> [--worker-bin PATH] [--out-dir DIR]
//             [--host-json JSON] [--mutate-delay-us N]
//   perfbench --self-test
//
// Prints a human-readable report (host context, correctness checks, every
// metric with its unit) and, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exit status: 0 when every check passed, 1 when one failed, 2 on misuse.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

std::string json_num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string host_json = "{}";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") cfg.workload = v;
    else if (a == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") cfg.seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") cfg.trace = v == "1";
    else if (a == "--worker-bin") cfg.worker_bin = v;
    else if (a == "--out-dir") cfg.out_dir = v;
    else if (a == "--host-json") host_json = v;
    else if (a == "--mutate-delay-us")
      cfg.mutate_delay_us =
          static_cast<std::uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    else return usage(("unknown flag " + a).c_str());
  }
  if (self_test) return perfbench::self_test() == 0 ? 0 : 1;
  if (cfg.workload.empty() || cfg.seconds <= 0)
    return usage("--workload and a positive --seconds are required");

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  // Host context: the benchmark's own facts plus what run.py knows (git
  // sha or source digest), merged into one object.
  std::string ctx = "{\"nproc\":" +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) +
                    ",\"compiler\":" + json_str(PERFBENCH_COMPILER) +
                    ",\"workload\":" + json_str(cfg.workload) +
                    ",\"seed\":" + std::to_string(cfg.seed);
  for (const auto& [k, v] : r.context)
    ctx += "," + json_str(k) + ":" + json_str(v);
  if (host_json.size() > 2)
    ctx += "," + host_json.substr(1, host_json.size() - 2);
  ctx += "}";
  std::printf("# context %s\n", ctx.c_str());
  for (const std::string& n : r.notes) std::printf("# check %s\n", n.c_str());

  const auto& shown = cfg.trace ? r.per_layer : r.end_to_end;
  std::string metrics;
  try {
    for (const auto& [name, m] : shown) {
      std::printf("%-40s %16.4f %s\n", name.c_str(), m.value, m.unit.c_str());
      if (!metrics.empty()) metrics += ",";
      metrics += json_str(name) + ":{\"value\":" + json_num(m.value) +
                 ",\"unit\":" + json_str(m.unit) + "}";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const auto& [name, m] : r.shown)
    std::printf("%-40s %16.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  std::printf("%-40s %16.6f %s\n", "ops_failed_frac",
              static_cast<double>(r.failed) /
                  static_cast<double>(r.attempted ? r.attempted : 1),
              "ratio");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return r.correct ? 0 : 1;
}
