// dgr_soak — seeded open-loop session soak against any engine
// (docs/WORKLOAD.md).
//
// Drives the src/workload session generator — Poisson/bursty arrivals, Zipf
// hot-key churn, lifetime-bounded completion — through the SimEngine,
// ThreadEngine or ProcEngine for a fixed schedule or a wall-clock duration,
// with the fault adversary and safe-point audits live, then emits a JSON SLO
// report (sessions/s, mutator-stall percentiles, per-phase stall
// attribution) and exits nonzero on any invariant, audit, divergence,
// telemetry-loss or leak failure, or when the run never reached what it
// claims to test (the coverage floor below).
//
//   $ ./dgr_soak --seed 1 --duration 600 --faults --audit 4
//   $ ./dgr_soak --engine proc --workers 2 --ticks 64 --report slo.json
//
// Flags:
//   --engine E       sim | thread (default) | proc
//   --workers N      worker processes (implies --engine proc)
//   --pes N          processing elements (default 4)
//   --seed S         workload seed (default 1); epoch e runs seed ⊕ e
//   --ticks N        schedule horizon per epoch (default 64)
//   --duration S     repeat epochs until S wall-clock seconds elapsed
//   --epochs N       run exactly N epochs (default 1 unless --duration)
//   --rate R         mean arrivals per tick (default 2.0)
//   --bursty         bursty arrivals instead of Poisson
//   --hot-keys K     shared hot-key set size (default 16)
//   --zipf S         hot-key skew exponent (default 1.1)
//   --max-live N     admission cap on live sessions (default 256)
//   --churn C        mean churn ops per live session per tick (default 0.8)
//   --cycle-every T  barrier engines: ticks per marking cycle (default 4)
//   --audit N        safe-point audits every Nth cycle (§5.4.1 + Property 1;
//                    sim: paranoid sweep cross-checks)
//   --faults         fault adversary at default probabilities
//                    (drop/dup 2%, reorder 5%, truncate 1%)
//   --fault-drop P / --fault-dup P / --fault-reorder P / --fault-trunc P
//   --fault-seed S   fault-schedule seed (default 1)
//   --kill-worker W[@C]  proc: SIGKILL worker W once completed cycles reach C
//                    (default: mid-first-epoch); the run must then recover
//   --detect-deadlock  run M_T each cycle
//   --stats N        print a health line every N completed cycles
//   --stats-jsonl F  append health lines as JSONL
//   --trace F        write a Chrome trace_event file (proc: one timeline
//                    merging the controller and every worker)
//   --trace-jsonl F  write the trace as JSONL (proc: merged cluster stream)
//   --metrics F      write the metrics registry JSON (proc: cluster form)
//   --report F       write the SLO report JSON (default: stdout)
//   --health-fatal   exit nonzero on watchdog health warnings too
//
// Coverage floor (always on): a run fails when a fault kind has a nonzero
// probability but was never injected, when a threaded run on >= 2 PEs sent
// no remote message beyond the root fan-out, or when a proc run on >= 2
// workers relayed no frame through the hub — a gate that never reaches its
// subject shows nothing.
//
// Exit codes: 0 ok; 1 SLO invariant failed (audit violation, replica
// divergence, telemetry drop, leaked slots, lingering sessions) or coverage
// floor missed; 2 usage; 5 every worker died; 6 --kill-worker did not
// register loss + recovery.
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/proc_engine.h"
#include "runtime/sim_engine.h"
#include "runtime/thread_engine.h"
#include "workload/session.h"

namespace {

using namespace dgr;
using workload::SessionDriver;
using workload::WorkloadOptions;

void write_file(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "dgr_soak: cannot write '%s'\n", path.c_str());
    std::exit(2);
  }
  f << data;
}

void append_kv(std::string& out, const char* k, double v, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g%s", k, v, comma ? "," : "");
  out += buf;
}

void append_kv(std::string& out, const char* k, std::uint64_t v,
               bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu%s", k, (unsigned long long)v,
                comma ? "," : "");
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  enum class EngineKind { kSim, kThread, kProc };
  EngineKind kind = EngineKind::kThread;
  WorkloadOptions wopt;
  std::uint64_t base_seed = 1;
  std::uint32_t workers = 0;
  std::uint32_t epochs = 0;       // 0 = derive from --duration (or 1)
  double duration_s = 0.0;
  std::uint32_t audit_period = 0;
  bool detect = false, health_fatal = false;
  std::uint32_t kill_worker = kAnyWorkerIndex;
  std::uint64_t kill_cycle = 0;
  NetOptions net;
  std::uint32_t stats_period = 0;
  const char* stats_jsonl_path = nullptr;
  const char* trace_path = nullptr;
  const char* jsonl_path = nullptr;
  const char* metrics_path = nullptr;
  const char* report_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dgr_soak: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--engine")) {
      const char* e = need("--engine");
      if (!std::strcmp(e, "sim")) kind = EngineKind::kSim;
      else if (!std::strcmp(e, "thread")) kind = EngineKind::kThread;
      else if (!std::strcmp(e, "proc")) kind = EngineKind::kProc;
      else {
        std::fprintf(stderr, "dgr_soak: --engine expects sim|thread|proc\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--workers")) {
      workers = static_cast<std::uint32_t>(std::atoi(need("--workers")));
      kind = EngineKind::kProc;
    } else if (!std::strcmp(argv[i], "--pes")) {
      wopt.pes = static_cast<std::uint32_t>(std::atoi(need("--pes")));
    } else if (!std::strcmp(argv[i], "--seed")) {
      base_seed = static_cast<std::uint64_t>(std::atoll(need("--seed")));
    } else if (!std::strcmp(argv[i], "--ticks")) {
      wopt.ticks = static_cast<std::uint32_t>(std::atoi(need("--ticks")));
    } else if (!std::strcmp(argv[i], "--duration")) {
      duration_s = std::atof(need("--duration"));
    } else if (!std::strcmp(argv[i], "--epochs")) {
      epochs = static_cast<std::uint32_t>(std::atoi(need("--epochs")));
    } else if (!std::strcmp(argv[i], "--rate")) {
      wopt.rate = std::atof(need("--rate"));
    } else if (!std::strcmp(argv[i], "--bursty")) {
      wopt.arrivals = workload::Arrivals::kBursty;
    } else if (!std::strcmp(argv[i], "--hot-keys")) {
      wopt.hot_keys = static_cast<std::uint32_t>(std::atoi(need("--hot-keys")));
    } else if (!std::strcmp(argv[i], "--zipf")) {
      wopt.zipf_s = std::atof(need("--zipf"));
    } else if (!std::strcmp(argv[i], "--max-live")) {
      wopt.max_live = static_cast<std::uint32_t>(std::atoi(need("--max-live")));
    } else if (!std::strcmp(argv[i], "--churn")) {
      wopt.churn_per_tick = std::atof(need("--churn"));
    } else if (!std::strcmp(argv[i], "--cycle-every")) {
      wopt.cycle_every =
          static_cast<std::uint32_t>(std::atoi(need("--cycle-every")));
    } else if (!std::strcmp(argv[i], "--audit")) {
      audit_period = static_cast<std::uint32_t>(std::atoi(need("--audit")));
    } else if (!std::strcmp(argv[i], "--faults")) {
      net.faults.spec.drop = 0.02;
      net.faults.spec.duplicate = 0.02;
      net.faults.spec.reorder = 0.05;
      net.faults.spec.truncate = 0.01;
    } else if (!std::strcmp(argv[i], "--fault-drop")) {
      net.faults.spec.drop = std::atof(need("--fault-drop"));
    } else if (!std::strcmp(argv[i], "--fault-dup")) {
      net.faults.spec.duplicate = std::atof(need("--fault-dup"));
    } else if (!std::strcmp(argv[i], "--fault-reorder")) {
      net.faults.spec.reorder = std::atof(need("--fault-reorder"));
    } else if (!std::strcmp(argv[i], "--fault-trunc")) {
      net.faults.spec.truncate = std::atof(need("--fault-trunc"));
    } else if (!std::strcmp(argv[i], "--fault-seed")) {
      net.faults.seed =
          static_cast<std::uint64_t>(std::atoll(need("--fault-seed")));
    } else if (!std::strcmp(argv[i], "--kill-worker")) {
      const char* spec = need("--kill-worker");
      unsigned w = 0;
      unsigned long long c = 0;
      if (std::sscanf(spec, "%u@%llu", &w, &c) == 2) {
        kill_worker = w;
        kill_cycle = c;
      } else if (std::sscanf(spec, "%u", &w) == 1) {
        kill_worker = w;  // cycle 0 = mid-first-epoch, resolved below
      } else {
        std::fprintf(stderr,
                     "dgr_soak: --kill-worker expects W or W@CYCLE\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--detect-deadlock")) {
      detect = true;
    } else if (!std::strcmp(argv[i], "--stats")) {
      stats_period = static_cast<std::uint32_t>(std::atoi(need("--stats")));
    } else if (!std::strcmp(argv[i], "--stats-jsonl")) {
      stats_jsonl_path = need("--stats-jsonl");
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace_path = need("--trace");
    } else if (!std::strcmp(argv[i], "--trace-jsonl")) {
      jsonl_path = need("--trace-jsonl");
    } else if (!std::strcmp(argv[i], "--metrics")) {
      metrics_path = need("--metrics");
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = need("--report");
    } else if (!std::strcmp(argv[i], "--health-fatal")) {
      health_fatal = true;
    } else {
      std::fprintf(stderr, "dgr_soak: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (kind == EngineKind::kProc && workers == 0) workers = 2;
  if (kill_worker != kAnyWorkerIndex) {
    if (kind != EngineKind::kProc || workers < 2 || kill_worker >= workers) {
      std::fprintf(stderr,
                   "dgr_soak: --kill-worker needs --engine proc, --workers "
                   ">= 2 and a valid index\n");
      return 2;
    }
    if (kill_cycle == 0)
      kill_cycle =
          std::max<std::uint64_t>(1, wopt.ticks / (2 * wopt.cycle_every));
  }

  // Presize every store so allocation never reallocates slot vectors under
  // running PE threads; overflow shows up as admission rejection, not UB.
  Graph graph(wopt.pes, workload::required_capacity(wopt));
  const CycleOptions copt{detect};

  std::unique_ptr<SimEngine> sim;
  std::unique_ptr<ThreadEngine> thr;
  std::unique_ptr<ProcEngine> proc;
  std::unique_ptr<workload::DriverEngine> eng;
  switch (kind) {
    case EngineKind::kSim: {
      SimOptions sopt;
      sopt.seed = base_seed;
      sim = std::make_unique<SimEngine>(graph, sopt);
      if (audit_period) sim->controller().set_paranoid_sweep_check(true);
      eng = workload::make_driver(*sim);
      break;
    }
    case EngineKind::kThread: {
      thr = std::make_unique<ThreadEngine>(graph, net);
      eng = workload::make_driver(*thr);
      break;
    }
    case EngineKind::kProc: {
      ProcOptions popt;
      popt.workers = workers;
      popt.net = net;
      proc = std::make_unique<ProcEngine>(graph, popt);
      eng = workload::make_driver(*proc);
      break;
    }
  }

  SessionDriver drv(*eng, wopt);
  drv.setup();
  for (PeId pe = 0; pe < graph.num_pes(); ++pe)
    graph.store(pe).set_fixed_capacity(true);
  // Fixed footprint after setup: anchors + hot keys. Anything above it once
  // the final drain completes is a leak. Counts non-aux vertices only — aux
  // roots (taskroots, troot, rescue roots) are permanent by design and some
  // are minted lazily at the first rescue wave.
  const auto live_non_aux = [&](PeId pe) {
    std::size_t n = 0;
    graph.store(pe).for_each_live([&](std::uint32_t) { ++n; });
    return n;
  };
  std::vector<std::size_t> baseline(graph.num_pes());
  for (PeId pe = 0; pe < graph.num_pes(); ++pe)
    baseline[pe] = live_non_aux(pe);

  const bool tracing = trace_path || jsonl_path;
  if (thr) {
    if (audit_period) {
      AuditOptions aopt;
      aopt.period = audit_period;
      thr->enable_audit(aopt);
    }
    thr->enable_watchdog();
    if (tracing) thr->enable_trace();
    thr->start();
  } else if (proc) {
    if (audit_period) {
      AuditOptions aopt;
      aopt.period = audit_period;
      proc->enable_audit(aopt);
    }
    if (tracing) proc->enable_trace();
    proc->start();
  } else {
    if (tracing) sim->enable_trace();
  }

  obs::HealthEmitter health("dgr_soak", stats_period, stats_jsonl_path);
  bool killed = false;
  const auto on_cycle = [&](std::uint64_t cc) {
    if (proc && kill_worker != kAnyWorkerIndex && !killed &&
        cc >= kill_cycle) {
      const long pid = proc->worker_pid(kill_worker);
      if (pid > 0) {
        std::printf("# chaos: killing worker %u (pid %ld) at cycle %llu\n",
                    kill_worker, pid, (unsigned long long)cc);
        ::kill(static_cast<pid_t>(pid), SIGKILL);
      }
      killed = true;
    }
    health.on_cycle(eng->registry(), cc, proc ? proc->workers_live() : 0,
                    proc ? proc->num_workers() : 0);
  };

  const auto t_start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t_start)
        .count();
  };
  std::uint32_t epochs_run = 0;
  std::uint64_t lingering = 0;
  for (std::uint32_t e = 0;; ++e) {
    if (epochs && e >= epochs) break;
    if (!epochs && duration_s > 0.0 && elapsed() >= duration_s) break;
    if (!epochs && duration_s == 0.0 && e >= 1) break;
    if (proc && proc->failed()) break;
    WorkloadOptions epoch_opt = wopt;
    // Epoch e replays the generator on a decorrelated seed; the sequence is
    // still a pure function of --seed.
    epoch_opt.seed = base_seed + e * 0x9E3779B97F4A7C15ull;
    const std::vector<workload::SessionEvent> schedule =
        workload::generate_schedule(epoch_opt);
    drv.run(schedule, copt, on_cycle);
    ++epochs_run;
    lingering += drv.live_sessions();
  }
  const double wall_s = elapsed();

  const bool worker_died = proc && proc->failed();
  std::uint64_t audits = 0, violations = 0, warnings = 0;
  if (thr) {
    audits = thr->audit_stats().audits;
    violations = thr->audit_stats().violations;
    const HealthReport hr = thr->health();
    warnings = hr.total();
    if (violations)
      std::printf("# last audit violation: %s\n",
                  thr->audit_stats().last_what.c_str());
    for (std::size_t k = 0; k < obs::kNumHealthKinds; ++k)
      if (hr.warnings[k])
        std::printf("# health warning: %s x%llu\n",
                    obs::health_kind_name(static_cast<obs::HealthKind>(k)),
                    (unsigned long long)hr.warnings[k]);
  } else if (proc) {
    audits = proc->audit_stats().audits;
    violations = proc->audit_stats().violations;
    if (violations)
      std::printf("# last audit violation: %s\n",
                  proc->audit_stats().last_what.c_str());
  }

  // Observability exports before teardown-dependent reads.
  obs::MetricsRegistry& reg = eng->registry();
  const Histogram stall = reg.merged_hist(obs::Hist::kMutatorStallUs);
  const std::uint64_t tele_dropped =
      reg.total(obs::Counter::kTelemetryDropped);
  std::uint64_t workers_lost = 0, recoveries = 0, relayed_frames = 0;
  std::uint32_t workers_live = 0;
  if (proc) {
    const ProcEngineStats ps = proc->stats();
    workers_lost = ps.workers_lost;
    recoveries = ps.recoveries;
    relayed_frames = ps.transport.frames_relayed;
    workers_live = proc->workers_live();
  }
  if (tracing) {
    std::vector<obs::TraceEvent> events = eng->trace()->snapshot();
    std::vector<std::vector<obs::TraceEvent>> wtr;
    if (proc) wtr = proc->worker_traces();
    if (trace_path)
      write_file(trace_path,
                 proc ? obs::to_chrome_trace_cluster(events, wtr,
                                                     graph.num_pes())
                      : obs::to_chrome_trace(events, graph.num_pes()));
    if (jsonl_path) {
      for (const auto& w : wtr) events.insert(events.end(), w.begin(), w.end());
      std::stable_sort(events.begin(), events.end(),
                       [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                         return a.ts < b.ts;
                       });
      write_file(jsonl_path, obs::to_jsonl(events));
    }
  }
  if (metrics_path)
    write_file(metrics_path, (proc ? proc->cluster_metrics_json()
                                   : reg.to_json()) +
                                 "\n");

  if (thr) thr->stop();
  if (proc) proc->stop();

  std::uint64_t leaked = 0;
  for (PeId pe = 0; pe < graph.num_pes(); ++pe) {
    const std::size_t live = live_non_aux(pe);
    if (live > baseline[pe]) leaked += live - baseline[pe];
  }

  const workload::SoakTotals& tot = drv.totals();
  const std::uint64_t stall_total_us =
      reg.total(obs::Counter::kMutatorStallIdleUs) +
      reg.total(obs::Counter::kMutatorStallMarkUs) +
      reg.total(obs::Counter::kMutatorStallQuiesceUs);

  // Coverage floor: each configured subject must have been reached.
  bool uncovered = false;
  const struct {
    const char* kind;
    double p;
    obs::Counter injected;
  } fault_kinds[] = {
      {"drop", net.faults.spec.drop, obs::Counter::kMsgDroppedInjected},
      {"dup", net.faults.spec.duplicate, obs::Counter::kMsgDupInjected},
      {"reorder", net.faults.spec.reorder, obs::Counter::kMsgReorderedInjected},
      {"trunc", net.faults.spec.truncate, obs::Counter::kMsgTruncatedInjected},
  };
  for (const auto& f : fault_kinds) {
    if (f.p > 0.0 && reg.total(f.injected) == 0) {
      std::printf("# coverage: fault kind %s has probability %g but was "
                  "never injected\n",
                  f.kind, f.p);
      uncovered = true;
    }
  }
  // The standing root set's cross-PE edges cost a remote mark and its
  // return per cycle whatever the workload does, as do M_T's per-PE task
  // roots under --detect-deadlock; only traffic beyond that fan-out shows
  // marking crossed a PE.
  const std::uint64_t fan_out =
      2ull * tot.cycles *
      (drv.cross_pe_root_edges() + (detect ? wopt.pes - 1 : 0));
  if (thr && wopt.pes >= 2 &&
      reg.total(obs::Counter::kRemoteMessages) <= fan_out) {
    std::printf("# coverage: %u PEs but no remote message beyond the root "
                "fan-out (%llu)\n",
                wopt.pes, (unsigned long long)fan_out);
    uncovered = true;
  }
  if (proc && workers >= 2 && relayed_frames == 0) {
    std::printf("# coverage: %u workers but the hub relayed no frame\n",
                workers);
    uncovered = true;
  }

  int rc = 0;
  if (violations || tot.divergence || tele_dropped || leaked || lingering ||
      uncovered)
    rc = 1;
  if (health_fatal && warnings) rc = rc ? rc : 1;
  if (worker_died) rc = 5;
  if (kill_worker != kAnyWorkerIndex && !worker_died) {
    if (workers_lost == 0) {
      std::printf("# chaos: kill did not register as a worker loss\n");
      rc = 6;
    } else if (recoveries == 0) {
      std::printf("# chaos: loss registered but no recovery ran\n");
      rc = 6;
    }
  }

  std::string out = "{";
  out += "\"engine\":\"";
  out += eng->name();
  out += "\",";
  append_kv(out, "seed", base_seed);
  append_kv(out, "pes", static_cast<std::uint64_t>(wopt.pes));
  append_kv(out, "epochs", static_cast<std::uint64_t>(epochs_run));
  append_kv(out, "ticks_per_epoch", static_cast<std::uint64_t>(wopt.ticks));
  append_kv(out, "elapsed_s", wall_s);
  append_kv(out, "sessions_opened", tot.opened);
  append_kv(out, "sessions_closed", tot.closed);
  append_kv(out, "sessions_rejected", tot.rejected);
  append_kv(out, "churn_ops", tot.churn);
  append_kv(out, "mutator_ops", tot.mutator_ops);
  append_kv(out, "cycles", tot.cycles);
  append_kv(out, "sessions_per_sec",
            wall_s > 0.0 ? static_cast<double>(tot.closed) / wall_s : 0.0);
  out += "\"stall_us\":{";
  append_kv(out, "count", stall.count());
  append_kv(out, "p50", stall.percentile(50));
  append_kv(out, "p99", stall.percentile(99));
  append_kv(out, "p999", stall.percentile(99.9));
  append_kv(out, "max", stall.max_value(), false);
  out += "},\"stall_attribution_us\":{";
  append_kv(out, "total", stall_total_us);
  append_kv(out, "idle", reg.total(obs::Counter::kMutatorStallIdleUs));
  append_kv(out, "mark", reg.total(obs::Counter::kMutatorStallMarkUs));
  append_kv(out, "quiesce", reg.total(obs::Counter::kMutatorStallQuiesceUs),
            false);
  out += "},";
  append_kv(out, "audits", audits);
  append_kv(out, "audit_violations", violations);
  append_kv(out, "health_warnings", warnings);
  append_kv(out, "telemetry_dropped", tele_dropped);
  append_kv(out, "divergence", tot.divergence);
  append_kv(out, "leaked_slots", leaked);
  append_kv(out, "lingering_sessions", lingering);
  append_kv(out, "workers_lost", workers_lost);
  append_kv(out, "recoveries", recoveries);
  append_kv(out, "workers_live", static_cast<std::uint64_t>(workers_live));
  out += "\"ok\":";
  out += rc == 0 ? "true" : "false";
  out += "}\n";
  if (report_path)
    write_file(report_path, out);
  else
    std::fputs(out.c_str(), stdout);
  return rc;
}
