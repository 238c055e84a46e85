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
//   --stats [N]      print machine/engine statistics; with a numeric N, also
//                    print a live one-line health rollup every N audit
//                    cycles (marks/s, remote share, retransmits, worker
//                    liveness, telemetry drops)
//   --stats-jsonl FILE  append the health rollup as JSONL rows (machine
//                    form of --stats N; implies a period of 1 if none given)
//   --trace FILE     write a Chrome trace_event file (implies --gc; load in
//                    chrome://tracing or https://ui.perfetto.dev)
//   --trace-jsonl FILE  write the raw trace as deterministic JSONL
//   --metrics FILE   write the per-PE metrics registry as JSON
//   --audit N        online health auditing: paranoid sweep cross-checks
//                    during evaluation (implies --gc), then a post-evaluation
//                    ThreadEngine phase over the evaluated graph running
//                    safe-point audits (§5.4.1 invariants + Property 1
//                    accounting) every Nth cycle, with the stall watchdog
//                    armed
//   --audit-cycles K number of threaded audit cycles to run (default 50)
//   --health-fatal   exit nonzero if any audit violation or health warning
//                    was recorded (CI hook)
//   --wedge-steps N  with --gc: declare evaluation wedged after N sim steps
//                    of zero reduction progress (default 200000)
//   --fault-drop P   inject message faults into the threaded audit phase:
//   --fault-dup P    per-message probabilities of drop / duplicate /
//   --fault-reorder P  reorder / truncate on every directed PE pair. Any
//   --fault-trunc P  nonzero probability activates the fault plane plus the
//                    reliable channel (exactly-once recovery) and implies
//                    --audit 1 unless --audit was given (docs/FAULTS.md)
//   --fault-seed S   fault-schedule seed (default 1; deterministic per pair)
//   --batch-bytes N  audit phase: coalesce outgoing messages per directed
//                    PE pair into batches of up to N bytes, on the threaded
//                    mailbox path and in the reliable channel's frames (the
//                    workers' too) (default 4096; see docs/PERF.md). 0
//                    sends each message as its own mailbox delivery or
//                    reliable-channel frame (acks stay deferred or
//                    piggybacked)
//   --batch-us U     flush a partial batch once its oldest message is U
//                    microseconds old (default 100)
//   --partition P    instance-vertex placement: scatter (default; each
//                    template node round-robins across PEs), home (all on
//                    the caller's PE), chunk/greedy (one PE per
//                    instantiation — the streaming greedy partitioner)
//   --workers N      run the audit phase on N real worker processes instead
//                    of in-process threads: the controller stays here, forks
//                    N dgr_worker processes, hands each its graph partition
//                    over the socket transport, and merges their mark
//                    reports (implies --audit 1; see docs/CLUSTER.md).
//                    --fault-* flags compose: the fault plane then runs
//                    over the socket on worker<->worker mark traffic
//   --worker-bin P   path to the dgr_worker binary (default: $DGR_WORKER_BIN,
//                    then "dgr_worker" on $PATH)
//   --transport T    worker transport: uds (default) or tcp (loopback)
//
// With --audit, any --trace/--trace-jsonl/--metrics also writes the audit
// phase's own exports next to the sim phase's, as "<path>.audit.json[l]"
// (those carry the fault_injected / retransmit events dgr_analyze rolls up).
//
// With --workers N the primary --trace/--trace-jsonl/--metrics paths carry
// the CLUSTER view of the multi-process phase: the Chrome trace merges the
// controller and every worker into one timeline (pid 0 = controller, pid
// w+1 = worker w; worker timestamps rebased onto the controller clock), the
// JSONL holds the same merged stream, and the metrics JSON is the merged
// registry plus a per-worker "workers":[...] rollup. The sim phase's own
// exports move to "<path>.sim.json[l]" (docs/OBSERVABILITY.md).
#include <signal.h>

#include <algorithm>
#include <cctype>
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
#include "runtime/proc_engine.h"
#include "runtime/sim_engine.h"
#include "runtime/thread_engine.h"

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
  bool health_fatal = false;
  std::uint32_t audit_period = 0;
  std::uint32_t audit_cycles = 50;
  std::uint64_t wedge_steps = 200000;
  std::uint32_t latency = 0;
  std::uint32_t workers = 0;
  const char* worker_bin = nullptr;
  bool worker_tcp = false;
  // Chaos leg: SIGKILL worker W right after cycle C starts ("W@C"; bare "W"
  // kills at the midpoint of --audit-cycles). The run is then REQUIRED to
  // survive — recover onto the remaining workers and keep auditing clean.
  std::uint32_t kill_worker = kAnyWorkerIndex;
  std::uint32_t kill_cycle = 0;
  Placement placement = Placement::kScatter;
  NetOptions net;
  const char* trace_path = nullptr;
  const char* jsonl_path = nullptr;
  const char* metrics_path = nullptr;
  std::uint32_t stats_period = 0;
  const char* stats_jsonl_path = nullptr;
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
      // Optional numeric argument: health-rollup period in audit cycles.
      if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[i + 1][0])))
        stats_period = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--stats-jsonl") && i + 1 < argc) {
      stats_jsonl_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--audit") && i + 1 < argc) {
      audit_period = static_cast<std::uint32_t>(std::atoi(argv[++i]));
      gc = true;  // auditing is about the marking cycles
    } else if (!std::strcmp(argv[i], "--audit-cycles") && i + 1 < argc) {
      audit_cycles = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--health-fatal")) {
      health_fatal = true;
    } else if (!std::strcmp(argv[i], "--wedge-steps") && i + 1 < argc) {
      wedge_steps = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--fault-seed") && i + 1 < argc) {
      net.faults.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--fault-drop") && i + 1 < argc) {
      net.faults.spec.drop = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--fault-dup") && i + 1 < argc) {
      net.faults.spec.duplicate = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--fault-reorder") && i + 1 < argc) {
      net.faults.spec.reorder = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--fault-trunc") && i + 1 < argc) {
      net.faults.spec.truncate = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--batch-bytes") && i + 1 < argc) {
      net.reliable.batch_bytes =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--batch-us") && i + 1 < argc) {
      net.reliable.batch_flush_us =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (!std::strcmp(argv[i], "--partition") && i + 1 < argc) {
      if (!parse_placement(argv[++i], &placement)) {
        std::fprintf(stderr,
                     "dgr_run: --partition expects scatter|home|chunk|greedy "
                     "(got '%s')\n",
                     argv[i]);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
      workers = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--worker-bin") && i + 1 < argc) {
      worker_bin = argv[++i];
    } else if (!std::strcmp(argv[i], "--kill-worker") && i + 1 < argc) {
      ++i;
      unsigned w = 0, c = 0;
      if (std::sscanf(argv[i], "%u@%u", &w, &c) == 2) {
        kill_worker = w;
        kill_cycle = c;
      } else if (std::sscanf(argv[i], "%u", &w) == 1) {
        kill_worker = w;  // kill_cycle 0 = midpoint, resolved below
      } else {
        std::fprintf(stderr,
                     "dgr_run: --kill-worker expects W or W@CYCLE (got '%s')\n",
                     argv[i]);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--transport") && i + 1 < argc) {
      ++i;
      if (!std::strcmp(argv[i], "tcp")) {
        worker_tcp = true;
      } else if (!std::strcmp(argv[i], "uds")) {
        worker_tcp = false;
      } else {
        std::fprintf(stderr, "dgr_run: --transport expects uds|tcp (got '%s')\n",
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
  if (stats_jsonl_path && stats_period == 0) stats_period = 1;
  if (stats_period && audit_period == 0) {
    // The rollup samples at the audit-cycle boundary; arm the audit phase.
    gc = true;
    audit_period = 1;
  }
  if (net.faults.spec.any() || workers > 0) {
    // Faults and multi-process runs exercise the audit phase; make sure it
    // runs, auditing every cycle unless the user chose a coarser period.
    gc = true;
    if (audit_period == 0) audit_period = 1;
  }
  if (kill_worker != kAnyWorkerIndex) {
    if (workers < 2 || kill_worker >= workers) {
      std::fprintf(stderr,
                   "dgr_run: --kill-worker needs --workers >= 2 and a valid "
                   "worker index (survivors must exist)\n");
      return 2;
    }
    if (kill_cycle == 0) kill_cycle = audit_cycles / 2 ? audit_cycles / 2 : 1;
  }
  if (!path) {
    std::fprintf(stderr,
                 "usage: dgr_run [--pes N] [--seed S] [--speculate] [--gc] "
                 "[--detect-deadlock] [--stats [N]] [--stats-jsonl FILE] "
                 "[--trace FILE] "
                 "[--trace-jsonl FILE] [--metrics FILE] [--audit N] "
                 "[--audit-cycles K] [--health-fatal] [--fault-seed S] "
                 "[--fault-drop P] [--fault-dup P] [--fault-reorder P] "
                 "[--fault-trunc P] [--batch-bytes N] [--batch-us U] "
                 "[--partition P] [--workers N] [--worker-bin PATH] "
                 "[--transport uds|tcp] [--kill-worker W[@CYCLE]] <file|->\n");
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
  if (audit_period) engine.controller().set_paranoid_sweep_check(true);
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
  // In multi-process mode the primary export paths carry the merged cluster
  // view of the audit phase; the sim phase's own exports step aside.
  const bool proc_mode = audit_period && workers > 0;
  if (trace_path || jsonl_path) {
    const std::vector<obs::TraceEvent> events = engine.trace()->snapshot();
    if (trace_path)
      write_file(proc_mode ? std::string(trace_path) + ".sim.json"
                           : std::string(trace_path),
                 obs::to_chrome_trace(events, graph.num_pes()));
    if (jsonl_path)
      write_file(proc_mode ? std::string(jsonl_path) + ".sim.jsonl"
                           : std::string(jsonl_path),
                 obs::to_jsonl(events));
  }
  if (metrics_path)
    write_file(proc_mode ? std::string(metrics_path) + ".sim.json"
                         : std::string(metrics_path),
               engine.metrics_registry().to_json() + "\n");

  if (audit_period && workers > 0) {
    // Multi-process audit phase: same safe-point audits over the evaluated
    // graph, but the marking waves run on forked dgr_worker processes. The
    // controller stays here, hands each worker its graph partition over the
    // socket transport, and merges their mark reports at every quiesce
    // barrier (docs/CLUSTER.md). Any --fault-* flags apply to the workers'
    // own message planes, so the fault plane rides over the socket.
    ProcOptions popt;
    popt.workers = workers;
    popt.tcp = worker_tcp;
    if (worker_bin) popt.worker_bin = worker_bin;
    popt.net = net;
    ProcEngine peng(graph, popt);
    peng.set_root(root);
    // Epoch hand-off, as in the threaded phase: the sim marker left
    // per-vertex tags that a marker restarting at epoch 1 would alias.
    peng.marker().seed_epoch(Plane::kR, engine.marker().epoch(Plane::kR));
    peng.marker().seed_epoch(Plane::kT, engine.marker().epoch(Plane::kT));
    AuditOptions aopt;
    aopt.period = audit_period;
    peng.enable_audit(aopt);
    if (trace_path || jsonl_path) peng.enable_trace();
    peng.start();
    obs::HealthEmitter health("dgr_run", stats_period, stats_jsonl_path);
    for (std::uint32_t i = 0; i < audit_cycles && !peng.failed(); ++i) {
      // start_cycle (not controller().start_cycle): the engine wrapper
      // excludes a concurrent membership recovery from racing the cycle's
      // task-root construction.
      peng.start_cycle(CycleOptions{detect});
      if (kill_worker != kAnyWorkerIndex && i + 1 == kill_cycle) {
        // Chaos: SIGKILL the victim mid-wave. The controller must detect
        // the loss (socket EOF or barrier watchdog), repartition onto the
        // survivors, and resume from the last completed quiesce.
        const long pid = peng.worker_pid(kill_worker);
        if (pid > 0) {
          std::printf("# chaos: killing worker %u (pid %ld) in cycle %u\n",
                      kill_worker, pid, i + 1);
          ::kill(static_cast<pid_t>(pid), SIGKILL);
        }
      }
      peng.wait_cycle_done();
      health.on_cycle(peng.metrics(), i + 1, peng.workers_live(),
                      peng.num_workers());
    }
    const bool worker_died = peng.failed();
    peng.stop();
    // Cluster observability on the PRIMARY paths: one Chrome trace merging
    // the controller (pid 0) with every worker (pid w+1), worker timestamps
    // rebased onto the controller clock; the JSONL is the same merged
    // stream; the metrics JSON is the merged registry plus the per-worker
    // rollup dgr_analyze's cluster section reads.
    if (trace_path || jsonl_path) {
      const std::vector<obs::TraceEvent> ctrl = peng.trace()->snapshot();
      const std::vector<std::vector<obs::TraceEvent>> wtr =
          peng.worker_traces();
      if (trace_path)
        write_file(trace_path,
                   obs::to_chrome_trace_cluster(ctrl, wtr, graph.num_pes()));
      if (jsonl_path) {
        std::vector<obs::TraceEvent> merged = ctrl;
        for (const auto& w : wtr) merged.insert(merged.end(), w.begin(), w.end());
        std::stable_sort(merged.begin(), merged.end(),
                         [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                           return a.ts < b.ts;
                         });
        write_file(jsonl_path, obs::to_jsonl(merged));
      }
    }
    if (metrics_path)
      write_file(metrics_path, peng.cluster_metrics_json() + "\n");
    const AuditStats& as = peng.audit_stats();
    const ProcEngineStats ps = peng.stats();
    std::printf("# proc audit: %llu safe-point audits, %llu violations; "
                "workers: %u\n",
                (unsigned long long)as.audits,
                (unsigned long long)as.violations, peng.num_workers());
    if (as.violations)
      std::printf("# last audit violation: %s\n", as.last_what.c_str());
    std::printf(
        "# transport: frames=%llu sent / %llu received, bytes=%llu/%llu, "
        "accepts=%llu reconnects=%llu partial_resumes=%llu\n",
        (unsigned long long)ps.transport.frames_sent,
        (unsigned long long)ps.transport.frames_received,
        (unsigned long long)ps.transport.bytes_sent,
        (unsigned long long)ps.transport.bytes_received,
        (unsigned long long)ps.transport.accepts,
        (unsigned long long)ps.transport.reconnects,
        (unsigned long long)ps.transport.partial_read_resumes);
    std::printf(
        "# relay: frames=%llu bytes=%llu | telemetry: msgs=%llu dropped=%llu\n",
        (unsigned long long)ps.transport.frames_relayed,
        (unsigned long long)ps.transport.bytes_relayed,
        (unsigned long long)peng.metrics().total(obs::Counter::kTelemetryMsgs),
        (unsigned long long)peng.metrics().total(
            obs::Counter::kTelemetryDropped));
    std::printf("# clock offsets (us, worker minus controller):");
    for (std::uint32_t w = 0; w < peng.num_workers(); ++w)
      std::printf(" w%u=%lld(rtt %llu)", w, (long long)peng.clock_offset_us(w),
                  (unsigned long long)peng.clock_rtt_us(w));
    std::printf("\n");
    std::printf(
        "# protocol: planes=%llu handoffs=%llu (%llu bytes) seeds=%llu "
        "rescue_begins=%llu reports_merged=%llu\n",
        (unsigned long long)ps.planes_started,
        (unsigned long long)ps.handoffs_sent,
        (unsigned long long)ps.handoff_bytes,
        (unsigned long long)ps.seeds_sent,
        (unsigned long long)ps.rescue_begins,
        (unsigned long long)ps.reports_merged);
    std::printf(
        "# handoffs: full=%llu (%llu bytes) delta=%llu (%llu bytes)\n",
        (unsigned long long)ps.handoffs_full,
        (unsigned long long)ps.handoff_full_bytes,
        (unsigned long long)ps.handoffs_delta,
        (unsigned long long)ps.handoff_delta_bytes);
    std::printf(
        "# membership: gen=%u lost=%llu pes_reassigned=%llu resyncs=%llu "
        "recoveries=%llu live=%u/%u\n",
        (unsigned)peng.membership_gen(), (unsigned long long)ps.workers_lost,
        (unsigned long long)ps.partitions_reassigned,
        (unsigned long long)ps.handoff_resyncs,
        (unsigned long long)ps.recoveries, peng.workers_live(),
        peng.num_workers());
    if (worker_died) {
      std::printf("# proc audit: every worker process died mid-run\n");
      rc = rc ? rc : 5;
    }
    if (kill_worker != kAnyWorkerIndex) {
      // The chaos gate: the kill must have registered as a membership loss
      // AND the run must have recovered (repartitioned, restarted, and kept
      // auditing) rather than failing outright.
      if (ps.workers_lost == 0) {
        std::printf("# chaos: kill did not register as a worker loss\n");
        rc = rc ? rc : 6;
      } else if (ps.recoveries == 0) {
        std::printf("# chaos: loss registered but no recovery ran\n");
        rc = rc ? rc : 6;
      }
    }
    if (health_fatal && as.violations) rc = rc ? rc : 4;
  } else if (audit_period) {
    // Post-evaluation auditing phase: hand the evaluated graph to the
    // threaded engine and run continuous marking cycles over it with
    // safe-point audits every `audit_period` cycles and the stall watchdog
    // armed. The first cycle sweeps whatever garbage evaluation left; later
    // cycles exercise the steady state (§5.4.1 invariants must hold at every
    // quiesce point, and each sweep must free exactly GAR' — Property 1).
    ThreadEngine teng(graph, net);
    teng.set_root(root);
    // Slot vectors must never reallocate under the PE threads; start()
    // mints the aux roots the audit cycles need before they run.
    for (PeId pe = 0; pe < graph.num_pes(); ++pe)
      graph.store(pe).set_fixed_capacity(true);
    // Epoch hand-off: the sim marker left per-vertex tags on this graph; a
    // fresh marker restarting at epoch 1 would alias them as current.
    teng.marker().seed_epoch(Plane::kR, engine.marker().epoch(Plane::kR));
    teng.marker().seed_epoch(Plane::kT, engine.marker().epoch(Plane::kT));
    AuditOptions aopt;
    aopt.period = audit_period;
    teng.enable_audit(aopt);
    teng.enable_watchdog();
    if (trace_path || jsonl_path) teng.enable_trace();
    teng.start();
    obs::HealthEmitter health("dgr_run", stats_period, stats_jsonl_path);
    for (std::uint32_t i = 0; i < audit_cycles; ++i) {
      teng.controller().start_cycle(CycleOptions{detect});
      teng.wait_cycle_done();
      health.on_cycle(teng.metrics_registry(), i + 1, 0, 0);
    }
    teng.stop();
    // The audit phase's own observability, next to (not over) the sim
    // phase's files: "<path>.audit[.json|l]". The JSONL feeds dgr_analyze's
    // fault/retransmit rollup (docs/FAULTS.md).
    if (trace_path || jsonl_path) {
      const std::vector<obs::TraceEvent> ev = teng.trace()->snapshot();
      if (trace_path)
        write_file(std::string(trace_path) + ".audit.json",
                   obs::to_chrome_trace(ev, graph.num_pes()));
      if (jsonl_path)
        write_file(std::string(jsonl_path) + ".audit.jsonl",
                   obs::to_jsonl(ev));
    }
    if (metrics_path)
      write_file(std::string(metrics_path) + ".audit.json",
                 teng.metrics_registry().to_json() + "\n");
    const AuditStats& as = teng.audit_stats();
    const HealthReport hr = teng.health();
    std::printf("# audit: %llu safe-point audits, %llu violations; "
                "health: %llu warnings\n",
                (unsigned long long)as.audits,
                (unsigned long long)as.violations,
                (unsigned long long)hr.total());
    if (as.violations)
      std::printf("# last audit violation: %s\n", as.last_what.c_str());
    if (const FaultPlane* fp = teng.fault_plane()) {
      const FaultPlane::Stats fs = fp->stats();
      const ChannelManager::Stats cs = teng.channels()->stats();
      std::printf(
          "# faults: dropped=%llu dup=%llu reordered=%llu truncated=%llu | "
          "retransmits=%llu dup_suppressed=%llu delivered=%llu unacked=%llu\n",
          (unsigned long long)fs.injected[0], (unsigned long long)fs.injected[1],
          (unsigned long long)fs.injected[2], (unsigned long long)fs.injected[3],
          (unsigned long long)cs.retransmits,
          (unsigned long long)cs.dup_suppressed,
          (unsigned long long)cs.delivered, (unsigned long long)cs.unacked);
    }
    for (std::size_t k = 0; k < obs::kNumHealthKinds; ++k)
      if (hr.warnings[k])
        std::printf("# health warning: %s x%llu\n",
                    obs::health_kind_name(static_cast<obs::HealthKind>(k)),
                    (unsigned long long)hr.warnings[k]);
    if (health_fatal && (as.violations || hr.total())) rc = rc ? rc : 4;
  }
  return rc;
}
