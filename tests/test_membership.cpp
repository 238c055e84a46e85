// Dynamic cluster membership (docs/CLUSTER.md "Membership and failure
// model"): worker loss in every phase the protocol distinguishes — idle,
// mid-cycle, and silently wedged at the quiesce barrier — plus the
// differential-handoff contract (delta shrink on a stable graph, checksum
// resync on a diverged replica, generation fencing of a dead slot).
//
// These run real dgr_worker processes ($DGR_WORKER_BIN or PATH), like
// test_proc_engine; each test holds the post-recovery cluster to the
// sequential Oracle, because surviving is only half the contract — the
// survivors' sweep must still free exactly GAR'.
#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/builder.h"
#include "graph/oracle.h"
#include "net/frame.h"
#include "net/proto.h"
#include "net/socket.h"
#include "obs/analyze.h"
#include "runtime/proc_engine.h"
#include "util/rng.h"

namespace dgr {
namespace {

Graph make_presized(std::uint32_t pes, std::uint32_t cap) {
  Graph g(pes, cap);
  for (PeId pe = 0; pe < pes; ++pe) g.store(pe).set_fixed_capacity(true);
  return g;
}

struct RigParams {
  std::uint64_t seed = 3;
  std::uint32_t pes = 4;
  std::uint32_t capacity = 900;
  std::uint32_t vertices = 500;
  std::uint32_t tasks = 12;
};

// Same shape as test_proc_engine's rig: build a seeded graph, fork workers,
// run oracle-checked cycles. Kept local so the membership suite stands alone.
class Rig {
 public:
  Rig(const RigParams& rp, ProcOptions popt)
      : g_(make_presized(rp.pes, rp.capacity)), rng_(rp.seed * 31 + 7) {
    RandomGraphOptions opt;
    opt.num_vertices = rp.vertices;
    opt.seed = rp.seed;
    opt.num_tasks = rp.tasks;
    opt.p_detached = 0.3;
    b_ = build_random_graph(g_, opt);
    eng_ = std::make_unique<ProcEngine>(g_, popt);
    eng_->set_root(b_.root);
    for (const TaskRef& t : b_.tasks)
      eng_->inject(Task::request(t.s, t.d, ReqKind::kVital));
    eng_->start();
  }

  ~Rig() { eng_->stop(); }

  Graph& g() { return g_; }
  ProcEngine& eng() { return *eng_; }

  void churn(int ops) {
    for (int i = 0; i < ops; ++i) {
      VertexId v = b_.root;
      for (std::uint64_t j = rng_.below(8); j > 0; --j) {
        const Vertex& vx = g_.at(v);
        if (vx.args.empty()) break;
        const VertexId nxt = vx.args[rng_.below(vx.args.size())].to;
        if (!nxt.valid() || g_.is_free(nxt)) break;
        v = nxt;
      }
      const Vertex& vv = g_.at(v);
      if (vv.args.empty()) continue;
      const VertexId tgt = vv.args[rng_.below(vv.args.size())].to;
      eng_->atomically({v, tgt},
                       [&] { eng_->mutator().delete_reference(v, tgt); });
    }
  }

  void cycle_checked(bool detect_deadlock, int round) {
    std::vector<TaskRef> refs;
    eng_->collect_task_refs(refs);
    Oracle o(g_, b_.root, refs);
    std::size_t irrelevant = 0;
    for (const TaskRef& t : refs)
      if (o.classify(t) == TaskClass::kIrrelevant) ++irrelevant;

    CycleOptions copt;
    copt.detect_deadlock = detect_deadlock;
    eng_->start_cycle(copt);
    eng_->wait_cycle_done();
    ASSERT_FALSE(eng_->failed()) << "no survivors in round " << round;

    const CycleResult& res = eng_->controller().last();
    EXPECT_EQ(res.swept, o.count_GAR()) << "round " << round;
    EXPECT_EQ(res.expunged, irrelevant) << "round " << round;
    g_.for_each_live([&](VertexId v) {
      EXPECT_EQ(eng_->marker().is_marked(Plane::kR, v), o.in_R(v))
          << "R mark of (" << v.pe << "," << v.idx << ") round " << round;
      if (detect_deadlock) {
        EXPECT_EQ(eng_->marker().is_marked(Plane::kT, v), o.in_T(v))
            << "T mark of (" << v.pe << "," << v.idx << ") round " << round;
      }
    });
  }

  // Block until the hub reader noticed the loss and recovery finished.
  void wait_worker_dead(std::uint32_t w, int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (eng_->worker_alive(w) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_FALSE(eng_->worker_alive(w)) << "loss of worker " << w
                                        << " never registered";
    eng_->wait_quiescent();
  }

 private:
  Graph g_;
  Rng rng_;
  BuiltGraph b_;
  std::unique_ptr<ProcEngine> eng_;
};

// ---- Loss while idle: EOF path, then survivors marked exactly. ----

TEST(Membership, KillWhileIdleSurvivorsMatchOracle) {
  RigParams rp;
  ProcOptions popt;
  popt.workers = 3;
  Rig rig(rp, popt);
  rig.cycle_checked(/*detect_deadlock=*/true, 0);
  if (::testing::Test::HasFatalFailure()) return;

  const long pid = rig.eng().worker_pid(1);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);
  rig.wait_worker_dead(1);
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(rig.eng().workers_live(), 2u);
  EXPECT_GE(rig.eng().membership_gen(), 1u);
  const ProcEngineStats mid = rig.eng().stats();
  EXPECT_EQ(mid.workers_lost, 1u);
  EXPECT_GT(mid.partitions_reassigned, 0u);

  // Two more cycles on the survivors, oracle-exact, with mutation between.
  rig.cycle_checked(true, 1);
  if (::testing::Test::HasFatalFailure()) return;
  rig.churn(6);
  rig.cycle_checked(false, 2);
  if (::testing::Test::HasFatalFailure()) return;

  // Reports now merge per live worker, not per registered worker.
  const ProcEngineStats s = rig.eng().stats();
  EXPECT_GT(s.reports_merged, 0u);
  EXPECT_EQ(s.workers_lost, 1u);
}

// ---- Loss mid-cycle: the wave aborts, restarts on survivors, completes. --

TEST(Membership, KillMidCycleRestartsAndCompletes) {
  RigParams rp;
  rp.seed = 7;
  ProcOptions popt;
  popt.workers = 3;
  Rig rig(rp, popt);

  const long pid = rig.eng().worker_pid(2);
  ASSERT_GT(pid, 0);
  CycleOptions copt;
  copt.detect_deadlock = true;
  rig.eng().start_cycle(copt);
  // Kill while the wave is (very likely) in flight; if it already finished,
  // the idle path covers it — either way the cycle must complete unfailed.
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);
  rig.eng().wait_cycle_done();
  ASSERT_FALSE(rig.eng().failed());
  rig.wait_worker_dead(2);
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(rig.eng().stats().workers_lost, 1u);
  EXPECT_EQ(rig.eng().workers_live(), 2u);
  // The next cycle is fully checked against the oracle.
  rig.churn(4);
  rig.cycle_checked(true, 1);
}

// ---- Silent wedge: the quiesce-barrier watchdog surfaces it as a loss. --
//
// SIGSTOP does not close the socket, so the EOF path never fires; a worker
// dying between registration and its first mark report used to hang the
// barrier forever. The watchdog probes the silent worker after
// barrier_timeout_ms without control-plane progress and drops it after one
// more window.

TEST(Membership, BarrierWatchdogDropsStoppedWorker) {
  RigParams rp;
  rp.seed = 11;
  ProcOptions popt;
  popt.workers = 2;
  popt.barrier_timeout_ms = 400;
  Rig rig(rp, popt);

  const long pid = rig.eng().worker_pid(1);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGSTOP), 0);

  // The cycle stalls at the barrier until the watchdog declares the stopped
  // worker dead, then restarts on the survivor and completes.
  rig.cycle_checked(/*detect_deadlock=*/false, 0);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(rig.eng().stats().workers_lost, 1u);
  EXPECT_FALSE(rig.eng().worker_alive(1));
  EXPECT_EQ(rig.eng().workers_live(), 1u);
  // Reap: stop() SIGKILLs stragglers, and SIGKILL works on stopped processes.
}

// ---- Recovery placement: every survivor keeps at least one PE. ----
//
// The greedy placer co-locates PEs that share edges. When every PE pair
// shares edges, 4 PEs over 3 survivors (cap 2) fill two bins and would
// leave the third survivor owning nothing. Recovery must not idle it.

TEST(Membership, RecoveryLeavesNoSurvivorIdle) {
  RigParams rp;
  rp.seed = 23;
  ProcOptions popt;
  popt.workers = 4;
  Rig rig(rp, popt);
  std::size_t cross = 0;
  rig.g().for_each_live([&](VertexId v) {
    for (const ArgEdge& e : rig.g().at(v).args)
      if (e.to.valid() && e.to.pe != v.pe) ++cross;
  });
  ASSERT_GT(cross, 0u) << "the rig graph must mark across PEs";
  rig.cycle_checked(/*detect_deadlock=*/false, 0);
  if (::testing::Test::HasFatalFailure()) return;

  const long pid = rig.eng().worker_pid(1);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);
  rig.wait_worker_dead(1);
  if (::testing::Test::HasFatalFailure()) return;

  // Per-worker rows of the cluster rollup: "pe_count":N,"alive":true|false.
  const std::string full = rig.eng().cluster_metrics_json();
  const std::string json = full.substr(full.find("\"workers\":["));
  std::uint32_t live_rows = 0;
  for (std::size_t at = json.find("\"pe_count\":"); at != std::string::npos;
       at = json.find("\"pe_count\":", at + 1)) {
    const unsigned long pes = std::strtoul(json.c_str() + at + 11, nullptr, 10);
    const std::size_t alive = json.find("\"alive\":", at);
    ASSERT_NE(alive, std::string::npos) << json;
    if (json.compare(alive + 8, 4, "true") != 0) continue;
    ++live_rows;
    EXPECT_GE(pes, 1u) << "a live worker owns no PE: " << json;
  }
  EXPECT_EQ(live_rows, 3u) << json;
  EXPECT_GT(rig.eng().stats().partitions_reassigned, 0u);

  // dgr_analyze's cluster section reads the owned sets: the dead worker
  // holds none, and the survivors' sets partition the PEs.
  obs::TraceReport report = obs::analyze({});
  ASSERT_TRUE(obs::enrich_with_metrics_json(report, full));
  ASSERT_EQ(report.workers.size(), 4u);
  EXPECT_TRUE(report.workers[1].pes.empty()) << json;
  std::vector<std::uint32_t> all;
  for (const obs::WorkerRow& w : report.workers)
    all.insert(all.end(), w.pes.begin(), w.pes.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<std::uint32_t>{0, 1, 2, 3})) << json;

  rig.cycle_checked(true, 1);
  if (::testing::Test::HasFatalFailure()) return;
  rig.churn(6);
  rig.cycle_checked(false, 2);
}

// ---- Recovery placement: survivors keep their PEs; only the dead one's
// move. ----

TEST(Membership, OnlyTheDeadWorkersPesMove) {
  RigParams rp;
  rp.seed = 29;
  ProcOptions popt;
  popt.workers = 4;  // one PE each
  Rig rig(rp, popt);
  rig.cycle_checked(/*detect_deadlock=*/false, 0);
  if (::testing::Test::HasFatalFailure()) return;

  const long pid = rig.eng().worker_pid(2);
  ASSERT_GT(pid, 0);
  ::testing::internal::CaptureStderr();
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);
  rig.wait_worker_dead(2);
  const std::string log = ::testing::internal::GetCapturedStderr();
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(rig.eng().stats().partitions_reassigned, 1u);
  EXPECT_NE(log.find("PEs {2} reassigned"), std::string::npos) << log;
  obs::TraceReport report = obs::analyze({});
  ASSERT_TRUE(
      obs::enrich_with_metrics_json(report, rig.eng().cluster_metrics_json()));
  ASSERT_EQ(report.workers.size(), 4u);
  EXPECT_TRUE(report.workers[2].pes.empty());
  for (const std::uint32_t w : {0u, 1u, 3u}) {
    const std::vector<std::uint32_t>& pes = report.workers[w].pes;
    EXPECT_NE(std::find(pes.begin(), pes.end(), w), pes.end())
        << "worker " << w << " lost its own PE";
    EXPECT_LE(pes.size(), 2u) << "worker " << w;
  }

  rig.cycle_checked(true, 1);
  if (::testing::Test::HasFatalFailure()) return;
  rig.churn(6);
  rig.cycle_checked(false, 2);
}

// ---- Differential handoffs: stable graph => header-sized deltas. ----

TEST(Membership, DeltaHandoffsShrinkOnStableGraph) {
  RigParams rp;
  rp.seed = 13;
  ProcOptions popt;
  popt.workers = 2;
  Rig rig(rp, popt);
  // Cycle 1 ships full snapshots; with zero mutation afterwards every later
  // plane's handoff is a pure delta an order of magnitude smaller.
  for (int round = 0; round < 4; ++round) {
    rig.cycle_checked(false, round);
    if (::testing::Test::HasFatalFailure()) return;
  }
  const ProcEngineStats s = rig.eng().stats();
  ASSERT_GT(s.handoffs_full, 0u);
  ASSERT_GT(s.handoffs_delta, 0u);
  const double per_full =
      static_cast<double>(s.handoff_full_bytes) / s.handoffs_full;
  const double per_delta =
      static_cast<double>(s.handoff_delta_bytes) / s.handoffs_delta;
  EXPECT_LT(per_delta, 0.10 * per_full)
      << "avg delta " << per_delta << " B vs avg full " << per_full << " B";
  EXPECT_LT(s.handoff_delta_bytes, s.handoff_full_bytes)
      << "delta total at this fixed run length must stay under full total";
  EXPECT_EQ(s.handoff_resyncs, 0u);  // checksums agreed throughout
  EXPECT_EQ(s.workers_lost, 0u);
  // And the accounting partitions exactly.
  EXPECT_EQ(s.handoff_bytes, s.handoff_full_bytes + s.handoff_delta_bytes);
  EXPECT_EQ(s.handoffs_sent, s.handoffs_full + s.handoffs_delta);
}

// ---- Checksum handshake: a diverged replica forces a full resync. ----

TEST(Membership, CorruptReplicaForcesChecksumResync) {
  // DGR_TEST_CORRUPT_HANDOFF="1:2": worker 1 flips a structural bit in its
  // replica right after its 2nd handoff apply, so that handoff's ack nacks.
  // The controller must fence + force a full snapshot, and every checked
  // cycle must still be oracle-exact: the diverged replica never completes
  // a wave (ack precedes the mark report on the same FIFO).
  ASSERT_EQ(::setenv("DGR_TEST_CORRUPT_HANDOFF", "1:2", 1), 0);
  RigParams rp;
  rp.seed = 17;
  ProcOptions popt;
  popt.workers = 2;
  {
    Rig rig(rp, popt);
    for (int round = 0; round < 3; ++round) {
      rig.cycle_checked(round == 0, round);
      if (::testing::Test::HasFatalFailure()) break;
      rig.churn(3);
    }
    const ProcEngineStats s = rig.eng().stats();
    EXPECT_GE(s.handoff_resyncs, 1u);
    EXPECT_EQ(s.workers_lost, 0u);  // a resync is not a loss
    EXPECT_GE(rig.eng().membership_gen(), 1u);  // but it does fence
    EXPECT_EQ(rig.eng().workers_live(), 2u);
  }
  ASSERT_EQ(::unsetenv("DGR_TEST_CORRUPT_HANDOFF"), 0);
}

// ---- Generation fence: a dead worker's slot refuses re-registration. ----

TEST(Membership, DeadSlotRejectedAfterFence) {
  RigParams rp;
  rp.seed = 19;
  rp.vertices = 200;
  rp.capacity = 400;
  ProcOptions popt;
  popt.workers = 2;
  popt.tcp = true;  // dial the hub from the test over loopback
  Rig rig(rp, popt);

  const long pid = rig.eng().worker_pid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGKILL), 0);
  rig.wait_worker_dead(0);
  if (::testing::Test::HasFatalFailure()) return;

  // A late reconnect into the fenced slot must be refused: its partition
  // was already reassigned, and a zombie replica marking it would violate
  // the single-owner invariant.
  SocketAddr addr;
  ASSERT_TRUE(SocketAddr::parse(rig.eng().address(), addr));
  Socket s = socket_connect(addr, 2000);
  ASSERT_TRUE(s.valid());
  RegisterMsg reg;
  reg.proto_version = kProtoVersion;
  reg.worker_index = 0;
  reg.flags = kRegisterFlagReconnect;
  NetFrame rf;
  rf.type = FrameType::kRegister;
  rf.payload = encode_register(reg);
  const auto wire = encode_frame(rf);
  ASSERT_TRUE(s.write_all(wire.data(), wire.size()));

  FrameCodec c;
  std::uint8_t buf[4096];
  NetFrame reply;
  while (!c.next(reply)) {
    const long n = s.read_some(buf, sizeof(buf));
    ASSERT_GT(n, 0) << "hub closed without a reject frame";
    c.feed(buf, static_cast<std::size_t>(n));
  }
  ASSERT_EQ(reply.type, FrameType::kReject);
  RejectMsg rej;
  ASSERT_TRUE(decode_reject(reply.payload, rej));
  EXPECT_EQ(rej.code, 4u);  // "worker slot fenced after loss"

  // The cluster itself is unbothered: the survivor still passes a cycle.
  rig.cycle_checked(false, 1);
}

}  // namespace
}  // namespace dgr
