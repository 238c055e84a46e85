// The marking-cycle controller (Hudak §4, §5, §6).
//
// Drives the endless cycle the paper prescribes:
//
//   [optionally M_T]  →  M_R  →  restructuring phase
//
// M_T must run BEFORE M_R for deadlock detection to be sound (Theorem 2's
// proof depends on it), and because M_T is only needed for deadlock it can be
// run only occasionally (§6: "our approach is to execute M_T only
// occasionally").
//
// The restructuring phase is left open by the paper ("tailored to a
// particular system", §4); ours performs, per DESIGN.md §5:
//   (a) sweep: unmarked_R live vertices → the owner's free list (Property 1),
//   (b) expunge: pooled/in-flight reduction tasks with d ∈ GAR' (Property 6),
//   (c) reprioritize: pooled task priority := prior(d) (Properties 3-5),
//   (d) report deadlocked vertices R'_v − T' (Property 2').
// (b) and (c) are one pass over the task population, decided per
// destination and made before (a); (d), (a)'s garbage scan and the reset of
// the stale-waiter lists are one pass over the store.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/marker.h"
#include "core/task.h"

namespace dgr {

struct CycleOptions {
  bool detect_deadlock = true;  // run M_T before M_R
};

struct CycleResult {
  std::uint64_t cycle = 0;
  bool ran_mt = false;
  // False when mutator cooperation had to taint the T plane; deadlock
  // reporting is skipped for such a cycle (it retries next time).
  bool deadlock_report_valid = false;
  std::size_t swept = 0;          // vertices returned to F
  std::size_t expunged = 0;       // irrelevant tasks deleted
  std::size_t reprioritized = 0;  // pooled tasks re-prioritized
  std::vector<VertexId> deadlocked;  // DL'_v members
  MarkStats stats_r;
  MarkStats stats_t;
};

// One endpoint of an unexecuted reduction task, with the PE whose taskroot
// takes it: the PE owning the task's destination, where it pools or will
// execute.
struct TaskEndpoint {
  PeId pool = 0;
  VertexId v;
};

// What the controller needs from the engine: access to the task population
// (pools plus in-transit messages) and a quiescence fence for the brief
// restructuring phase (a no-op in the simulator; a short barrier in the
// threaded engine — the paper requires only the MARK phase be concurrent).
class EngineHooks {
 public:
  virtual ~EngineHooks() = default;

  // Append the endpoints of every unexecuted reduction task, pooled and in
  // transit: the §5.2 sets args(taskroot_i). Repeats, invalid sources and
  // dead vertices may appear; the controller drops them. This is the
  // in-transit accounting the paper defers to [5].
  virtual void collect_task_endpoints(std::vector<TaskEndpoint>& out) = 0;

  // The task half of restructuring, decided per destination d (IRR' and the
  // task classes depend on d alone, Properties 3-6): delete every reduction
  // task with kill(d) (expunge), and set each survivor's pool priority to
  // prio(d) (reprioritize). Both counts in the result are per task.
  virtual TaskRestructure restructure_tasks(
      const std::function<bool(VertexId)>& kill,
      const std::function<std::uint8_t(VertexId)>& prio) = 0;

  virtual void quiesce_begin() {}
  virtual void quiesce_end() {}
  virtual void on_cycle_complete(const CycleResult&) {}

  // A marking plane is about to begin: the graph is final for this wave
  // (task roots built, uroot refreshed) but the plane epoch has not yet been
  // bumped and no seed has been spawned. A distributed engine ships its
  // partition handoff from here.
  virtual void on_plane_begin(Plane) {}
};

class Controller {
 public:
  Controller(Graph& g, Marker& marker, EngineHooks& hooks, VertexId root);

  void set_root(VertexId root) { roots_.assign(1, root); }
  VertexId root() const { return roots_.empty() ? VertexId::invalid() : roots_[0]; }

  // Multi-user operation (§3.1 footnote): several independent computations,
  // each with its own root, share the PEs and the collector. M_R marks from
  // an auxiliary "user root" whose args are all the roots (vitally — every
  // user's answer is essential); deadlock reports then cover each user's
  // region independently.
  void set_roots(std::vector<VertexId> roots) { roots_ = std::move(roots); }
  const std::vector<VertexId>& roots() const { return roots_; }

  // Kick off a cycle; phases advance via the marker's done callback, i.e.
  // entirely from within task executions — there is no central polling.
  void start_cycle(const CycleOptions& opt = {});

  // Abandon the in-flight cycle without restructuring: both planes are
  // force-ended (their epoch-tagged marks become semantically void) and the
  // phase returns to idle. No hooks fire and nothing is swept — the caller
  // is expected to start_cycle() again once the world is consistent. Used by
  // the distributed engine when a worker is lost mid-wave. No-op when idle.
  void abort_cycle();

  // The options the in-flight (or most recent) cycle was started with —
  // what a recovery restart should re-run.
  const CycleOptions& current_options() const { return opt_; }

  bool idle() const { return phase_.load(std::memory_order_acquire) == Phase::kIdle; }

  // Deferred restructuring for the threaded engine: with this on, the final
  // plane's completion parks the cycle in a "restructure due" state instead
  // of restructuring inline (the completing task still holds its vertex
  // lock; restructuring must run lock-free). The engine then calls
  // run_restructure() from a clean context.
  void set_deferred_restructure(bool on) { defer_restructure_ = on; }
  bool restructure_due() const {
    return phase_.load(std::memory_order_acquire) == Phase::kRestructureDue;
  }
  void run_restructure();

  // When continuous, a new cycle starts as soon as one finishes — the
  // paper's "this cycle is repeated endlessly".
  void set_continuous(bool on, CycleOptions opt = {}) {
    continuous_ = on;
    continuous_opt_ = opt;
  }

  // Observer invoked at the end of every cycle (after restructuring),
  // in addition to EngineHooks::on_cycle_complete.
  void set_cycle_observer(std::function<void(const CycleResult&)> fn) {
    observer_ = std::move(fn);
  }

  // Debug: cross-check every sweep against the sequential oracle (O(V+E)
  // per cycle); aborts on the first reachable vertex about to be freed.
  void set_paranoid_sweep_check(bool on) { paranoid_ = on; }

  // Create the auxiliary roots (per-PE taskroots, troot, uroot, the
  // marker's rescue roots) up front. ThreadEngine::start() calls it before
  // any PE thread runs: aux roots are otherwise allocated lazily during a
  // cycle, on whichever PE thread ends M_T or a wave, while mutator threads
  // allocate from the same store. The uroot is minted even for a single
  // root, since set_roots may add more while PE threads run.
  // SessionDriver::setup() calls it too, for its sim and proc replicas.
  void prewarm_aux_roots();

  // Observability: emit cycle / phase / restructuring events into `t`
  // (nullptr disables). Engines wire this together with the marker's and
  // mutator's sinks via enable_trace().
  void set_trace(obs::TraceBuffer* t) { trace_ = t; }

  // The effective M_R root: the single user root, or the aux uroot fanning
  // out to all of them (refreshed to the live roots on each call). External
  // differential rigs hand this to the sequential Oracle so multi-root
  // workloads get the same reachability the marker sees.
  VertexId marking_root();

  const CycleResult& last() const { return last_; }
  // Atomic: sampled by the ThreadEngine watchdog while cycles run.
  std::uint64_t cycles_completed() const {
    return cycles_.load(std::memory_order_acquire);
  }
  std::uint64_t total_swept() const { return total_swept_; }
  std::uint64_t total_expunged() const { return total_expunged_; }

 private:
  enum class Phase { kIdle, kMarkT, kMarkR, kRestructureDue };

  void on_plane_done(Plane p);
  void start_mt();
  void start_mr();
  void restructure();
  VertexId build_task_roots();

  Graph& g_;
  Marker& marker_;
  EngineHooks& hooks_;
  std::vector<VertexId> roots_;
  VertexId uroot_ = VertexId::invalid();
  VertexId troot_ = VertexId::invalid();
  std::atomic<Phase> phase_{Phase::kIdle};
  bool defer_restructure_ = false;
  bool paranoid_ = false;
  CycleOptions opt_;
  bool continuous_ = false;
  CycleOptions continuous_opt_;
  std::function<void(const CycleResult&)> observer_;
  obs::TraceBuffer* trace_ = nullptr;
  CycleResult last_;
  CycleResult cur_;
  std::atomic<std::uint64_t> cycles_{0};
  std::uint64_t total_swept_ = 0;
  std::uint64_t total_expunged_ = 0;
  // build_task_roots' scratch: the engine's task endpoints.
  std::vector<TaskEndpoint> endpoints_;
  // build_task_roots' dedup: task_seen_[pool_pe * P + v.pe][v.idx] equals
  // task_stamp_ once v is attached to taskroot(pool_pe) in this build.
  std::vector<std::vector<std::uint32_t>> task_seen_;
  std::uint32_t task_stamp_ = 0;
};

}  // namespace dgr
