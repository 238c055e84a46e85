// The decentralized graph-marking algorithm (Hudak §4, §5).
//
// One Marker instance manages both marking planes:
//   Plane::kR — process M_R (Fig 5-1/5-2): marks from the root through
//     args(v), propagating priorities 3 (vital) / 2 (eager) / 1 (reserve)
//     with mark2's max-min rule and re-marking on priority upgrade.
//   Plane::kT — process M_T (Fig 5-3): marks from troot through
//     requested(v) ∪ (args(v) − req-args(v)).
//
// Marking builds a spanning "marking tree" via per-vertex mt_par pointers and
// mt_cnt counters; termination is detected when a return task reaches the
// rootpar sentinel (Fig 4-1). Colors are epoch-tagged so starting a new cycle
// unmarks every vertex in O(1).
//
// The basic algorithm mark1 of Fig 4-1 is the priority-free special case of
// mark2 and is exercised through plane kR with a single priority.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "core/task.h"
#include "graph/graph.h"

namespace dgr {

namespace obs {
class TraceBuffer;
}

// Counters are atomic so the multi-threaded engine can execute marking tasks
// on many PE threads concurrently (each task execution holds only its own
// vertex's lock). A Marker counts into per-PE shards and sums them into
// this view (Marker::stats).
struct MarkStats {
  std::atomic<std::uint64_t> marks{0};    // mark tasks executed
  std::atomic<std::uint64_t> returns{0};  // return tasks executed
  std::atomic<std::uint64_t> remarks{0};  // priority-upgrade re-marks
  std::atomic<std::uint64_t> coop_spawns{0};  // marks spawned by cooperation

  MarkStats() = default;
  MarkStats(const MarkStats& o) { copy_from(o); }
  MarkStats& operator=(const MarkStats& o) {
    copy_from(o);
    return *this;
  }
  void reset() {
    marks = 0;
    returns = 0;
    remarks = 0;
    coop_spawns = 0;
  }

 private:
  void copy_from(const MarkStats& o) {
    marks = o.marks.load(std::memory_order_relaxed);
    returns = o.returns.load(std::memory_order_relaxed);
    remarks = o.remarks.load(std::memory_order_relaxed);
    coop_spawns = o.coop_spawns.load(std::memory_order_relaxed);
  }
};

class Marker {
 public:
  Marker(Graph& g, TaskSink& sink) : g_(g), sink_(sink) {
    for (PlaneState& ps : state_)
      ps.shards = std::make_unique<Shard[]>(g.num_pes());
  }

  // Begin a marking phase on `plane` from `root` (the computation-graph root
  // for kR; troot for kT). Bumps the plane epoch (unmarking everything) and
  // spawns the initial mark task with priority `root_prior` (3 for M_R, §5.2
  // "we assume that the value of the root is essential").
  void begin(Plane plane, VertexId root, std::uint8_t root_prior = 3);

  bool active(Plane plane) const { return st(plane).active; }
  bool done(Plane plane) const { return st(plane).done; }
  // The mark wave is still propagating (begun and not yet terminated).
  bool marking_in_progress(Plane plane) const {
    return st(plane).active && !st(plane).done;
  }
  std::uint64_t epoch(Plane plane) const { return st(plane).epoch; }

  // Invoked by the engine when the phase's done flag is raised.
  void set_done_callback(std::function<void(Plane)> cb) { done_cb_ = std::move(cb); }

  // ---- Distributed (multi-process) marking support. ----
  //
  // In a ProcEngine deployment the controller's Marker runs begin()/end() as
  // usual, but the mark tasks execute on worker processes, each holding its
  // own Marker over a partition replica. These entry points keep a replica's
  // plane state in step with the controller without spawning seeds, and let
  // the controller adopt a termination observed remotely (the rootpar return
  // fires on whichever worker owns the collapsing root, not here).

  // Worker side: open `plane` at the controller's absolute epoch (from a
  // kPlaneBegin frame). Unlike begin(), no seed task is spawned, and a
  // previous wave left open is simply superseded — workers never run end().
  void begin_remote(Plane plane, std::uint64_t e) {
    PlaneState& ps = st(plane);
    ps.epoch = e;
    ps.active = true;
    ps.done = false;
    ps.tainted = false;
    reset_stats(ps);
    clear_rescues(plane);
  }

  // Worker side: a controller rescue wave reopens the plane; its seeds then
  // arrive as ordinary mark tasks within the same epoch.
  void reopen_remote(Plane plane) { st(plane).done = false; }

  // Controller side: a worker observed the termination return to rootpar and
  // reported it (kPlaneDone); raise done here and run the usual callback.
  void finish_remote(Plane plane) {
    PlaneState& ps = st(plane);
    DGR_CHECK_MSG(ps.active, "finish_remote on an inactive plane");
    DGR_CHECK_MSG(!ps.done, "duplicate remote termination");
    ps.done = true;
    if (done_cb_) done_cb_(plane);
  }

  // Controller side: fold a worker's wave counters into this plane's stats
  // (the controller executed no mark tasks itself).
  void add_remote_stats(Plane plane, const MarkStats& s) {
    MarkStats& d = st(plane).stats;
    d.marks += s.marks.load(std::memory_order_relaxed);
    d.returns += s.returns.load(std::memory_order_relaxed);
    d.remarks += s.remarks.load(std::memory_order_relaxed);
    d.coop_spawns += s.coop_spawns.load(std::memory_order_relaxed);
  }

  // Invoked by launch_rescue_wave after the rescue root is prepared and
  // before any seed is spawned: a distributed controller broadcasts the
  // reopened plane (and the rescue root's record) to workers here, so the
  // seeds that follow land on replicas that already expect them.
  using RescueSeedHook =
      std::function<void(Plane, VertexId rescue_root, std::size_t seeds)>;
  void set_rescue_seed_hook(RescueSeedHook fn) {
    rescue_seed_hook_ = std::move(fn);
  }

  // Called after the restructuring phase consumed the marks.
  void end(Plane plane) { st(plane).active = false; }

  // Controller side: abandon an in-flight wave wholesale (worker lost or
  // replica resync). Unlike end(), the wave may still be running: pending
  // rescue seeds are discarded along with the done/taint state, so the next
  // begin() starts from a clean plane. The epoch is left alone — stale marks
  // are voided by the next epoch bump, not cleaned up.
  void abort(Plane plane) {
    PlaneState& ps = st(plane);
    ps.active = false;
    ps.done = false;
    ps.tainted = false;
    clear_rescues(plane);
  }

  // Execute a kMark / kMarkReturn task (engine dispatch).
  void exec(const Task& t);

  // Synchronous execution of a mark task — the cooperating mutator's
  // "execute mark1(c,b)" (Fig 4-2). Runs inside the caller's atomic section.
  void exec_mark_now(Plane plane, VertexId v, VertexId par, std::uint8_t prior);

  // Spawn (asynchronous) a mark task — the cooperating mutator's
  // "spawn mark1(c,a)".
  void spawn_mark(Plane plane, VertexId v, VertexId par, std::uint8_t prior);

  // ---- Epoch-aware state accessors (shared with cooperation/controller). --

  Color color(Plane plane, VertexId v) const {
    const MarkPlane& m = g_.at(v).plane(plane);
    return m.epoch == st(plane).epoch ? m.color : Color::kUnmarked;
  }
  // Effective priority; 0 when unmarked/stale.
  std::uint8_t prior(Plane plane, VertexId v) const {
    const MarkPlane& m = g_.at(v).plane(plane);
    return m.epoch == st(plane).epoch ? m.prior : 0;
  }
  bool is_marked(Plane plane, VertexId v) const {
    return color(plane, v) == Color::kMarked;
  }
  bool is_transient(Plane plane, VertexId v) const {
    return color(plane, v) == Color::kTransient;
  }
  bool is_unmarked(Plane plane, VertexId v) const {
    return color(plane, v) == Color::kUnmarked;
  }

  // Direct shading used by expand-node: make v marked / unmarked in-plane
  // without tracing (fresh-from-free-list vertices only).
  void shade_marked(Plane plane, VertexId v);
  void shade_unmarked(Plane plane, VertexId v);

  // Open v's marking-tree count by `n` (cooperation bookkeeping:
  // "increment(mt-cnt(a))"). v must be transient.
  void open_count(Plane plane, VertexId v, std::uint32_t n = 1);

  // Liveness escape hatch: when a mutation cannot splice marking activity
  // for plane kT (no transient helper in scope), it flags the cycle; the
  // controller then skips deadlock *reporting* for this cycle (deadlock
  // detection is explicitly allowed to be occasional, §6). Plane kR queues a
  // rescue instead (Mutator::cooperate_new_edge).
  void taint_cycle(Plane plane) { st(plane).tainted = true; }
  bool cycle_tainted(Plane plane) const { return st(plane).tainted; }

  // ---- Rescue waves (acquired references). ----
  //
  // A vertex can acquire a reference it never held an access chain to: a
  // node-valued reply hands the receiver a cons cell or list field. If the
  // receiver is already marked and the referent unmarked, no transient
  // helper exists to splice marking below (Fig 4-2's trick does not apply).
  // Such referents are queued; when the main wave terminates, the controller
  // launches a supplementary wave rooted at an auxiliary "rescue root" over
  // the still-unmarked queued vertices, repeating until no rescues remain.
  // Each wave reuses the plane's epoch and the rootpar termination exactly
  // like the main wave, so correctness arguments carry over unchanged.
  // The queue has its own lock: mutators on disjoint stripes queue rescues
  // concurrently, and a PE thread may launch a wave at the same time.
  void rescue(Plane plane, VertexId v, std::uint8_t prior = 1);
  bool is_rescue_queued(Plane plane, VertexId v) const;
  // Returns true if a supplementary wave was launched (plane reopened).
  bool launch_rescue_wave(Plane plane);
  // Mint both planes' rescue roots now rather than at the first rescue
  // wave (Controller::prewarm_aux_roots).
  void prewarm_rescue_roots();
  // Atomic so the ThreadEngine watchdog can sample it concurrently.
  std::uint64_t rescue_waves(Plane plane) const {
    return st(plane).rescue_waves.load(std::memory_order_relaxed);
  }

  // The plane's wave counters: the per-PE shards summed, plus cooperation
  // spawns and counts adopted from workers.
  MarkStats stats(Plane plane) const;

  // Observability: emit wave-front / rescue-wave events into `t` (nullptr
  // disables). Wave fronts are sampled every kWaveFrontPeriod mark execs.
  void set_trace(obs::TraceBuffer* t) { trace_ = t; }
  static constexpr std::uint32_t kWaveFrontPeriod = 32;

 private:
  // Marks, returns and re-marks executed at one PE's vertices, on a cache
  // line of their own: every task bumps one, and a counter shared by all PE
  // threads would bounce between their cores (and invalidate the epoch every
  // task reads).
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> marks{0};
    std::atomic<std::uint64_t> returns{0};
    std::atomic<std::uint64_t> remarks{0};
  };
  struct PlaneState {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> active{false};
    std::atomic<bool> done{false};
    std::atomic<bool> tainted{false};
    MarkStats stats;  // coop_spawns and adopted worker counts only
    std::unique_ptr<Shard[]> shards;  // [pe]
    // Marks executed while a trace ring is set: the wave-front sample clock.
    std::atomic<std::uint64_t> traced_marks{0};
    std::vector<std::pair<VertexId, std::uint8_t>> rescue_q;  // rescue_mu_
    VertexId rescue_root = VertexId::invalid();
    std::atomic<std::uint64_t> rescue_waves{0};
  };

  PlaneState& st(Plane p) { return state_[static_cast<int>(p)]; }
  const PlaneState& st(Plane p) const { return state_[static_cast<int>(p)]; }
  std::mutex& rescue_mu(Plane p) const {
    return rescue_mu_[static_cast<int>(p)];
  }
  void clear_rescues(Plane p) {
    std::lock_guard<std::mutex> lk(rescue_mu(p));
    st(p).rescue_q.clear();
  }
  void mint_rescue_root(PlaneState& ps);
  void reset_stats(PlaneState& ps) {
    ps.stats.reset();
    for (std::uint32_t pe = 0; pe < g_.num_pes(); ++pe) {
      ps.shards[pe].marks.store(0, std::memory_order_relaxed);
      ps.shards[pe].returns.store(0, std::memory_order_relaxed);
      ps.shards[pe].remarks.store(0, std::memory_order_relaxed);
    }
    ps.traced_marks.store(0, std::memory_order_relaxed);
  }

  // Lazily reset a vertex's plane record to the current epoch.
  MarkPlane& fresh(Vertex& v, Plane plane) {
    MarkPlane& m = v.plane(plane);
    if (m.epoch != st(plane).epoch) {
      m.epoch = st(plane).epoch;
      m.color = Color::kUnmarked;
      m.mt_cnt = 0;
      m.mt_par = VertexId::invalid();
      m.prior = 0;
    }
    return m;
  }

  void exec_mark(Plane plane, VertexId v, VertexId par, std::uint8_t prior);
  void exec_return(Plane plane, VertexId v);

  // mark2's modify(v,par,prior) (Fig 5-1); doubles as mark1/mark3's unmarked
  // branch with the plane-appropriate child set.
  void modify(Plane plane, VertexId v, MarkPlane& m, VertexId par,
              std::uint8_t prior);

  void spawn_return(Plane plane, VertexId par);

  Graph& g_;
  TaskSink& sink_;
  PlaneState state_[2];
  std::function<void(Plane)> done_cb_;
  RescueSeedHook rescue_seed_hook_;
  obs::TraceBuffer* trace_ = nullptr;
  // One per plane, guarding its rescue_q. Kept out of PlaneState, whose
  // fields every mark task reads, to leave their cache-line placement alone.
  mutable std::mutex rescue_mu_[2];
};

}  // namespace dgr
