#include "core/controller.h"

#include "graph/oracle.h"
#include "obs/trace.h"
#include "util/log.h"

namespace dgr {

Controller::Controller(Graph& g, Marker& marker, EngineHooks& hooks,
                       VertexId root)
    : g_(g),
      marker_(marker),
      hooks_(hooks),
      task_seen_(std::size_t{g.num_pes()} * g.num_pes()) {
  if (root.valid()) roots_.push_back(root);
  marker_.set_done_callback([this](Plane p) { on_plane_done(p); });
}

VertexId Controller::marking_root() {
  DGR_CHECK_MSG(!roots_.empty(), "no computation root configured");
  if (roots_.size() == 1) return roots_[0];
  if (!uroot_.valid()) uroot_ = g_.store(0).make_aux(OpCode::kTRoot);
  Vertex& u = g_.at(uroot_);
  u.args.clear();
  for (VertexId r : roots_)
    if (g_.at(r).live) u.args.emplace_back(r, ReqKind::kVital);
  return uroot_;
}

void Controller::prewarm_aux_roots() {
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) g_.store(pe).taskroot();
  if (!troot_.valid()) troot_ = g_.store(0).make_aux(OpCode::kTRoot);
  if (!uroot_.valid()) uroot_ = g_.store(0).make_aux(OpCode::kTRoot);
  marker_.prewarm_rescue_roots();
}

void Controller::start_cycle(const CycleOptions& opt) {
  DGR_CHECK_MSG(phase_ == Phase::kIdle, "marking cycle already in progress");
  opt_ = opt;
  cur_ = CycleResult{};
  cur_.cycle = cycles_completed() + 1;
  DGR_TRACE_EVENT(trace_, obs::EventType::kCycleStart, Plane::kR, 0,
                  cur_.cycle, roots_.size());
  if (opt_.detect_deadlock) {
    start_mt();
  } else {
    start_mr();
  }
}

void Controller::abort_cycle() {
  if (idle()) return;
  // Both planes, unconditionally: kT may be active (phase kMarkT) or ended
  // mid-cycle, kR may not have begun yet — abort() is a no-op either way.
  marker_.abort(Plane::kT);
  marker_.abort(Plane::kR);
  cur_ = CycleResult{};
  phase_ = Phase::kIdle;
}

VertexId Controller::build_task_roots() {
  // §5.2: args(taskroot_i) = { v | v is the source or destination of some
  // task in taskpool(i) }, args(troot) = { taskroot_i }. We assign a task's
  // endpoints to the taskroot of the PE owning its destination (where the
  // task pools or will execute), which also covers in-transit tasks.
  endpoints_.clear();
  hooks_.collect_task_endpoints(endpoints_);

  // Clear any stale endpoints from the previous cycle.
  for (PeId pe = 0; pe < g_.num_pes(); ++pe) {
    const VertexId tr = g_.store(pe).taskroot();
    g_.at(tr).args.clear();
  }

  const std::size_t pes = g_.num_pes();
  if (++task_stamp_ == 0) {  // wrapped: forget every stamp
    for (auto& seen : task_seen_) seen.assign(seen.size(), 0);
    task_stamp_ = 1;
  }
  auto attach = [&](PeId pool_pe, VertexId v) {
    if (!v.valid()) return;  // "<-,d>" tasks have no source
    if (!g_.at(v).live) return;
    auto& seen = task_seen_[pool_pe * pes + v.pe];
    if (seen.size() <= v.idx) seen.resize(g_.store(v.pe).capacity(), 0);
    if (seen[v.idx] == task_stamp_) return;
    seen[v.idx] = task_stamp_;
    const VertexId tr = g_.store(pool_pe).taskroot();
    // Unrequested edges: mark3 traces args(v) − req-args(v).
    g_.at(tr).args.emplace_back(v, ReqKind::kNone);
  };
  for (const TaskEndpoint& e : endpoints_) attach(e.pool, e.v);

  if (!troot_.valid()) troot_ = g_.store(0).make_aux(OpCode::kTRoot);
  Vertex& tv = g_.at(troot_);
  tv.args.clear();
  for (PeId pe = 0; pe < g_.num_pes(); ++pe)
    tv.args.emplace_back(g_.store(pe).taskroot(), ReqKind::kNone);
  return troot_;
}

void Controller::start_mt() {
  phase_ = Phase::kMarkT;
  cur_.ran_mt = true;
  const VertexId troot = build_task_roots();
  hooks_.on_plane_begin(Plane::kT);
  marker_.begin(Plane::kT, troot, 0);
  DGR_TRACE_EVENT(trace_, obs::EventType::kPhaseBegin, Plane::kT, 0,
                  cur_.cycle, marker_.epoch(Plane::kT));
}

void Controller::start_mr() {
  phase_ = Phase::kMarkR;
  const VertexId mroot = marking_root();
  hooks_.on_plane_begin(Plane::kR);
  marker_.begin(Plane::kR, mroot, 3);
  DGR_TRACE_EVENT(trace_, obs::EventType::kPhaseBegin, Plane::kR, 0,
                  cur_.cycle, marker_.epoch(Plane::kR));
}

void Controller::on_plane_done(Plane p) {
  // Acquired references queued for a supplementary wave keep the phase open
  // until the queue drains (see Marker::launch_rescue_wave).
  if (marker_.launch_rescue_wave(p)) return;

  if (phase_.load(std::memory_order_acquire) == Phase::kMarkT) {
    DGR_CHECK(p == Plane::kT);
    cur_.stats_t = marker_.stats(Plane::kT);
    DGR_TRACE_EVENT(trace_, obs::EventType::kPhaseEnd, Plane::kT, 0,
                    cur_.cycle, cur_.stats_t.marks, cur_.stats_t.returns);
    // "M_T must execute before M_R to properly detect deadlocked nodes"
    // (§5.4.1). The T marks persist (separate plane) while M_R runs.
    start_mr();
    return;
  }
  DGR_CHECK(phase_ == Phase::kMarkR && p == Plane::kR);
  cur_.stats_r = marker_.stats(Plane::kR);
  DGR_TRACE_EVENT(trace_, obs::EventType::kPhaseEnd, Plane::kR, 0, cur_.cycle,
                  cur_.stats_r.marks, cur_.stats_r.returns);
  if (defer_restructure_) {
    phase_.store(Phase::kRestructureDue, std::memory_order_release);
  } else {
    restructure();
  }
}

void Controller::run_restructure() {
  DGR_CHECK(restructure_due());
  restructure();
}

void Controller::restructure() {
  hooks_.quiesce_begin();

  // GAR' = live ∧ ¬aux ∧ ¬marked_R, read before the sweep.
  auto in_gar = [&](VertexId v) {
    if (!v.valid()) return false;
    const Vertex& vx = g_.at(v);
    return vx.live && !vx.aux && !marker_.is_marked(Plane::kR, v);
  };

  // One pass over the store serves three jobs. Nothing after it changes a
  // mark or a liveness bit before the sweep (restructure_tasks touches only
  // the task population, drop_requester only `requested`, and
  // Store::release resets a freed vertex's stale-waiter list itself), so
  // each job sees what it would see in a pass of its own.
  //   (d) Deadlock report: DL'_v = R'_v − T' (Theorem 2). Only valid when
  //       M_T ran this cycle and no mutation tainted the T plane. Evaluated
  //       vertices are exempt: deadlock means the value is awaited yet can
  //       never be computed (reduction axiom 5 speaks of vertices whose
  //       value "is never computed"). A finished root is in R_v − T but is
  //       certainly not deadlocked.
  //   (a) The garbage to sweep.
  //   Stale-waiter lists (in-transit ↦-edge accounting, see
  //   Vertex::stale_requested) have served their purpose for this cycle's
  //   M_T.
  cur_.deadlock_report_valid =
      cur_.ran_mt && !marker_.cycle_tainted(Plane::kT);
  const bool report = cur_.deadlock_report_valid;
  std::vector<VertexId> garbage;
  g_.for_each_live([&](VertexId v) {
    Vertex& vx = g_.at(v);
    if (report && marker_.is_marked(Plane::kR, v) &&
        marker_.prior(Plane::kR, v) == 3 && !marker_.is_marked(Plane::kT, v) &&
        !vx.value.defined())
      cur_.deadlocked.push_back(v);
    if (in_gar(v)) garbage.push_back(v);
    vx.stale_requested.clear();
  });
  if (report) {
    DGR_TRACE_EVENT(trace_, obs::EventType::kDeadlockReport, Plane::kT, 0,
                    cur_.cycle, cur_.deadlocked.size());
    // Evidence chain for the post-mortem analyzer: name each DL'_v member
    // (requested in R' yet unreachable from any task — Theorem 2).
    for (VertexId v : cur_.deadlocked)
      DGR_TRACE_EVENT(trace_, obs::EventType::kDeadlockVertex, Plane::kT,
                      v.pe, cur_.cycle, v.idx);
  }

  // (b) Expunge irrelevant tasks BEFORE sweeping, so no surviving task
  // targets a freed vertex: IRR' = { <s,d> | d ∈ GAR' } (Property 6 /
  // Corollary 1). (c) Dynamic task prioritization, in the same pass: a
  // surviving task's priority becomes the marked priority of its
  // destination (vital=3, eager=2, reserve=1). No survivor's destination is
  // swept, so the sweep cannot change it.
  const TaskRestructure tr = hooks_.restructure_tasks(
      in_gar, [&](VertexId d) {
        const std::uint8_t p = marker_.prior(Plane::kR, d);
        return p ? p : std::uint8_t{1};
      });
  cur_.expunged = tr.expunged;
  cur_.reprioritized = tr.reprioritized;
  DGR_TRACE_EVENT(trace_, obs::EventType::kExpunge, Plane::kR, 0, cur_.cycle,
                  cur_.expunged);

  // Clear taskroot endpoint lists so they never dangle into swept slots.
  for (PeId pe = 0; pe < g_.num_pes(); ++pe)
    g_.at(g_.store(pe).taskroot()).args.clear();
  if (troot_.valid()) {
    // troot's edges point only at aux taskroots; clearing keeps it inert
    // between cycles.
    g_.at(troot_).args.clear();
  }

  // (a) Sweep. First purge requested-back-edges originating at garbage
  // (a garbage requester w with a pending request w→x leaves w inside
  // requested(x); x would later "reply" into a freed slot). Then release.
  if (paranoid_) {
    const Oracle oracle(g_, roots_.size() == 1 ? roots_[0] : uroot_, {});
    for (VertexId w : garbage) {
      if (oracle.in_R(w)) {
        DGR_ERROR("cycle %llu about to sweep REACHABLE %u:%u (prior %d)",
                  (unsigned long long)cur_.cycle, w.pe, w.idx,
                  oracle.prior_at(w));
        DGR_CHECK_MSG(false, "paranoid sweep check failed");
      }
    }
  }
  for (VertexId w : garbage) {
    for (const ArgEdge& e : g_.at(w).args) {
      if (e.req == ReqKind::kNone || !e.to.valid()) continue;
      g_.at(e.to).drop_requester(w);
    }
  }
  for (VertexId w : garbage) g_.store(w.pe).release(w.idx);
  cur_.swept = garbage.size();
  DGR_TRACE_EVENT(trace_, obs::EventType::kSweep, Plane::kR, 0, cur_.cycle,
                  cur_.swept);

  DGR_TRACE_EVENT(trace_, obs::EventType::kReprioritize, Plane::kR, 0,
                  cur_.cycle, cur_.reprioritized);

  marker_.end(Plane::kR);
  if (cur_.ran_mt) marker_.end(Plane::kT);

  cycles_.fetch_add(1, std::memory_order_acq_rel);
  total_swept_ += cur_.swept;
  total_expunged_ += cur_.expunged;
  DGR_TRACE_EVENT(trace_, obs::EventType::kCycleEnd, Plane::kR, 0, cur_.cycle,
                  cur_.swept, cur_.expunged);
  last_ = cur_;
  phase_ = Phase::kIdle;
  hooks_.quiesce_end();
  hooks_.on_cycle_complete(last_);
  if (observer_) observer_(last_);

  if (continuous_) start_cycle(continuous_opt_);
}

}  // namespace dgr
