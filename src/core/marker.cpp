#include "core/marker.h"

#include <algorithm>

#include "obs/trace.h"

namespace dgr {

void Marker::begin(Plane plane, VertexId root, std::uint8_t root_prior) {
  PlaneState& ps = st(plane);
  DGR_CHECK_MSG(!ps.active, "marking phase already active on this plane");
  ++ps.epoch;  // O(1) unmark-all
  ps.active = true;
  ps.done = false;
  ps.tainted = false;
  reset_stats(ps);
  clear_rescues(plane);
  ps.rescue_waves = 0;
  // "Marking is started by spawning the task mark1(root, rootpar)" (§4.1).
  sink_.spawn(Task::mark(plane, root, VertexId::rootpar(), root_prior));
}

MarkStats Marker::stats(Plane plane) const {
  const PlaneState& ps = st(plane);
  MarkStats s = ps.stats;
  for (std::uint32_t pe = 0; pe < g_.num_pes(); ++pe) {
    s.marks += ps.shards[pe].marks.load(std::memory_order_relaxed);
    s.returns += ps.shards[pe].returns.load(std::memory_order_relaxed);
    s.remarks += ps.shards[pe].remarks.load(std::memory_order_relaxed);
  }
  return s;
}

void Marker::exec(const Task& t) {
  DGR_CHECK(task_is_marking(t.kind));
  if (t.kind == TaskKind::kMark) {
    exec_mark(t.plane, t.d, t.s, t.prior);
  } else {
    exec_return(t.plane, t.d);
  }
}

void Marker::exec_mark_now(Plane plane, VertexId v, VertexId par,
                           std::uint8_t prior) {
  exec_mark(plane, v, par, prior);
}

void Marker::spawn_mark(Plane plane, VertexId v, VertexId par,
                        std::uint8_t prior) {
  ++st(plane).stats.coop_spawns;
  sink_.spawn(Task::mark(plane, v, par, prior));
}

void Marker::spawn_return(Plane plane, VertexId par) {
  if (par.is_rootpar()) {
    // Termination: the marking tree has fully collapsed ("if v = rootpar
    // then done := true", Fig 4-1). Notify the controller directly — the
    // sentinel is not owned by any PE.
    PlaneState& ps = st(plane);
    DGR_CHECK_MSG(!ps.done, "duplicate termination return");
    ps.done = true;
    if (done_cb_) done_cb_(plane);
    return;
  }
  sink_.spawn(Task::mark_return(plane, par));
}

void Marker::exec_mark(Plane plane, VertexId v, VertexId par,
                       std::uint8_t prior) {
  PlaneState& ps = st(plane);
  Shard& sh = ps.shards[v.pe];
  sh.marks.fetch_add(1, std::memory_order_relaxed);
  if (trace_) {
    const std::uint64_t nmarks = ++ps.traced_marks;
    if (nmarks % kWaveFrontPeriod == 0)
      trace_->emit(obs::EventType::kWaveFront, plane, v.pe, 0, nmarks);
  }
  Vertex& vx = g_.at(v);
  DGR_CHECK_MSG(vx.live, "mark task reached a freed vertex");
  MarkPlane& m = fresh(vx, plane);

  if (plane == Plane::kT) {
    // mark3 (Fig 5-3): no priorities, no re-marking.
    if (m.color == Color::kUnmarked) {
      modify(plane, v, m, par, 0);
    } else {
      spawn_return(plane, par);
    }
    return;
  }

  // mark2 (Fig 5-1).
  if (m.color == Color::kUnmarked) {
    modify(plane, v, m, par, prior);
  } else if (prior <= m.prior) {
    spawn_return(plane, par);
  } else {
    // Priority upgrade: release the old parent (its subtree-completion
    // obligation transfers to the new parent), then re-mark.
    sh.remarks.fetch_add(1, std::memory_order_relaxed);
    if (m.color == Color::kTransient) spawn_return(plane, m.mt_par);
    modify(plane, v, m, par, prior);
  }
}

void Marker::modify(Plane plane, VertexId v, MarkPlane& m, VertexId par,
                    std::uint8_t prior) {
  m.color = Color::kTransient;  // touch(v)
  m.mt_par = par;
  m.prior = prior;

  const Vertex& vx = g_.at(v);
  const std::uint64_t epoch = st(plane).epoch;
  if (plane == Plane::kR) {
    // M_R traces through args(v); a child is marked with
    // min(prior, request-type(c,v)) (Fig 5-1). The engine's boundary
    // summary may veto a child whose owning PE was already sent an
    // equal-or-stronger mark this epoch (see TaskSink::admit_mark).
    for (const ArgEdge& e : vx.args) {
      if (!e.to.valid()) continue;
      const auto child_prior = static_cast<std::uint8_t>(
          std::min<int>(prior, request_type(e.req)));
      if (!sink_.admit_mark(plane, e.to, child_prior, epoch)) continue;
      sink_.spawn(Task::mark(plane, e.to, v, child_prior));
      ++m.mt_cnt;
    }
  } else {
    // M_T traces through requested(v) ∪ (args(v) − req-args(v)) (Fig 5-3),
    // where "req-args" is evaluated at the snapshot instant t_a: an edge
    // requested during this very phase (req_epoch == current epoch) was a
    // T-edge at t_a and is still traced — otherwise a task frontier that
    // descends past the marking wave would escape it (§5.2's in-transit
    // problem; the solution of [5]).
    for (VertexId r : vx.requested) {
      if (!r.valid()) continue;  // external demand "<-,v>"
      if (!sink_.admit_mark(plane, r, 0, epoch)) continue;
      sink_.spawn(Task::mark(plane, r, v, 0));
      ++m.mt_cnt;
    }
    for (VertexId r : vx.stale_requested) {
      if (!r.valid() || !g_.at(r).live) continue;
      if (!sink_.admit_mark(plane, r, 0, epoch)) continue;
      sink_.spawn(Task::mark(plane, r, v, 0));
      ++m.mt_cnt;
    }
    for (const ArgEdge& e : vx.args) {
      if (e.req != ReqKind::kNone && e.req_epoch != epoch) continue;
      if (!e.to.valid()) continue;
      if (!sink_.admit_mark(plane, e.to, 0, epoch)) continue;
      sink_.spawn(Task::mark(plane, e.to, v, 0));
      ++m.mt_cnt;
    }
  }

  if (m.mt_cnt == 0) {
    m.color = Color::kMarked;  // mark(v)
    spawn_return(plane, par);
  }
}

void Marker::exec_return(Plane plane, VertexId v) {
  st(plane).shards[v.pe].returns.fetch_add(1, std::memory_order_relaxed);
  Vertex& vx = g_.at(v);
  MarkPlane& m = fresh(vx, plane);
  DGR_CHECK_MSG(m.mt_cnt > 0, "return1 underflow: broken marking invariant 3");
  if (--m.mt_cnt == 0) {
    m.color = Color::kMarked;
    spawn_return(plane, m.mt_par);
  }
}

void Marker::shade_marked(Plane plane, VertexId v) {
  if (!st(plane).active) return;
  MarkPlane& m = fresh(g_.at(v), plane);
  m.color = Color::kMarked;
}

void Marker::shade_unmarked(Plane plane, VertexId v) {
  if (!st(plane).active) return;
  MarkPlane& m = fresh(g_.at(v), plane);
  m.color = Color::kUnmarked;
  m.mt_cnt = 0;
}

void Marker::open_count(Plane plane, VertexId v, std::uint32_t n) {
  MarkPlane& m = fresh(g_.at(v), plane);
  DGR_CHECK_MSG(m.color == Color::kTransient,
                "open_count on a non-transient vertex");
  m.mt_cnt += n;
}

void Marker::rescue(Plane plane, VertexId v, std::uint8_t prior) {
  PlaneState& ps = st(plane);
  if (!ps.active) return;
  std::lock_guard<std::mutex> lk(rescue_mu(plane));
  ps.rescue_q.emplace_back(v, prior);
}

bool Marker::is_rescue_queued(Plane plane, VertexId v) const {
  const PlaneState& ps = st(plane);
  std::lock_guard<std::mutex> lk(rescue_mu(plane));
  for (const auto& [r, p] : ps.rescue_q)
    if (r == v) return true;
  return false;
}

void Marker::mint_rescue_root(PlaneState& ps) {
  if (!ps.rescue_root.valid())
    ps.rescue_root = g_.store(0).make_aux(OpCode::kTaskRoot);
}

void Marker::prewarm_rescue_roots() {
  for (PlaneState& ps : state_) mint_rescue_root(ps);
}

bool Marker::launch_rescue_wave(Plane plane) {
  PlaneState& ps = st(plane);
  DGR_CHECK_MSG(ps.done, "rescue wave launched before the main wave ended");
  std::vector<std::pair<VertexId, std::uint8_t>> queued;
  {
    std::lock_guard<std::mutex> lk(rescue_mu(plane));
    queued.swap(ps.rescue_q);
  }
  // Keep only entries that still need marking.
  std::vector<std::pair<VertexId, std::uint8_t>> pending;
  for (const auto& [v, prior] : queued) {
    // Re-marking with a higher priority is also a rescue concern: mark2's
    // upgrade path needs a live wave to run in.
    const Color c = color(plane, v);
    if (g_.at(v).live &&
        (c == Color::kUnmarked ||
         (plane == Plane::kR && this->prior(plane, v) < prior)))
      pending.emplace_back(v, prior);
  }
  if (pending.empty()) return false;

  mint_rescue_root(ps);
  // The rescue root is re-touched as a transient holder of one open count
  // per seed; its collapse re-raises `done` through rootpar as usual.
  Vertex& rr = g_.at(ps.rescue_root);
  MarkPlane& m = fresh(rr, plane);
  m.color = Color::kTransient;
  m.mt_par = VertexId::rootpar();
  m.mt_cnt = static_cast<std::uint32_t>(pending.size());
  ps.done = false;
  ++ps.rescue_waves;
  DGR_TRACE_EVENT(trace_, obs::EventType::kRescueWave, plane, 0, 0,
                  pending.size());
  if (rescue_seed_hook_) rescue_seed_hook_(plane, ps.rescue_root, pending.size());
  for (const auto& [v, prior] : pending)
    sink_.spawn(Task::mark(plane, v, ps.rescue_root,
                           plane == Plane::kR ? prior : std::uint8_t{0}));
  return true;
}

}  // namespace dgr
