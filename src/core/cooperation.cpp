#include "core/cooperation.h"

#include <algorithm>

#include "obs/trace.h"

namespace dgr {

void Mutator::delete_reference(VertexId a, VertexId b) {
  // "task-procedure delete-reference(a,b): disconnect(a,b);" — removal never
  // endangers marking (Fig 4-2): at worst an already-spawned mark task still
  // traces the removed subtree, which merely delays its collection one cycle.
  disconnect(g_, a, b);
}

void Mutator::add_reference(VertexId a, VertexId b, VertexId c, ReqKind k) {
  const VertexId chain[] = {a, b};
  add_reference_via(a, chain, c, k);
}

void Mutator::add_reference_via(VertexId a, std::span<const VertexId> chain,
                                VertexId c, ReqKind k) {
  DGR_ASSERT(!chain.empty() && chain.front() == a);
  if (!coop_) {
    connect(g_, a, c, k);
    return;
  }
  if (marker_.active(Plane::kR)) {
    const auto edge_prior = static_cast<std::uint8_t>(request_type(k));
    cooperate_new_edge(Plane::kR, a, chain, c, edge_prior);
  }
  // The new edge is a T-plane edge (a ↦ c) only when unrequested; requesting
  // edges instead add c ↦ a via requested(c), whose traceability is carried
  // by the accompanying request task (see DESIGN.md §4 and Mutator::request_arg).
  if (marker_.active(Plane::kT) && k == ReqKind::kNone) {
    cooperate_new_edge(Plane::kT, a, chain, c, 0);
  }
  if (compact_)
    compact_->on_new_edge(a, c, static_cast<std::uint8_t>(request_type(k)));
  connect(g_, a, c, k);
}

void Mutator::cooperate_new_edge(Plane plane, VertexId parent,
                                 std::span<const VertexId> chain, VertexId c,
                                 std::uint8_t edge_prior) {
  const Color pc = marker_.color(plane, parent);
  if (pc == Color::kUnmarked) return;  // parent not yet traced; c will be

  if (marker_.color(plane, c) != Color::kUnmarked) return;  // c already safe

  const std::uint8_t prior =
      plane == Plane::kR
          ? static_cast<std::uint8_t>(
                std::min<int>(marker_.prior(plane, parent), edge_prior))
          : 0;

  if (pc == Color::kTransient) {
    // Fig 4-2 first case: "spawn mark1(c,a); increment(mt-cnt(a))".
    marker_.open_count(plane, parent);
    marker_.spawn_mark(plane, c, parent, prior);
    return;
  }

  // parent is marked: splice below the deepest non-unmarked vertex h on the
  // access chain (Fig 4-2 second case generalizes b to h). Walking from the
  // deep end, everything below h is unmarked, so by invariant 2 h cannot be
  // marked — it must be transient, with an open mt_cnt to grow.
  for (std::size_t i = chain.size(); i-- > 0;) {
    const Color hc = marker_.color(plane, chain[i]);
    if (hc == Color::kUnmarked) continue;
    if (hc == Color::kTransient) {
      // "execute mark1(c,b); increment(mt-cnt(b))" — synchronous, so c is at
      // least transient before the marked parent points at it (invariant 2).
      marker_.open_count(plane, chain[i]);
      marker_.exec_mark_now(plane, c, chain[i], prior);
      return;
    }
    break;  // marked ancestor above an unmarked descendant: fall through
  }

  // No transient helper in scope. This happens on M_R when an engine's
  // boundary summary vetoed a child mark (TaskSink::admit_mark): the vetoing
  // vertex can finish marking while that child is still covered only by
  // another parent's pending mark, so a marked vertex points at an unmarked
  // one. Queue c for the rescue wave, as acquire_reference does. For M_T we
  // flag the cycle so the controller skips deadlock reporting (detection is
  // allowed to be occasional, §6) instead of risking a false positive.
  if (plane == Plane::kR) {
    DGR_TRACE_EVENT(trace_, obs::EventType::kRescueQueued, plane, c.pe, 0,
                    c.pack());
    marker_.rescue(plane, c, prior ? prior : std::uint8_t{1});
    return;
  }
  DGR_TRACE_EVENT(trace_, obs::EventType::kCoopTaint, plane, parent.pe, 0);
  marker_.taint_cycle(plane);
}

void Mutator::expand_node(VertexId a, std::span<const VertexId> fresh) {
  if (!coop_) return;
  if (compact_)
    for (VertexId f : fresh) compact_->shade_fresh(a, f);
  for (const Plane plane : {Plane::kR, Plane::kT}) {
    if (!marker_.active(plane)) continue;
    // "if marked(a) then mark(g) else unmark(g)" (Fig 4-2). Transient
    // parents leave g unmarked too: the pending mark tasks guaranteed by
    // invariant 1 — or the edge-add cooperation that will wire a→g — trace it.
    const bool shade = marker_.color(plane, a) == Color::kMarked;
    const std::uint8_t prior = marker_.prior(plane, a);
    for (VertexId f : fresh) {
      if (shade) {
        marker_.shade_marked(plane, f);
        if (plane == Plane::kR) g_.at(f).plane(plane).prior = prior;
      } else {
        marker_.shade_unmarked(plane, f);
      }
    }
    if (shade) {
      // Marked fresh vertices must not point at unmarked non-fresh vertices
      // (invariant 2). Splice marking for any such edge, using a as the
      // chain anchor: a is marked, so the search inside cooperate_new_edge
      // immediately falls back to... a itself being the only chain element
      // would fail; callers needing deeper chains add references after
      // expand_node instead. Here we handle the common rewrite pattern where
      // fresh vertices reference current children of a.
      for (VertexId f : fresh) {
        for (const ArgEdge& e : g_.at(f).args) {
          if (!e.to.valid()) continue;
          if (std::find(fresh.begin(), fresh.end(), e.to) != fresh.end())
            continue;  // fresh→fresh: same shade
          if (plane == Plane::kT && e.req != ReqKind::kNone) continue;
          if (marker_.color(plane, e.to) == Color::kUnmarked) {
            const VertexId chain[] = {a};
            cooperate_new_edge(plane, f, chain, e.to,
                               plane == Plane::kR
                                   ? static_cast<std::uint8_t>(
                                         request_type(e.req))
                                   : 0);
          }
        }
      }
    }
  }
}

void Mutator::acquire_reference(VertexId x, VertexId c, ReqKind k) {
  if (!coop_) {
    connect(g_, x, c, k);
    return;
  }
  // Both planes need the new dependence covered: on kR the edge is an args
  // edge; on kT the edge is either a T-edge (unrequested) or carries a task
  // to c (requested) — in every case c must end the cycle marked if x does.
  // If x hasn't been traced yet, x's own trace covers c (requested edges via
  // the epoch stamp below); otherwise splice or queue a rescue.
  for (const Plane plane : {Plane::kR, Plane::kT}) {
    if (!marker_.active(plane)) continue;
    const Color xc = marker_.color(plane, x);
    if (xc == Color::kUnmarked) continue;
    if (marker_.color(plane, c) != Color::kUnmarked) continue;
    const std::uint8_t prior =
        plane == Plane::kR
            ? static_cast<std::uint8_t>(
                  std::min<int>(marker_.prior(plane, x), request_type(k)))
            : 0;
    if (xc == Color::kTransient) {
      marker_.open_count(plane, x);
      marker_.spawn_mark(plane, c, x, prior);
    } else {
      DGR_TRACE_EVENT(trace_, obs::EventType::kRescueQueued, plane, c.pe, 0,
                      c.pack());
      marker_.rescue(plane, c, prior ? prior : std::uint8_t{1});
    }
  }
  if (compact_)
    compact_->on_new_edge(x, c, static_cast<std::uint8_t>(request_type(k)));
  connect(g_, x, c, k);
  if (k != ReqKind::kNone) stamp_request_epoch(g_.at(x).args.back());
}

void Mutator::request_arg(VertexId x, VertexId y, ReqKind k) {
  DGR_CHECK(k != ReqKind::kNone);
  // R-plane: args(x) unchanged, only the edge's request-type rises — priority
  // refinement waits for the next cycle (§5.3 option (b)).
  set_request(g_, x, y, k);
  Vertex& vx = g_.at(x);
  const int i = vx.arg_index(y);
  DGR_CHECK(i >= 0);
  stamp_request_epoch(vx.args[static_cast<std::size_t>(i)]);
}

void Mutator::request_arg_at(VertexId x, std::size_t arg_idx, ReqKind k) {
  DGR_CHECK(k != ReqKind::kNone);
  set_request_at(g_, x, arg_idx, k);
  stamp_request_epoch(g_.at(x).args[arg_idx]);
}

void Mutator::stamp_request_epoch(ArgEdge& e) {
  if (!transit_) return;
  // T-plane bookkeeping: an edge requested while the M_T wave is in flight
  // was unrequested at the snapshot instant, so mark3 must still trace it
  // (see ArgEdge::req_epoch). Stamping only during an in-progress wave keeps
  // pre-existing requests — e.g. a deadlocked vertex's stale vital edges —
  // invisible to M_T, preserving deadlock-detection precision.
  if (marker_.marking_in_progress(Plane::kT))
    e.req_epoch = marker_.epoch(Plane::kT);
}

void Mutator::dereference_at(VertexId x, std::size_t arg_idx) {
  // Dropping x from requested(y) mid-wave would erase a snapshot ↦-edge;
  // preserve it as a stale waiter.
  const ArgEdge& e = g_.at(x).args[arg_idx];
  if (e.req != ReqKind::kNone) record_stale_waiter(e.to, x);
  disconnect_at(g_, x, arg_idx);
}

void Mutator::record_stale_waiter(VertexId v, VertexId waiter) {
  if (!transit_) return;
  if (!waiter.valid()) return;
  if (!marker_.marking_in_progress(Plane::kT)) return;
  g_.at(v).stale_requested.push_back(waiter);
}

void Mutator::delete_reference_at(VertexId x, std::size_t arg_idx) {
  disconnect_at(g_, x, arg_idx);
}

void Mutator::upgrade_to_vital(VertexId x, VertexId y) {
  set_request(g_, x, y, ReqKind::kVital);
}

void Mutator::dereference(VertexId x, VertexId y) {
  // §3.2: remove y from req-args_e(x) and x from requested(y); we also drop
  // the data edge so an unneeded subcomputation actually becomes garbage
  // (otherwise it would linger as a reserve dependency).
  disconnect(g_, x, y);
}

void Mutator::reply(VertexId y, VertexId x, const Value& val) {
  reply_to(g_, y, x, val);
}

}  // namespace dgr
