// The executable task: the unit of work that propagates between vertices
// (Hudak §2.1: "an unexecuted task t is represented as a pair <s,d>").
//
// Both processes of the paper are expressed as tasks:
//   reduction tasks — kRequest / kReturnVal / kUnwind, executed by the
//     reduction engine at the PE owning the destination vertex;
//   marking tasks — kMark / kMarkReturn in one of the two planes (M_R, M_T),
//     executed by the Marker.
//
// A task is routed to owner(d) and its execution is atomic with respect to
// the vertices it manipulates (enforced by the engines).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ids.h"
#include "graph/value.h"
#include "graph/vertex.h"

namespace dgr {

enum class TaskKind : std::uint8_t {
  // Reduction process.
  kRequest,    // s requests d's value with demand strength `demand`
  kReturnVal,  // s returns `value` to d
  kEval,       // begin/continue evaluating d (self-addressed work item)

  // Marking process (plane selects M_R vs M_T; see Figs 4-1, 5-1, 5-3).
  kMark,        // mark{1,2,3}(v=d, par=s [, prior])
  kMarkReturn,  // return1(v=d)

  // §6 compact marking variant (per-PE Dijkstra-Scholten termination).
  kCompactMark,  // mark v=d with `prior`; s.pe = sending PE
  kPeAck,        // acknowledge one mark message; d.pe = receiving PE
};

inline bool task_is_marking(TaskKind k) {
  return k == TaskKind::kMark || k == TaskKind::kMarkReturn ||
         k == TaskKind::kCompactMark || k == TaskKind::kPeAck;
}

struct Task {
  TaskKind kind = TaskKind::kMark;
  VertexId d;  // destination — routing key
  VertexId s;  // source; parent for kMark; invalid() allowed ("<-,d>")

  // Marking payload.
  Plane plane = Plane::kR;
  std::uint8_t prior = 0;  // mark2 priority (3/2/1); 0 for mark1/mark3

  // Reduction payload.
  ReqKind demand = ReqKind::kVital;  // for kRequest
  Value value;                       // for kReturnVal

  // Pool ordering priority for reduction tasks (3 vital .. 1 reserve);
  // updated by the restructuring phase ("dynamic prioritization of tasks").
  std::uint8_t pool_prior = 3;

  static Task request(VertexId s, VertexId d, ReqKind demand) {
    Task t;
    t.kind = TaskKind::kRequest;
    t.s = s;
    t.d = d;
    t.demand = demand;
    t.pool_prior = demand == ReqKind::kVital ? 3 : 2;
    return t;
  }
  static Task return_val(VertexId s, VertexId d, const Value& v,
                         std::uint8_t pool_prior = 3) {
    Task t;
    t.kind = TaskKind::kReturnVal;
    t.s = s;
    t.d = d;
    t.value = v;
    t.pool_prior = pool_prior;
    return t;
  }
  static Task eval(VertexId d, std::uint8_t pool_prior) {
    Task t;
    t.kind = TaskKind::kEval;
    t.d = d;
    t.s = d;
    t.pool_prior = pool_prior;
    return t;
  }
  static Task mark(Plane plane, VertexId v, VertexId par, std::uint8_t prior) {
    Task t;
    t.kind = TaskKind::kMark;
    t.plane = plane;
    t.d = v;
    t.s = par;
    t.prior = prior;
    return t;
  }
  static Task mark_return(Plane plane, VertexId v) {
    Task t;
    t.kind = TaskKind::kMarkReturn;
    t.plane = plane;
    t.d = v;
    return t;
  }
};

// What one restructuring pass over a task population did (§5.2): tasks
// deleted as irrelevant, and survivors whose pool priority changed.
struct TaskRestructure {
  std::size_t expunged = 0;
  std::size_t reprioritized = 0;

  TaskRestructure& operator+=(const TaskRestructure& o) {
    expunged += o.expunged;
    reprioritized += o.reprioritized;
    return *this;
  }
};

// Where tasks go when spawned. Implemented by the engines: a spawned task is
// (logically) a message routed to owner(d); "no waiting is done for the
// completion of the task" (§4.1).
class TaskSink {
 public:
  virtual ~TaskSink() = default;
  virtual void spawn(Task t) = 0;

  // Boundary-summary admission for a child mark the Marker is about to
  // spawn from modify() (parent transient, mt_cnt about to be incremented).
  // Returning false means the engine already forwarded an equal-or-stronger
  // mark for `child` to its owning PE this epoch; the Marker then skips both
  // the spawn and the count, which is sound because the recorded request
  // either has not executed yet — it still holds a marking-tree count, so
  // the plane cannot terminate before it delivers at least `prior` to the
  // child — or has executed, leaving the child's recorded priority at or
  // above `prior` (mark2 would return immediately). Engines without a
  // summary table admit everything. Only modify()-spawned child marks
  // consult this: root/rescue seeds and cooperation re-marks bypass it.
  virtual bool admit_mark(Plane plane, VertexId child, std::uint8_t prior,
                          std::uint64_t epoch) {
    (void)plane, (void)child, (void)prior, (void)epoch;
    return true;
  }
};

}  // namespace dgr
