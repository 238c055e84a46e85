#include "runtime/sim_engine.h"

#include "core/invariants.h"
#include "obs/trace.h"

namespace dgr {

std::size_t task_wire_size(const Task& t) {
  // kind + plane + prior/demand + two vertex ids + optional value.
  return 4 + 2 * 8 + (t.kind == TaskKind::kReturnVal ? 9 : 0);
}

SimEngine::SimEngine(Graph& g, SimOptions opt)
    : g_(g), opt_(opt), rng_(opt.seed), reg_(g.num_pes()) {
  marker_ = std::make_unique<Marker>(g_, *this);
  mutator_ = std::make_unique<Mutator>(g_, *marker_);
  controller_ =
      std::make_unique<Controller>(g_, *marker_, *this, VertexId::invalid());
  pools_.resize(g_.num_pes());
  mark_q_.resize(g_.num_pes());
}

SimEngine::~SimEngine() = default;

obs::TraceBuffer* SimEngine::enable_trace(std::size_t capacity) {
  if (!trace_) {
    trace_ = std::make_unique<obs::TraceBuffer>(capacity);
    trace_->set_clock([this] { return steps_; });
    marker_->set_trace(trace_.get());
    mutator_->set_trace(trace_.get());
    controller_->set_trace(trace_.get());
  }
  return trace_.get();
}

void SimEngine::spawn(Task t) {
  DGR_CHECK_MSG(t.d.valid() && !t.d.is_rootpar(),
                "spawn to an unowned destination");
  const PeId dst = t.d.pe;
  if (dst == executing_pe_) {
    reg_.add(executing_pe_, obs::Counter::kLocalMessages);
  } else {
    reg_.add(executing_pe_, obs::Counter::kRemoteMessages);
    reg_.add(executing_pe_, obs::Counter::kBytesSent, task_wire_size(t));
    if (opt_.max_latency > 0) {
      // The message spends real time on the wire.
      const std::uint64_t due =
          steps_ + 1 +
          (opt_.max_latency > 1 ? rng_.below(opt_.max_latency) : 0);
      reg_.observe(dst, obs::Hist::kMsgLatency,
                   static_cast<double>(due - steps_));
      flight_.push_back(InFlight{std::move(t), due});
      return;
    }
  }
  enqueue_delivered(std::move(t));
}

void SimEngine::enqueue_delivered(Task t) {
  const PeId dst = t.d.pe;
  if (task_is_marking(t.kind)) {
    mark_q_[dst].push_back(std::move(t));
    ++mark_pending_;
  } else {
    pools_[dst].push(std::move(t));
  }
}

void SimEngine::deliver_due() {
  for (std::size_t i = 0; i < flight_.size();) {
    if (flight_[i].due <= steps_) {
      Task t = std::move(flight_[i].t);
      flight_[i] = std::move(flight_.back());
      flight_.pop_back();
      enqueue_delivered(std::move(t));
    } else {
      ++i;
    }
  }
}

bool SimEngine::quiescent() const {
  return mark_pending_ == 0 && pending_reduction() == 0 && flight_.empty();
}

std::size_t SimEngine::pending_reduction() const {
  std::size_t n = 0;
  for (const auto& p : pools_) n += p.size();
  return n;
}

std::size_t SimEngine::pending_marking() const { return mark_pending_; }

bool SimEngine::step() {
  deliver_due();
  // Candidate queues: (pe, is_marking). Chosen uniformly at random, so PE
  // progress and marker/mutator interleaving are arbitrary, as in a real
  // asynchronous system.
  struct Cand {
    PeId pe;
    bool marking;
  };
  Cand cands[256];
  std::size_t n = 0;
  bool run_reduction = static_cast<bool>(reducer_);
  // Marking tax (see SimOptions::marking_tax): while a cycle is active and
  // marking work is owed, reduction yields. Keeps the marker ahead of the
  // mutator so cycles always terminate.
  const bool cycle_active = !controller_->idle();
  if (cycle_active && mark_pending_ > 0 && tax_due_ > 0) run_reduction = false;
  for (PeId pe = 0; pe < g_.num_pes() && n + 2 <= 256; ++pe) {
    if (!mark_q_[pe].empty()) cands[n++] = {pe, true};
    if (run_reduction && !pools_[pe].empty()) cands[n++] = {pe, false};
  }
  if (n == 0) {
    // Nothing executable. If messages are still in flight, idle-tick until
    // one arrives (wall-clock passes with no work — exactly a real machine
    // waiting on the network).
    if (!flight_.empty()) {
      std::uint64_t next_due = UINT64_MAX;
      for (const InFlight& f : flight_) next_due = std::min(next_due, f.due);
      steps_ = std::max(steps_, next_due);
      deliver_due();
      return step();
    }
    if (!static_cast<bool>(reducer_)) return false;
    // Only taxed-out reduction candidates remain.
    for (PeId pe = 0; pe < g_.num_pes() && n < 256; ++pe)
      if (!pools_[pe].empty()) cands[n++] = {pe, false};
    if (n == 0) return false;
  }
  const Cand c = cands[rng_.below(n)];
  if (c.marking) {
    if (tax_due_ > 0) --tax_due_;
  } else if (cycle_active) {
    tax_due_ = opt_.marking_tax;
  }
  executing_pe_ = c.pe;

  // Sampled service-time queue depths (per-PE histograms).
  if ((steps_ & 15) == 0) {
    if (c.marking)
      reg_.observe(c.pe, obs::Hist::kMarkQueueDepth,
                   static_cast<double>(mark_q_[c.pe].size()));
    else
      reg_.observe(c.pe, obs::Hist::kPoolDepth,
                   static_cast<double>(pools_[c.pe].size()));
  }

  Task t;
  if (c.marking) {
    auto& q = mark_q_[c.pe];
    const std::size_t i = q.size() > 1 ? rng_.below(q.size()) : 0;
    t = std::move(q[i]);
    q[i] = std::move(q.back());
    q.pop_back();
    --mark_pending_;
  } else {
    t = pools_[c.pe].pop(&rng_);
  }
  execute(t);
  ++steps_;
  maybe_check_invariants();
  return true;
}

void SimEngine::execute(const Task& t) {
  if (task_is_marking(t.kind)) {
    if (t.kind == TaskKind::kCompactMark || t.kind == TaskKind::kPeAck) {
      reg_.add(executing_pe_, t.kind == TaskKind::kCompactMark
                                  ? obs::Counter::kMarkTasks
                                  : obs::Counter::kReturnTasks);
      DGR_CHECK_MSG(static_cast<bool>(compact_marker_),
                    "compact task without a compact collector");
      compact_marker_->exec(t);
      return;
    }
    reg_.add(executing_pe_, t.kind == TaskKind::kMark
                                ? obs::Counter::kMarkTasks
                                : obs::Counter::kReturnTasks);
    marker_->exec(t);
    return;
  }
  reg_.add(executing_pe_, obs::Counter::kReductionTasks);
  DGR_CHECK_MSG(static_cast<bool>(reducer_),
                "reduction task executed without a reducer");
  reducer_(t);
}

std::uint64_t SimEngine::run(std::uint64_t max_steps) {
  std::uint64_t n = 0;
  while (n < max_steps && step()) ++n;
  return n;
}

CompactCollector& SimEngine::enable_compact_collector() {
  if (!compact_marker_) {
    compact_marker_ = std::make_unique<CompactMarker>(g_, *this);
    compact_collector_ = std::make_unique<CompactCollector>(
        g_, *compact_marker_, *this, controller_->root());
    mutator_->set_compact_marker(compact_marker_.get());
  }
  return *compact_collector_;
}

std::uint64_t SimEngine::run_until_compact_done(std::uint64_t max_steps) {
  std::uint64_t n = 0;
  while (!compact_collector_->idle() && n < max_steps) {
    if (!step()) break;
    ++n;
  }
  DGR_CHECK_MSG(compact_collector_->idle(),
                "compact cycle failed to terminate");
  return n;
}

std::uint64_t SimEngine::run_until_cycle_done(std::uint64_t max_steps) {
  std::uint64_t n = 0;
  while (!controller_->idle() && n < max_steps) {
    if (!step()) break;
    ++n;
  }
  DGR_CHECK_MSG(controller_->idle(), "marking cycle failed to terminate");
  return n;
}

void SimEngine::collect_task_refs(std::vector<TaskRef>& out) {
  for (const auto& p : pools_)
    p.for_each([&](const Task& t) { out.push_back(TaskRef{t.s, t.d}); });
  // In-transit reduction tasks are tasks too (§5.2's in-transit problem).
  for (const InFlight& f : flight_)
    if (!task_is_marking(f.t.kind)) out.push_back(TaskRef{f.t.s, f.t.d});
}

void SimEngine::collect_task_endpoints(std::vector<TaskEndpoint>& out) {
  const auto emit = [&](const Task& t) {
    const PeId pool = t.d.valid() ? t.d.pe : 0;
    out.push_back(TaskEndpoint{pool, t.s});
    out.push_back(TaskEndpoint{pool, t.d});
  };
  for (const auto& p : pools_) p.for_each(emit);
  for (const InFlight& f : flight_)
    if (!task_is_marking(f.t.kind)) emit(f.t);
}

TaskRestructure SimEngine::restructure_tasks(
    const std::function<bool(VertexId)>& kill,
    const std::function<std::uint8_t(VertexId)>& prio) {
  TaskRestructure r;
  for (auto& p : pools_)
    r += p.restructure([&](const Task& t) { return kill(t.d); },
                       [&](const Task& t) { return prio(t.d); });
  // In-flight reduction tasks: killed ones are swap-removed (the slot is
  // re-examined), survivors take their new priority in place.
  for (std::size_t i = 0; i < flight_.size();) {
    Task& t = flight_[i].t;
    if (task_is_marking(t.kind)) {
      ++i;
    } else if (kill(t.d)) {
      flight_[i] = std::move(flight_.back());
      flight_.pop_back();
      ++r.expunged;
    } else {
      const std::uint8_t p = prio(t.d);
      if (p != t.pool_prior) {
        t.pool_prior = p;
        ++r.reprioritized;
      }
      ++i;
    }
  }
  return r;
}

void SimEngine::maybe_check_invariants() {
  if (!opt_.check_invariants) return;
  if (steps_ % opt_.invariant_period != 0) return;
  std::vector<Task> pending;
  for (const auto& q : mark_q_)
    for (const Task& t : q) pending.push_back(t);
  for (const InFlight& f : flight_)
    if (task_is_marking(f.t.kind)) pending.push_back(f.t);
  for (const Plane plane : {Plane::kR, Plane::kT}) {
    if (!marker_->active(plane) || marker_->done(plane)) continue;
    if (marker_->cycle_tainted(plane)) continue;
    const InvariantReport rep =
        check_marking_invariants(g_, *marker_, plane, pending);
    DGR_CHECK_MSG(rep.ok, rep.what.c_str());
  }
}

}  // namespace dgr
