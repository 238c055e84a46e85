// Deterministic discrete-event simulation engine.
//
// This engine realizes the paper's execution model exactly: autonomous PEs
// with local stores, tasks propagating between vertices as messages, and
// atomic task execution (§2.1). One task executes per step, chosen by a
// seeded pseudo-random scheduler across all PEs and queues — so a seed sweep
// explores the interleavings of the marker, the mutator and message delivery,
// while any single seed is perfectly reproducible.
//
// Marking tasks and reduction tasks live in separate per-PE queues; reduction
// tasks sit in the paper's priority task pools, marking tasks in a FIFO-free
// random-service queue (modelling unordered message delivery).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/compact_collector.h"
#include "core/controller.h"
#include "core/cooperation.h"
#include "core/marker.h"
#include "core/task.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "runtime/pool.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dgr {

namespace obs {
class TraceBuffer;
}

struct SimOptions {
  std::uint64_t seed = 1;
  // Validate marking invariants 1-3 (§5.4.1) every `invariant_period` steps
  // while a plane is actively marking. Expensive: O(V+E) per check.
  bool check_invariants = false;
  std::uint32_t invariant_period = 64;
  // Marking tax: while a marking phase is active, up to this many pending
  // marking tasks are serviced for every reduction task executed. Guarantees
  // the marker outpaces any mutator (each reduction task spawns a bounded
  // number of cooperation marks), so cycles terminate even against runaway
  // allocators — the liveness knob every on-the-fly collector needs. 0
  // disables the tax (pure uniform-random service; benches sweep this).
  std::uint32_t marking_tax = 8;
  // Cross-PE message latency: a task spawned to another PE becomes
  // deliverable only 1 + uniform[0, max_latency) steps later (0 = instant
  // delivery). Local spawns are always instant. Stresses the in-transit
  // accounting: tasks spend real time in flight.
  std::uint32_t max_latency = 0;
};

class SimEngine final : public TaskSink, public EngineHooks {
 public:
  explicit SimEngine(Graph& g, SimOptions opt = {});
  ~SimEngine() override;

  Graph& graph() { return g_; }
  Marker& marker() { return *marker_; }
  Mutator& mutator() { return *mutator_; }
  Controller& controller() { return *controller_; }
  Rng& rng() { return rng_; }
  // Simulated steps taken so far (the trace clock).
  std::uint64_t steps() const { return steps_; }
  // Per-PE counters and histograms.
  obs::MetricsRegistry& metrics_registry() { return reg_; }
  const obs::MetricsRegistry& metrics_registry() const { return reg_; }

  // Start capturing a structured trace of `capacity` events (ring buffer;
  // oldest dropped). Timestamps are sim steps, so traces are byte-identical
  // across runs with the same seed.
  obs::TraceBuffer* enable_trace(std::size_t capacity = 1 << 14);
  obs::TraceBuffer* trace() { return trace_.get(); }

  // Enable the §6 compact collector (two words of marking state per PE);
  // coexists with the tree collector — run one or the other per cycle.
  CompactCollector& enable_compact_collector();
  CompactMarker& compact_marker() { return *compact_marker_; }
  CompactCollector& compact_collector() { return *compact_collector_; }
  // Run until the compact collector finishes its cycle.
  std::uint64_t run_until_compact_done(std::uint64_t max_steps = UINT64_MAX);

  void set_root(VertexId root) { controller_->set_root(root); }

  // Install the reduction executor. Without one, reduction tasks are inert
  // pool content (static workloads for marking tests/benches).
  using Reducer = std::function<void(const Task&)>;
  void set_reducer(Reducer r) { reducer_ = std::move(r); }

  // ---- TaskSink ----
  void spawn(Task t) override;

  // ---- Execution ----
  // Execute one task; returns false when nothing is pending.
  bool step();
  // Run until quiescent or `max_steps`; returns steps executed.
  std::uint64_t run(std::uint64_t max_steps = UINT64_MAX);
  // Run until the controller finishes the current cycle (which must be in
  // progress); reduction keeps executing concurrently.
  std::uint64_t run_until_cycle_done(std::uint64_t max_steps = UINT64_MAX);
  bool quiescent() const;

  // Number of pending (unexecuted) reduction tasks across all pools.
  std::size_t pending_reduction() const;
  std::size_t pending_marking() const;

  // Introspection for tests/benches.
  const TaskPool& pool(PeId pe) const { return pools_[pe]; }
  std::size_t in_flight() const { return flight_.size(); }

  // Every unexecuted reduction task as <s,d>, one per task, pooled ones
  // first, then those in flight (the Oracle's input).
  void collect_task_refs(std::vector<TaskRef>& out);

  // ---- EngineHooks ----
  // Per task, in the order collect_task_refs lists them: s, then d.
  void collect_task_endpoints(std::vector<TaskEndpoint>& out) override;
  TaskRestructure restructure_tasks(
      const std::function<bool(VertexId)>& kill,
      const std::function<std::uint8_t(VertexId)>& prio) override;

 private:
  void execute(const Task& t);
  void maybe_check_invariants();
  void enqueue_delivered(Task t);
  void deliver_due();

  Graph& g_;
  SimOptions opt_;
  Rng rng_;
  std::unique_ptr<Marker> marker_;
  std::unique_ptr<Mutator> mutator_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<CompactMarker> compact_marker_;
  std::unique_ptr<CompactCollector> compact_collector_;
  Reducer reducer_;

  std::vector<TaskPool> pools_;               // reduction tasks, per PE
  std::vector<std::vector<Task>> mark_q_;     // marking tasks, per PE
  struct InFlight {
    Task t;
    std::uint64_t due;  // step count at which the message arrives
  };
  std::vector<InFlight> flight_;  // cross-PE messages not yet delivered
  std::size_t mark_pending_ = 0;
  std::uint32_t tax_due_ = 0;  // marking steps owed before next reduction
  PeId executing_pe_ = 0;  // PE owning the currently executing task
  std::uint64_t steps_ = 0;
  obs::MetricsRegistry reg_;
  std::unique_ptr<obs::TraceBuffer> trace_;
};

// Rough wire size of a task message (for traffic accounting).
std::size_t task_wire_size(const Task& t);

}  // namespace dgr
