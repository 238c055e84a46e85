// Million-session workload driver (ROADMAP item 4, docs/WORKLOAD.md).
//
// Models production traffic as an open-loop stream of user *sessions*: each
// session is a small request graph that arrives (Poisson or bursty), hangs
// off a per-PE anchor vertex, churns references against a Zipf-skewed
// hot-key set while collection runs, and finally drops its root — at which
// point the whole region is garbage for the next restructuring sweep.
//
// Three layers:
//   1. generate_schedule(): a PURE function of WorkloadOptions — the seeded
//      event schedule (arrive / churn / complete per tick) never looks at an
//      engine or a clock, so the same seed yields the identical session
//      stream on every engine (the determinism contract of
//      tests/test_workload.cpp).
//   2. DriverEngine: one mutation/cycle interface over SimEngine,
//      ThreadEngine and ProcEngine. Overlapped engines (sim, threaded)
//      mutate WHILE a marking cycle runs — on the threaded engine the
//      mutator genuinely contends with live PE threads, and the time a
//      mutation spends blocked at the atomic section (vertex stripes +
//      the quiesce gate) is the mutator stall the SLO tracks. Barrier
//      engines (ProcEngine) mutate strictly between cycles, per the
//      documented multi-process mutation discipline.
//   3. SessionDriver: applies the schedule through a DriverEngine using the
//      cooperating primitives (Fig 4-2), records sessions/stall metrics in
//      obs::MetricsRegistry (Hist::kMutatorStallUs + per-phase attribution
//      counters) and emits kSession* trace events whose payloads are
//      schedule facts only.
//
// MultiDriverEngine fans every mutation out to several replica engines with
// byte-identical op streams — the differential soak leg of the chaos
// harness drives sim + threaded + process replicas through it and holds
// them all to the sequential Oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "core/cooperation.h"
#include "core/task.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dgr {
class SimEngine;
class ThreadEngine;
class ProcEngine;
}  // namespace dgr

namespace dgr::workload {

enum class Arrivals : std::uint8_t { kPoisson = 0, kBursty };

struct WorkloadOptions {
  std::uint64_t seed = 1;
  std::uint32_t pes = 4;
  std::uint32_t ticks = 64;        // schedule horizon (virtual time units)
  double rate = 2.0;               // mean session arrivals per tick
  Arrivals arrivals = Arrivals::kPoisson;
  std::uint32_t burst_period = 16;  // bursty: ticks between burst onsets
  std::uint32_t burst_len = 4;      // bursty: ticks a burst lasts
  double burst_factor = 6.0;        // bursty: rate multiplier inside a burst

  std::uint32_t hot_keys = 16;  // shared-root set size (Zipf universe)
  double zipf_s = 1.1;          // hot-key skew exponent (0 = uniform)

  std::uint32_t depth_min = 1, depth_max = 3;    // request-graph levels
  std::uint32_t fanout_min = 1, fanout_max = 4;  // vertices per level
  std::uint32_t lifetime_min = 2, lifetime_max = 12;  // ticks until close
  double churn_per_tick = 0.8;  // mean churn ops per live session per tick
  std::uint32_t max_live = 256;  // admission cap on concurrently live sessions

  // Driver pacing knobs (not part of the schedule).
  std::uint32_t cycle_every = 4;  // barrier engines: ticks per marking cycle
  std::uint32_t sim_steps_per_tick = 4000;  // sim: engine steps per tick
  std::uint32_t capacity_slack = 3;  // extra live-set multiples for garbage
};

enum class EventKind : std::uint8_t { kArrive = 0, kChurn, kComplete };
enum class ChurnOp : std::uint8_t {
  kAcquireHot = 0,  // session root acquires a reference to a hot key
  kDropHot,         // ...and drops it again
  kRewire,          // delete one of the root's own edges (orphan a subtree)
  kInjectTask,      // inject a request task root -> hot key
  kCount_,
};

struct SessionEvent {
  std::uint32_t tick = 0;
  EventKind kind = EventKind::kArrive;
  std::uint64_t session = 0;  // arrival index, dense from 0
  ChurnOp op = ChurnOp::kAcquireHot;  // kChurn only
  std::uint32_t hot = 0;      // hot-key index (arrive: initial edge; churn)
  std::uint32_t depth = 1;    // kArrive only
  std::uint32_t fanout = 1;   // kArrive only
  std::uint32_t lifetime = 1;  // kArrive only (ticks until kComplete)

  bool operator==(const SessionEvent&) const = default;
};

// The seeded schedule: pure function of the options, engine-free. Events are
// ordered by tick, completes before arrivals before churn within a tick.
// Completion events for sessions outliving `ticks` run past the horizon, so
// the last tick in the schedule may exceed opt.ticks.
std::vector<SessionEvent> generate_schedule(const WorkloadOptions& opt);

// Per-PE store capacity a presized Graph needs to run `opt` without
// admission rejections (anchors + hot set + aux taskroots + worst-case live
// sessions + capacity_slack multiples for garbage awaiting a sweep).
std::uint32_t required_capacity(const WorkloadOptions& opt);

// ---- One engine behind the driver ----

enum class Concurrency : std::uint8_t {
  kOverlapped = 0,  // mutations race the marking wave (sim, threaded)
  kBarrier,         // mutations strictly between cycles (multi-process)
};

class DriverEngine {
 public:
  virtual ~DriverEngine() = default;
  virtual const char* name() const = 0;
  virtual Concurrency concurrency() const = 0;
  virtual Graph& graph() = 0;
  virtual Controller& controller() = 0;
  virtual obs::MetricsRegistry& registry() = 0;
  virtual obs::TraceBuffer* trace() = 0;

  // Run `fn(graph, mutator)` atomically with the listed vertices' stripe
  // locks held. Returns the nanoseconds the call spent blocked before fn
  // ran (0 on non-blocking engines) — the mutator stall sample. Fresh
  // vertices may be allocated inside fn: the section excludes the
  // restructuring quiesce, so an unreachable fresh vertex cannot be swept
  // between its alloc and the expand_node that shades it.
  using MutateFn = std::function<void(Graph&, Mutator&)>;
  virtual std::uint64_t mutate(std::span<const VertexId> vs,
                               const MutateFn& fn) = 0;
  virtual void inject(Task t) = 0;

  // Run `fn` on every replica's controller (fan-out engines); single-engine
  // adapters apply it to their one controller. Root-set changes and aux-root
  // prewarming must reach every replica, not just the primary.
  virtual void for_each_controller(const std::function<void(Controller&)>& fn) {
    fn(controller());
  }

  // Progress the engine between mutations (sim: execute up to n tasks;
  // autonomous engines: no-op).
  virtual void pump(std::uint64_t n) { (void)n; }
  virtual void start_cycle(const CycleOptions& opt) = 0;
  virtual void wait_cycle_done() = 0;
  // Drain all in-flight marking/reduction work (structural reads are safe
  // afterwards).
  virtual void wait_quiescent() = 0;
};

std::unique_ptr<DriverEngine> make_driver(SimEngine& eng);
std::unique_ptr<DriverEngine> make_driver(ThreadEngine& eng);
std::unique_ptr<DriverEngine> make_driver(ProcEngine& eng);

// Fans every mutation/injection/cycle out to several replicas (first entry
// is the primary: probes, metrics and traces use it). Barrier concurrency.
// The differential chaos-soak leg asserts divergence() == 0 after holding
// each replica to the Oracle.
class MultiDriverEngine final : public DriverEngine {
 public:
  explicit MultiDriverEngine(std::vector<DriverEngine*> replicas)
      : replicas_(std::move(replicas)) {}

  const char* name() const override { return "multi"; }
  Concurrency concurrency() const override { return Concurrency::kBarrier; }
  Graph& graph() override { return replicas_[0]->graph(); }
  Controller& controller() override { return replicas_[0]->controller(); }
  obs::MetricsRegistry& registry() override {
    return replicas_[0]->registry();
  }
  obs::TraceBuffer* trace() override { return replicas_[0]->trace(); }

  // Every replica runs the mutation; the stall is the primary's, the one
  // replica whose registry the driver writes.
  std::uint64_t mutate(std::span<const VertexId> vs,
                       const MutateFn& fn) override {
    const std::uint64_t stall = replicas_[0]->mutate(vs, fn);
    for (std::size_t i = 1; i < replicas_.size(); ++i)
      replicas_[i]->mutate(vs, fn);
    return stall;
  }
  void inject(Task t) override {
    for (DriverEngine* r : replicas_) r->inject(t);
  }
  void for_each_controller(
      const std::function<void(Controller&)>& fn) override {
    for (DriverEngine* r : replicas_) r->for_each_controller(fn);
  }
  void start_cycle(const CycleOptions& opt) override {
    for (DriverEngine* r : replicas_) r->start_cycle(opt);
  }
  void wait_cycle_done() override {
    for (DriverEngine* r : replicas_) r->wait_cycle_done();
  }
  void wait_quiescent() override {
    for (DriverEngine* r : replicas_) r->wait_quiescent();
  }

 private:
  std::vector<DriverEngine*> replicas_;
};

// ---- The session driver ----

struct SoakTotals {
  std::uint64_t opened = 0;      // sessions admitted
  std::uint64_t closed = 0;      // sessions retired
  std::uint64_t churn = 0;       // churn ops applied
  std::uint64_t rejected = 0;    // arrivals refused (store full)
  std::uint64_t mutator_ops = 0;  // timed mutations (stall samples)
  std::uint64_t cycles = 0;      // marking cycles completed during run()
  std::uint64_t divergence = 0;  // replica disagreements (fan-out mode)
};

class SessionDriver {
 public:
  SessionDriver(DriverEngine& eng, const WorkloadOptions& opt);

  // Allocate the per-PE anchors and the hot-key set, wire hot keys under
  // their PE's anchor, prewarm aux roots and install the anchor root set.
  // Call once, before any marking cycle.
  void setup();

  // Apply every schedule event whose tick == `tick` (no cycles).
  void apply_tick(const std::vector<SessionEvent>& schedule,
                  std::uint32_t tick);

  // Run the whole schedule: overlapped engines keep a cycle in flight
  // continuously; barrier engines cycle every opt.cycle_every ticks. Ends
  // with two drain cycles so all retired regions are swept. `on_cycle` (if
  // set) fires with the completed-cycle count whenever it advances — the
  // soak harness hangs health rollups and chaos injection off it.
  void run(const std::vector<SessionEvent>& schedule,
           const CycleOptions& copt = {},
           const std::function<void(std::uint64_t)>& on_cycle = {});

  // ---- Multi-user root management (usable without setup(): the adopted
  // roots alone then form the controller root set). ----
  void adopt_root(VertexId r);  // r joins the marking root set
  void close_root(VertexId r);  // r leaves it; its region becomes garbage

  std::size_t live_sessions() const { return sessions_.size(); }
  // Edges of the standing root set that cross a PE: the controller's union
  // root (an aux vertex on PE 0) holds one edge to each root, so every root
  // off PE 0 costs a remote mark and its return per M_R wave whatever the
  // sessions do. Coverage checks discount that traffic.
  std::size_t cross_pe_root_edges() const;
  const SoakTotals& totals() const { return totals_; }
  const std::vector<VertexId>& anchors() const { return anchors_; }
  const std::vector<VertexId>& hot_keys() const { return hot_; }
  DriverEngine& engine() { return eng_; }

 private:
  struct SessionRec {
    VertexId root;
    std::uint32_t open_tick = 0;
  };

  void open_session(const SessionEvent& ev);
  void churn_session(const SessionEvent& ev);
  void close_session(const SessionEvent& ev);
  // Submit one timed mutation: samples the controller phase, runs
  // eng_.mutate, records the stall histogram + phase attribution.
  void timed_mutate(PeId pe, std::span<const VertexId> vs,
                    const DriverEngine::MutateFn& fn);
  void push_roots();

  DriverEngine& eng_;
  WorkloadOptions opt_;
  std::vector<VertexId> anchors_;  // one per PE; the standing root set
  std::vector<VertexId> hot_;      // hot-key vertices, round-robin PEs
  std::vector<VertexId> adopted_;  // externally adopted roots (multi-user)
  std::unordered_map<std::uint64_t, SessionRec> sessions_;
  SoakTotals totals_;
  std::uint64_t cycles_at_start_ = 0;
  bool setup_done_ = false;
};

}  // namespace dgr::workload
