#include "workload/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "runtime/proc_engine.h"
#include "runtime/sim_engine.h"
#include "runtime/thread_engine.h"
#include "util/rng.h"

namespace dgr::workload {

namespace {

// Poisson sample. Knuth's product method for small means; a clamped normal
// approximation above it so soak-scale rates stay O(1) per tick.
std::uint32_t poisson(Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    const double u1 = std::max(rng.uniform01(), 1e-12);
    const double u2 = rng.uniform01();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double v = mean + std::sqrt(mean) * z;
    return v < 0.0 ? 0u : static_cast<std::uint32_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double p = 1.0;
  std::uint32_t k = 0;
  do {
    ++k;
    p *= rng.uniform01();
  } while (p > limit);
  return k - 1;
}

// Zipf(s) CDF over [0, n): weight(i) = 1/(i+1)^s. s == 0 is uniform.
std::vector<double> zipf_cdf(std::uint32_t n, double s) {
  std::vector<double> cdf(n ? n : 1, 1.0);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::uint32_t zipf_pick(Rng& rng, const std::vector<double>& cdf) {
  const double u = rng.uniform01();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf.begin(),
                               static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

std::uint32_t uniform_in(Rng& rng, std::uint32_t lo, std::uint32_t hi) {
  if (hi < lo) hi = lo;
  return static_cast<std::uint32_t>(rng.range(lo, hi));
}

}  // namespace

std::vector<SessionEvent> generate_schedule(const WorkloadOptions& opt) {
  // Independent substreams so the arrival process, session shapes and churn
  // draws don't perturb each other across option changes.
  Rng arrive_rng = Rng::substream(opt.seed, 0xA221);
  Rng shape_rng = Rng::substream(opt.seed, 0x54A9);
  Rng churn_rng = Rng::substream(opt.seed, 0xC442);
  const std::vector<double> cdf = zipf_cdf(std::max(1u, opt.hot_keys),
                                           opt.zipf_s);

  std::vector<SessionEvent> out;
  std::vector<std::uint64_t> live;  // session ids, arrival order
  // Completions indexed by due tick (horizon + max lifetime bounds it).
  std::vector<std::vector<std::uint64_t>> due(
      static_cast<std::size_t>(opt.ticks) + opt.lifetime_max + 2);
  std::uint64_t next_session = 0;

  for (std::uint32_t t = 0; t < due.size(); ++t) {
    if (t >= opt.ticks && live.empty()) break;

    // 1. Completions due this tick (they free admission slots first).
    for (std::uint64_t s : due[t]) {
      SessionEvent ev;
      ev.tick = t;
      ev.kind = EventKind::kComplete;
      ev.session = s;
      out.push_back(ev);
      live.erase(std::find(live.begin(), live.end(), s));
    }

    // 2. Arrivals (only inside the horizon). Admission over max_live is
    //    enforced here, at generation time, so the load cap is part of the
    //    deterministic schedule; overflow arrivals are simply not emitted.
    if (t < opt.ticks) {
      double rate = opt.rate;
      if (opt.arrivals == Arrivals::kBursty && opt.burst_period &&
          t % opt.burst_period < opt.burst_len)
        rate *= opt.burst_factor;
      const std::uint32_t n = poisson(arrive_rng, rate);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (live.size() >= opt.max_live) break;
        SessionEvent ev;
        ev.tick = t;
        ev.kind = EventKind::kArrive;
        ev.session = next_session++;
        ev.hot = zipf_pick(shape_rng, cdf);
        ev.depth = uniform_in(shape_rng, opt.depth_min, opt.depth_max);
        ev.fanout = uniform_in(shape_rng, opt.fanout_min, opt.fanout_max);
        ev.lifetime =
            std::max(1u, uniform_in(shape_rng, opt.lifetime_min,
                                    opt.lifetime_max));
        out.push_back(ev);
        live.push_back(ev.session);
        due[std::min<std::size_t>(t + ev.lifetime, due.size() - 1)].push_back(
            ev.session);
      }
    }

    // 3. Churn over the sessions live after this tick's arrivals.
    if (!live.empty()) {
      const std::uint32_t ops =
          poisson(churn_rng, opt.churn_per_tick *
                                 static_cast<double>(live.size()));
      for (std::uint32_t i = 0; i < ops; ++i) {
        SessionEvent ev;
        ev.tick = t;
        ev.kind = EventKind::kChurn;
        ev.session = live[churn_rng.below(live.size())];
        ev.op = static_cast<ChurnOp>(
            churn_rng.below(static_cast<std::uint64_t>(ChurnOp::kCount_)));
        ev.hot = zipf_pick(churn_rng, cdf);
        out.push_back(ev);
      }
    }
  }
  return out;
}

std::uint32_t required_capacity(const WorkloadOptions& opt) {
  const std::uint64_t per_session =
      1 + static_cast<std::uint64_t>(opt.depth_max) * opt.fanout_max;
  const std::uint64_t live = per_session * opt.max_live;
  // Live sessions plus `capacity_slack` further multiples for retired
  // regions awaiting their sweep, divided across the PEs (session vertices
  // round-robin, so the load is even).
  const std::uint64_t churn =
      live * (1 + std::max(1u, opt.capacity_slack)) / std::max(1u, opt.pes);
  // Anchor + hot-key share + aux roots (taskroot/uroot/troot) + headroom.
  const std::uint64_t fixed = 1 + (opt.hot_keys + opt.pes - 1) / opt.pes + 4;
  return static_cast<std::uint32_t>(fixed + churn + 16);
}

// ---- Engine adapters ----

namespace {

std::uint64_t ns_between(std::chrono::steady_clock::time_point t0,
                         std::chrono::steady_clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

class SimDriverEngine final : public DriverEngine {
 public:
  explicit SimDriverEngine(SimEngine& eng) : eng_(eng) {}
  const char* name() const override { return "sim"; }
  Concurrency concurrency() const override { return Concurrency::kOverlapped; }
  Graph& graph() override { return eng_.graph(); }
  Controller& controller() override { return eng_.controller(); }
  obs::MetricsRegistry& registry() override {
    return eng_.metrics_registry();
  }
  obs::TraceBuffer* trace() override { return eng_.trace(); }

  std::uint64_t mutate(std::span<const VertexId>,
                       const MutateFn& fn) override {
    // Single-threaded discrete-event world: the driver IS the mutator task,
    // atomic by construction, and never blocks.
    fn(eng_.graph(), eng_.mutator());
    return 0;
  }
  void inject(Task t) override { eng_.spawn(std::move(t)); }
  void pump(std::uint64_t n) override { eng_.run(n); }
  void start_cycle(const CycleOptions& opt) override {
    eng_.controller().start_cycle(opt);
  }
  void wait_cycle_done() override {
    if (!eng_.controller().idle()) eng_.run_until_cycle_done();
  }
  void wait_quiescent() override { eng_.run(); }

 private:
  SimEngine& eng_;
};

class ThreadDriverEngine final : public DriverEngine {
 public:
  explicit ThreadDriverEngine(ThreadEngine& eng) : eng_(eng) {}
  const char* name() const override { return "thread"; }
  Concurrency concurrency() const override { return Concurrency::kOverlapped; }
  Graph& graph() override { return eng_.graph(); }
  Controller& controller() override { return eng_.controller(); }
  obs::MetricsRegistry& registry() override {
    return eng_.metrics_registry();
  }
  obs::TraceBuffer* trace() override { return eng_.trace(); }

  std::uint64_t mutate(std::span<const VertexId> vs,
                       const MutateFn& fn) override {
    // The stall sample: time from submission to fn entry — the wait for the
    // mutation gate (held exclusively through restructuring) plus the
    // touch set's stripe locks, i.e. exactly the time this op was blocked
    // on collector cooperation. The section also covers allocation: the
    // gate excludes the sweep, so a fresh unreachable vertex cannot be
    // reclaimed before expand_node shades it.
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t stall = 0;
    eng_.atomically(vs, [&] {
      stall = ns_between(t0, std::chrono::steady_clock::now());
      fn(eng_.graph(), eng_.mutator());
    });
    return stall;
  }
  void inject(Task t) override { eng_.inject(std::move(t)); }
  void start_cycle(const CycleOptions& opt) override {
    eng_.controller().start_cycle(opt);
  }
  void wait_cycle_done() override { eng_.wait_cycle_done(); }
  void wait_quiescent() override { eng_.wait_quiescent(); }

 private:
  ThreadEngine& eng_;
};

class ProcDriverEngine final : public DriverEngine {
 public:
  explicit ProcDriverEngine(ProcEngine& eng) : eng_(eng) {}
  const char* name() const override { return "proc"; }
  Concurrency concurrency() const override { return Concurrency::kBarrier; }
  Graph& graph() override { return eng_.graph(); }
  Controller& controller() override { return eng_.controller(); }
  obs::MetricsRegistry& registry() override {
    // The controller-side merged registry is const-only; driver-side
    // counters live there too, so cast away the read-only facade.
    return const_cast<obs::MetricsRegistry&>(eng_.metrics());
  }
  obs::TraceBuffer* trace() override { return eng_.trace(); }

  std::uint64_t mutate(std::span<const VertexId> vs,
                       const MutateFn& fn) override {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t stall = 0;
    eng_.atomically(vs, [&] {
      stall = ns_between(t0, std::chrono::steady_clock::now());
      fn(eng_.graph(), eng_.mutator());
    });
    return stall;
  }
  void inject(Task t) override { eng_.inject(std::move(t)); }
  void start_cycle(const CycleOptions& opt) override {
    // The engine wrapper, not controller().start_cycle(): it excludes the
    // membership-recovery path from racing task-root construction.
    eng_.start_cycle(opt);
  }
  void wait_cycle_done() override { eng_.wait_cycle_done(); }
  void wait_quiescent() override { eng_.wait_quiescent(); }

 private:
  ProcEngine& eng_;
};

}  // namespace

std::unique_ptr<DriverEngine> make_driver(SimEngine& eng) {
  return std::make_unique<SimDriverEngine>(eng);
}
std::unique_ptr<DriverEngine> make_driver(ThreadEngine& eng) {
  return std::make_unique<ThreadDriverEngine>(eng);
}
std::unique_ptr<DriverEngine> make_driver(ProcEngine& eng) {
  return std::make_unique<ProcDriverEngine>(eng);
}

// ---- SessionDriver ----

SessionDriver::SessionDriver(DriverEngine& eng, const WorkloadOptions& opt)
    : eng_(eng), opt_(opt) {}

void SessionDriver::setup() {
  const std::uint32_t pes = eng_.graph().num_pes();
  anchors_.clear();
  hot_.clear();
  // The fixture rides the fan-out mutate so every replica builds it in its
  // own store; identical presized free lists make the ids agree (verified —
  // a mismatch is the same replica-divergence signal open_session uses).
  eng_.mutate({}, [&](Graph& g, Mutator&) {
    std::vector<VertexId> anchors, hot;
    anchors.reserve(pes);
    for (PeId pe = 0; pe < pes; ++pe) {
      const VertexId a = g.alloc(pe, OpCode::kData);
      DGR_ASSERT(a.valid());
      anchors.push_back(a);
    }
    hot.reserve(opt_.hot_keys);
    for (std::uint32_t k = 0; k < opt_.hot_keys; ++k) {
      const PeId pe = k % pes;
      const VertexId v = g.alloc(pe, OpCode::kData);
      DGR_ASSERT(v.valid());
      // The owning anchor retains every hot key permanently — that standing
      // reference is what makes acquire_reference(root, hot, k) legal for any
      // session (§3.2: the sender's retained edges keep c reachable).
      connect(g, anchors[pe], v);
      hot.push_back(v);
    }
    if (anchors_.empty()) {
      anchors_ = std::move(anchors);
      hot_ = std::move(hot);
    } else if (anchors_ != anchors || hot_ != hot) {
      ++totals_.divergence;
    }
  });
  // Aux roots (taskroots, uroot, troot) up front: allocating them lazily
  // mid-cycle would grow slot vectors under running PE threads.
  eng_.for_each_controller([](Controller& c) { c.prewarm_aux_roots(); });
  push_roots();
  setup_done_ = true;
}

void SessionDriver::push_roots() {
  std::vector<VertexId> roots = anchors_;
  roots.insert(roots.end(), adopted_.begin(), adopted_.end());
  eng_.for_each_controller([&](Controller& c) { c.set_roots(roots); });
}

void SessionDriver::adopt_root(VertexId r) {
  adopted_.push_back(r);
  push_roots();
}

void SessionDriver::close_root(VertexId r) {
  adopted_.erase(std::find(adopted_.begin(), adopted_.end(), r));
  push_roots();
}

std::size_t SessionDriver::cross_pe_root_edges() const {
  if (anchors_.size() + adopted_.size() < 2) return 0;  // no union root
  std::size_t n = 0;
  for (VertexId r : anchors_) n += r.pe != 0;
  for (VertexId r : adopted_) n += r.pe != 0;
  return n;
}

void SessionDriver::timed_mutate(PeId pe, std::span<const VertexId> vs,
                                 const DriverEngine::MutateFn& fn) {
  // Attribute the stall to the collector phase at submission: idle (no
  // cycle), mark (a plane is tracing) or quiesce (restructuring due/running
  // — the phase that takes the mutation gate exclusively).
  Controller& ctl = eng_.controller();
  const obs::Counter bucket =
      ctl.restructure_due() ? obs::Counter::kMutatorStallQuiesceNs
      : ctl.idle()          ? obs::Counter::kMutatorStallIdleNs
                            : obs::Counter::kMutatorStallMarkNs;
  const std::uint64_t ns = eng_.mutate(vs, fn);
  obs::MetricsRegistry& reg = eng_.registry();
  reg.add(pe, obs::Counter::kMutatorOps);
  reg.add(pe, bucket, ns);
  reg.observe(pe, obs::Hist::kMutatorStallUs, static_cast<double>(ns) / 1e3);
  ++totals_.mutator_ops;
}

void SessionDriver::open_session(const SessionEvent& ev) {
  Graph& g = eng_.graph();
  const std::uint32_t pes = g.num_pes();
  const PeId pe = static_cast<PeId>(ev.session % pes);
  const VertexId anchor = anchors_[pe];
  const VertexId hotv = hot_[ev.hot % hot_.size()];

  // In fan-out mode fn runs once per replica; each replica's alloc stream
  // must agree (identical free lists), which roots_seen verifies.
  std::vector<VertexId> roots_seen;
  const VertexId locks[2] = {anchor, hotv};
  timed_mutate(pe, locks, [&](Graph& rg, Mutator& m) {
    std::vector<VertexId> fresh;
    fresh.reserve(1 + static_cast<std::size_t>(ev.depth) * ev.fanout);
    const VertexId root = rg.alloc(pe, OpCode::kData);
    if (!root.valid()) {
      roots_seen.push_back(VertexId::invalid());
      return;
    }
    fresh.push_back(root);
    // depth levels of fanout vertices, spread over the PEs so session
    // subgraphs cross partition boundaries (the cross-PE marking traffic a
    // real request graph generates).
    std::vector<VertexId> prev{root};
    std::vector<VertexId> level;
    bool full = false;
    for (std::uint32_t l = 0; l < ev.depth && !full; ++l) {
      level.clear();
      const PeId lpe = static_cast<PeId>((pe + 1 + l) % pes);
      for (std::uint32_t i = 0; i < ev.fanout; ++i) {
        const VertexId v = rg.alloc(lpe, OpCode::kData);
        if (!v.valid()) {
          full = true;
          break;
        }
        fresh.push_back(v);
        // Fresh-to-fresh wiring may go direct: nothing is reachable yet.
        connect(rg, prev[i % prev.size()], v);
        level.push_back(v);
      }
      prev = level;
    }
    if (full) {
      // Partial subgraph: the orphans are unmarked and unreachable, so the
      // next sweep returns them to F. Report the rejection and stop.
      roots_seen.push_back(VertexId::invalid());
      return;
    }
    // Fig 4-2: shade the fresh subgraph per the anchor's color.
    m.expand_node(anchor, fresh);
    // The leaf touches the shared hot key via the acquired-reference path:
    // hotv hangs under a *different* PE's anchor, so this session's chain
    // holds no transient helper for it — when the leaf is already marked the
    // cooperation must queue a rescue rather than splice (cooperation.cpp).
    // This is the last write to a fresh vertex, and it comes before the
    // attach: only {anchor, hotv} are locked, so once the entry is wired a
    // PE thread may be marking the fresh subgraph.
    m.acquire_reference(prev[0], hotv, ReqKind::kNone);
    // Attach the entry through the cooperating add.
    const VertexId chain[1] = {anchor};
    m.add_reference_via(anchor, chain, root, ReqKind::kVital);
    roots_seen.push_back(root);
  });

  for (std::size_t i = 1; i < roots_seen.size(); ++i)
    if (roots_seen[i] != roots_seen[0]) ++totals_.divergence;

  obs::MetricsRegistry& reg = eng_.registry();
  if (roots_seen.empty() || !roots_seen[0].valid()) {
    ++totals_.rejected;
    reg.add(pe, obs::Counter::kSessionsRejected);
    return;
  }
  sessions_.emplace(ev.session, SessionRec{roots_seen[0], ev.tick});
  ++totals_.opened;
  reg.add(pe, obs::Counter::kSessionsOpened);
  DGR_TRACE_EVENT(eng_.trace(), obs::EventType::kSessionOpen, Plane::kR,
                  static_cast<std::uint16_t>(pe), 0, ev.session,
                  1 + static_cast<std::uint64_t>(ev.depth) * ev.fanout);
}

void SessionDriver::churn_session(const SessionEvent& ev) {
  const auto it = sessions_.find(ev.session);
  if (it == sessions_.end()) return;  // rejected or already retired
  Graph& g = eng_.graph();
  const VertexId root = it->second.root;
  const PeId pe = root.pe;
  const VertexId hotv = hot_[ev.hot % hot_.size()];

  bool applied = false;
  switch (ev.op) {
    case ChurnOp::kAcquireHot: {
      // The hot key arrives as a value (no access chain): the acquired-
      // reference path, legal because the anchor retains it.
      const VertexId locks[2] = {root, hotv};
      timed_mutate(pe, locks, [&](Graph&, Mutator& m) {
        m.acquire_reference(root, hotv, ReqKind::kEager);
      });
      applied = true;
      break;
    }
    case ChurnOp::kDropHot: {
      // Probe on the primary replica; identical connectivity on every
      // replica makes the probe outcome shared.
      if (g.at(root).arg_index(hotv) < 0) break;
      const VertexId locks[2] = {root, hotv};
      timed_mutate(pe, locks, [&](Graph&, Mutator& m) {
        m.delete_reference(root, hotv);
      });
      applied = true;
      break;
    }
    case ChurnOp::kRewire: {
      const auto& args = g.at(root).args;
      if (args.empty()) break;
      // Deterministic index pick: a hash of schedule facts over a replica-
      // agreed size, so every replica deletes the same edge.
      const std::size_t idx =
          (ev.session * 1315423911ull + ev.tick * 2654435761ull) %
          args.size();
      const VertexId target = args[idx].to;
      const VertexId locks[2] = {root, target};
      timed_mutate(pe, locks, [&](Graph&, Mutator& m) {
        m.delete_reference_at(root, idx);
      });
      applied = true;
      break;
    }
    case ChurnOp::kInjectTask: {
      // A pending request task root → hot key: task-reachability workload
      // for M_T. IRR' is keyed on the destination, and a hot key is always
      // reachable, so the task is never expunged; on engines that execute
      // no reduction tasks (Thread, Proc) it stays pooled for the run.
      eng_.inject(Task::request(root, hotv,
                                ev.hot % 2 ? ReqKind::kVital
                                           : ReqKind::kEager));
      applied = true;
      break;
    }
    case ChurnOp::kCount_:
      break;
  }
  if (!applied) return;
  ++totals_.churn;
  eng_.registry().add(pe, obs::Counter::kSessionChurnOps);
  DGR_TRACE_EVENT(eng_.trace(), obs::EventType::kSessionChurn, Plane::kR,
                  static_cast<std::uint16_t>(pe), 0, ev.session,
                  (static_cast<std::uint64_t>(ev.op) << 32) | ev.hot);
}

void SessionDriver::close_session(const SessionEvent& ev) {
  const auto it = sessions_.find(ev.session);
  if (it == sessions_.end()) return;
  const VertexId root = it->second.root;
  const PeId pe = root.pe;
  const VertexId anchor = anchors_[pe];
  const std::uint32_t lived = ev.tick - it->second.open_tick;

  const VertexId locks[2] = {anchor, root};
  timed_mutate(pe, locks, [&](Graph&, Mutator& m) {
    // Dropping the anchor edge retires the whole region: everything below
    // root not otherwise anchored joins GAR at the next cycle.
    m.delete_reference(anchor, root);
  });
  sessions_.erase(it);
  ++totals_.closed;
  eng_.registry().add(pe, obs::Counter::kSessionsClosed);
  DGR_TRACE_EVENT(eng_.trace(), obs::EventType::kSessionClose, Plane::kR,
                  static_cast<std::uint16_t>(pe), 0, ev.session, lived);
}

void SessionDriver::apply_tick(const std::vector<SessionEvent>& schedule,
                               std::uint32_t tick) {
  const auto first = std::lower_bound(
      schedule.begin(), schedule.end(), tick,
      [](const SessionEvent& e, std::uint32_t t) { return e.tick < t; });
  for (auto it = first; it != schedule.end() && it->tick == tick; ++it) {
    switch (it->kind) {
      case EventKind::kArrive: open_session(*it); break;
      case EventKind::kChurn: churn_session(*it); break;
      case EventKind::kComplete: close_session(*it); break;
    }
  }
}

void SessionDriver::run(const std::vector<SessionEvent>& schedule,
                        const CycleOptions& copt,
                        const std::function<void(std::uint64_t)>& on_cycle) {
  DGR_ASSERT(setup_done_);
  Controller& ctl = eng_.controller();
  cycles_at_start_ = ctl.cycles_completed();
  std::uint64_t last_seen = cycles_at_start_;
  const auto tick_cycles = [&] {
    const std::uint64_t cc = ctl.cycles_completed();
    if (cc != last_seen && on_cycle) on_cycle(cc);
    last_seen = cc;
  };
  const std::uint32_t last_tick =
      schedule.empty() ? 0 : schedule.back().tick;

  if (eng_.concurrency() == Concurrency::kOverlapped) {
    // Keep a cycle in flight continuously: mutations overlap the marking
    // wave, which is where cooperation (and mutator stall) happens. Ticks
    // are not paced in wall time, so on a fast engine the whole schedule can
    // fit inside the cycle that began before the first session opened, and
    // no cycle would trace a session. Hence the hold at the arrival horizon:
    // unless a cycle started with sessions live has completed by then,
    // finish the cycle in flight and run one over the sessions still open.
    const std::uint32_t hold_tick = std::min(opt_.ticks, last_tick);
    std::uint64_t covered_at = UINT64_MAX;  // cycles_completed() once covered
    for (std::uint32_t t = 0; t <= last_tick; ++t) {
      if (t == hold_tick && !sessions_.empty() &&
          ctl.cycles_completed() < covered_at) {
        eng_.wait_cycle_done();
        tick_cycles();
        eng_.start_cycle(copt);
        eng_.wait_cycle_done();
        tick_cycles();
      }
      if (ctl.idle()) {
        if (!sessions_.empty())
          covered_at = std::min(covered_at, ctl.cycles_completed() + 1);
        eng_.start_cycle(copt);
      }
      apply_tick(schedule, t);
      eng_.pump(opt_.sim_steps_per_tick);
      tick_cycles();
    }
    eng_.wait_cycle_done();
    tick_cycles();
  } else {
    // Barrier discipline: mutate between cycles only.
    const std::uint32_t every = std::max(1u, opt_.cycle_every);
    for (std::uint32_t t = 0; t <= last_tick; ++t) {
      apply_tick(schedule, t);
      if ((t + 1) % every == 0) {
        eng_.start_cycle(copt);
        eng_.wait_cycle_done();
        tick_cycles();
      }
    }
  }
  // Two drain cycles: the first sweeps regions retired since the last
  // wave's snapshot, the second catches references the first wave's
  // cooperation kept alive conservatively.
  for (int i = 0; i < 2; ++i) {
    eng_.start_cycle(copt);
    eng_.wait_cycle_done();
    tick_cycles();
  }
  eng_.wait_quiescent();
  totals_.cycles += ctl.cycles_completed() - cycles_at_start_;
}

}  // namespace dgr::workload
