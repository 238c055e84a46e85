// The three workloads (perfbench/README.md says why each exists).
//
//   mark_thread      back-to-back M_R cycles on ThreadEngine, 2 PEs
//   mark_proc        back-to-back M_R cycles on ProcEngine, 2 workers
//   sessions_thread  open-loop session replay on ThreadEngine, 2 PEs
//
// Every workload sets up several times and keeps the last set-up for the
// measured run; every correctness check runs outside the timed region.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "graph/builder.h"
#include "graph/oracle.h"
#include "runtime/proc_engine.h"
#include "runtime/thread_engine.h"
#include "workload/session.h"

namespace perfbench {
namespace {

using dgr::Controller;
using dgr::CycleOptions;
using dgr::Graph;
using dgr::Oracle;
using dgr::PeId;
using dgr::Plane;
using dgr::ProcEngine;
using dgr::TaskRef;
using dgr::ThreadEngine;
using dgr::VertexId;
using dgr::obs::Counter;
namespace wl = dgr::workload;

constexpr std::uint32_t kPes = 2;        // PE threads / worker processes
constexpr int kSetupReps = 21;           // set-ups per run; median reported
constexpr std::size_t kMinCycles = 100;  // p90 needs ten samples beyond it
constexpr std::uint32_t kMarkThreadVertices = 1u << 13;
constexpr std::uint32_t kMarkProcVertices = 1u << 12;
constexpr double kSessionRate = 2.0;  // sessions per tick
constexpr std::uint32_t kSessionTicks = 10000;  // ticks per replay
constexpr auto kTickPeriod = std::chrono::milliseconds(1);
constexpr std::uint32_t kResidentEvery = 10;  // ticks between live samples

// Every per-layer metric with its unit. Each workload reports all of them;
// a metric of a layer the workload bypasses reads 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"workload.tick_service_us_p50", "us"},
    {"workload.tick_service_us_p99", "us"},
    {"workload.gen_lag_ms_max", "ms"},
    {"workload.op_latency_us_p99", "us"},
    {"workload.op_latency_us_p50.first10", "us"},
    {"workload.op_latency_us_p50.last10", "us"},
    {"workload.schedule_ms", "ms"},
    {"runtime.mutate_wait_us_p50", "us"},
    {"runtime.mutate_wait_us_p99", "us"},
    {"runtime.mutate_wait_us_max", "us"},
    {"runtime.inject_us_p99", "us"},
    {"runtime.pooled_tasks_end", "count"},
    {"runtime.cpu_ms_per_cycle", "ms"},
    {"runtime.steal_tasks_per_cycle", "count"},
    {"runtime.mailbox_high_water", "count"},
    {"runtime.backpressure_stalls_per_cycle", "count"},
    {"runtime.worker_cpu_ms_per_cycle", "ms"},
    {"runtime.controller_cpu_ms_per_cycle", "ms"},
    {"core.start_cycle_us", "us"},
    {"core.mark_tasks_per_cycle", "count"},
    {"core.return_tasks_per_cycle", "count"},
    {"core.marks_per_marked_vertex", "ratio"},
    {"core.mutate_body_us_p50", "us"},
    {"core.mutate_body_us_p99", "us"},
    {"core.cycle_ms_p50", "ms"},
    {"core.cycle_ms_p90", "ms"},
    {"core.swept_per_cycle", "count"},
    {"net.remote_msgs_per_cycle", "count"},
    {"net.bytes_per_cycle", "bytes"},
    {"net.boundary_dedup_per_cycle", "count"},
    {"net.msgs_per_batch", "count"},
    {"net.handoff_bytes_per_plane", "bytes"},
    {"net.handoff_full_frac", "ratio"},
    {"net.hub_frames_relayed_per_cycle", "count"},
    {"net.hub_bytes_per_cycle", "bytes"},
    {"graph.build_ms", "ms"},
    {"obs.bench_trace_overhead_pct", "%"},
    {"obs.telemetry_dropped", "count"},
    {"graph.span_self_pct", "%"},
    {"core.span_self_pct", "%"},
    {"runtime.span_self_pct", "%"},
    {"workload.span_self_pct", "%"},
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_since(a, b)) / 1e6;
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_since(a, b)) / 1e3;
}

// CPU time of this process (all threads), ms.
double self_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// utime + stime of another process from /proc/<pid>/stat, ms.
double proc_cpu_ms(long pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)),
                std::istreambuf_iterator<char>());
  const std::size_t rp = s.rfind(')');
  if (rp == std::string::npos) return 0;
  std::istringstream in(s.substr(rp + 2));
  std::string field;
  // Fields after the command name start at 3 (state); utime is field 14.
  for (int i = 3; i < 14 && in >> field; ++i) {
  }
  unsigned long long utime = 0, stime = 0;
  in >> utime >> stime;
  return static_cast<double>(utime + stime) * 1e3 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Registry counters sampled before and after the measured region.
struct CounterSnap {
  std::uint64_t c[dgr::obs::kNumCounters] = {};
  static CounterSnap of(const dgr::obs::MetricsRegistry& reg) {
    CounterSnap s;
    for (std::size_t i = 0; i < dgr::obs::kNumCounters; ++i)
      s.c[i] = reg.total(static_cast<Counter>(i));
    return s;
  }
  double delta(const CounterSnap& before, Counter k) const {
    const auto i = static_cast<std::size_t>(k);
    return static_cast<double>(c[i] - before.c[i]);
  }
};

// Per-cycle rates of the counters every engine keeps.
void engine_counters(RunResult& r, const CounterSnap& a, const CounterSnap& b,
                     double cycles) {
  auto& p = r.per_layer;
  p["runtime.steal_tasks_per_cycle"].value =
      b.delta(a, Counter::kStealTasks) / cycles;
  p["runtime.backpressure_stalls_per_cycle"].value =
      b.delta(a, Counter::kBackpressureStall) / cycles;
  p["core.mark_tasks_per_cycle"].value =
      b.delta(a, Counter::kMarkTasks) / cycles;
  p["core.return_tasks_per_cycle"].value =
      b.delta(a, Counter::kReturnTasks) / cycles;
  p["net.remote_msgs_per_cycle"].value =
      b.delta(a, Counter::kRemoteMessages) / cycles;
  p["net.bytes_per_cycle"].value = b.delta(a, Counter::kBytesSent) / cycles;
  p["net.boundary_dedup_per_cycle"].value =
      b.delta(a, Counter::kBoundaryDedup) / cycles;
  const double flushes = b.delta(a, Counter::kBatchFlush);
  p["net.msgs_per_batch"].value =
      flushes > 0 ? b.delta(a, Counter::kMsgBatched) / flushes : 0;
  p["obs.telemetry_dropped"].value =
      static_cast<double>(b.c[static_cast<std::size_t>(
          Counter::kTelemetryDropped)]);
}

// Compares every live vertex's R mark with the sequential Oracle.
template <class Engine>
std::size_t r_mark_mismatches(Engine& eng, const Graph& g,
                              const Oracle& o, std::size_t* marked) {
  std::size_t bad = 0, n = 0;
  g.for_each_live([&](VertexId v) {
    const bool m = eng.marker().is_marked(Plane::kR, v);
    if (m != o.in_R(v)) ++bad;
    if (m) ++n;
  });
  if (marked) *marked = n;
  return bad;
}

void check(RunResult& r, bool ok, const std::string& what) {
  r.notes.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
  if (!ok) r.correct = false;
}

// ---- mark_thread / mark_proc ----

std::unique_ptr<Graph> make_graph(std::uint32_t vertices, std::uint64_t seed,
                                  VertexId* root) {
  auto g = std::make_unique<Graph>(kPes, vertices / kPes + 64);
  for (PeId pe = 0; pe < kPes; ++pe) g->store(pe).set_fixed_capacity(true);
  dgr::RandomGraphOptions opt;
  opt.num_vertices = vertices;
  opt.avg_out_degree = 3.0;
  opt.p_detached = 0.2;
  opt.num_tasks = 0;
  opt.seed = seed;
  *root = dgr::build_random_graph(*g, opt).root;
  return g;
}

// Sleeps until the controller's cycle observer reports a cycle done, so the
// benchmark's thread does not spin a core in wait_cycle_done() while the PE
// threads, hub threads and workers need it. wait_cycle_done() is called
// afterwards and returns at once.
class CycleLatch {
 public:
  void on_cycle() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++done_;
    }
    cv_.notify_one();
  }
  std::uint64_t done() {
    std::lock_guard<std::mutex> lk(mu_);
    return done_;
  }
  // Returns once `target` cycles completed, or the controller went idle
  // without reporting one (an aborted cycle).
  void wait(std::uint64_t target, const Controller& ctl) {
    std::unique_lock<std::mutex> lk(mu_);
    while (done_ < target)
      if (!cv_.wait_for(lk, std::chrono::milliseconds(10),
                        [&] { return done_ >= target; }) &&
          ctl.idle())
        break;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t done_ = 0;
};

// What differs between the two engines of the mark_* workloads.
struct ThreadMark {
  using Engine = ThreadEngine;
  static std::unique_ptr<Engine> make(Graph& g, const RunConfig&) {
    return std::make_unique<Engine>(g);
  }
  static const char* start_span() { return "core.start_cycle"; }
  static void start_cycle(Engine& e, const CycleOptions& o) {
    e.controller().start_cycle(o);
  }
  static const dgr::obs::MetricsRegistry& reg(Engine& e) {
    return e.metrics_registry();
  }
  static std::uint64_t failures(Engine&) { return 0; }

  // The engine's own per-layer figures over the measured cycles: construct
  // before the first, report after the last.
  class Layer {
   public:
    explicit Layer(Engine&) : cpu0_(self_cpu_ms()) {}
    void report(Engine& e, RunResult& r, double cycles) const {
      auto& p = r.per_layer;
      p["runtime.cpu_ms_per_cycle"].value = (self_cpu_ms() - cpu0_) / cycles;
      p["runtime.mailbox_high_water"].value =
          static_cast<double>(e.stats().mailbox_high_water);
    }

   private:
    double cpu0_;
  };
};

struct ProcMark {
  using Engine = ProcEngine;
  static std::unique_ptr<Engine> make(Graph& g, const RunConfig& cfg) {
    dgr::ProcOptions opt;
    opt.workers = kPes;
    opt.worker_bin = cfg.worker_bin;
    // Loopback TCP: the engine's Unix-socket hub path is fixed under /tmp,
    // and the benchmark writes nothing outside its own tree.
    opt.tcp = true;
    return std::make_unique<Engine>(g, opt);
  }
  static const char* start_span() { return "runtime.start_cycle"; }
  static void start_cycle(Engine& e, const CycleOptions& o) {
    e.start_cycle(o);
  }
  static const dgr::obs::MetricsRegistry& reg(Engine& e) {
    return e.metrics();
  }
  static std::uint64_t failures(Engine& e) {
    return e.stats().recoveries + (e.failed() ? 1 : 0);
  }

  class Layer {
   public:
    explicit Layer(Engine& e)
        : worker_cpu0_(workers_cpu_ms(e)), ps0_(e.stats()),
          cpu0_(self_cpu_ms()) {}
    void report(Engine& e, RunResult& r, double cycles) const {
      const double cpu1 = self_cpu_ms();
      const dgr::ProcEngineStats ps1 = e.stats();
      auto& p = r.per_layer;
      p["runtime.worker_cpu_ms_per_cycle"].value =
          (workers_cpu_ms(e) - worker_cpu0_) / cycles;
      p["runtime.controller_cpu_ms_per_cycle"].value = (cpu1 - cpu0_) / cycles;
      const double planes =
          static_cast<double>(ps1.planes_started - ps0_.planes_started);
      const double handoffs =
          static_cast<double>(ps1.handoffs_sent - ps0_.handoffs_sent);
      p["net.handoff_bytes_per_plane"].value =
          planes > 0 ? static_cast<double>(ps1.handoff_bytes -
                                           ps0_.handoff_bytes) / planes
                     : 0;
      p["net.handoff_full_frac"].value =
          handoffs > 0 ? static_cast<double>(ps1.handoffs_full -
                                             ps0_.handoffs_full) / handoffs
                       : 0;
      p["net.hub_frames_relayed_per_cycle"].value =
          static_cast<double>(ps1.transport.frames_relayed -
                              ps0_.transport.frames_relayed) / cycles;
      p["net.hub_bytes_per_cycle"].value =
          static_cast<double>(ps1.transport.bytes_relayed -
                              ps0_.transport.bytes_relayed) / cycles;
    }

   private:
    static double workers_cpu_ms(Engine& e) {
      double ms = 0;
      for (std::uint32_t w = 0; w < kPes; ++w)
        ms += proc_cpu_ms(e.worker_pid(w));
      return ms;
    }
    double worker_cpu0_;
    dgr::ProcEngineStats ps0_;
    double cpu0_;
  };
};

template <class E>
RunResult run_mark(const RunConfig& cfg, Spans& spans,
                   std::uint32_t vertices) {
  using Engine = typename E::Engine;
  RunResult r;
  CycleLatch latch;  // declared first: it outlives the engine it observes
  std::unique_ptr<Graph> g;
  std::unique_ptr<Engine> eng;
  VertexId root;
  std::vector<double> setup_s, build_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (eng) {
      SpanScope s(spans, "runtime.engine_stop");
      eng->stop();
      eng.reset();
      g.reset();
    }
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope s(spans, "graph.build");
      g = make_graph(vertices, cfg.seed, &root);
    }
    const Clock::time_point t1 = Clock::now();
    {
      SpanScope s(spans, "runtime.engine_start");
      eng = E::make(*g, cfg);
      eng->set_root(root);
      eng->controller().set_cycle_observer(
          [&latch](const dgr::CycleResult&) { latch.on_cycle(); });
      eng->start();
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    build_ms.push_back(ms_between(t0, t1));
  }

  CycleOptions copt;
  copt.detect_deadlock = false;  // M_R only

  // Warm-up cycle, checked: it sweeps exactly the Oracle's garbage.
  {
    const Oracle o(*g, root, {});
    const std::uint64_t target = latch.done() + 1;
    E::start_cycle(*eng, copt);
    latch.wait(target, eng->controller());
    eng->wait_cycle_done();
    check(r, eng->controller().last().swept == o.count_GAR(),
          "first cycle swept " +
              std::to_string(eng->controller().last().swept) +
              " == Oracle |GAR| " + std::to_string(o.count_GAR()));
  }

  // After the warm-up sweep every live vertex is reachable, so no measured
  // cycle may sweep one, and the live count stays where it is.
  const std::size_t live = g->total_live();
  std::size_t swept = 0;
  std::vector<double> cycle_ms, start_us, resident;
  const CounterSnap c0 = CounterSnap::of(E::reg(*eng));
  const std::uint64_t fail0 = E::failures(*eng);
  const typename E::Layer layer(*eng);
  const Clock::time_point begin = Clock::now();
  const auto budget = std::chrono::duration<double>(cfg.seconds);
  while (cycle_ms.size() < kMinCycles || Clock::now() - begin < budget) {
    spans.set_cycle(eng->controller().cycles_completed() + 1);
    const std::uint64_t target = latch.done() + 1;
    const Clock::time_point a = Clock::now();
    {
      SpanScope s(spans, E::start_span());
      E::start_cycle(*eng, copt);
    }
    const Clock::time_point b = Clock::now();
    {
      SpanScope s(spans, "runtime.wait_cycle_done");
      latch.wait(target, eng->controller());
      eng->wait_cycle_done();
    }
    const Clock::time_point c = Clock::now();
    cycle_ms.push_back(ms_between(a, c));
    start_us.push_back(us_between(a, b));
    resident.push_back(static_cast<double>(g->total_live()));
    swept += eng->controller().last().swept;
  }
  const Clock::time_point end = Clock::now();
  const double n = static_cast<double>(cycle_ms.size());
  layer.report(*eng, r, n);
  const CounterSnap c1 = CounterSnap::of(E::reg(*eng));
  r.attempted = cycle_ms.size();
  r.failed = E::failures(*eng) - fail0;

  auto& p = r.per_layer;
  engine_counters(r, c0, c1, n);

  // Final checks, untimed: the graph has not changed since the warm-up
  // sweep, so the last cycle's R marks are exactly the Oracle's R.
  const auto moved = std::count_if(
      resident.begin(), resident.end(),
      [&](double x) { return x != static_cast<double>(live); });
  check(r, swept == 0 && moved == 0,
        "measured cycles swept " + std::to_string(swept) +
            " vertices (0 allowed); the live count moved off " +
            std::to_string(live) + " in " + std::to_string(moved) +
            " of them");
  std::size_t marked = 0;
  {
    const Oracle o(*g, root, {});
    const std::size_t bad = r_mark_mismatches(*eng, *g, o, &marked);
    check(r, bad == 0,
          "final R marks == Oracle in_R on every live vertex (" +
              std::to_string(bad) + " mismatches, " +
              std::to_string(marked) + " marked)");
  }
  check(r, r.failed == 0, "no failed or recovered cycle");
  {
    SpanScope s(spans, "runtime.engine_stop");
    eng->stop();
  }

  p["core.start_cycle_us"].value = median(start_us);
  p["core.marks_per_marked_vertex"].value =
      marked ? p["core.mark_tasks_per_cycle"].value /
                   static_cast<double>(marked)
             : 0;
  p["graph.build_ms"].value = median(build_ms);

  const double p50 = must_percentile(cycle_ms, 50, "cycle_ms");
  const double p90 = must_percentile(cycle_ms, 90, "cycle_ms");
  r.shown["cycle_ms_p50"] = {p50, "ms"};
  r.shown["cycle_ms_p90"] = {p90, "ms"};
  p["core.cycle_ms_p50"].value = p50;
  p["core.cycle_ms_p90"].value = p90;
  auto& e = r.end_to_end;
  // The user's operation here is a collection request, issued closed-loop:
  // each is due when the previous one completes, so its latency is the
  // cycle time.
  e["op_latency_us_p50"] = {p50 * 1e3, "us"};
  e["op_latency_us_p90"] = {p90 * 1e3, "us"};
  e["ops_per_s"] = {n / (ms_between(begin, end) / 1e3), "1/s"};
  e["resident_vertices_mean"] = {mean(resident), "count"};
  e["setup_s"] = {median(setup_s), "s"};
  r.context["vertices"] = std::to_string(vertices);
  r.context["cycles"] = std::to_string(cycle_ms.size());
  std::vector<TickSample> by_cycle;
  for (std::size_t i = 0; i < cycle_ms.size(); ++i)
    by_cycle.push_back({static_cast<std::uint32_t>(i), cycle_ms[i]});
  r.context["cycle_ms_p50_by_tenth"] =
      median_by_tenth(by_cycle, static_cast<std::uint32_t>(cycle_ms.size()));
  return r;
}

// ---- sessions_thread ----

// Forwards every call to the real DriverEngine and times it from outside:
// mutate() splits into the wait for the gate and stripes and the body that
// runs under them; each session op is timed from its tick's due time.
class TimedEngine final : public wl::DriverEngine {
 public:
  TimedEngine(wl::DriverEngine& inner, Spans& spans,
              std::chrono::microseconds delay)
      : inner_(inner), spans_(spans), delay_(delay) {}

  // Ops are recorded only between arm() and disarm() (not the fixture).
  void arm() { armed_ = true; }
  void disarm() { armed_ = false; }
  void set_tick(std::uint32_t tick, Clock::time_point due) {
    tick_ = tick;
    due_ = due;
  }

  const char* name() const override { return inner_.name(); }
  wl::Concurrency concurrency() const override {
    return inner_.concurrency();
  }
  Graph& graph() override { return inner_.graph(); }
  Controller& controller() override { return inner_.controller(); }
  dgr::obs::MetricsRegistry& registry() override { return inner_.registry(); }
  dgr::obs::TraceBuffer* trace() override { return inner_.trace(); }

  std::uint64_t mutate(std::span<const VertexId> vs,
                       const MutateFn& fn) override {
    const Clock::time_point entry = Clock::now();
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    Clock::time_point body0, body1;
    const std::uint64_t stall =
        inner_.mutate(vs, [&](Graph& g, dgr::Mutator& m) {
          body0 = Clock::now();
          fn(g, m);
          body1 = Clock::now();
        });
    const Clock::time_point done = Clock::now();
    if (armed_) {
      spans_.add("runtime.mutate_wait", entry, body0);
      spans_.add("core.mutate_body", body0, body1);
      wait_us.push_back(us_between(entry, body0));
      body_us.push_back(us_between(body0, body1));
      ops.push_back({tick_, us_between(due_, done)});
    }
    return stall;
  }
  void inject(dgr::Task t) override {
    const Clock::time_point a = Clock::now();
    inner_.inject(std::move(t));
    const Clock::time_point b = Clock::now();
    if (armed_) {
      spans_.add("runtime.inject", a, b);
      inject_us.push_back(us_between(a, b));
      ops.push_back({tick_, us_between(due_, b)});
    }
  }
  void for_each_controller(
      const std::function<void(Controller&)>& fn) override {
    inner_.for_each_controller(fn);
  }
  void pump(std::uint64_t n) override { inner_.pump(n); }
  void start_cycle(const CycleOptions& opt) override {
    // The controller numbers the cycle it starts cycles_completed() + 1.
    const std::uint64_t cycle = inner_.controller().cycles_completed() + 1;
    spans_.set_cycle(cycle);
    const Clock::time_point a = Clock::now();
    {
      std::lock_guard<std::mutex> lk(starts_mu_);
      if (starts_.size() <= cycle) starts_.resize(cycle + 1);
      starts_[cycle] = a;
    }
    {
      SpanScope s(spans_, "core.start_cycle");
      inner_.start_cycle(opt);
    }
    if (armed_) start_us.push_back(us_between(a, Clock::now()));
  }
  void wait_cycle_done() override {
    SpanScope s(spans_, "runtime.wait_cycle_done");
    inner_.wait_cycle_done();
  }
  void wait_quiescent() override {
    SpanScope s(spans_, "runtime.wait_quiescent");
    inner_.wait_quiescent();
  }

  // When cycle `cycle` was started. Keyed by number: the next cycle may
  // start before the observer of the last one has read its stamp.
  Clock::time_point started(std::uint64_t cycle) {
    std::lock_guard<std::mutex> lk(starts_mu_);
    return starts_.at(cycle);
  }

  std::vector<TickSample> ops;
  std::vector<double> wait_us, body_us, inject_us, start_us;

 private:
  wl::DriverEngine& inner_;
  Spans& spans_;
  std::chrono::microseconds delay_;
  bool armed_ = false;
  std::uint32_t tick_ = 0;
  Clock::time_point due_;
  std::mutex starts_mu_;
  std::vector<Clock::time_point> starts_;
};

// Non-aux live vertices per PE: the fixture's footprint, for the leak check.
std::vector<std::size_t> live_non_aux(const Graph& g) {
  std::vector<std::size_t> n(g.num_pes(), 0);
  g.for_each_live([&](VertexId v) { ++n[v.pe]; });
  return n;
}

// Everything one sessions_thread run measures, pooled over its replays.
struct SessionAcc {
  std::vector<TickSample> ops;
  std::vector<double> wait_us, body_us, inject_us, start_us;
  std::vector<double> tick_us, resident, cycle_ms, swept;
  std::vector<double> setup_s, schedule_ms;
  double replay_s = 0, lag_ms = 0, cpu_ms = 0, pooled = 0;
  std::uint64_t closed = 0, rejected = 0;
  CounterSnap counters;  // summed per-replay deltas
  double mailbox_high_water = 0;
};

// One replay of a freshly generated schedule on a fresh engine: set up
// kSetupReps times, replay every tick on the wall clock, drain, check.
void replay_sessions(const RunConfig& cfg, const wl::WorkloadOptions& wopt,
                     Spans& spans, RunResult& r, SessionAcc& acc) {
  const CycleOptions copt;  // M_T + M_R, as SessionDriver::run uses

  // Cycle ends, reported by the controller's observer on whichever thread
  // restructures; starts are stamped by TimedEngine::start_cycle.
  std::mutex obs_mu;
  std::vector<double> obs_cycle_ms, obs_swept;

  std::vector<wl::SessionEvent> schedule;
  std::unique_ptr<Graph> g;
  std::unique_ptr<ThreadEngine> eng;
  std::unique_ptr<wl::DriverEngine> inner;
  std::unique_ptr<TimedEngine> bench;
  std::unique_ptr<wl::SessionDriver> drv;
  std::vector<std::size_t> fixture;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (eng) {
      SpanScope s(spans, "runtime.engine_stop");
      eng->stop();
      drv.reset();
      bench.reset();
      inner.reset();
      eng.reset();
      g.reset();
    }
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope s(spans, "workload.generate_schedule");
      schedule = wl::generate_schedule(wopt);
    }
    acc.schedule_ms.push_back(ms_between(t0, Clock::now()));
    g = std::make_unique<Graph>(kPes, wl::required_capacity(wopt));
    eng = std::make_unique<ThreadEngine>(*g);
    inner = wl::make_driver(*eng);
    bench = std::make_unique<TimedEngine>(
        *inner, spans, std::chrono::microseconds(cfg.mutate_delay_us));
    drv = std::make_unique<wl::SessionDriver>(*bench, wopt);
    {
      SpanScope s(spans, "workload.setup");
      drv->setup();
    }
    for (PeId pe = 0; pe < kPes; ++pe) g->store(pe).set_fixed_capacity(true);
    fixture = live_non_aux(*g);
    TimedEngine* b = bench.get();
    eng->controller().set_cycle_observer([&, b](const dgr::CycleResult& res) {
      const Clock::time_point now = Clock::now();
      const double ms = ms_between(b->started(res.cycle), now);
      std::lock_guard<std::mutex> lk(obs_mu);
      obs_cycle_ms.push_back(ms);
      obs_swept.push_back(static_cast<double>(res.swept));
    });
    {
      SpanScope s(spans, "runtime.engine_start");
      eng->start();
    }
    acc.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  Controller& ctl = eng->controller();
  const std::uint32_t last_tick = schedule.empty() ? 0 : schedule.back().tick;
  const CounterSnap c0 = CounterSnap::of(eng->metrics_registry());
  const double cpu0 = self_cpu_ms();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  bench->arm();
  // The schedule's completions run past the horizon; replay them too, at
  // the same pace, as SessionDriver::run would.
  const double lag_ms = run_open_loop(
      t0, kTickPeriod, last_tick + 1,
      [&](std::uint32_t t, Clock::time_point due) {
        bench->set_tick(t, due);
        if (ctl.idle()) bench->start_cycle(copt);
        const Clock::time_point a = Clock::now();
        {
          SpanScope s(spans, "workload.apply_tick");
          drv->apply_tick(schedule, t);
        }
        acc.tick_us.push_back(us_between(a, Clock::now()));
        if (t % kResidentEvery == 0)
          inner->mutate({}, [&](Graph& rg, dgr::Mutator&) {
            acc.resident.push_back(static_cast<double>(rg.total_live()));
          });
      });
  bench->disarm();
  const Clock::time_point replay_end = Clock::now();
  // Drain as SessionDriver::run does: finish the cycle in flight (the last
  // one measured), then two more so every retired region is swept.
  bench->wait_cycle_done();
  const double cpu1 = self_cpu_ms();
  const CounterSnap c1 = CounterSnap::of(eng->metrics_registry());
  {
    std::lock_guard<std::mutex> lk(obs_mu);
    acc.cycle_ms.insert(acc.cycle_ms.end(), obs_cycle_ms.begin(),
                        obs_cycle_ms.end());
    acc.swept.insert(acc.swept.end(), obs_swept.begin(), obs_swept.end());
  }
  for (int i = 0; i < 2; ++i) {
    bench->start_cycle(copt);
    bench->wait_cycle_done();
  }
  bench->wait_quiescent();

  std::vector<TaskRef> refs;
  {
    SpanScope s(spans, "runtime.collect_task_refs");
    eng->collect_task_refs(refs);
  }

  // ---- Checks (untimed) ----
  const wl::SoakTotals& tot = drv->totals();
  check(r, drv->live_sessions() == 0 && tot.closed == tot.opened,
        "every session closed (" + std::to_string(tot.closed) + " of " +
            std::to_string(tot.opened) + ")");
  const std::vector<std::size_t> after = live_non_aux(*g);
  std::size_t leaked = 0;
  for (PeId pe = 0; pe < kPes; ++pe)
    if (after[pe] > fixture[pe]) leaked += after[pe] - fixture[pe];
  check(r, leaked == 0,
        "no leaked slot after drain (" + std::to_string(leaked) + ")");
  {
    const Oracle o(*g, ctl.marking_root(), refs);
    bench->start_cycle(copt);
    bench->wait_cycle_done();
    const std::size_t bad = r_mark_mismatches(*eng, *g, o, nullptr);
    check(r, ctl.last().swept == o.count_GAR() && bad == 0,
          "final sweep " + std::to_string(ctl.last().swept) +
              " == Oracle |GAR| " + std::to_string(o.count_GAR()) +
              ", R marks match (" + std::to_string(bad) + " mismatches)");
  }
  {
    SpanScope s(spans, "runtime.engine_stop");
    eng->stop();
  }

  acc.ops.insert(acc.ops.end(), bench->ops.begin(), bench->ops.end());
  for (auto [to, from] : {std::pair{&acc.wait_us, &bench->wait_us},
                          std::pair{&acc.body_us, &bench->body_us},
                          std::pair{&acc.inject_us, &bench->inject_us},
                          std::pair{&acc.start_us, &bench->start_us}})
    to->insert(to->end(), from->begin(), from->end());
  for (std::size_t i = 0; i < dgr::obs::kNumCounters; ++i)
    acc.counters.c[i] += c1.c[i] - c0.c[i];
  acc.replay_s += ms_between(t0, replay_end) / 1e3;
  acc.lag_ms = std::max(acc.lag_ms, lag_ms);
  acc.cpu_ms += cpu1 - cpu0;
  acc.pooled += static_cast<double>(refs.size());
  acc.closed += tot.closed;
  acc.rejected += tot.rejected;
  acc.mailbox_high_water =
      std::max(acc.mailbox_high_water,
               static_cast<double>(eng->stats().mailbox_high_water));
}

RunResult run_sessions(const RunConfig& cfg, Spans& spans) {
  RunResult r;
  wl::WorkloadOptions wopt;
  wopt.pes = kPes;
  wopt.rate = kSessionRate;
  // The run length is fixed by --seconds: that many seconds of ticks, in
  // replays of at most kSessionTicks each, so every replay drifts alike.
  wopt.ticks = static_cast<std::uint32_t>(std::min<double>(
      kSessionTicks,
      cfg.seconds * 1e3 / static_cast<double>(kTickPeriod.count())));
  const auto replays = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(cfg.seconds * 1000 / wopt.ticks + 0.5));
  SessionAcc acc;
  for (std::uint32_t i = 0; i < replays; ++i) {
    wopt.seed = cfg.seed + i * 0x9E3779B97F4A7C15ull;
    replay_sessions(cfg, wopt, spans, r, acc);
  }

  std::vector<double> lat;
  lat.reserve(acc.ops.size());
  for (const TickSample& o : acc.ops) lat.push_back(o.value);
  const double cycles = static_cast<double>(acc.cycle_ms.size());
  r.attempted = acc.ops.size();
  r.failed = acc.rejected;

  auto& e = r.end_to_end;
  e["op_latency_us_p50"] = {must_percentile(lat, 50, "op_latency"), "us"};
  e["op_latency_us_p90"] = {must_percentile(lat, 90, "op_latency"), "us"};
  e["ops_per_s"] = {static_cast<double>(acc.ops.size()) / acc.replay_s,
                    "1/s"};
  e["resident_vertices_mean"] = {mean(acc.resident), "count"};
  e["setup_s"] = {median(acc.setup_s), "s"};

  auto& p = r.per_layer;
  CounterSnap zero;
  engine_counters(r, zero, acc.counters, cycles);
  p["workload.tick_service_us_p50"].value =
      must_percentile(acc.tick_us, 50, "tick_service");
  p["workload.tick_service_us_p99"].value =
      must_percentile(acc.tick_us, 99, "tick_service");
  p["workload.gen_lag_ms_max"].value = acc.lag_ms;
  p["workload.op_latency_us_p99"].value =
      must_percentile(lat, 99, "op_latency");
  const std::vector<std::vector<double>> parts = tenths(acc.ops, wopt.ticks);
  p["workload.op_latency_us_p50.first10"].value =
      must_percentile(parts.front(), 50, "first10");
  p["workload.op_latency_us_p50.last10"].value =
      must_percentile(parts.back(), 50, "last10");
  p["workload.schedule_ms"].value = median(acc.schedule_ms);
  p["runtime.mutate_wait_us_p50"].value =
      must_percentile(acc.wait_us, 50, "mutate_wait");
  p["runtime.mutate_wait_us_p99"].value =
      must_percentile(acc.wait_us, 99, "mutate_wait");
  p["runtime.mutate_wait_us_max"].value =
      *std::max_element(acc.wait_us.begin(), acc.wait_us.end());
  p["runtime.inject_us_p99"].value =
      must_percentile(acc.inject_us, 99, "inject");
  p["runtime.pooled_tasks_end"].value = acc.pooled / replays;
  p["runtime.mailbox_high_water"].value = acc.mailbox_high_water;
  p["runtime.cpu_ms_per_cycle"].value = acc.cpu_ms / cycles;
  p["core.start_cycle_us"].value = median(acc.start_us);
  p["core.mutate_body_us_p50"].value =
      must_percentile(acc.body_us, 50, "mutate_body");
  p["core.mutate_body_us_p99"].value =
      must_percentile(acc.body_us, 99, "mutate_body");
  p["core.cycle_ms_p50"].value = must_percentile(acc.cycle_ms, 50, "cycle");
  p["core.cycle_ms_p90"].value = must_percentile(acc.cycle_ms, 90, "cycle");
  p["core.swept_per_cycle"].value = mean(acc.swept);

  // The drift across a replay: op-latency p50 per tenth of the horizon.
  r.context["op_latency_us_p50_by_tenth"] =
      median_by_tenth(acc.ops, wopt.ticks);
  r.context["replays"] = std::to_string(replays);
  r.context["ticks_per_replay"] = std::to_string(wopt.ticks);
  r.context["cycles"] = std::to_string(acc.cycle_ms.size());
  r.context["offered_sessions_per_s"] =
      std::to_string(kSessionRate * 1e9 /
                     static_cast<double>(
                         std::chrono::nanoseconds(kTickPeriod).count()));
  r.shown["sessions_per_s"] = {
      static_cast<double>(acc.closed) / acc.replay_s, "1/s"};
  return r;
}

RunResult run_once(const RunConfig& cfg, Spans& spans) {
  if (cfg.workload == "mark_thread")
    return run_mark<ThreadMark>(cfg, spans, kMarkThreadVertices);
  if (cfg.workload == "mark_proc")
    return run_mark<ProcMark>(cfg, spans, kMarkProcVertices);
  if (cfg.workload == "sessions_thread") return run_sessions(cfg, spans);
  throw std::runtime_error("unknown workload '" + cfg.workload + "'");
}

}  // namespace

RunResult run_workload(const RunConfig& cfg) {
  Spans off(false);
  RunResult plain = run_once(cfg, off);
  plain.context["pes"] = std::to_string(kPes);
  plain.context["workers"] =
      cfg.workload == "mark_proc" ? std::to_string(kPes) : "0";
  if (!cfg.trace) return plain;

  // The traced run: the same workload again with spans on. Per-layer
  // numbers come from it; the untraced run above is its reference.
  Spans spans(true);
  const Clock::time_point t0 = Clock::now();
  RunResult traced = run_once(cfg, spans);
  const double traced_ms = ms_between(t0, Clock::now());
  // Metrics of a layer this workload bypasses are added here, reading 0.
  for (const auto& [name, unit] : kPerLayer) traced.per_layer[name].unit = unit;
  const double base = plain.end_to_end.at("op_latency_us_p50").value;
  traced.per_layer["obs.bench_trace_overhead_pct"].value =
      (traced.end_to_end.at("op_latency_us_p50").value - base) / base * 100.0;
  const std::map<std::string, double> self = spans.self_ms_by_layer();
  for (const char* layer : {"graph", "core", "runtime", "workload"}) {
    const auto it = self.find(layer);
    traced.per_layer[std::string(layer) + ".span_self_pct"].value =
        it == self.end() ? 0 : it->second / traced_ms * 100.0;
  }
  if (!cfg.out_dir.empty()) {
    const std::string path = cfg.out_dir + "/spans_" + cfg.workload +
                             "_seed" + std::to_string(cfg.seed) + ".jsonl";
    if (spans.write_jsonl(path, cfg.workload + "/" + std::to_string(cfg.seed)))
      traced.context["spans_file"] = path;
  }
  traced.correct = plain.correct && traced.correct;
  traced.notes.insert(traced.notes.begin(), plain.notes.begin(),
                      plain.notes.end());
  traced.attempted += plain.attempted;
  traced.failed += plain.failed;
  traced.context.insert(plain.context.begin(), plain.context.end());
  return traced;
}

}  // namespace perfbench
