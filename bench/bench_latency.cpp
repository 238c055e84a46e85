// E16 — Message latency (the distributed-machine regime, §2: PEs
// "communicating via messages").
//
// Sweep the cross-PE delivery delay and measure its effect on (a) a marking
// cycle over a static graph and (b) a full reduction run with continuous
// collection. Measured shape: the abundant task parallelism of diffused
// graph reduction HIDES latency — there is almost always executable work on
// every PE, so executed-step spans stay flat while messages sit in flight —
// and correctness is untouched (the in-transit accounting absorbs arbitrary
// flight times). This latency tolerance is exactly the §1 argument for the
// "completely homogeneous, diffused" computation model.
#include <atomic>
#include <span>
#include <thread>

#include "bench/bench_common.h"
#include "net/frame.h"
#include "net/mailbox.h"
#include "net/wire.h"
#include "runtime/thread_engine.h"

namespace dgr::bench {
namespace {

struct MarkRow {
  std::uint64_t marks;
  std::uint64_t span;  // simulated step span of the cycle
  double lat_p50 = 0;  // observed delivery latency (sim steps)
  double lat_p99 = 0;
};

MarkRow run_mark(std::uint32_t latency, std::uint64_t seed) {
  Graph g(8);
  RandomGraphOptions opt;
  opt.num_vertices = 20000;
  opt.seed = seed;
  const BuiltGraph b = build_random_graph(g, opt);
  SimOptions sopt;
  sopt.seed = seed;
  sopt.max_latency = latency;
  SimEngine eng(g, sopt);
  eng.set_root(b.root);
  const std::uint64_t t0 = eng.steps();
  eng.controller().start_cycle(CycleOptions{false});
  eng.run_until_cycle_done();
  MarkRow r;
  r.marks = eng.controller().last().stats_r.marks;
  r.span = eng.steps() - t0;
  const Histogram lat =
      eng.metrics_registry().merged_hist(obs::Hist::kMsgLatency);
  r.lat_p50 = lat.p50();
  r.lat_p99 = lat.p99();
  return r;
}

struct RunRow {
  std::int64_t result;
  std::uint64_t reduction;
  std::uint64_t span;
};

RunRow run_fib(std::uint32_t latency, std::uint64_t seed) {
  SimOptions sopt;
  sopt.max_latency = latency;
  SimRig rig(4, seed, sopt);
  rig.load(std::string(kFib) + "def main() = fib(13);");
  rig.eng.controller().set_continuous(true, CycleOptions{false});
  rig.eng.controller().start_cycle(CycleOptions{false});
  while (!rig.machine->result_of(rig.root).has_value()) {
    if (!rig.eng.step()) break;
  }
  rig.eng.controller().set_continuous(false);
  RunRow r;
  const auto res = rig.machine->result_of(rig.root);
  r.result = res ? res->as_int() : -1;
  r.reduction = rig.eng.metrics_registry().total(obs::Counter::kReductionTasks);
  r.span = rig.eng.steps();
  return r;
}

void table() {
  print_header("E16: cross-PE message latency",
               "§1/§2 message-passing model",
               "task parallelism hides latency: work and executed-step span "
               "stay flat across delays; results and GC stay correct");
  std::printf("marking cycle, 20k-vertex graph:\n");
  std::printf("   %8s %12s %12s %10s %10s\n", "latency", "mark_msgs",
              "step_span", "lat_p50", "lat_p99");
  for (std::uint32_t lat : {0u, 2u, 8u, 32u}) {
    const MarkRow r = run_mark(lat, 7);
    std::printf("   %8u %12llu %12llu %10.1f %10.1f\n", lat,
                (unsigned long long)r.marks, (unsigned long long)r.span,
                r.lat_p50, r.lat_p99);
  }
  std::printf("\nfib(13) under continuous collection:\n");
  std::printf("   %8s %10s %12s %12s\n", "latency", "result", "reduction",
              "step_span");
  for (std::uint32_t lat : {0u, 2u, 8u, 32u}) {
    const RunRow r = run_fib(lat, 3);
    std::printf("   %8u %10lld %12llu %12llu\n", lat, (long long)r.result,
                (unsigned long long)r.reduction, (unsigned long long)r.span);
  }
}

void BM_MarkCycleLatency(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_mark(static_cast<std::uint32_t>(state.range(0)), seed++).marks);
}
BENCHMARK(BM_MarkCycleLatency)->Arg(0)->Arg(8)->Unit(benchmark::kMillisecond);

// Cross-PE task throughput through the threaded engine's message-plane hot
// path: a sender thread wire-encodes marking tasks and a receiver thread
// decodes them, pumped through a real Mailbox exactly the way the PE loops
// do it.
//   arg 0 — one task per message: a batch of one per deliver(), one queue
//           lock and one wake per task on each side;
//   arg 1 — the batched plane: tasks appended to one up-to-4-KiB byte batch
//           (net/frame.h) per deliver(), drained 64 tasks at a time.
// Identical per-task encode/decode work on both legs, so the delta is pure
// message-plane overhead. The committed baseline
// (bench/baselines/BENCH_latency.json) records the acceptance ratio:
// batched tasks/s >= 1.5x unbatched.
void BM_CrossPeTaskThroughput(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  constexpr std::size_t kTasksPerIter = 1 << 15;
  const std::size_t batch_bytes = batched ? 4096 : 0;
  Mailbox mb;
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> stop{false};
  std::uint64_t sink = 0;
  const Task task =
      Task::mark(Plane::kR, VertexId{0, 1}, VertexId{1, 2}, 3);
  std::thread rx([&] {
    std::vector<Mailbox::Msg> buf;
    while (!stop.load(std::memory_order_acquire)) {
      buf.clear();
      // An idle PE parks on its mailbox, bounded (ThreadEngine::pe_loop).
      const std::size_t n = mb.drain_wait(64, buf, 100);
      if (n == 0) continue;
      for (const Mailbox::Msg& m : buf)
        batch_for_each(m.bytes, [&](std::span<const std::uint8_t> v) {
          sink += try_decode_task(v)->d.idx;
        });
      consumed.fetch_add(n, std::memory_order_release);
    }
  });
  std::uint64_t produced = 0;
  std::uint64_t batches = 0;
  for (auto _ : state) {
    Mailbox::Bytes batch;
    std::size_t tasks = 0;
    for (std::size_t i = 0; i < kTasksPerIter; ++i) {
      const std::size_t at = batch_open(batch);
      append_task(batch, task);
      batch_close(batch, at);
      ++tasks;
      if (batch.size() >= batch_bytes) {
        mb.deliver(std::move(batch), tasks);
        batch = {};
        tasks = 0;
        ++batches;
      }
    }
    if (tasks > 0) {
      mb.deliver(std::move(batch), tasks);
      ++batches;
    }
    produced += kTasksPerIter;
    while (consumed.load(std::memory_order_acquire) < produced)
      std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  rx.join();
  benchmark::DoNotOptimize(sink);
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kIsRate);
  state.counters["msg_batched"] = batched ? double(produced) : 0.0;
  state.counters["batch_flushes"] = double(batches);
  state.counters["mailbox_high_water"] = double(mb.high_water());
}
BENCHMARK(BM_CrossPeTaskThroughput)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  dgr::bench::table();
  // 0.5s smoke budget: a marking cycle here runs ~60ms, and the unbatched
  // cross-PE leg only settles into its steady state (both threads on their
  // own cores, contending for the mailbox lock) after a few iterations. At
  // the default 0.01s cap each leg measured one or two cold iterations, far
  // from the committed full-run baseline, and skewed the regression gate's
  // machine factor for the whole file.
  return dgr::bench::run_bench_main("latency", argc, argv, "0.5");
}
