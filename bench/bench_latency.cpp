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
#include <thread>

#include "bench/bench_common.h"
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
// decodes and consumes them, pumped through a real Mailbox exactly the way
// the PE loops do it.
//   arg 0 — the pre-batching plane: deliver() + receive(), one queue lock
//           and one wake per message on each side;
//   arg 1 — the batched plane: deliver_batch() of up-to-4-KiB batches +
//           drain(64), one lock per batch per side.
// Identical per-task encode/decode work on both legs, so the delta is pure
// message-plane overhead. The committed baseline
// (bench/baselines/BENCH_latency.json) records the acceptance ratio:
// batched tasks/s >= 1.5x unbatched.
void BM_CrossPeTaskThroughput(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  constexpr std::size_t kTasksPerIter = 1 << 15;
  constexpr std::size_t kBatchBytes = 4096;
  Mailbox mb;
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> stop{false};
  std::uint64_t sink = 0;
  // One wire-encoded marking task, copied per send — the same
  // one-allocation-per-message cost the engine pays on both legs.
  const Mailbox::Bytes wire =
      encode_task(Task::mark(Plane::kR, VertexId{0, 1}, VertexId{1, 2}, 3));
  std::thread rx([&] {
    std::vector<Mailbox::Bytes> buf;
    while (!stop.load(std::memory_order_acquire)) {
      if (batched) {
        buf.clear();
        const std::size_t n = mb.drain(64, buf);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        for (const Mailbox::Bytes& m : buf) sink += m.size();
        consumed.fetch_add(n, std::memory_order_release);
      } else {
        std::optional<Mailbox::Bytes> m = mb.try_receive();
        if (!m.has_value()) {
          std::this_thread::yield();
          continue;
        }
        sink += m->size();
        consumed.fetch_add(1, std::memory_order_release);
      }
    }
  });
  std::uint64_t produced = 0;
  std::uint64_t batches = 0;
  for (auto _ : state) {
    std::vector<Mailbox::Bytes> pending;
    std::size_t pending_bytes = 0;
    for (std::size_t i = 0; i < kTasksPerIter; ++i) {
      Mailbox::Bytes bytes = wire;
      if (batched) {
        pending_bytes += bytes.size();
        pending.push_back(std::move(bytes));
        if (pending_bytes >= kBatchBytes) {
          mb.deliver_batch(std::move(pending));
          pending.clear();
          pending_bytes = 0;
          ++batches;
        }
      } else {
        mb.deliver(std::move(bytes));
      }
    }
    if (!pending.empty()) {
      mb.deliver_batch(std::move(pending));
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
  return dgr::bench::run_bench_main("latency", argc, argv);
}
