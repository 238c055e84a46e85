// E10 — Marking vs distributed reference counting (paper §4: reference
// counting cannot reclaim self-referencing structures and cannot perform the
// tracing needed to identify task types).
//
// Workload: a seeded mutation churn that detaches subgraphs, a controllable
// fraction of which are knotted into cycles before being dropped. Both
// collectors run over identical mutation traces.
//
// Reported shape: the marker reclaims 100% of garbage regardless of cycle
// fraction; refcounting's reclamation falls linearly as the cyclic fraction
// rises, and its count-maintenance traffic scales with mutation count while
// the marker's traffic scales with live-graph size per cycle.
#include "baseline/refcount_collector.h"
#include "bench/bench_common.h"

namespace dgr::bench {
namespace {

struct ChurnResult {
  std::size_t allocated = 0;
  std::size_t reclaimed = 0;
  std::size_t leaked = 0;  // garbage never reclaimed
  std::uint64_t messages = 0;
};

constexpr std::uint32_t kPes = 4;
constexpr int kRounds = 400;
constexpr int kClusterSize = 5;

// Drive identical churn through either collector. Each round allocates a
// small cluster below the root, then detaches it; `cyclic_pct` of clusters
// are first closed into a cycle.
template <typename OnAlloc, typename OnConnect, typename OnDisconnect>
std::size_t churn(Graph& g, VertexId root, int cyclic_pct, std::uint64_t seed,
                  OnAlloc on_alloc, OnConnect on_connect,
                  OnDisconnect on_disconnect) {
  Rng rng(seed);
  std::size_t allocated = 0;
  for (int round = 0; round < kRounds; ++round) {
    VertexId cluster[kClusterSize];
    for (auto& v : cluster) {
      v = g.alloc_rr(OpCode::kData);
      DGR_CHECK(v.valid());
      on_alloc(v);
      ++allocated;
    }
    for (int i = 0; i + 1 < kClusterSize; ++i) {
      connect(g, cluster[i], cluster[i + 1], ReqKind::kNone);
      on_connect(cluster[i], cluster[i + 1]);
    }
    const bool make_cycle = static_cast<int>(rng.below(100)) < cyclic_pct;
    if (make_cycle) {
      connect(g, cluster[kClusterSize - 1], cluster[0], ReqKind::kNone);
      on_connect(cluster[kClusterSize - 1], cluster[0]);
    }
    connect(g, root, cluster[0], ReqKind::kNone);
    on_connect(root, cluster[0]);
    // ... some interleaving rounds later, drop it.
    disconnect(g, root, cluster[0]);
    on_disconnect(root, cluster[0]);
  }
  return allocated;
}

ChurnResult run_refcount(int cyclic_pct) {
  Graph g(kPes);
  const VertexId root = g.alloc(0, OpCode::kData);
  RefCountCollector rc(g);
  rc.on_alloc(root);
  rc.add_root_ref(root);
  ChurnResult r;
  r.allocated = churn(
      g, root, cyclic_pct, 77, [&](VertexId v) { rc.on_alloc(v); },
      [&](VertexId a, VertexId b) { rc.on_connect(a, b); },
      [&](VertexId a, VertexId b) {
        rc.on_disconnect(a, b);
        rc.process();
      });
  rc.process();
  r.reclaimed = rc.freed();
  r.messages = rc.messages_sent();
  Oracle o(g, root, {});
  r.leaked = o.count_GAR();
  return r;
}

ChurnResult run_marker(int cyclic_pct) {
  Graph g(kPes);
  SimOptions sopt;
  sopt.seed = 5;
  SimEngine eng(g, sopt);
  const VertexId root = g.alloc(0, OpCode::kData);
  eng.set_root(root);
  ChurnResult r;
  // Churn with no collector hooks (marking needs none)...
  r.allocated = churn(
      g, root, cyclic_pct, 77, [](VertexId) {}, [](VertexId, VertexId) {},
      [](VertexId, VertexId) {});
  // ...then one marking cycle reclaims everything unreachable.
  CycleOptions copt;
  copt.detect_deadlock = false;
  eng.controller().start_cycle(copt);
  eng.run_until_cycle_done();
  r.reclaimed = eng.controller().last().swept;
  r.messages = eng.metrics_registry().total(obs::Counter::kRemoteMessages) +
               eng.metrics_registry().total(obs::Counter::kLocalMessages);
  Oracle o(g, root, {});
  r.leaked = o.count_GAR();
  return r;
}

void table() {
  print_header("E10: cyclic garbage — marking vs reference counting",
               "§4 refcounting critique",
               "marker reclaims 100% incl. cycles; refcount leaks every "
               "cycle and pays per-mutation traffic");
  std::printf("%10s %10s %10s %10s %10s %12s\n", "collector", "cyclic%",
              "allocated", "reclaimed", "leaked", "messages");
  for (int pct : {0, 25, 50, 75, 100}) {
    const ChurnResult m = run_marker(pct);
    std::printf("%10s %10d %10zu %10zu %10zu %12llu\n", "marker", pct,
                m.allocated, m.reclaimed, m.leaked,
                (unsigned long long)m.messages);
    const ChurnResult rcr = run_refcount(pct);
    std::printf("%10s %10d %10zu %10zu %10zu %12llu\n", "refcount", pct,
                rcr.allocated, rcr.reclaimed, rcr.leaked,
                (unsigned long long)rcr.messages);
  }
  std::printf(
      "\nnote: refcounting also cannot compute R_v/R_e/R_r, so the dynamic\n"
      "task classification of Properties 3-6 is unavailable to it entirely\n"
      "(no row to print — that is the point).\n");
}

void BM_MarkerChurn(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(run_marker(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_MarkerChurn)->Arg(0)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_RefcountChurn(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(run_refcount(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_RefcountChurn)->Arg(0)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dgr::bench

int main(int argc, char** argv) {
  dgr::bench::table();
  return dgr::bench::run_bench_main("vs_refcount", argc, argv);
}
