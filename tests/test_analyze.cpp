// Tests for the post-mortem trace analyzer (obs/analyze) over synthetic
// event streams and the golden JSONL traces in tests/data/ (recorded runs of
// dgr_run; regenerate with the commands in docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "obs/analyze.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace dgr::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string data_path(const char* name) {
  return std::string(DGR_SOURCE_DIR) + "/tests/data/" + name;
}

TraceEvent ev(EventType type, Plane plane, std::uint16_t pe,
              std::uint64_t cycle, std::uint64_t ts, std::uint64_t a = 0,
              std::uint64_t b = 0) {
  TraceEvent e;
  e.type = type;
  e.plane = plane;
  e.pe = pe;
  e.cycle = cycle;
  e.ts = ts;
  e.a = a;
  e.b = b;
  return e;
}

// Braces/brackets balanced and no bare control characters — cheap validity
// proxy for the deterministic JSON the analyzer emits.
void expect_balanced_json(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

TEST(Analyze, SyntheticCycleAndWaveLatency) {
  std::vector<TraceEvent> events;
  events.push_back(ev(EventType::kCycleStart, Plane::kR, 0, 1, 100));
  events.push_back(ev(EventType::kPhaseBegin, Plane::kR, 0, 1, 110));
  // wave_front events carry cycle 0 (the marker is cycle-agnostic): the
  // analyzer must scope them to the open cycle by scan order.
  events.push_back(ev(EventType::kWaveFront, Plane::kR, 0, 0, 112, 32));
  events.push_back(ev(EventType::kWaveFront, Plane::kR, 1, 0, 120, 64));
  events.push_back(ev(EventType::kWaveFront, Plane::kR, 1, 0, 125, 96));
  events.push_back(ev(EventType::kPhaseEnd, Plane::kR, 0, 1, 130, 96, 40));
  events.push_back(ev(EventType::kSweep, Plane::kR, 0, 1, 131, 7));
  events.push_back(ev(EventType::kCycleEnd, Plane::kR, 0, 1, 132, 7, 0));

  const TraceReport r = analyze(events);
  ASSERT_EQ(r.cycles.size(), 1u);
  const CycleReport& c = r.cycles[0];
  EXPECT_TRUE(c.complete);
  EXPECT_EQ(c.duration(), 32u);
  EXPECT_FALSE(c.mt.ran);
  EXPECT_TRUE(c.mr.finished);
  EXPECT_EQ(c.mr.duration(), 20u);
  EXPECT_EQ(c.mr.marks, 96u);
  EXPECT_EQ(c.mr.returns, 40u);
  EXPECT_EQ(c.swept, 7u);

  ASSERT_EQ(r.num_pes, 2u);
  EXPECT_EQ(r.pes[0].wave_samples_r, 1u);
  EXPECT_EQ(r.pes[1].wave_samples_r, 2u);
  EXPECT_EQ(r.pes[0].cycles_participated, 1u);
  EXPECT_DOUBLE_EQ(r.pes[0].idle_fraction, 0.0);
  EXPECT_NEAR(r.pes[1].work_share, 2.0 / 3.0, 1e-9);

  // First-participation latency: pe0 at 112-110=2, pe1 at 120-110=10 (the
  // second pe1 sample is not a first). Log-bucketed histogram: max is exact,
  // percentiles are ~4% bucket mids.
  EXPECT_EQ(r.wave_r.samples, 2u);
  EXPECT_DOUBLE_EQ(r.wave_r.max, 10.0);
  EXPECT_GT(r.wave_r.p50, 1.0);
  EXPECT_LT(r.wave_r.p50, 3.0);
  EXPECT_EQ(r.wave_t.samples, 0u);
}

TEST(Analyze, SyntheticDeadlockChain) {
  std::vector<TraceEvent> events;
  events.push_back(ev(EventType::kCycleStart, Plane::kR, 0, 5, 10));
  events.push_back(ev(EventType::kPhaseBegin, Plane::kT, 0, 5, 11));
  events.push_back(ev(EventType::kPhaseEnd, Plane::kT, 0, 5, 20, 9, 8));
  events.push_back(ev(EventType::kPhaseBegin, Plane::kR, 0, 5, 21));
  events.push_back(ev(EventType::kPhaseEnd, Plane::kR, 0, 5, 30, 12, 11));
  events.push_back(ev(EventType::kDeadlockReport, Plane::kT, 0, 5, 31, 2));
  events.push_back(ev(EventType::kDeadlockVertex, Plane::kT, 1, 5, 31, 42));
  events.push_back(ev(EventType::kDeadlockVertex, Plane::kT, 3, 5, 31, 7));
  events.push_back(ev(EventType::kCycleEnd, Plane::kR, 0, 5, 33));

  const TraceReport r = analyze(events);
  ASSERT_EQ(r.deadlocks.size(), 1u);
  const DeadlockPostMortem& d = r.deadlocks[0];
  EXPECT_EQ(d.cycle, 5u);
  EXPECT_EQ(d.count, 2u);
  // The evidence chain ties the report back to the waves that computed it:
  // DL'_v = R'_v − T' needs both planes' totals.
  EXPECT_EQ(d.mt_marks, 9u);
  EXPECT_EQ(d.mt_returns, 8u);
  EXPECT_EQ(d.mr_marks, 12u);
  ASSERT_EQ(d.vertices.size(), 2u);
  EXPECT_EQ(d.vertices[0], (std::pair<std::uint16_t, std::uint64_t>{1, 42}));
  EXPECT_EQ(d.vertices[1], (std::pair<std::uint16_t, std::uint64_t>{3, 7}));
}

TEST(Analyze, GoldenGcCycleTrace) {
  const std::vector<TraceEvent> events =
      from_jsonl(slurp(data_path("golden_gc_cycle.jsonl")));
  ASSERT_FALSE(events.empty());
  const TraceReport r = analyze(events);

  // Recorded from: dgr_run --seed 7 --pes 4 --gc gcd.dgr. Every cycle in
  // the file completed, evaluation garbage was swept, and M_T never ran
  // (no --detect-deadlock).
  EXPECT_EQ(r.events, events.size());
  EXPECT_EQ(r.complete_cycles, 37u);
  EXPECT_EQ(r.cycles.size(), 37u);
  std::uint64_t swept = 0;
  for (const CycleReport& c : r.cycles) {
    EXPECT_TRUE(c.complete);
    EXPECT_TRUE(c.mr.ran);
    EXPECT_FALSE(c.mt.ran);
    swept += c.swept;
  }
  EXPECT_GT(swept, 0u);
  EXPECT_TRUE(r.deadlocks.empty());
  EXPECT_EQ(r.audit_violations, 0u);

  // Metrics enrichment: per-PE task counts come from the registry dump.
  TraceReport enriched = r;
  ASSERT_TRUE(enrich_with_metrics_json(
      enriched, slurp(data_path("golden_gc_metrics.json"))));
  EXPECT_TRUE(enriched.metrics_enriched);
  EXPECT_EQ(enriched.num_pes, 4u);
  std::uint64_t total_marks = 0;
  for (const PeLoad& p : enriched.pes) total_marks += p.mark_tasks;
  EXPECT_GT(total_marks, 0u);

  expect_balanced_json(report_to_json(enriched));
  EXPECT_NE(report_to_text(enriched).find("== cycles =="), std::string::npos);
}

TEST(Analyze, GoldenDeadlockTraceNamesWedgedVertex) {
  const std::vector<TraceEvent> events =
      from_jsonl(slurp(data_path("golden_deadlock.jsonl")));
  ASSERT_FALSE(events.empty());
  const TraceReport r = analyze(events);

  // Recorded from: dgr_run --seed 7 --pes 2 --detect-deadlock deadlock.dgr
  // (def main() = let x = x + 1 in x). The live run printed
  // "deadlocked vertex 0:0 (op +)"; the post-mortem must reconstruct the
  // same vertex set from the trace alone, in every cycle that reported.
  ASSERT_FALSE(r.deadlocks.empty());
  for (const DeadlockPostMortem& d : r.deadlocks) {
    EXPECT_EQ(d.count, 1u);
    ASSERT_EQ(d.vertices.size(), 1u);
    EXPECT_EQ(d.vertices[0].first, 0u);   // pe 0
    EXPECT_EQ(d.vertices[0].second, 0u);  // idx 0
    // Evidence: both waves ran and terminated before the report.
    EXPECT_GT(d.mt_marks, 0u);
    EXPECT_GT(d.mr_marks, 0u);
  }
  // The report must also tell us *when*: deadlock cycles carry the flag.
  std::uint64_t reporting_cycles = 0;
  for (const CycleReport& c : r.cycles)
    if (c.deadlocked_count > 0) ++reporting_cycles;
  EXPECT_EQ(reporting_cycles, r.deadlocks.size());

  const std::string json = report_to_json(r);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"deadlocks\":[{"), std::string::npos);
  EXPECT_NE(report_to_text(r).find("deadlocked: 0:0"), std::string::npos);
}

TEST(Analyze, TruncatedTraceIsTolerated) {
  // Simulate a ring-wrapped trace: the stream starts mid-cycle (no
  // cycle_start for cycle 3) and ends mid-cycle (no cycle_end for cycle 5).
  std::vector<TraceEvent> events;
  events.push_back(ev(EventType::kPhaseEnd, Plane::kR, 0, 3, 40, 5, 4));
  events.push_back(ev(EventType::kCycleEnd, Plane::kR, 0, 3, 41));
  events.push_back(ev(EventType::kCycleStart, Plane::kR, 0, 4, 50));
  events.push_back(ev(EventType::kCycleEnd, Plane::kR, 0, 4, 60));
  events.push_back(ev(EventType::kCycleStart, Plane::kR, 0, 5, 70));
  events.push_back(ev(EventType::kPhaseBegin, Plane::kR, 0, 5, 71));

  const TraceReport r = analyze(events);
  ASSERT_EQ(r.cycles.size(), 3u);
  EXPECT_EQ(r.complete_cycles, 2u);
  EXPECT_TRUE(r.cycles[0].complete);   // cycle 3: end seen, start missing
  EXPECT_FALSE(r.cycles[2].complete);  // cycle 5: still open at EOF
  expect_balanced_json(report_to_json(r));
}

TEST(Analyze, StallAttributionReadsTheNanosecondCounters) {
  // The registry keeps stall attribution in ns; the report shows µs and
  // keeps the fraction a whole-µs counter would have lost.
  MetricsRegistry reg(2);
  reg.add(0, Counter::kMutatorStallIdleNs, 1500);
  reg.add(1, Counter::kMutatorStallMarkNs, 2000);
  reg.add(1, Counter::kMutatorStallQuiesceNs, 500);
  reg.observe(0, Hist::kMutatorStallUs, 1.5);
  TraceReport r;
  ASSERT_TRUE(enrich_with_metrics_json(r, reg.to_json()));
  EXPECT_EQ(r.sessions.stall_idle_ns, 1500u);
  EXPECT_EQ(r.sessions.stall_mark_ns, 2000u);
  EXPECT_EQ(r.sessions.stall_quiesce_ns, 500u);
  const std::string text = report_to_text(r);
  EXPECT_NE(text.find("idle 1.5 us (37.5%) | marking 2.0 us (50.0%) | "
                      "quiesce 0.5 us (12.5%)"),
            std::string::npos)
      << text;
  expect_balanced_json(report_to_json(r));
}

TEST(Analyze, MetricsEnrichmentRejectsGarbage) {
  TraceReport r;
  EXPECT_FALSE(enrich_with_metrics_json(r, "not json at all"));
  EXPECT_FALSE(enrich_with_metrics_json(r, "{\"something\":1}"));
  EXPECT_FALSE(r.metrics_enriched);
}

// ---- Cluster telemetry plane (PR 8) ----------------------------------------

TEST(Analyze, TraceDropSurvivesJsonlRoundTripAndIsAccounted) {
  // The drop marker the cluster merger synthesizes must ride the normal
  // export path: jsonl out, jsonl in, then show up in the report's loss
  // accounting — in both the machine and human forms.
  std::vector<TraceEvent> events;
  events.push_back(ev(EventType::kCycleStart, Plane::kR, 0, 1, 100));
  events.push_back(make_drop_event(/*ts=*/110, /*cycle=*/1, /*pe=*/2,
                                   /*ring_dropped=*/7, /*omitted=*/3));
  events.push_back(make_drop_event(120, 1, 3, 5, 0));
  events.push_back(ev(EventType::kCycleEnd, Plane::kR, 0, 1, 130));

  const std::vector<TraceEvent> back = from_jsonl(to_jsonl(events));
  ASSERT_EQ(back.size(), events.size());
  EXPECT_EQ(back[1].type, EventType::kTraceDrop);
  EXPECT_EQ(back[1].pe, 2u);
  EXPECT_EQ(back[1].a, 7u);
  EXPECT_EQ(back[1].b, 3u);

  const TraceReport r = analyze(back);
  EXPECT_EQ(r.trace_dropped, 12u);
  EXPECT_EQ(r.trace_events_omitted, 3u);
  const std::string json = report_to_json(r);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"trace_dropped\":12"), std::string::npos);
  EXPECT_NE(json.find("\"trace_events_omitted\":3"), std::string::npos);
  EXPECT_NE(report_to_text(r).find("TRACE LOSS"), std::string::npos);
}

// A metrics dump in the shape ProcEngine::cluster_metrics_json writes —
// registry keys first (one block per PE), then the "workers" rollup (values
// arbitrary but internally consistent: two workers, one PE each here).
const char* kClusterDump =
    "{\"num_pes\":2,\"totals\":{\"mark_tasks\":90,\"return_tasks\":88},"
    "\"pes\":[{\"pe\":0,\"counters\":{\"mark_tasks\":50},\"hists\":{}},"
    "{\"pe\":1,\"counters\":{\"mark_tasks\":40},\"hists\":{}}],"
    "\"num_workers\":2,\"workers\":["
    "{\"worker\":0,\"pe_begin\":0,\"pe_count\":1,\"marks\":50,\"returns\":49,"
    "\"remote_messages\":12,\"retransmits\":1,\"handoff_bytes\":2048,"
    "\"relayed_frames\":6,\"relayed_bytes\":300,\"telemetry_msgs\":4,"
    "\"telemetry_dropped\":0,\"clock_offset_us\":-250,\"clock_rtt_us\":80},"
    "{\"worker\":1,\"pe_begin\":1,\"pe_count\":1,\"marks\":40,\"returns\":39,"
    "\"remote_messages\":11,\"retransmits\":0,\"handoff_bytes\":1900,"
    "\"relayed_frames\":5,\"relayed_bytes\":280,\"telemetry_msgs\":4,"
    "\"telemetry_dropped\":9,\"clock_offset_us\":300,\"clock_rtt_us\":95}]}";

TEST(Analyze, ClusterMetricsDumpFillsWorkerRows) {
  std::vector<TraceEvent> events;
  events.push_back(ev(EventType::kCycleStart, Plane::kR, 0, 1, 100));
  events.push_back(ev(EventType::kCycleEnd, Plane::kR, 0, 1, 140));
  TraceReport r = analyze(events);
  ASSERT_TRUE(enrich_with_metrics_json(r, kClusterDump));
  ASSERT_EQ(r.workers.size(), 2u);
  const WorkerRow& w0 = r.workers[0];
  EXPECT_EQ(w0.pe_begin, 0u);
  EXPECT_EQ(w0.pe_count, 1u);
  EXPECT_EQ(w0.marks, 50u);
  EXPECT_EQ(w0.handoff_bytes, 2048u);
  EXPECT_EQ(w0.clock_offset_us, -250);  // negative skew must parse signed
  const WorkerRow& w1 = r.workers[1];
  EXPECT_EQ(w1.telemetry_dropped, 9u);
  EXPECT_EQ(w1.clock_offset_us, 300);

  // Both rendered forms carry the rollup.
  const std::string json = report_to_json(r);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"workers\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"clock_offset_us\":-250"), std::string::npos);
  const std::string text = report_to_text(r);
  EXPECT_NE(text.find("== cluster =="), std::string::npos);
  EXPECT_NE(text.find("tele-drop"), std::string::npos);
}

// The rollup after killing worker 2 of 4: recovery re-placed the PEs, so
// worker 1 owns the non-contiguous {1,3} and the dead worker owns none.
// pe_begin/pe_count still hold each worker's registration block, which is
// what the cluster section used to print ("1..2" and "2..2" here).
const char* kKillDump =
    "{\"num_pes\":4,\"totals\":{\"mark_tasks\":90},"
    "\"pes\":[{\"pe\":0,\"counters\":{},\"hists\":{}},"
    "{\"pe\":1,\"counters\":{},\"hists\":{}},"
    "{\"pe\":2,\"counters\":{},\"hists\":{}},"
    "{\"pe\":3,\"counters\":{},\"hists\":{}}],"
    "\"num_workers\":4,\"workers\":["
    "{\"worker\":0,\"pe_begin\":0,\"pe_count\":1,\"owned_pes\":[0],"
    "\"alive\":true,\"marks\":50},"
    "{\"worker\":1,\"pe_begin\":1,\"pe_count\":2,\"owned_pes\":[1,3],"
    "\"alive\":true,\"marks\":40},"
    "{\"worker\":2,\"pe_begin\":2,\"pe_count\":0,\"owned_pes\":[],"
    "\"alive\":false,\"marks\":7},"
    "{\"worker\":3,\"pe_begin\":3,\"pe_count\":1,\"owned_pes\":[2],"
    "\"alive\":true,\"marks\":9}],"
    "\"membership\":{\"gen\":1,\"workers_total\":4,\"workers_live\":3,"
    "\"worker_lost\":1,\"partition_reassigned\":4}}";

TEST(Analyze, ClusterSectionPrintsOwnedPeSetsAfterAKill) {
  TraceReport r = analyze({});
  ASSERT_TRUE(enrich_with_metrics_json(r, kKillDump));
  ASSERT_EQ(r.workers.size(), 4u);
  EXPECT_EQ(r.workers[0].pes, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(r.workers[1].pes, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_TRUE(r.workers[2].pes.empty());
  EXPECT_EQ(r.workers[3].pes, (std::vector<std::uint32_t>{2}));
  const std::string text = report_to_text(r);
  EXPECT_NE(text.find("{1,3}"), std::string::npos) << text;
  EXPECT_NE(text.find("{2}"), std::string::npos) << text;
  EXPECT_EQ(text.find("1..2"), std::string::npos) << text;
  EXPECT_EQ(text.find("2..2"), std::string::npos) << text;
  // The dead worker's row shows "-" in the pes column.
  const std::size_t row = text.find("\n     2 ");
  ASSERT_NE(row, std::string::npos) << text;
  EXPECT_EQ(text.compare(row + 8, 9, "        -"), 0) << text;
  const std::string json = report_to_json(r);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"owned_pes\":[1,3]"), std::string::npos);
  EXPECT_NE(json.find("\"owned_pes\":[]"), std::string::npos);
}

TEST(Analyze, ClusterDumpWithoutOwnedPesReadsTheRegistrationBlock) {
  TraceReport r = analyze({});
  ASSERT_TRUE(enrich_with_metrics_json(r, kClusterDump));
  ASSERT_EQ(r.workers.size(), 2u);
  EXPECT_EQ(r.workers[0].pes, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(r.workers[1].pes, (std::vector<std::uint32_t>{1}));
}

TEST(Analyze, ChromeClusterExportLanesPerProcess) {
  // Controller events on pid 0; each worker's (already-rebased) events on
  // pid w+1 with per-PE named threads; drop markers render as instants.
  std::vector<TraceEvent> ctrl;
  ctrl.push_back(ev(EventType::kCycleStart, Plane::kR, 0, 1, 100));
  ctrl.push_back(ev(EventType::kCycleEnd, Plane::kR, 0, 1, 200));
  std::vector<std::vector<TraceEvent>> workers(2);
  workers[0].push_back(ev(EventType::kWaveFront, Plane::kR, 0, 1, 120, 32));
  workers[1].push_back(ev(EventType::kWaveFront, Plane::kR, 2, 1, 130, 16));
  workers[1].push_back(make_drop_event(135, 1, 2, 4, 1));

  const std::string json = to_chrome_trace_cluster(ctrl, workers, 4);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"controller\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 1\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  // Worker 1's events sit in its own lane, not the controller's.
  EXPECT_NE(json.find("\"pid\":2,\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("trace_drop"), std::string::npos);
}

}  // namespace
}  // namespace dgr::obs
