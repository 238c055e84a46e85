// The safe-point auditor must be able to fail. Each case terminates an M_R
// plane on a small simulated graph, breaks one thing the audit guards, and
// expects a counted violation with a description.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/builder.h"
#include "runtime/audit.h"
#include "runtime/sim_engine.h"

namespace dgr {
namespace {

// A 16-vertex chain over two PEs plus `garbage` unreachable vertices. Each
// cycle runs M_R to termination and stops at the safe point: restructuring
// is deferred, so the marks are still unconsumed.
struct Rig {
  explicit Rig(std::uint32_t garbage) : g(2), eng(g) {
    chain = build_chain(g, 16, ReqKind::kVital);
    for (std::uint32_t i = 0; i < garbage; ++i)
      g.alloc(i % 2, OpCode::kData);
    eng.set_root(chain.front());
    eng.controller().set_deferred_restructure(true);
    to_safe_point();
  }
  void to_safe_point() {
    eng.controller().start_cycle(CycleOptions{false});
    eng.run();
  }
  Graph g;
  SimEngine eng;
  std::vector<VertexId> chain;
};

TEST(Audit, ClearedReachableMarkIsAnInvariantViolation) {
  Rig t(0);
  ASSERT_TRUE(t.eng.controller().restructure_due());
  ASSERT_TRUE(t.eng.marker().done(Plane::kR));
  Auditor audit(t.g, t.eng.marker());
  audit.enable();
  std::uint64_t hooked = 0;
  audit.set_violation_hook([&] { ++hooked; });

  // The intact terminated plane passes: what fails below is the damage.
  audit.at_safe_point(1);
  EXPECT_EQ(audit.stats().audits, 1u);
  ASSERT_EQ(audit.stats().violations, 0u) << audit.stats().last_what;

  // Unmark a reachable mid-chain vertex: its marked parent now has an
  // unmarked child (invariant 2).
  t.eng.marker().shade_unmarked(Plane::kR, t.chain[8]);
  audit.at_safe_point(2);
  EXPECT_EQ(audit.stats().audits, 2u);
  EXPECT_GE(audit.stats().violations, 1u);
  EXPECT_FALSE(audit.stats().last_what.empty());
  EXPECT_EQ(hooked, audit.stats().violations);
}

TEST(Audit, SweptCountOffGarPrimeIsAPropertyOneViolation) {
  Rig t(3);
  ASSERT_TRUE(t.eng.controller().restructure_due());
  Auditor audit(t.g, t.eng.marker());
  audit.enable();

  // The real sweep frees exactly GAR′ (the three unreachable vertices)...
  audit.at_safe_point(1);
  t.eng.controller().run_restructure();
  ASSERT_EQ(t.eng.controller().last().swept, 3u);
  audit.on_cycle_complete(t.eng.controller().last());
  ASSERT_EQ(audit.stats().violations, 0u) << audit.stats().last_what;

  // ...and a sweep count that differs from GAR′ (now 0) is caught.
  t.to_safe_point();
  audit.at_safe_point(2);
  CycleResult res;
  res.cycle = 2;
  res.swept = 1;
  audit.on_cycle_complete(res);
  EXPECT_EQ(audit.stats().violations, 1u);
  EXPECT_NE(audit.stats().last_what.find("Property 1"), std::string::npos)
      << audit.stats().last_what;
}

}  // namespace
}  // namespace dgr
