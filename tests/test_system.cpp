// Tests for the high-level dgr::System facade.
#include <gtest/gtest.h>

#include "dgr.h"

namespace dgr {
namespace {

TEST(System, SimpleProgram) {
  System sys("def main() = 6 * 7;", {});
  const auto v = sys.run();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_int(), 42);
  EXPECT_FALSE(sys.has_error());
}

TEST(System, ContinuousGcReclaims) {
  SystemOptions opt;
  opt.pes = 4;
  opt.seed = 5;
  System sys(
      "def fib(n) = if n < 2 then n else fib(n-1) + fib(n-2);"
      "def main() = fib(14);",
      opt);
  const auto v = sys.run();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_int(), 377);
  EXPECT_GT(sys.gc_cycles(), 0u);
  EXPECT_GT(sys.vertices_reclaimed(), 100u);
}

TEST(System, FiniteStoreWithExhaustionGc) {
  SystemOptions opt;
  opt.store_capacity = 1000;
  opt.continuous_gc = false;  // only exhaustion-driven cycles
  System sys(
      "def fib(n) = if n < 2 then n else fib(n-1) + fib(n-2);"
      "def main() = fib(13);",
      opt);
  const auto v = sys.run();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_int(), 233);
  EXPECT_GT(sys.gc_cycles(), 0u);
}

TEST(System, CompactCollectorVariant) {
  SystemOptions opt;
  opt.compact_collector = true;
  System sys(
      "def from(n) = cons(n, from(n + 1));"
      "def take_sum(k, xs) = if k == 0 then 0"
      "  else head(xs) + take_sum(k - 1, tail(xs));"
      "def main() = take_sum(20, from(1));",
      opt);
  const auto v = sys.run();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_int(), 210);
  EXPECT_GT(sys.gc_cycles(), 0u);
}

TEST(System, WedgedProgramAndDeadlockQuery) {
  SystemOptions opt;
  opt.continuous_gc = false;
  System sys("def main() = let x = x + 1 in x;", opt);
  const auto v = sys.run(10'000'000);
  EXPECT_FALSE(v.has_value());
  EXPECT_FALSE(sys.has_error());
  const auto dl = sys.find_deadlocks();
  ASSERT_EQ(dl.size(), 1u);
  EXPECT_EQ(dl[0], sys.root());
}

TEST(System, RuntimeErrorSurfaces) {
  System sys("def main() = 1 / 0;", {});
  (void)sys.run();
  EXPECT_TRUE(sys.has_error());
}

TEST(System, CompileErrorThrows) {
  EXPECT_THROW(System("def main() = undefined_fn(1);", {}), CompileError);
  EXPECT_THROW(System("def main() = (1 +;", {}), lang::ParseError);
}

TEST(System, SpeculationOption) {
  SystemOptions opt;
  opt.speculate_if = true;
  opt.seed = 9;
  System sys(
      "def boom(n) = boom(n + 1);"
      "def main() = if 2 < 3 then 21 * 2 else boom(0);",
      opt);
  const auto v = sys.run();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_int(), 42);
  // Continuous GC expunged the orphaned speculation and the run drained.
  EXPECT_TRUE(sys.engine().quiescent());
}

TEST(System, LatencyOption) {
  SystemOptions opt;
  opt.message_latency = 6;
  System sys(
      "def gcd(a, b) = if b == 0 then a else gcd(b, a % b);"
      "def main() = gcd(252, 105);",
      opt);
  const auto v = sys.run();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_int(), 21);
}

TEST(System, DeterministicAcrossRuns) {
  for (int i = 0; i < 2; ++i) {
    SystemOptions opt;
    opt.seed = 1234;
    System sys("def f(n) = if n == 0 then 0 else n + f(n - 1);"
               "def main() = f(50);",
               opt);
    const auto v = sys.run();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->as_int(), 1275);
    // The schedule itself is reproducible, not just the answer.
    static std::uint64_t first_steps = 0;
    if (i == 0) {
      first_steps = sys.engine().steps();
    } else {
      EXPECT_EQ(sys.engine().steps(), first_steps);
    }
  }
}

}  // namespace
}  // namespace dgr
