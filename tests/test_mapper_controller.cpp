#include <gtest/gtest.h>

#include "asmcap/controller.h"

namespace asmcap {
namespace {

TEST(Controller, PlanBaselineIsSingleSearch) {
  const AsmcapConfig config;
  const Controller controller(config);
  const QueryPlan plan =
      controller.plan(4, ErrorRates::condition_a(), StrategyMode::Baseline);
  EXPECT_EQ(plan.ed_star_searches, 1u);
  EXPECT_FALSE(plan.hd_search);
  EXPECT_FALSE(plan.tasr_triggered);
  EXPECT_EQ(plan.total_searches(), 1u);
}

TEST(Controller, PlanHdacAddsOneSearchWhenPIsHigh) {
  const AsmcapConfig config;
  const Controller controller(config);
  const QueryPlan plan =
      controller.plan(1, ErrorRates::condition_a(), StrategyMode::HdacOnly);
  EXPECT_TRUE(plan.hd_search);
  EXPECT_GT(plan.hdac_p, 0.3);
  EXPECT_EQ(plan.total_searches(), 2u);
}

TEST(Controller, PlanHdacDisabledBelowMinProbability) {
  const AsmcapConfig config;
  const Controller controller(config);
  // Condition B: indel damping makes p < 1 % -> HD search skipped.
  const QueryPlan plan =
      controller.plan(4, ErrorRates::condition_b(), StrategyMode::Full);
  EXPECT_FALSE(plan.hd_search);
  EXPECT_EQ(plan.hdac_p, 0.0);
}

TEST(Controller, PlanTasrTriggersAboveLowerBound) {
  const AsmcapConfig config;  // cols = 256 -> T_l = 6 in condition B
  const Controller controller(config);
  const QueryPlan below =
      controller.plan(5, ErrorRates::condition_b(), StrategyMode::TasrOnly);
  EXPECT_FALSE(below.tasr_triggered);
  EXPECT_EQ(below.total_searches(), 1u);
  const QueryPlan above =
      controller.plan(6, ErrorRates::condition_b(), StrategyMode::TasrOnly);
  EXPECT_TRUE(above.tasr_triggered);
  EXPECT_EQ(above.ed_star_searches, 5u);  // 1 + 2 rotations x 2 directions
  EXPECT_EQ(above.tasr_tl, 6u);
}

TEST(Controller, LedgerAccumulates) {
  const AsmcapConfig config;
  Controller controller(config);
  QueryPlan plan =
      controller.plan(1, ErrorRates::condition_a(), StrategyMode::Full);
  controller.record(plan, 1.8e-9, 5e-12);
  controller.record(plan, 1.8e-9, 5e-12);
  const ExecutionTotals& totals = controller.totals();
  EXPECT_EQ(totals.queries, 2u);
  EXPECT_EQ(totals.searches, 2u * plan.total_searches());
  EXPECT_EQ(totals.hd_searches, 2u);
  EXPECT_NEAR(totals.latency_seconds, 3.6e-9, 1e-15);
  EXPECT_NEAR(totals.energy_joules, 1e-11, 1e-18);
  controller.reset_totals();
  EXPECT_EQ(controller.totals().queries, 0u);
}

}  // namespace
}  // namespace asmcap
