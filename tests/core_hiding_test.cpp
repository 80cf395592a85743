#include <gtest/gtest.h>

#include "core/hiding.hpp"
#include "util/require.hpp"

namespace baat::core {
namespace {

NodeView node(std::size_t idx, double nat, double cf, double pc, double cores_free = 8.0,
              double mem_free = 16.0, bool on = true) {
  NodeView n;
  n.index = idx;
  n.powered_on = on;
  n.metrics_life.nat = nat;
  n.metrics_life.cf = cf;
  n.metrics_life.pc = pc;
  n.metrics = n.metrics_life;
  n.cores_free = cores_free;
  n.mem_free_gb = mem_free;
  n.dvfs_top = 3;
  n.dvfs_level = 3;
  return n;
}

VmView vm(workload::VmId id, double cores, double mem, bool migratable = true) {
  VmView v;
  v.id = id;
  v.cores = cores;
  v.mem_gb = mem;
  v.migratable = migratable;
  return v;
}

DemandProfile demand(double frac, double wh) {
  DemandProfile d;
  d.power_fraction_of_peak = frac;
  d.energy_request = util::watt_hours(wh);
  return d;
}

PolicyContext three_node_ctx() {
  PolicyContext ctx;
  ctx.nodes.push_back(node(0, 0.3, 0.5, 0.9));   // worst
  ctx.nodes.push_back(node(1, 0.0, 1.1, 0.25));  // healthiest
  ctx.nodes.push_back(node(2, 0.1, 0.9, 0.5));   // middle
  return ctx;
}

std::vector<double> scores_of(const PolicyContext& ctx, const AgingWeights& w) {
  std::vector<double> scores;
  node_scores(ctx, w, {}, scores);
  return scores;
}

TEST(Hiding, PlacementPicksHealthiestNode) {
  const PolicyContext ctx = three_node_ctx();
  const auto pick =
      select_placement(ctx, 2.0, 4.0, demand(0.6, 300.0), DemandThresholds{}, {});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(Hiding, PlacementSkipsNodesWithoutCapacity) {
  PolicyContext ctx = three_node_ctx();
  ctx.nodes[1].cores_free = 1.0;  // healthiest cannot host
  const auto pick =
      select_placement(ctx, 2.0, 4.0, demand(0.6, 300.0), DemandThresholds{}, {});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);
}

TEST(Hiding, PlacementSkipsPoweredOffNodes) {
  PolicyContext ctx = three_node_ctx();
  ctx.nodes[1].powered_on = false;
  const auto pick =
      select_placement(ctx, 2.0, 4.0, demand(0.6, 300.0), DemandThresholds{}, {});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);
}

TEST(Hiding, NoFeasibleNodeReturnsNullopt) {
  PolicyContext ctx = three_node_ctx();
  for (auto& n : ctx.nodes) n.cores_free = 0.5;
  EXPECT_FALSE(
      select_placement(ctx, 2.0, 4.0, demand(0.6, 300.0), DemandThresholds{}, {})
          .has_value());
}

TEST(Hiding, NodeScoresOrderMatchesHealth) {
  const PolicyContext ctx = three_node_ctx();
  const AgingWeights w{1.0 / 3, 1.0 / 3, 1.0 / 3};
  std::vector<double> scores;
  node_scores(ctx, w, {}, scores);
  EXPECT_GT(scores[0], scores[2]);
  EXPECT_GT(scores[2], scores[1]);
}

TEST(Hiding, RebalanceMovesSmallestVmWorstToBest) {
  PolicyContext ctx = three_node_ctx();
  ctx.nodes[0].vms = {vm(10, 4.0, 8.0), vm(11, 2.0, 4.0)};
  const AgingWeights w{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const auto move = propose_rebalance(ctx, scores_of(ctx, w), 0.05);
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->vm, 11);  // smallest migratable VM
  EXPECT_EQ(move->from, 0u);
  EXPECT_EQ(move->to, 1u);
}

TEST(Hiding, RebalanceRespectsThreshold) {
  PolicyContext ctx;
  ctx.nodes.push_back(node(0, 0.10, 1.0, 0.4));
  ctx.nodes.push_back(node(1, 0.11, 1.0, 0.4));
  ctx.nodes[0].vms = {vm(1, 2.0, 4.0)};
  ctx.nodes[1].vms = {vm(2, 2.0, 4.0)};
  EXPECT_FALSE(propose_rebalance(ctx, scores_of(ctx, AgingWeights{}), 0.5).has_value());
}

TEST(Hiding, RebalanceNeedsMigratableVm) {
  PolicyContext ctx = three_node_ctx();
  ctx.nodes[0].vms = {vm(10, 2.0, 4.0, /*migratable=*/false)};
  const AgingWeights w{1.0 / 3, 1.0 / 3, 1.0 / 3};
  // Worst node has nothing migratable; middle node has nothing at all.
  EXPECT_FALSE(propose_rebalance(ctx, scores_of(ctx, w), 0.01).has_value());
}

TEST(Hiding, RebalanceNeedsTargetCapacity) {
  PolicyContext ctx = three_node_ctx();
  ctx.nodes[0].vms = {vm(10, 2.0, 4.0)};
  ctx.nodes[1].cores_free = 1.0;
  ctx.nodes[2].cores_free = 1.0;
  const AgingWeights w{1.0 / 3, 1.0 / 3, 1.0 / 3};
  EXPECT_FALSE(propose_rebalance(ctx, scores_of(ctx, w), 0.01).has_value());
}

TEST(Hiding, RebalanceSingleNodeIsNoop) {
  PolicyContext ctx;
  ctx.nodes.push_back(node(0, 0.3, 0.5, 0.9));
  ctx.nodes[0].vms = {vm(1, 2.0, 4.0)};
  EXPECT_FALSE(propose_rebalance(ctx, scores_of(ctx, AgingWeights{}), 0.0).has_value());
}

TEST(Hiding, RebalanceRejectsScoreCountMismatch) {
  const PolicyContext ctx = three_node_ctx();
  const std::vector<double> two_scores{0.1, 0.2};
  EXPECT_THROW((void)propose_rebalance(ctx, two_scores, 0.0), util::PreconditionError);
}

}  // namespace
}  // namespace baat::core
