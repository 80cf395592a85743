#include "core/hiding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace baat::core {

void node_scores(const PolicyContext& ctx, const AgingWeights& w, const AgingSignalParams& p,
                 std::vector<double>& out) {
  out.clear();
  for (const NodeView& n : ctx.nodes) out.push_back(weighted_aging(n.metrics_life, w, p));
}

std::optional<std::size_t> select_placement(
    const PolicyContext& ctx, double cores, double mem_gb, const DemandProfile& demand,
    const DemandThresholds& thresholds, const AgingSignalParams& signals,
    std::optional<AgingWeights> weights_override) {
  const AgingWeights w =
      weights_override.value_or(weights_for(classify(demand, thresholds)));
  std::optional<std::size_t> best;
  double best_score = std::numeric_limits<double>::infinity();
  double best_free = -1.0;
  for (const NodeView& n : ctx.nodes) {
    if (!n.powered_on || n.cores_free < cores || n.mem_free_gb < mem_gb) continue;
    const double score = weighted_aging(n.metrics_life, w, signals);
    // Tie-break on free capacity: on a fresh fleet every node scores the
    // same, and without this the scheduler would pile everything onto the
    // first node instead of balancing (the paper's Fig 8 intent).
    const bool tie = std::fabs(score - best_score) < 1e-6;
    if (score < best_score - 1e-6 || (tie && n.cores_free > best_free)) {
      best_score = std::min(score, best_score);
      best_free = n.cores_free;
      best = n.index;
    }
  }
  return best;
}

std::optional<MigrationAction> propose_rebalance(const PolicyContext& ctx,
                                                 std::span<const double> scores,
                                                 double threshold) {
  BAAT_REQUIRE(scores.size() == ctx.nodes.size(), "rebalance needs one score per node");
  if (ctx.nodes.size() < 2) return std::nullopt;

  // Worst node that actually has something migratable.
  std::optional<std::size_t> worst;
  double worst_score = -std::numeric_limits<double>::infinity();
  for (const NodeView& n : ctx.nodes) {
    const bool has_migratable =
        std::any_of(n.vms.begin(), n.vms.end(), [](const VmView& v) { return v.migratable; });
    if (!has_migratable) continue;
    if (scores[n.index] > worst_score) {
      worst_score = scores[n.index];
      worst = n.index;
    }
  }
  if (!worst) return std::nullopt;

  // Smallest VM on the worst node — moving it costs the least downtime.
  const NodeView& from = ctx.nodes[*worst];
  const VmView* victim = nullptr;
  for (const VmView& v : from.vms) {
    if (!v.migratable) continue;
    if (victim == nullptr || v.cores < victim->cores) victim = &v;
  }
  if (victim == nullptr) return std::nullopt;

  // Best node that can host the victim.
  std::optional<std::size_t> best;
  double best_score = std::numeric_limits<double>::infinity();
  for (const NodeView& n : ctx.nodes) {
    if (n.index == *worst || !n.powered_on) continue;
    if (n.cores_free < victim->cores || n.mem_free_gb < victim->mem_gb) continue;
    if (scores[n.index] < best_score) {
      best_score = scores[n.index];
      best = n.index;
    }
  }
  if (!best) return std::nullopt;
  if (worst_score - best_score < threshold) return std::nullopt;

  return MigrationAction{victim->id, *worst, *best, "aging_rebalance"};
}

}  // namespace baat::core
