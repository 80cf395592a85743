#pragma once

// Fig 8 — aging-driven scheduling that *hides* aging variation: place new
// load on the healthiest battery node (smallest Eq 6 weighted aging) and,
// when the spread across the fleet grows, migrate work off the worst node.

#include <optional>
#include <span>
#include <vector>

#include "core/policy.hpp"
#include "core/weighted_aging.hpp"

namespace baat::core {

/// Weighted aging of every node for a given demand class, written into
/// `out` (indexed by node; its capacity is reused across calls).
void node_scores(const PolicyContext& ctx, const AgingWeights& w, const AgingSignalParams& p,
                 std::vector<double>& out);

/// Fig 8 placement: among powered-on nodes with room for (cores, mem),
/// the one with the smallest weighted aging for this demand's class.
std::optional<std::size_t> select_placement(
    const PolicyContext& ctx, double cores, double mem_gb, const DemandProfile& demand,
    const DemandThresholds& thresholds, const AgingSignalParams& signals,
    std::optional<AgingWeights> weights_override = {});

/// Consolidation-time rebalance: if the weighted-aging spread between the
/// worst and best node exceeds `threshold`, propose moving one migratable
/// VM from the worst node to the best node that can host it. `scores` are
/// the nodes' weighted aging, as node_scores() writes them.
std::optional<MigrationAction> propose_rebalance(const PolicyContext& ctx,
                                                 std::span<const double> scores,
                                                 double threshold);

}  // namespace baat::core
