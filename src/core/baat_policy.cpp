#include <algorithm>
#include <limits>
#include <numeric>

#include "core/hiding.hpp"
#include "core/planned.hpp"
#include "core/policies.hpp"
#include "core/slowdown.hpp"

namespace baat::core {

namespace {
constexpr double kMigrationCooldownS = 300.0;
/// Fleet-ranking weights: §VI-B compares policies "using Eq-6 with same
/// weighting factors", i.e. a neutral equal-weight blend.
constexpr AgingWeights kNeutralWeights{1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
}  // namespace

BaatPolicy::BaatPolicy(const PolicyParams& params, bool planned)
    : params_(params), planned_(planned) {}

double BaatPolicy::effective_soc_trigger(const NodeView& node) const {
  if (!planned_) return params_.slowdown.soc_trigger;
  // Eq 7: spend the remaining Ah budget evenly over the remaining planned
  // cycles; C_used is recovered from the node's NAT (NAT = C_used / C_total).
  const util::AmpereHours c_used{node.metrics_life.nat *
                                 params_.planned.total_throughput.value()};
  const DodGoal goal =
      planned_dod(params_.planned.total_throughput, c_used, params_.planned.cycles_plan,
                  params_.planned.nameplate);
  return goal.soc_trigger;
}

Actions BaatPolicy::on_control_tick(const PolicyContext& ctx) {
  if (last_migration_.size() != ctx.nodes.size()) {
    last_migration_.assign(ctx.nodes.size(), Seconds{-kMigrationCooldownS});
  }

  Actions actions;
  node_scores(ctx, kNeutralWeights, params_.signals, scores_);

  // Track capacity headroom consumed by migrations proposed this tick so we
  // never over-commit a target node.
  cores_free_.resize(ctx.nodes.size());
  mem_free_.resize(ctx.nodes.size());
  for (const NodeView& n : ctx.nodes) {
    cores_free_[n.index] = n.cores_free;
    mem_free_[n.index] = n.mem_free_gb;
  }

  for (const NodeView& n : ctx.nodes) {
    const double trigger = effective_soc_trigger(n);
    switch (assess_slowdown(n, params_.slowdown, trigger)) {
      case SlowdownDecision::Act: {
        // Fig 9: prefer migration (no performance penalty), DVFS as fallback.
        bool migrated = false;
        if ((ctx.now - last_migration_[n.index]).value() >= kMigrationCooldownS) {
          if (const std::optional<VmView> victim = select_shed_vm(n)) {
            // Target: healthiest node (weighted aging) that can host the VM
            // and is not itself under its own trigger.
            std::optional<std::size_t> best;
            double best_score = std::numeric_limits<double>::infinity();
            for (const NodeView& other : ctx.nodes) {
              if (other.index == n.index || !other.powered_on) continue;
              if (cores_free_[other.index] < victim->cores ||
                  mem_free_[other.index] < victim->mem_gb) {
                continue;
              }
              if (other.soc < effective_soc_trigger(other) + 0.10) continue;
              if (scores_[other.index] < best_score) {
                best_score = scores_[other.index];
                best = other.index;
              }
            }
            if (best) {
              actions.migrations.push_back(
                  MigrationAction{victim->id, n.index, *best, "low_soc_hiding"});
              cores_free_[*best] -= victim->cores;
              mem_free_[*best] -= victim->mem_gb;
              last_migration_[n.index] = ctx.now;
              migrated = true;
            }
          }
        }
        if (!migrated && n.dvfs_level > 0) {
          actions.dvfs.push_back(DvfsAction{n.index, n.dvfs_level - 1, "low_soc_slowdown"});
        }
        break;
      }
      case SlowdownDecision::Restore:
        if (n.dvfs_level < n.dvfs_top) {
          actions.dvfs.push_back(DvfsAction{n.index, n.dvfs_level + 1, "soc_recovered"});
        }
        break;
      case SlowdownDecision::None:
        break;
    }
  }

  // Fig 8's consolidation-time rebalance: when the lifetime weighted-aging
  // spread across the fleet is large, move one VM from the worst node to the
  // healthiest one (at most one such move per control period).
  if (actions.migrations.empty()) {
    if (const auto move = propose_rebalance(ctx, scores_, params_.rebalance_threshold)) {
      if ((ctx.now - last_migration_[move->from]).value() >= kMigrationCooldownS) {
        actions.migrations.push_back(*move);
        last_migration_[move->from] = ctx.now;
      }
    }
  }

  // Planned aging "regulates the battery DoD" (§IV-D): enforce Eq 7's goal
  // as a hard discharge floor at 1 − DoD_goal, in addition to retargeting
  // the slowdown knee. Plain BAAT leaves the floor unset — Fig 9's response
  // is soft.
  if (planned_) {
    actions.discharge_floor_soc.resize(ctx.nodes.size());
    for (const NodeView& n : ctx.nodes) {
      actions.discharge_floor_soc[n.index] = effective_soc_trigger(n);
    }
  }

  // Aging-aware charge priority: the worst battery gets surplus solar first,
  // so it "can obtain more solar charging chances and has higher CF" (§VI-B).
  if (!params_.use_charge_priority) return actions;
  actions.charge_priority.resize(ctx.nodes.size());
  std::iota(actions.charge_priority.begin(), actions.charge_priority.end(),
            std::size_t{0});
  std::stable_sort(actions.charge_priority.begin(), actions.charge_priority.end(),
                   [this](std::size_t a, std::size_t b) { return scores_[a] > scores_[b]; });

  return actions;
}

std::optional<std::size_t> BaatPolicy::place_vm(const PolicyContext& ctx, double cores,
                                                double mem_gb,
                                                const DemandProfile& demand) {
  return select_placement(ctx, cores, mem_gb, demand, params_.demand_thresholds,
                          params_.signals, params_.placement_weights_override);
}

void BaatPolicy::save_state(snapshot::SnapshotWriter& w) const {
  // The cooldown vector is sized lazily on the first control tick, so its
  // length (possibly zero) is itself state.
  w.write_u64(last_migration_.size());
  for (const Seconds& t : last_migration_) w.write_f64(t.value());
}

void BaatPolicy::load_state(snapshot::SnapshotReader& r) {
  const auto n = static_cast<std::size_t>(r.read_u64());
  last_migration_.clear();
  last_migration_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) last_migration_.push_back(Seconds{r.read_f64()});
}

}  // namespace baat::core
