#include <algorithm>
#include <limits>

#include "core/hiding.hpp"
#include "core/policies.hpp"
#include "core/slowdown.hpp"

namespace baat::core {

namespace {
constexpr double kMigrationCooldownS = 1800.0;
/// Fleet-ranking weights for identifying the fastest-aging node.
constexpr AgingWeights kNeutralWeights{1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
}  // namespace

BaatHPolicy::BaatHPolicy(const PolicyParams& params)
    : params_(params), rng_(util::Rng::stream(params.seed, "baat-h")) {}

Actions BaatHPolicy::on_control_tick(const PolicyContext& ctx) {
  if (last_migration_.size() != ctx.nodes.size()) {
    last_migration_.assign(ctx.nodes.size(), Seconds{-kMigrationCooldownS});
  }

  Actions actions;
  if (ctx.nodes.size() < 2) return actions;

  // Hiding (Fig 8): identify the fastest-aging node by lifetime weighted
  // aging and migrate work off it. BAAT-h can rank its *own* nodes' aging,
  // but it "lacks the holistic battery node aging information" for target
  // selection (§VI-B) — so the destination is drawn randomly from whatever
  // has capacity and SoC headroom, which is what makes it "random and low
  // efficiency" with "frequent VM stop and restart" overhead (§VI-F).
  std::vector<double> scores;
  node_scores(ctx, kNeutralWeights, params_.signals, scores);
  std::size_t worst = 0;
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[worst]) worst = i;
    if (scores[i] < scores[best]) best = i;
  }
  if (scores[worst] - scores[best] < params_.rebalance_threshold) return actions;
  if ((ctx.now - last_migration_[worst]).value() < kMigrationCooldownS) return actions;

  // Move the smallest migratable VM — cautious, since the target is blind.
  const NodeView& from = ctx.nodes[worst];
  const VmView* victim = nullptr;
  for (const VmView& v : from.vms) {
    if (!v.migratable) continue;
    if (victim == nullptr || v.cores < victim->cores) victim = &v;
  }
  if (victim == nullptr) return actions;

  std::vector<std::size_t> feasible;
  for (const NodeView& other : ctx.nodes) {
    if (other.index == worst || !other.powered_on) continue;
    if (other.cores_free < victim->cores || other.mem_free_gb < victim->mem_gb) continue;
    if (other.soc < params_.slowdown.soc_trigger + 0.10) continue;
    feasible.push_back(other.index);
  }
  if (feasible.empty()) return actions;

  const std::size_t to = feasible[rng_.uniform_index(feasible.size())];
  actions.migrations.push_back(MigrationAction{victim->id, worst, to, "low_soc_hiding"});
  last_migration_[worst] = ctx.now;
  return actions;
}

std::optional<std::size_t> BaatHPolicy::place_vm(const PolicyContext& ctx, double cores,
                                                 double mem_gb,
                                                 const DemandProfile& demand) {
  // Placement is aging-aware (it is the "hiding" half of BAAT).
  return select_placement(ctx, cores, mem_gb, demand, params_.demand_thresholds,
                          params_.signals, params_.placement_weights_override);
}

void BaatHPolicy::save_state(snapshot::SnapshotWriter& w) const {
  rng_.save_state(w);
  w.write_u64(last_migration_.size());
  for (const Seconds& t : last_migration_) w.write_f64(t.value());
}

void BaatHPolicy::load_state(snapshot::SnapshotReader& r) {
  rng_.load_state(r);
  const auto n = static_cast<std::size_t>(r.read_u64());
  last_migration_.clear();
  last_migration_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) last_migration_.push_back(Seconds{r.read_f64()});
}

}  // namespace baat::core
