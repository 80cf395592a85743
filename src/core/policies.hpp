#pragma once

// Concrete policy classes behind make_policy(). Table 4:
//   e-Buff  — aggressively use the battery as a green energy buffer
//   BAAT-s  — aging-aware DVFS throttling only (slow down)
//   BAAT-h  — aging-aware VM migration only (hide variation)
//   BAAT    — coordinated hiding + slowing (+ optional planned aging)

#include <vector>

#include "core/policy.hpp"

namespace baat::core {

/// Aggressive energy buffering (the [4, 7]-style baseline): no aging logic,
/// least-loaded placement, never migrates, never throttles.
class EBuffPolicy final : public AgingPolicy {
 public:
  explicit EBuffPolicy(const PolicyParams& params) : params_(params) {}
  [[nodiscard]] std::string_view name() const override { return "e-Buff"; }
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::EBuff; }
  Actions on_control_tick(const PolicyContext& ctx) override;
  std::optional<std::size_t> place_vm(const PolicyContext& ctx, double cores,
                                      double mem_gb, const DemandProfile& demand) override;

 private:
  PolicyParams params_;
};

/// Slowdown-only BAAT: Fig 9's DDT/DR check, acting purely through DVFS —
/// "a passive solution [that] leads to workload performance degradation"
/// (§VI-B).
class BaatSPolicy final : public AgingPolicy {
 public:
  explicit BaatSPolicy(const PolicyParams& params) : params_(params) {}
  [[nodiscard]] std::string_view name() const override { return "BAAT-s"; }
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::BaatS; }
  Actions on_control_tick(const PolicyContext& ctx) override;
  std::optional<std::size_t> place_vm(const PolicyContext& ctx, double cores,
                                      double mem_gb, const DemandProfile& demand) override;

 private:
  PolicyParams params_;
};

/// Hiding-only BAAT: migrates work off a stressed node but "lacks the
/// holistic battery node aging information ... which makes the migration
/// become random and low efficiency" (§VI-B) — the target is drawn randomly
/// from the feasible set.
class BaatHPolicy final : public AgingPolicy {
 public:
  explicit BaatHPolicy(const PolicyParams& params);
  [[nodiscard]] std::string_view name() const override { return "BAAT-h"; }
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::BaatH; }
  Actions on_control_tick(const PolicyContext& ctx) override;
  std::optional<std::size_t> place_vm(const PolicyContext& ctx, double cores,
                                      double mem_gb, const DemandProfile& demand) override;
  void save_state(snapshot::SnapshotWriter& w) const override;
  void load_state(snapshot::SnapshotReader& r) override;

 private:
  PolicyParams params_;
  util::Rng rng_;
  std::vector<Seconds> last_migration_;  ///< per-node cooldown
};

/// Full BAAT: weighted-aging placement and rebalance (Fig 8), slowdown with
/// migration preferred over DVFS (Fig 9), aging-aware charge priority, and
/// optional Eq 7 planned aging when `planned.cycles_plan > 0`.
class BaatPolicy final : public AgingPolicy {
 public:
  explicit BaatPolicy(const PolicyParams& params, bool planned);
  [[nodiscard]] std::string_view name() const override {
    return planned_ ? "BAAT-planned" : "BAAT";
  }
  [[nodiscard]] PolicyKind kind() const override {
    return planned_ ? PolicyKind::BaatPlanned : PolicyKind::Baat;
  }
  Actions on_control_tick(const PolicyContext& ctx) override;
  std::optional<std::size_t> place_vm(const PolicyContext& ctx, double cores,
                                      double mem_gb, const DemandProfile& demand) override;

  /// The SoC knee currently in force for a node (Eq 7 override when planned).
  [[nodiscard]] double effective_soc_trigger(const NodeView& node) const;

  void save_state(snapshot::SnapshotWriter& w) const override;
  void load_state(snapshot::SnapshotReader& r) override;

 private:
  PolicyParams params_;
  bool planned_;
  std::vector<Seconds> last_migration_;
  // Per-tick scratch, reused so a control tick does not allocate.
  std::vector<double> scores_;
  std::vector<double> cores_free_;
  std::vector<double> mem_free_;
};

/// Predictive BAAT — an extension beyond the paper (its "proactive"
/// direction, §IV-D): full BAAT plus solar-energy budgeting over the rest
/// of the duty window. When the forecast supply plus the reserve above the
/// knee cannot cover the remaining demand, it sheds power *before* the
/// batteries enter the deep-discharge band that reactive BAAT waits for.
class BaatPredictivePolicy final : public AgingPolicy {
 public:
  explicit BaatPredictivePolicy(const PolicyParams& params);
  [[nodiscard]] std::string_view name() const override { return "BAAT-p"; }
  [[nodiscard]] PolicyKind kind() const override { return PolicyKind::BaatPredictive; }
  Actions on_control_tick(const PolicyContext& ctx) override;
  std::optional<std::size_t> place_vm(const PolicyContext& ctx, double cores,
                                      double mem_gb, const DemandProfile& demand) override;
  void save_state(snapshot::SnapshotWriter& w) const override;
  void load_state(snapshot::SnapshotReader& r) override;

 private:
  PolicyParams params_;
  BaatPolicy inner_;
  SolarForecaster forecaster_;
};

/// Shared helper: least-loaded placement for aging-oblivious policies.
std::optional<std::size_t> place_least_loaded(const PolicyContext& ctx, double cores,
                                              double mem_gb);

}  // namespace baat::core
