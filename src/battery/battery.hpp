#pragma once

// One battery unit: SoC book-keeping with Peukert and coulombic losses,
// terminal voltage under load, thermal state, the five-mechanism aging
// model, and the ground-truth usage counters that the paper's power table
// (Table 2) derives its metrics from.
//
// Since the SoA tick kernel landed (fleet.hpp), Battery is a thin view over
// one cell of a battery::FleetState. A standalone Battery owns a private
// one-cell fleet, so the object-per-cell API (tests, probes, single-unit
// experiments) is unchanged; banks share one FleetState and hand out bound
// views (see fleet_views()), which is what makes the batched fleet_step()
// possible. Value semantics are deep: copying a Battery clones the cell,
// and assigning into a bound view copies the unit's state into the fleet
// slot so every other view of that slot sees the replacement.
//
// Sign convention everywhere: current > 0 discharges the battery,
// current < 0 charges it.

#include <cstddef>
#include <memory>

#include "battery/fleet.hpp"

namespace baat::battery {

class Battery {
 public:
  /// Standalone unit owning a private one-cell fleet. `capacity_scale` and
  /// `resistance_scale` model unit-to-unit manufacturing variation (§IV-B:
  /// "deviations ... from their nominal specification"); both default to a
  /// perfectly nominal unit.
  Battery(LeadAcidParams chem, AgingParams aging, ThermalParams thermal,
          double capacity_scale = 1.0, double resistance_scale = 1.0,
          double initial_soc = 1.0, MathMode math = MathMode::Exact);

  /// Non-owning view over cell `cell` of `fleet` (see fleet_views()). The
  /// fleet must outlive the view.
  Battery(FleetState& fleet, std::size_t cell);

  Battery(const Battery& other);
  Battery(Battery&& other) noexcept;
  Battery& operator=(const Battery& other);
  Battery& operator=(Battery&& other) noexcept;
  ~Battery() = default;

  /// Advance by dt, requesting `requested` (>0 discharge, <0 charge). The
  /// battery clamps the request to what chemistry allows (low-voltage
  /// disconnect, charge acceptance taper, rate caps) and reports the actual
  /// current that flowed.
  StepResult step(Amperes requested, Seconds dt) {
    return fleet_->step_cell(cell_, requested, dt);
  }

  /// Maintenance-rig entry: hold the unit at absorb voltage with a forced
  /// trickle current for dt, bypassing the acceptance clamp. Whatever the
  /// SoC cannot absorb drives gassing — this is how an equalization charger
  /// works, and the aging model charges the water loss and corrosion for it.
  StepResult float_charge(Amperes trickle, Seconds dt) {
    return fleet_->float_charge_cell(cell_, trickle, dt);
  }

  // --- physical observables ------------------------------------------------
  [[nodiscard]] double soc() const { return fleet_->cell_soc(cell_); }
  [[nodiscard]] Volts open_circuit() const { return fleet_->cell_open_circuit(cell_); }
  /// Terminal voltage if `current` were flowing right now.
  [[nodiscard]] Volts terminal_voltage(Amperes current) const {
    return fleet_->cell_terminal_voltage(cell_, current);
  }
  [[nodiscard]] Celsius temperature() const { return fleet_->cell_temperature(cell_); }
  [[nodiscard]] double internal_resistance_ohms() const {
    return fleet_->cell_internal_resistance_ohms(cell_);
  }

  // --- capacity and health --------------------------------------------------
  /// Nameplate capacity of this unit (includes manufacturing variation).
  [[nodiscard]] AmpereHours nameplate() const { return fleet_->cell_nameplate(cell_); }
  /// Present usable capacity after aging fade.
  [[nodiscard]] AmpereHours usable_capacity() const {
    return fleet_->cell_usable_capacity(cell_);
  }
  /// usable_capacity / nameplate, the paper's health measure ([30]).
  [[nodiscard]] double health() const { return fleet_->cell_health(cell_); }
  [[nodiscard]] bool end_of_life() const { return fleet_->cell_end_of_life(cell_); }

  /// Open-cell failure (a broken inter-cell weld, a dried-out cell): the
  /// unit instantly stops sourcing or sinking any current — 0 V at the
  /// terminals, zero usable capacity, health 0. Irreversible.
  void fail_open() { fleet_->fail_open_cell(cell_); }
  [[nodiscard]] bool open_failed() const { return fleet_->cell_open_failed(cell_); }
  /// Fault/test hook: overwrite the stored SoC with no validation — the
  /// nan_poison fault smuggles a NaN past the kernel's input guards so the
  /// run-health watchdog (not an assertion) is what catches it.
  void debug_set_soc(double soc) { fleet_->debug_set_soc(cell_, soc); }
  [[nodiscard]] const AgingState& aging_state() const {
    return fleet_->cell_aging_state(cell_);
  }
  /// Test/benchmark hook: seed a pre-aged state.
  void set_aging_state(const AgingState& s) { fleet_->set_cell_aging_state(cell_, s); }

  // --- limits the router needs ----------------------------------------------
  /// Largest discharge current sustainable right now without dipping below
  /// the low-voltage disconnect.
  [[nodiscard]] Amperes max_discharge_current() const {
    return fleet_->cell_max_discharge_current(cell_);
  }
  /// Largest charge current the cell will accept right now.
  [[nodiscard]] Amperes max_charge_current() const {
    return fleet_->cell_max_charge_current(cell_);
  }
  /// Energy retrievable before the SoC floor `floor_soc` at a modest rate.
  [[nodiscard]] WattHours stored_energy_above(double floor_soc) const {
    return fleet_->cell_stored_energy_above(cell_, floor_soc);
  }

  [[nodiscard]] const UsageCounters& counters() const {
    return fleet_->cell_counters(cell_);
  }
  [[nodiscard]] const LeadAcidParams& chemistry() const {
    return fleet_->cell_chemistry(cell_);
  }

  /// Equivalent full cycles delivered so far (Ah discharged / nameplate).
  [[nodiscard]] double equivalent_full_cycles() const {
    return fleet_->cell_equivalent_full_cycles(cell_);
  }

  // --- fleet plumbing --------------------------------------------------------
  /// The fleet this unit's state lives in (the private one for standalones).
  /// The router uses pointer equality to detect banks sharing one fleet and
  /// batch their discharge and idle steps.
  [[nodiscard]] FleetState* fleet() { return fleet_; }
  [[nodiscard]] const FleetState* fleet() const { return fleet_; }
  [[nodiscard]] std::size_t cell_index() const { return cell_; }

 private:
  FleetState* fleet_ = nullptr;
  std::size_t cell_ = 0;
  std::unique_ptr<FleetState> owned_;  ///< set when this Battery owns its one-cell fleet
};

}  // namespace baat::battery
