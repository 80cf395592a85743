#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "power/meter.hpp"
#include "power/router.hpp"
#include "util/require.hpp"

namespace baat::power {
namespace {

using util::amperes;
using util::minutes;
using util::volts;
using util::watts;

std::vector<battery::Battery> make_batteries(std::size_t n, double soc) {
  std::vector<battery::Battery> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.emplace_back(battery::LeadAcidParams{}, battery::AgingParams{},
                   battery::ThermalParams{}, 1.0, 1.0, soc);
  }
  return v;
}

std::vector<std::size_t> natural_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

TEST(CurrentForDcPower, SolvesQuadratic) {
  // I·(12 − 0.015·I) = 60 → I ≈ 5.03 A.
  const auto i = current_for_dc_power(watts(60.0), volts(12.0), 0.015);
  EXPECT_NEAR(i.value() * (12.0 - 0.015 * i.value()), 60.0, 1e-9);
  EXPECT_DOUBLE_EQ(current_for_dc_power(watts(0.0), volts(12.0), 0.015).value(), 0.0);
}

TEST(CurrentForDcPower, CapsAtMaximumPowerPoint) {
  // Max deliverable power is v²/4r; beyond it, current caps at v/2r.
  const auto i = current_for_dc_power(watts(1e6), volts(12.0), 0.015);
  EXPECT_DOUBLE_EQ(i.value(), 12.0 / (2.0 * 0.015));
}

TEST(Router, SolarCoversDemandDirectly) {
  auto bats = make_batteries(2, 0.5);
  const std::vector<util::Watts> demands{watts(100.0), watts(50.0)};
  const auto order = natural_order(2);
  const auto r = route_power(watts(500.0), demands, bats, order, RouterParams{},
                             minutes(1.0));
  EXPECT_DOUBLE_EQ(r.nodes[0].solar_used.value(), 100.0);
  EXPECT_DOUBLE_EQ(r.nodes[1].solar_used.value(), 50.0);
  EXPECT_DOUBLE_EQ(r.nodes[0].unmet.value(), 0.0);
  EXPECT_DOUBLE_EQ(r.nodes[0].battery_delivered.value(), 0.0);
  // Surplus charges the half-full batteries.
  EXPECT_GT(r.nodes[0].charge_drawn.value() + r.nodes[1].charge_drawn.value(), 0.0);
}

TEST(Router, ProportionalSolarSplitUnderShortage) {
  auto bats = make_batteries(2, 0.0);  // empty: no battery assist
  const std::vector<util::Watts> demands{watts(300.0), watts(100.0)};
  const auto order = natural_order(2);
  const auto r = route_power(watts(200.0), demands, bats, order, RouterParams{},
                             minutes(1.0));
  EXPECT_NEAR(r.nodes[0].solar_used.value(), 150.0, 1e-9);
  EXPECT_NEAR(r.nodes[1].solar_used.value(), 50.0, 1e-9);
  EXPECT_NEAR(r.nodes[0].unmet.value(), 150.0, 1e-9);
  EXPECT_NEAR(r.nodes[1].unmet.value(), 50.0, 1e-9);
}

TEST(Router, BatteryCoversDeficit) {
  auto bats = make_batteries(1, 0.9);
  const std::vector<util::Watts> demands{watts(120.0)};
  const auto order = natural_order(1);
  const auto r = route_power(watts(0.0), demands, bats, order, RouterParams{},
                             minutes(1.0));
  EXPECT_NEAR(r.nodes[0].battery_delivered.value(), 120.0, 0.5);
  EXPECT_NEAR(r.nodes[0].unmet.value(), 0.0, 0.5);
  EXPECT_GT(r.nodes[0].battery_current.value(), 0.0);
  EXPECT_LT(bats[0].soc(), 0.9);
}

TEST(Router, InverterLossDrawsExtraFromBattery) {
  auto bats = make_batteries(1, 0.9);
  const std::vector<util::Watts> demands{watts(100.0)};
  const auto order = natural_order(1);
  RouterParams params;
  params.inverter_efficiency = 0.80;
  const auto r = route_power(watts(0.0), demands, bats, order, params, minutes(1.0));
  const double dc = r.nodes[0].battery_current.value() *
                    bats[0].terminal_voltage(r.nodes[0].battery_current).value();
  EXPECT_NEAR(dc * 0.80, r.nodes[0].battery_delivered.value(), 1.0);
}

TEST(Router, EmptyBatteryYieldsUnmet) {
  auto bats = make_batteries(1, 0.0);
  const std::vector<util::Watts> demands{watts(100.0)};
  const auto order = natural_order(1);
  const auto r = route_power(watts(0.0), demands, bats, order, RouterParams{},
                             minutes(1.0));
  EXPECT_NEAR(r.nodes[0].unmet.value(), 100.0, 1e-6);
  EXPECT_TRUE(r.nodes[0].battery_cutoff);
}

TEST(Router, UtilityBudgetCoversDeficitFirst) {
  auto bats = make_batteries(1, 0.9);
  const std::vector<util::Watts> demands{watts(100.0)};
  const auto order = natural_order(1);
  RouterParams params;
  params.utility_budget = watts(1000.0);
  const auto r = route_power(watts(0.0), demands, bats, order, params, minutes(1.0));
  EXPECT_DOUBLE_EQ(r.nodes[0].utility_used.value(), 100.0);
  EXPECT_DOUBLE_EQ(r.nodes[0].battery_delivered.value(), 0.0);
  EXPECT_DOUBLE_EQ(r.utility_drawn.value(), 100.0);
}

TEST(Router, ChargePriorityOrderRespected) {
  auto bats = make_batteries(2, 0.5);
  const std::vector<util::Watts> demands{watts(0.0), watts(0.0)};
  // Strict priority mode with node 1 first: with a small surplus node 1
  // soaks up (nearly) all of it; only the residual its charger could not
  // absorb trickles down to node 0.
  const std::vector<std::size_t> order{1, 0};
  RouterParams params;
  params.charge_allocation = ChargeAllocation::PriorityOrder;
  const auto r = route_power(watts(30.0), demands, bats, order, params, minutes(1.0));
  EXPECT_GT(r.nodes[1].charge_drawn.value(), 25.0);
  EXPECT_LT(r.nodes[0].charge_drawn.value(), 2.0);
}

TEST(Router, ProportionalChargingSharesTheBus) {
  auto bats = make_batteries(2, 0.5);
  const std::vector<util::Watts> demands{watts(0.0), watts(0.0)};
  const std::vector<std::size_t> order{0, 1};
  // Default mode: identical batteries split a small surplus about evenly.
  const auto r = route_power(watts(30.0), demands, bats, order, RouterParams{},
                             minutes(1.0));
  EXPECT_GT(r.nodes[0].charge_drawn.value(), 5.0);
  EXPECT_GT(r.nodes[1].charge_drawn.value(), 5.0);
  EXPECT_NEAR(r.nodes[0].charge_drawn.value(), r.nodes[1].charge_drawn.value(), 2.0);
}

TEST(Router, DischargeFloorBlocksDeepDischarge) {
  auto bats = make_batteries(1, 0.35);
  const std::vector<util::Watts> demands{watts(100.0)};
  const auto order = natural_order(1);
  const std::vector<double> floor{0.35};
  const auto r = route_power(watts(0.0), demands, bats, order, RouterParams{},
                             minutes(1.0), floor);
  EXPECT_NEAR(r.nodes[0].unmet.value(), 100.0, 1e-6);
  // Only internal self-discharge may move the SoC, never the router.
  EXPECT_NEAR(bats[0].soc(), 0.35, 1e-6);
}

TEST(Router, DischargeFloorPartiallyHonored) {
  auto bats = make_batteries(1, 0.42);
  const std::vector<util::Watts> demands{watts(150.0)};
  const auto order = natural_order(1);
  const std::vector<double> floor{0.40};
  route_power(watts(0.0), demands, bats, order, RouterParams{}, minutes(30.0), floor);
  // The router may not discharge below the floor; standing self-discharge
  // over the 30-minute step accounts for the tiny epsilon.
  EXPECT_GE(bats[0].soc(), 0.40 - 1e-4);
}

TEST(Router, EveryBatterySteppedOncePerTick) {
  auto bats = make_batteries(3, 0.7);
  const std::vector<util::Watts> demands{watts(0.0), watts(0.0), watts(0.0)};
  const auto order = natural_order(3);
  route_power(watts(0.0), demands, bats, order, RouterParams{}, minutes(1.0));
  for (const auto& b : bats) {
    EXPECT_DOUBLE_EQ(b.counters().time_total.value(), 60.0);
  }
}

TEST(Router, EnergyConservationAcrossRoute) {
  auto bats = make_batteries(3, 0.6);
  const std::vector<util::Watts> demands{watts(120.0), watts(60.0), watts(200.0)};
  const auto order = natural_order(3);
  const auto r = route_power(watts(250.0), demands, bats, order, RouterParams{},
                             minutes(1.0));
  double solar_used = 0.0;
  for (const auto& n : r.nodes) {
    solar_used += n.solar_used.value() + n.charge_drawn.value();
    // Per-node demand balance.
    EXPECT_NEAR(n.demand.value(),
                n.solar_used.value() + n.utility_used.value() +
                    n.battery_delivered.value() + n.unmet.value(),
                1e-6);
  }
  EXPECT_NEAR(solar_used + r.solar_curtailed.value(), 250.0, 1e-6);
}

TEST(Router, RejectsBadArguments) {
  auto bats = make_batteries(1, 0.5);
  const std::vector<util::Watts> demands{watts(10.0), watts(10.0)};  // size mismatch
  const auto order = natural_order(1);
  EXPECT_THROW(route_power(watts(0.0), demands, bats, order, RouterParams{},
                           minutes(1.0)),
               util::PreconditionError);
}

// --- batched fleet bank vs standalone objects --------------------------------

bool same_node(const NodeRoute& a, const NodeRoute& b) {
  return a.demand.value() == b.demand.value() && a.solar_used.value() == b.solar_used.value() &&
         a.utility_used.value() == b.utility_used.value() &&
         a.battery_delivered.value() == b.battery_delivered.value() &&
         a.unmet.value() == b.unmet.value() && a.charge_drawn.value() == b.charge_drawn.value() &&
         a.battery_current.value() == b.battery_current.value() &&
         a.battery_cutoff == b.battery_cutoff;
}

bool same_cell(const battery::Battery& a, const battery::Battery& b) {
  const battery::AgingState& ga = a.aging_state();
  const battery::AgingState& gb = b.aging_state();
  const battery::UsageCounters& ca = a.counters();
  const battery::UsageCounters& cb = b.counters();
  bool same = a.soc() == b.soc() && a.temperature().value() == b.temperature().value() &&
              ga.corrosion == gb.corrosion && ga.shedding == gb.shedding &&
              ga.sulphation == gb.sulphation && ga.water_loss == gb.water_loss &&
              ga.stratification == gb.stratification &&
              ca.ah_discharged.value() == cb.ah_discharged.value() &&
              ca.ah_charged.value() == cb.ah_charged.value() &&
              ca.time_total.value() == cb.time_total.value() &&
              ca.time_below_40.value() == cb.time_below_40.value() &&
              ca.time_since_full_charge.value() == cb.time_since_full_charge.value() &&
              ca.full_charge_events == cb.full_charge_events &&
              ca.min_soc_since_full == cb.min_soc_since_full &&
              ca.energy_discharged.value() == cb.energy_discharged.value() &&
              ca.energy_charged.value() == cb.energy_charged.value();
  for (int r = 0; r < 4; ++r) same = same && ca.ah_by_range[r].value() == cb.ah_by_range[r].value();
  return same;
}

/// Routes two days through a bank of views into one shared FleetState (the
/// router's batched step_cells path) and through standalone Battery objects
/// with identical cells (its per-object fallback). Every RouteResult and
/// every cell's state must agree bitwise on every tick. The day mixes
/// discharging, charging, idle, floor-cut-off and open-cell nodes.
void expect_fleet_bank_matches_objects(battery::MathMode math, ChargeAllocation allocation) {
  constexpr std::size_t kNodes = 20;  // two 8-cell blocks plus a tail
  battery::FleetState fleet{battery::LeadAcidParams{}, battery::AgingParams{},
                            battery::ThermalParams{}, math};
  std::vector<battery::Battery> objects;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const double cap = 1.0 + 0.01 * static_cast<double>(i % 5);
    const double res = 1.0 + 0.02 * static_cast<double>(i % 3);
    const double soc = 0.35 + 0.03 * static_cast<double>(i);
    fleet.add_cell(cap, res, soc);
    objects.emplace_back(battery::LeadAcidParams{}, battery::AgingParams{},
                         battery::ThermalParams{}, cap, res, soc, math);
  }
  std::vector<battery::Battery> views;
  for (std::size_t i = 0; i < kNodes; ++i) views.emplace_back(fleet, i);
  views[5].fail_open();
  objects[5].fail_open();

  std::vector<std::size_t> order = natural_order(kNodes);
  if (allocation == ChargeAllocation::PriorityOrder) std::reverse(order.begin(), order.end());
  std::vector<double> floor(kNodes, 0.0);
  floor[2] = 0.5;
  floor[6] = 0.45;
  floor[9] = 0.6;
  RouterParams params;
  params.charge_allocation = allocation;

  RouteResult via_fleet;
  RouteResult via_objects;
  RouterScratch fleet_scratch;
  RouterScratch object_scratch;
  std::vector<util::Watts> demands(kNodes);
  long mismatches = 0;
  long first_mismatch = -1;
  long discharging = 0, charging = 0, idle = 0, floor_cut = 0, open_unmet = 0;
  const util::Seconds dt = minutes(1.0);
  for (long k = 0; k < 2 * 1440; ++k) {
    if (k == 1700) {  // an open-cell failure mid-run, inside the second block
      views[12].fail_open();
      objects[12].fail_open();
    }
    const double hour = static_cast<double>(k % 1440) / 60.0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const bool off = i % 4 == 3 || (hour >= 20.0 && i % 2 == 0);
      demands[i] = watts(off ? 0.0 : 30.0 + 8.0 * static_cast<double>(i % 5));
    }
    const double sun = std::max(0.0, std::sin(3.14159265358979 * (hour - 6.0) / 12.0));
    const util::Watts solar = watts(1200.0 * sun);
    route_power_into(solar, demands, views, order, params, dt, floor, via_fleet, fleet_scratch);
    route_power_into(solar, demands, objects, order, params, dt, floor, via_objects,
                     object_scratch);

    bool same = via_fleet.solar_available.value() == via_objects.solar_available.value() &&
                via_fleet.solar_curtailed.value() == via_objects.solar_curtailed.value() &&
                via_fleet.utility_drawn.value() == via_objects.utility_drawn.value();
    for (std::size_t i = 0; i < kNodes; ++i) {
      same = same && same_node(via_fleet.nodes[i], via_objects.nodes[i]) &&
             same_cell(views[i], objects[i]);
      const NodeRoute& node = via_fleet.nodes[i];
      if (node.battery_delivered.value() > 0.0) ++discharging;
      if (node.charge_drawn.value() > 0.0) ++charging;
      if (node.battery_current.value() == 0.0 && !node.battery_cutoff) ++idle;
      if (node.battery_cutoff && floor[i] > 0.0 && views[i].soc() <= floor[i]) ++floor_cut;
      if ((i == 5 || i == 12) && node.unmet.value() > 0.0) ++open_unmet;
    }
    if (!same && mismatches++ == 0) first_mismatch = k;
  }
  EXPECT_EQ(mismatches, 0) << "shared-fleet and standalone banks diverged at tick "
                           << first_mismatch;
  EXPECT_GT(discharging, 0);
  EXPECT_GT(charging, 0);
  EXPECT_GT(idle, 0);
  EXPECT_GT(floor_cut, 0);
  EXPECT_GT(open_unmet, 0);
}

TEST(Router, FleetBankMatchesObjectsExactProportional) {
  expect_fleet_bank_matches_objects(battery::MathMode::Exact, ChargeAllocation::Proportional);
}

TEST(Router, FleetBankMatchesObjectsExactPriorityOrder) {
  expect_fleet_bank_matches_objects(battery::MathMode::Exact, ChargeAllocation::PriorityOrder);
}

TEST(Router, FleetBankMatchesObjectsSimdProportional) {
  expect_fleet_bank_matches_objects(battery::MathMode::Simd, ChargeAllocation::Proportional);
}

TEST(Router, FleetBankMatchesObjectsSimdPriorityOrder) {
  expect_fleet_bank_matches_objects(battery::MathMode::Simd, ChargeAllocation::PriorityOrder);
}

TEST(Meter, AccumulatesAndReportsUtilization) {
  auto bats = make_batteries(1, 0.5);
  const std::vector<util::Watts> demands{watts(100.0)};
  const auto order = natural_order(1);
  EnergyMeter meter;
  for (int i = 0; i < 60; ++i) {
    const auto r = route_power(watts(200.0), demands, bats, order, RouterParams{},
                               minutes(1.0));
    meter.add(r, minutes(1.0));
  }
  EXPECT_NEAR(meter.solar_available().value(), 200.0, 1e-9);
  EXPECT_NEAR(meter.solar_to_load().value(), 100.0, 1e-9);
  EXPECT_GT(meter.solar_to_charge().value(), 0.0);
  EXPECT_GT(meter.solar_utilization(), 0.5);
  EXPECT_DOUBLE_EQ(meter.unmet().value(), 0.0);
}

}  // namespace
}  // namespace baat::power
