#include <gtest/gtest.h>

#include "battery/battery.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/power_table.hpp"
#include "telemetry/sensor.hpp"
#include "util/require.hpp"

namespace baat::telemetry {
namespace {

using util::amperes;
using util::hours;
using util::minutes;

battery::Battery fresh(double soc = 1.0) {
  return battery::Battery{battery::LeadAcidParams{}, battery::AgingParams{},
                          battery::ThermalParams{}, 1.0, 1.0, soc};
}

PowerTable make_table() {
  PowerTableParams p;
  p.chemistry = battery::LeadAcidParams{};
  return PowerTable{p};
}

/// Drives a battery and logs every step through a noiseless sensor.
void drive(battery::Battery& bat, PowerTable& table, double amps, double hours_len) {
  BatterySensor sensor{SensorNoise{0.0, 0.0, 0.0}, util::Rng{1}};
  const auto steps = static_cast<long>(hours_len * 60.0);
  for (long i = 0; i < steps; ++i) {
    const auto res = bat.step(amperes(amps), minutes(1.0));
    const auto reading = sensor.read(bat, res.actual_current,
                                     util::Seconds{table.time_total().value()});
    table.record(reading, minutes(1.0));
  }
}

TEST(Sensor, NoiselessSensorMatchesGroundTruth) {
  battery::Battery b = fresh(0.8);
  BatterySensor s{SensorNoise{0.0, 0.0, 0.0}, util::Rng{1}};
  const auto r = s.read(b, amperes(5.0), util::Seconds{0.0});
  EXPECT_DOUBLE_EQ(r.voltage.value(), b.terminal_voltage(amperes(5.0)).value());
  EXPECT_DOUBLE_EQ(r.current.value(), 5.0);
  EXPECT_DOUBLE_EQ(r.temperature.value(), b.temperature().value());
}

TEST(Sensor, NoiseIsBoundedInPractice) {
  battery::Battery b = fresh(0.8);
  BatterySensor s{SensorNoise{}, util::Rng{1}};
  for (int i = 0; i < 1000; ++i) {
    const auto r = s.read(b, amperes(5.0), util::Seconds{0.0});
    EXPECT_NEAR(r.voltage.value(), b.terminal_voltage(amperes(5.0)).value(), 0.1);
    EXPECT_NEAR(r.current.value(), 5.0, 0.5);
  }
}

TEST(PowerTable, SocEstimateTracksTruthOnFreshUnit) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 5.0, 3.0);  // 15 Ah out of 35 → soc ≈ 0.55 (Peukert a bit lower)
  EXPECT_NEAR(t.estimated_soc(), b.soc(), 0.08);
}

TEST(PowerTable, AccumulatesChargeAndDischargeSeparately) {
  battery::Battery b = fresh(0.9);
  PowerTable t = make_table();
  drive(b, t, 5.0, 2.0);
  drive(b, t, -5.0, 1.0);
  EXPECT_NEAR(t.ah_discharged().value(), 10.0, 0.01);
  EXPECT_NEAR(t.ah_charged().value(), 5.0, 0.01);
}

TEST(PowerTable, RangeBinsSumToTotal) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 6.0, 5.0);  // deep drain across ranges
  const double sum = t.ah_in_range(0).value() + t.ah_in_range(1).value() +
                     t.ah_in_range(2).value() + t.ah_in_range(3).value();
  EXPECT_NEAR(sum, t.ah_discharged().value(), 1e-9);
  EXPECT_THROW(t.ah_in_range(4), util::PreconditionError);
}

TEST(PowerTable, TimeBelow40Tracked) {
  battery::Battery b = fresh(0.2);
  PowerTable t = make_table();
  drive(b, t, 0.0, 2.0);
  // The estimator starts at SoC 1 and needs a few rest anchors to converge
  // onto the deeply discharged unit, so allow a short warm-up slack.
  EXPECT_NEAR(t.time_below_40().value(), 7200.0, 900.0);
  EXPECT_NEAR(t.time_total().value(), 7200.0, 1e-9);
}

TEST(PowerTable, DrEwmaRisesAndDecays) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 10.0, 1.0);
  const double during = t.recent_discharge_amps();
  EXPECT_NEAR(during, 10.0, 0.5);
  drive(b, t, 0.0, 1.0);
  EXPECT_LT(t.recent_discharge_amps(), 0.1);
}

TEST(PowerTable, LastReadingTimeTracksNewest) {
  PowerTable t = make_table();
  EXPECT_FALSE(t.last_reading_time().has_value());

  SensorReading r;
  r.voltage = util::Volts{12.6};
  r.current = amperes(2.0);
  r.time = util::Seconds{600.0};
  t.record(r, util::Seconds{60.0});
  ASSERT_TRUE(t.last_reading_time().has_value());
  EXPECT_DOUBLE_EQ(t.last_reading_time()->value(), 600.0);

  r.time = util::Seconds{660.0};
  t.record(r, util::Seconds{60.0});
  EXPECT_DOUBLE_EQ(t.last_reading_time()->value(), 660.0);

  // A stuck sensor replays an old sample: the table reports that sample's
  // timestamp, not the newest one it has ever seen.
  r.time = util::Seconds{120.0};
  t.record(r, util::Seconds{60.0});
  EXPECT_DOUBLE_EQ(t.last_reading_time()->value(), 120.0);
}

TEST(PowerTable, LastReadingTimeSurvivesCheckpoint) {
  PowerTable empty = make_table();
  PowerTable seen = make_table();
  SensorReading r;
  r.voltage = util::Volts{12.6};
  r.time = util::Seconds{4321.0};
  seen.record(r, util::Seconds{60.0});

  snapshot::SnapshotWriter w;
  empty.save_state(w);
  seen.save_state(w);
  snapshot::SnapshotReader rd{w.bytes()};
  PowerTable empty_back = make_table();
  PowerTable seen_back = make_table();
  empty_back.record(r, util::Seconds{60.0});  // load must clear this
  empty_back.load_state(rd);
  seen_back.load_state(rd);
  EXPECT_EQ(rd.remaining(), 0u);
  EXPECT_FALSE(empty_back.last_reading_time().has_value());
  ASSERT_TRUE(seen_back.last_reading_time().has_value());
  EXPECT_DOUBLE_EQ(seen_back.last_reading_time()->value(), 4321.0);
}

void expect_same_accumulators(const PowerTable& a, const PowerTable& b) {
  EXPECT_EQ(a.ah_discharged().value(), b.ah_discharged().value());
  EXPECT_EQ(a.ah_charged().value(), b.ah_charged().value());
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(a.ah_in_range(r).value(), b.ah_in_range(r).value()) << "range " << r;
  }
  EXPECT_EQ(a.time_total().value(), b.time_total().value());
  EXPECT_EQ(a.time_below_40().value(), b.time_below_40().value());
  EXPECT_EQ(a.recent_discharge_amps(), b.recent_discharge_amps());
  EXPECT_EQ(a.estimated_soc(), b.estimated_soc());
}

/// Reading k of a sequence that alternates rest (the SoC blend runs) and
/// load (only the DR window runs), in both directions.
SensorReading varied_reading(long k) {
  constexpr double kAmps[] = {0.5, 8.0, -2.0, 0.0, 12.0, 1.0, -6.0};
  SensorReading r;
  r.current = amperes(kAmps[k % 7]);
  r.voltage = util::Volts{12.0 + 0.1 * static_cast<double>(k % 9)};
  r.time = util::Seconds{60.0 * static_cast<double>(k)};
  return r;
}

TEST(PowerTable, MemoizedBlendWeightsMatchFreshTableAcrossVaryingDt) {
  // The per-dt blend weights are memoized on the last dt. Each step, a
  // fresh table restored from the long-lived one's state (its memo cold)
  // must fold the same reading into bit-identical accumulators, whether dt
  // repeats or changes.
  constexpr double kDts[] = {60.0, 60.0, 30.0, 30.0, 90.0, 60.0, 1.0, 1.0, 600.0, 60.0};
  PowerTable memo = make_table();
  for (long k = 0; k < 70; ++k) {
    snapshot::SnapshotWriter w;
    memo.save_state(w);
    snapshot::SnapshotReader rd{w.bytes()};
    PowerTable fresh = make_table();
    fresh.load_state(rd);
    const util::Seconds dt{kDts[k % 10]};
    memo.record(varied_reading(k), dt);
    fresh.record(varied_reading(k), dt);
    expect_same_accumulators(memo, fresh);
  }
  EXPECT_GT(memo.recent_discharge_amps(), 0.0);
}

TEST(PowerTable, SharedVoltageSocMatchesIndependentRecords) {
  // Two tables built from one params (the life and the daily-reset table)
  // can share one voltage_soc per reading; that must equal each table
  // deriving it on its own, in both estimation schemes.
  for (const SocEstimation mode : {SocEstimation::RestAnchoredCoulomb, SocEstimation::VoltageOnly}) {
    PowerTableParams p;
    p.estimation = mode;
    PowerTable life_own{p}, day_own{p}, life_shared{p}, day_shared{p};
    for (long k = 0; k < 200; ++k) {
      if (k == 120) {  // the daily table starts a new day
        day_own = PowerTable{p};
        day_shared = PowerTable{p};
      }
      const SensorReading r = varied_reading(k);
      life_own.record(r, minutes(1.0));
      day_own.record(r, minutes(1.0));
      const double soc_v = voltage_soc(p, r);
      life_shared.record(r, minutes(1.0), soc_v);
      day_shared.record(r, minutes(1.0), soc_v);
    }
    expect_same_accumulators(life_own, life_shared);
    expect_same_accumulators(day_own, day_shared);
  }
}

TEST(Metrics, FreshTableIsNeutral) {
  PowerTable t = make_table();
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_DOUBLE_EQ(m.nat, 0.0);
  EXPECT_DOUBLE_EQ(m.cf, 1.0);
  EXPECT_DOUBLE_EQ(m.ddt, 0.0);
  EXPECT_DOUBLE_EQ(m.dr_c_rate, 0.0);
}

TEST(Metrics, NatIsLifeFraction) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 7.0, 2.0);  // 14 Ah
  MetricParams p;
  p.lifetime_throughput = util::ampere_hours(1400.0);
  const AgingMetrics m = compute_metrics(t, p);
  EXPECT_NEAR(m.nat, 0.01, 1e-4);
}

TEST(Metrics, CfReflectsRechargeRatio) {
  battery::Battery b = fresh(0.8);
  PowerTable t = make_table();
  drive(b, t, 5.0, 2.0);   // 10 Ah out
  drive(b, t, -5.0, 2.0);  // 10 Ah in
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_NEAR(m.cf, 1.0, 0.05);
}

TEST(Metrics, PcHighSocIsHealthy) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 3.0, 1.0);  // all output at high SoC
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_NEAR(m.pc, 0.25, 0.01);
  EXPECT_NEAR(m.pc_health, 1.0, 0.05);
}

TEST(Metrics, PcDeepDischargeIsWorse) {
  battery::Battery shallow_b = fresh(1.0);
  PowerTable shallow_t = make_table();
  drive(shallow_b, shallow_t, 3.0, 1.0);
  battery::Battery deep_b = fresh(0.3);
  PowerTable deep_t = make_table();
  drive(deep_b, deep_t, 3.0, 1.0);
  const AgingMetrics shallow = compute_metrics(shallow_t, MetricParams{});
  const AgingMetrics deep = compute_metrics(deep_t, MetricParams{});
  EXPECT_GT(deep.pc, shallow.pc + 0.3);
  EXPECT_LT(deep.pc_health, shallow.pc_health - 0.3);
}

TEST(Metrics, DdtIsTimeFraction) {
  battery::Battery b = fresh(0.2);
  PowerTable t = make_table();
  drive(b, t, 0.0, 1.0);   // 1 h deep
  battery::Battery b2 = fresh(0.9);
  drive(b2, t, 0.0, 3.0);  // 3 h high (same table: 25% of time deep)
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_NEAR(m.ddt, 0.25, 0.035);  // small estimator warm-up slack
}

TEST(Metrics, DrIsCRate) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 17.5, 0.5);  // C/2
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_NEAR(m.dr_c_rate, 0.5, 0.05);
}

TEST(Metrics, CfClampedAgainstGlitches) {
  PowerTable t = make_table();
  battery::Battery b = fresh(0.5);
  // Tiny discharge, huge charge: CF would explode without the clamp.
  drive(b, t, 0.1, 0.1);
  drive(b, t, -8.0, 6.0);
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_LE(m.cf, 5.0);
}

TEST(Metrics, RejectsBadParams) {
  PowerTable t = make_table();
  MetricParams p;
  p.lifetime_throughput = util::ampere_hours(0.0);
  EXPECT_THROW(compute_metrics(t, p), util::PreconditionError);
}

}  // namespace
}  // namespace baat::telemetry
