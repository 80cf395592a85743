#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/cluster.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {
namespace {

ScenarioConfig quick_config(core::PolicyKind policy = core::PolicyKind::EBuff) {
  ScenarioConfig cfg = prototype_scenario();
  cfg.policy = policy;
  return cfg;
}

TEST(Scenario, PrototypeDefaultsMatchPaper) {
  const ScenarioConfig cfg = prototype_scenario();
  EXPECT_EQ(cfg.nodes, 6u);  // three IBM + three HP servers
  EXPECT_DOUBLE_EQ(cfg.bank.chemistry.capacity_c20.value(), 35.0);
  EXPECT_EQ(cfg.bank.chemistry.cells, 6);  // 12 V blocks
  EXPECT_DOUBLE_EQ(cfg.day_start.value(), 8.5 * 3600.0);   // 8:30 AM
  EXPECT_DOUBLE_EQ(cfg.day_end.value(), 18.5 * 3600.0);    // 6:30 PM
  EXPECT_EQ(cfg.daily_jobs.size(), 12u);  // six workloads × 2 replicas
}

TEST(Scenario, DefaultJobsCoverAllSixWorkloads) {
  const auto jobs = default_daily_jobs(1);
  ASSERT_EQ(jobs.size(), 6u);
  for (workload::Kind k : workload::kAllKinds) {
    const bool present = std::any_of(jobs.begin(), jobs.end(),
                                     [k](const JobSpec& j) { return j.kind == k; });
    EXPECT_TRUE(present) << workload::kind_name(k);
  }
  // Arrivals are staggered, biggest footprints first (anti-fragmentation).
  EXPECT_LT(jobs[0].arrival.value(), jobs[5].arrival.value());
  EXPECT_EQ(jobs[0].kind, workload::Kind::SoftwareTesting);
}

TEST(Cluster, QueuedJobsRetryAndDeployInArrivalOrder) {
  // The window opens before dawn on empty batteries, so every node browns
  // out within minutes and the day's jobs pile up in the retry queue. When
  // the sun brings the nodes back, the queue is retried in arrival order on
  // each window tick: jobs that fit deploy, the rest keep their places.
  ScenarioConfig cfg = quick_config();
  cfg.nodes = 3;
  cfg.day_start = util::hours(5.0);
  cfg.daily_jobs.clear();
  for (int j = 0; j < 12; ++j) {
    cfg.daily_jobs.push_back(JobSpec{workload::kAllKinds[j % 6], util::minutes(10.0 * j)});
  }
  obs::Registry& reg = obs::global_registry();
  obs::TraceBuffer& trace = obs::global_trace();
  obs::set_profiling_enabled(false);
  obs::set_trace_enabled(true);
  reg.reset();
  trace.clear();
  Cluster c{cfg};
  for (battery::Battery& b : c.batteries_mutable()) b.debug_set_soc(0.02);
  (void)c.run_day(solar::DayType::Sunny);
  obs::set_trace_enabled(false);
  util::set_sim_time(-1.0);

  std::vector<std::string> queued;
  std::vector<std::string> deployed;  // "kind->node/vm" after the queue formed
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.kind == obs::EventKind::JobQueued) queued.push_back(e.detail);
    if (e.kind == obs::EventKind::JobDeploy && !queued.empty()) {
      deployed.push_back(e.detail + "->" + std::to_string(e.node) + "/" +
                         std::to_string(static_cast<long>(e.value)));
    }
  }
  ASSERT_EQ(queued.size(), 11u);
  // Pinned from the queue semantics above (retry order, first fit wins).
  const std::vector<std::string> expected = {
      "KMeansClustering->1/1", "WordCount->2/2",   "SoftwareTesting->0/3",
      "WebServing->2/4",       "NutchIndexing->1/5", "WordCount->2/6"};
  EXPECT_EQ(deployed, expected);
  const obs::Counter* retries = reg.find_counter("sim.vm_deploy_retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->value(), 4951.0);
}

TEST(Cluster, ConstructionBuildsFleet) {
  Cluster c{quick_config()};
  EXPECT_EQ(c.node_count(), 6u);
  EXPECT_EQ(c.days_run(), 0);
  for (const auto& b : c.batteries()) EXPECT_DOUBLE_EQ(b.soc(), 1.0);
}

TEST(Cluster, RunDayProducesCoherentResult) {
  Cluster c{quick_config()};
  const DayResult r = c.run_day(solar::DayType::Sunny);
  EXPECT_EQ(c.days_run(), 1);
  EXPECT_EQ(r.day_type, solar::DayType::Sunny);
  EXPECT_GT(r.solar_energy.value(), 5000.0);
  EXPECT_GT(r.throughput_work, 0.0);
  EXPECT_EQ(r.nodes.size(), 6u);
  EXPECT_GT(r.jobs_finished, 0);
  for (const auto& n : r.nodes) {
    EXPECT_GE(n.soc_min, 0.0);
    EXPECT_LE(n.soc_min, 1.0);
    EXPECT_GT(n.health, 0.9);
    EXPECT_GE(n.metrics_day.nat, 0.0);
  }
}

TEST(Cluster, SocHistogramAccountsAllNodeTime) {
  Cluster c{quick_config()};
  const DayResult r = c.run_day(solar::DayType::Cloudy);
  // 6 nodes × 86400 s of weighted samples.
  EXPECT_NEAR(r.soc_histogram.total_weight(), 6.0 * 86400.0, 1.0);
}

TEST(Cluster, EnergyConservationOverDay) {
  Cluster c{quick_config()};
  const DayResult r = c.run_day(solar::DayType::Cloudy);
  const auto& m = r.meter;
  // Solar is either used, stored or curtailed.
  EXPECT_NEAR(m.solar_available().value(),
              m.solar_to_load().value() + m.solar_to_charge().value() +
                  m.solar_curtailed().value(),
              1.0);
  // Pure green operation: no utility.
  EXPECT_DOUBLE_EQ(m.utility_used().value(), 0.0);
}

TEST(Cluster, CloudyDayStressesBatteries) {
  Cluster c{quick_config()};
  const DayResult sunny = c.run_day(solar::DayType::Sunny);
  Cluster c2{quick_config()};
  const DayResult cloudy = c2.run_day(solar::DayType::Cloudy);
  EXPECT_GT(cloudy.nodes[cloudy.worst_node()].ah_discharged.value(),
            sunny.nodes[sunny.worst_node()].ah_discharged.value());
}

TEST(Cluster, DeterministicForSameSeed) {
  Cluster a{quick_config()};
  Cluster b{quick_config()};
  const DayResult ra = a.run_day(solar::DayType::Cloudy);
  const DayResult rb = b.run_day(solar::DayType::Cloudy);
  EXPECT_DOUBLE_EQ(ra.throughput_work, rb.throughput_work);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(a.batteries()[i].soc(), b.batteries()[i].soc());
    EXPECT_DOUBLE_EQ(ra.nodes[i].ah_discharged.value(),
                     rb.nodes[i].ah_discharged.value());
  }
}

TEST(Cluster, SeedChangesOutcome) {
  ScenarioConfig cfg = quick_config();
  Cluster a{cfg};
  cfg.seed = 777;
  Cluster b{cfg};
  const DayResult ra = a.run_day(solar::DayType::Cloudy);
  const DayResult rb = b.run_day(solar::DayType::Cloudy);
  EXPECT_NE(ra.throughput_work, rb.throughput_work);
}

TEST(Cluster, VmsRetiredAtDayEnd) {
  Cluster c{quick_config()};
  c.run_day(solar::DayType::Sunny);
  // A second day must deploy fresh jobs and produce similar work, not
  // double-count yesterday's.
  const DayResult r2 = c.run_day(solar::DayType::Sunny);
  EXPECT_GT(r2.throughput_work, 0.0);
}

TEST(Cluster, LifeMetricsAccumulateAcrossDays) {
  Cluster c{quick_config()};
  c.run_day(solar::DayType::Cloudy);
  const double nat1 = c.life_metrics(0).nat;
  c.run_day(solar::DayType::Cloudy);
  const double nat2 = c.life_metrics(0).nat;
  EXPECT_GT(nat1, 0.0);
  EXPECT_GT(nat2, nat1);
}

TEST(Cluster, PolicySwapResetsRouterHints) {
  Cluster c{quick_config(core::PolicyKind::Baat)};
  c.run_day(solar::DayType::Cloudy);
  c.set_policy(core::PolicyKind::EBuff);
  EXPECT_EQ(c.policy().kind(), core::PolicyKind::EBuff);
  const DayResult r = c.run_day(solar::DayType::Cloudy);
  EXPECT_EQ(r.migrations, 0);
}

TEST(Cluster, BaatActsOnStressedDays) {
  ScenarioConfig cfg = quick_config(core::PolicyKind::Baat);
  Cluster c{cfg};
  seed_aged_fleet(c, six_month_aged_state());
  const DayResult r = c.run_day(solar::DayType::Rainy);
  EXPECT_GT(r.migrations + r.dvfs_transitions, 0);
}

TEST(Cluster, TickObserverSeesEveryTick) {
  Cluster c{quick_config()};
  long ticks = 0;
  double max_solar = 0.0;
  c.set_tick_observer([&](const TickObservation& obs) {
    ++ticks;
    max_solar = std::max(max_solar, obs.solar.value());
    ASSERT_NE(obs.route, nullptr);
    ASSERT_EQ(obs.route->nodes.size(), 6u);
  });
  c.run_day(solar::DayType::Sunny);
  EXPECT_EQ(ticks, 1440);
  EXPECT_GT(max_solar, 500.0);
}

TEST(Cluster, WorstNodeSelection) {
  DayResult r;
  r.nodes.resize(3);
  r.nodes[0].ah_discharged = util::ampere_hours(5.0);
  r.nodes[1].ah_discharged = util::ampere_hours(9.0);
  r.nodes[2].ah_discharged = util::ampere_hours(7.0);
  EXPECT_EQ(r.worst_node(), 1u);
}

TEST(Cluster, RejectsBadConfig) {
  ScenarioConfig cfg = quick_config();
  cfg.nodes = 0;
  EXPECT_THROW(Cluster{cfg}, util::PreconditionError);
  cfg = quick_config();
  cfg.dt = util::seconds(0.0);
  EXPECT_THROW(Cluster{cfg}, util::PreconditionError);
  cfg = quick_config();
  cfg.day_start = util::hours(20.0);
  cfg.day_end = util::hours(8.0);
  EXPECT_THROW(Cluster{cfg}, util::PreconditionError);
}

TEST(Experiment, RatioRescalesBattery) {
  const ScenarioConfig cfg = with_server_battery_ratio(prototype_scenario(), 10.0);
  EXPECT_NEAR(cfg.bank.chemistry.capacity_c20.value(), 15.0, 1e-9);  // 150 W / 10
  EXPECT_THROW(with_server_battery_ratio(prototype_scenario(), 0.0),
               util::PreconditionError);
}

TEST(Experiment, SeedAgedFleetAges) {
  Cluster c{quick_config()};
  seed_aged_fleet(c, six_month_aged_state());
  for (const auto& b : c.batteries()) {
    EXPECT_LT(b.health(), 0.93);
    EXPECT_GT(b.health(), 0.80);
  }
}

}  // namespace
}  // namespace baat::sim
