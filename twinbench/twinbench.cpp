// twinbench — end-to-end benchmark of the sharded datacenter twin.
//
// One process runs one workload: it builds the datacenter, steps it through
// a fixed number of simulated days, checkpoints and resumes it, checks the
// outputs and prints every metric as one JSON object on its last stdout
// line. README.md in this directory lists the workloads, every metric and
// how to run it; run.py builds this binary and is the command to use.
//
// The library is driven only through public entry points (the Datacenter
// constructor, sample_solar_days, run_day, the sectioned checkpoint
// writer/reader, merge_metrics_into and Cluster::set_tick_observer). Every
// layer is timed from out here; nothing under src/ knows it is measured.
//
// With --trace 0 only the end-to-end metrics are taken. With --trace 1 the
// timed days alternate: even ones run exactly as with --trace 0, odd ones
// with a tick observer on every shard plus the library's own profile timers
// and event trace switched on; the per-layer metrics come from the traced
// days and from a few stand-alone probes run afterwards.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "battery/bank.hpp"
#include "battery/fleet.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sim/datacenter.hpp"
#include "sim/scenario.hpp"
#include "snapshot/sections.hpp"
#include "snapshot/serialize.hpp"
#include "solar/location.hpp"
#include "telemetry/power_table.hpp"
#include "telemetry/sensor.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/demand.hpp"

namespace {

// Every operator new in the process, including those on shard worker
// threads, so the counter must be atomic; relaxed is enough because it is
// only read after run_day has joined the workers.
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t a) { return counted_aligned_alloc(size, a); }
void* operator new[](std::size_t size, std::align_val_t a) {
  return counted_aligned_alloc(size, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace baat;
using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Weather order, solar traces and every RNG stream follow the seed; the
/// shape of each workload does not.
constexpr double kSunshine = 0.5;
/// Weather is dealt in blocks of this many days, each block holding the
/// location's expected mix (5 sunny, 3 cloudy, 2 rainy at kSunshine) in a
/// seeded order, and a run times whole blocks. Independent draws would let
/// the sunny share of a 40-day run swing by +-8 points between seeds and
/// move every cost with it.
constexpr long kWeatherBlock = 10;
/// Days 2, 6, 10, ... carry a 3x flash crowd; listed far past any run so
/// every run length sees one flash day in four.
constexpr long kFlashPeriod = 4;
constexpr long kFlashHorizonDays = 400;
/// flash_crowd's demand is that of a 1500-node shard with 500M users and a
/// 2048-job daily cap, scaled to the shard's node count. The cap binds on
/// every day, so a flash crowd bunches a day's jobs rather than adding to
/// them.
constexpr std::uint64_t kFlashUsers = 500'000'000;
constexpr std::uint64_t kFlashJobCap = 2048;
constexpr std::uint64_t kFlashDemandNodes = 1500;
/// The reference digest covers the first kReferenceDays days of a run.
constexpr long kReferenceDays = 3;

std::size_t worker_cap(std::size_t wanted) {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, std::min<std::size_t>(wanted, hw == 0 ? 1 : hw));
}

/// A 250 W-peak PV share per node and no energy normalisation: a fleet of
/// hundreds of nodes behind one shard must not share the prototype's
/// 1.5 kW plant, or it spends the run browned out.
sim::ScenarioConfig scaled_plant_scenario(std::size_t nodes, std::uint64_t seed) {
  sim::ScenarioConfig sc = sim::prototype_scenario();
  sc.nodes = nodes;
  sc.bank.units = nodes;
  sc.plant.peak = util::watts(250.0 * static_cast<double>(nodes));
  sc.plant.normalize_energy = false;
  sc.policy_params.forecast.plant_peak = sc.plant.peak;
  sc.policy = core::PolicyKind::Baat;
  sc.seed = seed;
  return sc;
}

sim::DatacenterConfig prototype_farm(bool tiny, std::uint64_t seed) {
  sim::DatacenterConfig cfg;
  cfg.scenario = sim::prototype_scenario();
  cfg.scenario.policy = core::PolicyKind::Baat;
  cfg.scenario.bank.math = battery::MathMode::Simd;
  cfg.scenario.seed = seed;
  cfg.shards = tiny ? 4 : 256;
  cfg.workers = worker_cap(4);
  return cfg;
}

sim::DatacenterConfig flash_crowd(bool tiny, std::uint64_t seed) {
  const std::size_t nodes = tiny ? 16 : 512;
  sim::DatacenterConfig cfg;
  cfg.scenario = scaled_plant_scenario(nodes, seed);
  cfg.scenario.bank.math = battery::MathMode::Simd;
  std::string spec = "users=" + std::to_string(kFlashUsers * nodes / kFlashDemandNodes) +
                     ",requests=150,peak=14,amplitude=0.6,cap=" +
                     std::to_string(kFlashJobCap * nodes / kFlashDemandNodes);
  for (long d = 2; d < kFlashHorizonDays; d += kFlashPeriod) {
    spec += ",flash:day=" + std::to_string(d) + ":mult=3";
  }
  cfg.demand = workload::parse_demand_spec(spec);
  cfg.shards = 1;
  cfg.workers = 1;
  return cfg;
}

sim::DatacenterConfig faulted_checkpointed(bool tiny, std::uint64_t seed) {
  const std::size_t nodes = tiny ? 16 : 256;
  sim::DatacenterConfig cfg;
  cfg.scenario = scaled_plant_scenario(nodes, seed);
  cfg.scenario.faults = fault::parse_fault_plan(
      "sensor_noise:soc:0.03,sensor_stuck:p=0.01,meter_glitch:p=0.02:scale=0.5");
  // The degraded-mode posture the CLI pairs with any fault plan.
  cfg.scenario.guard.enabled = true;
  cfg.scenario.policy_params.forecast.max_attenuation_drop_per_obs = 0.2;
  cfg.shards = 1;
  cfg.workers = 1;
  return cfg;
}

struct Workload {
  std::string_view name;
  std::uint64_t default_seed;
  /// Timed simulated days per --seconds on a 4-core x86 host; the day count
  /// is fixed by --seconds so both sides of a comparison do the same work.
  double days_per_second;
  bool checkpoint_every_day;
  /// Digest of the first kReferenceDays days plus the fleet state after
  /// them, at the default seed, full and tiny scale.
  std::uint64_t reference_full;
  std::uint64_t reference_tiny;
  sim::DatacenterConfig (*make)(bool tiny, std::uint64_t seed);
};

const Workload kWorkloads[] = {
    {"prototype_farm", 1, 1.6, false, 0x9bdde686e12fe882ULL, 0x4a07c538a3e92758ULL, prototype_farm},
    {"flash_crowd", 1, 1.45, false, 0x57ece4d2229c3d4cULL, 0x14ce4cddf5ca7babULL, flash_crowd},
    {"faulted_checkpointed", 1, 2.7, true, 0x729f2352e632d3eeULL, 0x1661a4b86c70a3b8ULL, faulted_checkpointed},
};

std::vector<solar::DayType> weather_sequence(std::uint64_t seed, std::size_t days) {
  const solar::Location site{kSunshine};
  std::vector<solar::DayType> block;
  for (solar::DayType t : {solar::DayType::Sunny, solar::DayType::Cloudy, solar::DayType::Rainy}) {
    const auto n = static_cast<int>(std::lround(site.probability(t) * kWeatherBlock));
    block.insert(block.end(), static_cast<std::size_t>(n), t);
  }
  util::Rng rng = util::Rng::stream(seed, "twinbench-weather");
  std::vector<solar::DayType> out;
  while (out.size() < days) {
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[static_cast<std::size_t>(rng.next() % (i + 1))]);
    }
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(days);
  return out;
}

/// Timed days for a run of about `days`: whole weather blocks, at least two.
long whole_blocks(double days) {
  return kWeatherBlock * std::max(2L, std::lround(days / static_cast<double>(kWeatherBlock)));
}

// ---------------------------------------------------------------------------
// Digests and output checks
// ---------------------------------------------------------------------------

class Digest {
 public:
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_u64(bits);
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void add_metrics(Digest& d, const telemetry::AgingMetrics& m) {
  for (double v : {m.nat, m.cf, m.pc, m.pc_health, m.ddt, m.dr_c_rate}) d.add(v);
}

void add_day(Digest& d, const sim::DayResult& r) {
  d.add_u64(static_cast<std::uint64_t>(r.day_type));
  d.add(r.solar_energy.value());
  d.add(r.throughput_work);
  d.add_u64(static_cast<std::uint64_t>(r.jobs_finished));
  d.add_u64(static_cast<std::uint64_t>(r.migrations));
  d.add_u64(static_cast<std::uint64_t>(r.dvfs_transitions));
  d.add_u64(r.nodes.size());
  for (const sim::NodeDayStats& n : r.nodes) {
    add_metrics(d, n.metrics_day);
    add_metrics(d, n.metrics_life);
    for (double v : {n.soc_min, n.soc_end, n.low_soc_time.value(), n.critical_soc_time.value(),
                     n.downtime.value(), n.health, n.ah_discharged.value()}) {
      d.add(v);
    }
    d.add_u64(static_cast<std::uint64_t>(n.brownouts));
  }
  const power::EnergyMeter& m = r.meter;
  for (double v : {m.solar_available().value(), m.solar_to_load().value(),
                   m.solar_to_charge().value(), m.solar_curtailed().value(),
                   m.battery_to_load().value(), m.utility_used().value(), m.unmet().value()}) {
    d.add(v);
  }
  const util::Histogram& h = r.soc_histogram;
  for (std::size_t b = 0; b < h.bin_count(); ++b) d.add(h.bin_weight(b));
  d.add(h.underflow());
  d.add(h.overflow());
  d.add(h.nan_weight());
}

/// Physical per-node state; deliberately not the checkpoint bytes, whose
/// format may change without the simulated fleet changing.
void add_fleet(Digest& d, const sim::Datacenter& dc) {
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    for (const battery::Battery& b : dc.shard(s).batteries()) {
      const battery::UsageCounters& c = b.counters();
      for (double v : {b.soc(), b.health(), c.ah_discharged.value(), c.ah_charged.value(),
                       c.energy_discharged.value(), c.energy_charged.value(),
                       c.time_below_40.value()}) {
        d.add(v);
      }
      d.add_u64(static_cast<std::uint64_t>(c.full_charge_events));
    }
  }
}

std::uint64_t day_and_fleet_digest(const sim::DayResult& r, const sim::Datacenter& dc) {
  Digest d;
  add_day(d, r);
  add_fleet(d, dc);
  return d.value();
}

/// Plausibility of one merged day; empty when fine.
std::string check_day(const sim::DayResult& r, std::size_t nodes) {
  constexpr double kEps = 1e-9;
  if (r.nodes.size() != nodes) {
    return "day result holds " + std::to_string(r.nodes.size()) + " nodes, expected " +
           std::to_string(nodes);
  }
  if (!std::isfinite(r.solar_energy.value()) || r.solar_energy.value() < 0.0 ||
      !std::isfinite(r.throughput_work) || r.throughput_work < 0.0 || r.jobs_finished < 0) {
    return "day totals out of range";
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    const sim::NodeDayStats& n = r.nodes[i];
    const bool ok = n.soc_end >= -kEps && n.soc_end <= 1.0 + kEps && n.soc_min >= -kEps &&
                    n.soc_min <= n.soc_end + kEps && n.health > 0.0 && n.health <= 1.0 + kEps &&
                    std::isfinite(n.ah_discharged.value()) && n.ah_discharged.value() >= 0.0 &&
                    n.brownouts >= 0;
    if (!ok) return "node " + std::to_string(i) + " state out of range";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Operation accounting
// ---------------------------------------------------------------------------

struct Ops {
  long attempted = 0;
  long failed = 0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("FAILED op: %s\n", what.c_str());
    }
  }
};

// ---------------------------------------------------------------------------
// Tick classification and the traced-run observer
// ---------------------------------------------------------------------------

enum TickClass : int { kNight = 0, kWindow = 1, kControl = 2, kArrival = 3, kClasses = 4 };

/// Night / window / control class of each tick of a day, by the same rules
/// Cluster::run_day applies (window [day_start, day_end), one control tick
/// per control period from day_start).
std::vector<std::uint8_t> static_tick_classes(const sim::ScenarioConfig& sc) {
  const double dt = sc.dt.value();
  const auto ticks = static_cast<long>(86400.0 / dt);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(ticks), kNight);
  double next_control = sc.day_start.value();
  for (long k = 0; k < ticks; ++k) {
    const double tod = static_cast<double>(k) * dt;
    if (tod < sc.day_start.value() || tod >= sc.day_end.value()) continue;
    out[static_cast<std::size_t>(k)] = kWindow;
    if (tod >= next_control) {
      next_control += sc.control_period.value();
      out[static_cast<std::size_t>(k)] = kControl;
    }
  }
  return out;
}

/// Scheduled arrivals per tick for one shard-day (the Datacenter maps a
/// demand job's window fraction onto the day window; without a demand model
/// the scenario's fixed plan applies).
void scheduled_arrivals(const sim::DatacenterConfig& cfg, std::size_t shard, long day,
                        std::vector<std::uint16_t>& out) {
  const sim::ScenarioConfig& sc = cfg.scenario;
  const double dt = sc.dt.value();
  const double start = sc.day_start.value();
  const double window = sc.day_end.value() - start;
  std::fill(out.begin(), out.end(), std::uint16_t{0});
  auto place = [&](double arrival) {
    auto k = static_cast<long>(std::ceil((arrival + start) / dt));
    while (static_cast<double>(k) * dt - start < arrival) ++k;
    while (k > 0 && static_cast<double>(k - 1) * dt - start >= arrival) --k;
    if (static_cast<double>(k) * dt >= sc.day_end.value()) return;  // never deployed
    ++out[static_cast<std::size_t>(k)];
  };
  if (cfg.demand.empty()) {
    for (const sim::JobSpec& j : sc.daily_jobs) place(j.arrival.value());
  } else {
    for (const workload::DemandJob& j : cfg.demand.shard_day_jobs(shard, cfg.shards, day)) {
      place(j.start_frac * window);
    }
  }
}

/// One shard's traced-run accumulators. Written only by the worker stepping
/// that shard; read on the caller thread after run_day has joined.
struct ShardTrace {
  const std::vector<std::uint8_t>* classes = nullptr;
  const std::vector<std::uint16_t>* arrivals = nullptr;  ///< scheduled arrivals per tick
  double dt = 60.0;

  // Per day.
  Clock::time_point first{};
  Clock::time_point prev{};
  long ticks = 0;

  // Over the traced phase.
  double class_ns[kClasses] = {};
  long class_n[kClasses] = {};
  double arrival_jobs = 0.0;  ///< placement attempts on arrival ticks

  const obs::Counter* deployed = nullptr;
  const obs::Counter* retries = nullptr;
  double last_deployed = 0.0;
  double last_retries = 0.0;
  const std::vector<telemetry::PowerTable>* day_tables = nullptr;

  void on_tick(const sim::TickObservation& o) {
    const Clock::time_point now = Clock::now();
    if (deployed == nullptr) {
      // First tick on this datacenter (a resume makes a new one): the
      // worker's active registry is this shard's, where the Cluster bound
      // its counters at construction.
      deployed = obs::global_registry().find_counter("sim.jobs_deployed");
      retries = obs::global_registry().find_counter("sim.vm_deploy_retries");
      if (deployed == nullptr || retries == nullptr) {
        throw std::runtime_error("shard registry lacks the placement counters");
      }
      last_deployed = deployed->value();
      last_retries = retries->value();
    }
    day_tables = o.day_tables;
    const double dep = deployed->value();
    const double ret = retries->value();
    if (ticks == 0) {
      first = now;
    } else {
      const auto k = static_cast<std::size_t>(std::lround(o.time_of_day.value() / dt));
      int cls = (*classes)[k];
      const double attempts = static_cast<double>((*arrivals)[k]) + (ret - last_retries);
      if (cls != kNight && (attempts > 0.0 || dep != last_deployed)) cls = kArrival;
      class_ns[cls] += ns_between(prev, now);
      ++class_n[cls];
      if (cls == kArrival) arrival_jobs += attempts;
    }
    last_deployed = dep;
    last_retries = ret;
    prev = now;
    ++ticks;
  }
};

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Highest order statistic with at least ten samples above it (the largest
/// sample when there are fewer than eleven), and its percentile.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = n > 10 ? n - 11 : n - 1;
  return {v[i], 100.0 * static_cast<double>(i + 1) / static_cast<double>(n)};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool available = true;  ///< false prints "n/a" (and 0 in the JSON)
};

double counter_sum(const obs::Registry& reg, std::string_view prefix) {
  double sum = 0.0;
  for (const auto& [name, c] : reg.counters()) {
    if (name.compare(0, prefix.size(), prefix) == 0) sum += c.value();
  }
  return sum;
}

double histogram_sum(const obs::Registry& reg, const std::string& name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

obs::Registry merged_registry(const sim::Datacenter& dc) {
  obs::Registry reg;
  dc.merge_metrics_into(reg);
  return reg;
}

// ---------------------------------------------------------------------------
// Checkpoint and resume
// ---------------------------------------------------------------------------

std::uint64_t config_hash(const sim::DatacenterConfig& cfg) {
  return sim::datacenter_fingerprint(cfg, sim::MultiDayOptions{});
}

/// Section 0 carries the benchmark's loop state (the datacenter day), the
/// rest are the shards — the layout run_datacenter_multi_day uses.
void write_checkpoint(const sim::Datacenter& dc, const std::string& path) {
  snapshot::SnapshotWriter w;
  w.write_u64(static_cast<std::uint64_t>(dc.days_run()));
  snapshot::SectionFileWriter out(path, config_hash(dc.config()), 1 + dc.shard_count());
  out.append(w.bytes());
  dc.save_shard_sections(out);
  out.commit();
}

void load_checkpoint(sim::Datacenter& dc, const std::string& path) {
  snapshot::SectionFileReader in(path, config_hash(dc.config()));
  if (in.header().section_count != 1 + dc.shard_count()) {
    throw snapshot::SnapshotError("checkpoint section count does not match the shard count");
  }
  const std::vector<std::uint8_t> sec0 = in.read_section();
  snapshot::SnapshotReader r{sec0};
  const auto day = static_cast<long>(r.read_u64());
  if (!r.exhausted()) throw snapshot::SnapshotError("checkpoint section 0 has trailing bytes");
  dc.load_shard_sections(in);
  in.finish();
  dc.resume_at_day(day);
}

void flip_byte(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  const std::streamoff at = size / 2;
  char c = 0;
  f.seekg(at);
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(at);
  f.write(&c, 1);
  if (!f) throw std::runtime_error("cannot corrupt checkpoint " + path);
}

// ---------------------------------------------------------------------------
// Stand-alone probes (traced run only)
// ---------------------------------------------------------------------------

/// ns per cell-step of FleetState::step_all on the workload's bank spec and
/// shard size, under a load-following duty cycle (discharge by day, charge
/// by night, varying every tick).
double probe_step_all(const sim::ScenarioConfig& sc) {
  battery::BankSpec bank = sc.bank;
  bank.units = sc.nodes;
  util::Rng rng = util::Rng::stream(sc.seed, "twinbench-probe");
  std::unique_ptr<battery::FleetState> fleet = battery::make_fleet(bank, rng);
  const std::size_t n = fleet->size();
  std::vector<util::Amperes> current(n, util::Amperes{0.0});
  std::vector<battery::StepResult> results(n);
  const long ticks = 720;
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (long k = 0; k < ticks; ++k) {
      for (std::size_t c = 0; c < n; ++c) {
        const double phase = static_cast<double>((k + static_cast<long>(c)) % 60) / 60.0;
        current[c] = util::Amperes{(k / 180) % 2 == 0 ? 4.0 + 8.0 * phase : -3.0 - 3.0 * phase};
      }
      fleet->step_all(current, sc.dt, results);
    }
    reps.push_back(ns_between(t0, Clock::now()) / static_cast<double>(ticks * static_cast<long>(n)));
  }
  return median(reps);
}

/// ns per node of one sensor read plus the two power-table records the
/// pipeline makes per node-tick.
double probe_read_record(const sim::ScenarioConfig& sc) {
  battery::BankSpec bank = sc.bank;
  bank.units = sc.nodes;
  util::Rng rng = util::Rng::stream(sc.seed, "twinbench-probe");
  std::unique_ptr<battery::FleetState> fleet = battery::make_fleet(bank, rng);
  std::vector<battery::Battery> cells = battery::fleet_views(*fleet);
  telemetry::PowerTableParams params;
  params.chemistry = sc.bank.chemistry;
  params.ocv_curve = sc.bank.ocv;
  params.estimation = sc.soc_estimation;
  std::vector<telemetry::BatterySensor> sensors;
  std::vector<telemetry::PowerTable> life(cells.size(), telemetry::PowerTable{params});
  std::vector<telemetry::PowerTable> day(cells.size(), telemetry::PowerTable{params});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    sensors.emplace_back(sc.sensor_noise, rng.fork("sensor-" + std::to_string(i)));
  }
  const long ticks = 720;
  std::vector<double> reps;
  double t = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (long k = 0; k < ticks; ++k) {
      t += sc.dt.value();
      const util::Amperes amps{(k / 180) % 2 == 0 ? 6.0 : -4.0};
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const telemetry::SensorReading reading =
            sensors[i].read(cells[i], amps, util::Seconds{t});
        life[i].record(reading, sc.dt);
        day[i].record(reading, sc.dt);
      }
    }
    reps.push_back(ns_between(t0, Clock::now()) /
                   static_cast<double>(ticks * static_cast<long>(cells.size())));
  }
  return median(reps);
}

double probe_crc() {
  std::vector<std::uint8_t> buf(8u << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  std::vector<double> reps;
  std::uint32_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    sink ^= snapshot::crc32(buf);
    reps.push_back(ns_between(t0, Clock::now()) / static_cast<double>(buf.size()));
  }
  if (sink == 0x12345678u) std::printf("(crc sink)\n");
  return median(reps);
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

enum class Inject { None, FlipCheckpoint, BadReference, ThrowDay };

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  Inject inject = Inject::None;
  std::string workdir;
};

/// Runs `days` days of the workload's tiny-scale config at its default seed
/// and compares the digest with the committed reference.
void reference_check(const Options& opt, Ops& ops) {
  const Workload& w = *opt.workload;
  sim::Datacenter dc{w.make(true, w.default_seed)};
  const std::vector<solar::DayType> weather = weather_sequence(w.default_seed, kReferenceDays);
  Digest chain;
  sim::DayResult last;
  for (long d = 0; d < kReferenceDays; ++d) {
    try {
      last = dc.run_day(dc.sample_solar_days(weather[static_cast<std::size_t>(d)]));
      add_day(chain, last);
      if (d + 1 < kReferenceDays) ops.record(true, "");
    } catch (const std::exception& e) {
      ops.record(false, "reference day " + std::to_string(d) + ": " + e.what());
      return;
    }
  }
  add_fleet(chain, dc);
  std::uint64_t expected = w.reference_tiny;
  if (opt.inject == Inject::BadReference) expected ^= 1u;
  char msg[160];
  std::snprintf(msg, sizeof msg, "tiny-scale reference digest: expected %016llx, got %016llx",
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(chain.value()));
  ops.record(chain.value() == expected, msg);
}

/// One benchmark process: set-up, warm-up, the timed days with their
/// checkpoints and resumes, then the report.
///
/// Every kResumeEvery timed days the run restarts from its latest
/// checkpoint, the way a crash-safe long run does: the day after the
/// checkpoint is timed on the live datacenter, the live datacenter is
/// dropped, a fresh one is resumed from the file and replays that day
/// untimed, and both must give bit-identical results before the run
/// continues on the resumed one. Set-up is sampled at the start and again
/// at every resume, before the fresh datacenter is kept. Spreading
/// set-ups, checkpoints and resumes over the run, rather than bunching them
/// at one point, keeps their medians from resting on one stretch of host
/// noise, and only one datacenter is ever alive, so peak RSS is one
/// fleet's.
class Bench {
 public:
  explicit Bench(const Options& opt)
      : opt_(opt),
        w_(*opt.workload),
        ckpt_path_(opt.workdir + "/checkpoint.sect"),
        timed_days_(opt.tiny ? 4 : whole_blocks(opt.seconds * w_.days_per_second)),
        resume_every_(opt.tiny ? 2 : kResumeEvery),
        checkpoint_every_(w_.checkpoint_every_day ? 1 : resume_every_) {}

  int run();

 private:
  static constexpr long kResumeEvery = 8;
  /// Constructions per set-up sampling point (the start and each resume).
  static constexpr int kSetupReps = 32;

  Clock::time_point construct();
  void set_up();
  bool warm_up();
  void timed_day(long t);
  bool checkpoint();
  bool resume_and_replay();
  void set_tracing(bool on);
  void account_traced_day(Clock::time_point ts, Clock::time_point t1);
  void check_full_reference();
  std::vector<Metric> end_to_end_metrics(double peak_rss) const;
  std::vector<Metric> per_layer_metrics();
  void print_summary(double timed_wall_s) const;

  const Options& opt_;
  const Workload& w_;
  const std::string ckpt_path_;
  const long timed_days_;
  const long resume_every_;
  const long checkpoint_every_;

  Ops ops_;
  std::unique_ptr<sim::Datacenter> dc_;
  sim::DatacenterConfig cfg_;
  std::size_t nodes_ = 0, shards_ = 0, nodes_per_shard_ = 0, lanes_ = 0;
  double ticks_per_day_ = 0.0, node_ticks_per_day_ = 0.0;
  std::vector<solar::DayType> weather_;
  std::vector<std::uint8_t> classes_;
  std::vector<std::vector<std::uint16_t>> arrivals_;  ///< per shard, this day
  bool fixed_plan_ready_ = false;

  long day_ = 0;  ///< index into weather_ of the next day to run
  sim::DayResult result_;
  bool result_ok_ = false;
  Digest chain_;  ///< every day's results in order, for the reference check

  // End-to-end samples.
  std::vector<double> setup_s_, day_ns_, day_allocs_, checkpoint_s_, resume_s_, load_ns_;
  double ckpt_bytes_ = 0.0;

  // Liveness.
  double scheduled_jobs_ = 0.0, arrival_ticks_ = 0.0, brownouts_ = 0.0;
  double jobs_finished_ = 0.0, low_soc_s_ = 0.0, good_days_ = 0.0;
  obs::Registry timed_start_, timed_end_;

  // Traced phase.
  std::vector<ShardTrace> traces_;
  std::vector<double> traced_ns_, solar_ns_, shard_day_ns_, skews_, efficiencies_, outside_ns_;
  double trace_events_ = 0.0, traced_node_ticks_ = 0.0;
  long traced_days_ = 0;
};

/// Builds the datacenter kSetupReps times, keeping the last one, and
/// records every construction as a set-up sample; returns when the kept
/// one's construction started.
Clock::time_point Bench::construct() {
  Clock::time_point t0;
  for (int r = 0; r < (opt_.tiny ? 1 : kSetupReps); ++r) {
    dc_.reset();
    t0 = Clock::now();
    dc_ = std::make_unique<sim::Datacenter>(w_.make(opt_.tiny, opt_.seed));
    setup_s_.push_back(ns_between(t0, Clock::now()) * 1e-9);
  }
  return t0;
}

void Bench::set_up() {
  construct();
  cfg_ = dc_->config();
  nodes_ = dc_->node_count();
  shards_ = dc_->shard_count();
  nodes_per_shard_ = cfg_.scenario.nodes;
  lanes_ = std::min(cfg_.workers, shards_);
  ticks_per_day_ = 86400.0 / cfg_.scenario.dt.value();
  node_ticks_per_day_ = static_cast<double>(nodes_) * ticks_per_day_;
  // The warm-up day is the first of a block whose other days are dropped,
  // so the timed days hold whole blocks. A replay repeats its day's type.
  weather_ = weather_sequence(opt_.seed, static_cast<std::size_t>(kWeatherBlock + timed_days_));
  weather_.erase(weather_.begin() + 1, weather_.begin() + kWeatherBlock);
  classes_ = static_tick_classes(cfg_.scenario);
  arrivals_.assign(shards_, std::vector<std::uint16_t>(classes_.size(), 0));
  traces_.resize(shards_);
}

void Bench::check_full_reference() {
  Digest full = chain_;
  add_fleet(full, *dc_);
  char msg[160];
  std::snprintf(msg, sizeof msg, "full-scale reference digest: expected %016llx, got %016llx",
                static_cast<unsigned long long>(w_.reference_full),
                static_cast<unsigned long long>(full.value()));
  ops_.record(full.value() == w_.reference_full, msg);
}

bool Bench::warm_up() {
  try {
    result_ = dc_->run_day(dc_->sample_solar_days(weather_[0]));
  } catch (const std::exception& e) {
    ops_.record(false, std::string("warm-up day: ") + e.what());
    return false;
  }
  const std::string bad = check_day(result_, nodes_);
  ops_.record(bad.empty(), "warm-up day: " + bad);
  add_day(chain_, result_);
  day_ = 1;
  return bad.empty();
}

/// Observers and the library's profile timers and event trace, on for the
/// traced days of a --trace 1 run and off otherwise.
void Bench::set_tracing(bool on) {
  for (std::size_t s = 0; s < shards_; ++s) {
    ShardTrace& st = traces_[s];
    st.classes = &classes_;
    st.arrivals = &arrivals_[s];
    st.dt = cfg_.scenario.dt.value();
    st.ticks = 0;
    if (on) {
      dc_->shard(s).set_tick_observer(
          [slot = &st](const sim::TickObservation& o) { slot->on_tick(o); });
    } else {
      dc_->shard(s).set_tick_observer({});
    }
  }
  obs::set_profiling_enabled(on);
  obs::set_trace_enabled(on);
  obs::global_trace().clear();
}

void Bench::timed_day(long t) {
  // A --trace 1 run alternates untraced and traced days, so both halves
  // see the same stretches of host noise and their ratio is the overhead.
  const bool traced = opt_.trace && t % 2 == 1;
  if (opt_.trace) set_tracing(traced);
  if (!cfg_.demand.empty() || !fixed_plan_ready_) {
    // The fixed plan repeats daily; a demand model plans every shard-day.
    for (std::size_t s = 0; s < shards_; ++s) {
      scheduled_arrivals(cfg_, s, dc_->days_run(), arrivals_[s]);
    }
    fixed_plan_ready_ = cfg_.demand.empty();
  }
  double jobs = 0.0;
  for (const std::vector<std::uint16_t>& a : arrivals_) {
    for (std::uint16_t n : a) {
      jobs += n;
      arrival_ticks_ += n > 0 ? 1.0 : 0.0;
    }
  }
  scheduled_jobs_ += jobs;
  const bool inject_throw = opt_.inject == Inject::ThrowDay && t == 1;
  if (inject_throw) {
    dc_->shard(0).set_tick_observer([](const sim::TickObservation& o) {
      if (o.time_of_day.value() >= 43200.0) throw std::runtime_error("injected day failure");
    });
  }

  const std::string label = "timed day " + std::to_string(day_) + ": ";
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const Clock::time_point t0 = Clock::now();
  Clock::time_point ts = t0;
  result_ok_ = true;
  try {
    const std::vector<solar::SolarDay> solar =
        dc_->sample_solar_days(weather_[static_cast<std::size_t>(day_)]);
    ts = Clock::now();
    result_ = dc_->run_day(solar);
  } catch (const std::exception& e) {
    result_ok_ = false;
    ops_.record(false, label + e.what());
  }
  const Clock::time_point t1 = Clock::now();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  if (inject_throw) dc_->shard(0).set_tick_observer({});
  ++day_;
  if (!result_ok_) return;

  const std::string bad = check_day(result_, nodes_);
  ops_.record(bad.empty(), label + bad);
  result_ok_ = bad.empty();
  add_day(chain_, result_);
  if (day_ == kReferenceDays && opt_.seed == w_.default_seed && !opt_.tiny) {
    check_full_reference();
  }
  (traced ? traced_ns_ : day_ns_).push_back(ns_between(t0, t1) / node_ticks_per_day_);
  solar_ns_.push_back(ns_between(t0, ts) / static_cast<double>(shards_));
  if (!traced) day_allocs_.push_back(static_cast<double>(a1 - a0) / node_ticks_per_day_);
  for (const sim::NodeDayStats& n : result_.nodes) {
    brownouts_ += n.brownouts;
    low_soc_s_ += n.low_soc_time.value();
  }
  jobs_finished_ += result_.jobs_finished;
  good_days_ += 1.0;
  if (traced) account_traced_day(ts, t1);
}

void Bench::account_traced_day(Clock::time_point ts, Clock::time_point t1) {
  ++traced_days_;
  traced_node_ticks_ += node_ticks_per_day_;
  const double wall = ns_between(ts, t1);
  // A shard's span runs from its first to its last tick callback, stretched
  // by one tick to cover tick 0; what no span covers is dispatch and merge.
  std::vector<double> busy;
  std::vector<std::pair<double, double>> spans;
  for (const ShardTrace& st : traces_) {
    const double b = st.ticks > 1 ? ns_between(st.first, st.prev) * ticks_per_day_ /
                                        static_cast<double>(st.ticks - 1)
                                  : 0.0;
    busy.push_back(b);
    const double start = ns_between(ts, st.first) - b / ticks_per_day_;
    spans.emplace_back(start, start + b);
    shard_day_ns_.push_back(b / (static_cast<double>(nodes_per_shard_) * ticks_per_day_));
  }
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  double lo = spans.front().first, hi = spans.front().second;
  for (const auto& [a, b] : spans) {
    if (a > hi) {
      covered += hi - lo;
      lo = a;
    }
    hi = std::max(hi, b);
  }
  covered += hi - lo;
  outside_ns_.push_back(std::max(0.0, wall - covered));
  double busy_sum = 0.0;
  for (double b : busy) busy_sum += b;
  const double med = median(busy);
  skews_.push_back(med > 0.0 ? *std::max_element(busy.begin(), busy.end()) / med : 0.0);
  efficiencies_.push_back(busy_sum / (static_cast<double>(lanes_) * wall));
  trace_events_ +=
      static_cast<double>(obs::global_trace().size() + obs::global_trace().dropped());
  obs::global_trace().clear();
}

bool Bench::checkpoint() {
  const Clock::time_point c0 = Clock::now();
  try {
    write_checkpoint(*dc_, ckpt_path_);
    checkpoint_s_.push_back(ns_between(c0, Clock::now()) * 1e-9);
    ckpt_bytes_ = static_cast<double>(std::filesystem::file_size(ckpt_path_));
  } catch (const std::exception& e) {
    ops_.record(false, std::string("checkpoint: ") + e.what());
    return false;
  }
  ops_.record(true, "");
  return true;
}

bool Bench::resume_and_replay() {
  const std::uint64_t live = day_and_fleet_digest(result_, *dc_);
  const long replay = day_ - 1;
  dc_.reset();
  try {
    const Clock::time_point r0 = construct();
    const Clock::time_point r1 = Clock::now();
    load_checkpoint(*dc_, ckpt_path_);
    const Clock::time_point r2 = Clock::now();
    resume_s_.push_back(ns_between(r0, r2) * 1e-9);
    load_ns_.push_back(ns_between(r1, r2));
    const sim::DayResult again =
        dc_->run_day(dc_->sample_solar_days(weather_[static_cast<std::size_t>(replay)]));
    ops_.record(day_and_fleet_digest(again, *dc_) == live,
                "resume before day " + std::to_string(replay) +
                    ": the resumed replay differs from the live day");
  } catch (const std::exception& e) {
    ops_.record(false, "resume before day " + std::to_string(replay) + ": " + e.what());
    return false;
  }
  // The resumed datacenter has new registries and power tables; observers
  // are attached again at the next day's start.
  for (ShardTrace& st : traces_) {
    st.deployed = nullptr;
    st.retries = nullptr;
    st.day_tables = nullptr;
  }
  obs::global_trace().clear();  // the replay's events were counted live
  return true;
}

int Bench::run() {
  util::set_log_sink([](util::LogLevel, const std::string&) {});
  std::filesystem::create_directories(opt_.workdir);
  reference_check(opt_, ops_);
  set_up();

  const Clock::time_point origin = Clock::now();
  if (warm_up()) {
    timed_start_ = merged_registry(*dc_);
    bool resume_due = false;
    for (long t = 0; t < timed_days_; ++t) {
      timed_day(t);
      if (resume_due) {
        resume_due = false;
        if (!result_ok_ || !resume_and_replay()) break;
      }
      const bool last = t + 1 == timed_days_;
      if ((t + 1) % checkpoint_every_ == 0 && (w_.checkpoint_every_day || !last)) {
        if (checkpoint() && (t + 1) % resume_every_ == 0 && !last) {
          resume_due = true;
          if (opt_.inject == Inject::FlipCheckpoint) flip_byte(ckpt_path_);
        }
      }
    }
  }
  // A failed resume leaves no datacenter to read.
  timed_end_ = dc_ != nullptr ? merged_registry(*dc_) : timed_start_;
  const double timed_wall_s = ns_between(origin, Clock::now()) * 1e-9;
  obs::set_profiling_enabled(false);
  obs::set_trace_enabled(false);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss = static_cast<double>(usage.ru_maxrss) * 1024.0;

  std::vector<Metric> metrics =
      opt_.trace ? per_layer_metrics() : end_to_end_metrics(peak_rss);
  std::error_code ec;
  std::filesystem::remove(ckpt_path_, ec);
  dc_.reset();

  print_summary(timed_wall_s);
  for (const Metric& m : metrics) {
    if (m.available) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("  %-34s %14s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += ops_.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops_.attempted);
  json += ", \"failed\": " + std::to_string(ops_.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].available ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

void Bench::print_summary(double timed_wall_s) const {
  const double days = std::max(1.0, good_days_);
  const double node_days = days * static_cast<double>(nodes_);
  const double deployed = counter_sum(timed_end_, "sim.jobs_deployed") -
                          counter_sum(timed_start_, "sim.jobs_deployed");
  const double injected =
      counter_sum(timed_end_, "fault.injected") - counter_sum(timed_start_, "fault.injected");
  double night = 0.0, control = 0.0;
  for (std::uint8_t c : classes_) {
    night += c == kNight ? 1.0 : 0.0;
    control += c == kControl ? 1.0 : 0.0;
  }
  const auto ticks = static_cast<double>(classes_.size());
  const double tail_pct = tail(day_ns_).second;

  std::printf("workload %s: seed %llu, %zu shards x %zu nodes, %zu workers, %ld timed days "
              "(%ld traced), %.1f s timed wall\n",
              std::string(w_.name).c_str(), static_cast<unsigned long long>(opt_.seed), shards_,
              nodes_per_shard_, lanes_, timed_days_, traced_days_, timed_wall_s);
  std::printf("liveness: brownouts/node-day %.4g | jobs/day scheduled %.1f deployed %.1f "
              "finished %.1f | low-SoC h/node-day %.4g | fault injections/day %.4g\n",
              brownouts_ / node_days, scheduled_jobs_ / days, deployed / days,
              jobs_finished_ / days, low_soc_s_ / 3600.0 / node_days, injected / days);
  std::printf("liveness: tick shares night %.3f window %.3f control %.3f arrival %.4f\n",
              night / ticks, 1.0 - night / ticks, control / ticks,
              arrival_ticks_ / (ticks * static_cast<double>(shards_) * days));
  std::printf("ops: %ld attempted, %ld failed (failed_op_share %.4g)\n", ops_.attempted,
              ops_.failed,
              ops_.attempted > 0 ? static_cast<double>(ops_.failed) / ops_.attempted : 0.0);
  std::printf("day_ns_per_node_tick: mean and tail = p%.1f (%zu above it) over %zu "
              "untraced days\n",
              tail_pct, day_ns_.size() > 10 ? std::size_t{10} : std::size_t{0}, day_ns_.size());
  std::printf("day_ns_per_node_tick samples in run order:");
  for (double v : day_ns_) std::printf(" %.0f", v);
  std::printf("\n");
}

std::vector<Metric> Bench::end_to_end_metrics(double peak_rss) const {
  const auto fnodes = static_cast<double>(nodes_);
  const double ok_share =
      ops_.attempted > 0 ? 1.0 - static_cast<double>(ops_.failed) / ops_.attempted : 0.0;
  return {
      // On a shared host, day costs come in stretches of quiet and of
      // contended days up to ~1.6x apart, in a share that changes from run
      // to run. A median falls between the two and jumps across the gap
      // with that share; the mean only moves in proportion to it, and the
      // tail sits inside the contended stretches.
      {"day_ns_per_node_tick.mean", mean(day_ns_), "ns"},
      {"day_ns_per_node_tick.tail", tail(day_ns_).first, "ns"},
      {"setup_s", median(setup_s_), "s"},
      {"checkpoint_s", median(checkpoint_s_), "s"},
      {"resume_s", median(resume_s_), "s"},
      {"checkpoint_bytes_per_node", ckpt_bytes_ / fnodes, "B"},
      {"peak_rss_bytes_per_node", peak_rss / fnodes, "B"},
      // A median day: flash_crowd's rare placement-saturated days allocate
      // several times an ordinary day's count, and whether a run has one
      // depends on its weather, so a run total would follow the seed.
      {"allocs_per_node_tick", median(day_allocs_), "count"},
      {"ok_op_share", ok_share, "ratio"},
  };
}

std::vector<Metric> Bench::per_layer_metrics() {
  const auto fnodes = static_cast<double>(nodes_);
  // Counters run on every day; the profile timers only on traced days.
  const double days = std::max(1.0, good_days_);
  auto per_day = [&](std::string_view prefix) {
    return (counter_sum(timed_end_, prefix) - counter_sum(timed_start_, prefix)) / days;
  };
  auto per_traced_node_tick = [&](const std::string& name) {
    return traced_node_ticks_ > 0.0
               ? (histogram_sum(timed_end_, name) - histogram_sum(timed_start_, name)) /
                     traced_node_ticks_
               : 0.0;
  };
  double class_ns[kClasses] = {}, class_n[kClasses] = {}, arrival_jobs = 0.0;
  for (const ShardTrace& st : traces_) {
    for (int c = 0; c < kClasses; ++c) {
      class_ns[c] += st.class_ns[c];
      class_n[c] += static_cast<double>(st.class_n[c]);
    }
    arrival_jobs += st.arrival_jobs;
  }
  auto mean_tick = [&](int c) { return class_n[c] > 0 ? class_ns[c] / class_n[c] : 0.0; };
  const auto nps = static_cast<double>(nodes_per_shard_);
  const double day_mean = mean(day_ns_);
  const double step_all = probe_step_all(cfg_.scenario);
  const double attempts = scheduled_jobs_ / days + per_day("sim.vm_deploy_retries");
  const double step_ns = per_traced_node_tick("profile.battery_step_ns");
  double history_bytes = 0.0;
  if (traces_[0].day_tables != nullptr && !traces_[0].day_tables->empty()) {
    snapshot::SnapshotWriter tw;
    (*traces_[0].day_tables)[0].save_state(tw);
    // The lifetime table keeps the same capped history as the day table.
    history_bytes = 2.0 * static_cast<double>(tw.size());
  }
  std::vector<double> merge_ns;
  for (int m = 0; dc_ != nullptr && m < 5; ++m) {
    obs::Registry target;
    const Clock::time_point m0 = Clock::now();
    dc_->merge_metrics_into(target);
    merge_ns.push_back(ns_between(m0, Clock::now()) / static_cast<double>(shards_));
  }
  return {
      {"sim.shard_day_ns_per_node_tick", median(shard_day_ns_), "ns"},
      {"sim.shard_skew", median(skews_), "ratio"},
      {"sim.parallel_efficiency", median(efficiencies_), "ratio"},
      {"sim.dispatch_merge_ns_per_day", median(outside_ns_), "ns"},
      {"sim.tick_ns_per_node.night", mean_tick(kNight) / nps, "ns"},
      {"sim.tick_ns_per_node.window", mean_tick(kWindow) / nps, "ns"},
      {"core.control_tick_ns_per_node", (mean_tick(kControl) - mean_tick(kWindow)) / nps, "ns"},
      {"core.arrival_tick_ns_per_job",
       arrival_jobs > 0
           ? (class_ns[kArrival] - class_n[kArrival] * mean_tick(kWindow)) / arrival_jobs
           : 0.0,
       "ns", arrival_jobs > 0},
      {"core.placement_success_ratio", attempts > 0 ? per_day("sim.jobs_deployed") / attempts : 0.0,
       "ratio", attempts > 0},
      {"core.control_ticks", per_day("policy.control_ticks"), "1/day"},
      {"core.decisions", per_day("policy.decisions"), "1/day"},
      {"core.fallbacks", per_day("policy.fallback"), "1/day"},
      {"power.route_ns_per_node_tick", per_traced_node_tick("profile.router_route_ns"), "ns"},
      {"power.redirects", per_day("router.redirects"), "1/day"},
      {"power.cutoff_ticks", per_day("router.cutoff_ticks"), "1/day"},
      {"battery.step_ns_per_cell_tick", step_ns, "ns", step_ns > 0.0},
      {"battery.step_all_ns_per_cell", step_all, "ns"},
      {"battery.pipeline_tax", step_all > 0 ? day_mean / step_all : 0.0, "ratio"},
      {"telemetry.read_record_ns_per_node", probe_read_record(cfg_.scenario), "ns"},
      {"telemetry.history_bytes_per_node", history_bytes, "B"},
      {"snapshot.save_ns_per_byte", median(checkpoint_s_) * 1e9 / ckpt_bytes_, "ns"},
      {"snapshot.load_ns_per_byte", median(load_ns_) / ckpt_bytes_, "ns"},
      {"snapshot.crc_ns_per_byte", probe_crc(), "ns"},
      {"snapshot.telemetry_share", history_bytes * fnodes / ckpt_bytes_, "ratio"},
      {"solar.sample_ns_per_shard", median(solar_ns_), "ns"},
      {"workload.jobs_per_shard_day", scheduled_jobs_ / (days * static_cast<double>(shards_)),
       "count"},
      {"fault.injected", per_day("fault.injected"), "1/day"},
      {"obs.merge_ns_per_shard", median(merge_ns), "ns"},
      {"obs.trace_events_per_node_day",
       trace_events_ / (fnodes * std::max(1.0, static_cast<double>(traced_days_))), "count"},
      {"trace_overhead", day_mean > 0 ? mean(traced_ns_) / day_mean : 0.0, "ratio"},
  };
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "twinbench: %s\n"
               "usage: twinbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 --workdir <dir> [--scale full|tiny]\n"
               "                 [--inject flip-checkpoint|bad-reference|throw-day]\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == v) opt.workload = &w;
      }
      if (opt.workload == nullptr) usage_error("unknown workload '" + v + "'");
    } else if (a == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage_error("bad --seed '" + v + "'");
      have_seed = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600.0) {
        usage_error("bad --seconds '" + v + "'");
      }
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--workdir") {
      opt.workdir = v;
    } else if (a == "--scale") {
      if (v != "full" && v != "tiny") usage_error("--scale takes full or tiny");
      opt.tiny = v == "tiny";
    } else if (a == "--inject") {
      if (v == "flip-checkpoint") {
        opt.inject = Inject::FlipCheckpoint;
      } else if (v == "bad-reference") {
        opt.inject = Inject::BadReference;
      } else if (v == "throw-day") {
        opt.inject = Inject::ThrowDay;
      } else {
        usage_error("unknown --inject '" + v + "'");
      }
    } else {
      usage_error("unknown argument '" + a + "'");
    }
  }
  if (opt.workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      opt.workdir.empty()) {
    usage_error("--workload, --seed, --seconds, --trace and --workdir are required");
  }
  if (opt.trace && opt.inject != Inject::None) usage_error("--inject runs untraced only");
  try {
    return Bench(opt).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "twinbench: %s\n", e.what());
    return 1;
  }
}
