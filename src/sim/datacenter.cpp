#include "sim/datacenter.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>

#include "battery/probe.hpp"
#include "fault/injector.hpp"
#include "obs/blackbox.hpp"
#include "obs/obs.hpp"
#include "telemetry/soh.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {

namespace {

std::size_t pool_lanes(const DatacenterConfig& cfg) {
  std::size_t workers = cfg.workers > 0 ? cfg.workers : default_sweep_jobs();
  return std::min(workers, cfg.shards);
}

void save_probe(snapshot::SnapshotWriter& w, const battery::ProbeResult& p) {
  w.write_f64(p.full_voltage.value());
  w.write_f64(p.capacity_fraction);
  w.write_f64(p.energy_per_cycle.value());
  w.write_f64(p.round_trip_efficiency);
}

void load_probe(snapshot::SnapshotReader& r, battery::ProbeResult& p) {
  p.full_voltage = util::Volts{r.read_f64()};
  p.capacity_fraction = r.read_f64();
  p.energy_per_cycle = util::WattHours{r.read_f64()};
  p.round_trip_efficiency = r.read_f64();
}

}  // namespace

Datacenter::Datacenter(DatacenterConfig cfg)
    : cfg_(std::move(cfg)), pool_(pool_lanes(cfg_)) {
  BAAT_REQUIRE(cfg_.shards >= 1, "datacenter needs at least one shard");
  BAAT_REQUIRE(cfg_.shards <= 4096, "shard count out of range (max 4096)");
  BAAT_REQUIRE(cfg_.scenario.shard == 0,
               "DatacenterConfig::scenario.shard must be 0; the datacenter "
               "stamps shard indices itself");

  const std::size_t trace_capacity = obs::global_trace().capacity();
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    // Per-shard solar-day stream, keyed on the shard index so adding shards
    // never perturbs existing ones; shard 0 keeps the exact unsharded
    // "solar-days" stream run_multi_day has always used.
    const std::string stream =
        i == 0 ? std::string("solar-days") : "solar-days-shard-" + std::to_string(i);
    auto s = std::make_unique<Shard>(trace_capacity,
                                     util::Rng::stream(cfg_.scenario.seed, stream));
    s->log_sink = [slot = s.get()](util::LogLevel level, const std::string& line) {
      slot->log_lines.emplace_back(level, line);
    };
    {
      // Construct under the shard's sinks so the Cluster binds its metric
      // handles into the shard registry, not the global one.
      ObsSinkScope scope{&s->registry, &s->trace, &s->log_sink};
      ScenarioConfig sc = cfg_.scenario;
      sc.shard = i;
      s->cluster = std::make_unique<Cluster>(std::move(sc));
    }
    shards_.push_back(std::move(s));
  }
  // Construction-time events/log lines (if any) surface immediately, in
  // shard order — matching a plain Cluster constructed under global sinks.
  for (const std::unique_ptr<Shard>& s : shards_) drain_obs(*s);
}

std::vector<const Cluster*> Datacenter::shard_ptrs() const {
  std::vector<const Cluster*> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& s : shards_) out.push_back(s->cluster.get());
  return out;
}

void Datacenter::drain_obs(Shard& s) {
  obs::global_trace().merge(s.trace);
  s.trace.clear();
  for (const auto& [level, line] : s.log_lines) util::emit_log_line(level, line);
  s.log_lines.clear();
}

void Datacenter::install_demand_jobs() {
  if (cfg_.demand.empty()) return;
  const Seconds window = cfg_.scenario.day_end - cfg_.scenario.day_start;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::vector<workload::DemandJob> schedule =
        cfg_.demand.shard_day_jobs(i, shards_.size(), day_counter_);
    std::vector<JobSpec> jobs;
    jobs.reserve(schedule.size());
    for (const workload::DemandJob& j : schedule) {
      jobs.push_back(JobSpec{j.kind, Seconds{j.start_frac * window.value()}});
    }
    shards_[i]->cluster->set_daily_jobs(std::move(jobs));
  }
}

std::vector<solar::SolarDay> Datacenter::sample_solar_days(solar::DayType type) {
  std::vector<solar::SolarDay> days;
  days.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& s : shards_) {
    days.emplace_back(cfg_.scenario.plant, type, s->solar_rng.fork("day"));
  }
  return days;
}

DayResult Datacenter::dispatch_day(const std::function<DayResult(Cluster&)>& step_shard) {
  install_demand_jobs();

  pool_.run(shards_.size(), [&](std::size_t i) {
    Shard& s = *shards_[i];
    // The worker's sinks point at the shard's private buffers for the whole
    // day; the scope restores the worker's previous sinks (and the caller's
    // when running inline), so nothing leaks across shards.
    ObsSinkScope scope{&s.registry, &s.trace, &s.log_sink};
    s.error = nullptr;
    try {
      s.result = step_shard(*s.cluster);
    } catch (...) {
      s.error = std::current_exception();
    }
  });

  // Shard-ordered merge on the caller thread — even when a shard failed,
  // every shard's events up to the failure reach the global trace first.
  for (const std::unique_ptr<Shard>& s : shards_) drain_obs(*s);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->error) {
      last_failed_shard_ = i;
      std::rethrow_exception(shards_[i]->error);
    }
  }

  std::vector<DayResult> per_shard;
  per_shard.reserve(shards_.size());
  for (std::unique_ptr<Shard>& s : shards_) per_shard.push_back(std::move(s->result));
  ++day_counter_;
  // Shards advanced their thread-local sim clocks on worker threads; bring
  // the caller's clock to the same day boundary for probe/checkpoint stamps.
  util::set_sim_time(static_cast<double>(day_counter_) * 86400.0);
  return merge_day_results(per_shard);
}

DayResult Datacenter::run_day(const std::vector<solar::SolarDay>& days) {
  BAAT_REQUIRE(days.size() == shards_.size(),
               "run_day needs exactly one SolarDay per shard");
  return dispatch_day([&days, this](Cluster& c) {
    return c.run_day(days[c.config().shard]);
  });
}

DayResult Datacenter::run_day(solar::DayType type) {
  return dispatch_day([type](Cluster& c) { return c.run_day(type); });
}

void Datacenter::merge_metrics_into(obs::Registry& target) const {
  for (const std::unique_ptr<Shard>& s : shards_) target.merge(s->registry);
}

void Datacenter::save_shard_sections(snapshot::SectionFileWriter& out) const {
  // One buffer for every shard: clear() keeps its capacity, and append()
  // has consumed the bytes before the next shard overwrites them.
  snapshot::SnapshotWriter w;
  for (const std::unique_ptr<Shard>& s : shards_) {
    w.clear();
    s->solar_rng.save_state(w);
    s->registry.save_state(w);
    s->cluster->save_state(w);
    out.append(w.bytes());
  }
}

void Datacenter::load_shard_sections(snapshot::SectionFileReader& in) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    const std::vector<std::uint8_t> payload = in.read_section();
    snapshot::SnapshotReader r{payload};
    s.solar_rng.load_state(r);
    s.registry.load_state(r);
    s.cluster->load_state(r);
    if (!r.exhausted()) {
      throw snapshot::SnapshotError("shard section " + std::to_string(i) + " carries " +
                                    std::to_string(r.remaining()) +
                                    " trailing bytes past the restored state");
    }
  }
}

std::uint64_t datacenter_fingerprint(const DatacenterConfig& cfg,
                                     const MultiDayOptions& options) {
  std::uint64_t h = scenario_fingerprint(cfg.scenario, options);
  // Fold in the topology knobs (never the worker count: resume must work —
  // and stay byte-identical — under any --shard-workers).
  h ^= cfg.shards * 0x9E3779B97F4A7C15ULL;
  h ^= util::fnv1a(cfg.demand.to_string()) << 1;
  return h == 0 ? 1 : h;
}

MultiDayResult run_datacenter_multi_day(Datacenter& dc, const MultiDayOptions& options) {
  BAAT_OBS_TIMED("run_multi_day");
  BAAT_REQUIRE(options.days > 0, "must simulate at least one day");

  const std::uint64_t seed = dc.config().scenario.seed;
  std::vector<solar::DayType> weather = options.weather;
  if (weather.empty()) {
    util::Rng weather_rng = util::Rng::stream(seed, "weather-seq");
    weather = solar::Location{options.sunshine_fraction}.sample_days(options.days,
                                                                     weather_rng);
  }
  BAAT_REQUIRE(weather.size() >= options.days, "weather sequence shorter than run");

  MultiDayResult result;
  telemetry::SohEstimator soh;
  std::optional<battery::ProbeResult> last_probe;

  SeriesWriter series;
  series.configure(options.series);

  std::size_t start_day = 0;
  const CheckpointOptions& ckpt = options.checkpoint;
  if (!ckpt.resume_path.empty()) {
    snapshot::SectionFileReader in(ckpt.resume_path, ckpt.config_hash);
    if (in.header().section_count != 1 + dc.shard_count()) {
      throw snapshot::SnapshotError(
          "snapshot '" + ckpt.resume_path + "' holds " +
          std::to_string(in.header().section_count) + " sections but a " +
          std::to_string(dc.shard_count()) + "-shard datacenter needs " +
          std::to_string(1 + dc.shard_count()));
    }
    const std::vector<std::uint8_t> sec0 = in.read_section();
    snapshot::SnapshotReader r{sec0};
    start_day = static_cast<std::size_t>(r.read_u64());
    if (start_day > options.days) {
      throw snapshot::SnapshotError("snapshot '" + ckpt.resume_path + "' has already passed day " +
                                    std::to_string(options.days) +
                                    "; nothing left to resume");
    }
    const std::vector<std::uint8_t> saved_weather = r.read_u8_vec();
    for (std::size_t d = 0; d < saved_weather.size() && d < weather.size(); ++d) {
      if (saved_weather[d] != static_cast<std::uint8_t>(weather[d])) {
        throw snapshot::SnapshotError(
            "snapshot '" + ckpt.resume_path + "' was taken under a different weather "
            "sequence (day " + std::to_string(d) + " differs); the config hash should "
            "normally catch this — check seed and sunshine options");
      }
    }
    soh.load_state(r);
    const bool has_probe = r.read_bool();
    battery::ProbeResult probe;
    load_probe(r, probe);
    if (has_probe) last_probe = probe;
    load_state(r, result);
    obs::global_registry().load_state(r);
    obs::global_trace().load_state(r);
    util::set_sim_time(r.read_f64());
    series.load_state(r);
    if (!r.exhausted()) {
      throw snapshot::SnapshotError("snapshot '" + ckpt.resume_path + "' carries " +
                                    std::to_string(r.remaining()) +
                                    " trailing bytes past the restored state");
    }
    dc.load_shard_sections(in);
    in.finish();
    dc.resume_at_day(static_cast<long>(start_day));
    std::cerr << "[checkpoint] resumed from '" << ckpt.resume_path << "' at day "
              << start_day << " of " << options.days << "\n";
  }

  long blackbox_day = static_cast<long>(start_day);
  struct HookGuard {
    bool active;
    ~HookGuard() {
      if (active) obs::clear_crash_dump_hook();
    }
  } hook_guard{options.blackbox};
  const auto dump_failed_shard = [&dc, &options, &ckpt](long day, const char* reason) {
    // The bundle's metrics/trace come from the global sinks; fold the shard
    // registries in first so the post-mortem sees the whole datacenter.
    dc.merge_metrics_into(obs::global_registry());
    dump_cluster_blackbox(dc.shard(dc.last_failed_shard()), day, reason,
                          options.blackbox_dir, ckpt.config_hash);
  };
  if (options.blackbox) {
    obs::set_crash_dump_hook([&dump_failed_shard, &blackbox_day](const char* reason) {
      dump_failed_shard(blackbox_day, reason);
    });
  }

  for (std::size_t d = start_day; d < options.days; ++d) {
    blackbox_day = static_cast<long>(d);
    const std::vector<solar::SolarDay> days = dc.sample_solar_days(weather[d]);
    DayResult day_result;
    try {
      day_result = dc.run_day(days);
    } catch (const std::exception& e) {
      if (options.blackbox) dump_failed_shard(static_cast<long>(d), e.what());
      throw;
    }
    result.total_throughput += day_result.throughput_work;
    result.soc_histogram.merge(day_result.soc_histogram);

    const bool probe_due = options.probe_every_days > 0 &&
                           (d + 1) % options.probe_every_days == 0;
    if (probe_due) {
      // Worst cumulative-throughput battery across the whole datacenter,
      // scanned shard-major with strict > — at one shard this is exactly
      // the single-cluster selection rule.
      std::size_t worst_shard = 0;
      std::size_t worst_node = 0;
      for (std::size_t s = 0; s < dc.shard_count(); ++s) {
        const std::vector<battery::Battery>& bank = dc.shard(s).batteries();
        for (std::size_t b = 0; b < bank.size(); ++b) {
          if (s == 0 && b == 0) continue;
          if (bank[b].counters().ah_discharged >
              dc.shard(worst_shard).batteries()[worst_node].counters().ah_discharged) {
            worst_shard = s;
            worst_node = b;
          }
        }
      }
      MonthlyProbe mp;
      mp.month = static_cast<int>((d + 1) / options.probe_every_days);
      fault::FaultInjector* injector = dc.shard(worst_shard).injector();
      battery::ProbeResult probe;
      if (injector != nullptr && last_probe.has_value() &&
          injector->probe_is_stale(mp.month)) {
        probe = *last_probe;
      } else {
        probe = battery::run_probe(dc.shard(worst_shard).batteries()[worst_node]);
        last_probe = probe;
      }
      soh.add_probe(static_cast<double>(d + 1), probe.capacity_fraction);
      mp.full_voltage = probe.full_voltage.value();
      mp.capacity_fraction = probe.capacity_fraction;
      mp.energy_per_cycle_wh = probe.energy_per_cycle.value();
      mp.round_trip_efficiency = probe.round_trip_efficiency;
      mp.health = dc.shard(worst_shard).batteries()[worst_node].health();
      result.monthly.push_back(mp);
    }

    if (series.should_write(static_cast<long>(d))) {
      series.write_day(static_cast<long>(d), dc.shard_ptrs(), day_result);
      for (std::size_t s = 0; s < dc.shard_count(); ++s) dc.shard(s).ledger_advance();
    }

    if (options.keep_days) {
      result.days.push_back(std::move(day_result));
    }

    const bool checkpoint_due = ckpt.every_days > 0 && (d + 1) % ckpt.every_days == 0 &&
                                d + 1 < options.days;
    if (checkpoint_due) {
      snapshot::SnapshotWriter w;
      w.write_u64(d + 1);
      std::vector<std::uint8_t> weather_bytes;
      weather_bytes.reserve(weather.size());
      for (solar::DayType t : weather) {
        weather_bytes.push_back(static_cast<std::uint8_t>(t));
      }
      w.write_u8_vec(weather_bytes);
      soh.save_state(w);
      w.write_bool(last_probe.has_value());
      save_probe(w, last_probe.value_or(battery::ProbeResult{}));
      save_state(w, result);
      obs::global_registry().save_state(w);
      obs::global_trace().save_state(w);
      w.write_f64(util::sim_time());
      series.save_state(w);

      const std::string dir = ckpt.dir.empty() ? std::string(".") : ckpt.dir;
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        throw snapshot::SnapshotError("cannot create checkpoint directory '" + dir +
                                      "': " + ec.message());
      }
      const std::string path = dir + "/checkpoint-day-" + std::to_string(d + 1) + ".snap";
      snapshot::SectionFileWriter out(path, ckpt.config_hash, 1 + dc.shard_count());
      out.append(w.bytes());
      dc.save_shard_sections(out);
      out.commit();
      std::cerr << "[checkpoint] wrote '" << path << "' after day " << (d + 1) << "\n";
    }
  }

  double mean_health = 0.0;
  double min_health = 1.0;
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    for (const battery::Battery& b : dc.shard(s).batteries()) {
      mean_health += b.health();
      min_health = std::min(min_health, b.health());
    }
  }
  result.mean_health_end = mean_health / static_cast<double>(dc.node_count());
  result.min_health_end = min_health;
  if (soh.probe_count() >= 2) result.projected_eol_day = soh.projected_eol_day();
  return result;
}

}  // namespace baat::sim
