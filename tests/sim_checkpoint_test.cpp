// The checkpoint/restore invariant (DESIGN.md §5f): a run checkpointed at
// day N and resumed reproduces the uninterrupted run *bit-identically* —
// result accumulators, cluster state, metric exports and traces — clean or
// faulted, exact or fast math, at any sweep worker count. These tests pin
// that contract at the library level; the CLI-level equivalent (stdout/CSV/
// report byte-compares) rides in CI's snapshot shard.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "battery/ledger.hpp"
#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "sim/datacenter.hpp"
#include "sim/experiment.hpp"
#include "sim/multiday.hpp"
#include "sim/sweep.hpp"
#include "snapshot/sections.hpp"
#include "snapshot/snapshot.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test checkpoint directory under the system temp root.
class CheckpointDir {
 public:
  explicit CheckpointDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("baat_ckpt_" + name)).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~CheckpointDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string snap(std::size_t day) const {
    return path_ + "/checkpoint-day-" + std::to_string(day) + ".snap";
  }

 private:
  std::string path_;
};

ScenarioConfig small_scenario(bool faulted = false,
                              battery::MathMode math = battery::MathMode::Exact) {
  ScenarioConfig cfg = prototype_scenario();
  cfg.nodes = 3;
  cfg.seed = 20260806;
  if (faulted) {
    cfg.faults = fault::parse_fault_plan(
        "sensor_noise:soc:0.03,pv_dropout:day=1:hours=3,cell_weak:bank=1:capacity=0.85");
    cfg.guard.enabled = true;
  }
  cfg.bank.math = math;
  return cfg;
}

MultiDayOptions day_options(std::size_t days) {
  MultiDayOptions opts;
  opts.days = days;
  opts.sunshine_fraction = 0.5;
  opts.probe_every_days = 3;  // exercise the SoH-probe state across the boundary
  return opts;
}

/// Everything the invariant promises byte-for-byte. Wall-clock profiling
/// histograms are the documented determinism exception, so profiling stays
/// off and the registry/trace comparison is exact.
struct RunSignature {
  std::vector<std::uint8_t> result_bytes;
  std::vector<std::uint8_t> cluster_bytes;
  std::string registry_json;
  std::string trace_jsonl;

  bool operator==(const RunSignature&) const = default;
};

RunSignature run_and_sign(const ScenarioConfig& cfg, const MultiDayOptions& opts) {
  obs::set_profiling_enabled(false);
  obs::set_trace_enabled(true);
  obs::global_registry().reset();
  obs::global_trace().clear();
  // Model the fresh process of a real resume: construction-time trace events
  // (static fault injection) stamp from the sim clock, which would otherwise
  // leak the previous run's end time within this test binary.
  util::set_sim_time(-1.0);

  Cluster cluster{cfg};
  const MultiDayResult result = run_multi_day(cluster, opts);

  RunSignature sig;
  snapshot::SnapshotWriter rw;
  save_state(rw, result);
  sig.result_bytes = rw.bytes();
  snapshot::SnapshotWriter cw;
  cluster.save_state(cw);
  sig.cluster_bytes = cw.bytes();
  sig.registry_json = obs::global_registry().json();
  std::ostringstream trace;
  obs::global_trace().write_jsonl(trace);
  sig.trace_jsonl = trace.str();

  obs::set_trace_enabled(false);
  return sig;
}

void expect_identical(const RunSignature& a, const RunSignature& b) {
  EXPECT_EQ(a.result_bytes, b.result_bytes);
  EXPECT_EQ(a.cluster_bytes, b.cluster_bytes);
  EXPECT_EQ(a.registry_json, b.registry_json);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
}

/// One uninterrupted run vs. checkpoint-at-`every`-days + resume-from-`at`.
void check_resume_identity(const ScenarioConfig& cfg, std::size_t days,
                           std::size_t every, std::size_t at,
                           const std::string& dir_name) {
  CheckpointDir dir{dir_name};
  MultiDayOptions opts = day_options(days);
  const std::uint64_t hash = scenario_fingerprint(cfg, opts);

  const RunSignature uninterrupted = run_and_sign(cfg, opts);

  opts.checkpoint.every_days = every;
  opts.checkpoint.dir = dir.path();
  opts.checkpoint.config_hash = hash;
  run_and_sign(cfg, opts);
  ASSERT_TRUE(fs::exists(dir.snap(at))) << dir.snap(at);

  MultiDayOptions resume_opts = day_options(days);
  resume_opts.checkpoint.resume_path = dir.snap(at);
  resume_opts.checkpoint.config_hash = hash;
  const RunSignature resumed = run_and_sign(cfg, resume_opts);

  expect_identical(uninterrupted, resumed);
}

TEST(CheckpointResume, CleanRunBitIdentical) {
  check_resume_identity(small_scenario(), 8, 3, 6, "clean");
}

TEST(CheckpointResume, FaultedRunBitIdentical) {
  // The fault injector's forked per-node RNG streams and the guard's
  // degraded-mode state all cross the snapshot boundary.
  check_resume_identity(small_scenario(/*faulted=*/true), 8, 4, 4, "faulted");
}

TEST(CheckpointResume, FastMathRunBitIdentical) {
  check_resume_identity(small_scenario(false, battery::MathMode::Fast), 6, 2, 4, "fast");
}

TEST(CheckpointResume, SimdMathRunBitIdentical) {
  // The lane-batched tier shares the fast tier's snapshot story: the math
  // byte round-trips and the block kernel is deterministic, so a resumed
  // run must be bit-identical to the uninterrupted one.
  check_resume_identity(small_scenario(false, battery::MathMode::Simd), 6, 2, 4, "simd");
}

TEST(CheckpointResume, EveryDayBoundaryResumesIdentically) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"every_day"};
  MultiDayOptions opts = day_options(5);
  const RunSignature uninterrupted = run_and_sign(cfg, opts);

  opts.checkpoint.every_days = 1;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  for (std::size_t day = 1; day < 5; ++day) {
    ASSERT_TRUE(fs::exists(dir.snap(day)));
    MultiDayOptions resume_opts = day_options(5);
    resume_opts.checkpoint.resume_path = dir.snap(day);
    const RunSignature resumed = run_and_sign(cfg, resume_opts);
    SCOPED_TRACE("resumed from day " + std::to_string(day));
    expect_identical(uninterrupted, resumed);
  }
}

TEST(CheckpointResume, StuckSensorGuardFallbacksMatchAcrossResume) {
  // The guard judges staleness by each power table's last reading time, the
  // only trace of the sample stream a checkpoint keeps. Stuck sensors make
  // that timestamp lag, so a resumed run must take exactly the stale
  // fallbacks the straight run takes. The restored timestamp is read only
  // by a control tick that runs before the day's first reading, so the duty
  // window opens at midnight, and long holds keep sensors stuck across it.
  ScenarioConfig cfg = small_scenario();
  cfg.faults = fault::parse_fault_plan("sensor_stuck:p=0.01:hold=240");
  cfg.guard.enabled = true;
  cfg.day_start = util::Seconds{0.0};
  const std::size_t days = 4;
  CheckpointDir dir{"stuck_guard"};
  MultiDayOptions opts = day_options(days);
  const std::uint64_t hash = scenario_fingerprint(cfg, opts);

  struct Tally {
    double stale = 0.0;
    std::uint64_t fallbacks = 0;
  };
  auto run = [&cfg](const MultiDayOptions& o) {
    obs::set_profiling_enabled(false);
    obs::global_registry().reset();
    util::set_sim_time(-1.0);
    Cluster cluster{cfg};
    (void)run_multi_day(cluster, o);
    const obs::Counter* stale = obs::global_registry().find_counter("policy.fallback{stale}");
    return Tally{stale != nullptr ? stale->value() : 0.0, cluster.guard().fallback_count()};
  };

  const Tally straight = run(opts);
  EXPECT_GT(straight.stale, 0.0) << "the stuck sensor never tripped the staleness check";

  opts.checkpoint.every_days = 1;
  opts.checkpoint.dir = dir.path();
  opts.checkpoint.config_hash = hash;
  (void)run(opts);
  MultiDayOptions resume_opts = day_options(days);
  resume_opts.checkpoint.resume_path = dir.snap(2);
  resume_opts.checkpoint.config_hash = hash;
  const Tally resumed = run(resume_opts);

  EXPECT_EQ(resumed.stale, straight.stale);
  EXPECT_EQ(resumed.fallbacks, straight.fallbacks);
}

TEST(CheckpointSize, ClusterStateStaysBoundedPerNode) {
  // Per-node telemetry state is O(1): the checkpoint after ten days is as
  // large as after one, and well under 2 KB per node. The only per-node
  // field of varying length is the rainflow turning-point stack, whose
  // depth moves with the day's SoC swings but is capped at kStackDepth.
  ScenarioConfig cfg = small_scenario(/*faulted=*/true);
  cfg.nodes = 6;
  Cluster cluster{cfg};
  auto state_bytes = [&cluster] {
    snapshot::SnapshotWriter w;
    cluster.save_state(w);
    return static_cast<double>(w.bytes().size());
  };
  (void)cluster.run_day(solar::DayType::Sunny);
  const double after_one = state_bytes();
  for (int d = 1; d < 10; ++d) {
    (void)cluster.run_day(d % 3 == 1 ? solar::DayType::Cloudy : solar::DayType::Sunny);
  }
  const double after_ten = state_bytes();
  const double rainflow_slack = static_cast<double>(
      cfg.nodes * battery::OnlineRainflow::kStackDepth * sizeof(double));
  EXPECT_NEAR(after_ten, after_one, rainflow_slack);
  EXPECT_LT(after_ten / static_cast<double>(cfg.nodes), 2048.0);
}

// The sectioned checkpoint of a fixed 4-shard x 6-node datacenter after two
// faulted days, pinned by size and CRC-32. The values pin both the on-disk
// format and this scenario's trajectory, so a change to the day loop, a
// policy or the RNG streams moves them too; either case needs a deliberate
// update here, and only a format change also needs a kSectionFormatVersion
// bump. A faster codec, CRC or write path must reproduce these bytes exactly.
constexpr std::uintmax_t kPinnedSectionFileBytes = 29076;
constexpr std::uint32_t kPinnedSectionFileCrc = 0x33629ED0u;

DatacenterConfig pinned_datacenter(std::size_t workers) {
  DatacenterConfig cfg;
  cfg.scenario = small_scenario(/*faulted=*/true);
  cfg.scenario.nodes = 6;
  cfg.shards = 4;
  cfg.workers = workers;
  return cfg;
}

/// Runs the pinned datacenter for two days and writes its shard sections.
void write_pinned_checkpoint(std::size_t workers, const std::string& path) {
  util::set_sim_time(0.0);
  Datacenter dc{pinned_datacenter(workers)};
  (void)dc.run_day(solar::DayType::Sunny);
  (void)dc.run_day(solar::DayType::Cloudy);
  snapshot::SectionFileWriter out(path, 0x5EC7, dc.shard_count());
  dc.save_shard_sections(out);
  out.commit();
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string day_signature(const DayResult& d) {
  snapshot::SnapshotWriter w;
  save_state(w, d);
  return {w.bytes().begin(), w.bytes().end()};
}

TEST(SectionedCheckpoint, FormatPinnedBySizeAndCrc) {
  CheckpointDir dir{"sect_pinned"};
  const std::string path = dir.path() + "/dc.sect";
  write_pinned_checkpoint(1, path);
  const std::vector<std::uint8_t> bytes = read_file(path);
  EXPECT_EQ(bytes.size(), kPinnedSectionFileBytes);
  EXPECT_EQ(snapshot::crc32(bytes), kPinnedSectionFileCrc);
}

TEST(SectionedCheckpoint, FilesByteIdenticalAtAnyWorkerCount) {
  CheckpointDir dir{"sect_workers"};
  write_pinned_checkpoint(1, dir.path() + "/w1.sect");
  const std::vector<std::uint8_t> base = read_file(dir.path() + "/w1.sect");
  ASSERT_FALSE(base.empty());
  for (std::size_t workers : {2u, 4u, 7u}) {
    const std::string path = dir.path() + "/w" + std::to_string(workers) + ".sect";
    write_pinned_checkpoint(workers, path);
    EXPECT_EQ(read_file(path), base) << workers << " workers";
  }
}

TEST(SectionedCheckpoint, ResumeAtAnyWorkerCountReplaysTheSameNextDay) {
  CheckpointDir dir{"sect_resume"};
  const std::string path = dir.path() + "/dc.sect";
  write_pinned_checkpoint(4, path);

  util::set_sim_time(0.0);
  Datacenter straight{pinned_datacenter(1)};
  (void)straight.run_day(solar::DayType::Sunny);
  (void)straight.run_day(solar::DayType::Cloudy);
  const std::string uninterrupted = day_signature(straight.run_day(solar::DayType::Rainy));

  for (std::size_t workers : {1u, 4u}) {
    util::set_sim_time(0.0);
    Datacenter resumed{pinned_datacenter(workers)};
    snapshot::SectionFileReader in(path, 0x5EC7);
    resumed.load_shard_sections(in);
    in.finish();
    resumed.resume_at_day(2);
    EXPECT_EQ(day_signature(resumed.run_day(solar::DayType::Rainy)), uninterrupted)
        << "resumed at " << workers << " workers";
  }
}

TEST(CheckpointResume, FinalDayWritesNoPointlessSnapshot) {
  // A checkpoint after the last day would never be resumed; the loop skips it.
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"final_day"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);
  EXPECT_TRUE(fs::exists(dir.snap(2)));
  EXPECT_FALSE(fs::exists(dir.snap(4)));
}

TEST(ScenarioFingerprint, SensitiveToEveryTrajectoryKnob) {
  const ScenarioConfig cfg = small_scenario();
  const MultiDayOptions opts = day_options(6);
  const std::uint64_t base = scenario_fingerprint(cfg, opts);
  EXPECT_EQ(base, scenario_fingerprint(small_scenario(), day_options(6)));
  EXPECT_NE(base, 0u);  // 0 means "unchecked" and must never be produced

  ScenarioConfig seed = cfg;
  seed.seed = cfg.seed + 1;
  EXPECT_NE(base, scenario_fingerprint(seed, opts));

  ScenarioConfig nodes = cfg;
  nodes.nodes = cfg.nodes + 1;
  EXPECT_NE(base, scenario_fingerprint(nodes, opts));

  EXPECT_NE(base, scenario_fingerprint(small_scenario(true), opts));
  EXPECT_NE(base,
            scenario_fingerprint(small_scenario(false, battery::MathMode::Fast), opts));
  EXPECT_NE(base,
            scenario_fingerprint(small_scenario(false, battery::MathMode::Simd), opts));
  EXPECT_NE(base, scenario_fingerprint(cfg, day_options(7)));

  MultiDayOptions sunshine = day_options(6);
  sunshine.sunshine_fraction = 0.75;
  EXPECT_NE(base, scenario_fingerprint(cfg, sunshine));
}

TEST(CheckpointResume, MismatchedConfigHashRefused) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"hash_mismatch"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  opts.checkpoint.config_hash = scenario_fingerprint(cfg, opts);
  run_and_sign(cfg, opts);

  MultiDayOptions resume_opts = day_options(4);
  resume_opts.checkpoint.resume_path = dir.snap(2);
  resume_opts.checkpoint.config_hash = opts.checkpoint.config_hash ^ 0x1;
  Cluster cluster{cfg};
  EXPECT_THROW(run_multi_day(cluster, resume_opts), snapshot::SnapshotError);
}

TEST(CheckpointResume, SnapshotPastTheRunEndRefused) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"past_end"};
  MultiDayOptions opts = day_options(6);
  opts.checkpoint.every_days = 4;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  MultiDayOptions resume_opts = day_options(3);  // shorter than the saved day 4
  resume_opts.checkpoint.resume_path = dir.snap(4);
  Cluster cluster{cfg};
  try {
    run_multi_day(cluster, resume_opts);
    FAIL() << "resuming past the end of the run must be refused";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("nothing left to resume"), std::string::npos);
  }
}

TEST(CheckpointResume, DifferentWeatherSequenceRefused) {
  // With config_hash checking disabled (0), the weather cross-check is the
  // backstop against resuming into a divergent trajectory.
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"weather"};
  MultiDayOptions opts = day_options(6);
  opts.weather = mixed_weather(6, 2, 1, 1);
  opts.checkpoint.every_days = 3;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  MultiDayOptions resume_opts = day_options(6);
  resume_opts.weather = mixed_weather(6, 1, 1, 2);
  resume_opts.checkpoint.resume_path = dir.snap(3);
  Cluster cluster{cfg};
  try {
    run_multi_day(cluster, resume_opts);
    FAIL() << "a different weather sequence must be refused";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("weather"), std::string::npos);
  }
}

TEST(CheckpointResume, TrailingBytesInPayloadRefused) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"trailing"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  // Re-commit the snapshot with one garbage byte appended. The container
  // (size + CRC) is self-consistent, so only the state loader's exhaustion
  // check can catch it.
  std::vector<std::uint8_t> payload = snapshot::read_snapshot_file(dir.snap(2), 0);
  payload.push_back(0xEE);
  snapshot::write_snapshot_file(dir.snap(2), 0, payload);

  MultiDayOptions resume_opts = day_options(4);
  resume_opts.checkpoint.resume_path = dir.snap(2);
  Cluster cluster{cfg};
  try {
    run_multi_day(cluster, resume_opts);
    FAIL() << "trailing payload bytes must be refused";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }
}

TEST(CheckpointResume, TruncatedSnapshotRefusedThroughTheRunPath) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"truncated"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  const auto full_size = fs::file_size(dir.snap(2));
  fs::resize_file(dir.snap(2), full_size / 2);

  MultiDayOptions resume_opts = day_options(4);
  resume_opts.checkpoint.resume_path = dir.snap(2);
  Cluster cluster{cfg};
  EXPECT_THROW(run_multi_day(cluster, resume_opts), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Sweep-level checkpointing: an interrupted sweep resumes only its
// unfinished jobs.

/// A sweep job computing a deterministic value, with save/restore wired and
/// an execution counter so tests can prove work() did or did not run.
SweepJob value_job(const std::string& name, double input, double* out,
                   std::atomic<int>* runs) {
  SweepJob job;
  job.name = name;
  job.work = [input, out, runs] {
    runs->fetch_add(1);
    *out = input * input + 1.0;
  };
  job.save_result = [out](snapshot::SnapshotWriter& w) { w.write_f64(*out); };
  job.restore_result = [out](snapshot::SnapshotReader& r) { *out = r.read_f64(); };
  return job;
}

TEST(SweepCheckpoint, FinishedJobsAreSkippedOnRerun) {
  CheckpointDir dir{"sweep_skip"};
  SweepOptions opts;
  opts.jobs = 2;
  opts.checkpoint_dir = dir.path();
  opts.config_hash = 0xFEED;

  std::vector<double> values(3, 0.0);
  std::atomic<int> runs{0};
  std::vector<SweepJob> jobs;
  for (std::size_t i = 0; i < 3; ++i) {
    jobs.push_back(value_job("point-" + std::to_string(i),
                             static_cast<double>(i + 1), &values[i], &runs));
  }
  const auto first = run_sweep(std::move(jobs), opts);
  EXPECT_EQ(runs.load(), 3);
  const std::vector<double> first_values = values;
  for (const auto& r : first) {
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.resumed);
    EXPECT_TRUE(fs::exists(dir.path() + "/" + r.name + ".ckpt"));
  }

  // Second pass: every point restores, no work() runs, values identical.
  std::fill(values.begin(), values.end(), 0.0);
  std::vector<SweepJob> again;
  for (std::size_t i = 0; i < 3; ++i) {
    again.push_back(value_job("point-" + std::to_string(i),
                              static_cast<double>(i + 1), &values[i], &runs));
  }
  const auto second = run_sweep(std::move(again), opts);
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(values, first_values);
  for (const auto& r : second) {
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.resumed);
  }
}

TEST(SweepCheckpoint, InterruptedSweepResumesOnlyUnfinishedJobs) {
  CheckpointDir dir{"sweep_partial"};
  SweepOptions opts;
  opts.jobs = 1;
  opts.checkpoint_dir = dir.path();

  // "Interruption": only the first two of four points completed.
  std::vector<double> values(4, 0.0);
  std::atomic<int> runs{0};
  std::vector<SweepJob> partial;
  for (std::size_t i = 0; i < 2; ++i) {
    partial.push_back(value_job("point-" + std::to_string(i),
                                static_cast<double>(i + 1), &values[i], &runs));
  }
  run_sweep(std::move(partial), opts);
  EXPECT_EQ(runs.load(), 2);

  // The re-run of the full sweep recomputes exactly the missing half.
  opts.jobs = 4;
  std::vector<SweepJob> full;
  for (std::size_t i = 0; i < 4; ++i) {
    full.push_back(value_job("point-" + std::to_string(i),
                             static_cast<double>(i + 1), &values[i], &runs));
  }
  const auto results = run_sweep(std::move(full), opts);
  EXPECT_EQ(runs.load(), 4);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].resumed);
  EXPECT_TRUE(results[1].resumed);
  EXPECT_FALSE(results[2].resumed);
  EXPECT_FALSE(results[3].resumed);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(values[i], static_cast<double>((i + 1) * (i + 1)) + 1.0);
  }
}

TEST(SweepCheckpoint, CorruptCheckpointDowngradesToRerun) {
  CheckpointDir dir{"sweep_corrupt"};
  SweepOptions opts;
  opts.jobs = 1;
  opts.checkpoint_dir = dir.path();

  double value = 0.0;
  std::atomic<int> runs{0};
  run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 1);

  // Truncate the committed checkpoint; the resume attempt must warn, re-run
  // the job, and leave a *valid* file behind.
  const std::string ckpt = dir.path() + "/point-0.ckpt";
  fs::resize_file(ckpt, fs::file_size(ckpt) - 3);
  value = 0.0;
  const auto rerun = run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_TRUE(rerun[0].ok);
  EXPECT_FALSE(rerun[0].resumed);
  EXPECT_DOUBLE_EQ(value, 10.0);

  const auto third = run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 2);  // healed: restores again
  EXPECT_TRUE(third[0].resumed);
}

TEST(SweepCheckpoint, HashMismatchedCheckpointReruns) {
  CheckpointDir dir{"sweep_hash"};
  SweepOptions opts;
  opts.jobs = 1;
  opts.checkpoint_dir = dir.path();
  opts.config_hash = 1;

  double value = 0.0;
  std::atomic<int> runs{0};
  run_sweep({value_job("point-0", 2.0, &value, &runs)}, opts);

  opts.config_hash = 2;  // "different sweep" — stale files must not leak in
  const auto rerun = run_sweep({value_job("point-0", 2.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_FALSE(rerun[0].resumed);
}

TEST(SweepCheckpoint, MultiDayPointsResumeIdenticallyAtAnyWorkerCount) {
  // End-to-end: real multi-day points, checkpointed under --jobs 1, resumed
  // under --jobs 4, byte-compared against an uncheckpointed sweep.
  const ScenarioConfig cfg = small_scenario();
  const auto run_point = [&cfg](double sunshine) {
    Cluster cluster{cfg};
    MultiDayOptions opts;
    opts.days = 3;
    opts.sunshine_fraction = sunshine;
    opts.probe_every_days = 0;
    opts.keep_days = false;
    const MultiDayResult r = run_multi_day(cluster, opts);
    snapshot::SnapshotWriter w;
    save_state(w, r);
    return w.bytes();
  };
  const std::vector<double> fractions = {0.3, 0.6, 0.9};

  const auto sweep_bytes = [&](SweepOptions opts,
                               std::vector<bool>* resumed_out) {
    std::vector<std::vector<std::uint8_t>> bytes(fractions.size());
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      SweepJob job;
      job.name = "point-" + std::to_string(i);
      job.work = [&, i] { bytes[i] = run_point(fractions[i]); };
      job.save_result = [&bytes, i](snapshot::SnapshotWriter& w) {
        w.write_u8_vec(bytes[i]);
      };
      job.restore_result = [&bytes, i](snapshot::SnapshotReader& r) {
        bytes[i] = r.read_u8_vec();
      };
      jobs.push_back(std::move(job));
    }
    const auto results = run_sweep(std::move(jobs), opts);
    if (resumed_out != nullptr) {
      resumed_out->clear();
      for (const auto& r : results) resumed_out->push_back(r.resumed);
    }
    return bytes;
  };

  SweepOptions plain;
  plain.jobs = 2;
  const auto reference = sweep_bytes(plain, nullptr);

  CheckpointDir dir{"sweep_multiday"};
  SweepOptions writer;
  writer.jobs = 1;
  writer.checkpoint_dir = dir.path();
  EXPECT_EQ(sweep_bytes(writer, nullptr), reference);

  SweepOptions reader;
  reader.jobs = 4;
  reader.checkpoint_dir = dir.path();
  std::vector<bool> resumed;
  EXPECT_EQ(sweep_bytes(reader, &resumed), reference);
  EXPECT_EQ(resumed, std::vector<bool>(fractions.size(), true));
}

}  // namespace
}  // namespace baat::sim
