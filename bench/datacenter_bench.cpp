// Perf harness for the sharded datacenter pipeline (DESIGN.md §5h).
//
// Where kernel_bench times the inner tick kernel in isolation, this bench
// times the full day pipeline — router, policy, telemetry, watchdog, fault
// layer, demand scheduling and the shard merge — at datacenter scale, up
// to the 100k-cell / 16-shard flagship config. The unit of work is the
// node-tick (one server-battery node advanced one dt), so ns/node-tick is
// directly comparable across shard counts: a perfect sharding layer adds
// zero ns/node-tick over the single-cluster pipeline.
//
// Rows:
//   dc_ref_6250        1 shard  x 6250 nodes — the unsharded reference the
//                      sharding-tax gate rule divides against
//   dc_100k_16shard   16 shards x 6250 nodes = 100,000 cells, the paper's
//                      green-datacenter scale, with a diurnal demand model
//   dc_8x250_w{1,2,4}  worker-scaling triplet (same work, more threads) —
//                      on a multi-core host these document near-linear
//                      scaling; single-core CI reports them without gating
//
// Each row also reports sim-days/hour and the projected wall-clock for one
// simulated year, which is how the flagship config's "a year of 100k cells
// is an overnight run, not a cluster job" claim is tracked (see
// EXPERIMENTS.md). After the timed days each row writes a sectioned
// checkpoint (save_shard_sections) five times and resumes a freshly built
// Datacenter from it five times (construction untimed), keeping the fastest
// of each. It reports the size per node and the save and resume cost per
// checkpoint byte, all of which tools/perf_gate.py bounds. The resumed
// datacenter must re-save to the same bytes, or the bench fails.
//
// Methodology matches kernel_bench: ns/node-tick times only
// Datacenter::run_day (one segment per simulated day, min-over-days rejects
// background noise), the JSON carries the same calibration scalar, and
// tools/perf_gate.py compares machine-normalized ns/node-tick under the
// ns_per_cell_tick key plus a within-run sharding-tax rule
// (dc_100k_16shard vs dc_ref_6250).
//
// Usage: datacenter_bench [--quick] [--out <path>]
//   --quick   tiny configs — the ctest smoke mode. Numbers are noisy;
//             only the committed full run is gate-worthy.
//   --out     JSON output path (default: BENCH_datacenter.json in the cwd).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "sim/datacenter.hpp"
#include "sim/scenario.hpp"
#include "snapshot/sections.hpp"
#include "util/logging.hpp"
#include "util/sim_clock.hpp"
#include "workload/demand.hpp"

namespace {

// Allocation counter (see kernel_bench.cpp). The day pipeline legitimately
// allocates — per-day result vectors, trace strings — so the number is
// reported per node-tick and gated against creep rather than at zero. Shard
// workers allocate concurrently, so the counter is atomic; relaxed is enough
// because it is only read after run_day has joined the workers.
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
// std::stable_sort's temporary buffer comes from the nothrow form; replace
// it too so every allocation is counted and freed by the matching malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace baat;

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Same dependent multiply-add chain as kernel_bench: the machine-speed
/// scalar the perf gate divides by before comparing hosts. Min over five
/// ~10 ms repetitions — contention can only inflate the chain, so the min
/// is the clean measurement (a single shot poisoned by a scheduler hiccup
/// would skew every normalized comparison against this file's baseline).
double calibration_ns() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    volatile double seed = 1.0;
    double x = seed;
    const long kIters = 5'000'000;
    const auto t0 = Clock::now();
    for (long i = 0; i < kIters; ++i) {
      x = x * 0.999999999 + 1e-9;
    }
    const auto t1 = Clock::now();
    volatile double sink = x;
    (void)sink;
    best = std::min(best, elapsed_ns(t0, t1));
  }
  return best;
}

struct BenchResult {
  std::string name;
  std::size_t shards = 0;
  std::size_t nodes = 0;  ///< total across shards
  std::size_t workers = 0;
  long days = 0;
  double ns_per_node_tick = 0.0;
  double sim_days_per_hour = 0.0;
  double year_projection_s = 0.0;  ///< projected wall-clock for 365 days
  double allocs_per_node_tick = 0.0;
  double checkpoint_bytes_per_node = 0.0;  ///< sectioned checkpoint size / nodes
  double checkpoint_ns_per_byte = 0.0;     ///< fastest save / checkpoint bytes
  double resume_ns_per_byte = 0.0;         ///< fastest resume / checkpoint bytes
  double health_sink = 0.0;  ///< min health after the run — result checksum
};

struct CheckpointCost {
  double bytes = 0.0;
  double save_ns = 0.0;    ///< min over kCheckpointReps saves
  double resume_ns = 0.0;  ///< min over kCheckpointReps resumes
};

constexpr int kCheckpointReps = 5;

void save_sections(const sim::Datacenter& dc, const std::string& path) {
  snapshot::SectionFileWriter out(path, 0, dc.shard_count());
  dc.save_shard_sections(out);
  out.commit();
}

std::vector<char> file_contents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Saves the per-shard checkpoint sections of `dc` and resumes fresh
/// datacenters built from `cfg` from them. The files go to the system temp
/// directory and are removed again.
CheckpointCost checkpoint_cost(const sim::Datacenter& dc, const sim::DatacenterConfig& cfg,
                               const char* name) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            (std::string("datacenter_bench_") + name + ".ckpt"))
                               .string();
  CheckpointCost cost;
  cost.save_ns = std::numeric_limits<double>::infinity();
  cost.resume_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kCheckpointReps; ++rep) {
    const auto t0 = Clock::now();
    save_sections(dc, path);
    cost.save_ns = std::min(cost.save_ns, elapsed_ns(t0, Clock::now()));
  }
  cost.bytes = static_cast<double>(std::filesystem::file_size(path));
  for (int rep = 0; rep < kCheckpointReps; ++rep) {
    sim::Datacenter fresh{cfg};
    const auto t0 = Clock::now();
    snapshot::SectionFileReader in(path, 0);
    fresh.load_shard_sections(in);
    in.finish();
    fresh.resume_at_day(dc.days_run());
    cost.resume_ns = std::min(cost.resume_ns, elapsed_ns(t0, Clock::now()));
    if (rep == 0) {
      const std::string resaved = path + ".resaved";
      save_sections(fresh, resaved);
      const bool same = file_contents(path) == file_contents(resaved);
      std::filesystem::remove(resaved);
      if (!same) {
        std::fprintf(stderr, "datacenter_bench: %s: the resumed datacenter re-saves to "
                     "different checkpoint bytes\n", name);
        std::exit(1);
      }
    }
  }
  std::filesystem::remove(path);
  return cost;
}

/// Times `days` calls of Datacenter::run_day (alternating weather so the
/// solar and demand paths both stay hot) and reports the per-day minimum —
/// one day is one segment in kernel_bench terms.
BenchResult bench_datacenter(const char* name, std::size_t shards,
                             std::size_t nodes_per_shard, std::size_t workers,
                             long warmup_days, long days, bool with_demand) {
  sim::DatacenterConfig cfg;
  cfg.scenario = sim::prototype_scenario();
  cfg.scenario.nodes = nodes_per_shard;
  cfg.scenario.policy = core::PolicyKind::Baat;
  cfg.scenario.seed = 42;
  cfg.scenario.bank.math = battery::MathMode::Simd;
  cfg.shards = shards;
  cfg.workers = workers;
  if (with_demand) {
    cfg.demand = workload::parse_demand_spec(
        "users=" + std::to_string(shards * nodes_per_shard * 1000) +
        ",requests=150,peak=14,amplitude=0.6,spread=8");
  }
  util::set_sim_time(0.0);
  sim::Datacenter dc{cfg};

  const double ticks_per_day = 86400.0 / cfg.scenario.dt.value();
  const double node_ticks_per_day =
      static_cast<double>(dc.node_count()) * ticks_per_day;
  auto weather_for = [](long day) {
    return day % 3 == 1 ? solar::DayType::Cloudy : solar::DayType::Sunny;
  };

  for (long d = 0; d < warmup_days; ++d) (void)dc.run_day(weather_for(d));

  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  double best_day_ns = std::numeric_limits<double>::infinity();
  double total_ns = 0.0;
  double min_health = 1.0;
  for (long d = 0; d < days; ++d) {
    const auto t0 = Clock::now();
    const sim::DayResult r = dc.run_day(weather_for(warmup_days + d));
    const auto t1 = Clock::now();
    const double day_ns = elapsed_ns(t0, t1);
    best_day_ns = std::min(best_day_ns, day_ns);
    total_ns += day_ns;
    for (const sim::NodeDayStats& n : r.nodes) min_health = std::min(min_health, n.health);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  util::set_sim_time(-1.0);

  BenchResult r;
  r.name = name;
  r.shards = shards;
  r.nodes = dc.node_count();
  r.workers = workers;
  r.days = days;
  r.ns_per_node_tick = best_day_ns / node_ticks_per_day;
  r.sim_days_per_hour = 3600.0e9 / best_day_ns;
  r.year_projection_s = 365.0 * best_day_ns / 1e9;
  r.allocs_per_node_tick =
      static_cast<double>(allocs) /
      (node_ticks_per_day * static_cast<double>(days));
  const CheckpointCost ckpt = checkpoint_cost(dc, cfg, name);
  r.checkpoint_bytes_per_node = ckpt.bytes / static_cast<double>(dc.node_count());
  r.checkpoint_ns_per_byte = ckpt.save_ns / ckpt.bytes;
  r.resume_ns_per_byte = ckpt.resume_ns / ckpt.bytes;
  r.health_sink = min_health;
  return r;
}

void write_json(const std::string& path, double calib,
                const std::vector<BenchResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "datacenter_bench: cannot open %s for writing\n",
                 path.c_str());
    std::exit(1);
  }
  char buf[448];
  out << "{\n";
  std::snprintf(buf, sizeof buf, "  \"calibration_ns\": %.0f,\n", calib);
  out << buf;
  out << "  \"benches\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    // ns_per_cell_tick / allocs_per_tick are the key names tools/perf_gate.py
    // compares on; here they carry ns (and allocs) per node-tick.
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"shards\": %zu, \"nodes\": %zu, "
                  "\"workers\": %zu, \"days\": %ld, "
                  "\"ns_per_cell_tick\": %.3f, \"sim_days_per_hour\": %.1f, "
                  "\"year_projection_s\": %.1f, \"allocs_per_tick\": %.4f, "
                  "\"checkpoint_bytes_per_node\": %.1f, "
                  "\"checkpoint_ns_per_byte\": %.3f, \"resume_ns_per_byte\": %.3f}%s\n",
                  r.name.c_str(), r.shards, r.nodes, r.workers, r.days,
                  r.ns_per_node_tick, r.sim_days_per_hour, r.year_projection_s,
                  r.allocs_per_node_tick, r.checkpoint_bytes_per_node,
                  r.checkpoint_ns_per_byte, r.resume_ns_per_byte,
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_datacenter.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: datacenter_bench [--quick] [--out <path>]\n");
      return 2;
    }
  }

  // Large fleets under demand brown out nodes by design; the per-node WARN
  // replay would swamp stderr (and perturb the timing) at 100k nodes.
  util::set_log_sink([](util::LogLevel, const std::string&) {});

  const double calib = calibration_ns();
  std::vector<BenchResult> results;

  if (quick) {
    // Smoke scale: same code paths (sharding, demand, worker pool), tiny
    // fleets — finishes in seconds so it can ride in the ctest perf label.
    // Distinct names keep these rows out of the baseline comparison.
    results.push_back(bench_datacenter("dc_smoke_1x48", 1, 48, 1, 1, 2, true));
    results.push_back(bench_datacenter("dc_smoke_4x48", 4, 48, 1, 1, 2, true));
    results.push_back(bench_datacenter("dc_smoke_w2", 4, 12, 2, 0, 2, false));
    results.push_back(bench_datacenter("dc_smoke_w4", 4, 12, 4, 0, 2, false));
  } else {
    // The unsharded reference and the 100k-cell flagship run the same
    // per-shard node count AND the same per-shard demand (users scale with
    // total nodes, split evenly across shards), so the within-run sharding
    // tax is an apples-to-apples ratio of ns/node-tick.
    results.push_back(bench_datacenter("dc_ref_6250", 1, 6250, 1, 1, 3, true));
    results.push_back(bench_datacenter("dc_100k_16shard", 16, 6250, 1, 0, 3, true));
    results.push_back(bench_datacenter("dc_8x250_w1", 8, 250, 1, 1, 4, false));
    results.push_back(bench_datacenter("dc_8x250_w2", 8, 250, 2, 1, 4, false));
    results.push_back(bench_datacenter("dc_8x250_w4", 8, 250, 4, 1, 4, false));
  }

  std::printf("calibration_ns: %.0f%s\n", calib, quick ? "  (quick mode)" : "");
  for (const BenchResult& r : results) {
    std::printf(
        "%-16s shards=%-3zu nodes=%-7zu workers=%zu  ns/node-tick=%8.2f  "
        "sim-days/h=%8.1f  year=%7.0fs  allocs/node-tick=%.4f  ckpt B/node=%.0f  "
        "save ns/B=%.2f  resume ns/B=%.2f  (min health %.6f)\n",
        r.name.c_str(), r.shards, r.nodes, r.workers, r.ns_per_node_tick,
        r.sim_days_per_hour, r.year_projection_s, r.allocs_per_node_tick,
        r.checkpoint_bytes_per_node, r.checkpoint_ns_per_byte, r.resume_ns_per_byte,
        r.health_sink);
  }

  write_json(out_path, calib, results);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
