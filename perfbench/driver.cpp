// perfbench_driver: times one scenario in-process through the public calls
// a user's program makes, and writes every sample as JSON for run.py.
//
//   perfbench_driver --scenario <file.scn> [--set section.key=value]...
//                    --seeds <s1,s2,...> --accuracy <accuracy.scn>
//                    --results <dir> --out <json>
//                    [--seconds S] [--min-passes P] [--trace 0|1] [--ring N]
//                    [--digest <file>]...
//
// One invocation runs, in order and in this one process:
//   1. the fidelity guard: <accuracy.scn> once, untimed;
//   2. set-up-only repetitions (parse + ExperimentRunner::setup, then the
//      runner is destroyed untimed), cycling over the seeds — at least
//      kSetupReps of them and at least kSetupSeconds' worth — so setup_s
//      has a median of its own;
//   3. passes of full iterations — parse -> setup -> execute ->
//      ~ExperimentRunner — one per seed (engine.seed=<s>), at least P
//      passes, and more while the next one is predicted to end within S
//      seconds. With --trace 0 every iteration is untraced. With --trace 1
//      each seed runs untraced, then traced; a traced iteration calls
//      Platform::bind_metrics and Platform::enable_profiling(N) between
//      setup() and execute(), outside every timed span, and keeps the
//      Registry::snapshot() and profiler rollup taken after execute().
//
// Each iteration writes its outputs into <dir>/<kind>-<seed>/ (the
// directory is $P2PLAB_RESULTS_DIR for that iteration) and records the
// SHA-1 of the --digest files found there. The driver checks nothing
// itself: run.py reads the samples and applies every correctness and
// determinism check.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bittorrent/sha1.hpp"
#include "profile/profiler.hpp"
#include "scenario/parser.hpp"
#include "scenario/runner.hpp"

namespace {

namespace fs = std::filesystem;
using p2plab::scenario::ExperimentRunner;
using p2plab::scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupReps = 9;
constexpr double kSetupSeconds = 1.0;

struct Options {
  std::string scenario;
  std::vector<std::string> overrides;
  std::vector<std::uint64_t> seeds;
  std::string accuracy;
  std::string results;
  std::string out;
  double seconds = 10.0;
  int min_passes = 1;
  bool trace = false;
  std::size_t ring = 1 << 15;
  std::vector<std::string> digest_files;
};

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

ScenarioSpec parse_or_die(const std::string& path,
                          const std::vector<std::string>& overrides) {
  auto result = p2plab::scenario::parse_scenario_file(path, overrides);
  if (!result.spec) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", path.c_str(),
                 result.error.c_str());
    std::exit(2);
  }
  return std::move(*result.spec);
}

/// Point $P2PLAB_RESULTS_DIR and stdout at a fresh <results>/<name>/.
std::string enter_results_dir(const Options& opt, const std::string& name) {
  const fs::path dir = fs::path(opt.results) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  setenv("P2PLAB_RESULTS_DIR", dir.c_str(), 1);
  std::fflush(stdout);
  if (std::freopen((dir / "stdout.log").c_str(), "w", stdout) == nullptr) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", dir.c_str());
    std::exit(2);
  }
  return dir.string();
}

/// SHA-1 over (name, contents) of each digest file, in argument order; a
/// missing file hashes as its name alone, so it still changes the digest.
std::string digest_outputs(const Options& opt, const std::string& dir) {
  p2plab::bt::Sha1 sha;
  for (const std::string& name : opt.digest_files) {
    sha.update(name);
    std::ifstream in(fs::path(dir) / name, std::ios::binary);
    if (!in) {
      sha.update(std::string_view("<missing>"));
      continue;
    }
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    sha.update(bytes);
  }
  return p2plab::bt::to_hex(sha.finish());
}

/// The workload's spec at one seed.
ScenarioSpec workload_spec(const Options& opt, std::uint64_t seed) {
  std::vector<std::string> overrides = opt.overrides;
  overrides.push_back("engine.seed=" + std::to_string(seed));
  return parse_or_die(opt.scenario, overrides);
}

struct Iteration {
  std::string kind;
  std::uint64_t seed = 0;
  double parse_s = 0, setup_s = 0, execute_s = 0, teardown_s = 0;
  double run_s = 0, cpu_s = 0;
  long peak_rss_kb = 0;  // process high-water mark after this iteration
  int exit_code = 0;
  std::string digest;
  std::string snapshot_json;  // registry + profiler, as a JSON object body
};

std::string snapshot_json(ExperimentRunner& runner, bool traced) {
  std::string s;
  char buf[256];
  auto field = [&](const std::string& name, double v) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", s.empty() ? "" : ", ",
                  name.c_str(), v);
    s += buf;
  };
  for (const auto& e : runner.registry().snapshot()) {
    if (e.hist == nullptr) {
      field(e.name, e.value);
      continue;
    }
    // Histograms: bucket upper bounds and counts, for percentiles.
    s += (s.empty() ? "\"" : ", \"") + e.name + "\": {\"bounds\": [";
    for (std::size_t i = 0; i < e.hist->bounds.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "",
                    e.hist->bounds[i]);
      s += buf;
    }
    s += "], \"buckets\": [";
    for (std::size_t i = 0; i < e.hist->buckets.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%" PRIu64, i ? ", " : "",
                    e.hist->buckets[i]);
      s += buf;
    }
    std::snprintf(buf, sizeof buf, "], \"max\": %.17g}", e.hist->max);
    s += buf;
  }
  p2plab::core::Platform& platform = runner.platform();
  field("perfbench.vnodes", static_cast<double>(platform.vnode_count()));
  if (traced) {
    const p2plab::profile::Rollup r = platform.profiler().rollup();
    field("perfbench.profile.barrier_wait_share", r.barrier_wait_share);
    field("perfbench.profile.merge_share", r.merge_share);
    field("perfbench.profile.imbalance_ratio", r.imbalance_ratio);
    field("perfbench.profile.ring_dropped",
          static_cast<double>(r.ring_dropped));
    std::uint64_t ring_peak = platform.profiler().coordinator_ring().total();
    for (std::size_t k = 0; k < r.shards.size(); ++k) {
      ring_peak = std::max(ring_peak,
                           platform.profiler().shard_ring(k).total());
    }
    field("perfbench.profile.ring_peak", static_cast<double>(ring_peak));
    for (std::size_t k = 0; k < r.shards.size(); ++k) {
      const auto& sh = r.shards[k];
      const std::string p = "perfbench.profile.shard" + std::to_string(k);
      field(p + ".utilization_pct", sh.utilization_pct);
      field(p + ".cpu_s", sh.stats.user_s + sh.stats.sys_s);
    }
  }
  return s;
}

Iteration run_iteration(const Options& opt, std::uint64_t seed,
                        bool traced) {
  Iteration it;
  it.kind = traced ? "traced" : "untraced";
  it.seed = seed;
  const std::string dir =
      enter_results_dir(opt, it.kind + "-" + std::to_string(seed));

  const auto t0 = Clock::now();
  ScenarioSpec spec = workload_spec(opt, seed);
  it.parse_s = since(t0);
  const auto t1 = Clock::now();
  auto runner = std::make_unique<ExperimentRunner>(std::move(spec));
  runner->setup();
  it.setup_s = since(t1);

  if (traced) {  // untimed: profiler rings are allocated here
    runner->platform().bind_metrics(runner->registry());
    runner->platform().enable_profiling(opt.ring);
  }

  const double cpu0 = process_cpu_s();
  const auto t2 = Clock::now();
  it.exit_code = runner->execute();
  it.execute_s = since(t2);
  const double cpu1 = process_cpu_s();

  it.snapshot_json = snapshot_json(*runner, traced);  // untimed

  const double cpu2 = process_cpu_s();
  const auto t3 = Clock::now();
  runner.reset();
  it.teardown_s = since(t3);
  it.cpu_s = (cpu1 - cpu0) + (process_cpu_s() - cpu2);
  it.run_s = it.execute_s + it.teardown_s;
  it.peak_rss_kb = peak_rss_kb();

  std::fflush(stdout);
  it.digest = digest_outputs(opt, dir);
  return it;
}

int run_accuracy_guard(const Options& opt) {
  enter_results_dir(opt, "accuracy");
  ExperimentRunner runner(parse_or_die(opt.accuracy, {}));
  const int code = runner.run();
  std::fflush(stdout);
  return code;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 == argc) return false;
    const std::string val = argv[++i];
    if (arg == "--scenario") opt.scenario = val;
    else if (arg == "--set") opt.overrides.push_back(val);
    else if (arg == "--seeds") {
      for (std::size_t at = 0; at < val.size();) {
        std::size_t used = 0;
        opt.seeds.push_back(std::stoull(val.substr(at), &used));
        at += used + 1;  // skip the comma
      }
    }
    else if (arg == "--accuracy") opt.accuracy = val;
    else if (arg == "--results") opt.results = val;
    else if (arg == "--out") opt.out = val;
    else if (arg == "--seconds") opt.seconds = std::stod(val);
    else if (arg == "--min-passes") opt.min_passes = std::stoi(val);
    else if (arg == "--trace") opt.trace = val == "1";
    else if (arg == "--ring") opt.ring = std::stoul(val);
    else if (arg == "--digest") opt.digest_files.push_back(val);
    else return false;
  }
  return !opt.scenario.empty() && !opt.seeds.empty() &&
         !opt.accuracy.empty() &&
         !opt.results.empty() && !opt.out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --scenario <scn> --seeds <s,...> "
                 "--accuracy <scn> --results <dir> --out <json> "
                 "[--set k=v]... [--seconds S] [--min-passes P] "
                 "[--trace 0|1] [--ring N] [--digest <file>]...\n");
    return 2;
  }

  const int accuracy_exit = run_accuracy_guard(opt);

  std::vector<double> setup_only_s;
  enter_results_dir(opt, "setup");
  const auto setup_start = Clock::now();
  for (std::size_t r = 0; r < kSetupReps || since(setup_start) < kSetupSeconds;
       ++r) {
    const auto t0 = Clock::now();
    ScenarioSpec spec = workload_spec(opt, opt.seeds[r % opt.seeds.size()]);
    auto runner = std::make_unique<ExperimentRunner>(std::move(spec));
    runner->setup();
    setup_only_s.push_back(since(t0));
    runner.reset();
  }

  std::vector<Iteration> iters;
  const auto start = Clock::now();
  for (int pass = 0;; ++pass) {
    const double elapsed = since(start);
    if (pass > 0 && pass >= opt.min_passes &&
        elapsed + elapsed / pass > opt.seconds) {
      break;
    }
    for (const std::uint64_t seed : opt.seeds) {
      iters.push_back(run_iteration(opt, seed, false));
      if (opt.trace) iters.push_back(run_iteration(opt, seed, true));
    }
  }

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 opt.out.c_str());
    return 2;
  }
  std::fprintf(f, "{\"build_type\": \"%s\", ", PERFBENCH_BUILD_TYPE);
  std::fprintf(f, "\"accuracy_exit\": %d, \"peak_rss_kb\": %ld, ",
               accuracy_exit, peak_rss_kb());
  std::fprintf(f, "\"setup_only_s\": [");
  for (std::size_t i = 0; i < setup_only_s.size(); ++i) {
    std::fprintf(f, "%s%.9f", i ? ", " : "", setup_only_s[i]);
  }
  std::fprintf(f, "],\n\"iterations\": [");
  for (std::size_t i = 0; i < iters.size(); ++i) {
    const Iteration& it = iters[i];
    std::fprintf(f, "%s\n{\"kind\": \"%s\", \"seed\": %" PRIu64
                 ", \"parse_s\": %.9f, "
                 "\"setup_s\": %.9f, \"execute_s\": %.9f, "
                 "\"teardown_s\": %.9f, \"run_s\": %.9f, \"cpu_s\": %.6f, "
                 "\"peak_rss_kb\": %ld, \"exit\": %d, \"digest\": \"%s\", "
                 "\"counters\": {%s}}",
                 i ? "," : "", it.kind.c_str(), it.seed, it.parse_s,
                 it.setup_s, it.execute_s, it.teardown_s, it.run_s, it.cpu_s,
                 it.peak_rss_kb, it.exit_code, it.digest.c_str(),
                 it.snapshot_json.c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return 0;
}
