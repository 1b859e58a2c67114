// Churn experiment: the Figure 8 swarm under node churn and faults.
//
// Runs the 160-client / 16 MB download twice with the same content seed:
// once clean (scenarios/fig8.scn without its outputs) and once as
// scenarios/churn.scn — a configurable fraction of the clients crashes
// mid-download (half rejoin after 30-120 s and resume, half depart for
// good), plus a tracker outage and a couple of link faults for coverage.
// The runner checks the robustness invariants this subsystem promises
// (survivors complete, faults pair with recoveries, the queue drains once
// the applications stop) and the exit status is nonzero if any fails, so
// CI can gate on it.
//
// Knobs: P2PLAB_CHURN_CLIENTS and P2PLAB_CHURN_PCT (defaults: churn.scn's
// 160 clients and 30%), P2PLAB_CHURN_BASELINE=0 skips the clean reference
// run, --shards=N (or P2PLAB_SHARDS=N) runs both passes on the parallel
// engine.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "bench_env.hpp"
#include "scenario/parser.hpp"
#include "scenario/runner.hpp"

using namespace p2plab;

namespace {

std::optional<scenario::ScenarioSpec> shipped(const char* file) {
  scenario::ParseResult parsed = scenario::parse_scenario_file(
      std::string(P2PLAB_SCENARIO_DIR "/") + file);
  if (!parsed.spec) {
    std::fprintf(stderr, "%s: %s\n", file, parsed.error.c_str());
  }
  return std::move(parsed.spec);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Churn", "160-client swarm under crash/rejoin churn");
  std::optional<scenario::ScenarioSpec> churn = shipped("churn.scn");
  std::optional<scenario::ScenarioSpec> baseline_spec = shipped("fig8.scn");
  if (!churn || !baseline_spec) return 2;
  const std::size_t clients =
      bench::env_size("P2PLAB_CHURN_CLIENTS", churn->swarm.clients);
  const double churn_pct = static_cast<double>(bench::env_size(
      "P2PLAB_CHURN_PCT", static_cast<std::size_t>(std::llround(
                              churn->faults.churn.fraction * 100))));
  const bool run_baseline =
      bench::env_size("P2PLAB_CHURN_BASELINE", 1) != 0;
  const std::size_t shards = bench::shards(argc, argv);
  const bool profile = bench::profile_enabled(argc, argv);

  int failures = 0;
  double baseline_median = -1.0;
  if (run_baseline) {
    // The clean reference: the fig8 swarm at the same size, no outputs
    // (only its median completion time is read).
    scenario::ScenarioSpec& spec = *baseline_spec;
    spec.outputs = {};
    spec.swarm.clients = clients;
    spec.engine.shards = shards;
    spec.engine.profile = profile;
    scenario::ExperimentRunner baseline(std::move(spec));
    baseline.setup();
    baseline.execute();
    baseline_median = baseline.median_completion_sec();
    const bool ok = baseline.swarm().all_complete();
    std::printf("# check %-46s %s\n", "baseline: all clients complete",
                ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }

  scenario::ScenarioSpec& spec = *churn;
  spec.swarm.clients = clients;
  spec.faults.churn.fraction = churn_pct / 100.0;
  spec.engine.shards = shards;
  spec.engine.profile = profile;
  scenario::ExperimentRunner runner(std::move(spec));
  runner.set_baseline_median(baseline_median);
  failures += runner.run();
  return failures == 0 ? 0 : 1;
}
