// End-to-end ExperimentRunner tests on deliberately tiny swarms: a spec
// goes in, the experiment runs to its stop condition, and the run is
// deterministic — the same spec produces the same completion times whether
// it came from C++ or from DSL text, and on the classic or the sharded
// engine.
#include "scenario/runner.hpp"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/parser.hpp"

namespace p2plab::scenario {
namespace {

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.swarm.clients = 6;
  spec.swarm.seeders = 2;
  spec.swarm.file_size = DataSize::mib(1);
  spec.swarm.start_interval = Duration::sec(1);
  return spec;
}

std::vector<double> completion_times(ExperimentRunner& runner) {
  return runner.swarm().completion_times_sec();
}

TEST(ExperimentRunner, TinySwarmRunsToCompletion) {
  ExperimentRunner runner(tiny_spec());
  EXPECT_EQ(runner.run(), 0);
  EXPECT_TRUE(runner.swarm().all_complete());
  EXPECT_GT(runner.median_completion_sec(), 0.0);
}

TEST(ExperimentRunner, DslAndCatalogSpecsProduceIdenticalRuns) {
  ExperimentRunner from_cpp(tiny_spec());
  ASSERT_EQ(from_cpp.run(), 0);

  ParseResult parsed = parse_scenario(
      "scenario tiny\n"
      "[workload]\n"
      "type swarm\n"
      "clients 6\n"
      "seeders 2\n"
      "file_size 1M\n"
      "start_interval 1\n",
      {});
  ASSERT_TRUE(parsed.spec) << parsed.error;
  ExperimentRunner from_dsl(std::move(*parsed.spec));
  ASSERT_EQ(from_dsl.run(), 0);

  EXPECT_EQ(completion_times(from_cpp), completion_times(from_dsl));
}

TEST(ExperimentRunner, ShardedRunMatchesClassic) {
  ExperimentRunner classic(tiny_spec());
  ASSERT_EQ(classic.run(), 0);

  ScenarioSpec sharded_spec = tiny_spec();
  sharded_spec.engine.shards = 2;
  ExperimentRunner sharded(std::move(sharded_spec));
  ASSERT_EQ(sharded.run(), 0);

  EXPECT_EQ(completion_times(classic), completion_times(sharded));
}

TEST(ExperimentRunner, StopTimeEndsEarly) {
  ScenarioSpec spec = tiny_spec();
  spec.engine.stop = StopMode::kTime;
  spec.engine.run_for = Duration::sec(5);
  ExperimentRunner runner(std::move(spec));
  EXPECT_EQ(runner.run(), 0);
  EXPECT_FALSE(runner.swarm().all_complete());
  EXPECT_LE(runner.platform().sim().now().to_seconds(), 6.0);
}

TEST(ExperimentRunner, ChurnDirectiveInjectsAndRecovers) {
  ScenarioSpec spec = tiny_spec();
  spec.swarm.clients = 8;
  spec.faults.churn.enabled = true;
  spec.faults.churn.fraction = 0.25;
  spec.faults.churn.window_start = Duration::sec(5);
  spec.faults.churn.window_end = Duration::sec(30);
  spec.faults.churn.rejoin_fraction = 1.0;  // everyone comes back
  spec.faults.churn.rejoin_min = Duration::sec(5);
  spec.faults.churn.rejoin_max = Duration::sec(10);
  spec.engine.stop = StopMode::kSurvivorsComplete;
  spec.engine.check_invariants = true;
  ExperimentRunner runner(std::move(spec));
  EXPECT_EQ(runner.run(), 0);  // invariant checks pass
}

ScenarioSpec shipped(const char* file, std::vector<std::string> overrides) {
  ParseResult parsed = parse_scenario_file(
      std::string(P2PLAB_SOURCE_DIR) + "/scenarios/" + file, overrides);
  EXPECT_TRUE(parsed.spec) << parsed.error;
  return parsed.spec ? std::move(*parsed.spec) : ScenarioSpec{};
}

// With 16 clients the survivors finish before the churn window closes, so
// a crash-and-rejoin fires after the drain check has stopped every client.
// The rejoin used to restart the client, whose announce retries and
// periodic tasks then kept the queue from ever draining.
TEST(ExperimentRunner, ChurnDrainsWhenRejoinFiresAfterStop) {
  ExperimentRunner runner(shipped(
      "churn.scn", {"engine.transport=tcp", "workload.clients=16"}));
  EXPECT_EQ(runner.run(), 0);  // includes "event queue drains after stop"
}

// 195 members join over 39 s, into the 30-90 s churn window: some victims
// crash before their join slot and later rejoin.
TEST(ExperimentRunner, GossipSurvivesCrashBeforeJoinAtScale) {
  ExperimentRunner runner(shipped("gossip.scn", {"workload.nodes=195"}));
  EXPECT_EQ(runner.run(), 0);
}

TEST(ExperimentRunner, PingSweepProducesRttCurve) {
  ScenarioSpec spec;
  spec.name = "mini_ping";
  spec.workload = "ping_sweep";
  spec.ping.rules_max = 1000;
  spec.ping.rules_step = 500;
  spec.ping.probes = 2;
  ExperimentRunner runner(std::move(spec));
  EXPECT_EQ(runner.run(), 0);
}

}  // namespace
}  // namespace p2plab::scenario
