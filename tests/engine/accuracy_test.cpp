// The emulator-accuracy harness on the parallel engine: scenarios/
// accuracy.scn must run sharded at K = 1, 2 and 4, pass every invariant
// and measure the same values each time (the partition is invisible to
// results). Part of test_engine, so the ThreadSanitizer job covers the
// harness's cross-shard traffic too.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/parser.hpp"
#include "scenario/runner.hpp"
#include "scenario/validate.hpp"

namespace p2plab::scenario {
namespace {

std::vector<InvariantResult> run_accuracy(std::size_t shards) {
  ParseResult parsed = parse_scenario_file(
      std::string(P2PLAB_SOURCE_DIR) + "/scenarios/accuracy.scn",
      {"engine.shards=" + std::to_string(shards)});
  EXPECT_TRUE(parsed.spec) << parsed.error;
  if (!parsed.spec) return {};
  ExperimentRunner runner(std::move(*parsed.spec));
  runner.setup();
  EXPECT_EQ(runner.platform().shard_count(), shards);
  ValidateHarness harness(runner.platform(), runner.spec());
  return harness.run();
}

TEST(EngineDeterminism, AccuracyIsShardCountInvariant) {
  const std::vector<InvariantResult> k1 = run_accuracy(1);
  ASSERT_FALSE(k1.empty());
  for (const InvariantResult& r : k1) {
    EXPECT_TRUE(r.pass) << r.name << " measured " << r.measured
                        << ", expected " << r.expected << "  " << r.detail;
  }
  for (const std::size_t shards : {2u, 4u}) {
    const std::vector<InvariantResult> kn = run_accuracy(shards);
    ASSERT_EQ(kn.size(), k1.size()) << shards << " shards";
    for (std::size_t i = 0; i < k1.size(); ++i) {
      EXPECT_EQ(kn[i].name, k1[i].name) << shards << " shards";
      EXPECT_EQ(kn[i].measured, k1[i].measured)
          << k1[i].name << " at " << shards << " shards";
      EXPECT_EQ(kn[i].pass, k1[i].pass)
          << k1[i].name << " at " << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace p2plab::scenario
