// Scenario-DSL parser tests: golden error messages (with line numbers —
// the DSL's main UX surface), --set override semantics, unit parsing, and
// the shipped scenarios: every scenarios/*.scn must parse and declare at
// least one output, and each figure's file must keep the setup catalogued
// here for it.
#include "scenario/parser.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "topology/parser.hpp"

namespace p2plab::scenario {
namespace {

ScenarioSpec parse_ok(const std::string& text,
                      const std::vector<std::string>& overrides = {}) {
  ParseOptions options;
  options.overrides = overrides;
  ParseResult result = parse_scenario(text, options);
  EXPECT_TRUE(result.spec) << result.error;
  return result.spec ? *result.spec : ScenarioSpec{};
}

std::string parse_error(const std::string& text,
                        const std::vector<std::string>& overrides = {}) {
  ParseOptions options;
  options.overrides = overrides;
  ParseResult result = parse_scenario(text, options);
  EXPECT_FALSE(result.spec) << "expected a parse error";
  return result.error;
}

TEST(ScenarioParser, MinimalSwarmDefaults) {
  const ScenarioSpec spec = parse_ok(
      "scenario tiny\n"
      "[workload]\n"
      "type swarm\n"
      "clients 8\n");
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.workload, "swarm");
  EXPECT_EQ(spec.swarm.clients, 8u);
  EXPECT_EQ(spec.swarm.seeders, 4u);  // SwarmConfig defaults survive
  EXPECT_EQ(spec.swarm.file_size.count_bytes(), DataSize::mib(16).count_bytes());
  EXPECT_EQ(spec.vnodes(), 13u);  // tracker + 4 seeders + 8 clients
  EXPECT_EQ(spec.engine.shards, 0u);
  EXPECT_TRUE(spec.faults.empty());
  EXPECT_TRUE(spec.declared_outputs().empty());
}

TEST(ScenarioParser, CommentsBlankLinesAndQuotedValues) {
  const ScenarioSpec spec = parse_ok(
      "# a comment\n"
      "scenario quoted\n"
      "\n"
      "[workload]\n"
      "type swarm            # trailing comment\n"
      "clients 4\n"
      "[outputs]\n"
      "completions done\n"
      "completions_note \"a note, with spaces # not a comment\"\n");
  EXPECT_EQ(spec.outputs.completions, "done");
  EXPECT_EQ(spec.outputs.completions_note,
            "a note, with spaces # not a comment");
}

TEST(ScenarioParser, SizesAndDurations) {
  const ScenarioSpec spec = parse_ok(
      "scenario units\n"
      "[workload]\n"
      "type swarm\n"
      "clients 4\n"
      "file_size 4M\n"
      "piece_length 64k\n"
      "start_interval 250ms\n"
      "max_duration 8000\n");
  EXPECT_EQ(spec.swarm.file_size.count_bytes(), DataSize::mib(4).count_bytes());
  EXPECT_EQ(spec.swarm.piece_length.count_bytes(),
            DataSize::kib(64).count_bytes());
  EXPECT_EQ(spec.swarm.start_interval, Duration::millis(250));
  EXPECT_EQ(spec.swarm.max_duration, Duration::sec(8000));  // bare = seconds
}

TEST(ScenarioParser, ParseDataSizeUnits) {
  EXPECT_EQ(parse_data_size("100")->count_bytes(), 100u);
  EXPECT_EQ(parse_data_size("256k")->count_bytes(), 256u * 1024);
  EXPECT_EQ(parse_data_size("256K")->count_bytes(), 256u * 1024);
  EXPECT_EQ(parse_data_size("16M")->count_bytes(), 16u * 1024 * 1024);
  EXPECT_EQ(parse_data_size("1G")->count_bytes(), 1024u * 1024 * 1024);
  EXPECT_FALSE(parse_data_size("0"));    // sizes must be positive
  EXPECT_FALSE(parse_data_size(""));
  EXPECT_FALSE(parse_data_size("12T"));  // unknown suffix
  EXPECT_FALSE(parse_data_size("bogus"));
}

// -- validate workload (the accuracy harness) -----------------------------

TEST(ScenarioParserValidate, AllKeysParse) {
  const ScenarioSpec spec = parse_ok(
      "scenario acc\n"
      "[workload]\n"
      "type validate\n"
      "nodes 6\n"
      "flows 3\n"
      "transfer 4M\n"
      "message 32k\n"
      "loss_datagrams 5000\n"
      "ge_p_good_bad 0.05\n"
      "ge_p_bad_good 0.5\n"
      "ge_loss_bad 0.8\n"
      "goodput_tolerance 0.2\n"
      "rtt_tolerance 0.15\n"
      "loss_tolerance 0.3\n"
      "jain_min 0.9\n"
      "[engine]\n"
      "transport tcp\n"
      "[outputs]\n"
      "accuracy_json ACC\n");
  EXPECT_EQ(spec.workload, "validate");
  EXPECT_EQ(spec.validate.nodes, 6u);
  EXPECT_EQ(spec.validate.flows, 3u);
  EXPECT_EQ(spec.validate.transfer.count_bytes(),
            DataSize::mib(4).count_bytes());
  EXPECT_EQ(spec.validate.message.count_bytes(),
            DataSize::kib(32).count_bytes());
  EXPECT_EQ(spec.validate.loss_datagrams, 5000u);
  EXPECT_DOUBLE_EQ(spec.validate.ge_p_good_bad, 0.05);
  EXPECT_DOUBLE_EQ(spec.validate.ge_p_bad_good, 0.5);
  EXPECT_DOUBLE_EQ(spec.validate.ge_loss_bad, 0.8);
  EXPECT_DOUBLE_EQ(spec.validate.goodput_tolerance, 0.2);
  EXPECT_DOUBLE_EQ(spec.validate.rtt_tolerance, 0.15);
  EXPECT_DOUBLE_EQ(spec.validate.loss_tolerance, 0.3);
  EXPECT_DOUBLE_EQ(spec.validate.jain_min, 0.9);
  EXPECT_EQ(spec.engine.transport, TransportModel::kTcp);
  EXPECT_EQ(spec.vnodes(), 6u);
  const std::vector<std::string> files = spec.declared_outputs();
  EXPECT_NE(std::find(files.begin(), files.end(), "ACC.json"), files.end());
}

TEST(ScenarioParserValidate, DefaultsAndFlowTransport) {
  const ScenarioSpec spec =
      parse_ok("scenario acc\n[workload]\ntype validate\n");
  EXPECT_EQ(spec.validate.nodes, 8u);
  EXPECT_EQ(spec.validate.flows, 4u);
  EXPECT_DOUBLE_EQ(spec.validate.goodput_tolerance, 0.12);
  EXPECT_DOUBLE_EQ(spec.validate.jain_min, 0.95);
  EXPECT_EQ(spec.engine.transport, TransportModel::kFlow);
  EXPECT_TRUE(spec.validate.expect_bandwidth.is_unlimited());
}

TEST(ScenarioParserValidate, ExpectBandwidthOverrideViaSet) {
  // The CI control case: a wrong bandwidth expectation injected by --set
  // must reach the spec so the harness can fail against it.
  const ScenarioSpec spec =
      parse_ok("scenario acc\n[workload]\ntype validate\n",
               {"workload.expect_bandwidth=8M"});
  EXPECT_FALSE(spec.validate.expect_bandwidth.is_unlimited());
  EXPECT_EQ(spec.validate.expect_bandwidth.count_bps(),
            Bandwidth::mbps(8).count_bps());
}

TEST(ScenarioParserValidate, NodesFloor) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type validate\n"
                        "nodes 2\n"),
            "line 4: validate needs nodes >= 3");
}

TEST(ScenarioParserValidate, FlowsNeedASinkBesidesTheSources) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type validate\n"
                        "nodes 4\n"
                        "flows 4\n"),
            "line 5: validate needs nodes > flows (a fairness sink besides "
            "the sources)");
}

TEST(ScenarioParserValidate, UnknownTransport) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type validate\n"
                        "[engine]\n"
                        "transport quic\n"),
            "line 5: unknown transport 'quic' (tcp|flow)");
}

TEST(ScenarioParserValidate, ValidateKeyInSwarmWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "jain_min 0.9\n"),
            "line 4: key 'jain_min' is not valid for workload type swarm");
}

TEST(ScenarioParserGossip, GossipKeysParse) {
  const ScenarioSpec spec = parse_ok(
      "scenario g\n"
      "[workload]\n"
      "type gossip\n"
      "nodes 16\n"
      "period 500ms\n"
      "ping_timeout 150ms\n"
      "suspect_timeout 3\n"
      "indirect 2\n"
      "piggyback 6\n"
      "join_interval 100ms\n"
      "[engine]\n"
      "stop time\n"
      "run_for 60\n");
  EXPECT_EQ(spec.workload, "gossip");
  EXPECT_EQ(spec.gossip.nodes, 16u);
  EXPECT_EQ(spec.gossip.period, Duration::ms(500));
  EXPECT_EQ(spec.gossip.ping_timeout, Duration::ms(150));
  EXPECT_EQ(spec.gossip.suspect_timeout, Duration::sec(3));
  EXPECT_EQ(spec.gossip.indirect_k, 2u);
  EXPECT_EQ(spec.gossip.piggyback, 6u);
  EXPECT_EQ(spec.gossip.join_interval, Duration::ms(100));
  EXPECT_EQ(spec.vnodes(), 16u);
  EXPECT_EQ(spec.engine.stop, StopMode::kTime);
}

TEST(ScenarioParserGossip, UnknownWorkloadTypeEnumeratesRegistry) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type chord\n"),
            "line 3: unknown workload type 'chord' "
            "(expected gossip|ping_sweep|swarm|validate)");
}

TEST(ScenarioParserGossip, GossipKeyInSwarmWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "suspect_timeout 3\n"),
            "line 4: key 'suspect_timeout' is not valid for workload type "
            "swarm");
}

TEST(ScenarioParserGossip, SwarmKeyInGossipWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"
                        "clients 8\n"),
            "line 4: key 'clients' is not valid for workload type gossip");
}

TEST(ScenarioParserGossip, SwarmOutputInGossipWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"
                        "[engine]\n"
                        "stop time\n"
                        "run_for 60\n"
                        "[outputs]\n"
                        "completions done\n"),
            "line 8: key 'completions' is not valid for workload type "
            "gossip");
}

TEST(ScenarioParserGossip, GossipRequiresStopTime) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"
                        "[engine]\n"
                        "stop all_complete\n"),
            "line 5: gossip requires stop=time (membership has no "
            "completion; run_for bounds the experiment)");
}

TEST(ScenarioParserGossip, GossipDefaultStopRejected) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"),
            "[engine]: gossip requires stop=time (membership has no "
            "completion; run_for bounds the experiment)");
}

TEST(ScenarioParserGossip, SetOverrideBadDuration) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type gossip\n"
                        "[engine]\n"
                        "stop time\n"
                        "run_for 60\n",
                        {"workload.suspect_timeout=soon"}),
            "--set workload.suspect_timeout=soon: bad duration 'soon' for "
            "suspect_timeout");
}

TEST(ScenarioParserGossip, SetOverrideAppliesToGossip) {
  const ScenarioSpec spec = parse_ok(
      "scenario g\n"
      "[workload]\n"
      "type gossip\n"
      "nodes 32\n"
      "[engine]\n"
      "stop time\n"
      "run_for 60\n",
      {"workload.nodes=12", "workload.indirect=5"});
  EXPECT_EQ(spec.gossip.nodes, 12u);
  EXPECT_EQ(spec.gossip.indirect_k, 5u);
}

// -- golden errors --------------------------------------------------------

TEST(ScenarioParserErrors, SectionBeforeScenarioHeader) {
  EXPECT_EQ(parse_error("[workload]\ntype swarm\n"),
            "line 1: expected 'scenario <name>' before any section");
}

TEST(ScenarioParserErrors, UnknownSection) {
  EXPECT_EQ(parse_error("scenario x\n[warp]\n"),
            "line 2: unknown section [warp]");
}

TEST(ScenarioParserErrors, DuplicateSection) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\ntype swarm\n"
                        "[engine]\n"
                        "[workload]\n"),
            "line 5: duplicate section [workload]");
}

TEST(ScenarioParserErrors, UnknownKeyWithLineNumber) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "clientz 5\n"),
            "line 4: unknown key 'clientz' in [workload]");
}

TEST(ScenarioParserErrors, DuplicateKey) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "clients 5\n"
                        "clients 6\n"),
            "line 5: duplicate key 'clients' in [workload]");
}

TEST(ScenarioParserErrors, BadCountKeepsSourceLine) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "clients never\n"),
            "line 4: bad count 'never' for clients");
}

TEST(ScenarioParserErrors, BadTopologyIncludePath) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[topology]\n"
                        "include no/such/file.topo\n"),
            "line 5: include 'no/such/file.topo': cannot read file");
}

TEST(ScenarioParserErrors, ConflictingTopologySources) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[topology]\n"
                        "auto\n"
                        "node n0 10.0.0.1\n"),
            "line 5: [topology] cannot mix 'auto' with other topology "
            "sources");
}

TEST(ScenarioParserErrors, ConflictingFaultSources) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[faults]\n"
                        "include plan.fault\n"
                        "linkdown node=5 at=300 for=20\n"),
            "line 5: [faults] cannot mix 'include' with inline directives");
}

TEST(ScenarioParserErrors, ChurnNeedsWindow) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[faults]\n"
                        "churn fraction=0.3\n"),
            "line 5: churn needs window=START..END");
}

TEST(ScenarioParserErrors, StopTimeRequiresRunFor) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "stop time\n"),
            "line 5: stop=time requires run_for");
}

TEST(ScenarioParserErrors, FoldAndPhysicalNodesConflict) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "physical_nodes 6\n"
                        "fold 32\n"),
            "line 6: fold and physical_nodes are mutually exclusive");
}

TEST(ScenarioParserErrors, PingKeyInSwarmWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "rules_max 1000\n"),
            "line 4: key 'rules_max' is not valid for workload type swarm");
}

TEST(ScenarioParserErrors, SwarmOutputInPingWorkload) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type ping_sweep\n"
                        "[outputs]\n"
                        "completions done\n"),
            "line 5: key 'completions' is not valid for workload type "
            "ping_sweep");
}

TEST(ScenarioParserErrors, FaultsRequireSwarm) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type ping_sweep\n"
                        "[faults]\n"
                        "tracker_outage at=100 for=10\n"),
            "line 5: [faults] requires workload type gossip or swarm");
}

TEST(ScenarioParserErrors, UnterminatedQuote) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[outputs]\n"
                        "completions_note \"oops\n"),
            "line 5: unterminated quote");
}

// -- profiling keys -------------------------------------------------------

TEST(ScenarioParserProfile, ProfileKeyParses) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "[engine]\n"
      "profile on\n");
  EXPECT_TRUE(spec.engine.profile);
  EXPECT_EQ(spec.resolved_profile_trace(), "profile.json");
}

TEST(ScenarioParserProfile, OffByDefaultAndUndeclared) {
  const ScenarioSpec spec =
      parse_ok("scenario x\n[workload]\ntype swarm\n");
  EXPECT_FALSE(spec.engine.profile);
  EXPECT_EQ(spec.resolved_profile_trace(), "");
  for (const std::string& file : spec.declared_outputs()) {
    EXPECT_EQ(file.find("profile"), std::string::npos) << file;
  }
}

TEST(ScenarioParserProfile, ProfileTraceOutputImpliesProfiling) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n"
      "[workload]\n"
      "type swarm\n"
      "[outputs]\n"
      "profile_trace fig_profile.json\n");
  EXPECT_TRUE(spec.engine.profile);
  EXPECT_EQ(spec.resolved_profile_trace(), "fig_profile.json");
  const std::vector<std::string> files = spec.declared_outputs();
  EXPECT_NE(std::find(files.begin(), files.end(), "fig_profile.json"),
            files.end());
}

TEST(ScenarioParserProfile, BadProfileValue) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "profile maybe\n"),
            "line 5: bad value 'maybe' for profile (expected on|off)");
}

// -- engine key list ------------------------------------------------------

TEST(ScenarioParserScaling, UnknownEngineKeyEnumeratesTheKeyList) {
  // The error must enumerate every accepted key from the same single
  // source --list-workloads prints.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "warp 9\n"),
            "line 5: unknown key 'warp' in [engine] (expected " +
                engine_keys() + ")");
  EXPECT_EQ(engine_keys(),
            "shards|transport|physical_nodes|fold|seed|stop|run_for|"
            "check_invariants|trace|profile");
}

TEST(ScenarioParserScaling, RemovedOverrideKeysAreUnknown) {
  // Pinning, the barrier wait and the partition are chosen from the
  // affinity mask and the topology, and windows are always the fixed
  // lookahead grid: the keys that once overrode them are plain unknown
  // keys, in the file and through --set.
  for (const std::string line : {"window adaptive", "partition stripe",
                                 "barrier spin", "pin off"}) {
    const std::string key = line.substr(0, line.find(' '));
    EXPECT_EQ(parse_error("scenario x\n"
                          "[workload]\n"
                          "type swarm\n"
                          "[engine]\n" +
                          line + "\n"),
              "line 5: unknown key '" + key + "' in [engine] (expected " +
                  engine_keys() + ")");
  }
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"engine.window=adaptive"}),
            "--set engine.window=adaptive: unknown key 'window' in [engine] "
            "(expected " + engine_keys() + ")");
}

// The barrier, window and partition keys are gone; these goldens keep the
// inputs their value checks were written for and pin that each is now
// refused by key, not by value.

std::string unknown_engine_key(const std::string& where,
                               const std::string& key) {
  return where + ": unknown key '" + key + "' in [engine] (expected " +
         engine_keys() + ")";
}

TEST(ScenarioParserScaling, BarrierWindowPartitionParse) {
  // A file still carrying all three overrides stops at the first.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "barrier spin\n"
                        "window adaptive\n"
                        "partition stripe\n"),
            unknown_engine_key("line 5", "barrier"));
}

TEST(ScenarioParserScaling, BlockBarrierParses) {
  // The keys around it still parse; the error points at the barrier line.
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "shards 2\n"
                        "barrier block\n"),
            unknown_engine_key("line 6", "barrier"));
  const ScenarioSpec spec = parse_ok(
      "scenario x\n[workload]\ntype swarm\n[engine]\nshards 2\n");
  EXPECT_EQ(spec.engine.shards, 2u);
}

TEST(ScenarioParserScaling, BadBarrierValue) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "barrier busywait\n"),
            unknown_engine_key("line 5", "barrier"));
}

TEST(ScenarioParserScaling, BadWindowValue) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "window huge\n"),
            unknown_engine_key("line 5", "window"));
}

TEST(ScenarioParserScaling, BadPartitionValue) {
  EXPECT_EQ(parse_error("scenario x\n"
                        "[workload]\n"
                        "type swarm\n"
                        "[engine]\n"
                        "partition random\n"),
            unknown_engine_key("line 5", "partition"));
}

TEST(ScenarioParserScaling, SetOverridesReachScalingKeys) {
  // The scaling keys that remain (shard count and the physical cluster,
  // by size or by folding ratio) are all reachable through --set.
  const ScenarioSpec folded = parse_ok(
      "scenario x\n[workload]\ntype swarm\nclients 64\n",
      {"engine.shards=4", "engine.fold=16"});
  EXPECT_EQ(folded.engine.shards, 4u);
  EXPECT_EQ(folded.engine.fold, std::optional<std::size_t>{16});
  EXPECT_EQ(folded.resolved_physical_nodes(), 5u);  // ceil(69 / 16)
  const ScenarioSpec sized = parse_ok(
      "scenario x\n[workload]\ntype swarm\nclients 64\n",
      {"engine.physical_nodes=8"});
  EXPECT_EQ(sized.engine.physical_nodes, std::optional<std::size_t>{8});
  EXPECT_EQ(sized.resolved_physical_nodes(), 8u);
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"engine.partition=stripe"}),
            unknown_engine_key("--set engine.partition=stripe", "partition"));
}

// -- --set overrides ------------------------------------------------------

TEST(ScenarioParserOverrides, SetRewritesValue) {
  const ScenarioSpec spec = parse_ok(
      "scenario x\n[workload]\ntype swarm\nclients 160\n",
      {"workload.clients=8", "engine.shards=2"});
  EXPECT_EQ(spec.swarm.clients, 8u);
  EXPECT_EQ(spec.engine.shards, 2u);
}

TEST(ScenarioParserOverrides, MalformedSet) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"workload.clients"}),
            "--set workload.clients: expected section.key=value");
}

TEST(ScenarioParserOverrides, UnknownSectionInSet) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"warp.speed=9"}),
            "--set warp.speed=9: unknown section 'warp'");
}

TEST(ScenarioParserOverrides, UnknownKeyInSetKeepsSetSource) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"workload.clientz=5"}),
            "--set workload.clientz=5: unknown key 'clientz' in [workload]");
}

TEST(ScenarioParserOverrides, BadValueInSetKeepsSetSource) {
  EXPECT_EQ(parse_error("scenario x\n[workload]\ntype swarm\n",
                        {"workload.clients=lots"}),
            "--set workload.clients=lots: bad count 'lots' for clients");
}

// -- shipped scenarios ----------------------------------------------------

TEST(ShippedScenarios, EveryFileParses) {
  // A .scn file is the only definition of a shipped experiment, so each
  // one must parse and write something; a new file is covered on arrival.
  const std::filesystem::path dir =
      std::filesystem::path(P2PLAB_SOURCE_DIR) / "scenarios";
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    ++files;
    const ParseResult result = parse_scenario_file(entry.path().string());
    ASSERT_TRUE(result.spec) << entry.path() << ": " << result.error;
    EXPECT_FALSE(result.spec->declared_outputs().empty()) << entry.path();
  }
  EXPECT_GE(files, 1u);
}

// The catalog below writes each shipped experiment's setup out in C++,
// independently of its .scn file, from the paper's description of the
// figure. The fig9 and churn benches build their runs from fig8.scn and
// churn.scn, so an edit to a scenario file that changes what a figure
// measures must be made here as well, on purpose.

namespace catalog {

ScenarioSpec fig6() {
  ScenarioSpec spec;
  spec.name = "fig6";
  spec.workload = "ping_sweep";
  spec.outputs.csv = "fig6_ipfw_rules";
  spec.outputs.csv_note =
      "paper: ~linear, reaching ~5 ms RTT at 50k rules "
      "(2 traversals x 50 ns/rule)";
  spec.outputs.bench_json = "BENCH_fig6";
  spec.outputs.report = true;
  return spec;
}

ScenarioSpec fig8() {
  ScenarioSpec spec;
  spec.name = "fig8";
  spec.swarm.clients = 160;  // everything else: the paper's defaults
  spec.outputs.progress_envelope = "fig8_progress_envelope";
  spec.outputs.completions = "fig8_completion_times";
  spec.outputs.completions_note =
      "paper: three swarm phases visible; completions cluster ~1500-2000 s";
  spec.outputs.bench_json = "BENCH_fig8";
  spec.outputs.metrics = "fig8_metrics";
  return spec;
}

ScenarioSpec fig10() {
  ScenarioSpec spec;
  spec.name = "fig10";
  spec.swarm.clients = 1440;
  spec.swarm.start_interval = Duration::millis(250);
  spec.swarm.max_duration = Duration::sec(30000);
  spec.engine.fold = 32;  // the paper's 32 vnodes per pnode
  spec.outputs.sampled_progress = "fig10_sampled_progress";
  spec.outputs.sampled_every = 50;
  spec.outputs.completion_curve = "fig11_completion_curve";
  spec.outputs.completion_curve_note =
      "paper: S-curve; most of the swarm completes together";
  spec.outputs.bench_json = "BENCH_fig10";
  spec.outputs.metrics = "fig10_metrics";
  return spec;
}

ScenarioSpec churn() {
  ScenarioSpec spec;
  spec.name = "churn";
  spec.swarm.clients = 160;
  spec.faults.churn.enabled = true;
  spec.faults.churn.fraction = 0.3;
  spec.faults.churn.window_start = Duration::sec(200);
  spec.faults.churn.window_end = Duration::sec(1200);
  // rejoin 0.5 in 30..120 s: the ChurnDirective defaults. Tracker outage
  // plus link faults on three never-crashed clients; client c lives on
  // vnode first + c (Swarm's layout contract).
  const std::size_t first = 1 + spec.swarm.seeders;
  spec.faults.plan.tracker_outage(SimTime::zero() + Duration::sec(400),
                                  Duration::sec(120));
  spec.faults.plan.link_down(first, SimTime::zero() + Duration::sec(300),
                             Duration::sec(20));
  spec.faults.plan.burst_loss(first + 1, SimTime::zero() + Duration::sec(500),
                              Duration::sec(60),
                              ipfw::GilbertElliott{.p_good_to_bad = 0.02,
                                                   .p_bad_to_good = 0.3,
                                                   .loss_bad = 0.7});
  spec.faults.plan.latency_spike(first + 2,
                                 SimTime::zero() + Duration::sec(600),
                                 Duration::ms(200), Duration::sec(60));
  spec.faults.plan.sort();  // the parser keeps faults in time order
  spec.engine.stop = StopMode::kSurvivorsComplete;
  spec.engine.check_invariants = true;
  spec.engine.trace = true;
  spec.outputs.summary = "churn_summary";
  spec.outputs.bench_json = "BENCH_churn";
  spec.outputs.metrics = "churn_metrics";
  spec.outputs.trace_file = "trace.jsonl";
  return spec;
}

ScenarioSpec flash_crowd() {
  ScenarioSpec spec;
  spec.name = "flashcrowd";
  spec.swarm.clients = 256;
  spec.swarm.seeders = 2;
  spec.swarm.file_size = DataSize::mib(4);
  spec.swarm.start_interval = Duration::millis(250);
  spec.swarm.max_duration = Duration::sec(8000);
  spec.engine.fold = 32;
  spec.faults.plan.tracker_outage(SimTime::zero() + Duration::sec(60),
                                  Duration::sec(60));
  spec.outputs.progress_envelope = "flashcrowd_progress_envelope";
  spec.outputs.completion_curve = "flashcrowd_completion_curve";
  spec.outputs.bench_json = "BENCH_flashcrowd";
  spec.outputs.metrics = "flashcrowd_metrics";
  return spec;
}

ScenarioSpec gossip() {
  ScenarioSpec spec;
  spec.name = "gossip";
  spec.workload = "gossip";
  spec.gossip.nodes = 48;
  // A quarter of the members (never the introducer) fails inside 30..90 s;
  // half come back after 20-40 s down. Two bursty-loss windows on other
  // members exercise indirect probes and suspicion.
  spec.faults.churn.enabled = true;
  spec.faults.churn.fraction = 0.25;
  spec.faults.churn.window_start = Duration::sec(30);
  spec.faults.churn.window_end = Duration::sec(90);
  spec.faults.churn.rejoin_fraction = 0.5;
  spec.faults.churn.rejoin_min = Duration::sec(20);
  spec.faults.churn.rejoin_max = Duration::sec(40);
  const ipfw::GilbertElliott burst{
      .p_good_to_bad = 0.05, .p_bad_to_good = 0.3, .loss_bad = 0.8};
  spec.faults.plan.burst_loss(2, SimTime::zero() + Duration::sec(40),
                              Duration::sec(20), burst);
  spec.faults.plan.burst_loss(3, SimTime::zero() + Duration::sec(100),
                              Duration::sec(20), burst);
  spec.faults.plan.sort();
  spec.engine.stop = StopMode::kTime;
  spec.engine.run_for = Duration::sec(180);
  spec.engine.check_invariants = true;
  spec.outputs.detection_csv = "gossip_detection";
  spec.outputs.fp_summary = "gossip_fp_summary";
  spec.outputs.bench_json = "BENCH_gossip";
  return spec;
}

ScenarioSpec accuracy() {
  ScenarioSpec spec;
  spec.name = "accuracy";
  spec.workload = "validate";
  // Through the topology-DSL parser the .scn file's block goes through,
  // so the comparison is over link values, not link parsing.
  auto topo = topology::parse_topology(
      "zone senders 10.1.0.0/24 nodes=4 down=8M up=2M latency=20ms\n"
      "zone sink    10.2.0.0/24 nodes=2 down=2M up=2M latency=30ms\n"
      "zone far     10.3.0.0/24 nodes=4 down=2M up=512k latency=40ms\n"
      "latency senders sink 100ms\n"
      "latency senders far 400ms\n"
      "latency sink far 200ms\n");
  EXPECT_TRUE(topo.topology.has_value()) << topo.error;
  spec.topology.source = TopologySource::kInline;
  if (topo.topology) spec.topology.built = std::move(*topo.topology);
  spec.validate.nodes = 10;
  spec.validate.flows = 4;
  spec.validate.transfer = DataSize::mib(2);
  spec.validate.message = DataSize::kib(16);
  spec.validate.loss_datagrams = 20000;
  spec.engine.transport = TransportModel::kTcp;
  spec.outputs.accuracy_json = "ACCURACY";
  spec.outputs.bench_json = "BENCH_accuracy";
  return spec;
}

}  // namespace catalog

void expect_same_plan(const fault::FaultPlan& a, const fault::FaultPlan& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const fault::FaultSpec& x = a.specs()[i];
    const fault::FaultSpec& y = b.specs()[i];
    EXPECT_EQ(x.kind, y.kind) << "fault " << i;
    EXPECT_EQ(x.node, y.node) << "fault " << i;
    EXPECT_EQ(x.at, y.at) << "fault " << i;
    EXPECT_EQ(x.duration, y.duration) << "fault " << i;
    EXPECT_EQ(x.rejoin, y.rejoin) << "fault " << i;
    EXPECT_EQ(x.extra_latency, y.extra_latency) << "fault " << i;
  }
}

void expect_equivalent(const ScenarioSpec& parsed, const ScenarioSpec& built) {
  EXPECT_EQ(parsed.name, built.name);
  EXPECT_EQ(parsed.workload, built.workload);
  EXPECT_EQ(parsed.swarm.clients, built.swarm.clients);
  EXPECT_EQ(parsed.swarm.seeders, built.swarm.seeders);
  EXPECT_EQ(parsed.swarm.file_size.count_bytes(),
            built.swarm.file_size.count_bytes());
  EXPECT_EQ(parsed.swarm.piece_length.count_bytes(),
            built.swarm.piece_length.count_bytes());
  EXPECT_EQ(parsed.swarm.start_interval, built.swarm.start_interval);
  EXPECT_EQ(parsed.swarm.content_seed, built.swarm.content_seed);
  EXPECT_EQ(parsed.swarm.max_duration, built.swarm.max_duration);
  EXPECT_EQ(parsed.ping.nodes, built.ping.nodes);
  EXPECT_EQ(parsed.ping.rules_max, built.ping.rules_max);
  EXPECT_EQ(parsed.ping.rules_step, built.ping.rules_step);
  EXPECT_EQ(parsed.ping.probes, built.ping.probes);
  EXPECT_EQ(parsed.validate.nodes, built.validate.nodes);
  EXPECT_EQ(parsed.validate.flows, built.validate.flows);
  EXPECT_EQ(parsed.validate.transfer.count_bytes(),
            built.validate.transfer.count_bytes());
  EXPECT_EQ(parsed.validate.message.count_bytes(),
            built.validate.message.count_bytes());
  EXPECT_EQ(parsed.validate.loss_datagrams, built.validate.loss_datagrams);
  EXPECT_EQ(parsed.validate.ge_p_good_bad, built.validate.ge_p_good_bad);
  EXPECT_EQ(parsed.validate.ge_p_bad_good, built.validate.ge_p_bad_good);
  EXPECT_EQ(parsed.validate.ge_loss_bad, built.validate.ge_loss_bad);
  EXPECT_EQ(parsed.validate.goodput_tolerance,
            built.validate.goodput_tolerance);
  EXPECT_EQ(parsed.validate.rtt_tolerance, built.validate.rtt_tolerance);
  EXPECT_EQ(parsed.validate.loss_tolerance, built.validate.loss_tolerance);
  EXPECT_EQ(parsed.validate.jain_min, built.validate.jain_min);
  EXPECT_EQ(parsed.validate.expect_bandwidth, built.validate.expect_bandwidth);
  EXPECT_EQ(parsed.gossip.nodes, built.gossip.nodes);
  EXPECT_EQ(parsed.gossip.period, built.gossip.period);
  EXPECT_EQ(parsed.gossip.ping_timeout, built.gossip.ping_timeout);
  EXPECT_EQ(parsed.gossip.suspect_timeout, built.gossip.suspect_timeout);
  EXPECT_EQ(parsed.gossip.indirect_k, built.gossip.indirect_k);
  EXPECT_EQ(parsed.gossip.piggyback, built.gossip.piggyback);
  EXPECT_EQ(parsed.gossip.join_interval, built.gossip.join_interval);
  EXPECT_EQ(parsed.engine.transport, built.engine.transport);
  EXPECT_EQ(parsed.engine.shards, built.engine.shards);
  EXPECT_EQ(parsed.engine.physical_nodes, built.engine.physical_nodes);
  EXPECT_EQ(parsed.engine.fold, built.engine.fold);
  EXPECT_EQ(parsed.engine.seed, built.engine.seed);
  EXPECT_EQ(parsed.engine.stop, built.engine.stop);
  EXPECT_EQ(parsed.engine.run_for, built.engine.run_for);
  EXPECT_EQ(parsed.engine.check_invariants, built.engine.check_invariants);
  EXPECT_EQ(parsed.engine.trace, built.engine.trace);
  EXPECT_EQ(parsed.engine.profile, built.engine.profile);
  EXPECT_EQ(parsed.resolved_physical_nodes(), built.resolved_physical_nodes());
  EXPECT_EQ(parsed.faults.churn.enabled, built.faults.churn.enabled);
  EXPECT_EQ(parsed.faults.churn.fraction, built.faults.churn.fraction);
  EXPECT_EQ(parsed.faults.churn.window_start, built.faults.churn.window_start);
  EXPECT_EQ(parsed.faults.churn.window_end, built.faults.churn.window_end);
  EXPECT_EQ(parsed.faults.churn.rejoin_fraction,
            built.faults.churn.rejoin_fraction);
  EXPECT_EQ(parsed.faults.churn.rejoin_min, built.faults.churn.rejoin_min);
  EXPECT_EQ(parsed.faults.churn.rejoin_max, built.faults.churn.rejoin_max);
  EXPECT_EQ(parsed.faults.churn.rng_stream, built.faults.churn.rng_stream);
  expect_same_plan(parsed.faults.plan, built.faults.plan);
  EXPECT_EQ(parsed.declared_outputs(), built.declared_outputs());
  EXPECT_EQ(parsed.outputs.completions_note, built.outputs.completions_note);
  EXPECT_EQ(parsed.outputs.completion_curve_note,
            built.outputs.completion_curve_note);
  EXPECT_EQ(parsed.outputs.csv_note, built.outputs.csv_note);
  EXPECT_EQ(parsed.outputs.sampled_every, built.outputs.sampled_every);
  EXPECT_EQ(parsed.outputs.grid, built.outputs.grid);
  EXPECT_EQ(parsed.outputs.report, built.outputs.report);
}

ScenarioSpec parse_shipped(const char* file) {
  const std::string path =
      std::string(P2PLAB_SOURCE_DIR) + "/scenarios/" + file;
  ParseResult result = parse_scenario_file(path, {});
  EXPECT_TRUE(result.spec) << path << ": " << result.error;
  return result.spec ? *result.spec : ScenarioSpec{};
}

TEST(ShippedScenarios, Fig6MatchesCatalog) {
  expect_equivalent(parse_shipped("fig6.scn"), catalog::fig6());
}

TEST(ShippedScenarios, Fig8MatchesCatalog) {
  expect_equivalent(parse_shipped("fig8.scn"), catalog::fig8());
}

TEST(ShippedScenarios, Fig10MatchesCatalog) {
  expect_equivalent(parse_shipped("fig10.scn"), catalog::fig10());
}

TEST(ShippedScenarios, ChurnMatchesCatalog) {
  expect_equivalent(parse_shipped("churn.scn"), catalog::churn());
}

TEST(ShippedScenarios, FlashCrowdParses) {
  expect_equivalent(parse_shipped("flashcrowd.scn"), catalog::flash_crowd());
}

TEST(ShippedScenarios, GossipMatchesCatalog) {
  expect_equivalent(parse_shipped("gossip.scn"), catalog::gossip());
}

TEST(ShippedScenarios, AccuracyMatchesCatalog) {
  const ScenarioSpec parsed = parse_shipped("accuracy.scn");
  const ScenarioSpec built = catalog::accuracy();
  expect_equivalent(parsed, built);
  // The accuracy harness derives its expectations from the inline
  // topology, so zone-level drift would silently change what the
  // invariants assert.
  ASSERT_EQ(parsed.topology.source, TopologySource::kInline);
  ASSERT_TRUE(parsed.topology.built.has_value());
  ASSERT_TRUE(built.topology.built.has_value());
  const topology::Topology& pt = *parsed.topology.built;
  const topology::Topology& ct = *built.topology.built;
  ASSERT_EQ(pt.zones().size(), ct.zones().size());
  for (std::size_t z = 0; z < pt.zones().size(); ++z) {
    const topology::Zone& a = pt.zones()[z];
    const topology::Zone& b = ct.zones()[z];
    EXPECT_EQ(a.name, b.name) << "zone " << z;
    EXPECT_EQ(a.subnet.to_string(), b.subnet.to_string()) << "zone " << z;
    EXPECT_EQ(a.node_count, b.node_count) << "zone " << z;
    EXPECT_EQ(a.link.down, b.link.down) << "zone " << z;
    EXPECT_EQ(a.link.up, b.link.up) << "zone " << z;
    EXPECT_EQ(a.link.latency, b.link.latency) << "zone " << z;
    EXPECT_EQ(a.link.loss_rate, b.link.loss_rate) << "zone " << z;
  }
  ASSERT_EQ(pt.latencies().size(), ct.latencies().size());
  for (std::size_t i = 0; i < pt.latencies().size(); ++i) {
    EXPECT_EQ(pt.latencies()[i].a, ct.latencies()[i].a) << "latency " << i;
    EXPECT_EQ(pt.latencies()[i].b, ct.latencies()[i].b) << "latency " << i;
    EXPECT_EQ(pt.latencies()[i].latency, ct.latencies()[i].latency)
        << "latency " << i;
  }
}

}  // namespace
}  // namespace p2plab::scenario
