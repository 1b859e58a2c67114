#include "scenario/runner.hpp"

#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "core/bench_report.hpp"

namespace p2plab::scenario {

ExperimentRunner::ExperimentRunner(ScenarioSpec spec)
    : spec_(std::move(spec)) {}

ExperimentRunner::~ExperimentRunner() = default;

void ExperimentRunner::setup() {
  P2PLAB_ASSERT(!set_up_);
  set_up_ = true;

  plugin_ = &WorkloadRegistry::instance().require(spec_.workload);
  const std::size_t shards = spec_.effective_shards();
  if (plugin_->classic_only() && spec_.engine.shards > 0) {
    std::printf("# %s workload drives the classic engine; ignoring "
                "shards=%zu\n", plugin_->name(), spec_.engine.shards);
  }
  const topology::Topology topo =
      spec_.topology.built
          ? *spec_.topology.built
          : topology::homogeneous_dsl(spec_.vnodes(),
                                      spec_.topology.auto_link);
  core::PlatformConfig pc;
  pc.physical_nodes = spec_.resolved_physical_nodes();
  pc.seed = spec_.engine.seed;
  pc.shards = shards;
  pc.stream.transport = spec_.engine.transport == TransportModel::kTcp
                            ? sockets::TransportModel::kTcp
                            : sockets::TransportModel::kFlow;
  platform_ = std::make_unique<core::Platform>(topo, pc);
  if (spec_.engine.trace) platform_->enable_tracing();
  if (spec_.engine.profile) {
    platform_->enable_profiling();
    platform_->profiler().set_crash_filename(spec_.resolved_profile_trace());
  }

  workload_ = plugin_->create(spec_);
  workload_->setup(*this);
}

int ExperimentRunner::execute() {
  P2PLAB_ASSERT(set_up_);
  return workload_->execute(*this);
}

int ExperimentRunner::run() {
  setup();
  return execute();
}

void ExperimentRunner::write_profile_outputs() {
  if (!platform_->profiling()) return;
  // Fold first so the rollup shows up in the registry report and any
  // later metrics consumers; gauges are set, not added — idempotent.
  platform_->profiler().fold_into(registry_);
  platform_->flush_profile_to_results(
      spec_.resolved_profile_trace().c_str());
}

void ExperimentRunner::write_bench_json(
    double wall_seconds, const char* scale_key, double scale_value,
    const std::vector<std::pair<std::string, double>>& extra) {
  if (spec_.outputs.bench_json.empty()) return;
  std::vector<std::pair<std::string, double>> fields =
      core::bench_fields(*platform_, scale_key, scale_value,
                         spec_.engine.seed, wall_seconds);
  fields.insert(fields.end(), extra.begin(), extra.end());
  core::write_bench_json(spec_.name, spec_.outputs.bench_json, fields);
}

}  // namespace p2plab::scenario
