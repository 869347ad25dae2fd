#include "pamr/scenario/work_list.hpp"

#include <algorithm>
#include <memory>

#include "pamr/exp/instance_runner.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr {
namespace scenario {

bool resolve_suite_entries(const ScenarioRegistry& registry, std::string_view names,
                           std::int64_t seed, std::vector<SuiteEntry>& out,
                           std::string& error) {
  const auto entry_seed = [seed](const Scenario& scenario) {
    return seed >= 0 ? static_cast<std::uint64_t>(seed) : scenario.default_seed;
  };
  std::vector<SuiteEntry> entries;
  if (names == "all") {
    for (const Scenario& scenario : registry.scenarios()) {
      entries.push_back({&scenario, entry_seed(scenario)});
    }
  } else {
    for (const std::string& name : split(names, ',')) {
      const Scenario* scenario = registry.find(trim(name));
      if (scenario == nullptr) {
        error = registry.unknown_name_message(trim(name));
        return false;
      }
      entries.push_back({scenario, entry_seed(*scenario)});
    }
  }
  out = std::move(entries);
  error.clear();
  return true;
}

std::vector<SuiteUnit> enumerate_suite_units(const std::vector<SuiteEntry>& entries,
                                             std::int32_t instances, std::size_t chunk) {
  PAMR_CHECK(instances >= 1, "need at least one instance per point");
  PAMR_CHECK(chunk >= 1, "chunk must be positive");
  const auto count = static_cast<std::size_t>(instances);
  const std::size_t chunks_per_point = (count + chunk - 1) / chunk;

  std::vector<SuiteUnit> units;
  for (std::size_t s = 0; s < entries.size(); ++s) {
    PAMR_CHECK(entries[s].scenario != nullptr, "null scenario in suite batch");
    for (std::size_t p = 0; p < entries[s].scenario->points.size(); ++p) {
      for (std::size_t c = 0; c < chunks_per_point; ++c) {
        const std::size_t begin = c * chunk;
        units.push_back(SuiteUnit{s, p, begin, std::min(begin + chunk, count)});
      }
    }
  }
  return units;
}

exp::PointAggregate run_unit_instances(const Mesh& mesh, const PowerModel& model,
                                       const ScenarioSpec& spec, std::size_t begin,
                                       std::size_t end, std::size_t instances,
                                       std::uint64_t seed, std::uint64_t point_id) {
  PAMR_CHECK(begin <= end && end <= instances, "unit range out of bounds");
  obs::bump(obs::Metric::kSuiteUnits);
  obs::bump(obs::Metric::kSuiteInstances, end - begin);
  const obs::PhaseScope unit_phase(obs::Metric::kPhaseUnit);
  // A rect unit routes on the caller's mesh; any other topology is built
  // once per unit on the mesh's grid. Workloads draw on that grid, so the
  // communication sets are identical across the topo= axis.
  std::unique_ptr<const topo::Topology> built;
  if (spec.topo != topo::TopoKind::kRect) {
    built = topo::make_topology(spec.topo, mesh.p(), mesh.q());
  }
  const topo::Topology& topology = built != nullptr ? *built : mesh;
  // One routing workspace per thread, alive as long as the thread: every
  // unit the thread runs reuses its buffers (routing/workspace.hpp).
  thread_local RouteWorkspace workspace;
  exp::PointAggregate aggregate;
  for (std::size_t instance = begin; instance < end; ++instance) {
    Rng rng(derive_seed(seed, point_id, instance));
    // Envelope position: instance midpoints cover (0, 1) evenly.
    const double t =
        (static_cast<double>(instance) + 0.5) / static_cast<double>(instances);
    const CommSet comms = spec.generate(mesh, model, t, rng);
    // The probe's seed is the next draw of the instance stream — a pure
    // function of (seed, point, instance), like everything else here, so
    // sim aggregates stay bit-identical across threads and workers.
    sim::SimConfig sim_config;
    if (spec.sim) {
      sim_config.cycles = spec.sim_cycles;
      sim_config.warmup = spec.sim_warmup;
      sim_config.seed = rng();
    }
    aggregate.add(exp::run_instance(topology, comms, model,
                                    spec.sim ? &sim_config : nullptr, workspace));
  }
  return aggregate;
}

}  // namespace scenario
}  // namespace pamr
