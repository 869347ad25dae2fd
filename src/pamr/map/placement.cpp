#include "pamr/map/placement.hpp"

#include <numeric>
#include <utility>

#include "pamr/routing/link_loads.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

/// Flat task identifier across applications.
struct FlatTask {
  std::size_t app;
  TaskId task;
};

CommSet comms_of_assignment(const std::vector<const TaskGraph*>& apps,
                            const Mesh& mesh,
                            const std::vector<std::int32_t>& core_of_flat,
                            const std::vector<std::size_t>& app_offset) {
  CommSet comms;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (const TaskGraph::Edge& edge : apps[a]->edges()) {
      const std::int32_t src_core =
          core_of_flat[app_offset[a] + static_cast<std::size_t>(edge.from)];
      const std::int32_t snk_core =
          core_of_flat[app_offset[a] + static_cast<std::size_t>(edge.to)];
      if (src_core == snk_core) continue;
      comms.push_back(Communication{mesh.core_coord(src_core),
                                    mesh.core_coord(snk_core), edge.bandwidth});
    }
  }
  return comms;
}

/// Penalized routed cost of a communication set: route with the evaluator
/// and take LoadCost over the resulting link loads. Infeasible placements
/// thus score high but remain comparable (essential while escaping them).
double routed_cost(const Mesh& mesh, const CommSet& comms, const PowerModel& model,
                   const Router& evaluator) {
  const RouteResult result = evaluator.route(mesh, comms, model);
  PAMR_ASSERT(result.routing.has_value());
  const LinkLoads loads = loads_of_routing(mesh, *result.routing);
  return LoadCost(model).total(loads.values());
}

}  // namespace

double placement_score(const Mesh& mesh, const std::vector<const TaskGraph*>& apps,
                       const std::vector<Mapping>& mappings, const PowerModel& model,
                       RouterKind evaluator) {
  PAMR_CHECK(apps.size() == mappings.size(), "one mapping per application");
  std::vector<MappedApplication> mapped;
  mapped.reserve(apps.size());
  for (std::size_t a = 0; a < apps.size(); ++a) {
    mapped.push_back(MappedApplication{apps[a], mappings[a]});
  }
  const CommSet comms = extract_communications(mapped);
  return routed_cost(mesh, comms, model, shared_router(evaluator));
}

PlacementResult optimize_placement(const Mesh& mesh,
                                   const std::vector<const TaskGraph*>& apps,
                                   const PowerModel& model, Rng& rng,
                                   const PlacementOptions& options) {
  PAMR_CHECK(!apps.empty(), "need at least one application");
  std::vector<std::size_t> app_offset(apps.size(), 0);
  std::size_t total_tasks = 0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    PAMR_CHECK(apps[a] != nullptr, "null task graph");
    PAMR_CHECK(apps[a]->is_acyclic(), "applications must be DAGs");
    app_offset[a] = total_tasks;
    total_tasks += static_cast<std::size_t>(apps[a]->num_tasks());
  }
  PAMR_CHECK(std::cmp_less_equal(total_tasks, mesh.num_cores()),
             "more tasks than cores");

  // slot_of_core: permutation of cores; the first total_tasks slots hold
  // tasks, the rest are empty. Random initial placement.
  std::vector<std::int32_t> cores(static_cast<std::size_t>(mesh.num_cores()));
  std::iota(cores.begin(), cores.end(), 0);
  rng.shuffle(cores);
  std::vector<std::int32_t> core_of_flat(cores.begin(),
                                         cores.begin() + static_cast<std::ptrdiff_t>(total_tasks));
  std::vector<std::int32_t> empty_cores(cores.begin() + static_cast<std::ptrdiff_t>(total_tasks),
                                        cores.end());

  const Router& router = shared_router(options.evaluator);
  auto score_now = [&]() {
    return routed_cost(mesh,
                       comms_of_assignment(apps, mesh, core_of_flat, app_offset),
                       model, router);
  };

  PlacementResult result;
  double score = score_now();
  for (std::int32_t pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    // Task-task swaps (first improvement).
    for (std::size_t i = 0; i < total_tasks; ++i) {
      for (std::size_t j = i + 1; j < total_tasks; ++j) {
        std::swap(core_of_flat[i], core_of_flat[j]);
        const double candidate = score_now();
        if (candidate < score - 1e-9) {
          score = candidate;
          improved = true;
          ++result.swaps;
        } else {
          std::swap(core_of_flat[i], core_of_flat[j]);
        }
      }
      // Task-to-empty-core moves.
      for (auto& empty : empty_cores) {
        std::swap(core_of_flat[i], empty);
        const double candidate = score_now();
        if (candidate < score - 1e-9) {
          score = candidate;
          improved = true;
          ++result.swaps;
        } else {
          std::swap(core_of_flat[i], empty);
        }
      }
    }
    if (!improved) break;
  }

  result.score = score;
  result.mappings.resize(apps.size());
  for (std::size_t a = 0; a < apps.size(); ++a) {
    auto& mapping = result.mappings[a].task_to_core;
    mapping.reserve(static_cast<std::size_t>(apps[a]->num_tasks()));
    for (TaskId t = 0; t < apps[a]->num_tasks(); ++t) {
      mapping.push_back(
          mesh.core_coord(core_of_flat[app_offset[a] + static_cast<std::size_t>(t)]));
    }
  }
  // Final verdict under the full model.
  const CommSet comms = comms_of_assignment(apps, mesh, core_of_flat, app_offset);
  const RouteResult routed = router.route(mesh, comms, model);
  result.valid = routed.valid;
  result.power = routed.valid ? routed.power : 0.0;
  return result;
}

}  // namespace pamr
