#include "pamr/opt/split_router.hpp"

#include <map>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/opt/path_enum.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

SplitRouteResult route_split(const Mesh& mesh, const CommSet& comms,
                             const PowerModel& model, std::int32_t max_paths) {
  PAMR_CHECK(max_paths >= 1, "s must be at least 1");
  const WallTimer timer;
  const LoadCost cost(model);
  LinkLoads loads(mesh);

  SplitRouteResult result;
  result.routing.per_comm.resize(comms.size());

  for (const std::size_t index : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[index];
    const CommRect rect(mesh, comm.src, comm.snk);
    const double part = comm.weight / static_cast<double>(max_paths);

    std::map<std::vector<LinkId>, double> merged;
    for (std::int32_t j = 0; j < max_paths; ++j) {
      const Path path = min_cost_manhattan_path(rect, [&](LinkId link) {
        return cost.delta(loads.load(link), loads.load(link) + part);
      });
      loads.add_path(path, part);
      merged[path.links] += part;
    }

    CommRouting& routed = result.routing.per_comm[index];
    for (const auto& [links, weight] : merged) {
      Path path;
      path.src = comm.src;
      path.snk = comm.snk;
      path.links = links;
      routed.flows.push_back(RoutedFlow{std::move(path), weight});
    }
  }

  result.elapsed_ms = timer.elapsed_ms();
  // Priced on a fresh sum of the merged flows, in `loads`' storage.
  if (const auto breakdown = price_routing(mesh, comms, result.routing, model, loads,
                                           static_cast<std::size_t>(max_paths))) {
    result.valid = true;
    result.power = breakdown->total;
    result.breakdown = *breakdown;
  }
  return result;
}

}  // namespace pamr
