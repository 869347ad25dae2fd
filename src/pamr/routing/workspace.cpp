#include "pamr/routing/workspace.hpp"

#include <optional>
#include <utility>

#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

/// Spare routings kept for reuse: as many as a caller holds at once —
/// run_instance keeps BEST's for the simulation probe while routing on, and
/// BestRouter keeps its best while routing on. A routing recycled beyond
/// that is freed.
constexpr std::size_t kMaxSpareRoutings = 2;

}  // namespace

void PathTable::reset(const CommSet& comms) {
  offsets_.resize(comms.size() + 1);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < comms.size(); ++i) {
    offsets_[i] = next;
    next += static_cast<std::uint32_t>(manhattan_distance(comms[i].src, comms[i].snk));
  }
  offsets_[comms.size()] = next;
  links_.resize(next);
}

void RouteWorkspace::recycle(RouteResult& result) {
  std::optional<Routing> routing;
  routing.swap(result.routing);
  if (routing.has_value()) recycle(*std::move(routing));
}

void RouteWorkspace::recycle(Routing&& routing) {
  if (spare_routings_.size() < kMaxSpareRoutings) {
    spare_routings_.push_back(std::move(routing));
  }
}

Routing RouteWorkspace::single_path_routing(const CommSet& comms) {
  PAMR_CHECK(paths.size() == comms.size(), "one path per communication required");
  Routing routing;
  if (!spare_routings_.empty()) {
    routing = std::move(spare_routings_.back());
    spare_routings_.pop_back();
  }
  routing.per_comm.resize(comms.size());
  for (std::size_t i = 0; i < comms.size(); ++i) {
    std::vector<RoutedFlow>& flows = routing.per_comm[i].flows;
    flows.resize(1);
    RoutedFlow& flow = flows.front();
    flow.weight = comms[i].weight;
    flow.path.src = comms[i].src;
    flow.path.snk = comms[i].snk;
    const std::span<const LinkId> links = paths.path(i);
    flow.path.links.assign(links.begin(), links.end());
  }
  return routing;
}

}  // namespace pamr
