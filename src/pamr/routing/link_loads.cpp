#include "pamr/routing/link_loads.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "pamr/util/assert.hpp"

namespace pamr {

LinkLoads::LinkLoads(const Mesh& mesh)
    : loads_(static_cast<std::size_t>(mesh.num_links()), 0.0) {}

LinkLoads::LinkLoads(std::int32_t num_links)
    : loads_(static_cast<std::size_t>(num_links), 0.0) {
  PAMR_ASSERT(num_links >= 0);
}

void LinkLoads::add_path(const Path& path, double weight) {
  for (const LinkId link : path.links) add(link, weight);
}

void LinkLoads::add_routing(const Routing& routing) {
  for (const auto& comm : routing.per_comm) {
    for (const auto& flow : comm.flows) add_path(flow.path, flow.weight);
  }
}

double LinkLoads::max_load() const noexcept {
  double max_value = 0.0;
  for (const double load : loads_) max_value = std::max(max_value, load);
  return max_value;
}

void LinkLoads::clear() noexcept { std::fill(loads_.begin(), loads_.end(), 0.0); }

LinkLoads loads_of_routing(const Mesh& mesh, const Routing& routing) {
  LinkLoads loads(mesh);
  loads.add_routing(routing);
  return loads;
}

LoadCost::LoadCost(const PowerModel& model)
    : model_(&model),
      capacity_(model.capacity()),
      p_leak_(model.params().p_leak),
      p0_(model.params().p0),
      alpha_(model.params().alpha),
      load_unit_(model.params().load_unit) {
  if (!model.discrete()) return;
  // Any load quantizing to a level gets link_power(frequency), computed
  // once per model through the same code path.
  level_edges_ = model.table()->frequencies();
  level_costs_ = model.level_powers();
}

double LoadCost::beyond_levels(double load) const noexcept {
  if (level_edges_.empty()) {
    if (const auto power = model_->link_power(load); power.has_value()) return *power;
  }
  // Infeasible: continuous extension of the dynamic curve + linear penalty.
  // The penalty slope dwarfs any realistic power value (§6 powers are a few
  // watts = a few thousand mW) so one Mb/s of overload always costs more
  // than any feasible rearrangement saves.
  constexpr double kOverloadPenaltyPerMbps = 1e4;
  const double dynamic = p0_ * std::pow(load * load_unit_, alpha_);
  return p_leak_ + dynamic + kOverloadPenaltyPerMbps * (load - capacity_);
}

double LoadCost::total(std::span<const double> loads) const noexcept {
  double sum = 0.0;
  for (const double load : loads) sum += (*this)(load);
  return sum;
}

}  // namespace pamr
