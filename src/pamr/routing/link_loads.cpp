#include "pamr/routing/link_loads.hpp"

#include <algorithm>
#include <bit>
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

namespace {

// Overload memo sizes: 64 slots per link, between 2^12 and 2^16 slots.
constexpr int kMinMemoBits = 12;
constexpr int kMaxMemoBits = 16;

int memo_bits(std::int32_t num_links) {
  const auto slots = std::max<std::uint64_t>(static_cast<std::uint64_t>(num_links), 1) * 64;
  return std::clamp(static_cast<int>(std::bit_width(slots - 1)), kMinMemoBits, kMaxMemoBits);
}

}  // namespace

LoadCost::LoadCost(const PowerModel& model, std::int32_t num_links)
    : model_(&model),
      capacity_(model.capacity()),
      p_leak_(model.params().p_leak),
      p0_(model.params().p0),
      alpha_(model.params().alpha),
      load_unit_(model.params().load_unit),
      memo_bits_(memo_bits(num_links)) {
  if (!model.discrete()) return;
  // Exactly the unmemoized result: any load quantizing to a level gets
  // link_power(frequency), computed once per model through the same code
  // path.
  level_edges_ = model.table()->frequencies();
  level_costs_ = model.level_powers();
}

double LoadCost::operator()(double load) const noexcept {
  if (load <= 0.0) return 0.0;
  if (!level_edges_.empty()) {
    // Discrete fast path. A load above the top level always lands in the
    // penalty branch below, exactly as the unmemoized code: quantize()
    // returns nullopt there even inside the feasibility tolerance.
    if (load <= level_edges_.back()) {
      std::size_t level = 0;
      while (level_edges_[level] < load) ++level;
      return level_costs_[level];
    }
  } else if (const auto power = model_->link_power(load); power.has_value()) {
    return *power;
  }
  return overload_cost(load);
}

double LoadCost::overload_cost(double load) const noexcept {
  // Direct-mapped, power-of-two table. Collisions simply overwrite: the
  // memo trades a little redundant recomputation for O(1) deterministic
  // lookups with no rehashing (an unordered_map here would also trip the
  // determinism linter's result-path rule). 2^16 16-byte slots (1 MiB,
  // allocated only once an instance actually sees an overload) cover the
  // working set of an overloaded 32×32/nc=2000 descent — every (link load
  // ± comm weight) pair alive between load changes — while staying
  // cache-resident; a 4096-slot table thrashed at ~40% misses, and a 4 MiB
  // one spilled L2 and made every probe a memory round trip. Meshes below
  // 16×16 get proportionally smaller tables (64 slots per link): every
  // overloaded route call allocates one, and once the allocator serves it
  // from reused heap memory, calloc clears all of it.
  const std::uint64_t key = std::bit_cast<std::uint64_t>(load);
  const std::size_t slot =
      static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - memo_bits_));
  if (over_slots_ == nullptr) {
    over_slots_.reset(static_cast<OverSlot*>(
        std::calloc(std::size_t{1} << memo_bits_, sizeof(OverSlot))));
    PAMR_ASSERT(over_slots_ != nullptr);
  } else if (over_slots_[slot].key == key) {
    return over_slots_[slot].value;
  }
  // Infeasible: continuous extension of the dynamic curve + linear penalty.
  // This expression is the cache's single producer, so a hit above returns
  // exactly the double a cold evaluation computes here.
  const double dynamic = p0_ * std::pow(load * load_unit_, alpha_);
  // The penalty slope dwarfs any realistic power value (§6 powers are a few
  // watts = a few thousand mW) so one Mb/s of overload always costs more
  // than any feasible rearrangement saves.
  constexpr double kOverloadPenaltyPerMbps = 1e4;
  const double value =
      p_leak_ + dynamic + kOverloadPenaltyPerMbps * (load - capacity_);
  over_slots_[slot] = OverSlot{key, value};
  return value;
}

double LoadCost::total(std::span<const double> loads) const noexcept {
  double sum = 0.0;
  for (const double load : loads) sum += (*this)(load);
  return sum;
}

}  // namespace pamr
