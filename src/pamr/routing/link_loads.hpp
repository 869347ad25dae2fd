// Dense per-link load accounting and the penalized cost function the
// heuristics minimize.
//
// The optimization objective of the paper is the total power given the
// per-link traffic (§3.4). While a heuristic is mid-construction the loads
// may temporarily exceed the link capacity (XYI starts from a possibly
// infeasible XY routing); LoadCost therefore extends the power curve past
// the capacity continuously and adds a steep linear penalty so that the
// local search is always pulled back towards feasibility. The *final*
// feasibility/power verdict is always taken from PowerModel on the finished
// routing, never from LoadCost.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pamr/mesh/mesh.hpp"
#include "pamr/power/power_model.hpp"
#include "pamr/routing/routing.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

class LinkLoads {
 public:
  /// No links; reset() sizes it.
  LinkLoads() = default;
  explicit LinkLoads(const Mesh& mesh);
  /// Load vector over any link-id space of the given size — lets the
  /// accounting work for topo::Topology link graphs, whose ids are dense
  /// like the mesh's but differently sized.
  explicit LinkLoads(std::int32_t num_links);

  /// Defined inline: the heuristics' inner loops hit this on every load
  /// mutation, so the store must not cost a cross-TU call. A genuinely
  /// negative result (beyond float-cancellation noise) is an accounting
  /// bug in an incremental index that would otherwise silently read as
  /// zero load — it throws at *every* check level, not just debug.
  void add(LinkId link, double weight) {
    PAMR_DCHECK(link >= 0 && std::cmp_less(link, loads_.size()));
    add_to(loads_[static_cast<std::size_t>(link)], weight);
  }

  /// add()'s arithmetic on one stored load, for a loop over
  /// mutable_values() that must round and clamp exactly as add() does.
  static void add_to(double& slot, double weight) {
    slot += weight;
    if (slot < 0.0) {
      // Clamp tiny negative residue from remove-then-readd cancellation.
      PAMR_CHECK(slot > -1e-6,
                 "negative link load — incremental accounting bug");
      slot = 0.0;
    }
  }

  void add_path(const Path& path, double weight);
  void add_routing(const Routing& routing);

  [[nodiscard]] double load(LinkId link) const {
    PAMR_DCHECK(link >= 0 && std::cmp_less(link, loads_.size()));
    return loads_[static_cast<std::size_t>(link)];
  }
  [[nodiscard]] std::span<const double> values() const noexcept { return loads_; }
  /// The stored loads, writable, indexed by LinkId: lets a hot loop keep
  /// the base pointer in a register. Every write goes through add_to().
  [[nodiscard]] std::span<double> mutable_values() noexcept { return loads_; }
  [[nodiscard]] double max_load() const noexcept;

  void clear() noexcept;

  /// All-zero loads over `num_links` links, reusing the buffer's capacity.
  void reset(std::int32_t num_links) {
    loads_.assign(static_cast<std::size_t>(num_links), 0.0);
  }

 private:
  std::vector<double> loads_;
};

/// Loads induced by a complete routing.
[[nodiscard]] LinkLoads loads_of_routing(const Mesh& mesh, const Routing& routing);

/// Heuristic link-cost oracle (see file comment). Stateless: one instance
/// may be shared by any number of threads.
class LoadCost {
 public:
  /// For a discrete model, reads the exact per-level link power (the cost
  /// is a step function with one value per frequency level) from the
  /// model's level_powers(), so the heuristics' innermost loops replace a
  /// quantize + std::pow per call with a scan over a handful of level
  /// edges. Those values are computed through PowerModel::link_power
  /// itself, so they are bit-identical to a direct call. The model must
  /// outlive the LoadCost.
  explicit LoadCost(const PowerModel& model);

  /// Cost of one link at `load`: the model's power when feasible, the
  /// continuous extension plus a steep overload penalty otherwise; 0 when
  /// idle. The discrete fast path is inline: every heuristic's inner loop
  /// calls this.
  [[nodiscard]] double operator()(double load) const noexcept {
    if (load <= 0.0) return 0.0;
    // Discrete: a scan of the level edges. A load above the top level
    // always lands in the penalty branch: quantize() returns nullopt there
    // even inside the feasibility tolerance.
    if (!level_edges_.empty() && load <= level_edges_.back()) {
      std::size_t level = 0;
      while (level_edges_[level] < load) ++level;
      return level_costs_[level];
    }
    return beyond_levels(load);
  }

  /// Cost difference of moving one link from `before` to `after`.
  [[nodiscard]] double delta(double before, double after) const noexcept {
    return (*this)(after) - (*this)(before);
  }

  /// Total penalized cost of a load vector (never fails, unlike
  /// PowerModel::total_power).
  [[nodiscard]] double total(std::span<const double> loads) const noexcept;

 private:
  /// operator() of a positive load past the discrete levels, or of any
  /// positive load under a continuous model.
  [[nodiscard]] double beyond_levels(double load) const noexcept;

  const PowerModel* model_;
  std::span<const double> level_edges_;  ///< discrete: level frequencies (inclusive tops)
  std::span<const double> level_costs_;  ///< exact link_power at each level
  // Penalty-branch constants, copied out of the model at construction so
  // an overloaded call costs one std::pow and no cross-TU accessor calls.
  double capacity_ = 0.0;
  double p_leak_ = 0.0;
  double p0_ = 0.0;
  double alpha_ = 0.0;
  double load_unit_ = 0.0;
};

}  // namespace pamr
