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
#include <cstdlib>
#include <memory>
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
    double& slot = loads_[static_cast<std::size_t>(link)];
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

/// Heuristic link-cost oracle (see file comment). The overload memo makes
/// a single instance stateful: construct one per route call (as every
/// router does) rather than sharing an instance across threads.
class LoadCost {
 public:
  /// For a discrete model, reads the exact per-level link power (the cost
  /// is a step function with one value per frequency level) from the
  /// model's level_powers(), so the heuristics' innermost loops replace a
  /// quantize + std::pow per call with a scan over a handful of level
  /// edges. Those values are computed through PowerModel::link_power
  /// itself — bit-identical to the unmemoized path. The model must outlive
  /// the LoadCost.
  /// `num_links` is the link count of the mesh or topology being routed;
  /// it sizes the overload memo (see overload_cost).
  explicit LoadCost(const PowerModel& model, std::int32_t num_links);

  /// Cost of one link at `load`: the model's power when feasible, the
  /// continuous extension plus a steep overload penalty otherwise; 0 when
  /// idle.
  ///
  /// Overloaded loads are memoized: the penalty branch's std::pow dominates
  /// XYI's descent on infeasible instances, and the same handful of load
  /// values (current, ±weight) recur across candidate evaluations. The
  /// cache is keyed on the exact bit pattern of `load` and filled through
  /// the identical penalty expression, so a hit returns the very double a
  /// cold call would have computed — delta() and the differential suites
  /// see bit-identical values either way.
  [[nodiscard]] double operator()(double load) const noexcept;

  /// Cost difference of moving one link from `before` to `after`.
  [[nodiscard]] double delta(double before, double after) const noexcept {
    return (*this)(after) - (*this)(before);
  }

  /// Total penalized cost of a load vector (never fails, unlike
  /// PowerModel::total_power).
  [[nodiscard]] double total(std::span<const double> loads) const noexcept;

 private:
  [[nodiscard]] double overload_cost(double load) const noexcept;

  const PowerModel* model_;
  std::span<const double> level_edges_;  ///< discrete: level frequencies (inclusive tops)
  std::span<const double> level_costs_;  ///< exact link_power at each level
  // Penalty-branch constants, copied out of the model at construction so a
  // memo miss costs one std::pow and no cross-TU accessor calls.
  double capacity_ = 0.0;
  double p_leak_ = 0.0;
  double p0_ = 0.0;
  double alpha_ = 0.0;
  double load_unit_ = 0.0;
  int memo_bits_ = 0;  ///< the overload memo holds 2^memo_bits_ slots
  // Direct-mapped memo for the penalty branch, allocated on first overload.
  // Key 0 marks an empty slot: a load whose bits are zero is +0.0, which
  // returns before ever reaching the penalty branch. Key and value share a
  // 16-byte slot so a probe touches exactly one cache line. calloc-backed
  // rather than a zero-filled vector: an allocation this size is served as
  // lazily-zeroed pages, so a short-lived router that brushes a transient
  // overload touches a few pages instead of paying a full memset up front.
  struct OverSlot {
    std::uint64_t key;
    double value;
  };
  struct FreeDeleter {
    void operator()(void* p) const noexcept { std::free(p); }
  };
  mutable std::unique_ptr<OverSlot[], FreeDeleter> over_slots_;
};

}  // namespace pamr
