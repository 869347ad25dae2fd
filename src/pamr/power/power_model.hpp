// The power model of the paper (§3.1):
//
//   P(link) = Pleak + P0 · (f · BW)^α        if the link is active,
//   P(link) = 0                              if the link is switched off,
//
// with 2 < α ≤ 3. Two operating modes:
//
//  * Continuous — the link frequency exactly matches its traffic
//    (f·BW = load). Used by the theory sections (§4), where additionally
//    Pleak = 0 and P0 = 1.
//  * Discrete — the link must run at one of the table frequencies ≥ load
//    (§6, Kim–Horowitz links: Pleak = 16.9 mW, P0 = 5.41, α = 2.95,
//    f ∈ {1, 2.5, 3.5} Gb/s).
//
// Unit convention: loads are Mb/s throughout the library; `load_unit`
// rescales them before exponentiation so that the paper's constants apply
// (Gb/s for the Kim–Horowitz table, raw units for the theory examples).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "pamr/power/frequency_table.hpp"

namespace pamr {

struct PowerParams {
  double p_leak = 16.9;     ///< static power of an active link (mW)
  double p0 = 5.41;         ///< dynamic coefficient (mW per (unit)^alpha)
  double alpha = 2.95;      ///< dynamic exponent, 2 < α ≤ 3
  double bandwidth = 3500;  ///< max link bandwidth BW (Mb/s)
  double load_unit = 1e-3;  ///< multiplies loads before exponentiation (Mb/s → Gb/s)
};

/// Static/dynamic decomposition of a routing's power (§6.4 reports that
/// static power is ≈ 1/7 of the total on the simulation workloads).
struct PowerBreakdown {
  double total = 0.0;
  double static_part = 0.0;
  double dynamic_part = 0.0;
  std::int32_t active_links = 0;
};

/// Relative margin by which a sum must exceed its bound before
/// PowerModel::proven_overload trusts it. Sums of up to a few hundred
/// weights carry a relative round-off far below this, so no proof depends
/// on the order in which a sum or a routing's link load was accumulated.
inline constexpr double kCertificateMargin = 1e-9;

class PowerModel {
 public:
  /// Continuous-frequency model.
  explicit PowerModel(PowerParams params);

  /// Discrete-frequency model; the table's top frequency also caps the
  /// feasible per-link load (and must not exceed params.bandwidth).
  PowerModel(PowerParams params, FrequencyTable table);

  /// §6 configuration: Kim–Horowitz discrete links on Mb/s loads.
  [[nodiscard]] static PowerModel paper_discrete();

  /// §4 configuration: Pleak = 0, P0 = 1, continuous, unit loads.
  [[nodiscard]] static PowerModel theory(double alpha = 3.0,
                                         double bandwidth = 1e18);

  [[nodiscard]] const PowerParams& params() const noexcept { return params_; }
  [[nodiscard]] bool discrete() const noexcept { return table_.has_value(); }
  [[nodiscard]] const std::optional<FrequencyTable>& table() const noexcept {
    return table_;
  }

  /// Maximum feasible per-link load (Mb/s).
  [[nodiscard]] double capacity() const noexcept;

  /// Per-link feasibility limit: capacity() plus kFeasibilityTolerance.
  [[nodiscard]] double limit() const noexcept {
    return capacity() + kFeasibilityTolerance;
  }

  /// True iff a link can carry `load` without exceeding its capacity.
  [[nodiscard]] bool feasible(double load) const noexcept { return load <= limit(); }

  /// The one "proven overload" rule: true when `total` exceeds `bound` by
  /// more than the relative kCertificateMargin. certify_infeasible tests its
  /// cut sums against m·limit() with it, and the routers' overload
  /// witnesses (RouteGoal::kVerdict) test a link's load against limit().
  /// The margin dominates the round-off of adding the same weights in any
  /// other order, so when a partial sum of a link's final weights passes
  /// proven_overload(sum, limit()), the final load fails feasible().
  [[nodiscard]] static constexpr bool proven_overload(double total,
                                                      double bound) noexcept {
    return total > bound * (1.0 + kCertificateMargin);
  }

  /// Power of one link carrying `load` Mb/s; nullopt if infeasible,
  /// 0 for an idle link.
  [[nodiscard]] std::optional<double> link_power(double load) const noexcept;

  /// Dynamic part only (no leakage), with the same feasibility rule.
  [[nodiscard]] std::optional<double> link_dynamic_power(double load) const noexcept;

  /// Total power over a dense load vector; nullopt if any link is overloaded.
  [[nodiscard]] std::optional<double> total_power(std::span<const double> loads) const;

  /// Static/dynamic decomposition; nullopt if any link is overloaded.
  [[nodiscard]] std::optional<PowerBreakdown> breakdown(
      std::span<const double> loads) const;

  /// Absolute slack used when comparing accumulated floating-point loads
  /// against capacities (loads are sums of up to ~150 weights of magnitude
  /// ≤ 3500, so 1e-6 Mb/s is far above round-off and far below any real
  /// violation).
  static constexpr double kFeasibilityTolerance = 1e-6;

 private:
  PowerParams params_;
  std::optional<FrequencyTable> table_;
};

}  // namespace pamr
