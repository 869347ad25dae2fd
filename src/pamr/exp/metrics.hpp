// Per-instance and per-point metrics of the §6 simulation campaign.
//
// For every random instance the paper runs the six policies and BEST (the
// per-instance winner), then plots per heuristic:
//   * the normalized power inverse — (1/P_h)/(1/P_BEST), 0 on failure;
//   * the failure ratio — fraction of instances with no valid routing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "pamr/routing/router.hpp"
#include "pamr/util/stats.hpp"

namespace pamr {
namespace exp {

/// The seven plotted series, in the paper's legend order.
inline constexpr std::size_t kNumSeries = kNumBaseRouters + 1;
inline constexpr std::size_t kBestSeries = kNumBaseRouters;  ///< index of BEST

[[nodiscard]] const char* series_name(std::size_t series) noexcept;

/// One heuristic's outcome on one instance (routings are dropped — the
/// campaign only aggregates scalars).
struct HeuristicSample {
  bool valid = false;
  double power = 0.0;
  double static_power = 0.0;
  /// Wall-clock routing time. 0 in every series of an instance that
  /// run_instance certified infeasible, since no router ran on it.
  double elapsed_ms = 0.0;

  [[nodiscard]] double inverse_power() const noexcept {
    return valid && power > 0.0 ? 1.0 / power : 0.0;
  }
};

/// Outcome of the optional cycle-level simulation probe of one instance
/// (sim:: run on the BEST routing when the scenario asks for it). `ran` is
/// false when the probe was disabled or no valid routing existed to drive.
struct SimSample {
  bool ran = false;
  double latency_cycles = 0.0;   ///< mean flit latency over delivered flits
  double delivery = 0.0;         ///< Σ delivered / Σ offered flits
  double throughput_mbps = 0.0;  ///< aggregate delivered bandwidth
};

struct InstanceSample {
  std::array<HeuristicSample, kNumSeries> series;  ///< six policies + BEST
  SimSample sim;                                   ///< open-loop injection probe
};

[[nodiscard]] InstanceSample make_instance_sample(
    const std::array<HeuristicSample, kNumBaseRouters>& base);

/// Simulation probe aggregates of one point (see PointAggregate).
struct SimAggregate {
  RunningStats latency;     ///< mean flit latency, cycles
  RunningStats delivery;    ///< delivery ratio in [0, 1]
  RunningStats throughput;  ///< delivered Mb/s
};

/// Aggregates over the instances of one plotted point.
///
/// Size matters: a campaign holds one aggregate per work unit, and the
/// campaign benchmark keeps every pass's (hundreds per pass), so its peak
/// memory grows with this struct times the passes it fits into its time.
/// Hence the 32-bit failure counts, the summed wall clock and the
/// simulation stats kept off-line.
class PointAggregate {
 public:
  std::array<RunningStats, kNumSeries> normalized_inverse;  ///< per series
  /// Failed instances per series; a point's instance count stays far below
  /// 2^32 (SuiteOptions caps it at ten million).
  std::array<std::uint32_t, kNumSeries> failures{};
  /// Total routing wall time per series, in ms (certified instances add
  /// 0). A wall clock, so only its mean over `instances` is ever reported.
  std::array<double, kNumSeries> elapsed_ms{};
  std::array<RunningStats, kNumSeries> inverse_power;  ///< absolute 1/P (0 on failure)
  RunningStats static_fraction;  ///< static/total of BEST, valid instances only
  std::size_t instances = 0;

  PointAggregate() = default;
  PointAggregate(const PointAggregate& other);
  PointAggregate& operator=(const PointAggregate& other);
  PointAggregate(PointAggregate&&) noexcept = default;
  PointAggregate& operator=(PointAggregate&&) noexcept = default;

  // Simulation probe aggregates, over the instances where the probe ran;
  // their shared count() is the number of simulated instances (all empty
  // when none did).
  [[nodiscard]] const RunningStats& sim_latency() const noexcept;
  [[nodiscard]] const RunningStats& sim_delivery() const noexcept;
  [[nodiscard]] const RunningStats& sim_throughput() const noexcept;

  void add(const InstanceSample& sample);
  void merge(const PointAggregate& other);

  [[nodiscard]] double failure_ratio(std::size_t series) const;

 private:
  friend bool parse_point_aggregate(std::string_view text, PointAggregate& out,
                                    std::string& error);

  /// The probe stats, allocated when the first probed instance arrives.
  SimAggregate& sim();

  std::unique_ptr<SimAggregate> sim_;  ///< null until an instance was probed
};

// -- Wire form --------------------------------------------------------------
//
// The distributed runner ships chunk aggregates between processes and
// journals them on disk, so the merged campaign must reconstruct *exactly*
// the accumulator a single process would have built. The text form is one
// line of space-separated key=value tokens whose doubles are IEEE-754 bit
// patterns in hex: parse(serialize(a)) equals `a` bit-for-bit, independent
// of locale, printf precision, or libc rounding.

[[nodiscard]] std::string serialize_point_aggregate(const PointAggregate& aggregate);

/// Parses serialize_point_aggregate's form. On failure returns false and
/// sets `error` (leaving `out` untouched). Besides the syntax, it rejects
/// counts that add() and merge() can never produce: a failure count or a
/// static-fraction or sim-stat count above n, a normalized-inverse or
/// inverse-power count other than n, and sim stats of unequal counts.
[[nodiscard]] bool parse_point_aggregate(std::string_view text, PointAggregate& out,
                                         std::string& error);

}  // namespace exp
}  // namespace pamr
