// Communications (paper §3.2): γ_i = (src core, sink core, δ_i), where δ_i
// is the requested bandwidth in Mb/s. The system-level view is a flat set —
// which application produced a communication is irrelevant to routing.
#pragma once

#include <string>
#include <vector>

#include "pamr/mesh/coord.hpp"

namespace pamr {

struct Communication {
  Coord src;
  Coord snk;
  double weight = 0.0;  ///< δ, requested bytes-per-second (Mb/s in §6)

  friend constexpr auto operator<=>(const Communication&,
                                    const Communication&) = default;
};

using CommSet = std::vector<Communication>;

/// Sum of all δ_i (the paper's K in §4).
[[nodiscard]] double total_weight(const CommSet& comms) noexcept;

/// Indices of `comms` ordered by decreasing weight, ties by original index.
/// All heuristics of §5 process communications in this order; returning
/// indices (rather than sorting in place) keeps per-communication identity
/// stable for routings.
[[nodiscard]] std::vector<std::size_t> order_by_decreasing_weight(const CommSet& comms);

/// The same order written into `out`, reusing its capacity.
void order_by_decreasing_weight(const CommSet& comms, std::vector<std::size_t>& out);

/// Mean Manhattan length of the set (0 for an empty set).
[[nodiscard]] double mean_length(const CommSet& comms) noexcept;

[[nodiscard]] std::string to_string(const Communication& comm);

}  // namespace pamr
