// Links and paths: the vocabulary every topology shares. A topology numbers
// its unidirectional links densely (LinkId); link loads, routings and power
// evaluation are all dense vectors indexed by LinkId, and a path (paper
// §3.2) is a chain of those links from a source core to a sink core.
#pragma once

#include <cstdint>
#include <vector>

#include "pamr/mesh/coord.hpp"

namespace pamr {

/// Dense link identifier, in [0, Topology::num_links()).
using LinkId = std::int32_t;
inline constexpr LinkId kInvalidLink = -1;

/// One unidirectional link. `dir` indexes the topology's direction table:
/// the LinkDir values E, W, S, N on every topology, followed on the
/// diagonal mesh by 4..7 (SE, SW, NW, NE), which name no LinkDir
/// enumerator.
struct LinkInfo {
  Coord from;
  Coord to;
  LinkDir dir = LinkDir::kEast;

  [[nodiscard]] bool horizontal() const noexcept { return is_horizontal(dir); }
};

struct Path {
  Coord src;
  Coord snk;
  std::vector<LinkId> links;  ///< consecutive links, links.size() == hops

  [[nodiscard]] std::int32_t length() const noexcept {
    return static_cast<std::int32_t>(links.size());
  }

  friend bool operator==(const Path&, const Path&) = default;
};

}  // namespace pamr
