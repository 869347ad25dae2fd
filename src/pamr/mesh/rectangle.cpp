#include "pamr/mesh/rectangle.hpp"

#include <algorithm>

#include "pamr/util/assert.hpp"

namespace pamr {

CommRect::CommRect(const Mesh& mesh, Coord src, Coord snk)
    : mesh_(&mesh),
      src_(src),
      snk_(snk),
      quadrant_(quadrant_of(src, snk)),
      du_(src.u > snk.u ? src.u - snk.u : snk.u - src.u),
      dv_(src.v > snk.v ? src.v - snk.v : snk.v - src.v),
      su_(sign_of(snk.u - src.u)),
      sv_(sign_of(snk.v - src.v)) {
  PAMR_CHECK(mesh.contains(src) && mesh.contains(snk),
             "communication endpoints outside mesh");
}

std::vector<Coord> CommRect::cells_at_depth(std::int32_t t) const {
  std::vector<Coord> cells;
  if (t < 0 || t > length()) return cells;
  const std::int32_t a_lo = std::max<std::int32_t>(0, t - dv_);
  const std::int32_t a_hi = std::min(du_, t);
  cells.reserve(static_cast<std::size_t>(a_hi - a_lo + 1));
  for (std::int32_t a = a_lo; a <= a_hi; ++a) cells.push_back(cell_at(a, t - a));
  return cells;
}

std::int32_t CommRect::width_at_depth(std::int32_t t) const noexcept {
  if (t < 0 || t > length()) return 0;
  const std::int32_t a_lo = std::max<std::int32_t>(0, t - dv_);
  const std::int32_t a_hi = std::min(du_, t);
  return a_hi - a_lo + 1;
}

}  // namespace pamr
