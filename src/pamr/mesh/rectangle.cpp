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

bool CommRect::offsets(Coord c, std::int32_t& a, std::int32_t& b) const noexcept {
  // With a zero step sign the rectangle is degenerate along that axis and
  // the offset must be zero.
  const std::int32_t raw_a = su_ != 0 ? (c.u - src_.u) * su_ : c.u - src_.u;
  const std::int32_t raw_b = sv_ != 0 ? (c.v - src_.v) * sv_ : c.v - src_.v;
  if (raw_a < 0 || raw_a > du_ || raw_b < 0 || raw_b > dv_) return false;
  a = raw_a;
  b = raw_b;
  return true;
}

Coord CommRect::cell_at(std::int32_t a, std::int32_t b) const noexcept {
  return {src_.u + su_ * a, src_.v + sv_ * b};
}

bool CommRect::contains(Coord c) const noexcept {
  std::int32_t a = 0;
  std::int32_t b = 0;
  return offsets(c, a, b);
}

std::int32_t CommRect::depth(Coord c) const noexcept {
  std::int32_t a = 0;
  std::int32_t b = 0;
  if (!offsets(c, a, b)) return -1;
  return a + b;
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

CommRect::Steps CommRect::next_steps(Coord c) const {
  Steps steps;
  std::int32_t a = 0;
  std::int32_t b = 0;
  if (!offsets(c, a, b)) return steps;
  if (a < du_) {
    const Coord to = cell_at(a + 1, b);
    steps.items[steps.n++] = Step{mesh_->link_between(c, to), to};
  }
  if (b < dv_) {
    const Coord to = cell_at(a, b + 1);
    steps.items[steps.n++] = Step{mesh_->link_between(c, to), to};
  }
  return steps;
}

std::int32_t CommRect::cut_size(std::int32_t t) const noexcept {
  if (t < 0 || t >= length()) return 0;
  const std::int32_t a_lo = std::max<std::int32_t>(0, t - dv_);
  const std::int32_t a_hi = std::min(du_, t);
  std::int32_t count = 0;
  for (std::int32_t a = a_lo; a <= a_hi; ++a) {
    if (a < du_) ++count;       // vertical step available
    if (t - a < dv_) ++count;   // horizontal step available
  }
  return count;
}

}  // namespace pamr
