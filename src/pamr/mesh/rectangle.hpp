// Oriented monotone rectangle of a communication.
//
// A Manhattan path from src to snk never leaves the axis-aligned bounding
// rectangle of {src, snk} and only ever steps in the two directions of the
// communication's quadrant. CommRect captures that sub-DAG: cells indexed
// by "depth" (L1 distance from src), the ≤2 feasible steps out of each
// cell, and the link cuts between consecutive depths. SG, IG, TB, PR, the
// lower bounds, the exact solver and the Frank–Wolfe optimizer all walk
// this structure instead of re-deriving the geometry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pamr/mesh/diagonal.hpp"
#include "pamr/mesh/mesh.hpp"

namespace pamr {

class CommRect {
 public:
  CommRect(const Mesh& mesh, Coord src, Coord snk);

  [[nodiscard]] const Mesh& mesh() const noexcept { return *mesh_; }
  [[nodiscard]] Coord src() const noexcept { return src_; }
  [[nodiscard]] Coord snk() const noexcept { return snk_; }
  [[nodiscard]] Quadrant quadrant() const noexcept { return quadrant_; }

  /// Absolute row/column extents and total path length (paper's ℓ_i).
  [[nodiscard]] std::int32_t du() const noexcept { return du_; }
  [[nodiscard]] std::int32_t dv() const noexcept { return dv_; }
  [[nodiscard]] std::int32_t length() const noexcept { return du_ + dv_; }

  [[nodiscard]] bool contains(Coord c) const noexcept;

  /// L1 distance from src; defined for cells inside the rectangle.
  [[nodiscard]] std::int32_t depth(Coord c) const noexcept;

  /// Offsets of a cell from src along the quadrant's step directions
  /// (a = rows advanced ∈ [0, du], b = columns advanced ∈ [0, dv]); false
  /// when `c` lies outside the rectangle. The inverse of cell().
  [[nodiscard]] bool cell_offsets(Coord c, std::int32_t& a,
                                  std::int32_t& b) const noexcept {
    return offsets(c, a, b);
  }

  /// The cell at offsets (a, b) from src; callers pass offsets in range.
  [[nodiscard]] Coord cell(std::int32_t a, std::int32_t b) const noexcept {
    return cell_at(a, b);
  }

  /// Cells of the rectangle at the given depth t ∈ [0, length()], ordered by
  /// increasing row offset.
  [[nodiscard]] std::vector<Coord> cells_at_depth(std::int32_t t) const;

  /// Number of cells at depth t (no allocation).
  [[nodiscard]] std::int32_t width_at_depth(std::int32_t t) const noexcept;

  struct Step {
    LinkId link = kInvalidLink;
    Coord to;
  };

  /// At most two steps, stored inline: the hop-by-hop walks of SG and IG
  /// ask for them at every core, so they must not touch the heap.
  struct Steps {
    Step items[2];
    std::size_t n = 0;

    [[nodiscard]] const Step* begin() const noexcept { return items; }
    [[nodiscard]] const Step* end() const noexcept { return items + n; }
    [[nodiscard]] std::size_t size() const noexcept { return n; }
    [[nodiscard]] bool empty() const noexcept { return n == 0; }
    [[nodiscard]] const Step& operator[](std::size_t i) const noexcept {
      return items[i];
    }
    [[nodiscard]] const Step& front() const noexcept { return items[0]; }
  };

  /// The ≤2 monotone steps from `c` that remain inside the rectangle
  /// (vertical first, then horizontal, for deterministic iteration order).
  [[nodiscard]] Steps next_steps(Coord c) const;

  /// Calls f(link) for every link crossing from depth t to depth t+1
  /// inside the rectangle — the per-communication cut used by IG's virtual
  /// pre-routing and PR — in a fixed order: cells by increasing row
  /// offset, the vertical step of a cell before its horizontal one.
  template <class F>
  void for_each_cut_link(std::int32_t t, F&& f) const {
    if (t < 0 || t >= length()) return;
    const std::int32_t a_lo = t > dv_ ? t - dv_ : 0;
    const std::int32_t a_hi = t < du_ ? t : du_;
    for (std::int32_t a = a_lo; a <= a_hi; ++a) {
      const Coord c = cell_at(a, t - a);
      if (a < du_) f(mesh_->link_between(c, cell_at(a + 1, t - a)));
      if (t - a < dv_) f(mesh_->link_between(c, cell_at(a, t - a + 1)));
    }
  }

  /// Number of links in cut t (closed form: cells at depth t each contribute
  /// their in-rectangle steps).
  [[nodiscard]] std::int32_t cut_size(std::int32_t t) const noexcept;

 private:
  /// Offset of a cell from src along the quadrant's step directions:
  /// a = rows advanced (0..du), b = columns advanced (0..dv).
  [[nodiscard]] bool offsets(Coord c, std::int32_t& a, std::int32_t& b) const noexcept;
  [[nodiscard]] Coord cell_at(std::int32_t a, std::int32_t b) const noexcept;

  const Mesh* mesh_;
  Coord src_;
  Coord snk_;
  Quadrant quadrant_;
  std::int32_t du_;
  std::int32_t dv_;
  std::int32_t su_;  ///< row step sign (-1, 0, +1)
  std::int32_t sv_;  ///< column step sign
};

}  // namespace pamr
