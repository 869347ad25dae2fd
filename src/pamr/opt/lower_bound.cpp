#include "pamr/opt/lower_bound.hpp"

#include <cmath>

#include "pamr/util/assert.hpp"

namespace pamr {

std::vector<double> direction_cut_traffic(const Mesh& mesh, const CommSet& comms,
                                          Quadrant direction) {
  const std::size_t num_cuts = static_cast<std::size_t>(mesh.p() + mesh.q() - 2);
  std::vector<double> traffic(num_cuts, 0.0);
  for (const Communication& comm : comms) {
    if (quadrant_of(comm.src, comm.snk) != direction) continue;
    const std::int32_t k_src = diagonal_index(mesh, direction, comm.src);
    const std::int32_t k_snk = diagonal_index(mesh, direction, comm.snk);
    PAMR_ASSERT(k_snk >= k_src);
    for (std::int32_t k = k_src; k < k_snk; ++k) {
      traffic[static_cast<std::size_t>(k)] += comm.weight;
    }
  }
  return traffic;
}

namespace {

/// Adds `weight` to slots [from, to) of `traffic`.
void add_span(std::vector<double>& traffic, std::int32_t from, std::int32_t to,
              double weight) {
  for (std::int32_t k = from; k < to; ++k) traffic[static_cast<std::size_t>(k)] += weight;
}

bool any_exceeds(const std::vector<double>& traffic, double bound) {
  for (const double t : traffic) {
    if (PowerModel::proven_overload(t, bound)) return true;
  }
  return false;
}

}  // namespace

bool certify_infeasible(const Mesh& mesh, const CommSet& comms, const PowerModel& model) {
  const double cap = model.limit();

  // 1. Diagonal cuts: every direction-d path crosses cut k of family d on
  // one of its m(k) links.
  for (int d = 0; d < kNumQuadrants; ++d) {
    const auto direction = static_cast<Quadrant>(d);
    const std::vector<double> traffic = direction_cut_traffic(mesh, comms, direction);
    for (std::size_t k = 0; k < traffic.size(); ++k) {
      const std::int32_t m =
          diagonal_cut_size(mesh, direction, static_cast<std::int32_t>(k));
      if (PowerModel::proven_overload(traffic[k], static_cast<double>(m) * cap)) {
        return true;
      }
    }
  }

  // 2. Row and column cuts: a path is monotone in each coordinate, so it
  // crosses every column boundary between its endpoints on one of the p
  // links of its horizontal direction there (and every row boundary on one
  // of q vertical links).
  const std::int32_t p = mesh.p();
  const std::int32_t q = mesh.q();
  std::vector<double> east(static_cast<std::size_t>(q - 1), 0.0);
  std::vector<double> west(east.size(), 0.0);
  std::vector<double> south(static_cast<std::size_t>(p - 1), 0.0);
  std::vector<double> north(south.size(), 0.0);
  for (const Communication& comm : comms) {
    if (comm.snk.v > comm.src.v) add_span(east, comm.src.v, comm.snk.v, comm.weight);
    if (comm.snk.v < comm.src.v) add_span(west, comm.snk.v, comm.src.v, comm.weight);
    if (comm.snk.u > comm.src.u) add_span(south, comm.src.u, comm.snk.u, comm.weight);
    if (comm.snk.u < comm.src.u) add_span(north, comm.snk.u, comm.src.u, comm.weight);
  }
  if (any_exceeds(east, static_cast<double>(p) * cap) ||
      any_exceeds(west, static_cast<double>(p) * cap) ||
      any_exceeds(south, static_cast<double>(q) * cap) ||
      any_exceeds(north, static_cast<double>(q) * cap)) {
    return true;
  }

  // 3. Forced loads: a same-row or same-column communication has exactly one
  // Manhattan path, so every routing puts its whole weight on those links.
  std::vector<double> forced(static_cast<std::size_t>(mesh.num_links()), 0.0);
  for (const Communication& comm : comms) {
    if (comm.src.u != comm.snk.u && comm.src.v != comm.snk.v) continue;
    const LinkDir dir = comm.src.u == comm.snk.u
                            ? (comm.snk.v > comm.src.v ? LinkDir::kEast : LinkDir::kWest)
                            : (comm.snk.u > comm.src.u ? LinkDir::kSouth : LinkDir::kNorth);
    for (Coord at = comm.src; at != comm.snk; at = step(at, dir)) {
      forced[static_cast<std::size_t>(mesh.link_from(at, dir))] += comm.weight;
    }
  }
  return any_exceeds(forced, cap);
}

DiagonalBound diagonal_lower_bound(const Mesh& mesh, const CommSet& comms,
                                   const PowerModel& model) {
  const PowerParams& params = model.params();
  DiagonalBound bound;
  for (int d = 0; d < kNumQuadrants; ++d) {
    const auto direction = static_cast<Quadrant>(d);
    const std::vector<double> traffic = direction_cut_traffic(mesh, comms, direction);
    double sum = 0.0;
    for (std::size_t k = 0; k < traffic.size(); ++k) {
      if (traffic[k] <= 0.0) continue;
      const std::int32_t m =
          diagonal_cut_size(mesh, direction, static_cast<std::int32_t>(k));
      PAMR_ASSERT(m > 0);
      const double per_link = traffic[k] / static_cast<double>(m);
      sum += static_cast<double>(m) * params.p0 *
             std::pow(per_link * params.load_unit, params.alpha);
    }
    bound.per_direction[d] = sum;
    bound.total += sum;
  }
  return bound;
}

}  // namespace pamr
