#include "pamr/routing/crossing_index.hpp"

#include <algorithm>
#include <array>

#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

/// Unordered visitor lists: order is irrelevant for stamping, so removal is
/// a swap with the back.
void erase_unordered(std::vector<std::uint32_t>& list, std::uint32_t value) {
  const auto at = std::find(list.begin(), list.end(), value);
  PAMR_ASSERT(at != list.end());
  *at = list.back();
  list.pop_back();
}

}  // namespace

CrossingIndex::CrossingIndex(const Mesh& mesh, std::size_t num_comms)
    : mesh_(&mesh),
      members_(static_cast<std::size_t>(mesh.num_links())),
      hot_(static_cast<std::size_t>(mesh.num_links())),
      cold_(static_cast<std::size_t>(mesh.num_links())),
      visitors_(static_cast<std::size_t>(mesh.num_cores())),
      comm_stamp_(num_comms, 1),  // ≥ 1, so never-computed slots (stamp 0) are stale
      path_epoch_(num_comms, 0),
      core_mark_(static_cast<std::size_t>(mesh.num_cores()), 0),
      fold_best_(static_cast<std::size_t>(mesh.num_links())),
      fold_comm_(static_cast<std::size_t>(mesh.num_links()), 0),
      fold_stamp_(static_cast<std::size_t>(mesh.num_links()), 0),
      h_pair_base_(mesh.p()),
      v_col_base_(mesh.p() + mesh.q()),
      v_pair_base_(mesh.p() + 2 * mesh.q()),
      lane_epoch_(static_cast<std::size_t>(2 * (mesh.p() + mesh.q())), 0),
      band_ref_(static_cast<std::size_t>(mesh.num_links())) {
  // Precompute each link's fold band (see fold_valid): for a horizontal
  // link in row u, the h_row lanes u-1..u+1 and the v_pair row pairs
  // (u-1, u) and (u, u+1), clamped to the mesh; columns mirror for
  // vertical links.
  for (std::int32_t l = 0; l < mesh.num_links(); ++l) {
    const LinkInfo& info = mesh.link(static_cast<LinkId>(l));
    BandRef& ref = band_ref_[static_cast<std::size_t>(l)];
    const auto push = [&ref](std::int32_t idx) {
      ref.idx[ref.n++] = static_cast<std::uint16_t>(idx);
    };
    if (info.horizontal()) {
      const std::int32_t u = info.from.u;
      for (std::int32_t r = std::max(u - 1, 0); r <= std::min(u + 1, mesh.p() - 1); ++r) {
        push(r);  // h_row lane, base 0
      }
      for (std::int32_t r = std::max(u - 1, 0); r <= std::min(u, mesh.p() - 2); ++r) {
        push(v_pair_base_ + r);
      }
    } else {
      const std::int32_t v = info.from.v;
      for (std::int32_t c = std::max(v - 1, 0); c <= std::min(v + 1, mesh.q() - 1); ++c) {
        push(v_col_base_ + c);
      }
      for (std::int32_t c = std::max(v - 1, 0); c <= std::min(v, mesh.q() - 2); ++c) {
        push(h_pair_base_ + c);
      }
    }
  }
}

void CrossingIndex::add_initial_path(std::uint32_t comm,
                                     const std::vector<Coord>& cores) {
  for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
    const LinkId link = mesh_->link_between(cores[k], cores[k + 1]);
    auto& list = members_[static_cast<std::size_t>(link)];
    PAMR_ASSERT(list.empty() || list.back() < comm);  // registration order
    list.push_back(comm);
    hot_[static_cast<std::size_t>(link)].emplace_back();
    cold_[static_cast<std::size_t>(link)].emplace_back();
  }
  for (const Coord core : cores) {
    visitors_[static_cast<std::size_t>(mesh_->core_index(core))].push_back(comm);
  }
}

void CrossingIndex::touch_link_geometry(const LinkInfo& info) {
  if (info.horizontal()) {
    const auto row = static_cast<std::size_t>(info.from.u);
    const auto col = static_cast<std::size_t>(std::min(info.from.v, info.to.v));
    lane_epoch_[row] = epoch_;                                          // h_row
    lane_epoch_[static_cast<std::size_t>(h_pair_base_) + col] = epoch_;  // h_pair
  } else {
    const auto col = static_cast<std::size_t>(info.from.v);
    const auto row = static_cast<std::size_t>(std::min(info.from.u, info.to.u));
    lane_epoch_[static_cast<std::size_t>(v_col_base_) + col] = epoch_;   // v_col
    lane_epoch_[static_cast<std::size_t>(v_pair_base_) + row] = epoch_;  // v_pair
  }
}

void CrossingIndex::apply_rewrite(std::uint32_t comm, const std::vector<Coord>& before,
                                  const std::vector<Coord>& after) {
  PAMR_ASSERT(before.size() == after.size());
  obs::bump(obs::Metric::kXyiIndexRewrites);
  ++epoch_;
  comm_stamp_[comm] = epoch_;
  path_epoch_[comm] = epoch_;
  // Member + eval-slot lists stay parallel and sorted by communication:
  // shifts over short contiguous lists beat node containers here.
  const auto erase_member = [&](LinkId link, std::uint32_t value) {
    auto& list = members_[static_cast<std::size_t>(link)];
    const auto at = std::lower_bound(list.begin(), list.end(), value);
    PAMR_ASSERT(at != list.end() && *at == value);
    const auto pos = at - list.begin();
    hot_[static_cast<std::size_t>(link)].erase(
        hot_[static_cast<std::size_t>(link)].begin() + pos);
    cold_[static_cast<std::size_t>(link)].erase(
        cold_[static_cast<std::size_t>(link)].begin() + pos);
    list.erase(at);
  };
  const auto insert_member = [&](LinkId link, std::uint32_t value) {
    auto& list = members_[static_cast<std::size_t>(link)];
    const auto at = std::lower_bound(list.begin(), list.end(), value);
    PAMR_ASSERT(at == list.end() || *at != value);
    const auto pos = at - list.begin();
    hot_[static_cast<std::size_t>(link)].emplace(
        hot_[static_cast<std::size_t>(link)].begin() + pos);
    cold_[static_cast<std::size_t>(link)].emplace(
        cold_[static_cast<std::size_t>(link)].begin() + pos);
    list.insert(at, value);
  };
  for (std::size_t k = 0; k + 1 < before.size(); ++k) {
    if (before[k] == after[k] && before[k + 1] == after[k + 1]) continue;
    const LinkId removed = mesh_->link_between(before[k], before[k + 1]);
    const LinkId added = mesh_->link_between(after[k], after[k + 1]);
    if (removed == added) continue;
    erase_member(removed, comm);
    insert_member(added, comm);
    // Unconditional geometric bump: membership and window shape changed
    // here even if the later load accounting cancels bit-exactly (e.g. a
    // zero-weight communication), so fold caches in this neighbourhood
    // must not survive on load changes alone.
    touch_link_geometry(mesh_->link(removed));
    touch_link_geometry(mesh_->link(added));
  }
  for (std::size_t k = 0; k < before.size(); ++k) {
    if (before[k] == after[k]) continue;
    erase_unordered(visitors_[static_cast<std::size_t>(mesh_->core_index(before[k]))],
                    comm);
    visitors_[static_cast<std::size_t>(mesh_->core_index(after[k]))].push_back(comm);
  }
#if PAMR_CHECK_LEVEL >= 2
  // Paranoid: the rewritten window's member lists must still be strictly
  // ascending and parallel to their eval slots — the ascending walk is what
  // reproduces the reference candidate scan's tie-breaks bit for bit.
  for (std::size_t k = 0; k + 1 < after.size(); ++k) {
    const auto idx = static_cast<std::size_t>(mesh_->link_between(after[k], after[k + 1]));
    const std::vector<std::uint32_t>& list = members_[idx];
    PAMR_INVARIANT("crossing-index",
                   list.size() == hot_[idx].size() && list.size() == cold_[idx].size(),
                   "member and eval-slot lists diverged");
    PAMR_INVARIANT("crossing-index",
                   std::is_sorted(list.begin(), list.end()) &&
                       std::adjacent_find(list.begin(), list.end()) == list.end(),
                   "member list is not strictly ascending after a rewrite");
  }
#endif
}

void CrossingIndex::stamp_core(Coord core) {
  const auto idx = static_cast<std::size_t>(mesh_->core_index(core));
  if (core_mark_[idx] == epoch_) return;  // already stamped under this move
  core_mark_[idx] = epoch_;
  for (const std::uint32_t comm : visitors_[idx]) comm_stamp_[comm] = epoch_;
}

void CrossingIndex::note_load_change(LinkId link) {
  // The exact reader set of load(link), per the file comment's geometry:
  //   * paths crossing the link itself (a removed-link term) — covered by
  //     the endpoint visitors below;
  //   * paths crossing a core of the link (the moved crossing step enters
  //     or leaves the path there) — the endpoint visitors;
  //   * paths one lane over whose shifted run would land on the link — the
  //     members of the two lane-parallel links.
  const LinkInfo& info = mesh_->link(link);
  touch_link_geometry(info);
  stamp_core(info.from);
  stamp_core(info.to);
  const auto lane_dirs = info.horizontal()
                             ? std::array<LinkDir, 2>{LinkDir::kNorth, LinkDir::kSouth}
                             : std::array<LinkDir, 2>{LinkDir::kEast, LinkDir::kWest};
  for (const LinkDir lane : lane_dirs) {
    const Coord from = step(info.from, lane);
    const LinkId shifted = mesh_->link_from(from, info.dir);
    if (shifted == kInvalidLink) continue;
    for (const std::uint32_t comm : members_[static_cast<std::size_t>(shifted)]) {
      comm_stamp_[comm] = epoch_;
    }
  }
}

}  // namespace pamr
