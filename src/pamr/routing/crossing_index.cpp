#include "pamr/routing/crossing_index.hpp"

#include <algorithm>
#include <array>

#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

/// Free entries each list starts with beyond its initial count: room for a
/// move or two before a list has to move to the end of its array; more
/// slack costs resident memory on large meshes, where most lists are short.
constexpr std::uint32_t kListSlack = 2;

/// Capacity of a list that moves: double its old one, and at least this.
constexpr std::uint32_t kMinMovedCap = 4;

}  // namespace

void CrossingIndex::reset(const Mesh& mesh, std::size_t num_comms) {
  mesh_ = &mesh;
  epoch_ = 1;
  sealed_ = false;
  const auto links = static_cast<std::size_t>(mesh.num_links());
  const auto cores = static_cast<std::size_t>(mesh.num_cores());
  member_seg_.assign(links, Segment{});
  member_data_.clear();
  hot_data_.clear();
  cold_.clear();
  cold_begin_.assign(num_comms, 0);
  visitor_seg_.assign(cores, Segment{});
  visitor_data_.clear();
  comm_stamp_.assign(num_comms, 1);  // ≥ 1, so never-computed slots (stamp 0) are stale
  path_epoch_.assign(num_comms, 0);
  core_mark_.assign(cores, 0);
  fold_best_.assign(links, xyi::Candidate{});
  fold_comm_.assign(links, 0);
  fold_stamp_.assign(links, 0);
  h_pair_base_ = mesh.p();
  v_col_base_ = mesh.p() + mesh.q();
  v_pair_base_ = mesh.p() + 2 * mesh.q();
  lane_epoch_.assign(static_cast<std::size_t>(2 * (mesh.p() + mesh.q())), 0);
  band_ref_.assign(links, BandRef{});
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

void CrossingIndex::count_initial_path(std::span<const Coord> cores) {
  PAMR_ASSERT(!sealed_);
  for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
    const LinkId link = mesh_->link_between(cores[k], cores[k + 1]);
    ++member_seg_[static_cast<std::size_t>(link)].cap;
  }
  for (const Coord core : cores) {
    ++visitor_seg_[static_cast<std::size_t>(mesh_->core_index(core))].cap;
  }
}

void CrossingIndex::seal() {
  // Pass 1 left each list's count in `cap`; lay the lists out back to back.
  std::uint32_t next = 0;
  for (Segment& seg : member_seg_) {
    seg.begin = next;
    seg.cap += kListSlack;
    next += seg.cap;
  }
  member_data_.resize(next);
  hot_data_.resize(next);
  next = 0;
  for (Segment& seg : visitor_seg_) {
    seg.begin = next;
    seg.cap += kListSlack;
    next += seg.cap;
  }
  visitor_data_.resize(next);
  sealed_ = true;
}

void CrossingIndex::add_initial_path(std::uint32_t comm, std::span<const Coord> cores) {
  if (!sealed_) seal();
  // Fresh cold slots, one per step: resize value-initializes them.
  cold_begin_[comm] = static_cast<std::uint32_t>(cold_.size());
  cold_.resize(cold_.size() + cores.size() - 1);
  for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
    const LinkId link = mesh_->link_between(cores[k], cores[k + 1]);
    // Registration order: comm is the largest member so far.
    const Segment& seg = member_seg_[static_cast<std::size_t>(link)];
    PAMR_ASSERT(seg.size == 0 || member_data_[seg.begin + seg.size - 1] < comm);
    insert_member(link, comm);
  }
  for (const Coord core : cores) {
    push_visitor(static_cast<std::size_t>(mesh_->core_index(core)), comm);
  }
}

void CrossingIndex::reserve_member(LinkId link) {
  Segment& seg = member_seg_[static_cast<std::size_t>(link)];
  if (seg.size < seg.cap) return;
  // Full: move the list (and its slots) to the end with doubled room.
  const std::uint32_t cap = std::max(kMinMovedCap, 2 * seg.cap);
  const auto begin = static_cast<std::uint32_t>(member_data_.size());
  member_data_.resize(begin + cap);
  hot_data_.resize(begin + cap);
  std::copy_n(member_data_.begin() + seg.begin, seg.size, member_data_.begin() + begin);
  std::copy_n(hot_data_.begin() + seg.begin, seg.size, hot_data_.begin() + begin);
  seg.begin = begin;
  seg.cap = cap;
}

void CrossingIndex::reserve_visitor(std::size_t idx) {
  Segment& seg = visitor_seg_[idx];
  if (seg.size < seg.cap) return;
  const std::uint32_t cap = std::max(kMinMovedCap, 2 * seg.cap);
  const auto begin = static_cast<std::uint32_t>(visitor_data_.size());
  visitor_data_.resize(begin + cap);
  std::copy_n(visitor_data_.begin() + seg.begin, seg.size, visitor_data_.begin() + begin);
  seg.begin = begin;
  seg.cap = cap;
}

// Member and hot-slot lists stay parallel and sorted by communication:
// shifts over short contiguous lists beat node containers here.
void CrossingIndex::insert_member(LinkId link, std::uint32_t comm) {
  reserve_member(link);
  Segment& seg = member_seg_[static_cast<std::size_t>(link)];
  std::uint32_t* list = member_data_.data() + seg.begin;
  std::uint32_t* const at = std::lower_bound(list, list + seg.size, comm);
  PAMR_ASSERT(at == list + seg.size || *at != comm);
  const std::size_t pos = seg.begin + static_cast<std::size_t>(at - list);
  const std::size_t end = seg.begin + seg.size;
  std::copy_backward(member_data_.begin() + pos, member_data_.begin() + end,
                     member_data_.begin() + end + 1);
  std::copy_backward(hot_data_.begin() + pos, hot_data_.begin() + end,
                     hot_data_.begin() + end + 1);
  member_data_[pos] = comm;
  hot_data_[pos] = SlotHot{};
  ++seg.size;
}

void CrossingIndex::erase_member(LinkId link, std::uint32_t comm) {
  Segment& seg = member_seg_[static_cast<std::size_t>(link)];
  std::uint32_t* list = member_data_.data() + seg.begin;
  std::uint32_t* const at = std::lower_bound(list, list + seg.size, comm);
  PAMR_ASSERT(at != list + seg.size && *at == comm);
  const std::size_t pos = seg.begin + static_cast<std::size_t>(at - list);
  const std::size_t end = seg.begin + seg.size;
  std::copy(member_data_.begin() + pos + 1, member_data_.begin() + end,
            member_data_.begin() + pos);
  std::copy(hot_data_.begin() + pos + 1, hot_data_.begin() + end,
            hot_data_.begin() + pos);
  --seg.size;
}

void CrossingIndex::push_visitor(std::size_t idx, std::uint32_t comm) {
  reserve_visitor(idx);
  Segment& seg = visitor_seg_[idx];
  visitor_data_[seg.begin + seg.size++] = comm;
}

/// Visitor lists are unordered: order is irrelevant for stamping, so
/// removal is a swap with the back.
void CrossingIndex::erase_visitor(std::size_t idx, std::uint32_t comm) {
  Segment& seg = visitor_seg_[idx];
  std::uint32_t* list = visitor_data_.data() + seg.begin;
  std::uint32_t* const at = std::find(list, list + seg.size, comm);
  PAMR_ASSERT(at != list + seg.size);
  *at = list[seg.size - 1];
  --seg.size;
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

void CrossingIndex::apply_rewrite(std::uint32_t comm, std::span<const Coord> before,
                                  std::span<const Coord> after) {
  PAMR_ASSERT(before.size() == after.size());
  obs::bump(obs::Metric::kXyiIndexRewrites);
  ++epoch_;
  comm_stamp_[comm] = epoch_;
  path_epoch_[comm] = epoch_;
  for (std::size_t k = 0; k + 1 < before.size(); ++k) {
    if (before[k] == after[k] && before[k + 1] == after[k + 1]) continue;
    const LinkId removed = mesh_->link_between(before[k], before[k + 1]);
    const LinkId added = mesh_->link_between(after[k], after[k + 1]);
    if (removed == added) continue;
    erase_member(removed, comm);
    insert_member(added, comm);
    cold_slot(comm, k) = SlotCold{};  // the new link's slot starts empty
    // Unconditional geometric bump: membership and window shape changed
    // here even if the later load accounting cancels bit-exactly (e.g. a
    // zero-weight communication), so fold caches in this neighbourhood
    // must not survive on load changes alone.
    touch_link_geometry(mesh_->link(removed));
    touch_link_geometry(mesh_->link(added));
  }
  for (std::size_t k = 0; k < before.size(); ++k) {
    if (before[k] == after[k]) continue;
    erase_visitor(static_cast<std::size_t>(mesh_->core_index(before[k])), comm);
    push_visitor(static_cast<std::size_t>(mesh_->core_index(after[k])), comm);
  }
#if PAMR_CHECK_LEVEL >= 2
  // Paranoid: the rewritten window's member lists must still be strictly
  // ascending — the ascending walk is what reproduces the reference
  // candidate scan's tie-breaks bit for bit.
  for (std::size_t k = 0; k + 1 < after.size(); ++k) {
    const std::span<const std::uint32_t> list =
        members(mesh_->link_between(after[k], after[k + 1]));
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
  const Segment& seg = visitor_seg_[idx];
  for (std::uint32_t k = 0; k < seg.size; ++k) {
    comm_stamp_[visitor_data_[seg.begin + k]] = epoch_;
  }
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
    for (const std::uint32_t comm : members(shifted)) comm_stamp_[comm] = epoch_;
  }
}

}  // namespace pamr
