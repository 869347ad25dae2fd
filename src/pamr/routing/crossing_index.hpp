// Incremental crossing index for the XYI local search (paper §5.4).
//
// XYI's inner loop repeatedly asks "which communications cross the current
// hot link, and does any of them have a strictly improving detour?" — while
// each applied move only rewrites one path window and only changes the
// loads of the links inside it. The seed implementation answered it from
// scratch every round: a scan of every communication's full path per hot
// link, re-done from the top of the link order after every move.
//
// CrossingIndex maintains three things under applied moves:
//
//   * per-link member lists — the communications whose *current* path
//     crosses the link, kept sorted by communication index so a walk
//     reproduces the seed's ascending-ci candidate scan (and its
//     first-candidate tie-break) exactly;
//   * per-(link, member) evaluation slots — each member's cached best
//     candidate rotation and the window it read, revalidated by the
//     read-window rule below;
//   * a per-link fold cache — the whole link's best (candidate, member)
//     pair, reusable in O(1) while the link's three-lane band is untouched.
//
// The per-link member/slot lists live in flat CSR arrays, built in two
// passes over the initial paths (count, then add) with a little slack per
// list. A list that outgrows its slack moves to the end of its array with
// doubled capacity, so a rewrite never allocates once the arrays reached
// their high-water mark; reset() keeps that capacity for the next route
// call.
//
// Two invalidation granularities keep the caches exact rather than
// heuristic:
//
// 1. Read windows (per slot). A slot's value, xyi::best_candidate of one
//    member c at one hot link, depends only on c's path, c's weight and the
//    loads of the links candidate_delta reads. The weight is fixed; every
//    rewrite of c's path bumps c's stamp; every load change bumps the
//    link's epoch (note_load_change). The slot records its xyi::Window, so
//    it is fresh iff c is unrewritten since the slot's stamp and no link of
//    that window's read set has an epoch past it. The read set, with path
//    cores c[k], links l[k] = (c[k], c[k+1]), hot step pos and d the
//    direction of the path's perpendicular steps:
//      * backward candidate (has_prev), steps prev-1..pos rotated so the
//        run l[prev..pos] shifts one lane against d: it removes
//        l[prev-1..pos] and adds the -d lane-parallels of l[prev..pos]
//        plus the d-link into c[pos+1], which closes the shifted run;
//      * forward candidate (has_next), steps pos..next+1 rotated so the run
//        l[pos..next] shifts one lane along d: it removes l[pos..next+1]
//        and adds the d-link out of c[pos], which opens the shifted run,
//        plus the +d lane-parallels of l[pos..next].
//    Each added link's term reads its load (cost(load + w)) and cost_now,
//    which the caller keeps equal to cost(load); each removed link's term
//    reads the same two. Nothing else enters the delta. The lane-parallels
//    and the hot link's d-links come from a per-link table built by
//    reset(), so a check is a few flat reads per window step.
//
// 2. Lane-band epochs (per link). Every member's window around a
//    horizontal link L in row u is a horizontal run in row u shifted to
//    row u±1, closed by perpendicular steps joining rows u-1..u+1 — so the
//    entire fold reads only horizontal-link loads in rows u-1..u+1 and
//    vertical-link loads on the row pairs (u-1,u) and (u,u+1), and
//    membership/shape changes of that window necessarily rewrite a link in
//    the same band. If no band entry advanced past the fold's stamp, every
//    member's candidate and the membership itself are unchanged, and the
//    cached (best, member) pair is the exact fold result. Columns mirror
//    the argument for vertical links.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pamr/mesh/coord.hpp"
#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/xy_moves.hpp"

namespace pamr {

class CrossingIndex {
 public:
  /// Memoized per-(link, member) evaluation: the member's best candidate
  /// rotation (xyi::best_candidate) at the loads of epoch `fresh_stamp`,
  /// and the window that evaluation read. Stamp 0 = never computed (epochs
  /// start at 1).
  struct Slot {
    xyi::Candidate best;
    std::uint64_t fresh_stamp = 0;
    xyi::Window window;
  };

  /// An empty index; reset() prepares it for a mesh.
  CrossingIndex() = default;

  /// Empties the index for `num_comms` communications on `mesh`, keeping
  /// the buffers' capacity, and the geometry tables too when `mesh` has the
  /// previous call's shape (at PAMR_CHECK_LEVEL >= 2 they are rebuilt and
  /// compared). Then register every initial path twice:
  /// count_initial_path for each, then add_initial_path for each.
  void reset(const Mesh& mesh, std::size_t num_comms);

  /// Pass 1: counts the links of one initial path.
  void count_initial_path(std::span<const Coord> cores);

  /// Pass 2: registers a communication's initial path (as visited cores).
  /// Call in increasing `comm` order so member lists start out sorted; the
  /// first call ends pass 1.
  void add_initial_path(std::uint32_t comm, std::span<const Coord> cores);

  /// Communications whose current path crosses `link`, ascending.
  [[nodiscard]] std::span<const std::uint32_t> members(LinkId link) const {
    const Segment& seg = member_seg_[static_cast<std::size_t>(link)];
    return {member_data_.data() + seg.begin, seg.size};
  }

  /// Evaluation slots parallel to members(link), what the fold scans.
  /// Writable by the caller, which recomputes a stale slot whole and
  /// stamps it epoch(). Like members(), valid until the next
  /// apply_rewrite.
  [[nodiscard]] std::span<Slot> slots(LinkId link) {
    const Segment& seg = member_seg_[static_cast<std::size_t>(link)];
    return {slot_data_.data() + seg.begin, seg.size};
  }

  /// True iff the slot of member `comm` at link `hot` still holds the
  /// exact evaluation: `comm`'s path (link ids `path`) is unrewritten since
  /// the slot was stamped and no link of its window's read set (see file
  /// comment) changed load since. fresh_stamp 0 (never computed) is always
  /// stale because comm stamps start at 1.
  [[nodiscard]] bool slot_fresh(const Slot& slot, std::uint32_t comm, LinkId hot,
                                std::span<const LinkId> path) const {
    const std::uint64_t stamp = slot.fresh_stamp;
    if (comm_stamp_[comm] > stamp) return false;
    const auto changed = [&](LinkId link) {
      return link_epoch_[static_cast<std::size_t>(link)] > stamp;
    };
    const xyi::Window& w = slot.window;
    const std::size_t d = w.plus ? 1 : 0;  // side index of the perpendicular steps
    const Reach& at_hot = reach_[static_cast<std::size_t>(hot)];
    if (w.has_prev) {
      if (changed(path[w.prev - 1]) || changed(at_hot.into_to[d])) return false;
      for (std::size_t k = w.prev; k <= w.pos; ++k) {
        const LinkId link = path[k];
        if (changed(link) || changed(reach_[static_cast<std::size_t>(link)].lane[1 - d])) {
          return false;
        }
      }
    }
    if (w.has_next) {
      if (changed(path[w.next + 1]) || changed(at_hot.out_of_from[d])) return false;
      for (std::size_t k = w.pos; k <= w.next; ++k) {
        const LinkId link = path[k];
        if (changed(link) || changed(reach_[static_cast<std::size_t>(link)].lane[d])) {
          return false;
        }
      }
    }
    return true;
  }

  /// The stamp for slots recomputed now.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// A move rewrote `comm`'s path from `before` to `after` (same length,
  /// shared prefix/suffix): advances the move epoch, stamps `comm`'s slots
  /// stale and re-indexes exactly the changed window's links.
  void apply_rewrite(std::uint32_t comm, std::span<const Coord> before,
                     std::span<const Coord> after);

  /// The stored load of `link` changed under the current move: advances
  /// the link's load epoch (which every slot whose window read the link
  /// checks) and its band epochs. Call after apply_rewrite for each link
  /// whose value actually changed.
  void note_load_change(LinkId link);

  /// True iff `link`'s cached fold (best candidate over all members) is
  /// still exact: a fold was recorded and no load change or window rewrite
  /// touched the link's three-lane band since (see file comment). The band
  /// is resolved through per-link precomputed lane offsets — this runs once
  /// per hot-prefix position per round.
  [[nodiscard]] bool fold_valid(LinkId link) const {
    const auto idx = static_cast<std::size_t>(link);
    const std::uint64_t stamp = fold_stamp_[idx];
    if (stamp == 0) return false;
    const BandRef& ref = band_ref_[idx];
    for (std::uint8_t k = 0; k < ref.n; ++k) {
      if (lane_epoch_[ref.idx[k]] > stamp) return false;
    }
    return true;
  }

  /// Caches the fold result of `link` at the current epoch. `best_comm` is
  /// the winning member, or any sentinel when `best` is +inf (no improving
  /// candidate exists among no members).
  void record_fold(LinkId link, const xyi::Candidate& best, std::uint32_t best_comm) {
    const auto idx = static_cast<std::size_t>(link);
    fold_best_[idx] = best;
    fold_comm_[idx] = best_comm;
    fold_stamp_[idx] = epoch_;
  }

  [[nodiscard]] const xyi::Candidate& fold_best(LinkId link) const {
    return fold_best_[static_cast<std::size_t>(link)];
  }
  [[nodiscard]] std::uint32_t fold_comm(LinkId link) const {
    return fold_comm_[static_cast<std::size_t>(link)];
  }

 private:
  /// A link's fold band, as offsets into lane_epoch_: the (up to three)
  /// same-lane lanes plus the (up to two) adjacent perpendicular pairs a
  /// fold of the link could have read. Precomputed per link so fold_valid
  /// is a handful of flat array reads.
  struct BandRef {
    std::uint8_t n = 0;
    std::uint16_t idx[5] = {0, 0, 0, 0, 0};

    bool operator==(const BandRef&) const = default;
  };

  /// The links one lane over from a link, per side of its perpendicular
  /// axis (index 0 toward -u/-v, 1 toward +u/+v), for the read-window
  /// check: `lane[s]` is the parallel link shifted toward side s,
  /// `out_of_from[s]` the perpendicular link leaving `from` toward s, and
  /// `into_to[s]` the perpendicular link heading toward s into `to`.
  /// kInvalidLink past the mesh boundary, where no window reads.
  struct Reach {
    LinkId lane[2] = {kInvalidLink, kInvalidLink};
    LinkId out_of_from[2] = {kInvalidLink, kInvalidLink};
    LinkId into_to[2] = {kInvalidLink, kInvalidLink};

    bool operator==(const Reach&) const = default;
  };

  /// One CSR list: entries [begin, begin + size) of its arrays, with room
  /// for `cap` before it must move.
  struct Segment {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// Fills the per-link geometry tables (read-window neighbours and fold
  /// bands) of `mesh`; reads the lane bases, so set them first.
  void build_geometry(const Mesh& mesh, std::vector<Reach>& reach_of,
                      std::vector<BandRef>& band_of) const;
  /// Ends pass 1: lays every counted list out with its slack.
  void seal();
  /// Makes room for one more member of `link`.
  void reserve_member(LinkId link);
  void insert_member(LinkId link, std::uint32_t comm);
  void erase_member(LinkId link, std::uint32_t comm);

  /// Stamps `info`'s band epochs at the current epoch — called for every
  /// load change and for every link entering or leaving a rewritten window
  /// (the latter unconditionally, so shape and membership changes
  /// invalidate fold caches even when a load change cancels out
  /// bit-exactly).
  void touch_link_geometry(const LinkInfo& info);

  const Mesh* mesh_ = nullptr;
  std::uint64_t epoch_ = 1;                            ///< applied-move counter
  bool sealed_ = false;                                ///< pass 2 started
  std::vector<Segment> member_seg_;                    ///< link → its member list
  std::vector<std::uint32_t> member_data_;             ///< crossing comms, sorted
  std::vector<Slot> slot_data_;                        ///< parallel to member_data_
  std::vector<std::uint64_t> comm_stamp_;              ///< comm → epoch last rewritten
  std::vector<std::uint64_t> link_epoch_;              ///< link → epoch of its last load change
  std::vector<Reach> reach_;                           ///< link → its read-window neighbours
  // Per-link fold cache (see file comment).
  std::vector<xyi::Candidate> fold_best_;
  std::vector<std::uint32_t> fold_comm_;
  std::vector<std::uint64_t> fold_stamp_;              ///< 0 = no fold recorded
  // Lane epochs for the per-link fold check. Horizontal links live in a
  // row and span a column pair; vertical links live in a column and span a
  // row pair. Concatenated: h_row (row → last horizontal-link change in it,
  // size p), then h_pair (col c → last horizontal-link change spanning
  // c,c+1, size q), then v_col (size q), then v_pair (size p). One array so
  // BandRef entries are plain offsets.
  std::int32_t h_pair_base_ = 0;
  std::int32_t v_col_base_ = 0;
  std::int32_t v_pair_base_ = 0;
  std::vector<std::uint64_t> lane_epoch_;
  std::vector<BandRef> band_ref_;  ///< link → its fold band's lane offsets
  // The shape reach_ and band_ref_ were built for (0 × 0: none yet).
  std::int32_t geometry_p_ = 0;
  std::int32_t geometry_q_ = 0;
};

}  // namespace pamr
