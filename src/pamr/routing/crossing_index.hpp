// Incremental crossing index for the XYI local search (paper §5.4).
//
// XYI's inner loop repeatedly asks "which communications cross the current
// hot link, and does any of them have a strictly improving detour?" — while
// each applied move only rewrites one path window and only changes the
// loads of the links inside it. The seed implementation answered it from
// scratch every round: a scan of every communication's full path per hot
// link, re-done from the top of the link order after every move.
//
// CrossingIndex maintains four things under applied moves:
//
//   * per-link member lists — the communications whose *current* path
//     crosses the link, kept sorted by communication index so a walk
//     reproduces the reference's ascending-ci candidate scan (and its
//     first-candidate tie-break) exactly;
//   * per-core visitor lists — the communications whose path visits the
//     core, which is the reverse mapping needed for dirty stamping (below);
//   * per-(link, member) evaluation slots — each member's cached candidate
//     rotations, revalidated by the comm-level stamp below;
//   * a per-link fold cache — the whole link's best (candidate, member)
//     pair, reusable in O(1) while the link's three-lane band is untouched.
//
// The per-link member/hot-slot lists and the per-core visitor lists live in
// flat CSR arrays, built in two passes over the initial paths (count, then
// add) with a little slack per list. A list that outgrows its slack moves
// to the end of its array with doubled capacity, so a rewrite never
// allocates once the arrays reached their high-water mark; reset() keeps
// that capacity for the next route call.
//
// Two invalidation granularities keep the caches exact rather than
// heuristic:
//
// 1. Comm-level stamps (per slot). Evaluating a hot link L reads, per
//    crossing communication c: c's path (the rotation windows) and the
//    loads of the candidate removed/added links. A candidate rotation's
//    links are exactly (i) removed steps, which lie on c's path, (ii) the
//    shifted run, whose links are one-lane parallels of path steps, and
//    (iii) the moved crossing step, which has one endpoint on c's path.
//    Inverting that: when the load of link ℓ changes, the communications
//    whose cached evaluations could have read it are the visitors of ℓ's
//    two endpoint cores (covers i and iii) plus the members of ℓ's two
//    lane-parallel links (covers ii). A slot whose communication is older
//    than every relevant stamp is therefore still exact; a stamp-dirtied
//    one is re-evaluated.
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
  /// Memoized per-(link, member) evaluation, split hot/cold (SoA): the fold
  /// scans every member's SlotHot each time a link is re-folded — tens of
  /// millions of sequential reads per overloaded descent — while SlotCold
  /// is touched only for the members the comm stamp dirtied. Keeping the
  /// scanned half at 32 bytes (two per cache line) is worth the split. The
  /// hot halves sit in the link's member list; the cold halves are stored
  /// by (member, path position), which names the same slot: a monotone
  /// path crosses a link only at the link's Manhattan depth from the
  /// source. So the cold table is exactly one entry per path step, with no
  /// list slack.
  ///
  /// One SlotCold entry per candidate rotation (at most two, in
  /// preferred-side-first evaluation order — the order the strict-<
  /// tie-break of the fold depends on). Each candidate carries its own
  /// compute stamp, so a recompute touches only the sides computed before
  /// the comm's dirty stamp; the other side's cached delta stays exact.
  /// `count` and the rotations' j/i/forward (stored inside cand[]) are pure
  /// functions of the path shape, derived at `spec_stamp` and valid while
  /// the path is unrewritten (path_epoch ≤ spec_stamp). Stamp 0 = never
  /// computed (epochs start at 1).
  struct SlotHot {
    /// combined(cold), refreshed by the caller whenever cand[] changes.
    xyi::Candidate best;
    /// min over the active candidates' cstamps (the epoch of processing
    /// when there are no candidates); the slot as a whole is fresh while
    /// this is ≥ the member's dirty stamp.
    std::uint64_t fresh_stamp = 0;
  };
  struct SlotCold {
    xyi::Candidate cand[2];
    std::uint64_t cstamp[2] = {0, 0};
    std::uint64_t spec_stamp = 0;
    std::uint8_t count = 0;
  };

  /// The slot's fold contribution: best of its cached candidates, in
  /// evaluation order with the strict-< tie-break (+inf when it has none).
  [[nodiscard]] static xyi::Candidate combined(const SlotCold& slot) {
    xyi::Candidate best;
    if (slot.count >= 1) best = slot.cand[0];
    if (slot.count == 2 && slot.cand[1].delta < best.delta) best = slot.cand[1];
    return best;
  }

  /// An empty index; reset() prepares it for a mesh.
  CrossingIndex() = default;

  /// Empties the index for `num_comms` communications on `mesh`, keeping
  /// the buffers' capacity. Then register every initial path twice:
  /// count_initial_path for each, then add_initial_path for each.
  void reset(const Mesh& mesh, std::size_t num_comms);

  /// Pass 1: counts the links and cores of one initial path.
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

  /// Hot halves of the evaluation slots parallel to members(link) — what
  /// the fold scans. Writable by the caller, which keeps hot.best and
  /// fresh_stamp in sync with the cold state they derive from. Like
  /// members(), valid until the next apply_rewrite.
  [[nodiscard]] std::span<SlotHot> hot_slots(LinkId link) {
    const Segment& seg = member_seg_[static_cast<std::size_t>(link)];
    return {hot_data_.data() + seg.begin, seg.size};
  }

  /// Cold half of `comm`'s slot for the link its path crosses at step
  /// `pos` (xyi::known_crossing_position), touched only when dirty.
  [[nodiscard]] SlotCold& cold_slot(std::uint32_t comm, std::size_t pos) {
    return cold_[cold_begin_[comm] + pos];
  }

  /// True iff the slot (belonging to `comm`) still reflects the current
  /// state: every candidate's stamp at or past the comm's dirty stamp
  /// (which also implies the path is unrewritten since, as a rewrite bumps
  /// the dirty stamp too). fresh_stamp 0 (never computed) is always stale
  /// because comm stamps start at 1.
  [[nodiscard]] bool slot_fresh(const SlotHot& slot, std::uint32_t comm) const {
    return slot.fresh_stamp >= comm_stamp_[comm];
  }

  /// Epoch of the last rewrite of `comm`'s own path (0 = never).
  [[nodiscard]] std::uint64_t path_epoch(std::uint32_t comm) const {
    return path_epoch_[comm];
  }

  /// Epoch `comm` was last stamped dirty — per-candidate freshness is
  /// cstamp ≥ dirty_stamp(comm).
  [[nodiscard]] std::uint64_t dirty_stamp(std::uint32_t comm) const {
    return comm_stamp_[comm];
  }

  /// The stamp for slots recomputed now.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// A move rewrote `comm`'s path from `before` to `after` (same length,
  /// shared prefix/suffix): advances the move epoch, stamps `comm` dirty and
  /// re-indexes exactly the changed window's links and cores.
  void apply_rewrite(std::uint32_t comm, std::span<const Coord> before,
                     std::span<const Coord> after);

  /// The stored load of `link` changed under the current move: stamps every
  /// communication whose path passes within one hop of it (the set whose
  /// cached evaluations could have read this load — see file comment) and
  /// advances the link's band epochs. Call after apply_rewrite for each
  /// link whose value actually changed.
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
  };

  /// One CSR list: entries [begin, begin + size) of its arrays, with room
  /// for `cap` before it must move.
  struct Segment {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// Ends pass 1: lays every counted list out with its slack.
  void seal();
  /// Makes room for one more member of `link`.
  void reserve_member(LinkId link);
  /// Makes room for one more visitor of core `idx`.
  void reserve_visitor(std::size_t idx);
  void insert_member(LinkId link, std::uint32_t comm);
  void erase_member(LinkId link, std::uint32_t comm);
  void push_visitor(std::size_t idx, std::uint32_t comm);
  void erase_visitor(std::size_t idx, std::uint32_t comm);

  void stamp_core(Coord core);
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
  std::vector<SlotHot> hot_data_;                      ///< parallel to member_data_
  std::vector<SlotCold> cold_;                         ///< by (comm, path position)
  std::vector<std::uint32_t> cold_begin_;              ///< comm → its first cold slot
  std::vector<Segment> visitor_seg_;                   ///< core → its visitor list
  std::vector<std::uint32_t> visitor_data_;            ///< visiting comms, unordered
  std::vector<std::uint64_t> comm_stamp_;              ///< comm → epoch last dirtied
  std::vector<std::uint64_t> path_epoch_;              ///< comm → epoch last rewritten
  std::vector<std::uint64_t> core_mark_;               ///< scratch: core stamped this epoch
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
};

}  // namespace pamr
