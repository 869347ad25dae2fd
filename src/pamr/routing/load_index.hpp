// Incremental hot-link index for the PR path remover (paper §5.5) and the
// XY improver (§5.4).
//
// Both heuristics repeatedly ask one question — "which is the most loaded
// link?" — while each local change (a PR removal, an XYI move) only changes
// a handful of link loads. The seed answered it from scratch every time: a
// stable_sort of a persistent vector of every mesh link by load.
//
// Crucially, that sort is *stable*: equal-load links keep the relative
// order they had in the previous round, so the effective tie-break is the
// whole load history. Exact equal loads are common — every link of a PR
// cut carries the same δ/m share — so this history is observable in the
// final routing, and a plain (load, LinkId) priority queue does NOT
// reproduce it. LoadIndex instead gives every live link a *stamp* chosen so
// that the seed's order is exactly (load desc, stamp asc), and keeps the
// live links in an indexed binary heap on that key.
//
// The stamp rule. One round of the seed computes
//
//   stable_sort(order, by new load)  ==  sort by (new load desc, old position asc).
//
// Suppose the old order is (old load desc, stamp asc) — true initially with
// stamp = LinkId, because a stable sort of the identity permutation breaks
// ties by LinkId. Let M be the links whose load moved this round. Assign:
//   * links whose load fell: fresh stamps below every stamp in use, in
//     reverse old order (so among them, stamp order == old order);
//   * links whose load rose: fresh stamps above every stamp in use, in old
//     order (so again stamp order == old order);
//   * every other link keeps its stamp.
// Claim: for any two live links a, b with equal new load L, new stamp(a) <
// new stamp(b) iff a preceded b in the old order. Case by case:
//   * neither moved: both had old load L, so the old order between them was
//     decided by their unchanged stamps;
//   * a fell, b did not move: a's old load was > L = b's, so a preceded b;
//     a's stamp is below every stamp in use, in particular below b's;
//   * a rose, b did not move: symmetrically a followed b, and a's stamp is
//     above b's;
//   * a fell, b rose: old load(a) > L > old load(b), so a preceded b, and
//     a's stamp is below every old stamp while b's is above all of them;
//   * both fell, or both rose: the fresh stamps were handed out so that
//     their order is the old order.
// Links of different new load are ordered by load in both. Hence (new load
// desc, new stamp asc) is exactly the seed's next order, and by induction
// every round's. A link reported as changed whose stored load equals its
// current load did not move and keeps its stamp. Retired links leave the
// heap; dropping a link from a stable sort never changes the relative order
// of the others, so the live order is unaffected.
//
// Each round therefore costs O(|M| log |M|) to rank the moved links by
// their old key plus O(|M| log L) to sift them, instead of O(L) for a
// rebuild: PR reads only top(), and XYI reads a short prefix through a
// Walk.
//
// The index also keeps a membership list per link — the indices of the
// communications whose path DAG still contains the link, heaviest-first —
// so PR's "largest communication using this link" scan is O(members)
// instead of O(nc); lists are compacted lazily by the caller. Links whose
// scan proves permanently unremovable are retire()d: erased from the heap
// for good (the caller's monotonicity argument lives in path_remover.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/link_loads.hpp"

namespace pamr {

/// First-touch snapshots of stored link loads across one incremental update
/// (a PR removal, an XYI move), so the caller can hand LoadIndex::reorder
/// exactly the links whose stored double actually changed — including the
/// ulp-sized perturbations a -w/+w round trip can leave on a link both the
/// old and new state touch (IEEE addition is not associative, and the
/// reference loops' next sort sees the perturbed bits).
struct TouchLog {
  std::vector<LinkId> links;
  std::vector<double> before;
  std::vector<char> seen;  ///< indexed by LinkId

  explicit TouchLog(std::size_t num_links) : seen(num_links, 0) {}

  void record(LinkId link, double load) {
    if (seen[static_cast<std::size_t>(link)] != 0) return;
    seen[static_cast<std::size_t>(link)] = 1;
    links.push_back(link);
    before.push_back(load);
  }

  /// Ends one update: fills `changed` with the logged links whose stored
  /// load now differs from its snapshot, in first-touch order, and clears
  /// the log for the next update.
  void take_changed(const LinkLoads& loads, std::vector<LinkId>& changed) {
    changed.clear();
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (loads.load(links[i]) != before[i]) changed.push_back(links[i]);
    }
    for (const LinkId link : links) seen[static_cast<std::size_t>(link)] = 0;
    links.clear();
    before.clear();
  }
};

class LoadIndex {
 public:
  /// Captures the seed's first round: the identity permutation stably
  /// sorted by the initial loads (ties by LinkId). O(L) heapify.
  explicit LoadIndex(const LinkLoads& loads);

  // ------------------------------------------------------- membership --
  /// Appends `comm` to the link's member list. Call in heaviest-first
  /// (order_by_decreasing_weight) order at construction time so the list
  /// order matches the reference scan order.
  void add_member(LinkId link, std::uint32_t comm);

  /// Mutable member list, for the caller's lazy compaction during scans.
  [[nodiscard]] std::vector<std::uint32_t>& members(LinkId link) {
    return members_[static_cast<std::size_t>(link)];
  }

  // ------------------------------------------------------------ order --
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// The first live link of the seed's order (highest load, history
  /// tie-break). Requires !empty().
  [[nodiscard]] LinkId top() const {
    PAMR_DCHECK(!heap_.empty());
    return heap_.front().link;
  }

  /// Marks a link permanently unremovable and erases it from the order in
  /// O(log L); any later load change reported for it is ignored (its
  /// relative order can never matter again).
  void retire(LinkId link);

  /// Re-establishes the seed's order after one update changed the stored
  /// loads of `changed` (no duplicates; retired links and links whose load
  /// did not actually move are skipped). Exactly equivalent to the seed's
  /// stable_sort of the persistent order vector by the new loads; costs
  /// O(moved · log L). At PAMR_CHECK_LEVEL >= 2 every call re-verifies the
  /// full structural invariant against `loads` (O(L) per call).
  void reorder(const std::vector<LinkId>& changed, const LinkLoads& loads);

  /// Verifies the index's structural invariants against the current loads:
  /// pos_ and the heap agree, every parent strictly precedes its children,
  /// and every live link's stored load equals loads.load(link). Throws
  /// pamr::InvariantError (category "load-index") on the first violation —
  /// a stored load that differs from `loads` means some load change was
  /// never reported to reorder(), which is exactly the corruption that
  /// silently changes the heuristics' link order. Called automatically from
  /// reorder() under the paranoid check level; always callable directly
  /// (tests do).
  void check_invariants(const LinkLoads& loads) const;

  /// In-order walk over the live links (the seed's full sorted order),
  /// O(log k) per step after k steps: a small frontier heap holds the heap
  /// slots whose parents were already yielded. Any reorder() or retire()
  /// invalidates the walk until restart().
  class Walk {
   public:
    explicit Walk(const LoadIndex& index) : index_(&index) { restart(); }

    /// The next link in order, or kInvalidLink once every live link was
    /// yielded.
    [[nodiscard]] LinkId next();

    /// Starts over from the first link of the index's current order.
    void restart();

   private:
    /// Frontier heap operations, ordered by the index's keys of the slots.
    void replace_first(std::uint32_t slot);
    void push(std::uint32_t slot);

    const LoadIndex* index_;
    std::vector<std::uint32_t> frontier_;  ///< heap slots, first-in-order on top
  };

 private:
  /// One live link's key: order is (load desc, stamp asc); stamps are
  /// unique, so the order is strict.
  struct Entry {
    double load;
    std::int64_t stamp;
    LinkId link;
  };
  static bool precedes(const Entry& a, const Entry& b) {
    return a.load > b.load || (a.load == b.load && a.stamp < b.stamp);
  }

  /// Writes `entry` into slot `at` (whose previous key is being replaced)
  /// and sifts it to its place. The sifts take the entry by value: it may
  /// alias a heap slot they overwrite.
  void update(std::size_t at, const Entry& entry);
  void sift_up(std::size_t at, Entry entry);
  void sift_down(std::size_t at, Entry entry);

  std::vector<Entry> heap_;        ///< live links, binary heap on precedes()
  std::vector<std::int32_t> pos_;  ///< link -> heap slot, -1 once retired
  std::int64_t low_stamp_;         ///< next stamp below every stamp in use
  std::int64_t high_stamp_;        ///< next stamp above every stamp in use
  std::vector<Entry> moved_;       ///< scratch: old keys of moved links
  std::vector<std::vector<std::uint32_t>> members_;
};

}  // namespace pamr
