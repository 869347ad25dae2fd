// Incremental hot-link orders for the PR path remover (paper §5.5) and the
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
// reproduce it. Instead every live link gets a *stamp* chosen so that the
// seed's order is exactly (load desc, stamp asc), and the live links are
// kept in order on that key.
//
// The stamp rule. One round of the seed computes
//
//   stable_sort(order, by new load)  ==  sort by (new load desc, old position asc).
//
// So (load desc, stamp asc) is the seed's order exactly when this
// invariant holds: for any two live links with equal load, stamp order is
// the seed's order. It holds initially with stamp = LinkId, because a
// stable sort of the identity permutation breaks ties by LinkId. Let M be
// the links whose load moved this round, and group them into *tied
// classes* by (direction, new load): the links that fell onto one load, or
// rose onto one. Assign:
//   * a fallen link alone in its class: a fresh stamp below every stamp in
//     use; a risen one: a fresh stamp above every stamp in use;
//   * the links of a class of two or more: fresh stamps in their old order
//     (ranked by old key) — below every stamp in use if they fell, above
//     if they rose;
//   * every other link keeps its stamp.
// Claim: for any two live links a, b with equal new load L, new stamp(a) <
// new stamp(b) iff a preceded b in the old order. Case by case:
//   * neither moved: both had old load L, so the old order between them was
//     decided by their unchanged stamps;
//   * one moved, say a fell and b did not: a's old load was > L = b's, so a
//     preceded b, and a's stamp is below every stamp in use, b's included;
//     if a rose, symmetrically a followed b and its stamp is above b's;
//   * both moved in opposite directions, say a fell and b rose: old load(a)
//     > L > old load(b), so a preceded b, and a's stamp is below every old
//     stamp while b's is above all of them;
//   * both moved in the same direction: they fell (or rose) onto the same
//     L, so they form one tied class, whose stamps were handed out in old
//     order.
// Links of different new load are ordered by load in both. Hence (new load
// desc, new stamp asc) is exactly the seed's next order, and by induction
// every round's. Only the tied classes need a ranking, and they are rare (on
// mesh16_routable 2% of the moved keys are in one), so a round costs one
// pass over M plus a sort of its tied keys. A link reported as changed
// whose stored load equals its current load did not move and keeps its
// stamp. Retired links leave the order; dropping a link from a stable sort
// never changes the relative order of the others, so the live order is
// unaffected.
//
// Both orders below apply this rule through one StampRule, so the proof
// covers both. They differ in how they keep the live links in that order:
//
//   * LoadIndex (PR) keeps them in an indexed binary heap. A round costs
//     O(|M|) to restamp the moved links (plus the sort of their tied
//     classes) and O(log L) per link it sifts, instead of O(L) for a
//     rebuild; PR reads only top(). A link's heap entry may be a stale
//     upper bound: an older key that precedes its true key (kept per
//     link). A fall, or a rise that stays behind the entry, leaves the
//     heap alone; a rise past it is written in and sifted up. The heap
//     property holds on the entries, so once top() has re-keyed and sifted
//     down stale tops, the top entry is a true key that precedes every
//     entry and hence every true key: the seed's first link. Stamps are
//     still drawn at once (they encode the order of events).
//   * LoadOrder (XYI) keeps them in one flat array, sorted. XYI reads it
//     from the front through a cursor and starts over after every applied
//     move, so it wants every prefix step O(1). A round merges the moved
//     links back into the affected range only (see LoadOrder::reorder).
//
// The index also keeps a membership list per link — the indices of the
// communications whose path DAG still contains the link, heaviest-first —
// so PR's "largest communication using this link" scan is O(members)
// instead of O(nc); lists are compacted lazily by the caller. Lists only
// ever shrink, so they live in one CSR array built in two passes (count
// every membership, then add them in order). Links whose scan proves
// permanently unremovable are retire()d: erased from the heap for good
// (the caller's monotonicity argument lives in path_remover.cpp).
//
// Every class here resets in place (reset()), keeping its capacity, so a
// RouteWorkspace can reuse them across route calls.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pamr/mesh/mesh.hpp"
#include "pamr/routing/link_loads.hpp"

namespace pamr {

/// First-touch snapshots of stored link loads across one XYI move, so the
/// caller can hand LoadOrder::reorder
/// exactly the links whose stored double actually changed — including the
/// ulp-sized perturbations a -w/+w round trip can leave on a link both the
/// old and new state touch (IEEE addition is not associative, and the
/// seed loops' next sort sees the perturbed bits).
struct TouchLog {
  std::vector<LinkId> links;
  std::vector<double> before;
  std::vector<char> seen;  ///< indexed by LinkId

  TouchLog() = default;
  explicit TouchLog(std::size_t num_links) : seen(num_links, 0) {}

  /// Empties the log for a link space of `num_links` links.
  void reset(std::size_t num_links) {
    links.clear();
    before.clear();
    seen.assign(num_links, 0);
  }

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

/// One live link's key in the seed's order: (load desc, stamp asc). Stamps
/// are unique, so the order is strict.
struct LoadKey {
  double load;
  std::int64_t stamp;
  LinkId link;
};

[[nodiscard]] inline bool precedes(const LoadKey& a, const LoadKey& b) {
  return a.load > b.load || (a.load == b.load && a.stamp < b.stamp);
}

/// The stamp rule of the file comment, shared by LoadIndex and LoadOrder.
/// Owns the scratch of its tied-class table, so a reused rule allocates
/// nothing once the table has grown to the largest moved set seen.
class StampRule {
 public:
  /// Initial stamps are the LinkIds 0 .. num_links-1.
  void reset(std::size_t num_links) {
    low_ = -1;
    high_ = static_cast<std::int64_t>(num_links);
  }

  /// Takes the old keys of one round's moved links (each link's load in
  /// `loads` differs from its key's) and turns them into their new keys:
  /// each link's new load, and a fresh stamp — low if it fell, high if it
  /// rose — ranked against the other moved links of its tied class (same
  /// direction, same new load) by old key. `moved` keeps its arrangement.
  /// O(|moved|) plus a sort of the keys in tied classes. At
  /// PAMR_CHECK_LEVEL >= 2 every call re-ranks the moved keys with a full
  /// sort by old key and checks each tied class against it.
  void restamp(std::vector<LoadKey>& moved, const LinkLoads& loads);

 private:
  /// One tied class in the open-addressed table: its (direction, new load)
  /// tag, live when `epoch` is the current round's, and its size.
  struct Slot {
    std::uint64_t tag = 0;
    std::uint32_t epoch = 0;
    std::uint32_t count = 0;
  };

  void check_tied_classes(const std::vector<LoadKey>& moved, const LinkLoads& loads);

  std::int64_t low_ = -1;  ///< next stamp below every stamp in use
  std::int64_t high_ = 0;  ///< next stamp above every stamp in use
  std::vector<Slot> slots_;              ///< tied-class table, power-of-two size
  std::uint32_t epoch_ = 0;              ///< current round's slot epoch
  std::vector<std::uint32_t> class_of_;  ///< per moved key: its slot
  std::vector<std::uint32_t> tied_;      ///< moved keys in classes of two or more
  std::vector<std::int64_t> drawn_;      ///< one tied class's fresh stamps
  std::vector<LoadKey> old_keys_;        ///< the moved keys' old keys
};

class LoadIndex {
 public:
  /// An empty index; reset() fills it.
  LoadIndex() = default;

  /// Captures the seed's first round: the identity permutation stably
  /// sorted by the initial loads (ties by LinkId). O(L), heapifying only
  /// the loaded links.
  explicit LoadIndex(const LinkLoads& loads) { reset(loads); }

  /// Rebuilds the index in place for `loads`, as the constructor does;
  /// every member list is emptied. Keeps the buffers' capacity. At
  /// PAMR_CHECK_LEVEL >= 2 it ends with check_invariants.
  void reset(const LinkLoads& loads);

  // ------------------------------------------------------- membership --
  /// Pass 1 of the membership build: counts one future add_member(link, ·).
  void count_member(LinkId link);

  /// Pass 2: appends `comm` to the link's member list. Call once per
  /// counted membership, in heaviest-first (order_by_decreasing_weight)
  /// order so the list order matches the seed's scan order. The first
  /// call ends pass 1; counting after it is an error.
  void add_member(LinkId link, std::uint32_t comm);

  /// Mutable member list, for the caller's lazy compaction during scans;
  /// truncate_members() then drops the compacted tail.
  [[nodiscard]] std::span<std::uint32_t> members(LinkId link) {
    const auto idx = static_cast<std::size_t>(link);
    return {member_data_.data() + member_begin_[idx], member_size_[idx]};
  }

  /// Shortens the link's member list to its first `size` entries.
  void truncate_members(LinkId link, std::size_t size) {
    PAMR_DCHECK(size <= member_size_[static_cast<std::size_t>(link)]);
    member_size_[static_cast<std::size_t>(link)] = static_cast<std::uint32_t>(size);
  }

  // ------------------------------------------------------------ order --
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// The first live link of the seed's order (highest load, history
  /// tie-break), after re-keying stale top entries (see the file comment).
  /// Requires !empty().
  [[nodiscard]] LinkId top() {
    PAMR_DCHECK(!heap_.empty());
    while (heap_.front().stamp != key_[static_cast<std::size_t>(heap_.front().link)].stamp) {
      ++repairs_;
      sift_down(0, key_[static_cast<std::size_t>(heap_.front().link)]);
    }
    return heap_.front().link;
  }

  /// Stale tops re-keyed by top() since reset() (load_index.repairs).
  [[nodiscard]] std::uint64_t repairs() const noexcept { return repairs_; }

  /// Marks a link permanently unremovable and erases it from the order in
  /// O(log L); any later load change reported for it is ignored (its
  /// relative order can never matter again).
  void retire(LinkId link);

  /// Re-establishes the seed's order after one update changed the stored
  /// loads of `changed` (no duplicates; retired links and links whose load
  /// did not actually move are skipped). Exactly equivalent to the seed's
  /// stable_sort of the persistent order vector by the new loads, as read
  /// through top(); costs O(moved) plus O(log L) per link that rises past
  /// its heap entry. At PAMR_CHECK_LEVEL >= 2 every call re-verifies the
  /// full structural invariant against `loads` (O(L) per call).
  void reorder(const std::vector<LinkId>& changed, const LinkLoads& loads);

  /// Verifies the index's structural invariants against the current loads:
  /// pos_ and the heap agree, every parent entry strictly precedes its
  /// children, every live link's true key holds loads.load(link), and its
  /// entry precedes or equals that key. Throws pamr::InvariantError
  /// (category "load-index") on the first violation — a true load that
  /// differs from `loads` means some load change was never reported to
  /// reorder(), which is exactly the corruption that silently changes the
  /// heuristics' link order. Called automatically from reorder() under the
  /// paranoid check level; always callable directly (tests do).
  void check_invariants(const LinkLoads& loads) const;

 private:
  /// Write `key` into slot `at` and sift it to its place. They take the
  /// key by value: it may alias a heap slot they overwrite.
  void sift_up(std::size_t at, LoadKey key);
  void sift_down(std::size_t at, LoadKey key);

  std::vector<LoadKey> heap_;      ///< live links' stored entries, heap on precedes()
  std::vector<LoadKey> key_;       ///< link -> true key; its entry precedes or equals it
  std::vector<std::int32_t> pos_;  ///< link -> heap slot, -1 once retired
  std::uint64_t repairs_ = 0;      ///< stale tops re-keyed since reset()
  StampRule stamps_;
  std::vector<LoadKey> moved_;     ///< scratch: keys of the moved links
  // Member lists, CSR: link l's list is member_data_[member_begin_[l] ..
  // + member_size_[l]). While counting (pass 1) member_size_ holds counts.
  std::vector<std::uint32_t> member_begin_;
  std::vector<std::uint32_t> member_size_;
  std::vector<std::uint32_t> member_data_;
  bool members_sealed_ = false;  ///< pass 2 started
};

/// The live links of the seed's order in one flat array, for XYI: at(k) is
/// the k-th link, so a reader walks any prefix in O(1) per step and starts
/// over for free after an update. XYI never retires a link, so every link
/// stays live.
class LoadOrder {
 public:
  /// Rebuilds the order for `loads`: the seed's first round, (load desc,
  /// LinkId asc). Only the loaded links are sorted; the idle ones already
  /// sit at the back in LinkId order. Keeps the buffers' capacity. At
  /// PAMR_CHECK_LEVEL >= 2 it ends with check_invariants.
  void reset(const LinkLoads& loads);

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// The link at position k of the order.
  [[nodiscard]] LinkId at(std::size_t k) const { return keys_[k].link; }

  /// Re-establishes the seed's order after one update changed the stored
  /// loads of `changed` (no duplicates; links whose load did not move are
  /// skipped), exactly as LoadIndex::reorder does. The moved links take
  /// their new keys by the stamp rule and are merged back into [lo, hi):
  /// lo and hi are the min and max, over the moved links, of the old
  /// position and of the lower_bound of the new key in the old array.
  /// Outside that range no link changes position (see load_index.cpp).
  /// Costs O(moved · log L + hi − lo). At PAMR_CHECK_LEVEL >= 2 every call
  /// re-verifies check_invariants (O(L) per call).
  void reorder(const std::vector<LinkId>& changed, const LinkLoads& loads);

  /// Verifies the order against the current loads: it is strictly sorted,
  /// pos_ agrees with the array, every link appears once and its stored
  /// load equals loads.load(link). Throws pamr::InvariantError (category
  /// "load-order") on the first violation.
  void check_invariants(const LinkLoads& loads) const;

 private:
  std::vector<LoadKey> keys_;       ///< every link, sorted by precedes()
  std::vector<std::uint32_t> pos_;  ///< link -> position in keys_
  StampRule stamps_;
  std::vector<LoadKey> moved_;      ///< scratch: keys of the moved links
};

}  // namespace pamr
