// PR — path remover (paper §5.5).
//
// Every communication starts with its full Manhattan path DAG (all links of
// its bounding rectangle) carrying the Figure-3 virtual spread: δ_i/m_t on
// each of the m_t allowed links of diagonal cut t. Then, repeatedly:
//
//   * take the most loaded link;
//   * among the communications still using it (heaviest first), remove the
//     link from the first one whose cut keeps ≥ 2 links — in the monotone
//     rectangle DAG this can never disconnect the source from the sink,
//     which is the paper's "unless this removal would break its last
//     remaining path" rule;
//   * prune links that no longer lie on any surviving src→snk path (the
//     paper's "path cleaning" examples are exactly the fixed point of this
//     forward/backward reachability prune) and re-spread the load.
//
// The process stops when every communication retains a single path. Each
// removal strictly shrinks the union of allowed links, so termination is
// structural.
//
// Two implementations share the CommState machinery below:
//
//   * route_reference — the seed loop: every removal re-sorts all mesh
//     links by load and rescans every communication, O(L log L + nc) per
//     removal. Kept (selectable via Mode::kReference) as the ground truth
//     for differential tests.
//   * route_incremental (default) — answers "most loaded link, heaviest
//     communication using it" from a LoadIndex: the top of a heap keyed on
//     (load, history stamp), re-keyed only for the links whose stored load
//     actually changed, plus per-link heaviest-first membership lists.
//     Links whose scan finds no removable member are retired permanently:
//     every surviving member holds them in a singleton cut, cuts only
//     shrink, and membership only dies, so such a link can never yield a
//     removal again.
//
// Both order removals identically — most-loaded link first with the
// seed's stable-history tie-break (see load_index.hpp), heaviest
// communication first with ties by original index — and keep the load
// array bit-identical at every decision point (see apply_spread_tracked),
// so the routings they produce are bit-identical.
//
// Overload witness (route_incremental under RouteGoal::kVerdict). A link
// that is the only one left in some cut of communication i stays on i's
// final path: cuts only shrink and never empty. Its *forced* load is
// Σ δ_i over the communications that hold it as such a singleton cut, and
// it only grows as cuts shrink. So a forced load that passes
// PowerModel::proven_overload proves the final routing invalid, and the
// call stops. A cut turns singleton only when a removal erases a link from
// it or its prune filters it, which is exactly the window
// prune_after_removal already visits; the forced loads cost no extra scan.
// A two-link cut forces nothing: either link may be removed later. The
// virtual spread (`loads`) proves nothing either, since it moves as paths
// are removed. The reference loop ignores the goal.
#include <algorithm>
#include <numeric>
#include <span>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Reusable reachability buffers for CommState::prune: cells are marked
/// with the current epoch instead of re-allocating (and re-zeroing) two
/// per-core vectors on every removal, as the seed did. `row` is the
/// windowed prune's per-depth recompute buffer. The vectors are the
/// workspace's; construction zeroes the epochs for this call.
struct PruneScratch {
  std::vector<std::uint64_t>& forward;
  std::vector<std::uint64_t>& backward;
  std::vector<char>& row;
  std::uint64_t epoch = 0;

  PruneScratch(RouteWorkspace::PathRemover& buffers, std::size_t num_cores)
      : forward(buffers.sweep_forward),
        backward(buffers.sweep_backward),
        row(buffers.row) {
    forward.assign(num_cores, 0);
    backward.assign(num_cores, 0);
  }
};

/// Per-communication path-DAG state.
///
/// Two prune implementations operate on it. prune() is the seed's full
/// forward/backward reachability sweep over every depth, used by
/// route_reference. prune_after_removal() — route_incremental's — keeps
/// persistent per-cell marks and recomputes only the depth window a
/// removal at cut t0 can have changed: forward marks at depths > t0 until
/// a depth stops changing, backward marks at depths ≤ t0 likewise, then
/// re-filters exactly the cuts whose links read a changed mark. Marks only
/// ever drop, and a cell whose mark goes stale (its support was erased in
/// a cut outside the recompute window) is provably shadowed by the other
/// direction's zero on every surviving link that could read it, so the
/// windowed filter erases exactly the links the full sweep would — the
/// PR differential suite pins reference (full) against incremental
/// (windowed) end to end, and the paranoid check below re-verifies every
/// windowed prune against a fresh sweep.
///
/// The state lives in the workspace's flat arrays (see CommStates below);
/// a CommState is a view of one communication's slice of them. Cut t holds
/// its allowed links at links[cut_begin[t] .. + cut_size[t]); erasing keeps
/// the survivors' order, as std::erase on a per-cut vector would.
struct CommState {
  const CommRect& rect;
  char* allowed;               ///< indexed by LinkId, 1 = usable
  LinkId* links;               ///< every comm's cut slots (global array)
  std::uint32_t* cut_begin;    ///< per depth t: first slot of cut t
  std::uint32_t* cut_size;     ///< per depth t: live links of cut t
  char* forward;               ///< persistent marks, by core index
  char* backward;              ///< (windowed prune only)

  [[nodiscard]] std::span<LinkId> cut(std::int32_t t) const noexcept {
    const auto idx = static_cast<std::size_t>(t);
    return {links + cut_begin[idx], cut_size[idx]};
  }

  /// Drops the links of cut t for which `drop(link)` holds, in order,
  /// calling it once per link (std::erase_if's contract).
  template <class Pred>
  void erase_from_cut(std::int32_t t, Pred drop) const {
    const std::span<LinkId> live = cut(t);
    LinkId* const end = std::remove_if(live.data(), live.data() + live.size(), drop);
    cut_size[static_cast<std::size_t>(t)] = static_cast<std::uint32_t>(end - live.data());
  }

  [[nodiscard]] bool is_single_path() const noexcept {
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      if (cut_size[static_cast<std::size_t>(t)] != 1) return false;
    }
    return true;
  }

  /// Adds (sign × δ/m_t) for every allowed link of every cut.
  void apply_spread(double weight, LinkLoads& loads) const {
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      const std::span<const LinkId> live = cut(t);
      PAMR_ASSERT(!live.empty());
      const double share = weight / static_cast<double>(live.size());
      for (const LinkId link : live) loads.add(link, share);
    }
  }

  /// apply_spread plus first-touch snapshots into `log`. The arithmetic —
  /// cut iteration order, shares, signs — is exactly apply_spread's: the
  /// incremental mode must reproduce the reference's floating-point state
  /// bit for bit (IEEE addition is not associative, so even an unchanged
  /// cut's -share/+share round trip can perturb a stored load by an ulp,
  /// and the reference's next sort sees the perturbed value).
  void apply_spread_tracked(double weight, LinkLoads& loads, TouchLog& log) const {
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      const std::span<const LinkId> live = cut(t);
      PAMR_ASSERT(!live.empty());
      const double share = weight / static_cast<double>(live.size());
      for (const LinkId link : live) {
        log.record(link, loads.load(link));
        loads.add(link, share);
      }
    }
  }

  /// Rebuilds `cuts` from `allowed`, dropping links that are not on any
  /// surviving src→snk path (forward ∩ backward reachability over depths).
  void prune(const Mesh& mesh, PruneScratch& scratch) const {
    const std::int32_t len = rect.length();
    if (len == 0) return;
    const std::uint64_t epoch = ++scratch.epoch;
    // Reachability per cell, keyed by depth-local enumeration.
    auto cell_key = [&](Coord c) {
      return static_cast<std::size_t>(mesh.core_index(c));
    };
    scratch.forward[cell_key(rect.src())] = epoch;
    for (std::int32_t t = 0; t < len; ++t) {
      for (const LinkId link : cut(t)) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.forward[cell_key(info.from)] == epoch) {
          scratch.forward[cell_key(info.to)] = epoch;
        }
      }
    }
    scratch.backward[cell_key(rect.snk())] = epoch;
    for (std::int32_t t = len - 1; t >= 0; --t) {
      for (const LinkId link : cut(t)) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.backward[cell_key(info.to)] == epoch) {
          scratch.backward[cell_key(info.from)] = epoch;
        }
      }
    }
    for (std::int32_t t = 0; t < len; ++t) {
      erase_from_cut(t, [&](LinkId link) {
        const LinkInfo& info = mesh.link(link);
        const bool alive = allowed[static_cast<std::size_t>(link)] != 0 &&
                           scratch.forward[cell_key(info.from)] == epoch &&
                           scratch.backward[cell_key(info.to)] == epoch;
        if (!alive) allowed[static_cast<std::size_t>(link)] = 0;
        return !alive;
      });
      PAMR_ASSERT_MSG(!cut(t).empty(), "prune emptied a cut — connectivity broken");
    }
  }

  /// Windowed prune after the caller erased a link from cut t0 (see struct
  /// comment). Requires the persistent marks (track_reachability). Appends
  /// to `singled` the link of every cut the removal left single: cut t0 (it
  /// held ≥ 2 links before the erase) and each filtered cut that dropped
  /// from ≥ 2 links to one.
  void prune_after_removal(const Mesh& mesh, std::int32_t t0, PruneScratch& scratch,
                           std::vector<LinkId>& singled) const {
    const std::int32_t len = rect.length();
    PAMR_DCHECK(t0 >= 0 && t0 < len);
    PAMR_DCHECK(forward != nullptr);
    if (cut(t0).size() == 1) singled.push_back(cut(t0).front());
    const std::int32_t du = rect.du();
    const std::int32_t dv = rect.dv();
    auto cell_key = [&](Coord c) {
      return static_cast<std::size_t>(mesh.core_index(c));
    };

    // Forward marks can change only at depths > t0 (cuts before t0 are
    // untouched); recompute depth by depth and stop at the first depth
    // with no change — deeper marks depend only on unchanged inputs.
    std::int32_t f_hi = t0;
    for (std::int32_t d = t0; d < len; ++d) {
      const std::int32_t a_lo = std::max<std::int32_t>(0, d + 1 - dv);
      const std::int32_t a_hi = std::min(du, d + 1);
      scratch.row.assign(static_cast<std::size_t>(a_hi - a_lo + 1), 0);
      for (const LinkId link : cut(d)) {
        const LinkInfo& info = mesh.link(link);
        if (forward[cell_key(info.from)] != 0) {
          std::int32_t a = 0;
          std::int32_t b = 0;
          const bool inside = rect.cell_offsets(info.to, a, b);
          PAMR_DCHECK(inside);
          scratch.row[static_cast<std::size_t>(a - a_lo)] = 1;
        }
      }
      bool depth_changed = false;
      for (std::int32_t a = a_lo; a <= a_hi; ++a) {
        char& mark = forward[cell_key(rect.cell(a, d + 1 - a))];
        const char next = scratch.row[static_cast<std::size_t>(a - a_lo)];
        if (mark != next) {
          mark = next;
          depth_changed = true;
        }
      }
      if (!depth_changed) break;
      f_hi = d + 1;
    }

    // Backward marks can change only at depths ≤ t0; sweep toward the
    // source with the same stopping rule.
    std::int32_t b_lo = t0 + 1;
    for (std::int32_t d = t0; d >= 0; --d) {
      const std::int32_t a_lo = std::max<std::int32_t>(0, d - dv);
      const std::int32_t a_hi = std::min(du, d);
      scratch.row.assign(static_cast<std::size_t>(a_hi - a_lo + 1), 0);
      for (const LinkId link : cut(d)) {
        const LinkInfo& info = mesh.link(link);
        if (backward[cell_key(info.to)] != 0) {
          std::int32_t a = 0;
          std::int32_t b = 0;
          const bool inside = rect.cell_offsets(info.from, a, b);
          PAMR_DCHECK(inside);
          scratch.row[static_cast<std::size_t>(a - a_lo)] = 1;
        }
      }
      bool depth_changed = false;
      for (std::int32_t a = a_lo; a <= a_hi; ++a) {
        char& mark = backward[cell_key(rect.cell(a, d - a))];
        const char next = scratch.row[static_cast<std::size_t>(a - a_lo)];
        if (mark != next) {
          mark = next;
          depth_changed = true;
        }
      }
      if (!depth_changed) break;
      b_lo = d;
    }

    // Only links that read a changed mark can change liveness: tails at
    // depths (t0, f_hi] and heads at depths [b_lo, t0]. Cut t0 itself
    // keeps its alive set — its tails' forward and heads' backward marks
    // sit outside both changed ranges.
    auto filter_cut = [&](std::int32_t d) {
      const std::size_t before = cut(d).size();
      erase_from_cut(d, [&](LinkId link) {
        const LinkInfo& info = mesh.link(link);
        const bool alive = allowed[static_cast<std::size_t>(link)] != 0 &&
                           forward[cell_key(info.from)] != 0 &&
                           backward[cell_key(info.to)] != 0;
        if (!alive) allowed[static_cast<std::size_t>(link)] = 0;
        return !alive;
      });
      const std::span<const LinkId> after = cut(d);
      PAMR_ASSERT_MSG(!after.empty(), "prune emptied a cut — connectivity broken");
      if (before >= 2 && after.size() == 1) singled.push_back(after.front());
    };
    for (std::int32_t d = std::max<std::int32_t>(0, b_lo - 1); d < t0; ++d) {
      filter_cut(d);
    }
    for (std::int32_t d = t0 + 1; d <= f_hi; ++d) filter_cut(d);

#if PAMR_CHECK_LEVEL >= 2
    check_windowed_prune(mesh, scratch);
#endif
  }

  /// Paranoid cross-check (automatic under the paranoid level): a fresh
  /// full reachability sweep over the current cuts must find every
  /// surviving link alive — i.e. the full-sweep prune would erase nothing
  /// the windowed prune kept. (Persistent marks are allowed to go stale on
  /// cells no surviving link reads; comparing them directly would
  /// false-positive.)
  void check_windowed_prune(const Mesh& mesh, PruneScratch& scratch) const {
    const std::int32_t len = rect.length();
    const std::uint64_t epoch = ++scratch.epoch;
    auto cell_key = [&](Coord c) {
      return static_cast<std::size_t>(mesh.core_index(c));
    };
    scratch.forward[cell_key(rect.src())] = epoch;
    for (std::int32_t t = 0; t < len; ++t) {
      for (const LinkId link : cut(t)) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.forward[cell_key(info.from)] == epoch) {
          scratch.forward[cell_key(info.to)] = epoch;
        }
      }
    }
    scratch.backward[cell_key(rect.snk())] = epoch;
    for (std::int32_t t = len - 1; t >= 0; --t) {
      for (const LinkId link : cut(t)) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.backward[cell_key(info.to)] == epoch) {
          scratch.backward[cell_key(info.from)] = epoch;
        }
      }
    }
    for (std::int32_t t = 0; t < len; ++t) {
      for (const LinkId link : cut(t)) {
        const LinkInfo& info = mesh.link(link);
        PAMR_INVARIANT_ALWAYS(
            "pr-prune",
            scratch.forward[cell_key(info.from)] == epoch &&
                scratch.backward[cell_key(info.to)] == epoch,
            "windowed prune kept a link the full sweep would erase");
      }
    }
  }

  /// Writes the unique remaining path's links into `path` once single-path.
  void extract_path(const Mesh& mesh, std::span<LinkId> path) const {
    PAMR_ASSERT(path.size() == static_cast<std::size_t>(rect.length()));
    Coord at = rect.src();
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      const std::span<const LinkId> live = cut(t);
      PAMR_ASSERT(live.size() == 1);
      const LinkInfo& info = mesh.link(live.front());
      PAMR_ASSERT(info.from == at);
      path[static_cast<std::size_t>(t)] = live.front();
      at = info.to;
    }
    PAMR_ASSERT(at == rect.snk());
  }
};

/// Every communication's CommState, laid out flat in the workspace: the
/// allowed flags and the reachability marks take one mesh-sized slice per
/// communication, the cuts one slot per rectangle link. Building it also
/// spreads every communication's weight onto `loads` (the initial state).
class CommStates {
 public:
  CommStates(RouteWorkspace::PathRemover& buffers, const Mesh& mesh,
             const CommSet& comms, LinkLoads& loads, bool track_reachability)
      : b_(buffers),
        num_links_(static_cast<std::size_t>(mesh.num_links())),
        num_cores_(static_cast<std::size_t>(mesh.num_cores())),
        track_(track_reachability) {
    b_.rects.clear();
    b_.depth_base.clear();
    b_.cut_begin.clear();
    b_.cut_size.clear();
    b_.cut_links.clear();
    for (const Communication& comm : comms) {
      const CommRect& rect = b_.rects.emplace_back(mesh, comm.src, comm.snk);
      b_.depth_base.push_back(static_cast<std::uint32_t>(b_.cut_begin.size()));
      for (std::int32_t t = 0; t < rect.length(); ++t) {
        b_.cut_begin.push_back(static_cast<std::uint32_t>(b_.cut_links.size()));
        b_.cut_size.push_back(static_cast<std::uint32_t>(rect.cut_size(t)));
        rect.for_each_cut_link(t, [this](LinkId link) { b_.cut_links.push_back(link); });
      }
    }
    b_.allowed.assign(comms.size() * num_links_, 0);
    if (track_) {
      // Every cell of the full rectangle reaches and is reached — all
      // marks start true (cells outside the rectangle are never read).
      b_.forward.assign(comms.size() * num_cores_, 1);
      b_.backward.assign(comms.size() * num_cores_, 1);
    }
    for (std::size_t idx = 0; idx < comms.size(); ++idx) {
      const CommState state = (*this)[idx];
      for (std::int32_t t = 0; t < state.rect.length(); ++t) {
        for (const LinkId link : state.cut(t)) {
          state.allowed[static_cast<std::size_t>(link)] = 1;
        }
      }
      state.apply_spread(comms[idx].weight, loads);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return b_.rects.size(); }

  [[nodiscard]] CommState operator[](std::size_t idx) const {
    return CommState{b_.rects[idx],
                     b_.allowed.data() + idx * num_links_,
                     b_.cut_links.data(),
                     b_.cut_begin.data() + b_.depth_base[idx],
                     b_.cut_size.data() + b_.depth_base[idx],
                     track_ ? b_.forward.data() + idx * num_cores_ : nullptr,
                     track_ ? b_.backward.data() + idx * num_cores_ : nullptr};
  }

  /// Whether communication idx may still use `link`.
  [[nodiscard]] bool allowed(std::size_t idx, LinkId link) const {
    return b_.allowed[idx * num_links_ + static_cast<std::size_t>(link)] != 0;
  }

  [[nodiscard]] std::size_t count_multi_path() const {
    std::size_t active = 0;
    for (std::size_t idx = 0; idx < size(); ++idx) {
      if (!(*this)[idx].is_single_path()) ++active;
    }
    return active;
  }

  /// Writes every communication's remaining path into `paths`.
  void extract_paths(const Mesh& mesh, PathTable& paths) const {
    for (std::size_t idx = 0; idx < size(); ++idx) {
      (*this)[idx].extract_path(mesh, paths.path(idx));
    }
  }

 private:
  RouteWorkspace::PathRemover& b_;
  std::size_t num_links_;
  std::size_t num_cores_;
  bool track_;
};

}  // namespace

RouteResult PathRemoverRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model, RouteGoal goal,
                                          RouteWorkspace& workspace) const {
  return mode_ == Mode::kReference
             ? route_reference(mesh, comms, model, workspace)
             : route_incremental(mesh, comms, model, goal, workspace);
}

RouteResult PathRemoverRouter::route_incremental(const Mesh& mesh,
                                                 const CommSet& comms,
                                                 const PowerModel& model,
                                                 RouteGoal goal,
                                                 RouteWorkspace& workspace) const {
  const WallTimer timer;
  RouteWorkspace::PathRemover& pr = workspace.pr;
  LinkLoads& loads = workspace.loads;
  loads.reset(mesh.num_links());
  const CommStates states(pr, mesh, comms, loads, /*track_reachability=*/true);

  // Forced load per link, tracked for the overload witness only (see file
  // comment); the full rectangle's singleton cuts are forced from the start.
  const bool verdict = goal == RouteGoal::kVerdict;
  const double limit = model.limit();
  std::vector<double>& forced = pr.forced;
  forced.assign(verdict ? static_cast<std::size_t>(mesh.num_links()) : 0, 0.0);
  auto force = [&](LinkId link, double weight) {
    double& load = forced[static_cast<std::size_t>(link)];
    load += weight;
    return PowerModel::proven_overload(load, limit);
  };
  if (verdict) {
    for (std::size_t idx = 0; idx < states.size(); ++idx) {
      const CommState state = states[idx];
      for (std::int32_t t = 0; t < state.rect.length(); ++t) {
        const std::span<const LinkId> cut = state.cut(t);
        if (cut.size() == 1 && force(cut.front(), comms[idx].weight)) {
          obs::sample(obs::Metric::kPrRemovalsPerCall, 0);
          return abandon(timer.elapsed_ms());
        }
      }
    }
  }

  // Heaviest-first candidate order within a link (paper: "the largest
  // communication that uses this link"): member lists are filled in
  // by_weight order, so each list stays heaviest-first under compaction.
  std::vector<std::size_t>& by_weight = workspace.order;
  order_by_decreasing_weight(comms, by_weight);

  LoadIndex& index = pr.index;
  index.reset(loads);
  for (std::size_t idx = 0; idx < states.size(); ++idx) {
    const CommState state = states[idx];
    for (std::int32_t t = 0; t < state.rect.length(); ++t) {
      for (const LinkId link : state.cut(t)) index.count_member(link);
    }
  }
  for (const std::size_t idx : by_weight) {
    const CommState state = states[idx];
    for (std::int32_t t = 0; t < state.rect.length(); ++t) {
      for (const LinkId link : state.cut(t)) {
        index.add_member(link, static_cast<std::uint32_t>(idx));
      }
    }
  }

  std::size_t active = states.count_multi_path();
  PruneScratch scratch(pr, static_cast<std::size_t>(mesh.num_cores()));
  TouchLog& log = pr.log;
  log.reset(static_cast<std::size_t>(mesh.num_links()));
  std::vector<LinkId>& changed = pr.changed;
  std::vector<LinkId>& singled = pr.singled;
  std::size_t removals = 0;

  const std::size_t none = states.size();
  while (active > 0) {
    // Selection: the index's top is the reference's first candidate in
    // (load desc, stable history) order; the first link with a member whose
    // cut keeps ≥ 2 links is exactly the reference's choice.
    LinkId link = kInvalidLink;
    std::size_t chosen = none;
    std::int32_t depth = -1;
    while (!index.empty()) {
      const LinkId cand = index.top();
      if (loads.load(cand) <= 0.0) break;  // same early break as the reference
      const Coord tail = mesh.link(cand).from;
      const std::span<std::uint32_t> members = index.members(cand);
      std::size_t keep = 0;
      for (const std::uint32_t idx : members) {
        if (!states.allowed(idx, cand)) continue;  // compact away
        members[keep++] = idx;
        if (chosen != none) continue;  // found earlier; just finish compacting
        const CommState state = states[idx];
        const std::int32_t t = state.rect.depth(tail);
        PAMR_ASSERT(t >= 0);
        if (state.cut(t).size() >= 2) {
          chosen = idx;
          depth = t;
        }
      }
      index.truncate_members(cand, keep);
      if (chosen != none) {
        link = cand;
        break;
      }
      // Every surviving member holds this link in a singleton cut, so it
      // can never be removed from anyone again: retire it instead of
      // rescanning it every round as the reference does (its position in
      // the order can no longer influence any decision).
      index.retire(cand);
    }
    PAMR_ASSERT_MSG(link != kInvalidLink,
                    "no removable link found while communications remain multi-path");

    const CommState state = states[chosen];
    const double weight = comms[chosen].weight;
    state.apply_spread_tracked(-weight, loads, log);
    state.allowed[static_cast<std::size_t>(link)] = 0;
    state.erase_from_cut(depth, [link](LinkId l) { return l == link; });
    singled.clear();
    state.prune_after_removal(mesh, depth, scratch, singled);
    state.apply_spread_tracked(weight, loads, log);
    log.take_changed(loads, changed);
    index.reorder(changed, loads);
    ++removals;
    obs::bump(obs::Metric::kPrRemovals);
    if (state.is_single_path()) --active;
    if (verdict) {
      for (const LinkId single : singled) {
        if (force(single, weight)) {
          obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
          return abandon(timer.elapsed_ms());
        }
      }
    }
  }

  obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
  workspace.paths.reset(comms);
  states.extract_paths(mesh, workspace.paths);
  return finish(mesh, comms, model, workspace, timer.elapsed_ms());
}

RouteResult PathRemoverRouter::route_reference(const Mesh& mesh, const CommSet& comms,
                                               const PowerModel& model,
                                               RouteWorkspace& workspace) const {
  const WallTimer timer;
  LinkLoads loads(mesh);
  const CommStates states(workspace.pr, mesh, comms, loads, /*track_reachability=*/false);

  // Heaviest-first candidate order within a link (paper: "the largest
  // communication that uses this link").
  const std::vector<std::size_t> by_weight = order_by_decreasing_weight(comms);

  std::vector<LinkId> order(static_cast<std::size_t>(mesh.num_links()));
  std::iota(order.begin(), order.end(), LinkId{0});

  std::size_t active = states.count_multi_path();
  PruneScratch scratch(workspace.pr, static_cast<std::size_t>(mesh.num_cores()));
  std::size_t removals = 0;

  while (active > 0) {
    std::stable_sort(order.begin(), order.end(), [&loads](LinkId a, LinkId b) {
      return loads.load(a) > loads.load(b);
    });

    bool removed = false;
    for (const LinkId link : order) {
      if (loads.load(link) <= 0.0) break;
      for (const std::size_t index : by_weight) {
        if (!states.allowed(index, link)) continue;
        const CommState state = states[index];
        // Find the cut containing this link; removable iff it keeps ≥ 2
        // links (see file comment: in the monotone DAG this preserves
        // src→snk connectivity).
        const std::int32_t t = [&] {
          const LinkInfo& info = mesh.link(link);
          return state.rect.depth(info.from);
        }();
        PAMR_ASSERT(t >= 0);
        if (state.cut(t).size() < 2) continue;

        state.apply_spread(-comms[index].weight, loads);
        state.allowed[static_cast<std::size_t>(link)] = 0;
        state.erase_from_cut(t, [link](LinkId l) { return l == link; });
        state.prune(mesh, scratch);
        state.apply_spread(comms[index].weight, loads);
        ++removals;
        obs::bump(obs::Metric::kPrRemovals);
        if (state.is_single_path()) --active;
        removed = true;
        break;
      }
      if (removed) break;
    }
    PAMR_ASSERT_MSG(removed,
                    "no removable link found while communications remain multi-path");
  }

  obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
  workspace.paths.reset(comms);
  states.extract_paths(mesh, workspace.paths);
  return finish(mesh, comms, model, workspace, timer.elapsed_ms());
}

}  // namespace pamr
