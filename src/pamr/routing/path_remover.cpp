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

#include "pamr/mesh/rectangle.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Reusable reachability buffers for CommState::prune: cells are marked
/// with the current epoch instead of re-allocating (and re-zeroing) two
/// per-core vectors on every removal, as the seed did. `row` is the
/// windowed prune's per-depth recompute buffer.
struct PruneScratch {
  std::vector<std::uint64_t> forward;
  std::vector<std::uint64_t> backward;
  std::vector<char> row;
  std::uint64_t epoch = 0;

  explicit PruneScratch(std::size_t num_cores)
      : forward(num_cores, 0), backward(num_cores, 0) {}
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
struct CommState {
  CommRect rect;
  std::vector<char> allowed;             ///< indexed by LinkId, 1 = usable
  std::vector<std::vector<LinkId>> cuts; ///< allowed links per depth t
  std::vector<char> forward;             ///< persistent marks, by core index
  std::vector<char> backward;            ///< (windowed prune only)

  CommState(const Mesh& mesh, const Communication& comm, bool track_reachability)
      : rect(mesh, comm.src, comm.snk),
        allowed(static_cast<std::size_t>(mesh.num_links()), 0) {
    cuts.resize(static_cast<std::size_t>(rect.length()));
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      cuts[static_cast<std::size_t>(t)] = rect.cut_links(t);
      for (const LinkId link : cuts[static_cast<std::size_t>(t)]) {
        allowed[static_cast<std::size_t>(link)] = 1;
      }
    }
    if (track_reachability) {
      // Every cell of the full rectangle reaches and is reached — all
      // marks start true (cells outside the rectangle are never read).
      forward.assign(static_cast<std::size_t>(mesh.num_cores()), 1);
      backward.assign(static_cast<std::size_t>(mesh.num_cores()), 1);
    }
  }

  [[nodiscard]] bool is_single_path() const noexcept {
    for (const auto& cut : cuts) {
      if (cut.size() != 1) return false;
    }
    return true;
  }

  /// Adds (sign × δ/m_t) for every allowed link of every cut.
  void apply_spread(double weight, LinkLoads& loads) const {
    for (const auto& cut : cuts) {
      PAMR_ASSERT(!cut.empty());
      const double share = weight / static_cast<double>(cut.size());
      for (const LinkId link : cut) loads.add(link, share);
    }
  }

  /// apply_spread plus first-touch snapshots into `log`. The arithmetic —
  /// cut iteration order, shares, signs — is exactly apply_spread's: the
  /// incremental mode must reproduce the reference's floating-point state
  /// bit for bit (IEEE addition is not associative, so even an unchanged
  /// cut's -share/+share round trip can perturb a stored load by an ulp,
  /// and the reference's next sort sees the perturbed value).
  void apply_spread_tracked(double weight, LinkLoads& loads, TouchLog& log) const {
    for (const auto& cut : cuts) {
      PAMR_ASSERT(!cut.empty());
      const double share = weight / static_cast<double>(cut.size());
      for (const LinkId link : cut) {
        log.record(link, loads.load(link));
        loads.add(link, share);
      }
    }
  }

  /// Rebuilds `cuts` from `allowed`, dropping links that are not on any
  /// surviving src→snk path (forward ∩ backward reachability over depths).
  void prune(const Mesh& mesh, PruneScratch& scratch) {
    const std::int32_t len = rect.length();
    if (len == 0) return;
    const std::uint64_t epoch = ++scratch.epoch;
    // Reachability per cell, keyed by depth-local enumeration.
    auto cell_key = [&](Coord c) {
      return static_cast<std::size_t>(mesh.core_index(c));
    };
    scratch.forward[cell_key(rect.src())] = epoch;
    for (std::int32_t t = 0; t < len; ++t) {
      for (const LinkId link : cuts[static_cast<std::size_t>(t)]) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.forward[cell_key(info.from)] == epoch) {
          scratch.forward[cell_key(info.to)] = epoch;
        }
      }
    }
    scratch.backward[cell_key(rect.snk())] = epoch;
    for (std::int32_t t = len - 1; t >= 0; --t) {
      for (const LinkId link : cuts[static_cast<std::size_t>(t)]) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.backward[cell_key(info.to)] == epoch) {
          scratch.backward[cell_key(info.from)] = epoch;
        }
      }
    }
    for (auto& cut : cuts) {
      std::erase_if(cut, [&](LinkId link) {
        const LinkInfo& info = mesh.link(link);
        const bool alive = allowed[static_cast<std::size_t>(link)] != 0 &&
                           scratch.forward[cell_key(info.from)] == epoch &&
                           scratch.backward[cell_key(info.to)] == epoch;
        if (!alive) allowed[static_cast<std::size_t>(link)] = 0;
        return !alive;
      });
      PAMR_ASSERT_MSG(!cut.empty(), "prune emptied a cut — connectivity broken");
    }
  }

  /// Windowed prune after the caller erased a link from cut t0 (see struct
  /// comment). Requires the persistent marks (track_reachability). Appends
  /// to `singled` the link of every cut the removal left single: cut t0 (it
  /// held ≥ 2 links before the erase) and each filtered cut that dropped
  /// from ≥ 2 links to one.
  void prune_after_removal(const Mesh& mesh, std::int32_t t0, PruneScratch& scratch,
                           std::vector<LinkId>& singled) {
    const std::int32_t len = rect.length();
    PAMR_DCHECK(t0 >= 0 && t0 < len);
    PAMR_DCHECK(!forward.empty());
    if (cuts[static_cast<std::size_t>(t0)].size() == 1) {
      singled.push_back(cuts[static_cast<std::size_t>(t0)].front());
    }
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
      for (const LinkId link : cuts[static_cast<std::size_t>(d)]) {
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
      for (const LinkId link : cuts[static_cast<std::size_t>(d)]) {
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
      auto& cut = cuts[static_cast<std::size_t>(d)];
      const std::size_t before = cut.size();
      std::erase_if(cut, [&](LinkId link) {
        const LinkInfo& info = mesh.link(link);
        const bool alive = allowed[static_cast<std::size_t>(link)] != 0 &&
                           forward[cell_key(info.from)] != 0 &&
                           backward[cell_key(info.to)] != 0;
        if (!alive) allowed[static_cast<std::size_t>(link)] = 0;
        return !alive;
      });
      PAMR_ASSERT_MSG(!cut.empty(), "prune emptied a cut — connectivity broken");
      if (before >= 2 && cut.size() == 1) singled.push_back(cut.front());
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
      for (const LinkId link : cuts[static_cast<std::size_t>(t)]) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.forward[cell_key(info.from)] == epoch) {
          scratch.forward[cell_key(info.to)] = epoch;
        }
      }
    }
    scratch.backward[cell_key(rect.snk())] = epoch;
    for (std::int32_t t = len - 1; t >= 0; --t) {
      for (const LinkId link : cuts[static_cast<std::size_t>(t)]) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.backward[cell_key(info.to)] == epoch) {
          scratch.backward[cell_key(info.from)] = epoch;
        }
      }
    }
    for (const auto& cut : cuts) {
      for (const LinkId link : cut) {
        const LinkInfo& info = mesh.link(link);
        PAMR_INVARIANT_ALWAYS(
            "pr-prune",
            scratch.forward[cell_key(info.from)] == epoch &&
                scratch.backward[cell_key(info.to)] == epoch,
            "windowed prune kept a link the full sweep would erase");
      }
    }
  }

  /// Extracts the unique remaining path once single-path.
  [[nodiscard]] Path extract_path(const Mesh& mesh) const {
    Path path;
    path.src = rect.src();
    path.snk = rect.snk();
    path.links.reserve(cuts.size());
    Coord at = rect.src();
    for (const auto& cut : cuts) {
      PAMR_ASSERT(cut.size() == 1);
      const LinkInfo& info = mesh.link(cut.front());
      PAMR_ASSERT(info.from == at);
      path.links.push_back(cut.front());
      at = info.to;
    }
    PAMR_ASSERT(at == rect.snk());
    return path;
  }
};

/// Builds the initial per-communication spread states onto `loads`.
std::vector<CommState> make_states(const Mesh& mesh, const CommSet& comms,
                                   LinkLoads& loads, bool track_reachability) {
  std::vector<CommState> states;
  states.reserve(comms.size());
  for (const Communication& comm : comms) {
    states.emplace_back(mesh, comm, track_reachability);
    states.back().apply_spread(comm.weight, loads);
  }
  return states;
}

std::size_t count_multi_path(const std::vector<CommState>& states) {
  std::size_t active = 0;
  for (const auto& state : states) {
    if (!state.is_single_path()) ++active;
  }
  return active;
}

std::vector<Path> extract_paths(const Mesh& mesh,
                                const std::vector<CommState>& states) {
  std::vector<Path> paths;
  paths.reserve(states.size());
  for (const auto& state : states) paths.push_back(state.extract_path(mesh));
  return paths;
}

}  // namespace

RouteResult PathRemoverRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model, RouteGoal goal) const {
  return mode_ == Mode::kReference ? route_reference(mesh, comms, model)
                                   : route_incremental(mesh, comms, model, goal);
}

RouteResult PathRemoverRouter::route_incremental(const Mesh& mesh,
                                                 const CommSet& comms,
                                                 const PowerModel& model,
                                                 RouteGoal goal) const {
  const WallTimer timer;
  LinkLoads loads(mesh);
  std::vector<CommState> states =
      make_states(mesh, comms, loads, /*track_reachability=*/true);

  // Forced load per link, tracked for the overload witness only (see file
  // comment); the full rectangle's singleton cuts are forced from the start.
  const bool verdict = goal == RouteGoal::kVerdict;
  const double limit = model.limit();
  std::vector<double> forced(verdict ? static_cast<std::size_t>(mesh.num_links()) : 0);
  auto force = [&](LinkId link, double weight) {
    double& load = forced[static_cast<std::size_t>(link)];
    load += weight;
    return PowerModel::proven_overload(load, limit);
  };
  if (verdict) {
    for (std::size_t idx = 0; idx < states.size(); ++idx) {
      for (const auto& cut : states[idx].cuts) {
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
  const std::vector<std::size_t> by_weight = order_by_decreasing_weight(comms);

  LoadIndex index(loads);
  for (const std::size_t idx : by_weight) {
    for (const auto& cut : states[idx].cuts) {
      for (const LinkId link : cut) {
        index.add_member(link, static_cast<std::uint32_t>(idx));
      }
    }
  }

  std::size_t active = count_multi_path(states);
  PruneScratch scratch(static_cast<std::size_t>(mesh.num_cores()));
  TouchLog log(static_cast<std::size_t>(mesh.num_links()));
  std::vector<LinkId> changed;
  std::vector<LinkId> singled;
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
      auto& members = index.members(cand);
      std::size_t keep = 0;
      for (const std::uint32_t idx : members) {
        CommState& state = states[idx];
        if (state.allowed[static_cast<std::size_t>(cand)] == 0) continue;  // compact away
        members[keep++] = idx;
        if (chosen != none) continue;  // found earlier; just finish compacting
        const std::int32_t t = state.rect.depth(tail);
        PAMR_ASSERT(t >= 0);
        if (state.cuts[static_cast<std::size_t>(t)].size() >= 2) {
          chosen = idx;
          depth = t;
        }
      }
      members.resize(keep);
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

    CommState& state = states[chosen];
    const double weight = comms[chosen].weight;
    state.apply_spread_tracked(-weight, loads, log);
    state.allowed[static_cast<std::size_t>(link)] = 0;
    std::erase(state.cuts[static_cast<std::size_t>(depth)], link);
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
  return finish(mesh, comms, model,
                make_single_path_routing(comms, extract_paths(mesh, states)),
                timer.elapsed_ms());
}

RouteResult PathRemoverRouter::route_reference(const Mesh& mesh, const CommSet& comms,
                                               const PowerModel& model) const {
  const WallTimer timer;
  LinkLoads loads(mesh);
  std::vector<CommState> states =
      make_states(mesh, comms, loads, /*track_reachability=*/false);

  // Heaviest-first candidate order within a link (paper: "the largest
  // communication that uses this link").
  const std::vector<std::size_t> by_weight = order_by_decreasing_weight(comms);

  std::vector<LinkId> order(static_cast<std::size_t>(mesh.num_links()));
  std::iota(order.begin(), order.end(), LinkId{0});

  std::size_t active = count_multi_path(states);
  PruneScratch scratch(static_cast<std::size_t>(mesh.num_cores()));
  std::size_t removals = 0;

  while (active > 0) {
    std::stable_sort(order.begin(), order.end(), [&loads](LinkId a, LinkId b) {
      return loads.load(a) > loads.load(b);
    });

    bool removed = false;
    for (const LinkId link : order) {
      if (loads.load(link) <= 0.0) break;
      for (const std::size_t index : by_weight) {
        CommState& state = states[index];
        if (state.allowed[static_cast<std::size_t>(link)] == 0) continue;
        // Find the cut containing this link; removable iff it keeps ≥ 2
        // links (see file comment: in the monotone DAG this preserves
        // src→snk connectivity).
        const std::int32_t t = [&] {
          const LinkInfo& info = mesh.link(link);
          return state.rect.depth(info.from);
        }();
        PAMR_ASSERT(t >= 0);
        auto& cut = state.cuts[static_cast<std::size_t>(t)];
        if (cut.size() < 2) continue;

        state.apply_spread(-comms[index].weight, loads);
        state.allowed[static_cast<std::size_t>(link)] = 0;
        std::erase(cut, link);
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
  return finish(mesh, comms, model,
                make_single_path_routing(comms, extract_paths(mesh, states)),
                timer.elapsed_ms());
}

}  // namespace pamr
