// XYI — XY improver (paper §5.4).
//
// "The idea is to start with an XY-routing and to try to decrease the load
//  of the most loaded links. … If the link is vertical, we use instead the
//  horizontal link going to the same core, from the core that is the
//  closest to the source core of the communication. If the link is
//  horizontal, we instead use the vertical link going from the same core,
//  and going to the core that is closest to the sink core."
//
// Interpretation (DESIGN.md §3): view a monotone path as a step string over
// {V, H}. Avoiding a vertical hot step by "using the horizontal link into
// the same core from the source side" is exactly swapping the hot V with
// the nearest preceding H in the string: the vertical run between them
// shifts one column toward the source and the horizontal crossing happens
// after the descent — through the prescribed link. Likewise a horizontal
// hot step swaps with the nearest following V (sink side). We evaluate both
// directions (preferred one first), across every communication crossing the
// most-loaded link, apply the best strictly-improving move, re-sort the
// link list and restart; a link with no improving move is skipped. Total
// (penalized) power strictly decreases with every move, so the search
// terminates; each communication admits at most O(p·q) candidate moves per
// round, matching the paper's bound.
//
// Read literally, that loop pays three scans per round: a stable_sort of
// every mesh link to find the hot one, a scan of every communication's full
// path to find the crossings, and — because the cursor restarts at 0 after
// every applied move — a re-evaluation of every hot-prefix link that was
// already known to have no improving move. The seed did exactly that; its
// loop is the test oracle in tests/seed_routers.hpp, and the differential
// suite (tests/test_xy_improver.cpp) holds this file's descent to it bit
// for bit. This implementation removes all three scans without changing a
// single decision:
//
//   * hot-link order: a LoadOrder, the links in one flat array sorted on
//     load and a history stamp, re-keyed only for the links whose stored
//     load actually changed under a move and merged back into the range
//     those links span. A cursor reads it from the hottest link and goes
//     back to 0 after every applied move, as the seed's does. The seed's
//     stable_sort of a persistent order vector makes the tie-break
//     history-dependent; the stamps reproduce it bit for bit (see
//     load_index.hpp).
//   * crossings: a CrossingIndex maps each link to the communications whose
//     current path crosses it, in ascending order — the seed's scan
//     order — and is patched per move from the rewritten window only.
//   * dirty-move memoization, at two granularities: a link whose fold
//     (best candidate over every crossing member) is cached and whose
//     three-lane band is untouched reuses the cached result in O(1) —
//     whether it found an improving move or not; when a link's band IS
//     dirty and it is re-folded, each member's best candidate is cached
//     per (link, member) slot with the window it read, and re-evaluated
//     whole only once the member's path was rewritten or a link of that
//     read window changed load. The read-window and band rules make both
//     caches exact, not heuristic — see crossing_index.hpp for the
//     argument. The windowed allocation-free evaluation itself is
//     xy_moves.hpp's best_candidate.
//
// Load arithmetic follows the seed exactly: a move subtracts the weight
// from every old-path link and adds it to every new-path link, so shared
// links take the same -w/+w round trip (which can shift a stored double by
// an ulp) and the next reorder sees the same bits as the seed's sort.
// The per-link `cost_now` table (exactly cost(load(link)), refreshed for
// the links a move changed) is transparent for the same reason: it holds
// the very double a cold evaluation computes.
#include <bit>
#include <limits>

#include "pamr/obs/obs.hpp"
#include "pamr/routing/crossing_index.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/routing/xy_moves.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

#if PAMR_CHECK_LEVEL >= 2
namespace {

/// Paranoid cross-check helper: bit-equality of candidates (+inf included;
/// any ulp drift in a reused cache is a bug, not noise).
bool same_candidate(const xyi::Candidate& a, const xyi::Candidate& b) {
  return std::bit_cast<std::uint64_t>(a.delta) == std::bit_cast<std::uint64_t>(b.delta) &&
         a.j == b.j && a.i == b.i && a.forward == b.forward;
}

}  // namespace
#endif

RouteResult XYImproverRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                         const PowerModel& model, RouteGoal /*goal*/,
                                         RouteWorkspace& workspace) const {
  const WallTimer timer;
  const LoadCost cost(model);
  RouteWorkspace::XyImprover& ws = workspace.xyi;

  // Path ci as visited cores, and its link ids (path_links(ci)[k] joins
  // cores k and k+1), maintained under applied moves so the window walks
  // read the removed-side link id instead of resolving it. Both are flat:
  // rotations preserve a path's length, so every path keeps its slot.
  PathTable& link_table = workspace.paths;
  link_table.reset(comms);
  std::vector<Coord>& core_table = ws.cores;
  core_table.resize(link_table.offset(comms.size()) + comms.size());
  const auto cores_of = [&](std::size_t ci) {
    const std::size_t begin = link_table.offset(ci) + ci;
    return std::span<Coord>(core_table.data() + begin, link_table.path(ci).size() + 1);
  };
  const auto path_links = [&](std::size_t ci) { return link_table.path(ci); };
  LinkLoads& loads = workspace.loads;
  loads.reset(mesh.num_links());
  for (std::size_t ci = 0; ci < comms.size(); ++ci) {
    const Communication& comm = comms[ci];
    const std::span<LinkId> links = path_links(ci);
    write_xy_path(mesh, comm.src, comm.snk, links);
    const std::span<Coord> cores = cores_of(ci);
    cores[0] = comm.src;
    for (std::size_t k = 0; k < links.size(); ++k) {
      const LinkInfo& info = mesh.link(links[k]);
      PAMR_CHECK(info.from == cores[k], "disconnected link chain");
      cores[k + 1] = info.to;
      loads.add(links[k], comm.weight);
    }
  }

  // == the seed's first resort(): identity order stably sorted by the
  // initial loads.
  LoadOrder& order = ws.order;
  order.reset(loads);
  CrossingIndex& crossings = ws.crossings;
  crossings.reset(mesh, comms.size());
  for (std::size_t ci = 0; ci < comms.size(); ++ci) {
    crossings.count_initial_path(cores_of(ci));
  }
  for (std::size_t ci = 0; ci < comms.size(); ++ci) {
    crossings.add_initial_path(static_cast<std::uint32_t>(ci), cores_of(ci));
  }

  // cost(load) of every link at its current load — the unrotated side of
  // every delta term in the windowed evaluation (see xy_moves.hpp).
  std::vector<double>& cost_now = ws.cost_now;
  cost_now.resize(static_cast<std::size_t>(mesh.num_links()));
  for (std::size_t l = 0; l < cost_now.size(); ++l) {
    cost_now[l] = cost(loads.load(static_cast<LinkId>(l)));
  }

  const std::size_t cap = xyi::move_cap(mesh, comms.size());
  std::size_t moves = 0;
  TouchLog& log = ws.log;
  log.reset(static_cast<std::size_t>(mesh.num_links()));
  std::vector<LinkId>& changed = ws.changed;
  std::vector<Coord>& old_cores = ws.old_cores;

  // Counter totals, bumped in bulk after the descent: three obs calls per
  // route instead of one per member-scan iteration (tens of millions on an
  // overloaded 32×32 instance).
  std::uint64_t n_hits = 0;
  std::uint64_t n_misses = 0;
  std::uint64_t n_fold_skips = 0;

#if PAMR_CHECK_LEVEL >= 2
  // Recomputes one member's candidate from scratch, bypassing every cache.
  const auto fresh_candidate = [&](LinkId link, std::uint32_t ci) {
    const LinkInfo& info = mesh.link(link);
    xyi::Window window;
    return xyi::best_candidate(mesh, cores_of(ci), path_links(ci),
                               xyi::known_crossing_position(cores_of(ci), info),
                               !info.horizontal(), comms[ci].weight, loads, cost,
                               cost_now, window);
  };
#endif

  std::size_t cursor = 0;
  while (moves < cap && cursor < order.size()) {
    const LinkId hot = order.at(cursor++);
    if (loads.load(hot) <= 0.0) break;  // remaining links are idle

    xyi::Candidate best;
    std::size_t best_comm = comms.size();
    if (crossings.fold_valid(hot)) {
      // O(1): nothing in this link's band changed since its last fold, so
      // the cached (best, member) pair is the exact fold result.
      ++n_fold_skips;
      best = crossings.fold_best(hot);
      best_comm = crossings.fold_comm(hot);
#if PAMR_CHECK_LEVEL >= 2
      {
        // Paranoid: re-fold from scratch and demand the identical result.
        xyi::Candidate check;
        std::size_t check_comm = comms.size();
        for (const std::uint32_t ci : crossings.members(hot)) {
          const xyi::Candidate cand = fresh_candidate(hot, ci);
          if (cand.delta < check.delta) {
            check = cand;
            check_comm = ci;
          }
        }
        PAMR_INVARIANT("xyi-fold-cache",
                       same_candidate(check, best) &&
                           (check.delta == std::numeric_limits<double>::infinity() ||
                            check_comm == best_comm),
                       "band-validated fold cache diverged from a fresh fold");
      }
#endif
    } else {
      const LinkInfo& hot_info = mesh.link(hot);
      const bool hot_vertical = !hot_info.horizontal();

      // Ascending-member scan with strict < (the seed's order and
      // tie-break), folding cached slots for fresh members and recomputing
      // only the stale ones.
      const std::span<const std::uint32_t> member_list = crossings.members(hot);
      const std::span<CrossingIndex::Slot> slots = crossings.slots(hot);
      for (std::size_t m = 0; m < member_list.size(); ++m) {
        const std::uint32_t ci = member_list[m];
        CrossingIndex::Slot& slot = slots[m];
        if (crossings.slot_fresh(slot, ci, hot, path_links(ci))) {
          ++n_hits;
        } else {
          ++n_misses;
          slot.best = xyi::best_candidate(
              mesh, cores_of(ci), path_links(ci),
              xyi::known_crossing_position(cores_of(ci), hot_info), hot_vertical,
              comms[ci].weight, loads, cost, cost_now, slot.window);
          slot.fresh_stamp = crossings.epoch();
        }
#if PAMR_CHECK_LEVEL >= 2
        // Paranoid: every slot the fold reads, reused or recomputed, must
        // match a from-scratch evaluation bit for bit.
        PAMR_INVARIANT("xyi-slot-cache",
                       same_candidate(fresh_candidate(hot, ci), slot.best),
                       "cached slot diverged from a fresh evaluation");
#endif
        if (slot.best.delta < best.delta) {
          best = slot.best;
          best_comm = ci;
        }
      }
      crossings.record_fold(hot, best, static_cast<std::uint32_t>(best_comm));
    }

    if (best.delta < -xyi::kImproveEps) {
      const std::span<Coord> cores = cores_of(best_comm);
      old_cores.assign(cores.begin(), cores.end());
      xyi::materialize(old_cores, best, cores);
      const std::span<LinkId> links = path_links(best_comm);
      const double weight = comms[best_comm].weight;
      for (std::size_t k = 0; k + 1 < old_cores.size(); ++k) {
        const LinkId link = mesh.link_between(old_cores[k], old_cores[k + 1]);
        log.record(link, loads.load(link));
        loads.add(link, -weight);
      }
      for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
        const LinkId link = mesh.link_between(cores[k], cores[k + 1]);
        links[k] = link;  // rotations preserve path length
        log.record(link, loads.load(link));
        loads.add(link, weight);
      }
      ++moves;
      obs::bump(obs::Metric::kXyiMoves);
      crossings.apply_rewrite(static_cast<std::uint32_t>(best_comm), old_cores, cores);
      log.take_changed(loads, changed);
      for (const LinkId link : changed) {
        crossings.note_load_change(link);
        cost_now[static_cast<std::size_t>(link)] = cost(loads.load(link));
      }
      order.reorder(changed, loads);
      if (trace_ != nullptr) {
        trace_->penalized_totals.push_back(cost.total(loads.values()));
      }
      cursor = 0;
    }
  }

  obs::bump(obs::Metric::kXyiEvalHits, n_hits);
  obs::bump(obs::Metric::kXyiEvalMisses, n_misses);
  obs::bump(obs::Metric::kXyiVerdictSkips, n_fold_skips);
  // The final paths are path_links: every entry is link_between of its
  // two cores, set when the path was built or last rewritten.
  obs::sample(obs::Metric::kXyiMovesPerCall, moves);
  RouteResult result = finish(mesh, comms, model, workspace, timer.elapsed_ms());
  xyi::finish_search_stats(result, mesh, comms.size(), moves, cap);
  return result;
}

}  // namespace pamr
