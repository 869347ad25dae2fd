// XYI — incremental implementation (the default Mode::kIncremental).
//
// The reference loop (xy_improver.cpp) pays three scans per round: a
// stable_sort of every mesh link to find the hot one, a scan of every
// communication's full path to find the crossings, and — because the cursor
// restarts at 0 after every applied move — a re-evaluation of every
// hot-prefix link that was already known to have no improving move. This
// file removes all three without changing a single decision:
//
//   * hot-link order: a LoadIndex (the PR remover's heap keyed on load and
//     a history stamp) re-keyed only for the links whose stored load
//     actually changed under a move, and read through a LoadIndex::Walk
//     that restarts from the hottest link after every applied move. The
//     seed's stable_sort of a persistent order vector makes the tie-break
//     history-dependent; the stamps reproduce it bit for bit (see
//     load_index.hpp).
//   * crossings: a CrossingIndex maps each link to the communications whose
//     current path crosses it, in ascending order — the reference's scan
//     order — and is patched per move from the rewritten window only.
//   * dirty-move memoization, at two granularities: a link whose fold
//     (best candidate over every crossing member) is cached and whose
//     three-lane band is untouched reuses the cached result in O(1) —
//     whether it found an improving move or not; when a link's band IS
//     dirty and it is re-folded, each member's candidate rotations are
//     cached per (link, member) slot and re-evaluated only once the
//     member's comm-level stamp marks them dirty. The stamp and band rules
//     make both caches exact, not heuristic — see crossing_index.hpp for
//     the argument. The windowed allocation-free evaluation itself is
//     xy_moves.hpp's best_candidate, pinned against the seed arithmetic by
//     the differential suite.
//
// Load arithmetic follows the reference exactly: a move subtracts the
// weight from every old-path link and adds it to every new-path link, so
// shared links take the same -w/+w round trip (which can shift a stored
// double by an ulp) and the next reorder sees the same bits in both modes.
// The per-link `cost_now` table (exactly cost(load(link)), refreshed for
// the links a move changed) and the overload memo inside LoadCost are
// transparent for the same reason: both return the very double a cold
// evaluation computes.
#include <algorithm>
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

RouteResult XYImproverRouter::route_incremental(const Mesh& mesh, const CommSet& comms,
                                                const PowerModel& model,
                                                RouteWorkspace& workspace) const {
  const WallTimer timer;
  const LoadCost cost(model, mesh.num_links());
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

  // == the reference's first resort(): identity order stably sorted by the
  // initial loads.
  LoadIndex& index = ws.index;
  index.reset(loads);
  LoadIndex::Walk& walk = ws.walk;
  walk.restart();
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
    return xyi::best_candidate(mesh, cores_of(ci), path_links(ci),
                               xyi::known_crossing_position(cores_of(ci), info),
                               !info.horizontal(), comms[ci].weight, loads, cost,
                               cost_now);
  };
#endif

  while (moves < cap) {
    const LinkId hot = walk.next();
    if (hot == kInvalidLink) break;
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

      // Ascending-member scan with strict < — the reference's order and
      // tie-break — folding cached candidate deltas for fresh members and
      // recomputing only the genuinely dirty ones.
      const std::span<const std::uint32_t> member_list = crossings.members(hot);
      const std::span<CrossingIndex::SlotHot> hots = crossings.hot_slots(hot);
      for (std::size_t m = 0; m < member_list.size(); ++m) {
        const std::uint32_t ci = member_list[m];
        CrossingIndex::SlotHot& slot = hots[m];
        if (crossings.slot_fresh(slot, ci)) {
          ++n_hits;
        } else {
          const std::uint64_t epoch = crossings.epoch();
          const std::size_t pos = xyi::known_crossing_position(cores_of(ci), hot_info);
          CrossingIndex::SlotCold& cold = crossings.cold_slot(ci, pos);
          bool recomputed = false;
          if (cold.spec_stamp == 0 || crossings.path_epoch(ci) > cold.spec_stamp) {
            // Path rewritten (or first sight): rotations themselves may have
            // changed — recompute the whole slot.
            const xyi::CandidateSpecs specs =
                xyi::candidate_specs(cores_of(ci), pos, hot_vertical);
            cold.count = specs.count;
            for (std::uint8_t c = 0; c < specs.count; ++c) {
              cold.cand[c] = xyi::eval_candidate(
                  mesh, cores_of(ci), path_links(ci), specs.j[c], specs.i[c],
                  specs.forward[c], comms[ci].weight, loads, cost, cost_now);
              cold.cstamp[c] = epoch;
            }
            cold.spec_stamp = epoch;
            recomputed = true;
          } else {
            // Path unchanged: the cached rotations are current; recompute
            // only the sides computed before the comm's dirty stamp.
            const std::uint64_t dirty = crossings.dirty_stamp(ci);
            for (std::uint8_t c = 0; c < cold.count; ++c) {
              if (cold.cstamp[c] >= dirty) continue;  // this side untouched
              const xyi::Candidate& cached = cold.cand[c];
              cold.cand[c] = xyi::eval_candidate(
                  mesh, cores_of(ci), path_links(ci), cached.j, cached.i,
                  cached.forward, comms[ci].weight, loads, cost, cost_now);
              cold.cstamp[c] = epoch;
              recomputed = true;
            }
          }
          if (recomputed) slot.best = CrossingIndex::combined(cold);
          std::uint64_t fresh = epoch;
          for (std::uint8_t c = 0; c < cold.count; ++c) {
            fresh = std::min(fresh, cold.cstamp[c]);
          }
          slot.fresh_stamp = fresh;
          recomputed ? ++n_misses : ++n_hits;
#if PAMR_CHECK_LEVEL >= 2
          // Paranoid: every cached candidate — reused or recomputed — must
          // match a from-scratch evaluation bit for bit.
          {
            const xyi::CandidateSpecs specs =
                xyi::candidate_specs(cores_of(ci), pos, hot_vertical);
            PAMR_INVARIANT("xyi-slot-cache", specs.count == cold.count,
                           "cached candidate count diverged from the path shape");
            for (std::uint8_t c = 0; c < specs.count; ++c) {
              PAMR_INVARIANT(
                  "xyi-slot-cache",
                  same_candidate(
                      xyi::eval_candidate(mesh, cores_of(ci), path_links(ci), specs.j[c],
                                          specs.i[c], specs.forward[c],
                                          comms[ci].weight, loads, cost, cost_now),
                      cold.cand[c]),
                  "cached candidate diverged from a fresh evaluation");
            }
            PAMR_INVARIANT("xyi-slot-cache",
                           same_candidate(slot.best, CrossingIndex::combined(cold)),
                           "hot slot best diverged from its cold candidates");
          }
#endif
        }
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
      index.reorder(changed, loads);
      if (trace_ != nullptr) {
        trace_->penalized_totals.push_back(cost.total(loads.values()));
      }
      walk.restart();
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
