// The seed implementations of IG (§5.2), XYI (§5.4) and PR (§5.5), kept
// as test oracles for the differential suites (test_improved_greedy,
// test_xy_improver, test_load_index). Each is the literal loop the library
// started from: no caches, no indexes, a full re-sort or rescan wherever
// the paper's text implies one. The library's routers must reproduce them
// bit for bit — same paths, same power, same move and removal sequences.
//
// The oracles use only the public library API: CommRect, LinkLoads,
// LoadCost, the path.hpp helpers, and xyi::move_cap/finish_search_stats
// for XYI's safety cap. They share no candidate, spread or prune code with
// the routers they check, so a bug in a shared internal cannot hide on
// both sides of a differential test. Each runs through Router::route and
// ends in the protected Router::finish, so RouteResult, power and
// local_search compare exactly. The goal is ignored: an oracle always
// builds the full routing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/path.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/xy_moves.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr::seed {

/// Stable sort of a persistent order vector by load, heaviest first: the
/// seed's hot-link order, whose tie-break is the whole load history.
inline void resort(std::vector<LinkId>& order, const LinkLoads& loads) {
  std::stable_sort(order.begin(), order.end(), [&loads](LinkId a, LinkId b) {
    return loads.load(a) > loads.load(b);
  });
}

// ------------------------------------------------------------------ IG --

/// IG's seed loop: every candidate of every branching hop rescans every
/// cut of its sub-rectangle for the cheapest link.
class ImprovedGreedyRouter final : public Router {
 public:
  ImprovedGreedyRouter() noexcept : Router(RouterKind::kIG) {}

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal /*goal*/,
                                       RouteWorkspace& workspace) const override {
    const WallTimer timer;
    const LoadCost cost(model);
    LinkLoads loads(mesh);
    std::vector<Path> paths(comms.size());

    // Phase 1: virtual pre-routing of everything.
    std::vector<CommRect> rects;
    rects.reserve(comms.size());
    for (const Communication& comm : comms) {
      rects.emplace_back(mesh, comm.src, comm.snk);
      spread(rects.back(), comm.weight, loads);
    }

    // Phase 2: commit concrete routes, heaviest first.
    for (const std::size_t index : order_by_decreasing_weight(comms)) {
      const Communication& comm = comms[index];
      const CommRect& rect = rects[index];
      spread(rect, -comm.weight, loads);

      std::vector<Coord> cores{comm.src};
      Coord at = comm.src;
      while (at != comm.snk) {
        const CommRect::Steps steps = rect.next_steps(at);
        PAMR_ASSERT(!steps.empty());
        const CommRect::Step* chosen = &steps.front();
        if (steps.size() == 2) {
          double best_bound = std::numeric_limits<double>::infinity();
          for (const CommRect::Step& step : steps) {
            const double bound = cost(loads.load(step.link) + comm.weight) +
                                 remaining_bound(mesh, step.to, comm.snk, comm.weight,
                                                 loads, cost);
            // Strict '<' keeps the vertical-first preference on exact ties.
            if (bound < best_bound) {
              best_bound = bound;
              chosen = &step;
            }
          }
        }
        loads.add(chosen->link, comm.weight);
        cores.push_back(chosen->to);
        at = chosen->to;
      }
      paths[index] = path_from_cores(mesh, cores);
    }

    return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)),
                  timer.elapsed_ms(), workspace);
  }

 private:
  /// Adds weight/|cut| to every link of every cut of the rectangle — the
  /// Figure-3 virtual pre-routing, or its removal for a negative weight.
  static void spread(const CommRect& rect, double weight, LinkLoads& loads) {
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      const double share = weight / static_cast<double>(rect.cut_size(t));
      rect.for_each_cut_link(t, [&](LinkId link) { loads.add(link, share); });
    }
  }

  /// The paper's bound: per cut of [from → snk], the cheapest link after
  /// adding the communication. Bumps kIgCutBounds once per evaluation, as
  /// the library does.
  static double remaining_bound(const Mesh& mesh, Coord from, Coord snk, double weight,
                                const LinkLoads& loads, const LoadCost& cost) {
    if (from == snk) return 0.0;
    obs::bump(obs::Metric::kIgCutBounds);
    const CommRect rest(mesh, from, snk);
    double bound = 0.0;
    for (std::int32_t t = 0; t < rest.length(); ++t) {
      double best = std::numeric_limits<double>::infinity();
      rest.for_each_cut_link(t, [&](LinkId link) {
        best = std::min(best, cost(loads.load(link) + weight));
      });
      bound += best;
    }
    return bound;
  }
};

// ----------------------------------------------------------------- XYI --

/// XYI's seed loop: a stable re-sort of every mesh link after each applied
/// move, and a scan of every communication's path for each hot link; every
/// candidate rotation is materialized and costed link by link.
class XYImproverRouter final : public Router {
 public:
  XYImproverRouter() noexcept : Router(RouterKind::kXYI) {}

  void set_trace(XyiTrace* trace) noexcept { trace_ = trace; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal /*goal*/,
                                       RouteWorkspace& workspace) const override {
    const WallTimer timer;
    const LoadCost cost(model);

    std::vector<std::vector<Coord>> paths;
    paths.reserve(comms.size());
    LinkLoads loads(mesh);
    for (const Communication& comm : comms) {
      const Path path = xy_path(mesh, comm.src, comm.snk);
      paths.push_back(cores_of_path(mesh, path));
      loads.add_path(path, comm.weight);
    }

    std::vector<LinkId> order(static_cast<std::size_t>(mesh.num_links()));
    std::iota(order.begin(), order.end(), LinkId{0});
    resort(order, loads);

    const std::size_t cap = xyi::move_cap(mesh, comms.size());
    std::size_t moves = 0;
    std::size_t cursor = 0;
    while (cursor < order.size() && moves < cap) {
      const LinkId hot = order[cursor];
      if (loads.load(hot) <= 0.0) break;  // remaining links are idle
      const LinkInfo& hot_info = mesh.link(hot);

      Move best;
      for (std::size_t ci = 0; ci < comms.size(); ++ci) {
        consider_crossing(mesh, hot_info, paths[ci], ci, comms[ci].weight, loads, cost,
                          best);
      }

      if (best.delta < -kImproveEps) {
        std::vector<Coord>& cores = paths[best.comm];
        const double weight = comms[best.comm].weight;
        for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
          loads.add(mesh.link_between(cores[k], cores[k + 1]), -weight);
        }
        cores = std::move(best.new_cores);
        for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
          loads.add(mesh.link_between(cores[k], cores[k + 1]), weight);
        }
        ++moves;
        if (trace_ != nullptr) {
          trace_->penalized_totals.push_back(cost.total(loads.values()));
        }
        resort(order, loads);
        cursor = 0;
      } else {
        ++cursor;
      }
    }

    std::vector<Path> final_paths;
    final_paths.reserve(comms.size());
    for (const std::vector<Coord>& cores : paths) {
      final_paths.push_back(path_from_cores(mesh, cores));
    }
    RouteResult result = finish(mesh, comms, model,
                                make_single_path_routing(comms, std::move(final_paths)),
                                timer.elapsed_ms(), workspace);
    xyi::finish_search_stats(result, mesh, comms.size(), moves, cap);
    return result;
  }

 private:
  /// A move is applied iff its delta is below -kImproveEps, so zero-delta
  /// rewrites never cycle.
  static constexpr double kImproveEps = 1e-12;

  /// The best rewrite found so far for the current hot link.
  struct Move {
    std::size_t comm = 0;
    std::vector<Coord> new_cores;
    double delta = std::numeric_limits<double>::infinity();
  };

  static bool step_is_vertical(std::span<const Coord> cores, std::size_t k) {
    return cores[k].v == cores[k + 1].v;
  }

  /// Rotates the step block [j, i] of `cores` so that the step at one end
  /// moves to the other end, shifting the perpendicular run by one lane.
  /// forward = false: step j moves after steps j+1..i; forward = true:
  /// step i moves before steps j..i-1.
  static std::vector<Coord> rotate_block(std::span<const Coord> cores, std::size_t j,
                                         std::size_t i, bool forward) {
    std::vector<Coord> out(cores.begin(),
                           cores.begin() + static_cast<std::ptrdiff_t>(j) + 1);
    auto apply_step = [&](std::size_t k) {
      const Coord delta{cores[k + 1].u - cores[k].u, cores[k + 1].v - cores[k].v};
      out.push_back({out.back().u + delta.u, out.back().v + delta.v});
    };
    if (forward) {
      apply_step(i);
      for (std::size_t k = j; k < i; ++k) apply_step(k);
    } else {
      for (std::size_t k = j + 1; k <= i; ++k) apply_step(k);
      apply_step(j);
    }
    out.insert(out.end(), cores.begin() + static_cast<std::ptrdiff_t>(i) + 2, cores.end());
    PAMR_ASSERT(out.size() == cores.size());
    return out;
  }

  /// Cost delta of replacing the links of `before` with those of `after`:
  /// identical steps cancel, and the changed links of a monotone rewrite
  /// are disjoint.
  static double path_swap_delta(const Mesh& mesh, std::span<const Coord> before,
                                std::span<const Coord> after, double weight,
                                const LinkLoads& loads, const LoadCost& cost) {
    double delta = 0.0;
    for (std::size_t k = 0; k + 1 < before.size(); ++k) {
      if (before[k] == after[k] && before[k + 1] == after[k + 1]) continue;
      const LinkId removed = mesh.link_between(before[k], before[k + 1]);
      const LinkId added = mesh.link_between(after[k], after[k + 1]);
      if (removed == added) continue;
      const double removed_load = loads.load(removed);
      const double added_load = loads.load(added);
      delta += cost.delta(removed_load, removed_load - weight);
      delta += cost.delta(added_load, added_load + weight);
    }
    return delta;
  }

  /// If path `cores` of communication `ci` crosses the hot link, costs its
  /// (at most two) rotations — swapping the hot step with the nearest
  /// perpendicular step before it (the run shifts toward the source) or
  /// after it (toward the sink), the paper's preferred side first: source
  /// side for a vertical hot link, sink side for a horizontal one — and
  /// lowers `best` on strict improvement.
  static void consider_crossing(const Mesh& mesh, const LinkInfo& hot_info,
                                std::span<const Coord> cores, std::size_t ci,
                                double weight, const LinkLoads& loads,
                                const LoadCost& cost, Move& best) {
    std::size_t i = 0;
    while (i + 1 < cores.size() &&
           !(cores[i] == hot_info.from && cores[i + 1] == hot_info.to)) {
      ++i;
    }
    if (i + 1 >= cores.size()) return;  // does not cross the hot link
    const bool hot_vertical = !hot_info.horizontal();

    std::size_t prev = i;
    while (prev > 0 && step_is_vertical(cores, prev - 1) == hot_vertical) --prev;
    const bool has_prev = prev > 0;
    std::size_t next = i;
    while (next + 2 < cores.size() && step_is_vertical(cores, next + 1) == hot_vertical) {
      ++next;
    }
    const bool has_next = next + 2 < cores.size();

    auto consider = [&](std::vector<Coord> candidate) {
      const double delta = path_swap_delta(mesh, cores, candidate, weight, loads, cost);
      if (delta < best.delta) best = Move{ci, std::move(candidate), delta};
    };
    if (hot_vertical) {
      if (has_prev) consider(rotate_block(cores, prev - 1, i, /*forward=*/false));
      if (has_next) consider(rotate_block(cores, i, next + 1, /*forward=*/true));
    } else {
      if (has_next) consider(rotate_block(cores, i, next + 1, /*forward=*/true));
      if (has_prev) consider(rotate_block(cores, prev - 1, i, /*forward=*/false));
    }
  }

  XyiTrace* trace_ = nullptr;
};

// ------------------------------------------------------------------ PR --

/// PR's seed loop: per removal, a stable re-sort of every mesh link and a
/// heaviest-first scan of every communication; the removal's weight is
/// re-spread in two full passes around a full forward/backward
/// reachability prune.
class PathRemoverRouter final : public Router {
 public:
  PathRemoverRouter() noexcept : Router(RouterKind::kPR) {}

  void set_trace(PrTrace* trace) noexcept { trace_ = trace; }

 protected:
  [[nodiscard]] RouteResult route_impl(const Mesh& mesh, const CommSet& comms,
                                       const PowerModel& model, RouteGoal /*goal*/,
                                       RouteWorkspace& workspace) const override {
    const WallTimer timer;
    LinkLoads loads(mesh);
    std::vector<CommState> states;
    states.reserve(comms.size());
    for (const Communication& comm : comms) {
      CommState& state = states.emplace_back(mesh, comm);
      state.spread(comm.weight, loads);
    }

    // Heaviest-first candidate order within a link (paper: "the largest
    // communication that uses this link").
    const std::vector<std::size_t> by_weight = order_by_decreasing_weight(comms);
    std::vector<LinkId> order(static_cast<std::size_t>(mesh.num_links()));
    std::iota(order.begin(), order.end(), LinkId{0});
    std::size_t active = static_cast<std::size_t>(
        std::count_if(states.begin(), states.end(),
                      [](const CommState& state) { return !state.single_path(); }));

    while (active > 0) {
      resort(order, loads);
      bool removed = false;
      for (const LinkId link : order) {
        if (loads.load(link) <= 0.0) break;
        for (const std::size_t index : by_weight) {
          CommState& state = states[index];
          if (state.allowed[static_cast<std::size_t>(link)] == 0) continue;
          // Removable iff its cut keeps ≥ 2 links: in the monotone DAG
          // that never disconnects the source from the sink.
          const std::int32_t t = state.rect.depth(mesh.link(link).from);
          PAMR_ASSERT(t >= 0);
          std::vector<LinkId>& cut = state.cuts[static_cast<std::size_t>(t)];
          if (cut.size() < 2) continue;

          state.spread(-comms[index].weight, loads);
          state.allowed[static_cast<std::size_t>(link)] = 0;
          std::erase(cut, link);
          state.prune(mesh);
          state.spread(comms[index].weight, loads);
          if (trace_ != nullptr) {
            PrTrace::Removal& record = trace_->removals.emplace_back();
            record.comm = index;
            record.depth = t;
            for (const std::vector<LinkId>& live : state.cuts) {
              record.cut_sizes.push_back(static_cast<std::uint32_t>(live.size()));
            }
            record.loads.assign(loads.values().begin(), loads.values().end());
          }
          if (state.single_path()) --active;
          removed = true;
          break;
        }
        if (removed) break;
      }
      PAMR_ASSERT_MSG(removed,
                      "no removable link found while communications remain multi-path");
    }

    std::vector<Path> paths;
    paths.reserve(comms.size());
    for (std::size_t index = 0; index < comms.size(); ++index) {
      Path& path = paths.emplace_back(Path{comms[index].src, comms[index].snk, {}});
      for (const std::vector<LinkId>& cut : states[index].cuts) {
        PAMR_ASSERT(cut.size() == 1);
        path.links.push_back(cut.front());
      }
    }
    return finish(mesh, comms, model, make_single_path_routing(comms, std::move(paths)),
                  timer.elapsed_ms(), workspace);
  }

 private:
  /// One communication's path DAG: the allowed links of each diagonal cut
  /// of its rectangle.
  struct CommState {
    CommRect rect;
    std::vector<char> allowed;               ///< by LinkId
    std::vector<std::vector<LinkId>> cuts;   ///< by depth

    CommState(const Mesh& mesh, const Communication& comm)
        : rect(mesh, comm.src, comm.snk),
          allowed(static_cast<std::size_t>(mesh.num_links()), 0),
          cuts(static_cast<std::size_t>(rect.length())) {
      for (std::int32_t t = 0; t < rect.length(); ++t) {
        rect.for_each_cut_link(t, [&](LinkId link) {
          cuts[static_cast<std::size_t>(t)].push_back(link);
          allowed[static_cast<std::size_t>(link)] = 1;
        });
      }
    }

    [[nodiscard]] bool single_path() const {
      return std::all_of(cuts.begin(), cuts.end(),
                         [](const std::vector<LinkId>& cut) { return cut.size() == 1; });
    }

    /// Adds weight/m_t to every allowed link of every cut t.
    void spread(double weight, LinkLoads& loads) const {
      for (const std::vector<LinkId>& cut : cuts) {
        const double share = weight / static_cast<double>(cut.size());
        for (const LinkId link : cut) loads.add(link, share);
      }
    }

    /// Drops the links that no longer lie on any surviving src→snk path:
    /// forward reachability from the source ∩ backward from the sink.
    void prune(const Mesh& mesh) {
      std::vector<char> forward(static_cast<std::size_t>(mesh.num_cores()), 0);
      std::vector<char> backward(forward.size(), 0);
      auto key = [&](Coord c) { return static_cast<std::size_t>(mesh.core_index(c)); };
      forward[key(rect.src())] = 1;
      for (const std::vector<LinkId>& cut : cuts) {
        for (const LinkId link : cut) {
          const LinkInfo& info = mesh.link(link);
          if (forward[key(info.from)] != 0) forward[key(info.to)] = 1;
        }
      }
      backward[key(rect.snk())] = 1;
      for (auto cut = cuts.rbegin(); cut != cuts.rend(); ++cut) {
        for (const LinkId link : *cut) {
          const LinkInfo& info = mesh.link(link);
          if (backward[key(info.to)] != 0) backward[key(info.from)] = 1;
        }
      }
      for (std::vector<LinkId>& cut : cuts) {
        std::erase_if(cut, [&](LinkId link) {
          const LinkInfo& info = mesh.link(link);
          const bool alive = allowed[static_cast<std::size_t>(link)] != 0 &&
                             forward[key(info.from)] != 0 &&
                             backward[key(info.to)] != 0;
          if (!alive) allowed[static_cast<std::size_t>(link)] = 0;
          return !alive;
        });
        PAMR_ASSERT_MSG(!cut.empty(), "prune emptied a cut — connectivity broken");
      }
    }
  };

  PrTrace* trace_ = nullptr;
};

}  // namespace pamr::seed
