#include "pamr/topo/topo_router.hpp"

#include <optional>
#include <utility>

#include "pamr/routing/link_loads.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {
namespace topo {

namespace {

/// Deterministic truncation bound for the ≤2-change enumeration. Generous
/// for the path families it is meant to cover (a torus axis pair yields at
/// most 4 direction-sign combinations × path count per combination); the
/// DFS order makes any truncation reproducible.
constexpr std::size_t kMaxTwoChangePaths = 256;

void enumerate_two_change(const Topology& topology, Coord at, Coord snk,
                          std::int32_t last_dir, int changes, Path& prefix,
                          std::vector<Path>& out) {
  if (out.size() >= kMaxTwoChangePaths) return;
  if (at == snk) {
    out.push_back(prefix);
    return;
  }
  for (const TopoStep& step : topology.next_steps(at, snk)) {
    const auto dir = static_cast<std::int32_t>(topology.link(step.link).dir);
    const int next_changes = changes + (last_dir >= 0 && dir != last_dir ? 1 : 0);
    if (next_changes > 2) continue;
    prefix.links.push_back(step.link);
    enumerate_two_change(topology, step.to, snk, dir, next_changes, prefix, out);
    prefix.links.pop_back();
    if (out.size() >= kMaxTwoChangePaths) return;
  }
}

/// Penalized cost of adding `weight` along `path` on top of `loads`. Links
/// of a shortest path are distinct, so per-link deltas compose exactly.
double path_cost(const LoadCost& cost, const LinkLoads& loads, const Path& path,
                 double weight) {
  double sum = 0.0;
  for (const LinkId link : path.links) {
    const double before = loads.load(link);
    sum += cost.delta(before, before + weight);
  }
  return sum;
}

bool path_uses(const Path& path, LinkId link) {
  for (const LinkId id : path.links) {
    if (id == link) return true;
  }
  return false;
}

void remove_path(LinkLoads& loads, const Path& path, double weight) {
  for (const LinkId link : path.links) loads.add(link, -weight);
}

/// XY analogue: every communication takes its canonical path.
Routing route_xy(const Topology& topology, const CommSet& comms) {
  Routing routing;
  routing.per_comm.resize(comms.size());
  for (std::size_t i = 0; i < comms.size(); ++i) {
    routing.per_comm[i].flows.push_back(RoutedFlow{
        topology.canonical_path(comms[i].src, comms[i].snk), comms[i].weight});
  }
  return routing;
}

/// SG and IG analogues: communications by decreasing weight, each path
/// built hop by hop onto the next step whose link has the smallest
/// key(loads, link, weight); ties keep the pinned next_steps order.
template <typename Key>
Routing route_greedy(const Topology& topology, const CommSet& comms, const Key& key) {
  Routing routing;
  routing.per_comm.resize(comms.size());
  LinkLoads loads(topology.num_links());
  for (const std::size_t idx : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[idx];
    Path path;
    path.src = comm.src;
    path.snk = comm.snk;
    Coord at = comm.src;
    while (at != comm.snk) {
      const std::vector<TopoStep> steps = topology.next_steps(at, comm.snk);
      PAMR_ASSERT(!steps.empty());
      const TopoStep* best = &steps.front();
      auto best_key = key(loads, best->link, comm.weight);
      for (const TopoStep& step : steps) {
        const auto candidate = key(loads, step.link, comm.weight);
        if (candidate < best_key) {
          best = &step;
          best_key = candidate;
        }
      }
      path.links.push_back(best->link);
      at = best->to;
    }
    loads.add_path(path, comm.weight);
    routing.per_comm[idx].flows.push_back(RoutedFlow{std::move(path), comm.weight});
  }
  return routing;
}

/// SG analogue: the least-loaded next step.
Routing route_sg(const Topology& topology, const CommSet& comms) {
  return route_greedy(topology, comms, [](const LinkLoads& loads, LinkId link, double) {
    return loads.load(link);
  });
}

/// IG analogue: the next step of cheapest penalized LoadCost delta; ties go
/// to the least-loaded link.
Routing route_ig(const Topology& topology, const CommSet& comms,
                 const PowerModel& model) {
  const LoadCost cost(model);
  return route_greedy(
      topology, comms, [&cost](const LinkLoads& loads, LinkId link, double weight) {
        const double before = loads.load(link);
        return std::pair<double, double>(cost.delta(before, before + weight), before);
      });
}

/// TB analogue: communications by decreasing weight; the cheapest (LoadCost
/// delta) path of the ≤2-change enumeration, ties to the earliest
/// enumerated (the canonical path first).
Routing route_tb(const Topology& topology, const CommSet& comms,
                 const PowerModel& model) {
  const LoadCost cost(model);
  Routing routing;
  routing.per_comm.resize(comms.size());
  LinkLoads loads(topology.num_links());
  for (const std::size_t idx : order_by_decreasing_weight(comms)) {
    const Communication& comm = comms[idx];
    const std::vector<Path> candidates =
        two_change_paths(topology, comm.src, comm.snk);
    PAMR_ASSERT(!candidates.empty());
    const Path* best = &candidates.front();
    double best_cost = path_cost(cost, loads, *best, comm.weight);
    for (const Path& candidate : candidates) {
      const double candidate_cost = path_cost(cost, loads, candidate, comm.weight);
      if (candidate_cost < best_cost) {
        best = &candidate;
        best_cost = candidate_cost;
      }
    }
    loads.add_path(*best, comm.weight);
    routing.per_comm[idx].flows.push_back(RoutedFlow{*best, comm.weight});
  }
  return routing;
}

/// Move cap shared by the local-search analogues, mirroring the mesh XYI's
/// safety-net sizing: generous against any observed descent, and the stats
/// report `converged = false` when it truncates.
std::size_t move_cap(const CommSet& comms) { return 8 * comms.size() + 64; }

/// The local-search move of XYI and PR: the ≤2-change path of `comm` that
/// avoids `avoid` and costs strictly less on `loads` (which must not hold
/// comm's own flow) than `current`; ties to the earliest enumerated. None
/// when no candidate improves.
std::optional<Path> cheaper_path(const Topology& topology, const LoadCost& cost,
                                 const LinkLoads& loads, const Communication& comm,
                                 const Path& current, LinkId avoid) {
  double best_cost = path_cost(cost, loads, current, comm.weight);
  std::vector<Path> candidates = two_change_paths(topology, comm.src, comm.snk);
  Path* best = nullptr;
  for (Path& candidate : candidates) {
    if (path_uses(candidate, avoid)) continue;
    const double candidate_cost = path_cost(cost, loads, candidate, comm.weight);
    if (candidate_cost < best_cost) {
      best = &candidate;
      best_cost = candidate_cost;
    }
  }
  if (best == nullptr) return std::nullopt;
  // Paranoid: a PR move exists to unload the avoided link — a replacement
  // that still crosses it means the filter broke and PR's retirement
  // argument with it. And a move must stay inside the shortest-path family:
  // two_change_paths enumerates only distance-reducing chains, and a longer
  // path would silently change the load accounting every later move reads.
  PAMR_INVARIANT("topo-router", !path_uses(*best, avoid),
                 "local-search move still crosses the link it must avoid");
  PAMR_INVARIANT("topo-router", best->length() == topology.distance(comm.src, comm.snk),
                 "local-search move left the shortest-path family");
  return std::move(*best);
}

/// XYI analogue: start from the canonical routing, then sweep the
/// communications in index order re-picking each one's cheapest ≤2-change
/// path, applying strict improvements only, until a full sweep changes
/// nothing (or the move cap trips).
Routing route_xyi(const Topology& topology, const CommSet& comms,
                  const PowerModel& model, LocalSearchStats& stats) {
  const LoadCost cost(model);
  Routing routing = route_xy(topology, comms);
  LinkLoads loads(topology.num_links());
  loads.add_routing(routing);
  const std::size_t cap = move_cap(comms);
  bool improved = true;
  while (improved && stats.moves < cap) {
    improved = false;
    for (std::size_t i = 0; i < comms.size() && stats.moves < cap; ++i) {
      const Communication& comm = comms[i];
      RoutedFlow& flow = routing.per_comm[i].flows.front();
      remove_path(loads, flow.path, comm.weight);
      if (std::optional<Path> better =
              cheaper_path(topology, cost, loads, comm, flow.path, kInvalidLink)) {
        flow.path = *std::move(better);
        ++stats.moves;
        improved = true;
      }
      loads.add_path(flow.path, comm.weight);
    }
  }
  stats.converged = !improved;
  return routing;
}

/// PR analogue: start from the canonical routing; repeatedly take the
/// most-loaded unretired link (ties to the lowest id) and reroute its
/// heaviest crossing communication onto a strictly cheaper ≤2-change path
/// avoiding that link; when no crossing communication improves, retire the
/// link.
Routing route_pr(const Topology& topology, const CommSet& comms,
                 const PowerModel& model, LocalSearchStats& stats) {
  const LoadCost cost(model);
  Routing routing = route_xy(topology, comms);
  LinkLoads loads(topology.num_links());
  loads.add_routing(routing);
  std::vector<bool> retired(static_cast<std::size_t>(topology.num_links()), false);
  const std::vector<std::size_t> order = order_by_decreasing_weight(comms);
  const std::size_t cap = move_cap(comms);
  while (stats.moves < cap) {
    LinkId hot = kInvalidLink;
    for (LinkId link = 0; link < topology.num_links(); ++link) {
      if (retired[static_cast<std::size_t>(link)] || loads.load(link) <= 0.0) continue;
      if (hot == kInvalidLink || loads.load(link) > loads.load(hot)) hot = link;
    }
    if (hot == kInvalidLink) break;
    bool moved = false;
    for (const std::size_t idx : order) {
      const Communication& comm = comms[idx];
      RoutedFlow& flow = routing.per_comm[idx].flows.front();
      if (!path_uses(flow.path, hot)) continue;
      remove_path(loads, flow.path, comm.weight);
      if (std::optional<Path> better =
              cheaper_path(topology, cost, loads, comm, flow.path, hot)) {
        flow.path = *std::move(better);
        ++stats.moves;
        moved = true;
      }
      loads.add_path(flow.path, comm.weight);
      if (moved) break;
    }
    if (!moved) retired[static_cast<std::size_t>(hot)] = true;
  }
  stats.converged = stats.moves < cap;
  return routing;
}

}  // namespace

std::vector<Path> two_change_paths(const Topology& topology, Coord src, Coord snk) {
  std::vector<Path> out;
  Path prefix;
  prefix.src = src;
  prefix.snk = snk;
  enumerate_two_change(topology, src, snk, -1, 0, prefix, out);
  return out;
}

Routing analogue_routing(const Topology& topology, RouterKind kind,
                         const CommSet& comms, const PowerModel& model,
                         LocalSearchStats& stats) {
  switch (kind) {
    case RouterKind::kXY: return route_xy(topology, comms);
    case RouterKind::kSG: return route_sg(topology, comms);
    case RouterKind::kIG: return route_ig(topology, comms, model);
    case RouterKind::kTB: return route_tb(topology, comms, model);
    case RouterKind::kXYI: return route_xyi(topology, comms, model, stats);
    case RouterKind::kPR: return route_pr(topology, comms, model, stats);
    case RouterKind::kBest: break;
  }
  PAMR_CHECK(false, "no analogue routing for this router kind");
  return {};  // unreachable
}

}  // namespace topo
}  // namespace pamr
