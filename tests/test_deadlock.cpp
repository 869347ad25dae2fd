// Tests for the deadlock-analysis substrate (§1's "we assume that a
// deadlock avoidance technique is used"): channel dependency graphs, cycle
// detection, XY's turn-model freedom, a hand-built Manhattan deadlock, and
// the quadrant virtual-channel theorem, machine-checked by
// verify_vc_acyclic on the rectangular topology.
#include <gtest/gtest.h>

#include <algorithm>

#include "pamr/comm/generator.hpp"
#include "pamr/routing/deadlock.hpp"
#include "pamr/routing/routers.hpp"

namespace pamr {
namespace {

TEST(Cdg, EdgesFollowPathAdjacency) {
  const Mesh mesh(3, 3);
  const CommSet comms{{{0, 0}, {2, 2}, 1.0}};
  const Routing routing =
      make_single_path_routing(comms, {xy_path(mesh, {0, 0}, {2, 2})});
  const ChannelDependencyGraph graph = channel_dependency_graph(mesh, routing);
  const Path path = xy_path(mesh, {0, 0}, {2, 2});
  for (std::size_t hop = 0; hop + 1 < path.links.size(); ++hop) {
    const auto& edges = graph[static_cast<std::size_t>(path.links[hop])];
    EXPECT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0], path.links[hop + 1]);
  }
  // The last link depends on nothing.
  EXPECT_TRUE(graph[static_cast<std::size_t>(path.links.back())].empty());
}

TEST(Cdg, DuplicateDependenciesCollapse) {
  const Mesh mesh(3, 3);
  const CommSet comms{{{0, 0}, {2, 2}, 1.0}, {{0, 0}, {2, 2}, 2.0}};
  const Routing routing = make_single_path_routing(
      comms, {xy_path(mesh, {0, 0}, {2, 2}), xy_path(mesh, {0, 0}, {2, 2})});
  const ChannelDependencyGraph graph = channel_dependency_graph(mesh, routing);
  for (const auto& edges : graph) EXPECT_LE(edges.size(), 1u);
}

TEST(Deadlock, XyRoutingIsAlwaysFree) {
  // Turn-model classic: XY permits only H→V turns, so the CDG is acyclic
  // for every workload.
  const Mesh mesh(8, 8);
  Rng rng(404);
  for (int round = 0; round < 20; ++round) {
    UniformWorkload spec;
    spec.num_comms = 60;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    std::vector<Path> paths;
    paths.reserve(comms.size());
    for (const auto& comm : comms) paths.push_back(xy_path(mesh, comm.src, comm.snk));
    const Routing routing = make_single_path_routing(comms, std::move(paths));
    EXPECT_FALSE(has_deadlock_risk(mesh, routing));
  }
}

TEST(Deadlock, FourQuadrantRingCanDeadlock) {
  // The canonical counter-example: four L-paths chasing each other around a
  // 2×2 block — each holds one link of the ring and requests the next.
  const Mesh mesh(3, 3);
  const CommSet comms{
      {{0, 0}, {1, 1}, 1.0},  // E then S (SE quadrant, YX-turned)
      {{0, 1}, {1, 0}, 1.0},  // S then W
      {{1, 1}, {0, 0}, 1.0},  // W then N
      {{1, 0}, {0, 1}, 1.0},  // N then E
  };
  std::vector<Path> paths{
      path_from_cores(mesh, {{0, 0}, {0, 1}, {1, 1}}),
      path_from_cores(mesh, {{0, 1}, {1, 1}, {1, 0}}),
      path_from_cores(mesh, {{1, 1}, {1, 0}, {0, 0}}),
      path_from_cores(mesh, {{1, 0}, {0, 0}, {0, 1}}),
  };
  const Routing routing = make_single_path_routing(comms, std::move(paths));
  EXPECT_TRUE(validate_structure(mesh, comms, routing, 1).ok);
  EXPECT_TRUE(has_deadlock_risk(mesh, routing));

  const auto cycle = find_dependency_cycle(channel_dependency_graph(mesh, routing));
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 4u);
  EXPECT_EQ(cycle->front(), cycle->back());
  // Every consecutive pair in the reported cycle is a real CDG edge.
  const auto graph = channel_dependency_graph(mesh, routing);
  for (std::size_t i = 0; i + 1 < cycle->size(); ++i) {
    const auto& edges = graph[static_cast<std::size_t>((*cycle)[i])];
    EXPECT_NE(std::find(edges.begin(), edges.end(), (*cycle)[i + 1]), edges.end());
  }
}

TEST(Deadlock, QuadrantVcMakesTheRingSafe) {
  // The same four flows sit in four different quadrants, so the quadrant-VC
  // classes of the rectangular topology separate the ring onto four
  // channels.
  const Mesh mesh(3, 3);
  const CommSet comms{
      {{0, 0}, {1, 1}, 1.0},
      {{0, 1}, {1, 0}, 1.0},
      {{1, 1}, {0, 0}, 1.0},
      {{1, 0}, {0, 1}, 1.0},
  };
  std::vector<Path> paths{
      path_from_cores(mesh, {{0, 0}, {0, 1}, {1, 1}}),
      path_from_cores(mesh, {{0, 1}, {1, 1}, {1, 0}}),
      path_from_cores(mesh, {{1, 1}, {1, 0}, {0, 0}}),
      path_from_cores(mesh, {{1, 0}, {0, 0}, {0, 1}}),
  };
  for (std::int32_t quadrant = 0; quadrant < 4; ++quadrant) {
    const Path& path = paths[static_cast<std::size_t>(quadrant)];
    EXPECT_EQ(mesh.vc_classes(path),
              std::vector<std::int32_t>(path.links.size(), quadrant));
  }
  const Routing routing = make_single_path_routing(comms, std::move(paths));
  EXPECT_TRUE(verify_vc_acyclic(mesh, routing));
}

TEST(Deadlock, QuadrantVcHoldsForEveryHeuristicRouting) {
  // The theorem: within one quadrant every hop strictly increases the
  // diagonal index, so per-VC CDGs are acyclic for ANY Manhattan routing.
  // Machine-check it on the §5 heuristics over random workloads.
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(808);
  for (int round = 0; round < 8; ++round) {
    UniformWorkload spec;
    spec.num_comms = 40;
    spec.weight_lo = 100.0;
    spec.weight_hi = 1500.0;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    for (const RouterKind kind : all_base_routers()) {
      const RouteResult result = make_router(kind)->route(mesh, comms, model);
      ASSERT_TRUE(result.routing.has_value());
      EXPECT_TRUE(verify_vc_acyclic(mesh, *result.routing))
          << to_cstring(kind);
    }
  }
}

TEST(Deadlock, ManhattanHeuristicsDoCarryRiskWithoutVcs) {
  // Existence check: across random workloads, at least one heuristic
  // routing has a cyclic single-channel CDG — the reason the paper needs
  // the §1 assumption at all. (XY never does; the Manhattan ones can.)
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(909);
  bool found_risky = false;
  for (int round = 0; round < 20 && !found_risky; ++round) {
    UniformWorkload spec;
    spec.num_comms = 50;
    spec.weight_lo = 100.0;
    spec.weight_hi = 2500.0;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    for (const RouterKind kind :
         {RouterKind::kSG, RouterKind::kIG, RouterKind::kPR, RouterKind::kXYI}) {
      const RouteResult result = make_router(kind)->route(mesh, comms, model);
      if (result.routing.has_value() && has_deadlock_risk(mesh, *result.routing)) {
        found_risky = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_risky);
}

TEST(Deadlock, EmptyAndSingleFlowAreTriviallyFree) {
  const Mesh mesh(4, 4);
  Routing empty;
  EXPECT_FALSE(has_deadlock_risk(mesh, empty));
  const CommSet comms{{{0, 0}, {3, 3}, 1.0}};
  const Routing routing =
      make_single_path_routing(comms, {yx_path(mesh, {0, 0}, {3, 3})});
  EXPECT_FALSE(has_deadlock_risk(mesh, routing));
}

}  // namespace
}  // namespace pamr
