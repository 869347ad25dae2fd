// Tests for the opt layer: path enumeration (Lemma 1), the diagonal-cut
// lower bound, the Frank–Wolfe max-MP solver, the exact 1-MP solver and the
// s-MP splitter — including the cross-solver sandwich
//     FW lower bound ≤ FW objective,  FW LB ≤ exact dynamic power,
//     exact ≤ BEST ≤ each base heuristic.
#include <gtest/gtest.h>

#include <set>

#include "pamr/comm/generator.hpp"
#include "pamr/opt/exact_solver.hpp"
#include "pamr/opt/frank_wolfe.hpp"
#include "pamr/opt/lower_bound.hpp"
#include "pamr/opt/path_enum.hpp"
#include "pamr/opt/split_router.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"

namespace pamr {
namespace {

TEST(PathCount, ClosedForm) {
  EXPECT_EQ(count_manhattan_paths(0, 0), 1u);
  EXPECT_EQ(count_manhattan_paths(0, 5), 1u);
  EXPECT_EQ(count_manhattan_paths(1, 1), 2u);
  EXPECT_EQ(count_manhattan_paths(2, 3), 10u);
  EXPECT_EQ(count_manhattan_paths(7, 7), 3432u);  // the 8×8 corner pair
}

TEST(PathCount, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(count_manhattan_paths(200, 200),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(PathEnum, MatchesCountAndIsDistinct) {
  const Mesh mesh(5, 5);
  const CommRect rect(mesh, {0, 0}, {2, 3});
  const auto paths = enumerate_manhattan_paths(rect);
  EXPECT_EQ(paths.size(), 10u);
  std::set<std::vector<LinkId>> unique;
  for (const Path& path : paths) {
    EXPECT_TRUE(mesh.is_shortest(path));
    EXPECT_TRUE(unique.insert(path.links).second) << "duplicate path";
  }
}

TEST(PathEnum, AllQuadrants) {
  const Mesh mesh(4, 4);
  for (const auto& [src, snk] :
       {std::pair{Coord{0, 0}, Coord{2, 2}}, {Coord{0, 3}, Coord{2, 1}},
        {Coord{3, 3}, Coord{1, 1}}, {Coord{3, 0}, Coord{1, 2}}}) {
    const CommRect rect(mesh, src, snk);
    EXPECT_EQ(enumerate_manhattan_paths(rect).size(), 6u);
  }
}

TEST(PathEnum, RespectsLimit) {
  const Mesh mesh(8, 8);
  const CommRect rect(mesh, {0, 0}, {7, 7});
  EXPECT_THROW((void)enumerate_manhattan_paths(rect, 100), std::logic_error);
}

TEST(MinCostPath, FindsTheCheapPath) {
  const Mesh mesh(3, 3);
  const CommRect rect(mesh, {0, 0}, {2, 2});
  // Make row 0 and column 0 expensive; the staircase through (1,1) wins.
  const Path path = min_cost_manhattan_path(rect, [&](LinkId link) {
    const LinkInfo& info = mesh.link(link);
    if (info.from.u == 0 && info.to.u == 0) return 100.0;  // row 0 horizontal
    if (info.from.v == 0 && info.to.v == 0) return 100.0;  // column 0 vertical
    return 1.0;
  });
  EXPECT_TRUE(mesh.is_shortest(path));
  // Any path must take one expensive first hop; the best total is 103.
  double cost = 0.0;
  for (const LinkId link : path.links) {
    const LinkInfo& info = mesh.link(link);
    const bool expensive = (info.from.u == 0 && info.to.u == 0) ||
                           (info.from.v == 0 && info.to.v == 0);
    cost += expensive ? 100.0 : 1.0;
  }
  EXPECT_DOUBLE_EQ(cost, 103.0);
}

TEST(MinCostPath, AgreesWithEnumerationOnRandomCosts) {
  const Mesh mesh(5, 5);
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    const Coord src{static_cast<std::int32_t>(rng.below(5)),
                    static_cast<std::int32_t>(rng.below(5))};
    Coord snk = src;
    while (snk == src) {
      snk = {static_cast<std::int32_t>(rng.below(5)),
             static_cast<std::int32_t>(rng.below(5))};
    }
    std::vector<double> costs(static_cast<std::size_t>(mesh.num_links()));
    for (auto& c : costs) c = rng.uniform(0.1, 10.0);
    const auto oracle = [&](LinkId link) { return costs[static_cast<std::size_t>(link)]; };

    const CommRect rect(mesh, src, snk);
    const Path dp = min_cost_manhattan_path(rect, oracle);
    double dp_cost = 0.0;
    for (const LinkId link : dp.links) dp_cost += oracle(link);

    double brute = 1e300;
    for (const Path& path : enumerate_manhattan_paths(rect)) {
      double c = 0.0;
      for (const LinkId link : path.links) c += oracle(link);
      brute = std::min(brute, c);
    }
    EXPECT_NEAR(dp_cost, brute, 1e-9);
  }
}

TEST(DiagonalBound, SingleCommunicationBound) {
  // One communication of weight w and length ℓ: each of its ℓ cuts carries
  // w spread over the full mesh cut; the bound must hold and be below the
  // single-path dynamic power ℓ·w^α.
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::theory(3.0);
  const CommSet comms{{{0, 0}, {3, 3}, 2.0}};
  const DiagonalBound bound = diagonal_lower_bound(mesh, comms, model);
  EXPECT_GT(bound.total, 0.0);
  EXPECT_LE(bound.total, 6.0 * 8.0 + 1e-9);
  EXPECT_DOUBLE_EQ(bound.per_direction[static_cast<int>(Quadrant::kSW)], 0.0);
}

TEST(DiagonalBound, LowerBoundsEveryHeuristicDynamicPower) {
  const Mesh mesh(8, 8);
  const PowerModel continuous = PowerModel::theory(2.95, 1e18);
  Rng rng(4242);
  for (int round = 0; round < 10; ++round) {
    UniformWorkload spec;
    spec.num_comms = 15;
    spec.weight_lo = 100.0;
    spec.weight_hi = 2000.0;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    const DiagonalBound bound = diagonal_lower_bound(mesh, comms, continuous);
    for (const RouterKind kind : all_base_routers()) {
      const RouteResult result = make_router(kind)->route(mesh, comms, continuous);
      ASSERT_TRUE(result.valid);
      EXPECT_LE(bound.total, result.breakdown.dynamic_part * (1.0 + 1e-9))
          << to_cstring(kind);
    }
  }
}

TEST(FrankWolfe, Figure2ReachesTheSplitOptimum) {
  const Mesh mesh(2, 2);
  const PowerModel model = PowerModel::theory(3.0, 4.0);
  const CommSet comms{{{0, 0}, {1, 1}, 1.0}, {{0, 0}, {1, 1}, 3.0}};
  FrankWolfeOptions options;
  options.max_iterations = 500;
  options.relative_gap = 1e-6;
  const FrankWolfeResult result = solve_max_mp(mesh, comms, model, options);
  // Optimal max-MP: split 2/2 over the two L-paths → 4·2³ = 32. FW
  // converges at O(1/k), so allow a small residual gap.
  EXPECT_NEAR(result.objective, 32.0, 0.3);
  EXPECT_LE(result.lower_bound, result.objective + 1e-12);
  EXPECT_GT(result.lower_bound, 30.0);
  EXPECT_TRUE(validate_structure(mesh, comms, result.routing, 0).ok);
}

TEST(FrankWolfe, LowerBoundsTheExactSinglePathOptimum) {
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::theory(3.0, 1e18);
  Rng rng(31337);
  for (int round = 0; round < 5; ++round) {
    UniformWorkload spec;
    spec.num_comms = 5;
    spec.weight_lo = 1.0;
    spec.weight_hi = 10.0;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    const FrankWolfeResult fw = solve_max_mp(mesh, comms, model);
    const ExactResult exact = solve_exact_1mp(mesh, comms, model);
    ASSERT_TRUE(exact.complete);
    ASSERT_TRUE(exact.routing.has_value());
    // Exact power here is purely dynamic (Pleak = 0), so the max-MP lower
    // bound applies to it.
    EXPECT_LE(fw.lower_bound, exact.power * (1.0 + 1e-9));
    // And the splittable optimum cannot be worse than the 1-MP optimum.
    EXPECT_LE(fw.objective, exact.power * (1.0 + 0.02));
  }
}

TEST(FrankWolfe, FlowConservationPerCommunication) {
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::theory(3.0, 1e18);
  const CommSet comms{{{0, 0}, {3, 2}, 7.0}, {{3, 3}, {0, 1}, 4.0}};
  const FrankWolfeResult result = solve_max_mp(mesh, comms, model);
  ASSERT_EQ(result.routing.per_comm.size(), 2u);
  for (std::size_t i = 0; i < comms.size(); ++i) {
    EXPECT_NEAR(result.routing.per_comm[i].total_weight(), comms[i].weight, 1e-9);
    for (const auto& flow : result.routing.per_comm[i].flows) {
      EXPECT_TRUE(mesh.is_shortest(flow.path));
      EXPECT_GT(flow.weight, 0.0);
    }
  }
}

TEST(ExactSolver, MatchesBruteForceOnTinyInstances) {
  const Mesh mesh(3, 3);
  const PowerModel model = PowerModel::theory(3.0, 100.0);
  Rng rng(2024);
  for (int round = 0; round < 10; ++round) {
    CommSet comms;
    for (int i = 0; i < 3; ++i) {
      const auto src = static_cast<std::int32_t>(rng.below(9));
      auto snk = src;
      while (snk == src) snk = static_cast<std::int32_t>(rng.below(9));
      comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk),
                                    rng.uniform(1.0, 8.0)});
    }
    const ExactResult exact = solve_exact_1mp(mesh, comms, model);
    ASSERT_TRUE(exact.complete);
    ASSERT_TRUE(exact.routing.has_value());

    // Brute force over the full cartesian product of paths.
    std::vector<std::vector<Path>> all_paths;
    for (const auto& comm : comms) {
      all_paths.push_back(
          enumerate_manhattan_paths(CommRect(mesh, comm.src, comm.snk)));
    }
    double brute = 1e300;
    std::vector<std::size_t> pick(comms.size(), 0);
    const auto evaluate = [&]() {
      LinkLoads loads(mesh);
      for (std::size_t i = 0; i < comms.size(); ++i) {
        loads.add_path(all_paths[i][pick[i]], comms[i].weight);
      }
      if (const auto power = model.total_power(loads.values()); power.has_value()) {
        brute = std::min(brute, *power);
      }
    };
    // Odometer over path choices.
    for (;;) {
      evaluate();
      std::size_t digit = 0;
      while (digit < pick.size() && ++pick[digit] == all_paths[digit].size()) {
        pick[digit] = 0;
        ++digit;
      }
      if (digit == pick.size()) break;
    }
    EXPECT_NEAR(exact.power, brute, 1e-9 * brute);
  }
}

TEST(ExactSolver, NeverWorseThanBest) {
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(555);
  for (int round = 0; round < 5; ++round) {
    UniformWorkload spec;
    spec.num_comms = 5;
    spec.weight_lo = 500.0;
    spec.weight_hi = 3000.0;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    const ExactResult exact = solve_exact_1mp(mesh, comms, model);
    ASSERT_TRUE(exact.complete);
    const RouteResult best = BestRouter().route(mesh, comms, model);
    if (best.valid) {
      ASSERT_TRUE(exact.routing.has_value());
      EXPECT_LE(exact.power, best.power + 1e-6);
      EXPECT_TRUE(validate_routing(mesh, comms, *exact.routing, model, 1).ok);
    }
  }
}

TEST(ExactSolver, DetectsInfeasibleInstances) {
  // Total corner-to-corner traffic exceeds the total cut capacity around
  // the source: no 1-MP routing can exist.
  const Mesh mesh(2, 2);
  const PowerModel model = PowerModel::theory(3.0, 4.0);
  const CommSet comms{{{0, 0}, {1, 1}, 4.0}, {{0, 0}, {1, 1}, 4.0},
                      {{0, 0}, {1, 1}, 4.0}};
  const ExactResult exact = solve_exact_1mp(mesh, comms, model);
  EXPECT_TRUE(exact.complete);
  EXPECT_FALSE(exact.routing.has_value());
}

TEST(SplitRouter, MorePathsNeverHurt) {
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::theory(3.0, 1e18);
  const CommSet comms{{{0, 0}, {3, 3}, 8.0}, {{0, 3}, {3, 0}, 8.0}};
  double previous = 1e300;
  for (const std::int32_t s : {1, 2, 4, 8}) {
    const SplitRouteResult result = route_split(mesh, comms, model, s);
    ASSERT_TRUE(result.valid) << "s=" << s;
    EXPECT_TRUE(validate_routing(mesh, comms, result.routing, model,
                                 static_cast<std::size_t>(s))
                    .ok);
    EXPECT_LE(result.power, previous * (1.0 + 1e-9)) << "s=" << s;
    previous = result.power;
  }
}

TEST(SplitRouter, FindsSolutionsWhereSinglePathCannot) {
  // One communication heavier than any single link: only splitting works.
  const Mesh mesh(2, 2);
  const PowerModel model = PowerModel::theory(3.0, 4.0);
  const CommSet comms{{{0, 0}, {1, 1}, 6.0}};
  EXPECT_FALSE(BestRouter().route(mesh, comms, model).valid);
  const SplitRouteResult split = route_split(mesh, comms, model, 2);
  ASSERT_TRUE(split.valid);
  EXPECT_DOUBLE_EQ(split.power, 4 * 27.0);  // 3+3 over the two L-paths
}

}  // namespace
}  // namespace pamr
