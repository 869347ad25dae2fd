// Tests for the extension routers (RR — negotiated rip-up-and-reroute,
// SA — simulated annealing): structural validity, determinism, and the
// quality relations that motivate them (RR ≥ DP-greedy, both competitive
// with BEST, near-optimal on exactly solvable instances).
#include <gtest/gtest.h>

#include "pamr/comm/generator.hpp"
#include "pamr/opt/exact_solver.hpp"
#include "pamr/routing/extensions.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"

namespace pamr {
namespace {

class ExtensionRouters : public ::testing::TestWithParam<int> {
 protected:
  Mesh mesh{8, 8};
  PowerModel model = PowerModel::paper_discrete();

  CommSet draw(std::int32_t n, double lo, double hi, std::uint64_t seed) const {
    Rng rng(seed);
    UniformWorkload spec;
    spec.num_comms = n;
    spec.weight_lo = lo;
    spec.weight_hi = hi;
    return generate_uniform(mesh, spec, rng);
  }

  std::unique_ptr<Router> router() const {
    if (GetParam() == 0) return std::make_unique<RipUpRerouteRouter>();
    return std::make_unique<AnnealingRouter>();
  }
};

TEST_P(ExtensionRouters, ProducesStructurallyValidRoutings) {
  const auto r = router();
  for (int round = 0; round < 10; ++round) {
    const CommSet comms =
        draw(30, 100.0, 2000.0, derive_seed(0xE0, 0, static_cast<std::uint64_t>(round)));
    const RouteResult result = r->route(mesh, comms, model);
    ASSERT_TRUE(result.routing.has_value());
    const auto structure = validate_structure(mesh, comms, *result.routing, 1);
    EXPECT_TRUE(structure.ok) << r->name() << ": " << structure.error;
    if (result.valid) {
      EXPECT_TRUE(validate_routing(mesh, comms, *result.routing, model, 1).ok);
      const LinkLoads loads = loads_of_routing(mesh, *result.routing);
      const auto breakdown = model.breakdown(loads.values());
      ASSERT_TRUE(breakdown.has_value());
      EXPECT_NEAR(result.power, breakdown->total, 1e-6 * breakdown->total);
    }
  }
}

TEST_P(ExtensionRouters, Deterministic) {
  const CommSet comms = draw(25, 100.0, 1500.0, 0xDECAF);
  const auto r = router();
  const RouteResult a = r->route(mesh, comms, model);
  const RouteResult b = r->route(mesh, comms, model);
  EXPECT_EQ(a.valid, b.valid);
  if (a.valid) {
    EXPECT_DOUBLE_EQ(a.power, b.power);
  }
  ASSERT_TRUE(a.routing.has_value() && b.routing.has_value());
  for (std::size_t i = 0; i < comms.size(); ++i) {
    EXPECT_EQ(a.routing->per_comm[i].flows[0].path,
              b.routing->per_comm[i].flows[0].path);
  }
}

TEST_P(ExtensionRouters, HandlesEmptyAndSingleComm) {
  const auto r = router();
  const RouteResult empty = r->route(mesh, {}, model);
  EXPECT_TRUE(empty.valid);
  EXPECT_DOUBLE_EQ(empty.power, 0.0);

  const CommSet one{{{2, 2}, {5, 5}, 1200.0}};
  const RouteResult single = r->route(mesh, one, model);
  ASSERT_TRUE(single.valid);
  EXPECT_EQ(single.routing->per_comm[0].flows[0].path.length(), 6);
}

INSTANTIATE_TEST_SUITE_P(RrAndSa, ExtensionRouters, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return param_info.param == 0 ? std::string{"RR"}
                                                        : std::string{"SA"};
                         });

TEST(RipUpReroute, SolvesTheFigure2Instance) {
  const Mesh mesh(2, 2);
  const PowerModel model = PowerModel::theory(3.0, 4.0);
  const CommSet comms{{{0, 0}, {1, 1}, 1.0}, {{0, 0}, {1, 1}, 3.0}};
  const RouteResult result = RipUpRerouteRouter().route(mesh, comms, model);
  ASSERT_TRUE(result.valid);
  EXPECT_DOUBLE_EQ(result.power, 56.0);  // the 1-MP optimum
}

TEST(RipUpReroute, NeverWorseThanOneShotDpGreedy) {
  // RR's first pass IS the DP greedy; negotiation only accepts strict
  // improvements of the penalized cost, so the final penalized cost is ≤.
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  for (int round = 0; round < 10; ++round) {
    Rng rng(derive_seed(0xE1, 0, static_cast<std::uint64_t>(round)));
    UniformWorkload spec;
    spec.num_comms = 40;
    spec.weight_lo = 100.0;
    spec.weight_hi = 2000.0;
    const CommSet comms = generate_uniform(mesh, spec, rng);

    RipUpOptions one_pass;
    one_pass.max_passes = 0;  // initial construction only
    const RouteResult greedy = RipUpRerouteRouter(one_pass).route(mesh, comms, model);
    const RouteResult negotiated = RipUpRerouteRouter().route(mesh, comms, model);
    const double greedy_cost =
        cost.total(loads_of_routing(mesh, *greedy.routing).values());
    const double negotiated_cost =
        cost.total(loads_of_routing(mesh, *negotiated.routing).values());
    EXPECT_LE(negotiated_cost, greedy_cost + 1e-6);
  }
}

TEST(Annealing, ImprovesOnItsXyStart) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  const LoadCost cost(model);
  Rng rng(0xE2);
  UniformWorkload spec;
  spec.num_comms = 30;
  spec.weight_lo = 100.0;
  spec.weight_hi = 1500.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  const RouteResult xy = XYRouter().route(mesh, comms, model);
  const RouteResult sa = AnnealingRouter().route(mesh, comms, model);
  const double xy_cost = cost.total(loads_of_routing(mesh, *xy.routing).values());
  const double sa_cost = cost.total(loads_of_routing(mesh, *sa.routing).values());
  EXPECT_LE(sa_cost, xy_cost + 1e-6);  // keeps the best state seen, XY included
}

TEST(Extensions, NearOptimalOnSmallInstances) {
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::paper_discrete();
  int solved = 0;
  for (int round = 0; round < 8; ++round) {
    Rng rng(derive_seed(0xE3, 0, static_cast<std::uint64_t>(round)));
    UniformWorkload spec;
    spec.num_comms = 5;
    spec.weight_lo = 500.0;
    spec.weight_hi = 2500.0;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    const ExactResult exact = solve_exact_1mp(mesh, comms, model);
    if (!exact.complete || !exact.routing.has_value()) continue;
    ++solved;
    const RouteResult rr = RipUpRerouteRouter().route(mesh, comms, model);
    ASSERT_TRUE(rr.valid);
    EXPECT_LE(rr.power, exact.power * 1.25);
    EXPECT_GE(rr.power, exact.power - 1e-6);  // exact really is a lower bound
    const RouteResult sa = AnnealingRouter().route(mesh, comms, model);
    ASSERT_TRUE(sa.valid);
    EXPECT_LE(sa.power, exact.power * 1.25);
    EXPECT_GE(sa.power, exact.power - 1e-6);
  }
  EXPECT_GE(solved, 4);
}

}  // namespace
}  // namespace pamr
