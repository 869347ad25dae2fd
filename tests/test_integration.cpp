// Integration tests across the whole stack: task graphs → mapping →
// routing → power → NoC simulation, plus end-to-end reproduction of the
// paper's headline comparisons on fixed seeds.
#include <gtest/gtest.h>

#include "pamr/comm/task_graph.hpp"
#include "pamr/comm/traffic_pattern.hpp"
#include "pamr/exp/instance_runner.hpp"
#include "pamr/opt/exact_solver.hpp"
#include "pamr/opt/frank_wolfe.hpp"
#include "pamr/opt/split_router.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/sim/simulator.hpp"
#include "pamr/theory/np_reduction.hpp"

namespace pamr {
namespace {

TEST(EndToEnd, MappedApplicationsRouteAndSimulate) {
  // The paper's system-level scenario: several applications mapped onto one
  // CMP, their edges routed together.
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();

  const TaskGraph pipeline = TaskGraph::pipeline(6, 900.0);
  const TaskGraph fork = TaskGraph::fork_join(4, 600.0);
  const TaskGraph stencil = TaskGraph::stencil(3, 3, 400.0);
  Rng rng(1234);
  const std::vector<MappedApplication> apps{
      {&pipeline, map_row_major(pipeline, mesh, {0, 0})},
      {&fork, map_row_major(fork, mesh, {2, 0})},
      {&stencil, map_random(stencil, mesh, rng)},
  };
  const CommSet comms = extract_communications(apps);
  ASSERT_GT(comms.size(), 15u);

  const RouteResult best = BestRouter().route(mesh, comms, model);
  ASSERT_TRUE(best.valid);
  const RouteResult xy = XYRouter().route(mesh, comms, model);
  if (xy.valid) {
    EXPECT_LE(best.power, xy.power);
  }

  // The routed system sustains its bandwidth in the cycle-level simulator.
  sim::SimConfig config;
  config.cycles = 20000;
  config.warmup = 4000;
  const sim::SimStats stats = sim::simulate(mesh, comms, *best.routing, config);
  EXPECT_GT(stats.delivery_ratio(), 0.97);
}

TEST(EndToEnd, TransposeTrafficFavorsManhattanRouting) {
  // Under transpose traffic XY concentrates all turns on one diagonal;
  // Manhattan routing spreads them.
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(5);
  PatternSpec spec;
  spec.pattern = TrafficPattern::kTranspose;
  spec.weight = 1100.0;
  const CommSet comms = generate_pattern(mesh, spec, rng);
  const RouteResult xy = XYRouter().route(mesh, comms, model);
  const RouteResult best = BestRouter().route(mesh, comms, model);
  ASSERT_TRUE(best.valid);
  if (xy.valid) {
    EXPECT_LE(best.power, xy.power);
  }
}

TEST(EndToEnd, ExactOptimalSandwichOnSmallSystem) {
  // heuristics ≥ exact 1-MP ≥ splittable s-MP ≥ Frank–Wolfe LB (dynamic).
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::theory(2.95, 1e18);
  Rng rng(31415);
  CommSet comms;
  for (int i = 0; i < 6; ++i) {
    const auto src = static_cast<std::int32_t>(rng.below(16));
    auto snk = src;
    while (snk == src) snk = static_cast<std::int32_t>(rng.below(16));
    comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk),
                                  rng.uniform(1.0, 6.0)});
  }
  const RouteResult best = BestRouter().route(mesh, comms, model);
  ASSERT_TRUE(best.valid);
  const ExactResult exact = solve_exact_1mp(mesh, comms, model);
  ASSERT_TRUE(exact.complete);
  ASSERT_TRUE(exact.routing.has_value());
  const SplitRouteResult split = route_split(mesh, comms, model, 4);
  ASSERT_TRUE(split.valid);
  const FrankWolfeResult fw = solve_max_mp(mesh, comms, model);

  EXPECT_LE(exact.power, best.power + 1e-9);
  EXPECT_LE(fw.lower_bound, exact.power + 1e-9);
  EXPECT_LE(fw.lower_bound, split.power + 1e-9);
  // The heuristic portfolio should land within a factor 2 of optimal here.
  EXPECT_LE(best.power, 2.0 * exact.power);
}

TEST(EndToEnd, NpGadgetRoutingSurvivesTheSimulator) {
  const std::vector<std::int64_t> items{1, 1, 2, 2};
  const NpGadget gadget = build_np_gadget(items, 2);
  const auto subset = solve_two_partition(items);
  ASSERT_TRUE(subset.has_value());
  const Routing routing = certificate_routing(gadget, *subset);
  const Mesh mesh = gadget.make_mesh();
  // The gadget saturates every vertical link exactly; scale the simulator's
  // flit bandwidth to the gadget's BW so utilization 1.0 is attainable.
  sim::SimConfig config;
  config.cycles = 60000;
  config.warmup = 12000;
  config.flit_mbps = gadget.bandwidth;
  const sim::SimStats stats = sim::simulate(mesh, gadget.comms, routing, config);
  // Fully saturated but schedulable: deliveries should track offers closely
  // (exact saturation leaves no slack, so allow several percent).
  EXPECT_GT(stats.delivery_ratio(), 0.90);
}

TEST(EndToEnd, InstanceRunnerAgreesWithDirectRouterCalls) {
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(2222);
  CommSet comms;
  for (int i = 0; i < 25; ++i) {
    const auto src = static_cast<std::int32_t>(rng.below(64));
    auto snk = src;
    while (snk == src) snk = static_cast<std::int32_t>(rng.below(64));
    comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk),
                                  rng.uniform(100.0, 2000.0)});
  }
  RouteWorkspace workspace;
  const exp::InstanceSample sample =
      exp::run_instance(mesh, comms, model, nullptr, workspace);
  const auto kinds = all_base_routers();
  for (std::size_t h = 0; h < kinds.size(); ++h) {
    const RouteResult direct = make_router(kinds[h])->route(mesh, comms, model);
    EXPECT_EQ(sample.series[h].valid, direct.valid) << to_cstring(kinds[h]);
    if (direct.valid) {
      EXPECT_DOUBLE_EQ(sample.series[h].power, direct.power) << to_cstring(kinds[h]);
    }
  }
}

TEST(EndToEnd, StaticPowerFractionIsPlausible) {
  // §6.4: "static power accounts for 1/7-th of the total power" on the §6
  // mix. On a representative workload the fraction should sit in that
  // ballpark (wide tolerance — it depends on the draw).
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(31337);
  RunningStats fraction;
  for (int round = 0; round < 20; ++round) {
    CommSet comms;
    for (int i = 0; i < 25; ++i) {
      const auto src = static_cast<std::int32_t>(rng.below(64));
      auto snk = src;
      while (snk == src) snk = static_cast<std::int32_t>(rng.below(64));
      comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk),
                                    rng.uniform(100.0, 2500.0)});
    }
    const RouteResult best = BestRouter().route(mesh, comms, model);
    if (best.valid) fraction.add(best.breakdown.static_part / best.power);
  }
  ASSERT_GT(fraction.count(), 5u);
  EXPECT_GT(fraction.mean(), 0.03);
  EXPECT_LT(fraction.mean(), 0.45);
}

}  // namespace
}  // namespace pamr
