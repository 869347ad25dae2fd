// A reused RouteWorkspace leaves no trace in any result: for every policy
// and both route goals, routing instance B on a workspace that has just
// routed a different, larger instance A (and recycled its routing) gives
// the bits routing B on a fresh workspace gives — valid, power, breakdown
// and the routing itself.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pamr/comm/generator.hpp"
#include "pamr/exp/instance_runner.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"

namespace pamr {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_result(const RouteResult& a, const RouteResult& b,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(bits(a.power), bits(b.power));
  EXPECT_EQ(bits(a.breakdown.total), bits(b.breakdown.total));
  EXPECT_EQ(bits(a.breakdown.static_part), bits(b.breakdown.static_part));
  EXPECT_EQ(bits(a.breakdown.dynamic_part), bits(b.breakdown.dynamic_part));
  EXPECT_EQ(a.breakdown.active_links, b.breakdown.active_links);
  EXPECT_EQ(a.local_search.moves, b.local_search.moves);
  ASSERT_EQ(a.routing.has_value(), b.routing.has_value());
  if (!a.routing.has_value()) return;
  ASSERT_EQ(a.routing->per_comm.size(), b.routing->per_comm.size());
  for (std::size_t i = 0; i < a.routing->per_comm.size(); ++i) {
    const auto& fa = a.routing->per_comm[i].flows;
    const auto& fb = b.routing->per_comm[i].flows;
    ASSERT_EQ(fa.size(), fb.size()) << "communication " << i;
    for (std::size_t f = 0; f < fa.size(); ++f) {
      EXPECT_EQ(fa[f].path, fb[f].path) << "communication " << i;
      EXPECT_EQ(bits(fa[f].weight), bits(fb[f].weight)) << "communication " << i;
    }
  }
}

struct Instance {
  Mesh mesh;
  CommSet comms;
};

Instance make_instance(std::int32_t p, std::int32_t q, std::int32_t n, double lo,
                       double hi, std::uint64_t seed) {
  Instance instance{Mesh(p, q), {}};
  Rng rng(seed);
  instance.comms = generate_uniform(instance.mesh, UniformWorkload{n, lo, hi}, rng);
  return instance;
}

struct Policy {
  std::string name;
  std::unique_ptr<Router> router;
};

std::vector<Policy> policies() {
  std::vector<Policy> out;
  for (const RouterKind kind : all_base_routers()) {
    out.push_back({to_cstring(kind), make_router(kind)});
  }
  out.push_back({"BEST", make_router(RouterKind::kBest)});
  return out;
}

TEST(RouteWorkspace, AReusedWorkspaceRoutesLikeAFreshOne) {
  const PowerModel model = PowerModel::paper_discrete();
  // B: routable-ish 8×8 instances; the second runs a longer XYI descent.
  // Each A differs from B and is larger: more communications on the same
  // mesh (some overloaded, so witnesses fire and XYI moves), or a larger
  // mesh — two of which share one side with B, so per-shape tables must be
  // keyed on both sides.
  const std::vector<Instance> bs = {
      make_instance(8, 8, 24, 100.0, 1500.0, 11),
      make_instance(8, 8, 40, 100.0, 1500.0, 12),
  };
  const std::vector<Instance> as = {
      make_instance(8, 8, 70, 100.0, 2500.0, 12),
      make_instance(8, 8, 40, 2500.0, 3500.0, 13),
      make_instance(12, 10, 90, 100.0, 1500.0, 14),
      make_instance(8, 12, 60, 100.0, 1500.0, 15),
      make_instance(12, 8, 60, 100.0, 1500.0, 16),
  };
  for (const Policy& policy : policies()) {
    for (const RouteGoal goal : {RouteGoal::kRouting, RouteGoal::kVerdict}) {
      for (std::size_t j = 0; j < bs.size(); ++j) {
        const Instance& b = bs[j];
        const std::string context = policy.name +
                                    (goal == RouteGoal::kVerdict ? " verdict" : " routing") +
                                    ", instance B" + std::to_string(j);
        RouteWorkspace fresh;
        const RouteResult expected = policy.router->route(b.mesh, b.comms, model, goal, fresh);
        // The call-local workspace of the four-argument form is the same code.
        expect_same_result(policy.router->route(b.mesh, b.comms, model, goal), expected,
                           context + ", call-local workspace");
        for (std::size_t k = 0; k < as.size(); ++k) {
          RouteWorkspace used;
          RouteResult first = policy.router->route(as[k].mesh, as[k].comms, model, goal, used);
          used.recycle(first);
          expect_same_result(policy.router->route(b.mesh, b.comms, model, goal, used),
                             expected, context + ", after instance A" + std::to_string(k));
        }
      }
    }
  }
}

TEST(RouteWorkspace, RunInstanceIsIndependentOfTheWorkspaceHistory) {
  const PowerModel model = PowerModel::paper_discrete();
  const Instance a = make_instance(10, 10, 80, 100.0, 2500.0, 21);
  const Instance b = make_instance(8, 8, 30, 100.0, 1500.0, 22);
  sim::SimConfig sim_config;
  sim_config.cycles = 300;
  sim_config.warmup = 50;
  for (const sim::SimConfig* config : {static_cast<const sim::SimConfig*>(nullptr),
                                       static_cast<const sim::SimConfig*>(&sim_config)}) {
    RouteWorkspace used;
    (void)exp::run_instance(a.mesh, a.comms, model, config, used);
    const exp::InstanceSample reused =
        exp::run_instance(b.mesh, b.comms, model, config, used);
    RouteWorkspace fresh_workspace;
    const exp::InstanceSample fresh =
        exp::run_instance(b.mesh, b.comms, model, config, fresh_workspace);
    for (std::size_t s = 0; s < exp::kNumSeries; ++s) {
      EXPECT_EQ(reused.series[s].valid, fresh.series[s].valid) << s;
      EXPECT_EQ(bits(reused.series[s].power), bits(fresh.series[s].power)) << s;
      EXPECT_EQ(bits(reused.series[s].static_power), bits(fresh.series[s].static_power))
          << s;
    }
    EXPECT_EQ(reused.sim.ran, fresh.sim.ran);
    EXPECT_EQ(bits(reused.sim.latency_cycles), bits(fresh.sim.latency_cycles));
    EXPECT_EQ(bits(reused.sim.delivery), bits(fresh.sim.delivery));
    EXPECT_EQ(bits(reused.sim.throughput_mbps), bits(fresh.sim.throughput_mbps));
  }
}

TEST(RouteWorkspace, RecycledRoutingsAreRebuiltToSize) {
  // A recycled routing of more communications and longer paths serves a
  // smaller instance: per-communication storage is resized and refilled.
  const PowerModel model = PowerModel::paper_discrete();
  const Instance a = make_instance(12, 12, 60, 100.0, 800.0, 31);
  const Instance b = make_instance(6, 6, 9, 100.0, 800.0, 32);
  RouteWorkspace workspace;
  RouteResult big = make_router(RouterKind::kXY)->route(a.mesh, a.comms, model,
                                                        RouteGoal::kRouting, workspace);
  ASSERT_TRUE(big.routing.has_value());
  // A recycled routing may be multi-path, too.
  Routing split = *big.routing;
  for (CommRouting& comm : split.per_comm) comm.flows.push_back(comm.flows.front());
  workspace.recycle(std::move(split));
  workspace.recycle(big);
  EXPECT_FALSE(big.routing.has_value());
  const RouteResult small = make_router(RouterKind::kXY)->route(b.mesh, b.comms, model,
                                                                RouteGoal::kRouting, workspace);
  const RouteResult second = make_router(RouterKind::kXY)->route(
      b.mesh, b.comms, model, RouteGoal::kRouting, workspace);
  for (const RouteResult* result : {&small, &second}) {
    ASSERT_TRUE(result->routing.has_value());
    ASSERT_EQ(result->routing->num_comms(), b.comms.size());
    for (std::size_t i = 0; i < b.comms.size(); ++i) {
      ASSERT_EQ(result->routing->per_comm[i].flows.size(), 1u);
      EXPECT_EQ(result->routing->per_comm[i].flows[0].path,
                xy_path(b.mesh, b.comms[i].src, b.comms[i].snk));
    }
  }
}

}  // namespace
}  // namespace pamr
