// XYI differential + convergence suite: the library's descent
// (CrossingIndex + LoadOrder + dirty-move memoization) must reproduce the
// seed loop (tests/seed_routers.hpp) bit for bit — same paths, same power,
// same move count —
// across mesh shapes, seeds and comm counts, including exact-tie workloads
// (equal weights make whole corridors carry exactly equal loads, which is
// where the stable-sort tie-break history and the paper's preferred-side
// move priority are observable). Every run also asserts non-truncation:
// the scaled move cap must never bite on these instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "pamr/comm/generator.hpp"
#include "pamr/routing/crossing_index.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/path.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/xy_moves.hpp"
#include "pamr/util/rng.hpp"
#include "seed_routers.hpp"

namespace pamr {
namespace {

struct BothResults {
  RouteResult ref;
  RouteResult inc;
};

BothResults route_both(const Mesh& mesh, const CommSet& comms) {
  const PowerModel model = PowerModel::paper_discrete();
  return {seed::XYImproverRouter().route(mesh, comms, model),
          XYImproverRouter().route(mesh, comms, model)};
}

/// The seed oracle's result and the library's, for properties both must
/// hold.
std::vector<RouteResult> route_each(const Mesh& mesh, const CommSet& comms) {
  BothResults both = route_both(mesh, comms);
  return {std::move(both.ref), std::move(both.inc)};
}

void expect_identical(const Mesh& mesh, const CommSet& comms, const std::string& label) {
  const auto [ref, inc] = route_both(mesh, comms);

  ASSERT_TRUE(ref.routing.has_value()) << label;
  ASSERT_TRUE(inc.routing.has_value()) << label;
  EXPECT_EQ(ref.valid, inc.valid) << label;
  EXPECT_EQ(ref.power, inc.power) << label;  // bitwise: same routing, same sum
  EXPECT_EQ(ref.local_search.moves, inc.local_search.moves) << label;
  // Non-truncation: the scaled cap must never silently truncate these runs.
  EXPECT_TRUE(ref.local_search.converged) << label;
  EXPECT_TRUE(inc.local_search.converged) << label;
  ASSERT_EQ(ref.routing->per_comm.size(), inc.routing->per_comm.size()) << label;
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const auto& ref_flows = ref.routing->per_comm[i].flows;
    const auto& inc_flows = inc.routing->per_comm[i].flows;
    ASSERT_EQ(ref_flows.size(), 1u) << label;
    ASSERT_EQ(inc_flows.size(), 1u) << label;
    EXPECT_EQ(ref_flows[0].path.links, inc_flows[0].path.links) << label << " comm " << i;
  }
}

using MeshShape = std::pair<int, int>;

class XyImproverDifferentialSweep : public ::testing::TestWithParam<MeshShape> {};

TEST_P(XyImproverDifferentialSweep, UniformWorkloadsAreBitIdentical) {
  const auto [p, q] = GetParam();
  const Mesh mesh(p, q);
  for (const std::uint64_t seed : {1ull, 2ull, 0xBEEFull}) {
    for (const std::int32_t nc : {1, 8, 40, 120}) {
      Rng rng(seed);
      UniformWorkload spec;
      spec.num_comms = nc;
      const CommSet comms = generate_uniform(mesh, spec, rng);
      expect_identical(mesh, comms,
                       std::to_string(p) + "x" + std::to_string(q) + " seed=" +
                           std::to_string(seed) + " nc=" + std::to_string(nc));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, XyImproverDifferentialSweep,
                         ::testing::Values(MeshShape(4, 4), MeshShape(8, 8),
                                           MeshShape(16, 16), MeshShape(3, 9),
                                           MeshShape(1, 12), MeshShape(9, 2)),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param.first) + "x" +
                                  std::to_string(param_info.param.second);
                         });

TEST(XyImproverDifferential, ScaledMeshIsBitIdentical) {
  // 32×32 — the matrix's largest mesh; nc kept moderate because the
  // reference side re-sorts all 3968 links per move.
  const Mesh mesh(32, 32);
  for (const std::uint64_t seed : {1ull, 0xBEEFull}) {
    for (const std::int32_t nc : {40, 100}) {
      Rng rng(seed);
      UniformWorkload spec;
      spec.num_comms = nc;
      const CommSet comms = generate_uniform(mesh, spec, rng);
      expect_identical(mesh, comms,
                       "32x32 seed=" + std::to_string(seed) + " nc=" + std::to_string(nc));
    }
  }
}

TEST(XyImproverDifferential, EqualWeightTiesAreBitIdentical) {
  // Every pair is listed twice at one shared weight, heavy enough that the
  // descent runs for hundreds of moves. A pair's two copies cross the same
  // hot links with the same candidate moves, so their deltas tie exactly
  // and the fold over the hot link's members must keep the first; equal
  // weights also put exactly equal loads on parallel corridors, where the
  // stable-history tie-break decides.
  for (const auto& [p, q] : {MeshShape(6, 6), MeshShape(8, 8), MeshShape(4, 9)}) {
    const Mesh mesh(p, q);
    Rng rng(derive_seed(0x1F5, static_cast<std::uint64_t>(p),
                        static_cast<std::uint64_t>(q)));
    CommSet comms;
    for (int i = 0; i < 150; ++i) {
      const auto src = static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(mesh.num_cores())));
      auto snk = src;
      while (snk == src) {
        snk = static_cast<std::int32_t>(
            rng.below(static_cast<std::uint64_t>(mesh.num_cores())));
      }
      for (int copy = 0; copy < 2; ++copy) {
        comms.push_back(Communication{mesh.core_coord(src), mesh.core_coord(snk), 600.0});
      }
    }
    const std::string label = "ties " + std::to_string(p) + "x" + std::to_string(q);
    expect_identical(mesh, comms, label);
    EXPECT_GE(XYImproverRouter().route(mesh, comms, PowerModel::paper_discrete())
                  .local_search.moves,
              200u)
        << label;
  }
}

TEST(XyImproverDifferential, HeavyOverloadIsBitIdentical) {
  // Far past capacity: the constructed routing is invalid under the model,
  // but both implementations must still construct the same one (the search
  // runs on the penalized LoadCost extension).
  const Mesh mesh(5, 5);
  Rng rng(0x0E44);
  UniformWorkload spec;
  spec.num_comms = 60;
  spec.weight_lo = 2000.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "overload 5x5");
}

TEST(XyImproverDifferential, SustainedOverloadAtScaleIsBitIdentical) {
  // The 32×32/nc=2000 benchmark shape scaled for CI: enough communications
  // per corridor that hot links stay far past capacity for most of the
  // descent, so candidate_delta runs through LoadCost's penalty branch
  // rather than the discrete fast path.
  const Mesh mesh(10, 10);
  Rng rng(0x5CA1E);
  UniformWorkload spec;
  spec.num_comms = 240;
  spec.weight_lo = 800.0;
  spec.weight_hi = 3400.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);
  expect_identical(mesh, comms, "sustained overload 10x10");
}

// ------------------------------------------------------------ edge cases --

TEST(XyImproverEdgeCases, AlreadyOptimalInputAppliesZeroMoves) {
  // Disjoint straight flows: every path is the unique shortest path, no
  // perpendicular step exists to swap — the fixed point is the input.
  const Mesh mesh(4, 4);
  const CommSet straight{{{0, 0}, {0, 3}, 800.0},
                         {{1, 0}, {1, 3}, 800.0},
                         {{2, 3}, {2, 0}, 800.0}};
  // An L-shaped single flow is also already optimal: every monotone path
  // has the same link count and carries the same load, so no rotation is
  // strictly improving.
  const CommSet l_shaped{{{0, 0}, {3, 3}, 800.0}};
  for (const CommSet& comms : {straight, l_shaped}) {
    for (const RouteResult& result : route_each(mesh, comms)) {
      ASSERT_TRUE(result.valid);
      EXPECT_EQ(result.local_search.moves, 0u);
      EXPECT_TRUE(result.local_search.converged);
    }
  }
}

TEST(XyImproverEdgeCases, SingleCommunicationStaysOnXyPath) {
  const Mesh mesh(8, 8);
  const CommSet comms{{{1, 2}, {5, 6}, 900.0}};
  for (const RouteResult& result : route_each(mesh, comms)) {
    ASSERT_TRUE(result.valid);
    EXPECT_EQ(result.local_search.moves, 0u);
    const Path& path = result.routing->per_comm[0].flows[0].path;
    EXPECT_EQ(path, xy_path(mesh, comms[0].src, comms[0].snk));
  }
}

TEST(XyImproverEdgeCases, DegenerateMeshesHaveNoMoves) {
  // On a 1×q or p×1 mesh every path is a straight line: XYI must terminate
  // with zero moves and still produce a structurally valid routing.
  for (const auto& [p, q] : {MeshShape(1, 12), MeshShape(12, 1)}) {
    const Mesh mesh(p, q);
    Rng rng(derive_seed(0xD0, static_cast<std::uint64_t>(p),
                        static_cast<std::uint64_t>(q)));
    UniformWorkload spec;
    spec.num_comms = 10;
    const CommSet comms = generate_uniform(mesh, spec, rng);
    for (const RouteResult& result : route_each(mesh, comms)) {
      ASSERT_TRUE(result.routing.has_value());
      EXPECT_EQ(result.local_search.moves, 0u);
      EXPECT_TRUE(result.local_search.converged);
    }
  }
}

TEST(XyImproverEdgeCases, EveryMoveStrictlyDecreasesPenalizedPower) {
  // Property: the descent is strictly monotone in the penalized LoadCost
  // total, for the seed oracle and the library alike, move by move
  // (observed through the trace hook).
  const Mesh mesh(8, 8);
  const PowerModel model = PowerModel::paper_discrete();
  Rng rng(0xACE);
  UniformWorkload spec;
  spec.num_comms = 80;
  spec.weight_lo = 1200.0;
  spec.weight_hi = 2600.0;
  const CommSet comms = generate_uniform(mesh, spec, rng);

  LinkLoads xy_loads(mesh);
  for (const Communication& comm : comms) {
    xy_loads.add_path(xy_path(mesh, comm.src, comm.snk), comm.weight);
  }
  const LoadCost cost(model);
  const double initial = cost.total(xy_loads.values());

  const auto expect_descent = [&](auto&& router, const char* label) {
    XyiTrace trace;
    router.set_trace(&trace);
    const RouteResult result = router.route(mesh, comms, model);
    ASSERT_GT(result.local_search.moves, 0u) << label;  // the workload must force moves
    ASSERT_EQ(trace.penalized_totals.size(), result.local_search.moves) << label;
    double previous = initial;
    for (std::size_t i = 0; i < trace.penalized_totals.size(); ++i) {
      EXPECT_LT(trace.penalized_totals[i], previous) << label << " move " << i;
      previous = trace.penalized_totals[i];
    }
  };
  expect_descent(seed::XYImproverRouter(), "seed");
  expect_descent(XYImproverRouter(), "library");
}

// ------------------------------------------------ read-window soundness --

/// A random monotone staircase from a random source to a random sink: the
/// unit steps of the source/sink rectangle in a random order.
std::vector<Coord> random_staircase(const Mesh& mesh, Rng& rng) {
  const auto pick = [&] {
    return mesh.core_coord(
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(mesh.num_cores()))));
  };
  const Coord src = pick();
  Coord snk = pick();
  while (snk == src) snk = pick();
  std::vector<Coord> steps;
  for (std::int32_t k = 0; k < std::abs(snk.u - src.u); ++k) {
    steps.push_back({sign_of(snk.u - src.u), 0});
  }
  for (std::int32_t k = 0; k < std::abs(snk.v - src.v); ++k) {
    steps.push_back({0, sign_of(snk.v - src.v)});
  }
  for (std::size_t k = steps.size(); k > 1; --k) {
    std::swap(steps[k - 1], steps[static_cast<std::size_t>(rng.below(k))]);
  }
  std::vector<Coord> cores{src};
  for (const Coord delta : steps) {
    cores.push_back({cores.back().u + delta.u, cores.back().v + delta.v});
  }
  return cores;
}

bool same_bits(const xyi::Candidate& a, const xyi::Candidate& b) {
  return std::bit_cast<std::uint64_t>(a.delta) == std::bit_cast<std::uint64_t>(b.delta) &&
         a.j == b.j && a.i == b.i && a.forward == b.forward;
}

TEST(XyImproverReadWindow, EveryLoadThatMovesACandidateStalesItsSlot) {
  // CrossingIndex reuses a slot while its communication is unrewritten and
  // no link of the slot's recorded read window changed load. Soundness:
  // whenever perturbing one link's load changes the bits of best_candidate,
  // a move that changes only that link's load must leave the slot stale.
  // Every link of the mesh is perturbed, at every hot step of random
  // staircases under random loads, on a continuous model (every load change
  // moves every term that reads it) and on the paper's discrete one.
  struct Model {
    PowerModel model;
    double weight_lo, weight_hi, background;
  };
  const Model models[] = {{PowerModel::theory(), 0.5, 2.0, 4.0},
                          {PowerModel::paper_discrete(), 100.0, 1500.0, 3000.0}};
  std::size_t must_be_stale = 0;
  std::size_t reported_fresh = 0;
  for (const auto& [p, q] : {MeshShape(1, 6), MeshShape(6, 1), MeshShape(2, 2),
                             MeshShape(3, 5), MeshShape(5, 3), MeshShape(5, 5)}) {
    const Mesh mesh(p, q);
    const auto num_links = static_cast<std::size_t>(mesh.num_links());
    Rng rng(derive_seed(0x5EAD, static_cast<std::uint64_t>(p),
                        static_cast<std::uint64_t>(q)));
    for (const Model& m : models) {
      const LoadCost cost(m.model);
      for (int trial = 0; trial < 60; ++trial) {
        const std::vector<Coord> cores = random_staircase(mesh, rng);
        std::vector<LinkId> links;
        for (std::size_t k = 0; k + 1 < cores.size(); ++k) {
          links.push_back(mesh.link_between(cores[k], cores[k + 1]));
        }
        const double weight = rng.uniform(m.weight_lo, m.weight_hi);
        LinkLoads loads(mesh);
        for (std::size_t l = 0; l < num_links; ++l) {
          loads.add(static_cast<LinkId>(l), rng.uniform(0.0, m.background));
        }
        for (const LinkId link : links) loads.add(link, weight);
        std::vector<double> cost_now(num_links);
        for (std::size_t l = 0; l < num_links; ++l) {
          cost_now[l] = cost(loads.load(static_cast<LinkId>(l)));
        }
        // Communication 0 is the staircase; communication 1 shares its
        // path and stands for another communication whose move changes
        // loads (its identity rewrite only advances the move epoch).
        CrossingIndex index;
        index.reset(mesh, 2);
        index.count_initial_path(cores);
        index.count_initial_path(cores);
        index.add_initial_path(0, cores);
        index.add_initial_path(1, cores);

        for (std::size_t pos = 0; pos < links.size(); ++pos) {
          const bool hot_vertical = !mesh.link(links[pos]).horizontal();
          const auto evaluate = [&](xyi::Window& window) {
            return xyi::best_candidate(mesh, cores, links, pos, hot_vertical, weight, loads,
                                       cost, cost_now, window);
          };
          CrossingIndex::Slot slot;
          slot.best = evaluate(slot.window);
          for (std::size_t l = 0; l < num_links; ++l) {
            const auto link = static_cast<LinkId>(l);
            const double before = loads.load(link);
            loads.add(link, rng.uniform(0.05, 1.0) * m.background);
            cost_now[l] = cost(loads.load(link));
            xyi::Window window;
            const bool moved = !same_bits(evaluate(window), slot.best);
            loads.mutable_values()[l] = before;
            cost_now[l] = cost(before);

            slot.fresh_stamp = index.epoch();
            index.apply_rewrite(1, cores, cores);
            index.note_load_change(link);
            const bool fresh = index.slot_fresh(slot, 0, links[pos], links);
            if (moved) {
              ++must_be_stale;
              EXPECT_FALSE(fresh) << p << "x" << q << " trial " << trial << " hot step "
                                  << pos << " of " << links.size() << ": link " << l
                                  << " moved the candidate but the slot stayed fresh";
            }
            reported_fresh += fresh ? 1 : 0;
          }
        }
      }
    }
  }
  // Neither side of the check may be vacuous.
  EXPECT_GT(must_be_stale, 2000u);
  EXPECT_GT(reported_fresh, 2000u);
}

}  // namespace
}  // namespace pamr
