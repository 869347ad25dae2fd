// Tests for the infeasibility certificate (opt/lower_bound.hpp) and the
// certify-then-route gate in exp::run_instance.
//
//   * Soundness: on small random meshes, every certified instance is one the
//     exact 1-MP solver cannot route and every policy fails on.
//   * Boundaries: for each of the three conditions, traffic exactly at its
//     bound is not certified (and is routable), traffic past the bound by
//     more than the margin is.
//   * Differential: the gated campaign path produces the same aggregates,
//     wall-clock field aside, as an oracle that routes every instance.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "pamr/exp/instance_runner.hpp"
#include "pamr/opt/exact_solver.hpp"
#include "pamr/opt/lower_bound.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/scenario/registry.hpp"
#include "pamr/scenario/work_list.hpp"
#include "pamr/util/rng.hpp"

namespace pamr {
namespace {

/// The feasibility limit the certificate compares against.
double limit(const PowerModel& model) {
  return model.capacity() + PowerModel::kFeasibilityTolerance;
}

/// A weight past `bound` by four times the certificate margin, so that a
/// sum of it and another weight at its own bound is still past the margin.
double past(double bound) { return bound * (1.0 + 4.0 * kCertificateMargin); }

/// The boundary tests use a continuous model, whose links carry any load up
/// to exactly that limit, so an instance at the bound is routable. (The
/// discrete table rejects loads above its top frequency, inside the
/// tolerance, so there the certificate is looser still.)
PowerModel continuous_model() { return PowerModel(PowerParams{}); }

bool exactly_routable(const Mesh& mesh, const CommSet& comms, const PowerModel& model) {
  return solve_exact_1mp(mesh, comms, model).routing.has_value();
}

// -- Soundness ----------------------------------------------------------------

/// Random communications on a p×q mesh; a third share a row and a third a
/// column with their source, so the forced-load condition gets exercised.
CommSet random_comms(const Mesh& mesh, std::int32_t count, Rng& rng) {
  CommSet comms;
  const auto pick = [&rng](std::int32_t n) {
    return static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
  };
  while (static_cast<std::int32_t>(comms.size()) < count) {
    const Coord src{pick(mesh.p()), pick(mesh.q())};
    Coord snk{pick(mesh.p()), pick(mesh.q())};
    const std::uint64_t shape = rng.below(3);
    if (shape == 0) snk.u = src.u;
    if (shape == 1) snk.v = src.v;
    if (snk == src) continue;
    comms.push_back({src, snk, rng.uniform(300.0, 3500.0)});
  }
  return comms;
}

TEST(CertificateSoundness, CertifiedInstancesAreUnroutable) {
  const PowerModel model = PowerModel::paper_discrete();
  ExactOptions guards;
  guards.max_nodes = 200'000;
  std::size_t certified = 0;
  std::size_t proofs = 0;
  std::size_t uncertified = 0;
  std::size_t routed = 0;
  std::uint64_t round = 0;
  for (std::int32_t p = 2; p <= 4; ++p) {
    for (std::int32_t q = 2; q <= 4; ++q) {
      const Mesh mesh(p, q);
      for (int trial = 0; trial < 200; ++trial, ++round) {
        Rng rng(derive_seed(0xCE27, round, 0));
        const auto count = static_cast<std::int32_t>(2 + rng.below(5));
        const CommSet comms = random_comms(mesh, count, rng);
        if (!certify_infeasible(mesh, comms, model)) {
          ++uncertified;
          continue;
        }
        ++certified;
        const ExactResult exact = solve_exact_1mp(mesh, comms, model, guards);
        bool any = exact.routing.has_value();
        EXPECT_FALSE(exact.routing.has_value())
            << "the exact solver routed a certified instance on " << p << "x" << q;
        proofs += exact.complete ? 1 : 0;
        for (const RouterKind kind : all_base_routers()) {
          const bool valid = make_router(kind)->route(mesh, comms, model).valid;
          any = any || valid;
          EXPECT_FALSE(valid) << to_cstring(kind) << " routed a certified instance on " << p
                              << "x" << q;
        }
        routed += any ? 1 : 0;
      }
    }
  }
  std::printf("certified %zu of %zu instances (%zu proved by the exact solver), "
              "%zu routed by any policy or the exact solver\n",
              certified, certified + uncertified, proofs, routed);
  EXPECT_EQ(routed, 0u);
  // Neither side of the property may be vacuous.
  EXPECT_GT(certified, 200u);
  EXPECT_GT(uncertified, 200u);
  EXPECT_GT(proofs, certified / 2) << "the exact solver's guards cut most searches";
}

// -- Boundaries ---------------------------------------------------------------

TEST(CertificateBoundary, ForcedLoadOnOneLink) {
  // One same-row communication: its only path carries its whole weight. The
  // mesh is large enough that no cut binds before the link does.
  const Mesh mesh(4, 4);
  const PowerModel model = continuous_model();
  const CommSet at = {{{1, 0}, {1, 3}, limit(model)}};
  EXPECT_FALSE(certify_infeasible(mesh, at, model));
  EXPECT_TRUE(exactly_routable(mesh, at, model));

  const CommSet within = {{{1, 0}, {1, 3}, limit(model) * (1.0 + 0.5 * kCertificateMargin)}};
  EXPECT_FALSE(certify_infeasible(mesh, within, model)) << "inside the margin";

  const CommSet above = {{{1, 0}, {1, 3}, past(limit(model))}};
  EXPECT_TRUE(certify_infeasible(mesh, above, model));

  // Two same-column communications overlapping on one link.
  const double half = limit(model) / 2.0;
  EXPECT_FALSE(certify_infeasible(mesh, {{{0, 2}, {2, 2}, half}, {{1, 2}, {3, 2}, half}},
                                  model));
  EXPECT_TRUE(certify_infeasible(
      mesh, {{{0, 2}, {2, 2}, half}, {{1, 2}, {3, 2}, past(limit(model)) - half}}, model));
}

TEST(CertificateBoundary, ColumnCut) {
  // 2×4 mesh: two eastbound communications, one south-east and one
  // north-east, cross the column boundary 1|2 over its p = 2 east links. No
  // communication is forced, and each diagonal family carries one
  // communication against cuts of at least two links.
  const Mesh mesh(2, 4);
  const PowerModel model = continuous_model();
  const double w = limit(model);
  const CommSet at = {{{0, 0}, {1, 3}, w}, {{1, 0}, {0, 3}, w}};
  EXPECT_FALSE(certify_infeasible(mesh, at, model));
  EXPECT_TRUE(exactly_routable(mesh, at, model));

  const CommSet above = {{{0, 0}, {1, 3}, w}, {{1, 0}, {0, 3}, past(w)}};
  EXPECT_TRUE(certify_infeasible(mesh, above, model));

  // The transposed mesh and communications exercise a row cut.
  const Mesh tall(4, 2);
  EXPECT_FALSE(certify_infeasible(tall, {{{0, 0}, {3, 1}, w}, {{0, 1}, {3, 0}, w}}, model));
  EXPECT_TRUE(
      certify_infeasible(tall, {{{0, 0}, {3, 1}, w}, {{0, 1}, {3, 0}, past(w)}}, model));
}

TEST(CertificateBoundary, DiagonalCut) {
  // 3×3 mesh: two south-east communications leave the corner C(0,0), whose
  // diagonal cut has 2 links, while the first column and row boundaries
  // have 3 links each and no communication is forced.
  const Mesh mesh(3, 3);
  const PowerModel model = continuous_model();
  const double w = limit(model);
  const CommSet at = {{{0, 0}, {1, 1}, w}, {{0, 0}, {2, 2}, w}};
  EXPECT_FALSE(certify_infeasible(mesh, at, model));
  EXPECT_TRUE(exactly_routable(mesh, at, model));

  const CommSet above = {{{0, 0}, {1, 1}, w}, {{0, 0}, {2, 2}, past(w)}};
  EXPECT_TRUE(certify_infeasible(mesh, above, model));
}

TEST(CertificateBoundary, EmptyAndUnboundedModelsAreNeverCertified) {
  const Mesh mesh(4, 4);
  EXPECT_FALSE(certify_infeasible(mesh, {}, PowerModel::paper_discrete()));
  EXPECT_FALSE(
      certify_infeasible(mesh, {{{0, 0}, {0, 3}, 1e9}, {{0, 1}, {0, 2}, 1e9}},
                         PowerModel::theory()));
}

// -- Gate in the campaign path ------------------------------------------------

TEST(CertificateGate, MalformedInputStillThrows) {
  const Mesh mesh(4, 4);
  const PowerModel model = PowerModel::paper_discrete();
  RouteWorkspace workspace;
  // Certifiable weight, but the set is malformed: the input check comes first.
  EXPECT_THROW((void)exp::run_instance(mesh, {{{0, 0}, {0, 0}, 1e9}}, model, nullptr,
                                       workspace),
               std::logic_error);
  EXPECT_THROW((void)exp::run_instance(mesh, {{{0, 0}, {0, 9}, 1e9}}, model, nullptr,
                                       workspace),
               std::logic_error);
}

/// The ungated path: every instance through the six routers, folded the way
/// run_unit_instances folds a rect, sim=off unit.
exp::PointAggregate oracle_unit(const Mesh& mesh, const PowerModel& model,
                                const scenario::ScenarioSpec& spec, std::size_t instances,
                                std::uint64_t seed, std::uint64_t point_id,
                                std::size_t& certified) {
  exp::PointAggregate aggregate;
  const auto kinds = all_base_routers();
  for (std::size_t instance = 0; instance < instances; ++instance) {
    Rng rng(derive_seed(seed, point_id, instance));
    const double t =
        (static_cast<double>(instance) + 0.5) / static_cast<double>(instances);
    const CommSet comms = spec.generate(mesh, model, t, rng);
    certified += certify_infeasible(mesh, comms, model) ? 1 : 0;
    std::array<exp::HeuristicSample, kNumBaseRouters> base;
    for (std::size_t h = 0; h < kinds.size(); ++h) {
      const RouteResult result = make_router(kinds[h])->route(mesh, comms, model);
      base[h].valid = result.valid;
      base[h].power = result.power;
      base[h].static_power = result.breakdown.static_part;
    }
    aggregate.add(exp::make_instance_sample(base));
  }
  return aggregate;
}

std::string deterministic_wire(exp::PointAggregate aggregate) {
  aggregate.elapsed_ms = {};
  return exp::serialize_point_aggregate(aggregate);
}

TEST(CertificateGate, PaperPanelsMatchTheUngatedOracle) {
  constexpr std::size_t kInstances = 4;
  std::size_t certified = 0;
  for (const char* name :
       {"fig7a_small", "fig7b_mixed", "fig7c_big", "fig8a_few_10comms", "fig8b_some_20comms",
        "fig8c_numerous_40comms", "fig9a_numerous_small", "fig9b_some_mixed",
        "fig9c_few_big"}) {
    const scenario::Scenario& panel = scenario::ScenarioRegistry::builtin().at(name);
    for (std::size_t p = 0; p < panel.points.size(); ++p) {
      const scenario::ScenarioSpec& spec = panel.points[p].spec;
      const Mesh mesh = spec.make_mesh();
      const PowerModel model = spec.make_model();
      const exp::PointAggregate gated = scenario::run_unit_instances(
          mesh, model, spec, 0, kInstances, kInstances, panel.default_seed, p);
      const exp::PointAggregate oracle =
          oracle_unit(mesh, model, spec, kInstances, panel.default_seed, p, certified);
      EXPECT_EQ(deterministic_wire(gated), deterministic_wire(oracle))
          << name << " point " << p;
    }
  }
  EXPECT_GT(certified, 0u) << "the gate never fired, so the comparison proves nothing";
}

}  // namespace
}  // namespace pamr
