// Allocation budget of the campaign kernel. This binary replaces the global
// operator new and delete to count allocations, then runs
// scenario::run_unit_instances over two fixed paper points and pins an
// upper bound on operator new calls per routed (not certified) instance.
// The count is deterministic for a given build — generation, certificate
// and six route calls per instance — so this is a regression guard, not a
// timing. Routing itself allocates nothing once the thread's RouteWorkspace
// has grown to the largest instance; a policy that regains a per-call or
// per-step allocation shows up here as tens to thousands of calls per
// instance. (CMakeLists.txt leaves this test out of sanitizer builds, whose
// runtimes own operator new.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "pamr/opt/lower_bound.hpp"
#include "pamr/scenario/registry.hpp"
#include "pamr/scenario/work_list.hpp"
#include "pamr/util/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pamr {
namespace {

/// Allocations per routed instance over fig7a_small and
/// fig8c_numerous_40comms at seed 1 with 20 trials. Before the routing
/// workspace this was ~8,700 (~5,970 over all nine panels); now it is ~19,
/// most of them in the workload generator and the certificate. The bound
/// leaves 2x headroom over that level and sits far below a tenth of the
/// old count over the nine panels (597).
constexpr double kMaxAllocationsPerRoutedInstance = 40.0;

TEST(AllocationBudget, PaperPointsStayWithinThePinnedBudget) {
  std::vector<scenario::SuiteEntry> entries;
  std::string error;
  ASSERT_TRUE(scenario::resolve_suite_entries(scenario::ScenarioRegistry::builtin(),
                                              "fig7a_small,fig8c_numerous_40comms", 1,
                                              entries, error))
      << error;
  constexpr std::int32_t kTrials = 20;
  const std::vector<scenario::SuiteUnit> units =
      scenario::enumerate_suite_units(entries, kTrials, 8);

  std::uint64_t allocations = 0;
  std::size_t instances = 0;
  std::size_t certified = 0;
  for (const scenario::SuiteUnit& unit : units) {
    const scenario::ScenarioSpec& spec =
        entries[unit.scenario_index].scenario->points[unit.point_index].spec;
    const Mesh mesh = spec.make_mesh();
    const PowerModel model = spec.make_model();
    const std::uint64_t seed = entries[unit.scenario_index].seed;

    g_allocations.store(0);
    g_counting.store(true);
    const exp::PointAggregate aggregate = scenario::run_unit_instances(
        mesh, model, spec, unit.begin, unit.end, kTrials, seed, unit.point_index);
    g_counting.store(false);
    allocations += g_allocations.load();
    instances += aggregate.instances;

    // The certified instances, redrawn outside the counted window exactly
    // as run_unit_instances draws them (see its contract).
    for (std::size_t i = unit.begin; i < unit.end; ++i) {
      Rng rng(derive_seed(seed, unit.point_index, i));
      const double t = (static_cast<double>(i) + 0.5) / static_cast<double>(kTrials);
      if (certify_infeasible(mesh, spec.generate(mesh, model, t, rng), model)) ++certified;
    }
  }
  ASSERT_EQ(instances, 720u);
  ASSERT_GT(instances, certified);
  const auto routed = static_cast<double>(instances - certified);
  const double per_routed = static_cast<double>(allocations) / routed;
  std::printf("%llu allocations over %zu instances (%zu certified): "
              "%.1f per routed instance\n",
              static_cast<unsigned long long>(allocations), instances, certified,
              per_routed);
  EXPECT_LE(per_routed, kMaxAllocationsPerRoutedInstance);
}

}  // namespace
}  // namespace pamr
