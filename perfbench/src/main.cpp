// Campaign benchmark driver for pamr.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --digests <file>
//
// A run does, in order:
//   1. set-up: registry, spec parsing, work-list enumeration (and, for the
//      distributed workload, the campaign plan);
//   2. the digest pass: the workload's scenarios at their registered seeds
//      and a small trial count, folded and hashed against the committed
//      digests (this also warms the code before timing);
//   3. the measured passes: the whole campaign, at least four times and
//      until --seconds is spent, with telemetry and spans off, and a fixed
//      reference kernel timed around their parts so that each pass can be
//      rescaled to a reference host speed (estimate_wall turns them into
//      the reported wall time);
//   4. set-up probes: fresh copies of this binary timed from spawn to "ready
//      to dispatch the first unit", rescaled the same way, median of 100;
//   5. for the distributed workload, the same campaign folded in process;
//   6. the traced replay: every unit again, from outside, through the
//      public calls of each layer with a span around each call and the
//      library's counters on — the per-layer numbers and the per-routing
//      output checks come from here;
//   7. with --trace 1 on the distributed workload, one more campaign with
//      the library's telemetry on (dist_telemetry).
// The last line of stdout is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Everything else goes to
// stderr.
//
// `--worker` turns the binary into a dist worker (the coordinator re-executes
// itself); `--setup-probe` is step 4's child; `--print-digests` prints the
// digest lines for a workload instead of measuring.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_metrics.hpp"
#include "pamr/dist/coordinator.hpp"
#include "pamr/dist/merger.hpp"
#include "pamr/dist/protocol.hpp"
#include "pamr/dist/shard_log.hpp"
#include "pamr/dist/worker.hpp"
#include "pamr/exp/metrics.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/router.hpp"
#include "pamr/routing/validate.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/scenario/work_list.hpp"
#include "pamr/util/log.hpp"
#include "pamr/util/rng.hpp"

extern char** environ;

namespace {

using namespace pamr;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

// -- Workloads ----------------------------------------------------------------

struct Workload {
  std::string_view name;
  std::vector<std::string_view> scenarios;  ///< registry names
  std::string_view spec;                    ///< ad-hoc spec when `scenarios` is empty
  std::int32_t trials = 0;                  ///< instances per point
  std::size_t chunk = 8;                    ///< instances per unit
  std::size_t workers = 0;                  ///< dist worker processes; 0 = in process
  std::int32_t digest_trials = 0;           ///< trials of the digest pass
};

// Why each workload exists, which layer it loads and what each layer metric
// is predicted to move are recorded in README.md next to this file.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"paper_campaign",
       {"fig7a_small", "fig7b_mixed", "fig7c_big", "fig8a_few_10comms",
        "fig8b_some_20comms", "fig8c_numerous_40comms", "fig9a_numerous_small",
        "fig9b_some_mixed", "fig9c_few_big"},
       "",
       20,
       8,
       0,
       4},
      // Chunk 2 gives the unit-latency percentiles over 100 samples per pass.
      {"mesh16_routable",
       {},
       "mesh=16x16 model=discrete ; kind=uniform n=160 lo=100 hi=800",
       200,
       2,
       0,
       8},
      {"dist_fig8", {"fig8a_few_10comms", "fig8b_some_20comms"}, "", 80, 8, 2, 8},
  };
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

// -- Campaign set-up ------------------------------------------------------------

struct PointJob {
  Mesh mesh;
  PowerModel model;
  const scenario::ScenarioSpec* spec;
};

/// Everything a pass needs, built once: suite entries, the unit list and the
/// per-point mesh and power model. Holds pointers into itself, so it lives
/// behind a unique_ptr and is never moved.
struct Campaign {
  scenario::Scenario adhoc;
  std::vector<scenario::SuiteEntry> entries;
  std::int32_t instances = 0;
  std::size_t chunk = 0;
  std::vector<scenario::SuiteUnit> units;
  std::vector<PointJob> jobs;
  std::vector<std::size_t> first_job;  ///< entry index -> jobs offset
  std::optional<dist::CampaignPlan> plan;

  Campaign() = default;
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  [[nodiscard]] const PointJob& job(const scenario::SuiteUnit& unit) const {
    return jobs[first_job[unit.scenario_index] + unit.point_index];
  }
  [[nodiscard]] std::size_t total_instances() const {
    std::size_t n = 0;
    for (const scenario::SuiteUnit& unit : units) n += unit.end - unit.begin;
    return n;
  }
  [[nodiscard]] std::vector<std::size_t> unit_instances() const {
    std::vector<std::size_t> out;
    out.reserve(units.size());
    for (const scenario::SuiteUnit& unit : units) out.push_back(unit.end - unit.begin);
    return out;
  }
};

/// `seed` < 0 keeps every scenario's registered seed; otherwise it overrides
/// them all, exactly like `pamr_scenarios --seed`.
std::unique_ptr<Campaign> build_campaign(const Workload& workload, std::int64_t seed,
                                         std::int32_t trials, bool with_plan) {
  auto campaign = std::make_unique<Campaign>();
  if (workload.scenarios.empty()) {
    scenario::ScenarioSpec spec;
    std::string error;
    if (!scenario::ScenarioSpec::parse(workload.spec, spec, error)) {
      throw std::runtime_error("bad workload spec: " + error);
    }
    campaign->adhoc = scenario::adhoc_scenario(std::move(spec));
    campaign->entries.push_back(
        {&campaign->adhoc,
         seed >= 0 ? static_cast<std::uint64_t>(seed) : campaign->adhoc.default_seed});
  } else {
    std::string names;
    for (const std::string_view name : workload.scenarios) {
      if (!names.empty()) names += ',';
      names += name;
    }
    std::string error;
    if (!scenario::resolve_suite_entries(scenario::ScenarioRegistry::builtin(), names,
                                         seed, campaign->entries, error)) {
      throw std::runtime_error(error);
    }
  }
  campaign->instances = trials;
  campaign->chunk = workload.chunk;
  for (const scenario::SuiteEntry& entry : campaign->entries) {
    campaign->first_job.push_back(campaign->jobs.size());
    for (const scenario::ScenarioPoint& point : entry.scenario->points) {
      if (point.spec.topo != topo::TopoKind::kRect || point.spec.sim) {
        throw std::runtime_error("the benchmark replays rect, sim=off points only");
      }
      campaign->jobs.push_back(
          PointJob{point.spec.make_mesh(), point.spec.make_model(), &point.spec});
    }
  }
  campaign->units = scenario::enumerate_suite_units(campaign->entries, trials, workload.chunk);
  if (with_plan) {
    campaign->plan = dist::build_campaign_plan(campaign->entries, trials, workload.chunk);
  }
  return campaign;
}

// -- Passes ---------------------------------------------------------------------

/// The folded tables of one pass, one JSON document per scenario — the
/// bytes `pamr_scenarios --json` writes.
std::vector<std::string> table_texts(const std::vector<scenario::ScenarioResult>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const scenario::ScenarioResult& result : results) {
    out.push_back(scenario::result_to_json(result));
  }
  return out;
}

/// Aggregate wire form without the wall-clock field (the only part of an
/// aggregate that differs between two runs of the same instances).
std::string deterministic_wire(exp::PointAggregate aggregate) {
  aggregate.elapsed_ms = {};
  return exp::serialize_point_aggregate(aggregate);
}

// -- Host speed -------------------------------------------------------------------

/// The reference host speed: the one at which the reference kernel takes
/// exactly 1 ms. Rescaled times read as if the host had run at that speed
/// throughout; on a 4-vCPU 2.0 GHz Xeon VM the kernel takes 1.1–2.5 ms.
constexpr double kReferenceKernelNs = 1'000'000.0;

/// In process, units run in blocks of at least this long, with the
/// reference kernel timed between blocks.
constexpr std::uint64_t kBlockNs = 50'000'000;

/// Set-up probes per run: kSetupGroups groups of kSetupProbesPerGroup.
constexpr int kSetupGroups = 10;
constexpr int kSetupProbesPerGroup = 10;

/// The CPUs this process may run on.
std::vector<int> allowed_cpus(const cpu_set_t& allowed) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(0, sizeof one, &one);  // best effort: unpinned still measures
}

/// `size` consecutive CPUs of `allowed` (round robin), starting at the
/// `pass`-th: the CPUs a measured pass is pinned to.
///
/// On a shared host each CPU's speed changes on its own: a 30-s probe of a
/// 4-vCPU 2.0 GHz Xeon VM saw one CPU run 40% slower than another
/// throughout, and each CPU switch between fast and slow every ten seconds
/// or so. A pinned pass can be rescaled by the kernel's time on its own
/// CPUs, and moving each pass to the next CPUs spreads the passes over all
/// of them.
cpu_set_t cpu_subset(std::size_t pass, std::size_t size, const cpu_set_t& allowed) {
  const std::vector<int> cpus = allowed_cpus(allowed);
  if (cpus.size() <= size) return allowed;
  cpu_set_t subset;
  CPU_ZERO(&subset);
  for (std::size_t i = 0; i < size; ++i) CPU_SET(cpus[(pass + i) % cpus.size()], &subset);
  return subset;
}

/// The reference kernel's time on the CPUs of `allowed`: the median of
/// three runs on each, averaged over them. Leaves the thread allowed on
/// every CPU of `allowed` again.
double host_kernel_ns(const cpu_set_t& allowed) {
  const std::vector<int> cpus = allowed_cpus(allowed);
  double sum = 0.0;
  for (const int cpu : cpus) {
    pin_to(cpu);
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) {
      runs.push_back(static_cast<double>(perfbench::reference_kernel_ns()));
    }
    sum += perfbench::median(runs);
  }
  (void)sched_setaffinity(0, sizeof allowed, &allowed);
  return cpus.empty() ? static_cast<double>(perfbench::reference_kernel_ns())
                      : sum / static_cast<double>(cpus.size());
}

// -- Passes -------------------------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  double scaled_s = 0.0;            ///< wall_s rescaled to the reference host speed
  double unit_sum_s = 0.0;          ///< Σ run_unit_instances time (in process)
  std::vector<double> unit_ms;      ///< per run_unit_instances call (in process)
  std::vector<exp::PointAggregate> partials;  ///< per unit (in process)
  std::vector<std::string> tables;
};

/// One campaign in this process on one thread: wall time runs from the first
/// unit dispatched to the folded results, as SuiteRunner's 1-thread pool.
/// The reference kernel runs between blocks of units; a block's time is
/// rescaled by the mean of the kernel times on either side of it, and the
/// kernel's own time counts in no block.
Pass run_in_process(const Campaign& campaign) {
  Pass pass;
  pass.partials.resize(campaign.units.size());
  pass.unit_ms.reserve(campaign.units.size());
  const auto count = static_cast<std::size_t>(campaign.instances);
  double kernel_before = static_cast<double>(perfbench::reference_kernel_ns());
  std::uint64_t block_start = now_ns();
  const auto close_block = [&](std::uint64_t end) {
    const double kernel_after = static_cast<double>(perfbench::reference_kernel_ns());
    const auto block_ns = static_cast<double>(end - block_start);
    pass.wall_s += block_ns * 1e-9;
    pass.scaled_s += perfbench::rescale_ns(block_ns, 0.5 * (kernel_before + kernel_after),
                                           kReferenceKernelNs) *
                     1e-9;
    kernel_before = kernel_after;
    block_start = now_ns();
  };
  for (std::size_t u = 0; u < campaign.units.size(); ++u) {
    const scenario::SuiteUnit& unit = campaign.units[u];
    const PointJob& job = campaign.job(unit);
    const std::uint64_t unit_start = now_ns();
    pass.partials[u] = scenario::run_unit_instances(
        job.mesh, job.model, *job.spec, unit.begin, unit.end, count,
        campaign.entries[unit.scenario_index].seed, unit.point_index);
    const std::uint64_t unit_end = now_ns();
    pass.unit_ms.push_back(static_cast<double>(unit_end - unit_start) * 1e-6);
    if (unit_end - block_start >= kBlockNs && u + 1 < campaign.units.size()) {
      close_block(unit_end);
    }
  }
  const std::vector<scenario::ScenarioResult> results =
      scenario::fold_suite_units(campaign.entries, campaign.units, pass.partials);
  close_block(now_ns());  // the last block holds the fold
  for (const double ms : pass.unit_ms) pass.unit_sum_s += ms * 1e-3;
  pass.tables = table_texts(results);
  return pass;
}

/// One campaign through dist::run_campaign; wall time covers the whole call,
/// which includes spawning and reaping the workers. The caller restricts
/// this process to `allowed`, which the workers inherit, and the pass is
/// rescaled by the kernel time on those CPUs on either side of it.
Pass run_distributed(const Campaign& campaign, std::size_t workers,
                     const std::string& worker_exe, const std::string& out_dir,
                     const cpu_set_t& allowed) {
  std::filesystem::create_directories(out_dir);
  std::filesystem::remove(out_dir + "/shards.log");
  std::filesystem::remove(out_dir + "/stream.csv");
  dist::CoordinatorOptions options;
  options.workers = workers;
  options.worker_exe = worker_exe;
  options.out_dir = out_dir;
  Pass pass;
  const double kernel_before = host_kernel_ns(allowed);
  const std::uint64_t start = now_ns();
  const dist::CampaignOutcome outcome = dist::run_campaign(*campaign.plan, options);
  const std::uint64_t end = now_ns();
  const double kernel = 0.5 * (kernel_before + host_kernel_ns(allowed));
  pass.wall_s = static_cast<double>(end - start) * 1e-9;
  pass.scaled_s =
      perfbench::rescale_ns(static_cast<double>(end - start), kernel, kReferenceKernelNs) *
      1e-9;
  if (!outcome.complete) throw std::runtime_error("distributed campaign incomplete");
  pass.tables = table_texts(outcome.results);
  return pass;
}

/// Every run repeats its campaign at least this often, so that the median
/// rests on four passes, on different CPUs (see cpu_subset). With three,
/// one badly rescaled pass in a slow phase moves it too often.
constexpr std::size_t kMinPasses = 4;

struct Estimate {
  double scaled_s = 0.0;        ///< the reported wall_s: median rescaled pass
  double wall_s = 0.0;          ///< fastest unscaled campaign, the base of per-layer ratios
  double unit_sum_s = 0.0;      ///< in process: Σ per-unit minima
  std::vector<double> unit_ms;  ///< every run_unit_instances call of every pass
};

/// The campaign time of a run. A shared host can slow down by a third to a
/// half for seconds to many minutes at a time, on one CPU or on all of them
/// (seen on a 4-vCPU 2.0 GHz Xeon VM); a phase longer than a run moves
/// every pass of it, so no choice among passes removes it. The reported
/// time is therefore each pass rescaled to the reference host speed (see
/// run_in_process and run_distributed), and the median of those.
///
/// The unscaled figure, which per-layer ratios divide by because the
/// traced replay is unscaled too, is the undisturbed time: in process, Σ
/// over units of the fastest of that unit's samples (they lie a whole
/// campaign apart) plus the fastest time outside the units (dispatch and
/// fold); distributed, where units are timed inside the workers, the
/// fastest whole pass.
Estimate estimate_wall(const std::vector<Pass>& passes) {
  Estimate out;
  std::vector<double> scaled;
  for (const Pass& pass : passes) scaled.push_back(pass.scaled_s);
  out.scaled_s = perfbench::median(scaled);
  out.wall_s = passes.front().wall_s;
  double outside_s = passes.front().wall_s - passes.front().unit_sum_s;
  for (const Pass& pass : passes) {
    out.wall_s = std::min(out.wall_s, pass.wall_s);
    outside_s = std::min(outside_s, pass.wall_s - pass.unit_sum_s);
    out.unit_ms.insert(out.unit_ms.end(), pass.unit_ms.begin(), pass.unit_ms.end());
  }
  if (passes.front().unit_ms.empty()) return out;
  for (std::size_t u = 0; u < passes.front().unit_ms.size(); ++u) {
    double fastest_ms = passes.front().unit_ms[u];
    for (const Pass& pass : passes) fastest_ms = std::min(fastest_ms, pass.unit_ms[u]);
    out.unit_sum_s += fastest_ms * 1e-3;
  }
  out.wall_s = out.unit_sum_s + outside_s;
  return out;
}

struct DistTelemetry {
  double overhead_share = 0.0;  ///< 1 − Σ unit time / (workers × wall)
  double worker_spawns = 0.0;
};

/// One more distributed campaign with the library's telemetry on: the
/// workers then ship their own phase.unit time back with each result, and
/// the coordinator counts its spawns, so the share of worker time spent
/// outside units comes from a single campaign.
DistTelemetry dist_telemetry(const Campaign& campaign, std::size_t workers,
                             const std::string& worker_exe, const std::string& out_dir,
                             const cpu_set_t& allowed) {
  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  const Pass pass = run_distributed(campaign, workers, worker_exe, out_dir, allowed);
  const obs::Snapshot after = obs::snapshot();
  obs::set_enabled(false);
  unsetenv("PAMR_OBS");  // run_campaign exported it for its workers
  const double unit_s = static_cast<double>(after.timer_ns(obs::Metric::kPhaseUnit) -
                                            before.timer_ns(obs::Metric::kPhaseUnit)) *
                        1e-9;
  return {1.0 - unit_s / (static_cast<double>(workers) * pass.wall_s),
          static_cast<double>(after.counter(obs::Metric::kDistWorkerSpawns) -
                              before.counter(obs::Metric::kDistWorkerSpawns))};
}

// -- Traced replay ----------------------------------------------------------------

constexpr std::size_t kPolicies = kNumBaseRouters;

struct SpanNames {
  std::uint32_t unit, generate, validate, breakdown, aggregate, wire, codec, record, merge,
      fold;
  std::array<std::uint32_t, kPolicies> valid{};
  std::array<std::uint32_t, kPolicies> failed{};

  explicit SpanNames(SpanRecorder& r)
      : unit(r.intern("unit")),
        generate(r.intern("scenario.generate")),
        validate(r.intern("routing.validate")),
        breakdown(r.intern("power.breakdown")),
        aggregate(r.intern("exp.aggregate")),
        wire(r.intern("exp.wire")),
        codec(r.intern("dist.codec")),
        record(r.intern("dist.record")),
        merge(r.intern("dist.merge")),
        fold(r.intern("scenario.fold")) {
    const auto kinds = all_base_routers();
    for (std::size_t h = 0; h < kPolicies; ++h) {
      const std::string policy = to_cstring(kinds[h]);
      valid[h] = r.intern("routing." + policy + ".valid");
      failed[h] = r.intern("routing." + policy + ".failed");
    }
  }
};

struct Replay {
  SpanRecorder spans;
  std::vector<exp::PointAggregate> partials;
  double wall_s = 0.0;
  std::size_t all_fail_instances = 0;
  double route_s = 0.0;           ///< Σ route calls
  double all_fail_route_s = 0.0;  ///< Σ route calls on instances every policy failed
  std::size_t wire_bytes = 0;
  std::size_t journal_bytes = 0;
  std::uint64_t xyi_moves = 0, pr_removals = 0, load_index_reorders = 0, ig_cut_bounds = 0;
};

/// A routing kept for the output check, which runs after its unit's span
/// closes so that checking never counts as any layer's time.
struct PendingCheck {
  const CommSet* comms;
  RouteResult result;
  std::optional<double> recomputed_power;
};

double span_seconds(const SpanRecorder& recorder, std::size_t index) {
  const perfbench::Span& span = recorder.spans()[index];
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

bool check_routing(const Mesh& mesh, const PowerModel& model, const PendingCheck& check) {
  if (!check.result.routing.has_value()) return !check.result.valid;
  if (!check.result.valid) return !check.recomputed_power.has_value();
  return validate_routing(mesh, *check.comms, *check.result.routing, model, 1).ok &&
         check.recomputed_power.has_value() &&
         *check.recomputed_power == check.result.power;
}

/// Replays every unit from outside through each layer's public call, with a
/// span around each call. Units whose replayed aggregate differs from
/// `reference` (bit for bit, wall-clock field aside), that throw, or that
/// return a routing failing the output check are marked in `ledger`.
std::unique_ptr<Replay> replay(const Campaign& campaign,
                               const std::vector<exp::PointAggregate>& reference,
                               const std::string& work_dir,
                               perfbench::FailureLedger& ledger) {
  auto out = std::make_unique<Replay>();
  SpanRecorder& rec = out->spans;
  const SpanNames names(rec);
  const dist::CampaignPlan plan =
      dist::build_campaign_plan(campaign.entries, campaign.instances, campaign.chunk);
  const std::string journal_path = work_dir + "/replay_shards.log";
  std::filesystem::create_directories(work_dir);
  std::filesystem::remove(journal_path);
  auto journal = std::make_unique<dist::ShardLog>(journal_path);
  std::string error;
  if (!journal->open_append(plan.fingerprint, error)) throw std::runtime_error(error);
  dist::ResultMerger merger(plan);
  dist::MessageAssembler assembler;
  const auto kinds = all_base_routers();
  const auto count = static_cast<std::size_t>(campaign.instances);
  out->partials.resize(campaign.units.size());

  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  const std::uint64_t start = now_ns();
  for (std::size_t u = 0; u < campaign.units.size(); ++u) {
    const scenario::SuiteUnit& unit = campaign.units[u];
    const PointJob& job = campaign.job(unit);
    const std::uint64_t seed = campaign.entries[unit.scenario_index].seed;
    std::vector<CommSet> comm_sets(unit.end - unit.begin);
    std::vector<PendingCheck> checks;
    bool unit_ok = true;
    try {
      const ScopedSpan unit_span(rec, names.unit);
      exp::PointAggregate aggregate;
      for (std::size_t instance = unit.begin; instance < unit.end; ++instance) {
        Rng rng(derive_seed(seed, unit.point_index, instance));
        const double t =
            (static_cast<double>(instance) + 0.5) / static_cast<double>(count);
        CommSet& comms = comm_sets[instance - unit.begin];
        {
          const ScopedSpan span(rec, names.generate);
          comms = job.spec->generate(job.mesh, job.model, t, rng);
        }
        std::array<exp::HeuristicSample, kPolicies> base;
        double instance_route_s = 0.0;
        for (std::size_t h = 0; h < kPolicies; ++h) {
          const std::size_t route_span = rec.open(names.valid[h]);
          RouteResult result = make_router(kinds[h])->route(job.mesh, comms, job.model);
          rec.close(route_span);
          if (!result.valid) rec.rename(route_span, names.failed[h]);
          instance_route_s += span_seconds(rec, route_span);
          base[h].valid = result.valid;
          base[h].power = result.power;
          base[h].static_power = result.breakdown.static_part;
          base[h].elapsed_ms = result.elapsed_ms;
          PendingCheck check{&comms, std::move(result), std::nullopt};
          if (check.result.routing.has_value()) {
            const Routing& routing = *check.result.routing;
            {
              const ScopedSpan span(rec, names.validate);
              if (!validate_structure(job.mesh, comms, routing, 1).ok) unit_ok = false;
            }
            const ScopedSpan span(rec, names.breakdown);
            const LinkLoads loads = loads_of_routing(job.mesh, routing);
            if (const auto breakdown = job.model.breakdown(loads.values())) {
              check.recomputed_power = breakdown->total;
            }
          }
          checks.push_back(std::move(check));
        }
        {
          const ScopedSpan span(rec, names.aggregate);
          aggregate.add(exp::make_instance_sample(base));
        }
        out->route_s += instance_route_s;
        if (std::none_of(base.begin(), base.end(),
                         [](const exp::HeuristicSample& s) { return s.valid; })) {
          ++out->all_fail_instances;
          out->all_fail_route_s += instance_route_s;
        }
      }
      std::string text;
      {
        const ScopedSpan span(rec, names.wire);
        text = exp::serialize_point_aggregate(aggregate);
        exp::PointAggregate parsed;
        if (!exp::parse_point_aggregate(text, parsed, error) ||
            exp::serialize_point_aggregate(parsed) != text) {
          unit_ok = false;
        }
      }
      out->wire_bytes += text.size();
      {
        const ScopedSpan span(rec, names.codec);
        dist::UnitResult result;
        result.id = u;
        result.aggregate = text;
        std::vector<dist::Message> messages;
        dist::UnitResult parsed;
        if (!assembler.feed(dist::to_wire(result.to_message()), messages, error) ||
            messages.size() != 1 || !dist::parse_unit_result(messages[0], parsed, error) ||
            parsed.aggregate != text) {
          unit_ok = false;
        }
      }
      {
        const ScopedSpan span(rec, names.record);
        if (!journal->record(u, text)) unit_ok = false;
      }
      {
        const ScopedSpan span(rec, names.merge);
        if (!merger.add(u, text, error)) unit_ok = false;
      }
      out->partials[u] = std::move(aggregate);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: unit %zu threw: %s\n", u, e.what());
      unit_ok = false;
    }
    for (const PendingCheck& check : checks) {
      if (!check_routing(job.mesh, job.model, check)) unit_ok = false;
    }
    if (deterministic_wire(out->partials[u]) != deterministic_wire(reference[u])) {
      unit_ok = false;
    }
    if (!unit_ok) ledger.fail(u);
  }
  std::vector<scenario::ScenarioResult> folded;
  {
    const ScopedSpan span(rec, names.fold);
    folded = scenario::fold_suite_units(campaign.entries, campaign.units, out->partials);
  }
  if (merger.complete()) {
    std::vector<scenario::ScenarioResult> merged;
    {
      const ScopedSpan span(rec, names.merge);
      merged = merger.merge();
    }
    if (table_texts(merged) != table_texts(folded)) ledger.fail_all();
  } else {
    ledger.fail_all();
  }
  out->wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  const obs::Snapshot after = obs::snapshot();
  obs::set_enabled(false);

  const auto delta = [&](obs::Metric m) { return after.counter(m) - before.counter(m); };
  out->xyi_moves = delta(obs::Metric::kXyiMoves);
  out->pr_removals = delta(obs::Metric::kPrRemovals);
  out->load_index_reorders = delta(obs::Metric::kLoadIndexReorders);
  out->ig_cut_bounds = delta(obs::Metric::kIgCutBounds);
  journal.reset();  // closes the file before measuring it
  out->journal_bytes = static_cast<std::size_t>(std::filesystem::file_size(journal_path));
  return out;
}

// -- Processes --------------------------------------------------------------------

/// posix_spawn with stdin/stdout redirected; -1 leaves a stream inherited.
pid_t spawn(const std::string& exe, const std::vector<std::string>& args, int stdin_fd,
            int stdout_fd) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (stdin_fd >= 0) posix_spawn_file_actions_adddup2(&actions, stdin_fd, 0);
  if (stdout_fd >= 0) posix_spawn_file_actions_adddup2(&actions, stdout_fd, 1);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error(std::string("posix_spawn: ") + std::strerror(rc));
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The child side of a set-up probe: set up as the real run does, spawn the
/// dist workers if the workload has any, then say "ready" — the moment the
/// first unit would be dispatched — and stop the workers.
int setup_probe(const Workload& workload, std::int64_t seed, const std::string& exe) {
  const auto campaign = build_campaign(workload, seed, workload.trials, workload.workers > 0);
  std::vector<pid_t> workers;
  std::vector<int> to_workers;
  const int null_fd = open("/dev/null", O_WRONLY | O_CLOEXEC);
  for (std::size_t w = 0; w < workload.workers; ++w) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    workers.push_back(spawn(exe, {"--worker"}, fds[0], null_fd));
    close(fds[0]);
    to_workers.push_back(fds[1]);
  }
  std::fputs("ready\n", stdout);
  std::fflush(stdout);
  for (const int fd : to_workers) close(fd);  // EOF: each worker exits cleanly
  int rc = 0;
  for (const pid_t pid : workers) rc |= wait_exit(pid);
  if (null_fd >= 0) close(null_fd);
  return rc == 0 && !campaign->units.empty() ? 0 : 1;
}

/// Seconds from spawning a set-up probe to its "ready" line.
double probe_setup_seconds(const std::string& exe, const Workload& workload,
                           std::int64_t seed) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  const std::uint64_t start = now_ns();
  const pid_t pid = spawn(exe,
                          {"--setup-probe", "--workload", std::string(workload.name),
                           "--seed", std::to_string(seed)},
                          -1, fds[1]);
  close(fds[1]);
  std::string line;
  char c = 0;
  while (read(fds[0], &c, 1) == 1 && c != '\n') line += c;
  const std::uint64_t ready = now_ns();
  close(fds[0]);
  if (wait_exit(pid) != 0 || line != "ready") {
    throw std::runtime_error("set-up probe failed");
  }
  return static_cast<double>(ready - start) * 1e-9;
}

// -- Output -------------------------------------------------------------------------

class MetricsJson {
 public:
  void add(std::string_view name, double value, std::string_view unit) {
    if (!std::isfinite(value)) throw std::runtime_error("non-finite metric " + std::string(name));
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(name) + "\": {\"value\": " + number + ", \"unit\": \"" +
             std::string(unit) + "\"}";
    std::fprintf(stderr, "  %-34s %16.6f %s\n", std::string(name).c_str(), value,
                 std::string(unit).c_str());
  }
  [[nodiscard]] std::string line(std::size_t attempted, std::size_t failed) const {
    return "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + body_ + "}}";
  }

 private:
  std::string body_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<perfbench::DigestEntry> digest_entries(const Workload& workload,
                                                   const Campaign& campaign,
                                                   const Pass& pass) {
  std::vector<perfbench::DigestEntry> entries;
  for (std::size_t s = 0; s < campaign.entries.size(); ++s) {
    entries.push_back({std::string(workload.name) + "/" + campaign.entries[s].scenario->name,
                       perfbench::digest_hex(pass.tables[s]),
                       campaign.entries[s].scenario->points.size() *
                           static_cast<std::size_t>(campaign.instances)});
  }
  return entries;
}

struct Args {
  std::string workload;
  std::int64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = "perfbench_work";
  std::string digests;
  bool setup_probe = false;
  bool print_digests = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--setup-probe") {
      args.setup_probe = true;
      continue;
    }
    if (flag == "--print-digests") {
      args.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoll(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--digests") {
        args.digests = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return args.seed >= 0 && args.seconds > 0.0 && (args.trace == 0 || args.trace == 1);
}

int run(const Args& args, const Workload& workload, const std::string& exe) {
  const std::uint64_t process_start = now_ns();
  std::map<std::string, std::string> expected_digests;
  std::string error;
  if (!perfbench::parse_digest_file(read_file(args.digests), expected_digests, error)) {
    throw std::runtime_error(error);
  }

  // 1. Set-up of this process (the reported set-up time comes from probes).
  const auto campaign =
      build_campaign(workload, args.seed, workload.trials, workload.workers > 0);
  std::fprintf(stderr, "perfbench: %s seed %lld: %zu units, %zu instances, set-up %.4fs\n",
               std::string(workload.name).c_str(), static_cast<long long>(args.seed),
               campaign->units.size(), campaign->total_instances(),
               static_cast<double>(now_ns() - process_start) * 1e-9);

  // 2. Digest pass at the registered seeds.
  const auto pinned = build_campaign(workload, -1, workload.digest_trials, false);
  const perfbench::CheckCount digests = perfbench::check_digests(
      expected_digests, digest_entries(workload, *pinned, run_in_process(*pinned)));
  for (const std::string& key : digests.mismatches) {
    std::fprintf(stderr, "perfbench: digest mismatch for %s\n", key.c_str());
  }

  // 3. Measured passes.
  const std::string dist_dir = args.work_dir + "/dist";
  std::vector<Pass> passes;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool can_pin = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  const std::uint64_t measure_start = now_ns();
  do {
    // Each pass runs on its own CPUs: one in process, one per worker for the
    // distributed workload, shared with the coordinator (the workers
    // inherit its affinity). So the kernel is timed on exactly the CPUs the
    // pass ran on, and the next pass moves on to the next CPUs.
    const cpu_set_t subset =
        can_pin ? cpu_subset(passes.size(), std::max<std::size_t>(workload.workers, 1), allowed)
                : allowed;
    (void)sched_setaffinity(0, sizeof subset, &subset);  // best effort: unpinned still measures
    if (workload.workers > 0) {
      passes.push_back(run_distributed(*campaign, workload.workers, exe, dist_dir, subset));
    } else {
      passes.push_back(run_in_process(*campaign));
    }
  } while (passes.size() < kMinPasses ||
           static_cast<double>(now_ns() - measure_start) * 1e-9 + passes.back().wall_s <=
               args.seconds);
  if (can_pin) (void)sched_setaffinity(0, sizeof allowed, &allowed);
  const perfbench::PeakRss rss = perfbench::peak_rss();
  const Estimate estimate = estimate_wall(passes);
  const double wall_s = estimate.scaled_s;
  for (const Pass& pass : passes) {
    std::fprintf(stderr, "perfbench: pass %.4fs, rescaled %.4fs\n", pass.wall_s,
                 pass.scaled_s);
  }

  // 4. Set-up probes in groups, each rescaled by the kernel time on every
  //    allowed CPU on either side of its group.
  std::vector<double> setups;
  std::vector<double> scaled_setups;
  double kernel_before = host_kernel_ns(allowed);
  for (int group = 0; group < kSetupGroups; ++group) {
    std::vector<double> probes;
    for (int i = 0; i < kSetupProbesPerGroup; ++i) {
      probes.push_back(probe_setup_seconds(exe, workload, args.seed));
    }
    const double kernel_after = host_kernel_ns(allowed);
    for (const double probe : probes) {
      setups.push_back(probe);
      scaled_setups.push_back(perfbench::rescale_ns(
          probe, 0.5 * (kernel_before + kernel_after), kReferenceKernelNs));
    }
    kernel_before = kernel_after;
  }
  const double setup_s = perfbench::median(scaled_setups);
  std::fprintf(stderr, "perfbench: set-up %.6fs, rescaled %.6fs\n", perfbench::median(setups),
               setup_s);

  // 5. Output checks and the reference the replay must reproduce.
  perfbench::FailureLedger ledger(campaign->unit_instances());
  for (const Pass& pass : passes) {
    if (pass.tables != passes.front().tables) ledger.fail_all();
  }
  Pass in_process;
  if (workload.workers > 0) {
    in_process = run_in_process(*campaign);
    for (std::size_t u = 0; u < campaign->units.size(); ++u) {
      const std::size_t s = campaign->units[u].scenario_index;
      if (in_process.tables[s] != passes.front().tables[s]) ledger.fail(u);
    }
  }
  const Pass& reference = workload.workers > 0 ? in_process : passes.back();

  // 6. Traced replay.
  const auto traced = replay(*campaign, reference.partials, args.work_dir, ledger);
  perfbench::CheckCount checked = ledger.count();
  checked.attempted += digests.attempted;
  checked.failed += digests.failed;

  std::fprintf(stderr,
               "perfbench: %zu measured passes, wall %.4fs (unscaled %.4fs); traced %.4fs\n",
               passes.size(), wall_s, estimate.wall_s, traced->wall_s);
  MetricsJson metrics;
  const auto instances = static_cast<double>(campaign->total_instances());
  if (args.trace == 0) {
    metrics.add("wall_s", wall_s, "s");
    metrics.add("instances_per_s", instances / wall_s, "1/s");
    metrics.add("setup_s", setup_s, "s");
    metrics.add("peak_rss_mb", rss.peak_mib(), "MiB");
  } else {
    const std::vector<perfbench::LayerTime> layers = perfbench::layer_times(traced->spans);
    const auto layer = [&](std::string_view name) -> const perfbench::LayerTime& {
      return layers[traced->spans.intern(name)];
    };
    const std::vector<double>& unit_samples =
        workload.workers > 0 ? in_process.unit_ms : estimate.unit_ms;
    const DistTelemetry dist_share =
        workload.workers > 0
            ? dist_telemetry(*campaign, workload.workers, exe, dist_dir, allowed)
            : DistTelemetry{1.0 - estimate.unit_sum_s / estimate.wall_s, 0.0};
    const perfbench::Percentile p50 = perfbench::percentile_with_count(unit_samples, 0.5);
    const perfbench::Percentile p90 = perfbench::percentile_with_count(unit_samples, 0.9);
    if (!p90.reportable) {
      std::fprintf(stderr, "perfbench: unit p90 rests on %zu samples beyond it (< 10)\n",
                   p90.beyond);
    }
    metrics.add("scenario.generate_s", layer("scenario.generate").total_s, "s");
    metrics.add("scenario.fold_s", layer("scenario.fold").total_s, "s");
    metrics.add("scenario.unit_p50_ms", p50.value, "ms");
    metrics.add("scenario.unit_p90_ms", p90.value, "ms");
    metrics.add("scenario.unit_samples", static_cast<double>(p90.samples), "count");

    double valid_calls = 0.0;
    double all_calls = 0.0;
    const auto kinds = all_base_routers();
    for (const RouterKind kind : kinds) {
      const std::string prefix = std::string("routing.") + to_cstring(kind);
      const perfbench::LayerTime& valid = layer(prefix + ".valid");
      const perfbench::LayerTime& failed = layer(prefix + ".failed");
      metrics.add(prefix + ".valid_s", valid.total_s, "s");
      metrics.add(prefix + ".failed_s", failed.total_s, "s");
      metrics.add(prefix + ".valid_calls", static_cast<double>(valid.count), "count");
      metrics.add(prefix + ".failed_calls", static_cast<double>(failed.count), "count");
      valid_calls += static_cast<double>(valid.count);
      all_calls += static_cast<double>(valid.count + failed.count);
    }
    metrics.add("routing.route_s", traced->route_s, "s");
    metrics.add("routing.valid_ratio", all_calls > 0 ? valid_calls / all_calls : 0.0, "ratio");
    metrics.add("routing.all_fail_instances",
                static_cast<double>(traced->all_fail_instances), "count");
    metrics.add("routing.all_fail_share",
                traced->route_s > 0 ? traced->all_fail_route_s / traced->route_s : 0.0,
                "ratio");
    metrics.add("routing.validate_s", layer("routing.validate").total_s, "s");
    metrics.add("routing.xyi_moves", static_cast<double>(traced->xyi_moves), "count");
    metrics.add("routing.pr_removals", static_cast<double>(traced->pr_removals), "count");
    metrics.add("routing.load_index_reorders",
                static_cast<double>(traced->load_index_reorders), "count");
    metrics.add("routing.ig_cut_bounds", static_cast<double>(traced->ig_cut_bounds),
                "count");
    metrics.add("power.breakdown_s", layer("power.breakdown").total_s, "s");

    const auto units = static_cast<double>(campaign->units.size());
    metrics.add("exp.aggregate_s", layer("exp.aggregate").total_s, "s");
    metrics.add("exp.wire_bytes_per_unit", static_cast<double>(traced->wire_bytes) / units,
                "B");
    metrics.add("exp.wire_s", layer("exp.wire").total_s, "s");
    metrics.add("exp.unattributed_s", layer("unit").self_s, "s");

    metrics.add("dist.journal_bytes_per_unit",
                static_cast<double>(traced->journal_bytes) / units, "B");
    metrics.add("dist.record_s", layer("dist.record").total_s, "s");
    metrics.add("dist.codec_s", layer("dist.codec").total_s, "s");
    metrics.add("dist.merge_s", layer("dist.merge").total_s, "s");
    metrics.add("dist.worker_spawns", dist_share.worker_spawns, "count");
    metrics.add("dist.overhead_share", dist_share.overhead_share, "ratio");
    metrics.add("trace.wall_s", traced->wall_s, "s");
    metrics.add("trace.overhead_ratio", traced->wall_s / estimate.wall_s, "ratio");
  }
  std::fprintf(stderr, "perfbench: %zu of %zu operations failed\n", checked.failed,
               checked.attempted);
  std::printf("%s\n", metrics.line(checked.attempted, checked.failed).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--worker") return dist::run_worker(stdin, stdout);
  }
  // Telemetry stays off unless the replay turns it on; nothing from the
  // caller's environment may change what the measured passes do.
  unsetenv("PAMR_OBS");
  unsetenv("PAMR_OBS_TRACE");
  unsetenv("PAMR_DIST_WORKER_FAIL_AFTER");
  obs::set_enabled(false);
  obs::set_trace_enabled(false);
  set_log_level(LogLevel::kWarn);

  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n>=0> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> --digests <file>\n");
    return 2;
  }
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string exe = dist::self_executable(argv[0]);
  try {
    if (args.setup_probe) return setup_probe(*workload, args.seed, exe);
    if (args.print_digests) {
      const auto pinned = build_campaign(*workload, -1, workload->digest_trials, false);
      const Pass pass = run_in_process(*pinned);
      for (const perfbench::DigestEntry& entry : digest_entries(*workload, *pinned, pass)) {
        const std::size_t slash = entry.key.find('/');
        std::printf("%s %s %s\n", entry.key.substr(0, slash).c_str(),
                    entry.key.substr(slash + 1).c_str(), entry.digest.c_str());
      }
      return 0;
    }
    if (args.digests.empty()) {
      std::fprintf(stderr, "perfbench: --digests is required\n");
      return 2;
    }
    return run(args, *workload, exe);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
