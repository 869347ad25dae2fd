// Distributed campaign driver: shard scenario suites over worker processes
// with a resumable on-disk journal.
//
//   $ pamr_dist --run fig7a_small --workers 4 --out runs/fig7a
//   $ pamr_dist --run all --workers 8 --trials 50000 --out runs/full
//   $ pamr_dist --run all --workers 8 --trials 50000 --out runs/full --resume
//
// The final CSV/JSON tables in --out are byte-identical to what
// `pamr_scenarios --run <same> --csv --json` writes for the same trials and
// seeds — any worker count, resumed or not (see README "Distributed runs").
// Figure suites default to their bench seed exactly like pamr_scenarios;
// --seed overrides uniformly.
//
// `--worker` is internal: the coordinator re-executes this binary with it
// to obtain shard children speaking the pipe protocol.
#include <cstdio>
#include <exception>

#include "pamr/dist/coordinator.hpp"
#include "pamr/dist/worker.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  using scenario::Scenario;
  using scenario::ScenarioRegistry;

  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--worker") {
      return dist::run_worker(stdin, stdout);
    }
  }

  ArgParser parser("pamr_dist",
                   "run scenario suites sharded over worker processes");
  parser.add_string("run", "", "comma-separated scenario names, or 'all'");
  parser.add_string("spec", "",
                    "run one ad-hoc scenario spec (see scenario_spec.hpp) instead "
                    "of --run; same semantics as pamr_scenarios --spec");
  parser.add_int("workers", 2, "worker processes", "PAMR_WORKERS");
  parser.add_int("trials", 300, "instances per point", "PAMR_TRIALS");
  parser.add_int("seed", -1, "base seed; -1 uses each scenario's default");
  parser.add_int("chunk", 8, "instances per work unit");
  parser.add_string("out", "pamr_dist_out",
                    "campaign directory: journal, stream.csv, final tables");
  parser.add_flag("resume", "continue from the journal in --out");
  parser.add_flag("no-tables", "skip printing the merged tables to stdout");
  parser.add_int("max-units", 0,
                 "dispatch at most N new units then stop (checkpoint hook); 0 = all");
  parser.add_string("trace-out", "",
                    "write a merged Chrome trace-event JSON (coordinator + all "
                    "workers) to this path");
  parser.add_string("metrics-out", "",
                    "write a JSON telemetry report (counters, phases) to this path");
  parser.add_flag("worker", "internal: run as a pipe-protocol worker");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;

  const std::string& names = parser.get_string("run");
  const std::string& spec_text = parser.get_string("spec");
  if (names.empty() == spec_text.empty()) {  // neither or both
    if (!names.empty()) {
      std::fprintf(stderr, "--run and --spec are mutually exclusive\n");
      return 2;
    }
    std::fputs(parser.help_text().c_str(), stdout);
    return 2;
  }

  const std::int64_t trials = parser.get_int("trials");
  if (trials < 1 || trials > 10'000'000) {
    std::fprintf(stderr, "--trials must be in [1, 10000000], got %lld\n",
                 static_cast<long long>(trials));
    return 2;
  }
  const std::int64_t chunk = parser.get_int("chunk");
  if (chunk < 1 || chunk > 1'000'000) {
    std::fprintf(stderr, "--chunk must be in [1, 1000000], got %lld\n",
                 static_cast<long long>(chunk));
    return 2;
  }
  const std::int64_t workers = parser.get_int("workers");
  if (workers < 1 || workers > 256) {
    std::fprintf(stderr, "--workers must be in [1, 256], got %lld\n",
                 static_cast<long long>(workers));
    return 2;
  }
  const std::int64_t max_units = parser.get_int("max-units");
  if (max_units < 0) {
    std::fprintf(stderr, "--max-units must be >= 0, got %lld\n",
                 static_cast<long long>(max_units));
    return 2;
  }

  // Telemetry is armed before the campaign starts; run_campaign exports the
  // enablement to worker processes through the environment, and workers ship
  // counter deltas / span batches back over the wire (side channels only —
  // result bytes are identical either way).
  const std::string& trace_out = parser.get_string("trace-out");
  const std::string& metrics_out = parser.get_string("metrics-out");
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::set_enabled(true);
    if (!trace_out.empty()) obs::set_trace_enabled(true);
  }

  const std::int64_t seed = parser.get_int("seed");
  std::vector<scenario::SuiteEntry> entries;
  Scenario adhoc;  // must outlive the plan when --spec is used
  if (!spec_text.empty()) {
    scenario::ScenarioSpec spec;
    std::string error;
    if (!scenario::ScenarioSpec::parse(spec_text, spec, error)) {
      std::fprintf(stderr, "bad --spec: %s\n", error.c_str());
      return 2;
    }
    adhoc = scenario::adhoc_scenario(std::move(spec));
    entries.push_back({&adhoc, seed >= 0 ? static_cast<std::uint64_t>(seed)
                                         : adhoc.default_seed});
  } else {
    std::string resolve_error;
    if (!scenario::resolve_suite_entries(ScenarioRegistry::builtin(), names, seed,
                                         entries, resolve_error)) {
      std::fprintf(stderr, "%s (try pamr_scenarios --list)\n", resolve_error.c_str());
      return 2;
    }
  }

  scenario::SuiteOptions suite_options;
  suite_options.instances = static_cast<std::int32_t>(trials);
  suite_options.chunk = static_cast<std::size_t>(chunk);

  dist::CoordinatorOptions options;
  options.workers = static_cast<std::size_t>(workers);
  options.worker_exe = dist::self_executable(argv[0]);
  options.out_dir = parser.get_string("out");
  options.resume = parser.get_flag("resume");
  options.max_units = static_cast<std::uint64_t>(max_units);

  try {
    suite_options.validate();  // same boundary checks as the in-process runner
    const dist::CampaignPlan plan = dist::build_campaign_plan(
        std::move(entries), suite_options.instances, suite_options.chunk);
    const dist::CampaignOutcome outcome = dist::run_campaign(plan, options);

    // Written even when interrupted: a partial trace/report is still useful,
    // and the resumed invocation overwrites both with the complete picture.
    std::string obs_error;
    if (!metrics_out.empty() &&
        !obs::write_report(metrics_out, "pamr_dist", plan.fingerprint, obs_error)) {
      std::fprintf(stderr, "pamr_dist: --metrics-out %s: %s\n", metrics_out.c_str(),
                   obs_error.c_str());
      return 1;
    }
    if (!trace_out.empty() && !obs::write_trace(trace_out, obs_error)) {
      std::fprintf(stderr, "pamr_dist: --trace-out %s: %s\n", trace_out.c_str(),
                   obs_error.c_str());
      return 1;
    }

    std::fprintf(stderr,
                 "pamr_dist: %zu/%zu units (%zu resumed, %zu run, %zu worker "
                 "failures) in %.1fs\n",
                 outcome.units_resumed + outcome.units_run, outcome.units_total,
                 outcome.units_resumed, outcome.units_run, outcome.worker_failures,
                 outcome.elapsed_seconds);
    if (!outcome.complete) {
      // Echo back every parameter the journal fingerprint pins, so the
      // pasted command cannot be refused as a different campaign.
      std::string hint = "pamr_dist ";
      hint += spec_text.empty() ? "--run " + names : "--spec '" + spec_text + "'";
      hint += " --trials " + std::to_string(suite_options.instances) + " --chunk " +
              std::to_string(suite_options.chunk);
      if (seed >= 0) hint += " --seed " + std::to_string(seed);
      hint += " --out " + options.out_dir + " --resume";
      std::fprintf(stderr, "pamr_dist: campaign interrupted; resume with:  %s\n",
                   hint.c_str());
      return 3;
    }
    for (const scenario::ScenarioResult& result : outcome.results) {
      if (!parser.get_flag("no-tables")) {
        scenario::print_scenario_result(result, suite_options.instances);
      }
      if (!scenario::write_scenario_outputs(result, options.out_dir, /*write_csv=*/true,
                                            /*write_json=*/true)) {
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pamr_dist: %s\n", e.what());
    return 1;
  }
  return 0;
}
