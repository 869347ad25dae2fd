// Campaign driver: list, describe and run the named scenario catalogue (or
// an ad-hoc spec given on the command line), in this process on a thread
// pool or sharded over worker processes with a resumable journal.
//
//   $ pamr_scenarios --list
//   $ pamr_scenarios --describe hotspot_storm
//   $ pamr_scenarios --run fig7a_small,fig7b_mixed --trials 300 --csv
//   $ pamr_scenarios --run all --json --out runs/all
//   $ pamr_scenarios --spec "mesh=8x8 model=discrete ; kind=uniform n=40
//         lo=100 hi=1500 envelope=ramp:0.5:2" --trials 100
//   $ pamr_scenarios --run all --workers 8 --trials 50000 --csv --json --out runs/full
//   $ pamr_scenarios --run all --workers 8 --trials 50000 --csv --json --out runs/full
//         --resume
//
// Both executors write the same table bytes for the same entries, trials
// and seeds, whatever the thread or worker count, resumed or not. Figure
// suites default to their registered seed (fig7* → 7, fig8* → 8, fig9* →
// 9); --seed overrides.
//
// `--worker` is internal: the coordinator re-executes this binary with it
// to obtain shard children speaking the pipe protocol.
//
// Exit codes: 0 ok, 1 the run or a write failed, 2 usage error, 3
// interrupted at --max-units (the journal in --out resumes it).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <limits>

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

  ArgParser parser("pamr_scenarios", "list, describe and run workload scenarios");
  parser.add_flag("list", "enumerate the named scenarios and exit");
  parser.add_string("describe", "", "print a scenario's point specs and exit");
  parser.add_string("run", "", "comma-separated scenario names, or 'all'");
  parser.add_string("spec", "",
                    "run one ad-hoc scenario spec (see scenario_spec.hpp) instead of --run");
  parser.add_int("trials", 300, "instances per point", "PAMR_TRIALS");
  parser.add_int("seed", -1, "base seed; -1 uses each scenario's default");
  parser.add_int("threads", 0, "in-process threads; 0 follows PAMR_THREADS/hardware");
  parser.add_int("workers", 0, "worker processes; 0 runs the campaign in this process");
  parser.add_int("chunk", 8, "instances per work unit");
  parser.add_flag("csv", "write CSV tables to --out");
  parser.add_flag("json", "write a JSON file per scenario to --out");
  parser.add_string("out", output_directory(),
                    "output directory (default PAMR_OUT_DIR, else .); with --workers "
                    "also the journal shards.log and stream.csv");
  parser.add_string("stream", "",
                    "in process: append a CSV progress row per completed work unit to "
                    "this path");
  parser.add_flag("resume", "with --workers: continue from the journal in --out");
  parser.add_int("max-units", 0,
                 "with --workers: dispatch at most N new units, then stop (exit 3); "
                 "0 = all");
  parser.add_string("trace-out", "",
                    "write a Chrome trace-event JSON of the run to this path");
  parser.add_string("metrics-out", "",
                    "write a JSON telemetry report (counters, phases) to this path");
  parser.add_flag("worker", "internal: run as a pipe-protocol worker");
  int exit_code = 0;
  if (!parser.parse(argc, argv, exit_code)) return exit_code;

  const ScenarioRegistry& registry = ScenarioRegistry::builtin();

  if (parser.get_flag("list")) {
    Table table({"name", "points", "description"});
    for (const Scenario& scenario : registry.scenarios()) {
      table.add_row({scenario.name, static_cast<std::int64_t>(scenario.points.size()),
                     scenario.description});
    }
    std::printf("%s", table.to_text().c_str());
    return 0;
  }

  if (const std::string& name = parser.get_string("describe"); !name.empty()) {
    const Scenario* scenario = registry.find(name);
    if (scenario == nullptr) {
      std::fprintf(stderr, "%s\n", registry.unknown_name_message(name).c_str());
      return 2;
    }
    std::printf("%s — %s\n", scenario->name.c_str(), scenario->description.c_str());
    for (const auto& point : scenario->points) {
      std::printf("  %s=%s  %s\n", scenario->x_label.c_str(),
                  format_compact(point.x).c_str(), point.spec.to_string().c_str());
    }
    return 0;
  }

  const auto out_of_range = [&parser](const char* name, std::int64_t lo, std::int64_t hi) {
    const std::int64_t value = parser.get_int(name);
    if (value >= lo && value <= hi) return false;
    std::fprintf(stderr, "--%s must be in [%lld, %lld], got %lld\n", name,
                 static_cast<long long>(lo), static_cast<long long>(hi),
                 static_cast<long long>(value));
    return true;
  };
  if (out_of_range("trials", 1, 10'000'000) || out_of_range("threads", 0, 4096) ||
      out_of_range("workers", 0, 256) || out_of_range("chunk", 1, 1'000'000) ||
      out_of_range("max-units", 0, std::numeric_limits<std::int64_t>::max())) {
    return 2;
  }

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
  const std::int64_t workers = parser.get_int("workers");
  const std::string& stream_path = parser.get_string("stream");
  if (workers > 0 && !stream_path.empty()) {
    std::fprintf(stderr, "--stream applies in process only; with --workers the "
                         "stream is --out/stream.csv\n");
    return 2;
  }
  if (workers == 0 && (parser.get_flag("resume") || parser.get_int("max-units") > 0)) {
    std::fprintf(stderr, "--resume and --max-units apply only with --workers\n");
    return 2;
  }

  // Whether one name, a comma list, 'all' or an ad-hoc --spec: the batch
  // runs as ONE flattened work list, so short scenarios don't serialize
  // behind long ones — each result still matches a standalone run of that
  // scenario bit-for-bit.
  const std::int64_t seed = parser.get_int("seed");
  std::vector<scenario::SuiteEntry> entries;
  Scenario adhoc;  // must outlive the batch when --spec is used
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
    if (!scenario::resolve_suite_entries(registry, names, seed, entries,
                                         resolve_error)) {
      std::fprintf(stderr, "%s (try --list)\n", resolve_error.c_str());
      return 2;
    }
  }

  scenario::SuiteOptions options;
  options.instances = static_cast<std::int32_t>(parser.get_int("trials"));
  options.threads = static_cast<std::size_t>(parser.get_int("threads"));
  options.chunk = static_cast<std::size_t>(parser.get_int("chunk"));

  // Telemetry is armed before any routing work so phase timers cover the
  // whole run; run_campaign exports the enablement to worker processes,
  // which ship counter deltas and span batches back over the wire. The
  // files are written once, after the campaign finished or stopped.
  const std::string& trace_out = parser.get_string("trace-out");
  const std::string& metrics_out = parser.get_string("metrics-out");
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::set_enabled(true);
    if (!trace_out.empty()) {
      obs::set_trace_enabled(true);
      obs::set_process_label(0, "pamr_scenarios");
    }
  }

  CsvStreamWriter stream;
  scenario::UnitSink sink;
  if (!stream_path.empty()) {
    if (!stream.open(stream_path, scenario::stream_csv_header())) return 1;
    sink = [&entries, &stream](const scenario::SuiteUnit& unit,
                               const exp::PointAggregate& partial) {
      const Scenario& scenario = *entries[unit.scenario_index].scenario;
      (void)stream.append_row(scenario::stream_csv_row(
          scenario.name, scenario.points[unit.point_index].x, unit, partial));
    };
  }

  const std::string& out_dir = parser.get_string("out");
  const bool csv = parser.get_flag("csv");
  const bool json = parser.get_flag("json");
  std::vector<scenario::ScenarioResult> results;
  std::string fingerprint;  // names the campaign in the report
  bool interrupted = false;
  // PAMR_CHECK failures surface as std::logic_error; anything the parser's
  // validation did not anticipate still exits with a diagnostic, not an
  // abort.
  try {
    options.validate();
    if (csv || json) std::filesystem::create_directories(out_dir);
    if (workers == 0) {
      results = scenario::SuiteRunner(options).run_all(entries, sink);
      if (!metrics_out.empty()) {
        fingerprint =
            dist::build_campaign_plan(entries, options.instances, options.chunk)
                .fingerprint;
      }
    } else {
      const dist::CampaignPlan plan =
          dist::build_campaign_plan(entries, options.instances, options.chunk);
      fingerprint = plan.fingerprint;
      dist::CoordinatorOptions coordinator;
      coordinator.workers = static_cast<std::size_t>(workers);
      coordinator.worker_exe = dist::self_executable(argv[0]);
      coordinator.out_dir = out_dir;
      coordinator.resume = parser.get_flag("resume");
      coordinator.max_units = static_cast<std::uint64_t>(parser.get_int("max-units"));
      dist::CampaignOutcome outcome = dist::run_campaign(plan, coordinator);
      std::fprintf(stderr,
                   "pamr_scenarios: %zu/%zu units (%zu resumed, %zu run, %zu worker "
                   "failures) in %.1fs\n",
                   outcome.units_resumed + outcome.units_run, outcome.units_total,
                   outcome.units_resumed, outcome.units_run, outcome.worker_failures,
                   outcome.elapsed_seconds);
      interrupted = !outcome.complete;
      results = std::move(outcome.results);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pamr_scenarios: %s\n", e.what());
    return 1;
  }

  bool failed = false;
  for (const scenario::ScenarioResult& result : results) {
    scenario::print_scenario_result(result, options.instances);
    failed |= !scenario::write_scenario_outputs(result, out_dir, csv, json);
  }
  // Written even when interrupted: a partial trace or report is still
  // useful, and the resumed invocation overwrites both.
  std::string obs_error;
  if (!metrics_out.empty() &&
      !obs::write_report(metrics_out, "pamr_scenarios", fingerprint, obs_error)) {
    std::fprintf(stderr, "pamr_scenarios: --metrics-out %s: %s\n", metrics_out.c_str(),
                 obs_error.c_str());
    failed = true;
  }
  if (!trace_out.empty() && !obs::write_trace(trace_out, obs_error)) {
    std::fprintf(stderr, "pamr_scenarios: --trace-out %s: %s\n", trace_out.c_str(),
                 obs_error.c_str());
    failed = true;
  }
  if (failed) return 1;
  if (interrupted) {
    // Echo back every parameter the journal fingerprint pins, so the
    // pasted command cannot be refused as a different campaign.
    std::string hint = "pamr_scenarios ";
    hint += spec_text.empty() ? "--run " + names : "--spec '" + spec_text + "'";
    hint += " --workers " + std::to_string(workers) + " --trials " +
            std::to_string(options.instances) + " --chunk " +
            std::to_string(options.chunk);
    if (seed >= 0) hint += " --seed " + std::to_string(seed);
    if (csv) hint += " --csv";
    if (json) hint += " --json";
    hint += " --out " + out_dir + " --resume";
    std::fprintf(stderr, "pamr_scenarios: campaign interrupted; resume with:  %s\n",
                 hint.c_str());
    return 3;
  }
  return 0;
}
