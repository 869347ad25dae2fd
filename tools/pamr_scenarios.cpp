// Scenario suite driver: list, describe and run the named scenario
// catalogue (or an ad-hoc spec given on the command line).
//
//   $ pamr_scenarios --list
//   $ pamr_scenarios --describe hotspot_storm
//   $ pamr_scenarios --run fig7a_small,fig7b_mixed --trials 300 --csv
//   $ pamr_scenarios --run all --json
//   $ pamr_scenarios --spec "mesh=8x8 model=discrete ; kind=uniform n=40
//         lo=100 hi=1500 envelope=ramp:0.5:2" --trials 100
//
// Figure suites default to their registered seed (fig7* → 7, fig8* → 8,
// fig9* → 9); --seed overrides.
#include <cstdio>

#include "pamr/dist/protocol.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/scenario/suite_runner.hpp"
#include "pamr/util/args.hpp"
#include "pamr/util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace pamr;
  using scenario::Scenario;
  using scenario::ScenarioRegistry;

  ArgParser parser("pamr_scenarios", "list, describe and run workload scenarios");
  parser.add_flag("list", "enumerate the named scenarios and exit");
  parser.add_string("describe", "", "print a scenario's point specs and exit");
  parser.add_string("run", "", "comma-separated scenario names, or 'all'");
  parser.add_string("spec", "",
                    "run one ad-hoc scenario spec (see scenario_spec.hpp) instead of --run");
  parser.add_int("trials", 300, "instances per point", "PAMR_TRIALS");
  parser.add_int("seed", -1, "base seed; -1 uses each scenario's default");
  parser.add_int("threads", 0, "worker threads; 0 follows PAMR_THREADS/hardware");
  parser.add_flag("csv", "also write CSV files to PAMR_OUT_DIR");
  parser.add_flag("json", "also write a JSON file per scenario to PAMR_OUT_DIR");
  parser.add_string("stream", "",
                    "append a CSV progress row per completed work unit to this path");
  parser.add_string("trace-out", "",
                    "write a Chrome trace-event JSON of the run to this path");
  parser.add_string("metrics-out", "",
                    "write a JSON telemetry report (counters, phases) to this path");
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

  const std::int64_t threads = parser.get_int("threads");
  if (threads < 0 || threads > 4096) {
    std::fprintf(stderr, "--threads must be in [0, 4096], got %lld\n",
                 static_cast<long long>(threads));
    return 2;
  }
  const std::int64_t trials = parser.get_int("trials");
  if (trials < 1 || trials > 10'000'000) {
    std::fprintf(stderr, "--trials must be in [1, 10000000], got %lld\n",
                 static_cast<long long>(trials));
    return 2;
  }
  scenario::SuiteOptions options;
  options.instances = static_cast<std::int32_t>(trials);
  options.threads = static_cast<std::size_t>(threads);
  const std::int64_t seed = parser.get_int("seed");

  // Telemetry is armed before any routing work so phase timers cover the
  // whole run; the files are written once, after every scenario finished.
  const std::string& trace_out = parser.get_string("trace-out");
  const std::string& metrics_out = parser.get_string("metrics-out");
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::set_enabled(true);
    if (!trace_out.empty()) {
      obs::set_trace_enabled(true);
      obs::set_process_label(0, "pamr_scenarios");
    }
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

  // Whether one name, a comma list, 'all' or an ad-hoc --spec: the batch
  // runs as ONE flattened work list (SuiteRunner::run_all), so short
  // scenarios don't serialize behind long ones — each result still matches
  // a standalone run of that scenario bit-for-bit.
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

  CsvStreamWriter stream;
  scenario::UnitSink sink;
  if (const std::string& path = parser.get_string("stream"); !path.empty()) {
    if (!stream.open(path, scenario::stream_csv_header())) return 2;
    sink = [&entries, &stream](const scenario::SuiteUnit& unit,
                               const exp::PointAggregate& partial) {
      const Scenario& scenario = *entries[unit.scenario_index].scenario;
      (void)stream.append_row(scenario::stream_csv_row(
          scenario.name, scenario.points[unit.point_index].x, unit, partial));
    };
  }

  // PAMR_CHECK failures surface as std::logic_error; anything the parser's
  // validation did not anticipate should still exit with a diagnostic, not
  // an abort.
  try {
    const std::vector<scenario::ScenarioResult> results =
        scenario::SuiteRunner(options).run_all(entries, sink);
    for (const scenario::ScenarioResult& result : results) {
      scenario::print_scenario_result(result, options.instances);
      (void)scenario::write_scenario_outputs(result, output_directory(),
                                             parser.get_flag("csv"),
                                             parser.get_flag("json"));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error running '%s': %s\n",
                 spec_text.empty() ? names.c_str() : adhoc.name.c_str(), e.what());
    return 2;
  }

  // The report's fingerprint mirrors pamr_dist's campaign identity, so a
  // report from either driver names the same (entries, trials, chunk)
  // expansion and the two can be compared by eye.
  int status = 0;
  std::string obs_error;
  if (!metrics_out.empty()) {
    const std::string fingerprint =
        dist::build_campaign_plan(entries, options.instances, options.chunk).fingerprint;
    if (!obs::write_report(metrics_out, "pamr_scenarios", fingerprint, obs_error)) {
      std::fprintf(stderr, "pamr_scenarios: --metrics-out %s: %s\n", metrics_out.c_str(),
                   obs_error.c_str());
      status = 1;
    }
  }
  if (!trace_out.empty() && !obs::write_trace(trace_out, obs_error)) {
    std::fprintf(stderr, "pamr_scenarios: --trace-out %s: %s\n", trace_out.c_str(),
                 obs_error.c_str());
    status = 1;
  }
  return status;
}
