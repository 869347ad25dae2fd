// Tests of the benchmark's own metric code (bench_metrics.hpp). Plain
// checks with no test framework, so the benchmark package needs nothing
// beyond a compiler:
//
//   cmake -S perfbench -B <dir> && cmake --build <dir> --target perfbench_tests
//   <dir>/perfbench_tests
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_metrics.hpp"

namespace {

int g_failures = 0;

void expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::Span;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> samples;
  // Descending, so the function has to sort.
  for (std::size_t i = n; i >= 1; --i) samples.push_back(static_cast<double>(i));
  return samples;
}

void test_percentile_reports_its_sample_count() {
  const perfbench::Percentile p90 = perfbench::percentile_with_count(iota_samples(100), 0.9);
  EXPECT(p90.value == 90.0);
  EXPECT(p90.samples == 100);
  EXPECT(p90.beyond == 10);
  EXPECT(p90.reportable);

  // One sample fewer leaves only nine beyond the 90th percentile.
  const perfbench::Percentile short_tail =
      perfbench::percentile_with_count(iota_samples(99), 0.9);
  EXPECT(short_tail.samples == 99);
  EXPECT(short_tail.beyond == 9);
  EXPECT(!short_tail.reportable);

  const perfbench::Percentile p50 = perfbench::percentile_with_count(iota_samples(20), 0.5);
  EXPECT(p50.value == 10.0);
  EXPECT(p50.beyond == 10);
  EXPECT(p50.reportable);

  const perfbench::Percentile none = perfbench::percentile_with_count({}, 0.5);
  EXPECT(none.samples == 0 && !none.reportable);

  EXPECT(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_child_rss_is_accounted() {
  constexpr std::size_t kBytes = 96u << 20;
  const pid_t pid = fork();
  if (pid == 0) {
    // Touch every page through a volatile pointer so that the stores (and
    // the allocation) cannot be optimised away and the pages are resident.
    volatile char* block = static_cast<char*>(std::malloc(kBytes));
    if (block == nullptr) _exit(2);
    for (std::size_t i = 0; i < kBytes; i += 4096) block[i] = 1;
    _exit(block[kBytes - 4096] == 1 ? 0 : 3);
  }
  EXPECT(pid > 0);
  int status = 0;
  EXPECT(waitpid(pid, &status, 0) == pid);
  EXPECT(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const perfbench::PeakRss rss = perfbench::peak_rss();
  EXPECT(rss.children_mib >= 96.0);
  EXPECT(rss.self_mib > 0.0);
  EXPECT(rss.self_mib < rss.children_mib);  // this process never held the block
  EXPECT(rss.peak_mib() == rss.children_mib);
}

// The benchmark binary is exec'd by run.py, whose high-water mark the
// kernel carries into ru_maxrss; a fresh image must report only its own.
void test_self_rss_excludes_the_image_before_exec() {
  constexpr std::size_t kBytes = 64u << 20;
  int fds[2];
  EXPECT(pipe(fds) == 0);
  const pid_t pid = fork();
  if (pid == 0) {
    volatile char* block = static_cast<char*>(std::malloc(kBytes));
    if (block == nullptr) _exit(2);
    for (std::size_t i = 0; i < kBytes; i += 4096) block[i] = 1;
    dup2(fds[1], 1);
    execl("/proc/self/exe", "perfbench_tests", "--print-self-rss",
          static_cast<char*>(nullptr));
    _exit(3);
  }
  close(fds[1]);
  char text[64] = {};
  const ssize_t n = read(fds[0], text, sizeof text - 1);
  close(fds[0]);
  int status = 0;
  EXPECT(waitpid(pid, &status, 0) == pid);
  EXPECT(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT(n > 0);
  const double self_mib = std::strtod(text, nullptr);
  EXPECT(self_mib > 0.0 && self_mib < 32.0);
}

void test_self_time_subtracts_children() {
  // parent [0,100) with children [10,30), [20,50) (overlapping) and [90,120)
  // (overhanging): covered = [10,50) + [90,100) = 50.
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 30}, {1, 0, 20, 50}, {1, 0, 90, 120}, {2, 1, 12, 18},
  };
  const std::vector<std::uint64_t> self = perfbench::self_times_ns(spans);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 14);  // grandchild [12,18) is covered by its own parent only
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);
}

void test_unattributed_residual_is_never_negative() {
  // Children covering more than the whole parent leave a residual of 0.
  const std::vector<Span> spans = {{0, -1, 100, 110}, {1, 0, 90, 105}, {1, 0, 104, 130}};
  EXPECT(perfbench::self_times_ns(spans)[0] == 0);

  // Live recorder: the unit residual plus its children equals the unit span.
  perfbench::SpanRecorder recorder;
  const std::uint32_t unit = recorder.intern("unit");
  const std::uint32_t work = recorder.intern("work");
  {
    const perfbench::ScopedSpan unit_span(recorder, unit);
    for (int i = 0; i < 3; ++i) {
      const perfbench::ScopedSpan child(recorder, work);
      volatile double sink = 0.0;
      for (int k = 0; k < 10000; ++k) sink = sink + k;
    }
  }
  const std::vector<perfbench::LayerTime> layers = perfbench::layer_times(recorder);
  EXPECT(layers[unit].self_s >= 0.0);
  EXPECT(layers[work].count == 3);
  const double sum = layers[unit].self_s + layers[work].total_s;
  EXPECT(sum > 0.0 && sum - layers[unit].total_s < 1e-12 &&
         layers[unit].total_s - sum < 1e-12);

  // A span left open by an exception is closed with its parent.
  perfbench::SpanRecorder thrown;
  const std::uint32_t outer = thrown.intern("outer");
  try {
    const perfbench::ScopedSpan outer_span(thrown, outer);
    (void)thrown.open(thrown.intern("inner"));
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  for (const Span& span : thrown.spans()) EXPECT(span.end_ns >= span.start_ns && span.end_ns > 0);
  EXPECT(perfbench::self_times_ns(thrown.spans())[0] <=
         thrown.spans()[0].end_ns - thrown.spans()[0].start_ns);
}

void test_digest_mismatch_counts_failed_operations() {
  std::map<std::string, std::string> expected;
  std::string error;
  const std::string a = perfbench::digest_hex("table a");
  const std::string b = perfbench::digest_hex("table b");
  EXPECT(a.size() == 16 && a != b);
  const std::string file = "# workload scenario digest\n"
                           "w fig_a " + a + "\n\nw fig_b " + b + "  # trailing comment\n";
  EXPECT(perfbench::parse_digest_file(file, expected, error));
  EXPECT(expected.size() == 2 && expected["w/fig_a"] == a);

  const perfbench::CheckCount count = perfbench::check_digests(
      expected, {{"w/fig_a", a, 10},                           // matches
                 {"w/fig_b", perfbench::digest_hex("other"), 5},  // differs
                 {"w/fig_c", a, 3}});                           // not committed
  EXPECT(count.attempted == 18);
  EXPECT(count.failed == 8);
  EXPECT(count.mismatches == (std::vector<std::string>{"w/fig_b", "w/fig_c"}));

  std::map<std::string, std::string> untouched{{"keep", "me"}};
  EXPECT(!perfbench::parse_digest_file("w fig_a short\n", untouched, error));
  EXPECT(!error.empty() && untouched.size() == 1);

  // A unit failing several checks is counted once.
  perfbench::FailureLedger ledger({8, 8, 4});
  ledger.fail(1);
  ledger.fail(1);
  perfbench::CheckCount units = ledger.count();
  EXPECT(units.attempted == 20 && units.failed == 8);
  ledger.fail_all();
  units = ledger.count();
  EXPECT(units.failed == 20);
}

void test_rescale_removes_host_speed() {
  // A host running at half speed doubles both the work and the kernel.
  EXPECT(perfbench::rescale_ns(2000.0, 200.0, 100.0) == 1000.0);
  EXPECT(perfbench::rescale_ns(1000.0, 100.0, 100.0) == 1000.0);
  EXPECT(perfbench::rescale_ns(1000.0, 0.0, 100.0) == 1000.0);  // no kernel time: unscaled
  EXPECT(perfbench::reference_kernel_ns() > 0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--print-self-rss") == 0) {
    std::printf("%f\n", perfbench::peak_rss().self_mib);
    return 0;
  }
  test_percentile_reports_its_sample_count();
  test_child_rss_is_accounted();
  test_self_rss_excludes_the_image_before_exec();
  test_self_time_subtracts_children();
  test_unattributed_residual_is_never_negative();
  test_digest_mismatch_counts_failed_operations();
  test_rescale_removes_host_speed();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
