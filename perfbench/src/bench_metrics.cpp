#include "bench_metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// -- Host speed -----------------------------------------------------------------

namespace {

/// One random cycle through all 2^16 slots, so the walk visits the whole
/// table and every load depends on the one before it.
std::vector<std::uint32_t> make_cycle() {
  constexpr std::uint32_t kSlots = 1u << 16;
  std::vector<std::uint32_t> order(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(order[i], order[(state >> 33) % (i + 1)]);
  }
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[order[i]] = order[(i + 1) % kSlots];
  return next;
}

volatile double g_kernel_sink = 0.0;

}  // namespace

std::uint64_t reference_kernel_ns() {
  static const std::vector<std::uint32_t> next = make_cycle();
  constexpr int kSteps = 100000;
  const std::uint64_t start = now_ns();
  // A chain of dependent loads, with independent floating-point and integer
  // streams beside it that keep the execution ports busy while it waits: a
  // latency-bound walk alone misses about half of the slowdown the routing
  // code sees when another tenant shares the core.
  std::uint32_t at = 0;
  double f0 = 1.0, f1 = 2.0, f2 = 3.0, f3 = 4.0;
  std::uint64_t h0 = 1, h1 = 2, h2 = 3, h3 = 4;
  for (int i = 0; i < kSteps; ++i) {
    at = next[at];
    f0 = f0 * 0.999999 + 0.5;
    f1 = f1 * 0.999998 + static_cast<double>(at & 7);
    f2 = f2 * 0.999997 + 0.25;
    f3 = f3 * 0.999996 + 0.125;
    h0 ^= h0 << 13;
    h0 ^= h0 >> 7;
    h0 ^= h0 << 17;
    h1 ^= h1 << 13;
    h1 ^= h1 >> 7;
    h1 ^= h1 << 17;
    h2 += h2 * 0x9e3779b97f4a7c15ULL + at;
    h3 = (h3 >> 3) + (h3 << 5) + static_cast<std::uint64_t>(i);
    if (((at * 0x9e3779b9u) >> 31) != 0) {  // data-dependent, so mispredicted
      f0 += static_cast<double>(h0 & 15);
    } else {
      f2 += static_cast<double>(h1 & 15);
    }
  }
  g_kernel_sink = f0 + f1 + f2 + f3 + static_cast<double>(h0 ^ h1 ^ h2 ^ h3);
  return now_ns() - start;
}

double rescale_ns(double measured_ns, double kernel_ns, double reference_ns) {
  return kernel_ns > 0.0 ? measured_ns * reference_ns / kernel_ns : measured_ns;
}

// -- Spans --------------------------------------------------------------------

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t SpanRecorder::open(std::uint32_t name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  // Spans left open by an exception are closed together with their parent.
  if (std::find(stack_.begin(), stack_.end(), index) == stack_.end()) return;
  const std::uint64_t end = now_ns();
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    spans_[top].end_ns = end;
    if (top == index) break;
  }
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, std::uint32_t name)
    : recorder_(recorder), index_(recorder.open(name)) {}

ScopedSpan::~ScopedSpan() { recorder_.close(index_); }

std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns <= span.start_ns) continue;
    covered.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_ns = 0;
    std::uint64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
        reach = hi;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - union_ns;
  }
  return self;
}

std::vector<LayerTime> layer_times(const SpanRecorder& recorder) {
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::vector<LayerTime> layers(recorder.names().size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = layers[spans[i].name];
    const std::uint64_t duration =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns : 0;
    layer.total_s += static_cast<double>(duration) * 1e-9;
    layer.self_s += static_cast<double>(self[i]) * 1e-9;
    ++layer.count;
  }
  return layers;
}

// -- Percentiles ----------------------------------------------------------------

Percentile percentile_with_count(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  // Nearest rank, 1-based: the smallest rank whose share reaches q. The
  // small epsilon keeps q·n = 90.000000001 from rounding up a whole rank.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.reportable = out.beyond >= 10;
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// -- Memory -------------------------------------------------------------------

PeakRss peak_rss() {
  PeakRss out;
  // RUSAGE_SELF's ru_maxrss keeps the high-water mark of the image that
  // exec'd this one (for run.py, the Python interpreter's ~14 MiB), which
  // would hide everything below it. VmHWM belongs to this image alone.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      out.self_mib = std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
      break;
    }
  }
  rusage usage{};
  if (getrusage(RUSAGE_CHILDREN, &usage) == 0) {
    out.children_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
  }
  return out;
}

// -- Digests and failure accounting ------------------------------------------

std::string digest_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

bool parse_digest_file(std::string_view text, std::map<std::string, std::string>& out,
                       std::string& error) {
  std::map<std::string, std::string> parsed;
  std::istringstream lines{std::string(text)};
  std::string line;
  std::size_t number = 0;
  while (std::getline(lines, line)) {
    ++number;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string workload;
    std::string scenario;
    std::string digest;
    std::string extra;
    if (!(fields >> workload)) continue;  // blank or comment-only
    if (!(fields >> scenario >> digest) || (fields >> extra) || digest.size() != 16) {
      error = "digest line " + std::to_string(number) + ": expected "
              "'<workload> <scenario> <16 hex digits>'";
      return false;
    }
    parsed[workload + "/" + scenario] = digest;
  }
  out = std::move(parsed);
  error.clear();
  return true;
}

CheckCount check_digests(const std::map<std::string, std::string>& expected,
                         const std::vector<DigestEntry>& actual) {
  CheckCount count;
  for (const DigestEntry& entry : actual) {
    count.attempted += entry.instances;
    const auto it = expected.find(entry.key);
    if (it == expected.end() || it->second != entry.digest) {
      count.failed += entry.instances;
      count.mismatches.push_back(entry.key);
    }
  }
  return count;
}

FailureLedger::FailureLedger(std::vector<std::size_t> unit_instances)
    : instances_(std::move(unit_instances)), failed_(instances_.size(), 0) {}

void FailureLedger::fail_all() { std::fill(failed_.begin(), failed_.end(), 1); }

CheckCount FailureLedger::count() const {
  CheckCount count;
  for (std::size_t u = 0; u < instances_.size(); ++u) {
    count.attempted += instances_[u];
    if (failed_[u] != 0) count.failed += instances_[u];
  }
  return count;
}

}  // namespace perfbench
