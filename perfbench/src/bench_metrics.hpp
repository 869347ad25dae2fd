// Metric primitives of the campaign benchmark: in-memory spans with self
// time, percentiles that carry their sample count, peak RSS of this process
// and its children, digests of result tables, and the per-instance failure
// ledger behind the `attempted` / `failed` counts.
//
// Everything here is independent of pamr so that tests can pin each rule on
// hand-built inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

// -- Host speed -----------------------------------------------------------------

/// Runs a fixed reference computation once and returns its duration in ns
/// (about 1 ms). The work is the mix the routing code does: dependent loads
/// through a 256 KiB table, data-dependent branches, and floating-point and
/// integer arithmetic. It never changes and shares no code with pamr, so
/// its time measures only how fast the CPU it runs on is at that moment.
[[nodiscard]] std::uint64_t reference_kernel_ns();

/// Time `measured_ns` spent at the speed where the reference kernel took
/// `kernel_ns`, rescaled to the speed where it takes `reference_ns`.
[[nodiscard]] double rescale_ns(double measured_ns, double kernel_ns, double reference_ns);

// -- Spans --------------------------------------------------------------------

struct Span {
  std::uint32_t name = 0;   ///< index into SpanRecorder::names()
  std::int64_t parent = -1; ///< index of the enclosing span, -1 at top level
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Records nested spans in memory; nothing is written until the caller reads
/// spans() at the end of the run. Single-threaded by design: the traced
/// replay runs on one thread.
class SpanRecorder {
 public:
  /// Index of `name`, registering it on first use.
  [[nodiscard]] std::uint32_t intern(std::string_view name);
  [[nodiscard]] const std::vector<std::string>& names() const noexcept { return names_; }

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(std::uint32_t name);
  /// Closes span `index` and any span still open inside it; closing a span
  /// that is not open does nothing.
  void close(std::size_t index);
  /// Renames a span, for spans classified only after they finish (a route
  /// call is "valid" or "failed" once it returns).
  void rename(std::size_t index, std::uint32_t name) { spans_[index].name = name; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::uint32_t name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::size_t index_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (the union of their intervals, clipped
/// to the parent). Never negative, even for overlapping or overhanging
/// children.
[[nodiscard]] std::vector<std::uint64_t> self_times_ns(const std::vector<Span>& spans);

/// Per span name: summed duration and summed self time, in seconds.
struct LayerTime {
  double total_s = 0.0;
  double self_s = 0.0;
  std::size_t count = 0;
};
[[nodiscard]] std::vector<LayerTime> layer_times(const SpanRecorder& recorder);

// -- Percentiles ----------------------------------------------------------------

/// A nearest-rank percentile with the evidence behind it. `reportable`
/// holds when at least ten samples lie beyond the chosen rank — the rule
/// for publishing a tail percentile at all.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly after the chosen rank
  bool reportable = false;
};
[[nodiscard]] Percentile percentile_with_count(std::vector<double> samples, double q);

[[nodiscard]] double median(std::vector<double> values);

// -- Memory -------------------------------------------------------------------

/// Peak resident set sizes in MiB: this process image (VmHWM, so not the
/// image that exec'd it), and the largest of its terminated, waited-for
/// descendants (getrusage RUSAGE_CHILDREN).
struct PeakRss {
  double self_mib = 0.0;
  double children_mib = 0.0;
  [[nodiscard]] double peak_mib() const noexcept {
    return self_mib > children_mib ? self_mib : children_mib;
  }
};
[[nodiscard]] PeakRss peak_rss();

// -- Digests and failure accounting ------------------------------------------

/// FNV-1a 64 of `bytes`, as 16 lowercase hex digits.
[[nodiscard]] std::string digest_hex(std::string_view bytes);

/// Parses "<workload> <scenario> <digest>" lines ('#' starts a comment)
/// into key "<workload>/<scenario>". Returns false on a malformed line.
[[nodiscard]] bool parse_digest_file(std::string_view text,
                                     std::map<std::string, std::string>& out,
                                     std::string& error);

/// One folded scenario table to be checked against the committed digests.
struct DigestEntry {
  std::string key;  ///< "<workload>/<scenario>"
  std::string digest;
  std::size_t instances = 0;
};

struct CheckCount {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> mismatches;  ///< keys that failed
};

/// Every instance behind a table whose digest differs from the committed
/// one — or has none committed — counts as a failed operation.
[[nodiscard]] CheckCount check_digests(const std::map<std::string, std::string>& expected,
                                       const std::vector<DigestEntry>& actual);

/// Failed operations per work unit: a unit is marked at most once, however
/// many of its checks fail, so `failed` never exceeds `attempted`.
class FailureLedger {
 public:
  explicit FailureLedger(std::vector<std::size_t> unit_instances);
  void fail(std::size_t unit) { failed_[unit] = 1; }
  void fail_all();
  [[nodiscard]] CheckCount count() const;

 private:
  std::vector<std::size_t> instances_;
  std::vector<char> failed_;
};

}  // namespace perfbench
