// Span tracing on top of the registry: RAII spans collected per thread,
// merged per process, written as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load directly).
//
// Distributed runs: each worker drains its spans after every unit and
// ships them over the wire protocol as an ordinary message (see
// dist/worker.cpp); the coordinator files them under that worker's trace
// pid, so the merged trace.json shows one lane per process. pid 0 is
// always the local process (the coordinator, or the in-process run).
//
// write_trace() turns the recorded intervals into properly nested B/E
// event pairs per (pid, tid): spans are sorted by (start, -end) and
// emitted with a stack walk, so every B has a matching E and children
// close before their parents — the property test_obs validates.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pamr::obs {

struct TraceSpan {
  std::string name;
  std::string args_json;  ///< "" or a complete JSON object, e.g. {"point":3}
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Tracing gate, independent of (but useless without) the registry gate;
/// initialized from PAMR_OBS_TRACE=1, flipped by the --trace-out flags.
[[nodiscard]] bool trace_enabled() noexcept;
void set_trace_enabled(bool on) noexcept;

/// RAII span on the calling thread. Check trace_enabled() before building
/// name/args strings at hot call sites.
class Span {
 public:
  explicit Span(std::string name, std::string args_json = std::string()) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::string args_;
  std::uint64_t start_ = 0;
  bool armed_ = false;
};

/// Records a closed interval on the calling thread (PhaseScope uses this).
void record_span(std::string name, std::string args_json, std::uint64_t start_ns,
                 std::uint64_t end_ns);

/// Moves out every span recorded locally so far (worker batching). The
/// spans keep their tids; pid is 0 until the coordinator re-files them.
[[nodiscard]] std::vector<TraceSpan> drain_spans();

/// Files spans received from worker `pid` into the merged timeline.
void add_remote_spans(std::uint32_t pid, std::vector<TraceSpan> spans);

/// Names a process lane in the merged trace ("coordinator", "worker 1").
void set_process_label(std::uint32_t pid, std::string label);

/// Writes the merged timeline (local + remote spans) as trace-event JSON.
[[nodiscard]] bool write_trace(const std::string& path, std::string& error);

/// Drops every recorded span and label (test isolation).
void clear_trace();

/// Wire codec for one span (dist protocol field value; line-clean).
[[nodiscard]] std::string encode_span(const TraceSpan& span);
[[nodiscard]] bool decode_span(std::string_view text, TraceSpan& out);

}  // namespace pamr::obs
