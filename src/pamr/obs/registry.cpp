#include "pamr/obs/registry.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "pamr/obs/trace.hpp"
#include "pamr/util/string_util.hpp"

namespace pamr::obs {

namespace {

// One thread's cells. Relaxed atomics: the owning thread is the only
// writer, but snapshot()/reset() read and zero cells from other threads,
// and the integer sums the registry publishes are order-independent.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kTotalCells> cells{};
};

struct Registry {
  std::mutex mutex;
  std::vector<Shard*> live;
  // Cells of shards whose threads have exited, folded in under the mutex.
  std::array<std::uint64_t, kTotalCells> retired{};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives late thread exits
  return *r;
}

// Registers with the registry on first touch, folds itself into the
// retired totals on thread exit.
struct ShardHolder {
  Shard shard;

  ShardHolder() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(&shard);
  }

  ~ShardHolder() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t c = 0; c < kTotalCells; ++c) {
      r.retired[c] += shard.cells[c].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < r.live.size(); ++i) {
      if (r.live[i] == &shard) {
        r.live.erase(r.live.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
};

Shard& local_shard() {
  thread_local ShardHolder holder;
  return holder.shard;
}

std::atomic<bool>& enabled_storage() noexcept {
  static std::atomic<bool> on{[] {
    const char* env = std::getenv("PAMR_OBS");
    return env != nullptr && env[0] == '1' && env[1] == '\0';
  }()};
  return on;
}

// MuteScope's per-thread switch; plain storage, so reading it costs no
// thread-local initialization guard.
thread_local bool t_muted = false;

/// The gate of every recording entry point.
bool recording() noexcept { return enabled() && !t_muted; }

}  // namespace

bool enabled() noexcept { return enabled_storage().load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  enabled_storage().store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count());
}

void bump(Metric m, std::uint64_t n) noexcept {
  if (!recording()) return;
  local_shard().cells[cell_offset(m)].fetch_add(n, std::memory_order_relaxed);
}

void sample(Metric m, std::uint64_t value) noexcept {
  if (!recording()) return;
  Shard& shard = local_shard();
  const std::size_t base = cell_offset(m);
  std::size_t bucket = 0;
  if (value > 0) {
    std::size_t width = 0;
    for (std::uint64_t v = value; v != 0; v >>= 1) ++width;
    bucket = width < kHistBuckets - 1 ? width : kHistBuckets - 1;
  }
  shard.cells[base].fetch_add(1, std::memory_order_relaxed);
  shard.cells[base + 1].fetch_add(value, std::memory_order_relaxed);
  shard.cells[base + 2 + bucket].fetch_add(1, std::memory_order_relaxed);
}

void add_ns(Metric m, std::uint64_t ns) noexcept {
  if (!recording()) return;
  Shard& shard = local_shard();
  const std::size_t base = cell_offset(m);
  shard.cells[base].fetch_add(ns, std::memory_order_relaxed);
  shard.cells[base + 1].fetch_add(1, std::memory_order_relaxed);
}

PhaseScope::PhaseScope(Metric m) noexcept : metric_(m) {
  if (!recording()) return;
  armed_ = true;
  start_ = now_ns();
}

PhaseScope::~PhaseScope() {
  if (!armed_) return;
  const std::uint64_t end = now_ns();
  add_ns(metric_, end - start_);
  if (trace_enabled()) {
    record_span(info(metric_).name, std::string(), start_, end);
  }
}

MuteScope::MuteScope() noexcept : was_muted_(t_muted) { t_muted = true; }

MuteScope::~MuteScope() { t_muted = was_muted_; }

Snapshot snapshot() {
  Snapshot snap;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  snap.cells = r.retired;
  for (const Shard* shard : r.live) {
    for (std::size_t c = 0; c < kTotalCells; ++c) {
      snap.cells[c] += shard->cells[c].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.retired.fill(0);
  for (Shard* shard : r.live) {
    for (std::size_t c = 0; c < kTotalCells; ++c) {
      shard->cells[c].store(0, std::memory_order_relaxed);
    }
  }
}

std::string encode_cell_deltas(const Snapshot& before, const Snapshot& after) {
  std::string out;
  for (std::size_t c = 0; c < kTotalCells; ++c) {
    const std::uint64_t delta = after.cells[c] - before.cells[c];
    if (delta == 0) continue;
    if (out.empty()) {
      out = std::to_string(kTotalCells);
      out += ';';
    } else {
      out += ',';
    }
    out += std::to_string(c);
    out += ':';
    out += std::to_string(delta);
  }
  return out;
}

bool merge_cell_deltas(std::string_view text, std::string& error) {
  if (text.empty()) return true;
  const std::size_t semi = text.find(';');
  if (semi == std::string_view::npos) {
    error = "missing cell-count header";
    return false;
  }
  std::int64_t declared = 0;
  if (!parse_int64(text.substr(0, semi), declared) ||
      declared != static_cast<std::int64_t>(kTotalCells)) {
    error = "cell-count mismatch (worker built from different metric table?)";
    return false;
  }
  Shard& shard = local_shard();
  std::string_view rest = text.substr(semi + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view entry =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view() : rest.substr(comma + 1);
    const std::size_t colon = entry.find(':');
    std::int64_t cell = 0;
    std::int64_t delta = 0;
    if (colon == std::string_view::npos ||
        !parse_int64(entry.substr(0, colon), cell) ||
        !parse_int64(entry.substr(colon + 1), delta) || cell < 0 ||
        cell >= static_cast<std::int64_t>(kTotalCells) || delta < 0) {
      error = "malformed cell delta '" + std::string(entry) + "'";
      return false;
    }
    shard.cells[static_cast<std::size_t>(cell)].fetch_add(
        static_cast<std::uint64_t>(delta), std::memory_order_relaxed);
  }
  return true;
}

}  // namespace pamr::obs
