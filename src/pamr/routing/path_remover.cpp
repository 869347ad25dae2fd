// PR — path remover (paper §5.5).
//
// Every communication starts with its full Manhattan path DAG (all links of
// its bounding rectangle) carrying the Figure-3 virtual spread: δ_i/m_t on
// each of the m_t allowed links of diagonal cut t. Then, repeatedly:
//
//   * take the most loaded link;
//   * among the communications still using it (heaviest first), remove the
//     link from the first one whose cut keeps ≥ 2 links — in the monotone
//     rectangle DAG this can never disconnect the source from the sink,
//     which is the paper's "unless this removal would break its last
//     remaining path" rule;
//   * prune links that no longer lie on any surviving src→snk path (the
//     paper's "path cleaning" examples are exactly the fixed point of this
//     forward/backward reachability prune) and re-spread the load.
//
// The process stops when every communication retains a single path. Each
// removal strictly shrinks the union of allowed links, so termination is
// structural.
//
// "Most loaded link, heaviest communication using it" comes from a
// LoadIndex: the top of a heap keyed on (load, history stamp), re-keyed
// only for the links whose stored load actually changed, plus per-link
// heaviest-first membership lists. Links whose scan finds no removable
// member are retired permanently: every surviving member holds them in a
// singleton cut, cuts only shrink, and membership only dies, so such a link
// can never yield a removal again.
//
// The seed re-sorted all mesh links by load and rescanned every
// communication per removal, O(L log L + nc) each; its loop is the test
// oracle in tests/seed_routers.hpp. This file orders removals identically —
// most-loaded link first with the seed's stable-history tie-break (see
// load_index.hpp), heaviest communication first with ties by original
// index — and keeps the load array bit-identical at every decision point,
// so the routings are bit-identical; the differential suite
// (tests/test_load_index.cpp) holds the two equal, removal by removal.
//
// Re-spread in one pass. The seed subtracts the removal's old spread from
// every cut, prunes, and adds the new spread. Each link lies in exactly one
// cut of a communication, so its arithmetic is its own: a link of cut t
// with m_t links before and m'_t after the removal goes
// x → (x − δ/m_t) + δ/m'_t if it survives and x → x − δ/m_t if it is
// erased. This file does exactly that per link, in one pass and without
// copying the old cuts: each cut that may lose links (cut t0 and every cut
// the windowed prune filters) records its old size just before erasing and
// retracts the old share from each link it erases; the pass then gives
// every surviving link its (x − δ/m_t) + δ/m'_t, a cut the removal left
// alone included (m'_t = m_t: that round trip can move a stored double by
// an ulp, and the seed's next sort sees it). That pass visits every link
// the communication still holds, so it is one tight loop over the raw load
// array (LinkLoads::mutable_values). Each of its two adds, like every
// other, is LinkLoads::add_to, add()'s own arithmetic, so even the clamp at
// zero is the seed's, and −(δ/m) is bitwise the seed's (−δ)/m. A link is
// reported to the LoadIndex only when its stored double moved.
//
// Overload witness (under RouteGoal::kVerdict). A link that is the only
// one left in some cut of communication i stays on i's final path: cuts
// only shrink and never empty. Its *forced* load is
// Σ δ_i over the communications that hold it as such a singleton cut, and
// it only grows as cuts shrink. So a forced load that passes
// PowerModel::proven_overload proves the final routing invalid, and the
// call stops. A cut turns singleton only when a removal erases a link from
// it or its prune filters it, which is exactly the window
// prune_after_removal already visits; the forced loads cost no extra scan.
// A two-link cut forces nothing: either link may be removed later. The
// virtual spread (`loads`) proves nothing either, since it moves as paths
// are removed.
#include <algorithm>
#include <span>

#include "pamr/mesh/rectangle.hpp"
#include "pamr/obs/obs.hpp"
#include "pamr/routing/link_loads.hpp"
#include "pamr/routing/load_index.hpp"
#include "pamr/routing/routers.hpp"
#include "pamr/routing/workspace.hpp"
#include "pamr/util/assert.hpp"
#include "pamr/util/timer.hpp"

namespace pamr {

namespace {

/// Reusable buffers of the windowed prune: `row` is its per-depth
/// recompute buffer, and `forward`/`backward` hold the paranoid
/// cross-check's full reachability sweep, whose cells are marked with the
/// current epoch instead of re-zeroing two per-core vectors per sweep. The
/// vectors are the workspace's; only that cross-check reads them, so its
/// first sweep of a call (epoch 0) sizes and zeroes them.
struct PruneScratch {
  std::vector<std::uint64_t>& forward;
  std::vector<std::uint64_t>& backward;
  std::vector<char>& row;
  std::uint64_t epoch = 0;

  explicit PruneScratch(RouteWorkspace::PathRemover& buffers)
      : forward(buffers.sweep_forward),
        backward(buffers.sweep_backward),
        row(buffers.row) {}
};

/// One removal's re-spread of the chosen communication's weight (see the
/// file comment): `old_size[t]` is cut t's size before this removal erased
/// from it, 0 for a cut it did not touch, and every link whose stored load
/// moved is appended to `changed`. CommState::finish_respread zeroes
/// `old_size` again.
struct Respread {
  double weight;
  LinkLoads& loads;
  std::vector<std::uint32_t>& old_size;  ///< per depth
  std::vector<LinkId>& changed;

  /// Records cut t's size before links are erased from it.
  void retract(std::int32_t t, std::size_t size) const {
    PAMR_DCHECK(old_size[static_cast<std::size_t>(t)] == 0);
    old_size[static_cast<std::size_t>(t)] = static_cast<std::uint32_t>(size);
  }

  /// Takes cut t's old share off a link being erased from it.
  void drop(std::int32_t t, LinkId link) const {
    const double before = loads.load(link);
    loads.add(link, -(weight / static_cast<double>(old_size[static_cast<std::size_t>(t)])));
    if (loads.load(link) != before) changed.push_back(link);
  }
};

/// Per-communication path-DAG state.
///
/// prune_after_removal() keeps persistent per-cell reachability marks and
/// recomputes only the depth window a removal at cut t0 can have changed:
/// forward marks at depths > t0 until a depth stops changing, backward
/// marks at depths ≤ t0 likewise, then re-filters exactly the cuts whose
/// links read a changed mark. Marks only ever drop, and a cell whose mark
/// goes stale (its support was erased in a cut outside the recompute
/// window) is provably shadowed by the other direction's zero on every
/// surviving link that could read it, so the windowed filter erases exactly
/// the links the seed's full forward/backward sweep over every depth would
/// — the PR differential suite pins the two end to end, and the paranoid
/// check below re-verifies every windowed prune against a fresh sweep.
///
/// The state lives in the workspace's flat arrays (see CommStates below);
/// a CommState is a view of one communication's slice of them. Cut t holds
/// its allowed links at links[cut_begin[t] .. + cut_size[t]); erasing keeps
/// the survivors' order, as std::erase on a per-cut vector would.
struct CommState {
  const CommRect& rect;
  char* allowed;               ///< indexed by LinkId, 1 = usable
  LinkId* links;               ///< every comm's cut slots (global array)
  std::uint32_t* cut_begin;    ///< per depth t: first slot of cut t
  std::uint32_t* cut_size;     ///< per depth t: live links of cut t
  char* forward;               ///< persistent reachability marks,
  char* backward;              ///< by core index

  [[nodiscard]] std::span<LinkId> cut(std::int32_t t) const noexcept {
    const auto idx = static_cast<std::size_t>(t);
    return {links + cut_begin[idx], cut_size[idx]};
  }

  /// Drops the links of cut t for which `drop(link)` holds, in order,
  /// calling it once per link (std::erase_if's contract).
  template <class Pred>
  void erase_from_cut(std::int32_t t, Pred drop) const {
    const std::span<LinkId> live = cut(t);
    LinkId* const end = std::remove_if(live.data(), live.data() + live.size(), drop);
    cut_size[static_cast<std::size_t>(t)] = static_cast<std::uint32_t>(end - live.data());
  }

  [[nodiscard]] bool is_single_path() const noexcept {
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      if (cut_size[static_cast<std::size_t>(t)] != 1) return false;
    }
    return true;
  }

  /// Adds δ/m_t to every allowed link of every cut: the initial spread.
  void apply_spread(double weight, LinkLoads& loads) const {
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      const std::span<const LinkId> live = cut(t);
      PAMR_ASSERT(!live.empty());
      const double share = weight / static_cast<double>(live.size());
      for (const LinkId link : live) loads.add(link, share);
    }
  }

  /// erase_from_cut that retracts cut t's old share from every link it
  /// erases (see Respread).
  template <class Pred>
  void erase_retracting(std::int32_t t, Pred drop, const Respread& respread) const {
    respread.retract(t, cut_size[static_cast<std::size_t>(t)]);
    erase_from_cut(t, [&](LinkId link) {
      if (!drop(link)) return false;
      respread.drop(t, link);
      return true;
    });
  }

  /// The re-spread's one pass, after the removal's erasures: every
  /// surviving link of cut t takes (x − δ/m_t) + δ/m'_t, with m_t the size
  /// the cut had before the removal. Clears the recorded old sizes.
  /// `changed` is sized up front for every surviving link and trimmed
  /// after, so the loop reloads neither it nor the load array per link.
  void finish_respread(const Respread& respread) const {
    const double weight = respread.weight;
    const std::int32_t len = rect.length();
    std::size_t live_links = 0;
    for (std::int32_t t = 0; t < len; ++t) live_links += cut_size[static_cast<std::size_t>(t)];
    std::vector<LinkId>& changed = respread.changed;
    const std::size_t kept = changed.size();
    changed.resize(kept + live_links);
    LinkId* out = changed.data() + kept;
    double* const x = respread.loads.mutable_values().data();
    for (std::int32_t t = 0; t < len; ++t) {
      const std::span<const LinkId> live = cut(t);
      PAMR_ASSERT(!live.empty());
      std::uint32_t& old_size = respread.old_size[static_cast<std::size_t>(t)];
      const double share = weight / static_cast<double>(live.size());
      const double retracted =
          old_size != 0 ? weight / static_cast<double>(old_size) : share;
      old_size = 0;
      for (const LinkId link : live) {
        double& slot = x[static_cast<std::size_t>(link)];
        const double before = slot;
        LinkLoads::add_to(slot, -retracted);
        LinkLoads::add_to(slot, share);
        if (slot != before) *out++ = link;
      }
    }
    changed.resize(static_cast<std::size_t>(out - changed.data()));
  }

  /// Windowed prune after the caller erased a link from cut t0 (see struct
  /// comment). Each filtered cut erases through erase_retracting. Appends
  /// to `singled` the link of every cut the removal left single: cut t0 (it
  /// held ≥ 2 links before the erase) and each filtered cut that dropped
  /// from ≥ 2 links to one.
  void prune_after_removal(const Mesh& mesh, std::int32_t t0, PruneScratch& scratch,
                           const Respread& respread,
                           std::vector<LinkId>& singled) const {
    const std::int32_t len = rect.length();
    PAMR_DCHECK(t0 >= 0 && t0 < len);
    if (cut(t0).size() == 1) singled.push_back(cut(t0).front());
    const std::int32_t du = rect.du();
    const std::int32_t dv = rect.dv();
    auto cell_key = [&](Coord c) {
      return static_cast<std::size_t>(mesh.core_index(c));
    };

    // Forward marks can change only at depths > t0 (cuts before t0 are
    // untouched); recompute depth by depth and stop at the first depth
    // with no change — deeper marks depend only on unchanged inputs.
    std::int32_t f_hi = t0;
    for (std::int32_t d = t0; d < len; ++d) {
      const std::int32_t a_lo = std::max<std::int32_t>(0, d + 1 - dv);
      const std::int32_t a_hi = std::min(du, d + 1);
      scratch.row.assign(static_cast<std::size_t>(a_hi - a_lo + 1), 0);
      for (const LinkId link : cut(d)) {
        const LinkInfo& info = mesh.link(link);
        if (forward[cell_key(info.from)] != 0) {
          std::int32_t a = 0;
          std::int32_t b = 0;
          const bool inside = rect.cell_offsets(info.to, a, b);
          PAMR_DCHECK(inside);
          scratch.row[static_cast<std::size_t>(a - a_lo)] = 1;
        }
      }
      bool depth_changed = false;
      for (std::int32_t a = a_lo; a <= a_hi; ++a) {
        char& mark = forward[cell_key(rect.cell(a, d + 1 - a))];
        const char next = scratch.row[static_cast<std::size_t>(a - a_lo)];
        if (mark != next) {
          mark = next;
          depth_changed = true;
        }
      }
      if (!depth_changed) break;
      f_hi = d + 1;
    }

    // Backward marks can change only at depths ≤ t0; sweep toward the
    // source with the same stopping rule.
    std::int32_t b_lo = t0 + 1;
    for (std::int32_t d = t0; d >= 0; --d) {
      const std::int32_t a_lo = std::max<std::int32_t>(0, d - dv);
      const std::int32_t a_hi = std::min(du, d);
      scratch.row.assign(static_cast<std::size_t>(a_hi - a_lo + 1), 0);
      for (const LinkId link : cut(d)) {
        const LinkInfo& info = mesh.link(link);
        if (backward[cell_key(info.to)] != 0) {
          std::int32_t a = 0;
          std::int32_t b = 0;
          const bool inside = rect.cell_offsets(info.from, a, b);
          PAMR_DCHECK(inside);
          scratch.row[static_cast<std::size_t>(a - a_lo)] = 1;
        }
      }
      bool depth_changed = false;
      for (std::int32_t a = a_lo; a <= a_hi; ++a) {
        char& mark = backward[cell_key(rect.cell(a, d - a))];
        const char next = scratch.row[static_cast<std::size_t>(a - a_lo)];
        if (mark != next) {
          mark = next;
          depth_changed = true;
        }
      }
      if (!depth_changed) break;
      b_lo = d;
    }

    // Only links that read a changed mark can change liveness: tails at
    // depths (t0, f_hi] and heads at depths [b_lo, t0]. Cut t0 itself
    // keeps its alive set — its tails' forward and heads' backward marks
    // sit outside both changed ranges.
    auto filter_cut = [&](std::int32_t d) {
      const std::size_t before = cut(d).size();
      erase_retracting(d, [&](LinkId link) {
        const LinkInfo& info = mesh.link(link);
        const bool alive = allowed[static_cast<std::size_t>(link)] != 0 &&
                           forward[cell_key(info.from)] != 0 &&
                           backward[cell_key(info.to)] != 0;
        if (!alive) allowed[static_cast<std::size_t>(link)] = 0;
        return !alive;
      }, respread);
      const std::span<const LinkId> after = cut(d);
      PAMR_ASSERT_MSG(!after.empty(), "prune emptied a cut — connectivity broken");
      if (before >= 2 && after.size() == 1) singled.push_back(after.front());
    };
    for (std::int32_t d = std::max<std::int32_t>(0, b_lo - 1); d < t0; ++d) {
      filter_cut(d);
    }
    for (std::int32_t d = t0 + 1; d <= f_hi; ++d) filter_cut(d);

#if PAMR_CHECK_LEVEL >= 2
    check_windowed_prune(mesh, scratch);
#endif
  }

  /// Paranoid cross-check (automatic under the paranoid level): a fresh
  /// full reachability sweep over the current cuts must find every
  /// surviving link alive — i.e. the full-sweep prune would erase nothing
  /// the windowed prune kept. (Persistent marks are allowed to go stale on
  /// cells no surviving link reads; comparing them directly would
  /// false-positive.)
  void check_windowed_prune(const Mesh& mesh, PruneScratch& scratch) const {
    const std::int32_t len = rect.length();
    if (scratch.epoch == 0) {
      scratch.forward.assign(static_cast<std::size_t>(mesh.num_cores()), 0);
      scratch.backward.assign(static_cast<std::size_t>(mesh.num_cores()), 0);
    }
    const std::uint64_t epoch = ++scratch.epoch;
    auto cell_key = [&](Coord c) {
      return static_cast<std::size_t>(mesh.core_index(c));
    };
    scratch.forward[cell_key(rect.src())] = epoch;
    for (std::int32_t t = 0; t < len; ++t) {
      for (const LinkId link : cut(t)) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.forward[cell_key(info.from)] == epoch) {
          scratch.forward[cell_key(info.to)] = epoch;
        }
      }
    }
    scratch.backward[cell_key(rect.snk())] = epoch;
    for (std::int32_t t = len - 1; t >= 0; --t) {
      for (const LinkId link : cut(t)) {
        const LinkInfo& info = mesh.link(link);
        if (scratch.backward[cell_key(info.to)] == epoch) {
          scratch.backward[cell_key(info.from)] = epoch;
        }
      }
    }
    for (std::int32_t t = 0; t < len; ++t) {
      for (const LinkId link : cut(t)) {
        const LinkInfo& info = mesh.link(link);
        PAMR_INVARIANT_ALWAYS(
            "pr-prune",
            scratch.forward[cell_key(info.from)] == epoch &&
                scratch.backward[cell_key(info.to)] == epoch,
            "windowed prune kept a link the full sweep would erase");
      }
    }
  }

  /// Appends one removal's PrTrace record.
  void trace(PrTrace& trace, std::size_t comm, std::int32_t depth,
             const LinkLoads& loads) const {
    PrTrace::Removal& removal = trace.removals.emplace_back();
    removal.comm = comm;
    removal.depth = depth;
    removal.cut_sizes.assign(cut_size, cut_size + rect.length());
    removal.loads.assign(loads.values().begin(), loads.values().end());
  }

  /// Writes the unique remaining path's links into `path` once single-path.
  void extract_path(const Mesh& mesh, std::span<LinkId> path) const {
    PAMR_ASSERT(path.size() == static_cast<std::size_t>(rect.length()));
    Coord at = rect.src();
    for (std::int32_t t = 0; t < rect.length(); ++t) {
      const std::span<const LinkId> live = cut(t);
      PAMR_ASSERT(live.size() == 1);
      const LinkInfo& info = mesh.link(live.front());
      PAMR_ASSERT(info.from == at);
      path[static_cast<std::size_t>(t)] = live.front();
      at = info.to;
    }
    PAMR_ASSERT(at == rect.snk());
  }
};

/// Every communication's CommState, laid out flat in the workspace: the
/// allowed flags and the reachability marks take one mesh-sized slice per
/// communication, the cuts one slot per rectangle link. Building it also
/// spreads every communication's weight onto `loads` (the initial state).
class CommStates {
 public:
  CommStates(RouteWorkspace::PathRemover& buffers, const Mesh& mesh,
             const CommSet& comms, LinkLoads& loads)
      : b_(buffers),
        num_links_(static_cast<std::size_t>(mesh.num_links())),
        num_cores_(static_cast<std::size_t>(mesh.num_cores())) {
    b_.rects.clear();
    b_.depth_base.clear();
    b_.cut_begin.clear();
    b_.cut_size.clear();
    b_.cut_links.clear();
    for (const Communication& comm : comms) {
      const CommRect& rect = b_.rects.emplace_back(mesh, comm.src, comm.snk);
      b_.depth_base.push_back(static_cast<std::uint32_t>(b_.cut_begin.size()));
      for (std::int32_t t = 0; t < rect.length(); ++t) {
        b_.cut_begin.push_back(static_cast<std::uint32_t>(b_.cut_links.size()));
        b_.cut_size.push_back(static_cast<std::uint32_t>(rect.cut_size(t)));
        rect.for_each_cut_link(t, [this](LinkId link) { b_.cut_links.push_back(link); });
      }
    }
    b_.allowed.assign(comms.size() * num_links_, 0);
    // Every cell of the full rectangle reaches and is reached — all marks
    // start true (cells outside the rectangle are never read).
    b_.forward.assign(comms.size() * num_cores_, 1);
    b_.backward.assign(comms.size() * num_cores_, 1);
    for (std::size_t idx = 0; idx < comms.size(); ++idx) {
      const CommState state = (*this)[idx];
      for (std::int32_t t = 0; t < state.rect.length(); ++t) {
        for (const LinkId link : state.cut(t)) {
          state.allowed[static_cast<std::size_t>(link)] = 1;
        }
      }
      state.apply_spread(comms[idx].weight, loads);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return b_.rects.size(); }

  [[nodiscard]] CommState operator[](std::size_t idx) const {
    return CommState{b_.rects[idx],
                     b_.allowed.data() + idx * num_links_,
                     b_.cut_links.data(),
                     b_.cut_begin.data() + b_.depth_base[idx],
                     b_.cut_size.data() + b_.depth_base[idx],
                     b_.forward.data() + idx * num_cores_,
                     b_.backward.data() + idx * num_cores_};
  }

  /// Whether communication idx may still use `link`.
  [[nodiscard]] bool allowed(std::size_t idx, LinkId link) const {
    return b_.allowed[idx * num_links_ + static_cast<std::size_t>(link)] != 0;
  }

  [[nodiscard]] std::size_t count_multi_path() const {
    std::size_t active = 0;
    for (std::size_t idx = 0; idx < size(); ++idx) {
      if (!(*this)[idx].is_single_path()) ++active;
    }
    return active;
  }

  /// Writes every communication's remaining path into `paths`.
  void extract_paths(const Mesh& mesh, PathTable& paths) const {
    for (std::size_t idx = 0; idx < size(); ++idx) {
      (*this)[idx].extract_path(mesh, paths.path(idx));
    }
  }

 private:
  RouteWorkspace::PathRemover& b_;
  std::size_t num_links_;
  std::size_t num_cores_;
};

}  // namespace

RouteResult PathRemoverRouter::route_impl(const Mesh& mesh, const CommSet& comms,
                                          const PowerModel& model, RouteGoal goal,
                                          RouteWorkspace& workspace) const {
  const WallTimer timer;
  RouteWorkspace::PathRemover& pr = workspace.pr;
  LinkLoads& loads = workspace.loads;
  loads.reset(mesh.num_links());
  const CommStates states(pr, mesh, comms, loads);

  // Forced load per link, tracked for the overload witness only (see file
  // comment); the full rectangle's singleton cuts are forced from the start.
  const bool verdict = goal == RouteGoal::kVerdict;
  const double limit = model.limit();
  std::vector<double>& forced = pr.forced;
  forced.assign(verdict ? static_cast<std::size_t>(mesh.num_links()) : 0, 0.0);
  auto force = [&](LinkId link, double weight) {
    double& load = forced[static_cast<std::size_t>(link)];
    load += weight;
    return PowerModel::proven_overload(load, limit);
  };
  if (verdict) {
    for (std::size_t idx = 0; idx < states.size(); ++idx) {
      const CommState state = states[idx];
      for (std::int32_t t = 0; t < state.rect.length(); ++t) {
        const std::span<const LinkId> cut = state.cut(t);
        if (cut.size() == 1 && force(cut.front(), comms[idx].weight)) {
          obs::sample(obs::Metric::kPrRemovalsPerCall, 0);
          return abandon(timer.elapsed_ms());
        }
      }
    }
  }

  // Heaviest-first candidate order within a link (paper: "the largest
  // communication that uses this link"): member lists are filled in
  // by_weight order, so each list stays heaviest-first under compaction.
  std::vector<std::size_t>& by_weight = workspace.order;
  order_by_decreasing_weight(comms, by_weight);

  LoadIndex& index = pr.index;
  index.reset(loads);
  for (std::size_t idx = 0; idx < states.size(); ++idx) {
    const CommState state = states[idx];
    for (std::int32_t t = 0; t < state.rect.length(); ++t) {
      for (const LinkId link : state.cut(t)) index.count_member(link);
    }
  }
  for (const std::size_t idx : by_weight) {
    const CommState state = states[idx];
    for (std::int32_t t = 0; t < state.rect.length(); ++t) {
      for (const LinkId link : state.cut(t)) {
        index.add_member(link, static_cast<std::uint32_t>(idx));
      }
    }
  }

  std::size_t active = states.count_multi_path();
  PruneScratch scratch(pr);
  pr.old_size.assign(static_cast<std::size_t>(mesh.p() + mesh.q()), 0);
  std::vector<LinkId>& changed = pr.changed;
  std::vector<LinkId>& singled = pr.singled;
  std::size_t removals = 0;

  const std::size_t none = states.size();
  while (active > 0) {
    // Selection: the index's top is the seed's first candidate in
    // (load desc, stable history) order; the first link with a member whose
    // cut keeps ≥ 2 links is exactly the seed's choice.
    LinkId link = kInvalidLink;
    std::size_t chosen = none;
    std::int32_t depth = -1;
    while (!index.empty()) {
      const LinkId cand = index.top();
      if (loads.load(cand) <= 0.0) break;  // same early break as the seed's loop
      const Coord tail = mesh.link(cand).from;
      const std::span<std::uint32_t> members = index.members(cand);
      std::size_t keep = 0;
      for (const std::uint32_t idx : members) {
        if (!states.allowed(idx, cand)) continue;  // compact away
        members[keep++] = idx;
        if (chosen != none) continue;  // found earlier; just finish compacting
        const CommState state = states[idx];
        const std::int32_t t = state.rect.depth(tail);
        PAMR_ASSERT(t >= 0);
        if (state.cut(t).size() >= 2) {
          chosen = idx;
          depth = t;
        }
      }
      index.truncate_members(cand, keep);
      if (chosen != none) {
        link = cand;
        break;
      }
      // Every surviving member holds this link in a singleton cut, so it
      // can never be removed from anyone again: retire it instead of
      // rescanning it every round as the seed did (its position in
      // the order can no longer influence any decision).
      index.retire(cand);
    }
    PAMR_ASSERT_MSG(link != kInvalidLink,
                    "no removable link found while communications remain multi-path");

    const CommState state = states[chosen];
    const double weight = comms[chosen].weight;
    const Respread respread{weight, loads, pr.old_size, changed};
    changed.clear();
    state.allowed[static_cast<std::size_t>(link)] = 0;
    state.erase_retracting(depth, [link](LinkId l) { return l == link; }, respread);
    singled.clear();
    state.prune_after_removal(mesh, depth, scratch, respread, singled);
    state.finish_respread(respread);
    if (trace_ != nullptr) state.trace(*trace_, chosen, depth, loads);
    index.reorder(changed, loads);
    ++removals;
    obs::bump(obs::Metric::kPrRemovals);
    if (state.is_single_path()) --active;
    if (verdict) {
      for (const LinkId single : singled) {
        if (force(single, weight)) {
          obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
          return abandon(timer.elapsed_ms());
        }
      }
    }
  }

  obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
  workspace.paths.reset(comms);
  states.extract_paths(mesh, workspace.paths);
  return finish(mesh, comms, model, workspace, timer.elapsed_ms());
}

}  // namespace pamr
