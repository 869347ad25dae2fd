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
//     forward/backward reachability prune) and re-spread the load. The
//     prune is a live-degree cascade (see CommState): it visits only the
//     links the removal cuts off, and it keeps exactly the links a full
//     forward/backward sweep would.
//
// The process stops when every communication retains a single path. Each
// removal strictly shrinks the union of allowed links, so termination is
// structural.
//
// "Most loaded link, heaviest communication using it" comes from a
// LoadIndex: the top of a heap keyed on (load, history stamp), re-keyed
// only for the links whose stored load actually changed (a fallen key is
// sifted only once it reaches the top; see load_index.hpp), plus per-link
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
// copying the old cuts: each cut that loses links (cut t0 and every cut the
// cascade reaches) records its old size just before erasing and
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
// it or the cascade kills some of its links, which are exactly the cuts
// CommState::remove already filters; the forced loads cost no extra scan.
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
/// Each cell of the rectangle keeps its live degrees: its live in-links and
/// out-links in the communication's DAG, (a>0)+(b>0) and (a<du)+(b<dv) in
/// the full rectangle. remove() kills one link, then cascades: a cell whose
/// out-degree falls to 0 kills its live in-links (they lead nowhere), and
/// one whose in-degree falls to 0 kills its live out-links (nothing reaches
/// them). Source and sink never trigger: their unused counts start at 0,
/// and the removed link's cut keeps a link on a surviving path. The links
/// left are the trim's fixed point, which in a DAG is exactly the set of
/// links on some src→snk path: from a live link, live links lead back to
/// the source and on to the sink, and no link of a live src→snk path ever
/// loses a degree that path gives it. So remove() keeps exactly what the
/// seed's full forward/backward sweep keeps, at one step per killed link.
/// Kills spread toward the source from the removed link's tail and toward
/// the sink from its head, so the cuts that lose links are [lo, t0) and
/// (t0, hi]; cut t0 loses only the removed link. The tests drive random
/// removals against a full sweep; the paranoid check below re-checks the
/// fixed point after every removal.
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
  char* in_degree;             ///< live in-links per cell, by core index
  char* out_degree;            ///< live out-links per cell, by core index

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

  /// One removal of this communication's `weight`: kills `link` (in cut
  /// t0, which keeps ≥ 2 links) and, by the live-degree cascade of the
  /// struct comment, every link no src→snk path uses any more; erases them
  /// from their cuts through erase_retracting and re-spreads
  /// (finish_respread). Leaves in `pr.changed` every link whose stored load
  /// moved and in `pr.singled` the link of every cut the removal left
  /// single; `pr.dead` is the cascade's stack.
  void remove(const Mesh& mesh, LinkId link, std::int32_t t0, double weight,
              LinkLoads& loads, RouteWorkspace::PathRemover& pr) const {
    const Respread respread{weight, loads, pr.old_size, pr.changed};
    std::vector<Coord>& dead = pr.dead;
    std::vector<LinkId>& singled = pr.singled;
    pr.changed.clear();
    singled.clear();
    const std::int32_t du = rect.du();
    const std::int32_t dv = rect.dv();
    std::int32_t lo = t0;  // the cuts [lo, hi] lost links
    std::int32_t hi = t0;
    auto kill = [&](LinkId l, std::int32_t t) {
      allowed[static_cast<std::size_t>(l)] = 0;
      lo = std::min(lo, t);
      hi = std::max(hi, t);
      const LinkInfo& info = mesh.link(l);
      if (--out_degree[mesh.core_index(info.from)] == 0) dead.push_back(info.from);
      if (--in_degree[mesh.core_index(info.to)] == 0) dead.push_back(info.to);
    };
    auto kill_live = [&](Coord from, Coord to, std::int32_t t) {
      const LinkId l = mesh.link_between_unchecked(from, to);
      if (allowed[static_cast<std::size_t>(l)] != 0) kill(l, t);
    };
    dead.clear();
    kill(link, t0);
    while (!dead.empty()) {
      const Coord c = dead.back();
      dead.pop_back();
      std::int32_t a = 0;
      std::int32_t b = 0;
      const bool inside = rect.cell_offsets(c, a, b);
      PAMR_DCHECK(inside);
      if (out_degree[mesh.core_index(c)] == 0) {  // a dead end: kill its in-links
        if (a > 0) kill_live(rect.cell(a - 1, b), c, a + b - 1);
        if (b > 0) kill_live(rect.cell(a, b - 1), c, a + b - 1);
      }
      if (in_degree[mesh.core_index(c)] == 0) {  // unreachable: kill its out-links
        if (a < du) kill_live(c, rect.cell(a + 1, b), a + b);
        if (b < dv) kill_live(c, rect.cell(a, b + 1), a + b);
      }
    }
    auto filter_cut = [&](std::int32_t d) {
      const std::size_t before = cut(d).size();
      erase_retracting(
          d, [&](LinkId l) { return allowed[static_cast<std::size_t>(l)] == 0; }, respread);
      const std::span<const LinkId> after = cut(d);
      PAMR_ASSERT_MSG(!after.empty(), "prune emptied a cut — connectivity broken");
      if (before >= 2 && after.size() == 1) singled.push_back(after.front());
    };
    filter_cut(t0);
    for (std::int32_t d = lo; d < t0; ++d) filter_cut(d);
    for (std::int32_t d = t0 + 1; d <= hi; ++d) filter_cut(d);
    finish_respread(respread);
#if PAMR_CHECK_LEVEL >= 2
    check_prune(mesh);
#endif
  }

#if PAMR_CHECK_LEVEL >= 2
  /// Paranoid check after every removal: each cell's degrees count its
  /// live links; a cell with a live link has a live in-link unless it is
  /// the source and a live out-link unless it is the sink (the cascade's
  /// fixed point, so every surviving link lies on a src→snk path); and the
  /// cuts hold as many links as are live.
  void check_prune(const Mesh& mesh) const {
    std::int64_t unmatched = 0;
    for (std::int32_t t = 0; t < rect.length(); ++t) unmatched += cut(t).size();
    auto live = [&](bool inside, Coord from, Coord to) {
      return inside && allowed[static_cast<std::size_t>(mesh.link_between(from, to))] != 0;
    };
    for (std::int32_t a = 0; a <= rect.du(); ++a) {
      for (std::int32_t b = 0; b <= rect.dv(); ++b) {
        const Coord c = rect.cell(a, b);
        const int in = live(a > 0, rect.cell(a - 1, b), c) + live(b > 0, rect.cell(a, b - 1), c);
        const int out = live(a < rect.du(), c, rect.cell(a + 1, b)) +
                        live(b < rect.dv(), c, rect.cell(a, b + 1));
        unmatched -= out;
        const auto cell = static_cast<std::size_t>(mesh.core_index(c));
        PAMR_INVARIANT_ALWAYS(
            "pr-prune",
            in_degree[cell] == in && out_degree[cell] == out &&
                (in + out == 0 || ((in > 0 || a + b == 0) && (out > 0 || a + b == rect.length()))),
            "the cascade left a wrong degree or a link on no src→snk path");
      }
    }
    PAMR_INVARIANT_ALWAYS("pr-prune", unmatched == 0, "the cuts disagree with the live links");
  }
#endif

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
    // Cells outside a rectangle are never read, so only its cells get
    // their full-rectangle degrees.
    b_.in_degree.resize(comms.size() * num_cores_);
    b_.out_degree.resize(comms.size() * num_cores_);
    for (std::size_t idx = 0; idx < comms.size(); ++idx) {
      const CommState state = (*this)[idx];
      const CommRect& rect = state.rect;
      for (std::int32_t a = 0; a <= rect.du(); ++a) {
        for (std::int32_t b = 0; b <= rect.dv(); ++b) {
          const auto cell = static_cast<std::size_t>(mesh.core_index(rect.cell(a, b)));
          state.in_degree[cell] = static_cast<char>((a > 0) + (b > 0));
          state.out_degree[cell] = static_cast<char>((a < rect.du()) + (b < rect.dv()));
        }
      }
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
                     b_.in_degree.data() + idx * num_cores_,
                     b_.out_degree.data() + idx * num_cores_};
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
  pr.old_size.assign(static_cast<std::size_t>(mesh.p() + mesh.q()), 0);
  std::size_t removals = 0;
  // Once per call, so the removal loop makes no obs call for them.
  auto report = [&] {
    obs::sample(obs::Metric::kPrRemovalsPerCall, removals);
    obs::bump(obs::Metric::kLoadIndexRepairs, index.repairs());
  };

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
    state.remove(mesh, link, depth, weight, loads, pr);
    if (trace_ != nullptr) state.trace(*trace_, chosen, depth, loads);
    index.reorder(pr.changed, loads);
    ++removals;
    obs::bump(obs::Metric::kPrRemovals);
    if (state.is_single_path()) --active;
    if (verdict) {
      for (const LinkId single : pr.singled) {
        if (force(single, weight)) {
          report();
          return abandon(timer.elapsed_ms());
        }
      }
    }
  }

  report();
  workspace.paths.reset(comms);
  states.extract_paths(mesh, workspace.paths);
  return finish(mesh, comms, model, workspace, timer.elapsed_ms());
}

void PathRemoverRouter::remove_links(const Mesh& mesh, const Communication& comm,
                                     RouteWorkspace& workspace,
                                     const std::function<LinkId()>& next) {
  RouteWorkspace::PathRemover& pr = workspace.pr;
  workspace.loads.reset(mesh.num_links());
  const CommSet comms{comm};
  const CommState state = CommStates(pr, mesh, comms, workspace.loads)[0];
  pr.old_size.assign(static_cast<std::size_t>(mesh.p() + mesh.q()), 0);
  for (LinkId link = next(); link != kInvalidLink; link = next()) {
    const std::int32_t depth = state.rect.depth(mesh.link(link).from);
    PAMR_CHECK(state.allowed[static_cast<std::size_t>(link)] != 0 &&
                   state.cut(depth).size() >= 2,
               "remove_links: the link must be live in a cut that keeps >= 2 links");
    state.remove(mesh, link, depth, comm.weight, workspace.loads, pr);
  }
}

}  // namespace pamr
