#include "pamr/routing/load_index.hpp"

#include <algorithm>
#include <string>

#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

LoadIndex::LoadIndex(const LinkLoads& loads)
    : pos_(loads.values().size()),
      low_stamp_(-1),
      high_stamp_(static_cast<std::int64_t>(loads.values().size())),
      members_(loads.values().size()) {
  // The seed's first round: identity order stably sorted by the initial
  // loads, i.e. (load desc, LinkId asc) — so each initial stamp is the
  // link's id and no sort is needed, only a heapify.
  const std::size_t n = loads.values().size();
  heap_.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    const auto link = static_cast<LinkId>(l);
    heap_.push_back({loads.load(link), static_cast<std::int64_t>(l), link});
    pos_[l] = static_cast<std::int32_t>(l);
  }
  for (std::size_t at = n / 2; at-- > 0;) sift_down(at, heap_[at]);
}

void LoadIndex::add_member(LinkId link, std::uint32_t comm) {
  members_[static_cast<std::size_t>(link)].push_back(comm);
}

void LoadIndex::sift_up(std::size_t at, Entry entry) {
  while (at > 0) {
    const std::size_t parent = (at - 1) / 2;
    if (!precedes(entry, heap_[parent])) break;
    heap_[at] = heap_[parent];
    pos_[static_cast<std::size_t>(heap_[at].link)] = static_cast<std::int32_t>(at);
    at = parent;
  }
  heap_[at] = entry;
  pos_[static_cast<std::size_t>(entry.link)] = static_cast<std::int32_t>(at);
}

void LoadIndex::sift_down(std::size_t at, Entry entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * at + 1;
    if (child >= n) break;
    if (child + 1 < n && precedes(heap_[child + 1], heap_[child])) ++child;
    if (!precedes(heap_[child], entry)) break;
    heap_[at] = heap_[child];
    pos_[static_cast<std::size_t>(heap_[at].link)] = static_cast<std::int32_t>(at);
    at = child;
  }
  heap_[at] = entry;
  pos_[static_cast<std::size_t>(entry.link)] = static_cast<std::int32_t>(at);
}

void LoadIndex::update(std::size_t at, const Entry& entry) {
  if (at > 0 && precedes(entry, heap_[(at - 1) / 2])) {
    sift_up(at, entry);
  } else {
    sift_down(at, entry);
  }
}

void LoadIndex::retire(LinkId link) {
  obs::bump(obs::Metric::kPrLinksRetired);
  const std::int32_t at = pos_[static_cast<std::size_t>(link)];
  PAMR_DCHECK(at >= 0);
  pos_[static_cast<std::size_t>(link)] = -1;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (static_cast<std::size_t>(at) < heap_.size()) {
    update(static_cast<std::size_t>(at), last);
  }
}

void LoadIndex::reorder(const std::vector<LinkId>& changed, const LinkLoads& loads) {
  obs::bump(obs::Metric::kLoadIndexReorders);
  // The moved links with their old keys, ranked in the old order.
  moved_.clear();
  for (const LinkId link : changed) {
    const std::int32_t at = pos_[static_cast<std::size_t>(link)];
    if (at < 0) continue;  // retired
    const Entry& entry = heap_[static_cast<std::size_t>(at)];
    if (entry.load == loads.load(link)) continue;  // did not move
    moved_.push_back(entry);
  }
  std::sort(moved_.begin(), moved_.end(),
            [](const Entry& a, const Entry& b) { return precedes(a, b); });

  // The stamp rule (see load_index.hpp): fallen links take fresh low
  // stamps in reverse old order, risen links fresh high stamps in old
  // order, so each group keeps its old relative order.
  for (std::size_t k = moved_.size(); k-- > 0;) {
    if (loads.load(moved_[k].link) < moved_[k].load) moved_[k].stamp = low_stamp_--;
  }
  for (Entry& entry : moved_) {
    if (loads.load(entry.link) > entry.load) entry.stamp = high_stamp_++;
  }
  for (Entry& entry : moved_) {
    entry.load = loads.load(entry.link);
    update(static_cast<std::size_t>(pos_[static_cast<std::size_t>(entry.link)]), entry);
  }
#if PAMR_CHECK_LEVEL >= 2
  check_invariants(loads);
#endif
}

void LoadIndex::check_invariants(const LinkLoads& loads) const {
  std::size_t live = 0;
  for (std::size_t link = 0; link < pos_.size(); ++link) {
    if (pos_[link] >= 0) ++live;
  }
  PAMR_INVARIANT_ALWAYS("load-index", live == heap_.size(),
                        "pos_ counts " + std::to_string(live) +
                            " live links but the heap holds " +
                            std::to_string(heap_.size()));
  for (std::size_t at = 0; at < heap_.size(); ++at) {
    const Entry& entry = heap_[at];
    const auto link = static_cast<std::size_t>(entry.link);
    PAMR_INVARIANT_ALWAYS("load-index", link < pos_.size(),
                          "heap holds an out-of-range link id");
    PAMR_INVARIANT_ALWAYS(
        "load-index", pos_[link] == static_cast<std::int32_t>(at),
        "pos_ disagrees with the heap for link " + std::to_string(link));
    PAMR_INVARIANT_ALWAYS(
        "load-index", at == 0 || precedes(heap_[(at - 1) / 2], entry),
        "heap property violated at slot " + std::to_string(at));
    PAMR_INVARIANT_ALWAYS(
        "load-index", entry.load == loads.load(entry.link),
        "stored load of link " + std::to_string(link) +
            " differs from its current load — a load change was never "
            "reported to reorder()");
  }
}

LinkId LoadIndex::Walk::next() {
  if (frontier_.empty()) return kInvalidLink;
  const std::size_t size = index_->heap_.size();
  const std::uint32_t slot = frontier_.front();
  // The yielded slot's children are the only new candidates: the first
  // takes its place on top of the frontier, the second is pushed.
  const std::size_t left = 2 * static_cast<std::size_t>(slot) + 1;
  if (left < size) {
    replace_first(static_cast<std::uint32_t>(left));
    if (left + 1 < size) push(static_cast<std::uint32_t>(left + 1));
  } else {
    const std::uint32_t last = frontier_.back();
    frontier_.pop_back();
    if (!frontier_.empty()) replace_first(last);
  }
  return index_->heap_[slot].link;
}

void LoadIndex::Walk::replace_first(std::uint32_t slot) {
  const std::vector<Entry>& heap = index_->heap_;
  const Entry& entry = heap[slot];
  const std::size_t n = frontier_.size();
  std::size_t at = 0;
  for (;;) {
    std::size_t child = 2 * at + 1;
    if (child >= n) break;
    if (child + 1 < n && precedes(heap[frontier_[child + 1]], heap[frontier_[child]])) {
      ++child;
    }
    if (!precedes(heap[frontier_[child]], entry)) break;
    frontier_[at] = frontier_[child];
    at = child;
  }
  frontier_[at] = slot;
}

void LoadIndex::Walk::push(std::uint32_t slot) {
  const std::vector<Entry>& heap = index_->heap_;
  const Entry& entry = heap[slot];
  std::size_t at = frontier_.size();
  frontier_.push_back(slot);
  while (at > 0) {
    const std::size_t parent = (at - 1) / 2;
    if (!precedes(entry, heap[frontier_[parent]])) break;
    frontier_[at] = frontier_[parent];
    at = parent;
  }
  frontier_[at] = slot;
}

void LoadIndex::Walk::restart() {
  frontier_.clear();
  if (!index_->heap_.empty()) frontier_.push_back(0);
}

}  // namespace pamr
