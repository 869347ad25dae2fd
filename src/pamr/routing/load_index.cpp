#include "pamr/routing/load_index.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>

#include "pamr/obs/obs.hpp"
#include "pamr/util/assert.hpp"

namespace pamr {

namespace {

/// The direction bit of a tied-class tag. Stored loads are never negative
/// (LinkLoads::add clamps), so once -0.0 is folded into +0.0 a load's sign
/// bit is free to carry it.
constexpr std::uint64_t kFell = std::uint64_t{1} << 63;

}  // namespace

void StampRule::restamp(std::vector<LoadKey>& moved, const LinkLoads& loads) {
  const std::size_t n = moved.size();
  old_keys_.assign(moved.begin(), moved.end());
  // The tied-class table: open addressing over at least 2n slots. Slots of
  // earlier rounds are stale by epoch, so nothing is cleared between rounds.
  std::size_t size = 16;
  while (size < 2 * n) size *= 2;
  if (slots_.size() < size) {
    slots_.assign(size, Slot{});
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    for (Slot& slot : slots_) slot.epoch = 0;
    epoch_ = 1;
  }
  // One pass: read each new load once, count the key into its tied class
  // (direction, new load), and give it its new load and the next fresh
  // stamp on its side — final unless its class turns out to have company.
  // The loop works on locals: a store through `moved` or the table could
  // otherwise alias the counters and force a reload per key.
  const std::uint32_t epoch = epoch_;
  const std::size_t mask = size - 1;
  const int shift = 64 - std::countr_zero(size);
  Slot* const slots = slots_.data();
  LoadKey* const keys = moved.data();
  const double* const now_of = loads.values().data();
  class_of_.resize(n);
  std::uint32_t* const class_of = class_of_.data();
  std::int64_t low = low_;
  std::int64_t high = high_;
  bool tied = false;
  for (std::size_t i = 0; i < n; ++i) {
    // + 0.0 folds -0.0 into +0.0: equal as loads, different as bits.
    const double now = now_of[static_cast<std::size_t>(keys[i].link)] + 0.0;
    const bool fell = now < keys[i].load;
    const std::uint64_t tag = std::bit_cast<std::uint64_t>(now) | (fell ? kFell : 0);
    std::size_t at = static_cast<std::size_t>((tag * 0x9E3779B97F4A7C15ULL) >> shift);
    while (slots[at].epoch == epoch && slots[at].tag != tag) at = (at + 1) & mask;
    if (slots[at].epoch != epoch) {
      slots[at] = {tag, epoch, 1};
    } else {
      ++slots[at].count;
      tied = true;
    }
    class_of[i] = static_cast<std::uint32_t>(at);
    keys[i].load = now;
    keys[i].stamp = fell ? low : high;
    low -= fell ? 1 : 0;
    high += fell ? 0 : 1;
  }
  low_ = low;
  high_ = high;
  if (tied) {
    // A class of two or more keeps the fresh stamps its members drew, all
    // on its side, and hands them out again in ascending order to its
    // members ranked by old key: within the class, stamp order is old
    // order.
    tied_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (slots[class_of[i]].count > 1) tied_.push_back(static_cast<std::uint32_t>(i));
    }
    std::sort(tied_.begin(), tied_.end(), [&](std::uint32_t a, std::uint32_t b) {
      return class_of[a] != class_of[b] ? class_of[a] < class_of[b]
                                        : precedes(old_keys_[a], old_keys_[b]);
    });
    for (std::size_t begin = 0; begin < tied_.size();) {
      const std::size_t end = begin + slots[class_of[tied_[begin]]].count;
      drawn_.clear();
      for (std::size_t k = begin; k < end; ++k) drawn_.push_back(keys[tied_[k]].stamp);
      std::sort(drawn_.begin(), drawn_.end());
      for (std::size_t k = begin; k < end; ++k) keys[tied_[k]].stamp = drawn_[k - begin];
      begin = end;
    }
  }
#if PAMR_CHECK_LEVEL >= 2
  check_tied_classes(moved, loads);
#endif
}

void StampRule::check_tied_classes(const std::vector<LoadKey>& moved,
                                   const LinkLoads& loads) {
  // The old full sort, independent of the table: rank every moved key by
  // (direction, new load), then by old key. Within each run of one
  // (direction, new load) the new stamps must rise.
  const auto fell = [&](std::uint32_t i) { return moved[i].load < old_keys_[i].load; };
  tied_.resize(moved.size());
  std::iota(tied_.begin(), tied_.end(), 0U);
  std::sort(tied_.begin(), tied_.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (fell(a) != fell(b)) return fell(a);
    if (moved[a].load != moved[b].load) return moved[a].load > moved[b].load;
    return precedes(old_keys_[a], old_keys_[b]);
  });
  for (std::size_t k = 0; k < tied_.size(); ++k) {
    const LoadKey& key = moved[tied_[k]];
    PAMR_INVARIANT_ALWAYS(
        "stamp-rule",
        key.link == old_keys_[tied_[k]].link && key.load == loads.load(key.link) &&
            key.load != old_keys_[tied_[k]].load,
        "restamp gave link " + std::to_string(key.link) + " a wrong new load");
    if (k == 0) continue;
    const LoadKey& prev = moved[tied_[k - 1]];
    if (fell(tied_[k]) != fell(tied_[k - 1]) || prev.load != key.load) continue;
    PAMR_INVARIANT_ALWAYS("stamp-rule", prev.stamp < key.stamp,
                          "tied class at load " + std::to_string(key.load) +
                              " lost its old order: link " + std::to_string(prev.link) +
                              " preceded link " + std::to_string(key.link));
  }
}

void LoadIndex::reset(const LinkLoads& loads) {
  // The seed's first round: identity order stably sorted by the initial
  // loads, i.e. (load desc, LinkId asc) — so each initial stamp is the
  // link's id and no sort is needed. The loaded links go to the front and
  // are heapified; the idle ones fill the back in LinkId order, which is
  // already heap order: every loaded key precedes an idle one, and an idle
  // key precedes its idle children (later slots, higher ids).
  const std::size_t n = loads.values().size();
  const double* const load_of = loads.values().data();
  stamps_.reset(n);
  moved_.clear();
  heap_.resize(n);
  key_.resize(n);
  pos_.resize(n);
  std::size_t loaded = 0;
  std::size_t idle = n;
  for (std::size_t l = n; l-- > 0;) {
    key_[l] = {load_of[l], static_cast<std::int64_t>(l), static_cast<LinkId>(l)};
    const std::size_t at = key_[l].load > 0.0 ? loaded++ : --idle;
    heap_[at] = key_[l];
    pos_[l] = static_cast<std::int32_t>(at);
  }
  repairs_ = 0;
  for (std::size_t at = loaded / 2; at-- > 0;) sift_down(at, heap_[at]);
  member_begin_.assign(n, 0);
  member_size_.assign(n, 0);
  member_data_.clear();
  members_sealed_ = false;
#if PAMR_CHECK_LEVEL >= 2
  check_invariants(loads);
#endif
}

void LoadIndex::count_member(LinkId link) {
  PAMR_DCHECK(!members_sealed_);
  ++member_size_[static_cast<std::size_t>(link)];
}

void LoadIndex::add_member(LinkId link, std::uint32_t comm) {
  if (!members_sealed_) {
    // End of pass 1: lay the lists out back to back, then refill them.
    std::uint32_t next = 0;
    for (std::size_t l = 0; l < member_size_.size(); ++l) {
      member_begin_[l] = next;
      next += member_size_[l];
      member_size_[l] = 0;
    }
    member_data_.resize(next);
    members_sealed_ = true;
  }
  const auto idx = static_cast<std::size_t>(link);
  const std::uint32_t at = member_begin_[idx] + member_size_[idx]++;
  PAMR_ASSERT_MSG(at < member_data_.size() &&
                      (idx + 1 == member_begin_.size() || at < member_begin_[idx + 1]),
                  "add_member beyond the counted memberships");
  member_data_[at] = comm;
}

void LoadIndex::sift_up(std::size_t at, LoadKey key) {
  while (at > 0) {
    const std::size_t parent = (at - 1) / 2;
    if (!precedes(key, heap_[parent])) break;
    heap_[at] = heap_[parent];
    pos_[static_cast<std::size_t>(heap_[at].link)] = static_cast<std::int32_t>(at);
    at = parent;
  }
  heap_[at] = key;
  pos_[static_cast<std::size_t>(key.link)] = static_cast<std::int32_t>(at);
}

void LoadIndex::sift_down(std::size_t at, LoadKey key) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * at + 1;
    if (child >= n) break;
    if (child + 1 < n && precedes(heap_[child + 1], heap_[child])) ++child;
    if (!precedes(heap_[child], key)) break;
    heap_[at] = heap_[child];
    pos_[static_cast<std::size_t>(heap_[at].link)] = static_cast<std::int32_t>(at);
    at = child;
  }
  heap_[at] = key;
  pos_[static_cast<std::size_t>(key.link)] = static_cast<std::int32_t>(at);
}

void LoadIndex::retire(LinkId link) {
  obs::bump(obs::Metric::kPrLinksRetired);
  PAMR_DCHECK(pos_[static_cast<std::size_t>(link)] >= 0);
  const auto at = static_cast<std::size_t>(pos_[static_cast<std::size_t>(link)]);
  pos_[static_cast<std::size_t>(link)] = -1;
  const LoadKey last = heap_.back();
  heap_.pop_back();
  if (at == heap_.size()) return;
  if (at > 0 && precedes(last, heap_[(at - 1) / 2])) {
    sift_up(at, last);
  } else {
    sift_down(at, last);
  }
}

void LoadIndex::reorder(const std::vector<LinkId>& changed, const LinkLoads& loads) {
  obs::bump(obs::Metric::kLoadIndexReorders);
  moved_.clear();
  for (const LinkId link : changed) {
    if (pos_[static_cast<std::size_t>(link)] < 0) continue;  // retired
    const LoadKey& key = key_[static_cast<std::size_t>(link)];
    if (key.load == loads.load(link)) continue;  // did not move
    moved_.push_back(key);
  }
  stamps_.restamp(moved_, loads);
  // Only a key that now precedes its stored entry moves in the heap; any
  // other leaves the entry as its upper bound, for top() to repair.
  for (const LoadKey& key : moved_) {
    const auto link = static_cast<std::size_t>(key.link);
    key_[link] = key;
    const auto at = static_cast<std::size_t>(pos_[link]);
    if (precedes(key, heap_[at])) sift_up(at, key);
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
    const LoadKey& key = heap_[at];
    const auto link = static_cast<std::size_t>(key.link);
    PAMR_INVARIANT_ALWAYS("load-index", link < pos_.size(),
                          "heap holds an out-of-range link id");
    PAMR_INVARIANT_ALWAYS(
        "load-index", pos_[link] == static_cast<std::int32_t>(at),
        "pos_ disagrees with the heap for link " + std::to_string(link));
    PAMR_INVARIANT_ALWAYS(
        "load-index", at == 0 || precedes(heap_[(at - 1) / 2], key),
        "heap property violated at slot " + std::to_string(at));
    const LoadKey& truth = key_[link];
    PAMR_INVARIANT_ALWAYS(
        "load-index", truth.load == loads.load(key.link),
        "true load of link " + std::to_string(link) +
            " differs from its current load — a load change was never "
            "reported to reorder()");
    PAMR_INVARIANT_ALWAYS(
        "load-index", precedes(key, truth) || (key.stamp == truth.stamp && key.load == truth.load),
        "heap entry of link " + std::to_string(link) + " follows its true key");
  }
}

void LoadOrder::reset(const LinkLoads& loads) {
  // The seed's first round: (load desc, LinkId asc), stamp = LinkId. The
  // idle links fill the back in LinkId order, which is already their final
  // place, so only the loaded front is sorted.
  const std::size_t n = loads.values().size();
  const double* const load_of = loads.values().data();
  stamps_.reset(n);
  moved_.clear();
  keys_.resize(n);
  std::size_t loaded = 0;
  std::size_t idle = n;
  for (std::size_t l = n; l-- > 0;) {
    const LoadKey key{load_of[l], static_cast<std::int64_t>(l), static_cast<LinkId>(l)};
    keys_[key.load > 0.0 ? loaded++ : --idle] = key;
  }
  std::sort(keys_.begin(), keys_.begin() + static_cast<std::ptrdiff_t>(loaded),
            [](const LoadKey& a, const LoadKey& b) { return precedes(a, b); });
  pos_.resize(n);
  for (std::size_t at = 0; at < n; ++at) {
    pos_[static_cast<std::size_t>(keys_[at].link)] = static_cast<std::uint32_t>(at);
  }
#if PAMR_CHECK_LEVEL >= 2
  check_invariants(loads);
#endif
}

void LoadOrder::reorder(const std::vector<LinkId>& changed, const LinkLoads& loads) {
  obs::bump(obs::Metric::kLoadIndexReorders);
  const auto before = [](const LoadKey& a, const LoadKey& b) { return precedes(a, b); };
  // [lo, hi) covers every moved link's old position and the lower_bound of
  // its new key in the old array. A kept link before lo precedes every new
  // key (it sits below each lower_bound) and every moved link followed it,
  // so nothing before lo moves; symmetrically for a kept link at or after
  // hi. So the new order is the old one with [lo, hi) replaced by the merge
  // of its kept links (in order) and the moved links (by new key).
  moved_.clear();
  std::size_t lo = keys_.size();
  std::size_t hi = 0;
  for (const LinkId link : changed) {
    const std::size_t at = pos_[static_cast<std::size_t>(link)];
    if (keys_[at].load == loads.load(link)) continue;  // did not move
    moved_.push_back(keys_[at]);
    lo = std::min(lo, at);
    hi = std::max(hi, at + 1);
  }
  if (!moved_.empty()) {
    stamps_.restamp(moved_, loads);
    for (const LoadKey& key : moved_) {
      const auto bound = static_cast<std::size_t>(
          std::lower_bound(keys_.begin(), keys_.end(), key, before) - keys_.begin());
      lo = std::min(lo, bound);
      hi = std::max(hi, bound);
    }
    for (const LoadKey& key : moved_) {
      keys_[pos_[static_cast<std::size_t>(key.link)]].link = kInvalidLink;
    }
    std::sort(moved_.begin(), moved_.end(), before);
    // Slide the kept links to the end of the range, in order, then merge
    // them with the moved links from its front: the write position never
    // passes the next kept link.
    std::size_t kept = hi;
    for (std::size_t at = hi; at-- > lo;) {
      if (keys_[at].link != kInvalidLink) keys_[--kept] = keys_[at];
    }
    std::size_t out = lo;
    for (const LoadKey& key : moved_) {
      while (kept < hi && precedes(keys_[kept], key)) {
        keys_[out] = keys_[kept++];
        pos_[static_cast<std::size_t>(keys_[out].link)] = static_cast<std::uint32_t>(out);
        ++out;
      }
      keys_[out] = key;
      pos_[static_cast<std::size_t>(key.link)] = static_cast<std::uint32_t>(out);
      ++out;
    }
    for (; out < hi; ++out) {
      pos_[static_cast<std::size_t>(keys_[out].link)] = static_cast<std::uint32_t>(out);
    }
  }
#if PAMR_CHECK_LEVEL >= 2
  check_invariants(loads);
#endif
}

void LoadOrder::check_invariants(const LinkLoads& loads) const {
  PAMR_INVARIANT_ALWAYS("load-order", pos_.size() == keys_.size(),
                        "pos_ holds " + std::to_string(pos_.size()) +
                            " links but the order holds " +
                            std::to_string(keys_.size()));
  for (std::size_t at = 0; at < keys_.size(); ++at) {
    const LoadKey& key = keys_[at];
    const auto link = static_cast<std::size_t>(key.link);
    PAMR_INVARIANT_ALWAYS("load-order", link < pos_.size(),
                          "the order holds an out-of-range link id");
    PAMR_INVARIANT_ALWAYS(
        "load-order", pos_[link] == at,
        "pos_ disagrees with the order for link " + std::to_string(link));
    PAMR_INVARIANT_ALWAYS("load-order", at == 0 || precedes(keys_[at - 1], key),
                          "order not sorted at position " + std::to_string(at));
    PAMR_INVARIANT_ALWAYS(
        "load-order", key.load == loads.load(key.link),
        "stored load of link " + std::to_string(link) +
            " differs from its current load — a load change was never "
            "reported to reorder()");
  }
}

}  // namespace pamr
