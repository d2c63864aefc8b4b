#include "mem/cache.hpp"

#include <bit>
#include "common/diag.hpp"

namespace caps {

template <typename Meta>
SetAssocCache<Meta>::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg),
      sets_(cfg.num_sets()),
      tags_(sets_ * cfg.assoc, kFree),
      lru_(tags_.size()),
      meta_(tags_.size()) {
  cfg_.validate();
  line_shift_ = static_cast<u32>(std::countr_zero(cfg_.line_size));
}

template <typename Meta>
std::size_t SetAssocCache<Meta>::lookup(Addr line) const {
  const std::size_t set = set_begin(line);
  for (std::size_t w = set; w < set + cfg_.assoc; ++w)
    if (tags_[w] == line) return w;
  return kNone;
}

template <typename Meta>
Meta* SetAssocCache<Meta>::access(Addr line) {
  const std::size_t w = lookup(line);
  if (w == kNone) return nullptr;
  lru_[w] = ++lru_clock_;
  return &meta_[w];
}

template <typename Meta>
std::optional<std::pair<Addr, Meta>> SetAssocCache<Meta>::fill(
    Addr line, const Meta& meta) {
  CAPS_CHECK(line != kFree, "cache fill of the invalid-tag marker");
  // One pass finds the line itself, the first invalid way and the LRU way.
  const std::size_t set = set_begin(line);
  std::size_t invalid = kNone;
  std::size_t lru = kNone;
  for (std::size_t w = set; w < set + cfg_.assoc; ++w) {
    if (tags_[w] == line) {
      meta_.emplace(w, meta);
      lru_.emplace(w, ++lru_clock_);
      return std::nullopt;
    }
    if (tags_[w] == kFree) {
      if (invalid == kNone) invalid = w;
    } else if (lru == kNone || lru_[w] < lru_[lru]) {
      lru = w;
    }
  }
  const std::size_t victim = invalid != kNone ? invalid : lru;
  CAPS_CHECK(victim != kNone, "cache victim selection failed");
  std::optional<std::pair<Addr, Meta>> evicted;
  if (tags_[victim] != kFree) evicted.emplace(tags_[victim], meta_[victim]);
  tags_[victim] = line;
  lru_.emplace(victim, ++lru_clock_);
  meta_.emplace(victim, meta);
  return evicted;
}

template class SetAssocCache<L1LineMeta>;
template class SetAssocCache<L2LineMeta>;

}  // namespace caps
