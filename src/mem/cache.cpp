#include "mem/cache.hpp"

#include <bit>

namespace caps {

template <typename Meta>
SetAssocCache<Meta>::SetAssocCache(const CacheConfig& cfg, SlotRegion* region)
    : cfg_(cfg),
      sets_(cfg.num_sets()),
      valid_(sets_, 0),
      tags_(std::size_t{sets_} * cfg.assoc, region),
      lru_(tags_.size(), region),
      meta_(tags_.size(), region) {
  cfg_.validate();
  line_shift_ = static_cast<u32>(std::countr_zero(cfg_.line_size));
}

template <typename Meta>
std::size_t SetAssocCache<Meta>::lookup(Addr line) const {
  const std::size_t set = set_of(line);
  const std::size_t first = set * cfg_.assoc;
  for (std::size_t w = first; w < first + valid_[set]; ++w)
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
  // One pass over the valid ways finds the line itself and the LRU way.
  const std::size_t set = set_of(line);
  const std::size_t first = set * cfg_.assoc;
  std::size_t lru = first;
  for (std::size_t w = first; w < first + valid_[set]; ++w) {
    if (tags_[w] == line) {
      meta_.emplace(w, meta);
      lru_.emplace(w, ++lru_clock_);
      return std::nullopt;
    }
    if (lru_[w] < lru_[lru]) lru = w;
  }
  // The first invalid way if the set has one, else the LRU way.
  std::optional<std::pair<Addr, Meta>> evicted;
  std::size_t victim = lru;
  if (valid_[set] < cfg_.assoc)
    victim = first + valid_[set]++;
  else
    evicted.emplace(tags_[victim], meta_[victim]);
  tags_.emplace(victim, line);
  lru_.emplace(victim, ++lru_clock_);
  meta_.emplace(victim, meta);
  return evicted;
}

template class SetAssocCache<L1LineMeta>;
template class SetAssocCache<L2LineMeta>;

}  // namespace caps
