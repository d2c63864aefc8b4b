#include "mem/cache.hpp"

#include <bit>
#include "common/diag.hpp"

namespace caps {

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg), sets_(cfg.num_sets()), ways_(sets_ * cfg.assoc) {
  cfg_.validate();
  line_shift_ = static_cast<u32>(std::countr_zero(cfg_.line_size));
}

SetAssocCache::Way* SetAssocCache::lookup(Addr line) {
  Way* set = set_begin(line);
  for (u32 w = 0; w < cfg_.assoc; ++w)
    if (set[w].valid && set[w].tag == line) return &set[w];
  return nullptr;
}

bool SetAssocCache::contains(Addr line) const {
  return const_cast<SetAssocCache*>(this)->lookup(line) != nullptr;
}

LineMeta* SetAssocCache::access(Addr line) {
  Way* way = lookup(line);
  if (way == nullptr) return nullptr;
  way->lru = ++lru_clock_;
  return &way->meta;
}

std::optional<std::pair<Addr, LineMeta>> SetAssocCache::fill(
    Addr line, const LineMeta& meta) {
  // One pass finds the line itself, the first invalid way and the LRU way.
  Way* set = set_begin(line);
  Way* invalid = nullptr;
  Way* lru = nullptr;
  for (u32 w = 0; w < cfg_.assoc; ++w) {
    Way& way = set[w];
    if (!way.valid) {
      if (invalid == nullptr) invalid = &way;
    } else if (way.tag == line) {
      way.meta = meta;
      way.lru = ++lru_clock_;
      return std::nullopt;
    } else if (lru == nullptr || way.lru < lru->lru) {
      lru = &way;
    }
  }
  Way* victim = invalid != nullptr ? invalid : lru;
  CAPS_CHECK(victim != nullptr, "cache victim selection failed");
  std::optional<std::pair<Addr, LineMeta>> evicted;
  if (victim->valid) evicted.emplace(victim->tag, victim->meta);
  victim->valid = true;
  victim->tag = line;
  victim->lru = ++lru_clock_;
  victim->meta = meta;
  return evicted;
}

}  // namespace caps
