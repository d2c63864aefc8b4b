#include "mem/cache.hpp"

#include <bit>
#include "common/diag.hpp"

namespace caps {

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg), sets_(cfg.num_sets()), ways_(sets_ * cfg.assoc) {
  cfg_.validate();
}

u32 SetAssocCache::set_index(Addr line) const {
  return static_cast<u32>((line / cfg_.line_size) & (sets_ - 1));
}

SetAssocCache::Way* SetAssocCache::lookup(Addr line) {
  const u32 s = set_index(line);
  for (u32 w = 0; w < cfg_.assoc; ++w) {
    Way& way = ways_[s * cfg_.assoc + w];
    if (way.valid && way.tag == line) return &way;
  }
  return nullptr;
}

const SetAssocCache::Way* SetAssocCache::lookup(Addr line) const {
  return const_cast<SetAssocCache*>(this)->lookup(line);
}

bool SetAssocCache::contains(Addr line) const { return lookup(line) != nullptr; }

CacheOutcome SetAssocCache::access(Addr line) {
  Way* way = lookup(line);
  if (way == nullptr) return CacheOutcome::kMiss;
  way->lru = ++lru_clock_;
  return CacheOutcome::kHit;
}

std::optional<std::pair<Addr, LineMeta>> SetAssocCache::fill(
    Addr line, const LineMeta& meta) {
  if (Way* existing = lookup(line)) {
    existing->meta = meta;
    existing->lru = ++lru_clock_;
    return std::nullopt;
  }
  const u32 s = set_index(line);
  Way* victim = nullptr;
  for (u32 w = 0; w < cfg_.assoc; ++w) {
    Way& way = ways_[s * cfg_.assoc + w];
    if (!way.valid) {
      victim = &way;
      break;
    }
    if (victim == nullptr || way.lru < victim->lru) victim = &way;
  }
  CAPS_CHECK(victim != nullptr, "cache victim selection failed");
  std::optional<std::pair<Addr, LineMeta>> evicted;
  if (victim->valid) evicted.emplace(victim->tag, victim->meta);
  victim->valid = true;
  victim->tag = line;
  victim->lru = ++lru_clock_;
  victim->meta = meta;
  return evicted;
}

LineMeta* SetAssocCache::find_meta(Addr line) {
  Way* way = lookup(line);
  return way == nullptr ? nullptr : &way->meta;
}

}  // namespace caps
