#include "prefetch/stride_table.hpp"

namespace caps {

StrideTable::Entry& StrideTable::lookup(u64 key, bool& inserted) {
  auto it = table_.find(key);
  if (it != table_.end()) {
    inserted = false;
    it->second.lru = ++clock_;
    return it->second;
  }
  if (table_.size() >= max_entries_) {
    auto victim = table_.begin();
    for (auto vit = table_.begin(); vit != table_.end(); ++vit)
      if (vit->second.lru < victim->second.lru) victim = vit;
    table_.erase(victim);
  }
  inserted = true;
  Entry& e = table_[key];
  e.lru = ++clock_;
  return e;
}

void StrideTable::confirm(Entry& e, i64 stride) {
  if (stride == e.stride && stride != 0) {
    if (e.confidence < 3) ++e.confidence;
  } else {
    e.stride = stride;
    e.confidence = stride != 0 ? 1 : 0;
  }
}

StrideTable::Entry& StrideTable::observe(u64 key, Addr addr) {
  bool inserted = false;
  Entry& e = lookup(key, inserted);
  if (!inserted)
    confirm(e, static_cast<i64>(addr) - static_cast<i64>(e.last_addr));
  e.last_addr = addr;
  return e;
}

StrideTable::Entry& StrideTable::observe_warp(u64 key, u32 warp, Addr addr) {
  bool inserted = false;
  Entry& e = lookup(key, inserted);
  if (!inserted && e.last_warp != warp) {
    const i64 dw = static_cast<i64>(warp) - static_cast<i64>(e.last_warp);
    const i64 da = static_cast<i64>(addr) - static_cast<i64>(e.last_addr);
    if (da % dw == 0) confirm(e, da / dw);
  }
  e.last_addr = addr;
  e.last_warp = warp;
  return e;
}

}  // namespace caps
