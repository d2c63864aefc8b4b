#include "prefetch/stride_table.hpp"

namespace caps {

void StrideTable::confirm(Entry& e, i64 stride) {
  if (stride == e.stride && stride != 0) {
    if (e.confidence < 3) ++e.confidence;
  } else {
    e.stride = stride;
    e.confidence = stride != 0 ? 1 : 0;
  }
}

StrideTable::Entry& StrideTable::observe(u64 key, Addr addr) {
  Entry* e = table_.find(key);
  if (e == nullptr)
    e = &table_.insert(key);
  else
    confirm(*e, static_cast<i64>(addr) - static_cast<i64>(e->last_addr));
  e->last_addr = addr;
  return *e;
}

StrideTable::Entry& StrideTable::observe_warp(u64 key, u32 warp, Addr addr) {
  Entry* e = table_.find(key);
  if (e == nullptr) {
    e = &table_.insert(key);
  } else if (e->last_warp != warp) {
    const i64 dw = static_cast<i64>(warp) - static_cast<i64>(e->last_warp);
    const i64 da = static_cast<i64>(addr) - static_cast<i64>(e->last_addr);
    if (da % dw == 0) confirm(*e, da / dw);
  }
  e->last_addr = addr;
  e->last_warp = warp;
  return *e;
}

}  // namespace caps
