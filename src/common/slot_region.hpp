// SlotRegion: one machine's slot storage. A bump allocator that hands out
// uninitialised SlotArray storage from a few large blocks and frees them
// all at once with its owner; nothing is freed piecemeal. MemorySystem owns
// the region of a machine and lends it to every array it and the LD/ST
// units build, so the slot storage a build never writes lies apart from
// the objects a build does write, instead of between them with an
// allocator header per array (DESIGN.md §13).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace caps {

class SlotRegion {
 public:
  /// Bytes a block offers; a larger carve opens a block of its own size.
  static constexpr std::size_t kBlockBytes = std::size_t{256} * 1024;

  SlotRegion() = default;
  SlotRegion(const SlotRegion&) = delete;
  SlotRegion& operator=(const SlotRegion&) = delete;
  ~SlotRegion() {
    while (blocks_ != nullptr)
      ::operator delete(std::exchange(blocks_, blocks_->prev));
  }

  /// Uninitialised storage for `n` elements of T, aligned for T, valid
  /// until the region is destroyed.
  template <typename T>
  T* carve(std::size_t n) {
    return static_cast<T*>(carve_bytes(n * sizeof(T), alignof(T)));
  }

  /// Bytes of the blocks allocated so far, headers included.
  std::size_t reserved_bytes() const { return reserved_; }

 private:
  /// A block starts with a link to the block opened before it.
  struct alignas(std::max_align_t) Block {
    Block* prev;
  };

  void* carve_bytes(std::size_t bytes, std::size_t align) {
    std::size_t pad = padding(align);
    if (pad + bytes > left_) {
      open(std::max(kBlockBytes, sizeof(Block) + align + bytes));
      pad = padding(align);
    }
    std::byte* p = next_ + pad;
    next_ = p + bytes;
    left_ -= pad + bytes;
    return p;
  }
  std::size_t padding(std::size_t align) const {
    return (align - reinterpret_cast<std::uintptr_t>(next_) % align) % align;
  }
  /// Make a new block of `size` bytes the one carves come from. Only its
  /// link is written: the rest stays untouched until a slot is built.
  void open(std::size_t size) {
    auto* b = static_cast<Block*>(::operator new(size));
    b->prev = blocks_;
    blocks_ = b;
    next_ = reinterpret_cast<std::byte*>(b + 1);
    left_ = size - sizeof(Block);
    reserved_ += size;
  }

  Block* blocks_ = nullptr;  ///< the newest block; each links the one before
  std::byte* next_ = nullptr;
  std::size_t left_ = 0;     ///< bytes left in the newest block
  std::size_t reserved_ = 0;
};

}  // namespace caps
