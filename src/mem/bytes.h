// Refcounted byte buffers over pooled arena blocks.
//
// `Bytes` is the one ownership handle the whole dataflow uses: an encoder
// picture span is packed into a pooled wire body, the splitter's sub-picture
// payloads are views into that body, the serialized sub-picture rides a
// pooled SpMsg body, and the decoder's run payloads are views into *that* —
// one allocation per hop instead of a copy per layer. The handle is three
// words (block, data, size); copying bumps an intrusive refcount in the
// block header, and the last release returns the block to its pool's
// freelist instead of the heap (mem/pool.h).
//
// Ownership rules:
//  * A Bytes constructed by alloc()/copy_of()/filled()/surface() OWNS a
//    block (possibly shared with other handles / views of it).
//  * view(off, len) shares the same block — cheap, and keeps the block
//    alive until every view dies.
//  * borrow(span) does NOT own: it is a read-only alias whose lifetime the
//    caller guarantees (e.g. spans into the root's resident elementary
//    stream). owning() distinguishes the two.
//  * Mutation through mutable_data()/mutable_span() is only safe when the
//    writer is the sole owner of the block region it touches; call
//    make_unique() first when in doubt (the fault injector does exactly
//    this before corrupting a payload that retransmit queues still pin).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>

#include "common/check.h"

namespace pdw::mem {

struct BlockHeader;
class Bytes;

namespace detail {
// Wrap a block (refs already == 1) in an owning handle of size n. Defined in
// pool.cpp; the pools' only doorway into Bytes' privates.
Bytes adopt_block(BlockHeader* b, size_t n);
}  // namespace detail

// Base of BufferPool / SurfacePool internals. Refcounted so that blocks
// released *after* their pool handle was destroyed (e.g. a straggler thread
// dropping its last view) degrade safely to a heap free instead of touching
// a dead freelist: every live block pins its core.
class PoolCore {
 public:
  virtual ~PoolCore() = default;

  void ref() { core_refs_.fetch_add(1, std::memory_order_relaxed); }
  void unref() {
    if (core_refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  // Take back a dead block (refs == 0). Returns it to the freelist while the
  // pool handle is alive and pooling is enabled; heap-frees it otherwise.
  virtual void recycle(BlockHeader* b) = 0;

 protected:
  std::atomic<bool> active_{true};

 private:
  friend class BufferPool;
  friend class SurfacePool;
  std::atomic<uint32_t> core_refs_{1};  // the handle's ref
};

// Header prepended to every allocation. The payload follows immediately
// (sizeof(BlockHeader) is a multiple of 16, so the data is max-aligned).
struct BlockHeader {
  std::atomic<uint32_t> refs{1};
  uint32_t size_class = kHeapClass;  // freelist class; kHeapClass = never pooled
  size_t capacity = 0;               // usable payload bytes
  PoolCore* core = nullptr;          // pinned while this block is live
  BlockHeader* next = nullptr;       // freelist link (only while free)

  static constexpr uint32_t kHeapClass = 0xFFFFFFFFu;

  uint8_t* data() { return reinterpret_cast<uint8_t*>(this + 1); }
};
static_assert(sizeof(BlockHeader) % 16 == 0);

namespace detail {

// Heap-side block creation/destruction (shared by pools and the fallback
// path). Defined in pool.cpp.
BlockHeader* new_heap_block(size_t capacity);
void delete_block(BlockHeader* b);

inline void block_ref(BlockHeader* b) {
  b->refs.fetch_add(1, std::memory_order_relaxed);
}

inline void block_unref(BlockHeader* b) {
  if (b->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  PoolCore* core = b->core;
  if (core != nullptr) {
    core->recycle(b);  // freelist or heap, the core decides
    core->unref();     // block no longer pins the core
  } else {
    delete_block(b);
  }
}

}  // namespace detail

class Bytes {
 public:
  Bytes() = default;
  Bytes(std::initializer_list<uint8_t> init)
      : Bytes(copy_of({init.begin(), init.size()})) {}

  ~Bytes() { reset(); }

  Bytes(const Bytes& o) : block_(o.block_), data_(o.data_), size_(o.size_) {
    if (block_) detail::block_ref(block_);
  }
  Bytes& operator=(const Bytes& o) {
    if (this == &o) return *this;
    if (o.block_) detail::block_ref(o.block_);
    reset();
    block_ = o.block_;
    data_ = o.data_;
    size_ = o.size_;
    return *this;
  }
  Bytes(Bytes&& o) noexcept : block_(o.block_), data_(o.data_), size_(o.size_) {
    o.block_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  Bytes& operator=(Bytes&& o) noexcept {
    if (this == &o) return *this;
    reset();
    block_ = o.block_;
    data_ = o.data_;
    size_ = o.size_;
    o.block_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
    return *this;
  }

  // --- Construction (definitions in pool.cpp) ------------------------------
  // Pooled wire-class buffer, contents uninitialized.
  static Bytes alloc(size_t n);
  static Bytes filled(size_t n, uint8_t v);
  static Bytes copy_of(std::span<const uint8_t> s);
  // Non-owning read-only alias; caller guarantees the span outlives it.
  static Bytes borrow(std::span<const uint8_t> s);
  // Exact-size surface-pool buffer (picture-geometry keyed reuse).
  static Bytes surface(size_t n, uint8_t fill);
  static Bytes surface_uninit(size_t n);
  static Bytes surface_copy(std::span<const uint8_t> s);

  // --- Access --------------------------------------------------------------
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* data() const { return data_; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  std::span<const uint8_t> span() const { return {data_, size_}; }
  operator std::span<const uint8_t>() const { return span(); }

  // See file comment: only safe when this handle is the sole writer.
  uint8_t* mutable_data() { return data_; }
  std::span<uint8_t> mutable_span() { return {data_, size_}; }

  // --- Views & sharing -----------------------------------------------------
  // Sub-range sharing the same block (or the same borrowed storage).
  Bytes view(size_t off, size_t len) const {
    PDW_CHECK_LE(off + len, size_);
    Bytes v;
    v.block_ = block_;
    v.data_ = data_ + off;
    v.size_ = len;
    if (v.block_) detail::block_ref(v.block_);
    return v;
  }

  bool owning() const { return block_ != nullptr; }
  bool unique() const {
    return block_ != nullptr &&
           block_->refs.load(std::memory_order_acquire) == 1;
  }

  // Copy-on-write: after this call the handle owns a block no other handle
  // shares (no-op when already sole owner of a full block).
  void make_unique() {
    if (unique() && data_ == block_->data() && size_ == block_->capacity)
      return;
    *this = copy_of(span());
  }

  void reset() {
    if (block_) detail::block_unref(block_);
    block_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }

  // Content equality (mirrors the std::vector semantics this type replaced).
  friend bool operator==(const Bytes& a, const Bytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  friend Bytes detail::adopt_block(BlockHeader* b, size_t n);

  BlockHeader* block_ = nullptr;  // nullptr: empty or borrowed
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

// Runtime pooling switch. When off, every alloc is a plain heap allocation
// (counted as a pool miss) and every free returns to the heap — the
// unpooled leg of the zero-copy ablation and the ProtocolEquivalence guard.
void set_pooling_enabled(bool enabled);
bool pooling_enabled();

}  // namespace pdw::mem
