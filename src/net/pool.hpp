// Fixed-size freelist pool backing packet allocations.
//
// make_packet / clone_packet account for roughly a third of the work on
// the serve and steer hot paths (BENCH_hotpath.json: packet_lifecycle):
// every packet is an allocate_shared round trip through the general
// heap. This pool recycles fixed-size blocks instead, thread-local so
// concurrent sweep workers (src/exp) never contend.
//
// Design rules, in the order they matter:
//
//  1. Every block carries a 16-byte header tagging where it came from
//     (pool slab or heap fallback) and how big it is. deallocate()
//     consults only the header — never the runtime enable switch — so
//     flipping HVC_PACKET_POOL between allocation and free (tests do
//     this) can never send a block back to the wrong place.
//  2. The pool never shrinks and caps its slab count; beyond the cap —
//     or for oversize / overaligned requests — allocation falls back to
//     the heap with a heap-tagged header. Exhaustion therefore changes
//     performance, never behavior.
//  3. Under AddressSanitizer the payload of every free block is
//     poisoned, so use-after-free of a recycled packet traps just like
//     a heap use-after-free would. The freelist link lives in the
//     header, which stays unpoisoned.
//  4. PooledAllocator reports every allocate/deallocate through
//     prof::hook_alloc / hook_free with the requested byte count, whether
//     the pool or the heap serves it, so prof.alloc.* (and the
//     packet-alloc hook counters) are identical pool-on and pool-off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/prof.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define HVC_POOL_POISON(p, n) __asan_poison_memory_region((p), (n))
#define HVC_POOL_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define HVC_POOL_POISON(p, n) ((void)0)
#define HVC_POOL_UNPOISON(p, n) ((void)0)
#endif

namespace hvc::net {

/// True when new packet allocations should come from the pool. Reads
/// HVC_PACKET_POOL once (set to "0" to disable); the test setters below
/// override the environment. Safe to flip at any time — see header
/// rule 1 above.
[[nodiscard]] bool packet_pool_enabled();
void set_packet_pool_for_test(bool enabled);
void clear_packet_pool_override_for_test();

/// Thread-local freelist of fixed-size blocks. Not a general allocator:
/// one size class, tuned to hold a Packet plus its shared_ptr control
/// block (allocate_shared fuses them into a single allocation).
class BlockPool {
 public:
  /// Payload capacity per block. sizeof(Packet) is ~230 bytes and the
  /// fused control block adds ~two words; 512 leaves headroom for both
  /// growing without silently demoting every packet to the heap path.
  static constexpr std::size_t kBlockBytes = 512;
  /// Blocks per slab allocation (one slab = 528 KiB).
  static constexpr std::size_t kBlocksPerSlab = 1024;
  /// Slab cap: past this, allocation falls back to the heap (rule 2).
  static constexpr std::size_t kMaxSlabs = 64;

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  /// This thread's pool. Thread-local storage means slabs die with the
  /// thread; blocks still outstanding at that point were heap-tagged
  /// never — they belong to slabs — so the whole arena simply unmaps
  /// when the thread's sims are done.
  static BlockPool& instance();

  void* allocate(std::size_t bytes) {
    if (bytes <= kBlockBytes && packet_pool_enabled()) {
      if (free_ == nullptr && !grow()) return heap_allocate(bytes);
      Header* h = free_;
      free_ = h->next_free;
      HVC_POOL_UNPOISON(payload(h), kBlockBytes);
      h->from_pool = 1;
      h->bytes = bytes;
      return payload(h);
    }
    return heap_allocate(bytes);
  }

  void deallocate(void* p) noexcept {
    Header* h = header(p);
    if (h->from_pool != 0) {
      HVC_POOL_POISON(payload(h), kBlockBytes);
      h->next_free = free_;
      free_ = h;
      return;
    }
    const std::size_t total = kHeaderBytes + h->bytes;
    std::allocator<std::byte>{}.deallocate(
        reinterpret_cast<std::byte*>(h), total);
  }

  /// Free blocks currently on the freelist (test introspection).
  [[nodiscard]] std::size_t free_blocks() const {
    std::size_t n = 0;
    for (const Header* h = free_; h != nullptr; h = h->next_free) ++n;
    return n;
  }
  [[nodiscard]] std::size_t slab_count() const { return slabs_.size(); }

 private:
  struct alignas(std::max_align_t) Header {
    union {
      Header* next_free;        ///< freelist link while the block is free
      std::size_t bytes;        ///< requested size while allocated
    };
    std::uint64_t from_pool;    ///< 1 = slab block, 0 = heap fallback
  };
  static constexpr std::size_t kHeaderBytes = sizeof(Header);
  static_assert(kHeaderBytes == 16, "header must stay one alignment unit");
  static constexpr std::size_t kStride = kHeaderBytes + kBlockBytes;

  static void* payload(Header* h) {
    return reinterpret_cast<std::byte*>(h) + kHeaderBytes;
  }
  static Header* header(void* p) {
    return reinterpret_cast<Header*>(static_cast<std::byte*>(p) -
                                     kHeaderBytes);
  }

  bool grow() {
    if (slabs_.size() >= kMaxSlabs) return false;
    // Cold path: runs at most kMaxSlabs times per thread, ever.
    auto slab = std::make_unique<std::byte[]>(kStride * kBlocksPerSlab);
    std::byte* base = slab.get();
    for (std::size_t i = kBlocksPerSlab; i-- > 0;) {
      auto* h = reinterpret_cast<Header*>(base + i * kStride);
      h->next_free = free_;
      free_ = h;
      HVC_POOL_POISON(payload(h), kBlockBytes);
    }
    slabs_.push_back(std::move(slab));
    return true;
  }

  void* heap_allocate(std::size_t bytes) {
    const std::size_t total = kHeaderBytes + bytes;
    auto* h = reinterpret_cast<Header*>(
        std::allocator<std::byte>{}.allocate(total));
    h->from_pool = 0;
    h->bytes = bytes;
    return payload(h);
  }

  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  Header* free_ = nullptr;
};

/// Allocator facade over BlockPool that reports each allocation's bytes to
/// the prof hooks. Drop-in for std::allocate_shared in make_packet.
template <class T>
struct PooledAllocator {
  using value_type = T;

  PooledAllocator() noexcept = default;
  template <class U>
  PooledAllocator(const PooledAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    obs::prof::hook_alloc(n * sizeof(T));
    if constexpr (alignof(T) <= alignof(std::max_align_t)) {
      return static_cast<T*>(BlockPool::instance().allocate(n * sizeof(T)));
    } else {
      return std::allocator<T>{}.allocate(n);
    }
  }
  void deallocate(T* p, std::size_t n) noexcept {
    HVC_PROF_SCOPE(obs::prof::Hook::kPacketFree);
    obs::prof::hook_free(n * sizeof(T));
    if constexpr (alignof(T) <= alignof(std::max_align_t)) {
      BlockPool::instance().deallocate(p);
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }

  template <class U>
  bool operator==(const PooledAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

}  // namespace hvc::net
