// Lifecycle tests for the hot-path storage structures: the packet block
// pool (net/pool.hpp), the generational slot map (sim/slot_map.hpp), and
// the dense flow table (net/flow_table.hpp).
//
// The properties under test are the ones the performance work must never
// trade away:
//  * a freed pool block goes back to the freelist the header says it
//    came from, even when HVC_PACKET_POOL flips between allocate and
//    free;
//  * pool exhaustion degrades to the heap without changing behavior;
//  * prof.alloc.* accounting is identical pool-on and pool-off (the
//    pool reports requested bytes, not block sizes);
//  * a stale slot-map handle aborts — in release builds too — instead of
//    silently reading a departed entity's memory.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "channel/profile.hpp"
#include "core/scenario.hpp"
#include "net/flow_table.hpp"
#include "net/node.hpp"
#include "net/pool.hpp"
#include "obs/prof.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_map.hpp"

namespace hvc {
namespace {

// RAII pool-enable override so a test failure can't leak a forced state
// into the rest of the binary.
class ScopedPool {
 public:
  explicit ScopedPool(bool enabled) { net::set_packet_pool_for_test(enabled); }
  ~ScopedPool() { net::clear_packet_pool_override_for_test(); }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;
};

// ---- BlockPool ----------------------------------------------------------

TEST(BlockPool, RecyclesBlocksLifo) {
  ScopedPool pool_on(true);
  net::BlockPool pool;
  void* a = pool.allocate(100);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0xab, 100);
  EXPECT_EQ(pool.slab_count(), 1u);
  EXPECT_EQ(pool.free_blocks(), net::BlockPool::kBlocksPerSlab - 1);
  pool.deallocate(a);
  EXPECT_EQ(pool.free_blocks(), net::BlockPool::kBlocksPerSlab);
  // LIFO freelist: the next allocation reuses the block just freed.
  void* b = pool.allocate(64);
  EXPECT_EQ(b, a);
  pool.deallocate(b);
}

TEST(BlockPool, OversizeRequestsBypassTheSlabs) {
  ScopedPool pool_on(true);
  net::BlockPool pool;
  void* p = pool.allocate(net::BlockPool::kBlockBytes + 1);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5a, net::BlockPool::kBlockBytes + 1);
  EXPECT_EQ(pool.slab_count(), 0u);  // never grew a slab for it
  pool.deallocate(p);                // header says heap: returns there
  EXPECT_EQ(pool.free_blocks(), 0u);
}

TEST(BlockPool, DisabledPoolAllocatesFromHeap) {
  ScopedPool pool_off(false);
  net::BlockPool pool;
  void* p = pool.allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(pool.slab_count(), 0u);
  pool.deallocate(p);
  EXPECT_EQ(pool.free_blocks(), 0u);
}

TEST(BlockPool, HeaderTagRoutesFreesWhenSwitchFlipsMidRun) {
  net::BlockPool pool;
  // Allocate from the pool, then disable it before freeing: the block
  // must still go back to the freelist its header names.
  net::set_packet_pool_for_test(true);
  void* pooled = pool.allocate(100);
  EXPECT_EQ(pool.free_blocks(), net::BlockPool::kBlocksPerSlab - 1);
  net::set_packet_pool_for_test(false);
  pool.deallocate(pooled);
  EXPECT_EQ(pool.free_blocks(), net::BlockPool::kBlocksPerSlab);
  // And the reverse: a heap-tagged block freed while the pool is on
  // must not be injected into the freelist.
  void* heaped = pool.allocate(100);  // pool still disabled
  net::set_packet_pool_for_test(true);
  pool.deallocate(heaped);
  EXPECT_EQ(pool.free_blocks(), net::BlockPool::kBlocksPerSlab);
  net::clear_packet_pool_override_for_test();
}

TEST(BlockPool, ExhaustionFallsBackToHeapAndRecovers) {
  ScopedPool pool_on(true);
  net::BlockPool pool;
  constexpr std::size_t kCapacity =
      net::BlockPool::kMaxSlabs * net::BlockPool::kBlocksPerSlab;
  std::vector<void*> blocks;
  blocks.reserve(kCapacity + 8);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    blocks.push_back(pool.allocate(64));
  }
  EXPECT_EQ(pool.slab_count(), net::BlockPool::kMaxSlabs);
  // Past the cap: allocation keeps working (heap-tagged), the pool does
  // not grow further.
  for (int i = 0; i < 8; ++i) blocks.push_back(pool.allocate(64));
  EXPECT_EQ(pool.slab_count(), net::BlockPool::kMaxSlabs);
  for (void* p : blocks) pool.deallocate(p);
  // Every slab block returned; the 8 overflow blocks went to the heap.
  EXPECT_EQ(pool.free_blocks(), kCapacity);
  // And the pool serves again without growing.
  void* p = pool.allocate(64);
  EXPECT_EQ(pool.slab_count(), net::BlockPool::kMaxSlabs);
  pool.deallocate(p);
}

// ---- prof.alloc parity --------------------------------------------------

// Identical runs must report identical allocation traffic whether the
// pool serves the bytes or the heap does: PooledAllocator passes the
// requested byte count to hook_alloc/hook_free either way.
obs::prof::AllocStats alloc_stats_for_run(bool pool) {
  ScopedPool scope(pool);
  net::IdScope ids;
  obs::prof::reset();
  obs::prof::enable();
  {
    sim::Simulator s;
    net::TwoHostNetwork net(s, core::make_policy("dchannel"),
                            core::make_policy("dchannel"));
    net.add_channel(channel::embb_constant_profile());
    net.add_channel(channel::urllc_profile());
    net.finalize();
    const auto flow = net::next_flow_id();
    const net::FlowHandle sink =
        net.server().register_flow(flow, [](net::PacketPtr) {});
    sim::Rng rng(11);
    for (int i = 0; i < 400; ++i) {
      s.at(static_cast<sim::Time>(rng.uniform(0, 1e9)), [&] {
        auto p = net::make_packet();
        p->flow = flow;
        p->type = net::PacketType::kData;
        p->size_bytes = rng.uniform_int(41, 1500);
        net.client().send(std::move(p));
      });
    }
    s.run();
  }
  obs::prof::disable();
  return obs::prof::alloc_stats();
}

TEST(PacketPoolProf, AllocAccountingIdenticalPoolOnAndOff) {
  const obs::prof::AllocStats on = alloc_stats_for_run(true);
  const obs::prof::AllocStats off = alloc_stats_for_run(false);
  EXPECT_GT(on.allocs, 0u);
  EXPECT_EQ(on.allocs, off.allocs);
  EXPECT_EQ(on.alloc_bytes, off.alloc_bytes);
  EXPECT_EQ(on.frees, off.frees);
  EXPECT_EQ(on.free_bytes, off.free_bytes);
}

// ---- SlotMap ------------------------------------------------------------

TEST(SlotMap, AcquireNeverReusesSlots) {
  sim::SlotMap<int> m;
  const auto a = m.acquire(1);
  m.retire(a);
  const auto b = m.acquire(2);
  EXPECT_NE(a.slot, b.slot);  // fresh slot even though one is free
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.live_count(), 1u);
}

TEST(SlotMap, AcquireReusingBumpsGeneration) {
  sim::SlotMap<int> m;
  const auto a = m.acquire_reusing(1);
  m.retire(a);
  const auto b = m.acquire_reusing(2);
  EXPECT_EQ(b.slot, a.slot);
  EXPECT_GT(b.gen, a.gen);
  EXPECT_FALSE(m.alive(a));
  EXPECT_TRUE(m.alive(b));
  EXPECT_EQ(m.try_get(a), nullptr);
  ASSERT_NE(m.try_get(b), nullptr);
  EXPECT_EQ(*m.try_get(b), 2);
  EXPECT_EQ(m.size(), 1u);  // storage bounded under churn
}

TEST(SlotMap, RetiredDataStaysReadableThroughAt) {
  sim::SlotMap<int> m;
  const auto h = m.acquire(42);
  m.retire(h);
  // Departure bookkeeping (folding a departed user's stats) reads the
  // slot after retirement on purpose.
  EXPECT_EQ(m.at(h.slot), 42);
  EXPECT_FALSE(m.live(h.slot));
  EXPECT_EQ(m.gen(h.slot), h.gen + 1);
}

TEST(SlotMap, ForEachLiveVisitsSlotOrder) {
  sim::SlotMap<int> m;
  const auto a = m.acquire(10);
  const auto b = m.acquire(20);
  const auto c = m.acquire(30);
  m.retire(b);
  std::vector<std::pair<std::uint32_t, int>> seen;
  m.for_each_live([&](std::uint32_t slot, int v) { seen.emplace_back(slot, v); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(a.slot, 10));
  EXPECT_EQ(seen[1], std::make_pair(c.slot, 30));
}

// Reference-model fuzz: a SlotMap under random churn agrees with a
// std::map of handle -> value at every step.
TEST(SlotMap, MatchesReferenceModelUnderRandomChurn) {
  sim::Rng rng(2026);
  sim::SlotMap<std::uint64_t> m;
  struct LiveEntry {
    sim::SlotMap<std::uint64_t>::Handle h;
    std::uint64_t value;
  };
  std::vector<LiveEntry> live;
  std::vector<sim::SlotMap<std::uint64_t>::Handle> retired;
  for (std::uint64_t step = 0; step < 20000; ++step) {
    if (live.empty() || rng.uniform(0, 1) < 0.55) {
      const auto h = rng.uniform(0, 1) < 0.5 ? m.acquire(step)
                                             : m.acquire_reusing(step);
      live.push_back({h, step});
    } else {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      m.retire(live[idx].h);
      retired.push_back(live[idx].h);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(m.live_count(), live.size());
  for (const auto& e : live) {
    ASSERT_TRUE(m.alive(e.h));
    EXPECT_EQ(m.get(e.h), e.value);
  }
  for (const auto& h : retired) {
    EXPECT_FALSE(m.alive(h));
    EXPECT_EQ(m.try_get(h), nullptr);
  }
}

// The abort fires in every build type — stale reads are memory of a
// departed entity, never something to tolerate in release.
using SlotMapDeathTest = ::testing::Test;

TEST(SlotMapDeathTest, GetOnStaleHandleAborts) {
  sim::SlotMap<int> m;
  const auto h = m.acquire(7);
  m.retire(h);
  EXPECT_DEATH((void)m.get(h), "stale handle");
}

TEST(SlotMapDeathTest, DoubleRetireAborts) {
  sim::SlotMap<int> m;
  const auto h = m.acquire(7);
  m.retire(h);
  EXPECT_DEATH(m.retire(h), "stale handle");
}

TEST(SlotMapDeathTest, OutOfRangeHandleAborts) {
  sim::SlotMap<int> m;
  EXPECT_DEATH((void)m.get({5, 0}), "stale handle");
}

// ---- FlowTable ----------------------------------------------------------

TEST(FlowTable, DensePathStoresAndErases) {
  net::FlowTable<int> t;
  EXPECT_EQ(t.find(3), nullptr);
  auto [v, created] = t.try_emplace(3);
  EXPECT_TRUE(created);
  *v = 99;
  EXPECT_FALSE(t.try_emplace(3).second);
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(*t.find(3), 99);
  EXPECT_TRUE(t.contains(3));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.erase(3));
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowTable, SpillPathHandlesIdsPastTheDenseLimit) {
  net::FlowTable<int> t;
  const std::uint64_t big = net::FlowTable<int>::kDenseLimit + 12345;
  auto [v, created] = t.try_emplace(big);
  EXPECT_TRUE(created);
  *v = 7;
  ASSERT_NE(t.find(big), nullptr);
  EXPECT_EQ(*t.find(big), 7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.erase(big));
  EXPECT_EQ(t.find(big), nullptr);
}

// Reference-model fuzz across the dense/spill boundary.
TEST(FlowTable, MatchesReferenceModelAcrossDenseBoundary) {
  sim::Rng rng(17);
  net::FlowTable<std::uint64_t> t;
  std::map<std::uint64_t, std::uint64_t> model;
  const auto limit = net::FlowTable<std::uint64_t>::kDenseLimit;
  for (std::uint64_t step = 0; step < 20000; ++step) {
    // Keys cluster around the dense/spill boundary on purpose.
    const std::uint64_t key =
        rng.uniform(0, 1) < 0.5
            ? static_cast<std::uint64_t>(rng.uniform_int(0, 300))
            : limit - 150 + static_cast<std::uint64_t>(
                                rng.uniform_int(0, 300));
    if (rng.uniform(0, 1) < 0.7) {
      auto [v, created] = t.try_emplace(key);
      EXPECT_EQ(created, model.find(key) == model.end());
      *v = step;
      model[key] = step;
    } else {
      EXPECT_EQ(t.erase(key), model.erase(key) == 1);
    }
    if (step % 1000 == 0) {
      EXPECT_EQ(t.size(), model.size());
    }
  }
  EXPECT_EQ(t.size(), model.size());
  for (const auto& [key, value] : model) {
    ASSERT_NE(t.find(key), nullptr) << key;
    EXPECT_EQ(*t.find(key), value);
  }
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  for (const auto& [key, value] : model) EXPECT_EQ(t.find(key), nullptr);
}

}  // namespace
}  // namespace hvc
