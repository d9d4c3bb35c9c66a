#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "mem/cache.hh"

using namespace qei;

namespace {

CacheParams
smallCache()
{
    return CacheParams{"t", 1024, 2, 3}; // 8 sets x 2 ways
}

/**
 * Reference model: the global-clock LRU that Cache used before its
 * lines shrank to 8 bytes. Every line carries a 64-bit last-use stamp
 * from one clock; the victim is the first invalid way, else the valid
 * line with the smallest stamp.
 */
class ClockLruCache
{
  public:
    ClockLruCache(std::uint64_t size_bytes, std::uint32_t ways)
        : ways_(ways), sets_(size_bytes / kCacheLineBytes / ways),
          lines_(sets_ * ways)
    {
    }

    bool
    access(Addr paddr, bool is_write)
    {
        if (Line* line = find(paddr)) {
            line->lastUse = ++clock_;
            line->dirty = line->dirty || is_write;
            ++hits;
            return true;
        }
        ++misses;
        return false;
    }

    bool probe(Addr paddr) { return find(paddr) != nullptr; }

    CacheAccess
    fill(Addr paddr, bool dirty)
    {
        CacheAccess result;
        if (Line* line = find(paddr)) {
            line->lastUse = ++clock_;
            line->dirty = line->dirty || dirty;
            result.hit = true;
            return result;
        }
        const std::uint64_t set = setOf(paddr);
        Line* base = &lines_[set * ways_];
        Line* victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (!victim || base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        if (victim->valid) {
            ++evictions;
            if (victim->dirty) {
                ++writebacks;
                result.writeback =
                    (victim->tag * sets_ + set) * kCacheLineBytes;
            }
        }
        *victim = Line{tagOf(paddr), true, dirty, ++clock_};
        return result;
    }

    void
    invalidate(Addr paddr)
    {
        if (Line* line = find(paddr))
            *line = Line{};
    }

    void
    flushAll()
    {
        for (Line& line : lines_)
            line = Line{};
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t setOf(Addr paddr) const
    {
        return (paddr / kCacheLineBytes) % sets_;
    }
    Addr tagOf(Addr paddr) const
    {
        return paddr / kCacheLineBytes / sets_;
    }

    Line*
    find(Addr paddr)
    {
        Line* base = &lines_[setOf(paddr) * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == tagOf(paddr))
                return &base[w];
        }
        return nullptr;
    }

    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

} // namespace

TEST(Cache, MissOnCold)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x0, false));
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, HitAfterFill)
{
    Cache c(smallCache());
    c.fill(0x40);
    EXPECT_TRUE(c.access(0x40, false));
    EXPECT_TRUE(c.access(0x7F, false)); // same line
}

TEST(Cache, GeometryDerived)
{
    Cache c(smallCache());
    EXPECT_EQ(c.sets(), 8u);
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache c(smallCache());
    // Three lines mapping to the same set (stride = sets*64 = 512B).
    c.fill(0x000);
    c.fill(0x200);
    EXPECT_TRUE(c.access(0x000, false)); // 0x000 MRU
    c.fill(0x400);                       // evicts 0x200
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_TRUE(c.probe(0x400));
    EXPECT_EQ(c.evictions(), 1u);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(smallCache());
    c.fill(0x000, /*dirty=*/true);
    c.fill(0x200);
    const CacheAccess out = c.fill(0x400);
    ASSERT_TRUE(out.writeback.has_value());
    EXPECT_EQ(*out.writeback, 0x000u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, WriteAccessSetsDirty)
{
    Cache c(smallCache());
    c.fill(0x000);
    EXPECT_TRUE(c.access(0x000, /*is_write=*/true));
    c.fill(0x200);
    const CacheAccess out = c.fill(0x400);
    EXPECT_TRUE(out.writeback.has_value());
}

TEST(Cache, FillOfPresentLineIsHit)
{
    Cache c(smallCache());
    c.fill(0x40);
    const CacheAccess out = c.fill(0x40);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(c.evictions(), 0u);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(smallCache());
    c.fill(0x40);
    c.invalidate(0x40);
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, FlushAllEmpties)
{
    Cache c(smallCache());
    for (Addr a = 0; a < 1024; a += 64)
        c.fill(a);
    c.flushAll();
    for (Addr a = 0; a < 1024; a += 64)
        EXPECT_FALSE(c.probe(a));
}

TEST(Cache, ProbeDoesNotCount)
{
    Cache c(smallCache());
    c.probe(0x40);
    EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(Cache, ResetStatsKeepsContents)
{
    Cache c(smallCache());
    c.fill(0x40);
    c.access(0x40, false);
    c.resetStats();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_TRUE(c.probe(0x40));
}

TEST(Cache, InvalidatedMiddleLineKeepsTrueLruOrder)
{
    // One set of 4 ways: lines fill in order A, B, C, D (A is LRU).
    Cache cache(CacheParams{"t", 256, 4, 1});
    const Addr a = 0x000, b = 0x040, c = 0x080, d = 0x0C0;
    for (Addr line : {a, b, c, d})
        cache.fill(line);
    cache.invalidate(b);   // middle-aged line leaves
    cache.fill(0x100);     // E takes B's way without an eviction
    EXPECT_EQ(cache.evictions(), 0u);
    // Over-fill: the survivors leave oldest first, then E.
    const Addr expectOrder[] = {a, c, d, 0x100};
    Addr next = 0x140;
    for (Addr gone : expectOrder) {
        EXPECT_TRUE(cache.probe(gone));
        cache.fill(next);
        next += kCacheLineBytes;
        EXPECT_FALSE(cache.probe(gone)) << std::hex << gone;
    }
    EXPECT_EQ(cache.evictions(), 4u);
}

// Long runs that never evict must not let the ranks of untouched
// lines run past the 8-bit field: after every run length up to well
// beyond 256, the LRU line is still the next victim.
TEST(Cache, LongHitRunsKeepLruVictim)
{
    // One set of 4 ways holding A, B, C, D (A oldest); then N >= 2
    // hits alternating between B and C. Victims: A, then D.
    for (int n = 2; n < 600; ++n) {
        Cache c(CacheParams{"t", 256, 4, 1});
        for (Addr line : {0x000, 0x040, 0x080, 0x0C0})
            c.fill(line);
        for (int i = 0; i < n; ++i)
            c.access(i % 2 ? 0x080 : 0x040, false);
        c.fill(0x100);
        ASSERT_FALSE(c.probe(0x000)) << "after " << n << " hits";
        c.fill(0x140);
        ASSERT_FALSE(c.probe(0x0C0)) << "after " << n << " hits";
        ASSERT_TRUE(c.probe(0x040) && c.probe(0x080));
    }
}

TEST(Cache, LongInvalidateFillRunsKeepLruVictim)
{
    // One set of 4 ways holding A, B, C, D (A oldest); then N times
    // invalidate the MRU line and fill a new one into its way.
    for (int n = 0; n < 600; ++n) {
        Cache c(CacheParams{"t", 256, 4, 1});
        for (Addr line : {0x000, 0x040, 0x080, 0x0C0})
            c.fill(line);
        Addr mru = 0x0C0;
        for (int i = 0; i < n; ++i) {
            c.invalidate(mru);
            mru = (4 + i) * kCacheLineBytes;
            c.fill(mru);
        }
        ASSERT_EQ(c.evictions(), 0u);
        c.fill(0x10000);
        ASSERT_FALSE(c.probe(0x000)) << "after " << n << " refills";
        ASSERT_TRUE(c.probe(0x040) && c.probe(mru));
    }
}

TEST(Cache, FlushGenerationWrapLeavesCacheEmpty)
{
    // The flush generation is 16 bits: more than 65,536 flushes wrap
    // it, and no line filled before the wrap may come back valid.
    Cache c(smallCache());
    const Addr span = c.sets() * 2 * kCacheLineBytes;
    for (Addr a = 0; a < span; a += kCacheLineBytes)
        c.fill(a, /*dirty=*/true);
    for (int i = 0; i < 70000; ++i) {
        c.flushAll();
        for (Addr a = 0; a < span; a += kCacheLineBytes)
            ASSERT_FALSE(c.probe(a)) << "flush " << i << " line " << a;
        if (i % 997 == 0) {
            ASSERT_FALSE(c.fill((i % 16) * kCacheLineBytes).hit);
        }
    }
    c.resetStats();
    for (Addr a = 0; a < span; a += kCacheLineBytes)
        EXPECT_FALSE(c.fill(a).writeback.has_value());
    for (Addr a = 0; a < span; a += kCacheLineBytes)
        EXPECT_TRUE(c.access(a, false));
    EXPECT_EQ(c.evictions(), 0u);
    EXPECT_EQ(c.hits(), span / kCacheLineBytes);
}

// Seeded differential test: random access/fill/invalidate/probe/flush
// sequences must give the same hits, misses, evictions and writeback
// addresses as the global-clock reference model.
class CacheDifferential
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{
};

TEST_P(CacheDifferential, MatchesGlobalClockLru)
{
    const auto [size, ways] = GetParam();
    // Uniform draws over three times the capacity give conflict
    // evictions; the skewed mix (hot = 0.9) sends 90% of operations
    // to two hot lines per set, so cold lines sit unused through long
    // runs of hits.
    for (const double hot : {0.0, 0.9}) {
        for (const std::uint64_t seed : {1u, 7u, 42u}) {
            SCOPED_TRACE(testing::Message()
                         << "hot " << hot << " seed " << seed);
            Cache c(CacheParams{"d", size, ways, 1});
            ClockLruCache ref(size, ways);
            Rng rng(seed);
            const std::uint64_t span = 3 * size / kCacheLineBytes;
            const std::uint64_t hotSpan = 2 * c.sets();
            for (int op = 0; op < 20000; ++op) {
                const std::uint64_t line = rng.chance(hot)
                                               ? rng.below(hotSpan)
                                               : rng.below(span);
                const Addr paddr =
                    line * kCacheLineBytes + rng.below(kCacheLineBytes);
                // About five flushes per sequence; otherwise 40%
                // accesses, 40% fills, 10% invalidates, 10% probes.
                const std::uint64_t kind = rng.below(10);
                if (rng.below(4000) == 0) {
                    c.flushAll();
                    ref.flushAll();
                } else if (kind < 4) {
                    const bool write = rng.chance(0.3);
                    ASSERT_EQ(c.access(paddr, write),
                              ref.access(paddr, write))
                        << "op " << op;
                } else if (kind < 8) {
                    const bool dirty = rng.chance(0.3);
                    const CacheAccess got = c.fill(paddr, dirty);
                    const CacheAccess want = ref.fill(paddr, dirty);
                    ASSERT_EQ(got.hit, want.hit) << "op " << op;
                    ASSERT_EQ(got.writeback, want.writeback)
                        << "op " << op;
                } else if (kind < 9) {
                    c.invalidate(paddr);
                    ref.invalidate(paddr);
                } else {
                    ASSERT_EQ(c.probe(paddr), ref.probe(paddr))
                        << "op " << op;
                }
            }
            EXPECT_EQ(c.hits(), ref.hits);
            EXPECT_EQ(c.misses(), ref.misses);
            EXPECT_EQ(c.evictions(), ref.evictions);
            EXPECT_EQ(c.writebacks(), ref.writebacks);
            EXPECT_GT(c.evictions(), 0u);
            EXPECT_GT(c.writebacks(), 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(
        std::pair<std::uint64_t, std::uint32_t>{1024, 2}, // 8 sets x 2
        std::pair<std::uint64_t, std::uint32_t>{512, 8},  // 1 set x 8
        std::pair<std::uint64_t, std::uint32_t>{4096, 16})); // 4 x 16

TEST(CacheDeath, NonPowerOfTwoSetsPanics)
{
    EXPECT_DEATH(Cache(CacheParams{"bad", 192, 1, 1}),
                 "power of two");
}

TEST(CacheDeath, TagBeyond32BitsPanics)
{
    Cache c(smallCache());
    EXPECT_DEATH(c.fill(Addr{1} << 44),
                 "t: address 0x100000000000 has a tag beyond 32 bits");
}

// Property sweep: for several geometries, a working set equal to the
// capacity must fully hit on a second pass (true LRU, no thrash).
class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{
};

TEST_P(CacheGeometry, CapacityWorkingSetFullyHits)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheParams{"p", size, ways, 1});
    const std::uint64_t lines = size / kCacheLineBytes;
    for (std::uint64_t i = 0; i < lines; ++i)
        c.fill(i * kCacheLineBytes);
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(i * kCacheLineBytes, false));
    EXPECT_EQ(c.evictions(), 0u);
}

TEST_P(CacheGeometry, OverCapacityEvicts)
{
    const auto [size, ways] = GetParam();
    Cache c(CacheParams{"p", size, ways, 1});
    const std::uint64_t lines = size / kCacheLineBytes;
    for (std::uint64_t i = 0; i < lines * 2; ++i)
        c.fill(i * kCacheLineBytes);
    EXPECT_EQ(c.evictions(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair<std::uint64_t, std::uint32_t>{1024, 1},
                      std::pair<std::uint64_t, std::uint32_t>{1024, 2},
                      std::pair<std::uint64_t, std::uint32_t>{4096, 4},
                      std::pair<std::uint64_t, std::uint32_t>{32768, 8},
                      std::pair<std::uint64_t, std::uint32_t>{65536,
                                                              16}));
