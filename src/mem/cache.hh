/**
 * @file
 * Set-associative write-back cache timing/state model.
 *
 * Tag-array only: data always lives in SimMemory (single coherence
 * domain, one writer at a time), so the model tracks presence, dirty
 * bits, and true LRU order per set.
 *
 * A line is 8 bytes: a 32-bit tag, the flush generation it was filled
 * in (valid iff it equals the cache's current one, so flushAll is one
 * increment), its LRU rank within the set (0 = MRU; the valid lines
 * of a set always hold ranks 0..k-1) and a dirty bit.
 */

#ifndef QEI_MEM_CACHE_HH
#define QEI_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/sim_object.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace qei {

/** Cache geometry and latency. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 8;
    Cycles accessLatency = 4;
};

/** Result of a cache access or fill. */
struct CacheAccess
{
    bool hit = false;
    /** Physical line address of a dirty victim, if one was evicted. */
    std::optional<Addr> writeback;
};

/** One set-associative cache level. */
class Cache : public SimObject
{
  public:
    explicit Cache(const CacheParams& params);

    void regStats(StatsRegistry& registry) override;

    /**
     * Access the line containing @p paddr; on a miss the line is NOT
     * filled automatically (callers fill on response to model
     * allocate-on-fill).
     */
    bool access(Addr paddr, bool is_write);

    /** Probe without updating LRU or stats. */
    bool probe(Addr paddr) const;

    /** Insert the line containing @p paddr; returns any dirty victim. */
    CacheAccess fill(Addr paddr, bool dirty = false);

    /** Drop the line containing @p paddr if present. */
    void invalidate(Addr paddr);

    /** Drop everything (used between independent experiments). */
    void flushAll();

    /** Zero the hit/miss/eviction counters (fresh measurement). */
    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
        evictions_.reset();
        writebacks_.reset();
    }

    const CacheParams& params() const { return params_; }
    Cycles latency() const { return params_.accessLatency; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    double
    hitRate() const
    {
        const auto total = hits_.value() + misses_.value();
        return total ? static_cast<double>(hits_.value()) / total : 0.0;
    }

    std::uint32_t sets() const { return sets_; }

  private:
    struct Line
    {
        std::uint32_t tag = 0;
        std::uint16_t gen = 0; ///< 0 never matches gen_: invalid
        std::uint8_t age = 0;  ///< LRU rank in the set, 0 = MRU
        bool dirty = false;
    };
    static_assert(sizeof(Line) == 8);

    std::uint32_t setIndex(Addr paddr) const;
    std::uint32_t tagOf(Addr paddr) const;
    Line*
    setBase(std::uint32_t set)
    {
        return &lines_[static_cast<std::size_t>(set) * params_.ways];
    }
    bool valid(const Line& line) const { return line.gen == gen_; }
    /** Make @p line the set's MRU; lines younger than it age by one. */
    void touch(Line* base, Line& line);

    CacheParams params_;
    std::uint32_t sets_;
    std::vector<Line> lines_; ///< sets_ * ways, row-major by set
    std::uint16_t gen_ = 1;   ///< current flush generation, never 0

    Counter hits_;
    Counter misses_;
    Counter evictions_;
    Counter writebacks_;
};

} // namespace qei

#endif // QEI_MEM_CACHE_HH
