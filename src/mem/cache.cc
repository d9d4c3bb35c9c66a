#include "cache.hh"

#include <algorithm>
#include <limits>

namespace qei {

Cache::Cache(const CacheParams& params)
    : SimObject(params.name), params_(params)
{
    const std::uint64_t lines = params_.sizeBytes / kCacheLineBytes;
    simAssert(lines >= params_.ways && params_.ways > 0,
              "{}: bad geometry ({} B, {} ways)", params_.name,
              params_.sizeBytes, params_.ways);
    simAssert(params_.ways <= 256, "{}: {} ways exceed the 8-bit LRU rank",
              params_.name, params_.ways);
    sets_ = static_cast<std::uint32_t>(lines / params_.ways);
    simAssert(isPowerOfTwo(sets_), "{}: set count {} not a power of two",
              params_.name, sets_);
    lines_.resize(static_cast<std::size_t>(sets_) * params_.ways);
}

void
Cache::regStats(StatsRegistry& registry)
{
    const std::string base = fullPath() + ".";
    registry.addCounter(base + "hits", hits_, "demand hits");
    registry.addCounter(base + "misses", misses_, "demand misses");
    registry.addCounter(base + "evictions", evictions_,
                        "lines evicted");
    registry.addCounter(base + "writebacks", writebacks_,
                        "dirty victims written back");
    registry.addFormula(
        base + "hit_rate", [this] { return hitRate(); },
        "hits / (hits + misses)");
}

std::uint32_t
Cache::setIndex(Addr paddr) const
{
    return static_cast<std::uint32_t>((paddr / kCacheLineBytes) &
                                      (sets_ - 1));
}

std::uint32_t
Cache::tagOf(Addr paddr) const
{
    const Addr tag = (paddr / kCacheLineBytes) / sets_;
    simAssert(tag <= std::numeric_limits<std::uint32_t>::max(),
              "{}: address {:#x} has a tag beyond 32 bits", params_.name,
              paddr);
    return static_cast<std::uint32_t>(tag);
}

void
Cache::touch(Line* base, Line& line)
{
    const std::uint8_t age = line.age;
    if (age == 0)
        return;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (valid(base[w]) && base[w].age < age)
            ++base[w].age;
    }
    line.age = 0;
}

bool
Cache::access(Addr paddr, bool is_write)
{
    const std::uint32_t tag = tagOf(paddr);
    Line* base = setBase(setIndex(paddr));
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line& line = base[w];
        if (valid(line) && line.tag == tag) {
            touch(base, line);
            line.dirty = line.dirty || is_write;
            hits_.inc();
            return true;
        }
    }
    misses_.inc();
    return false;
}

bool
Cache::probe(Addr paddr) const
{
    const std::uint32_t set = setIndex(paddr);
    const std::uint32_t tag = tagOf(paddr);
    const Line* base =
        &lines_[static_cast<std::size_t>(set) * params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (valid(base[w]) && base[w].tag == tag)
            return true;
    }
    return false;
}

CacheAccess
Cache::fill(Addr paddr, bool dirty)
{
    CacheAccess result;
    const std::uint32_t set = setIndex(paddr);
    const std::uint32_t tag = tagOf(paddr);
    Line* base = setBase(set);

    // One pass: the line itself if present, else the victim — the
    // first invalid way, or failing that the LRU (highest-rank) line.
    Line* invalid = nullptr;
    Line* oldest = nullptr;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line& line = base[w];
        if (!valid(line)) {
            if (!invalid)
                invalid = &line;
        } else if (line.tag == tag) {
            // Already present (e.g. racing fills); just refresh.
            touch(base, line);
            line.dirty = line.dirty || dirty;
            result.hit = true;
            return result;
        } else if (!oldest || line.age > oldest->age) {
            oldest = &line;
        }
    }

    Line* victim = invalid ? invalid : oldest;
    if (!invalid) {
        evictions_.inc();
        if (victim->dirty) {
            writebacks_.inc();
            result.writeback =
                (Addr{victim->tag} * sets_ + set) * kCacheLineBytes;
        }
    }
    // Every other valid line ages by one; the filled line is MRU.
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (valid(base[w]))
            ++base[w].age;
    }
    *victim = Line{tag, gen_, 0, dirty};
    return result;
}

void
Cache::invalidate(Addr paddr)
{
    const std::uint32_t tag = tagOf(paddr);
    Line* base = setBase(setIndex(paddr));
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line& line = base[w];
        if (valid(line) && line.tag == tag) {
            // Close the rank gap so ranks stay 0..k-1 and the oldest
            // line keeps the highest one.
            const std::uint8_t age = line.age;
            line = Line{};
            for (std::uint32_t v = 0; v < params_.ways; ++v) {
                if (valid(base[v]) && base[v].age > age)
                    --base[v].age;
            }
            return;
        }
    }
}

void
Cache::flushAll()
{
    // A new generation invalidates every line at once. On wrap, clear
    // the stamps once so no stale line can match a reused generation.
    if (++gen_ == 0) {
        std::fill(lines_.begin(), lines_.end(), Line{});
        gen_ = 1;
    }
}

} // namespace qei
