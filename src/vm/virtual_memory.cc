#include "virtual_memory.hh"

#include <algorithm>
#include <numeric>

namespace qei {

FrameAllocator::FrameAllocator(std::uint64_t total_frames, Mode mode,
                               std::uint64_t seed)
    : totalFrames_(total_frames), mode_(mode)
{
    // Fragmented mode shuffles frames lazily, one block at a time, so
    // a 64 GB memory does not need a 16M-entry shuffle up front.
    if (mode_ == Mode::Fragmented)
        rngSeed_ = seed;
}

Addr
FrameAllocator::allocate()
{
    simAssert(allocatedCount_ < totalFrames_,
              "out of physical frames ({} used)", allocatedCount_);
    ++allocatedCount_;
    if (mode_ == Mode::Contiguous)
        return nextSequential_++;

    if (shuffledNext_ >= shuffled_.size()) {
        // Refill: shuffle the next block of frame numbers.
        constexpr std::uint64_t kBlock = 1 << 16;
        const std::uint64_t base = nextSequential_;
        const std::uint64_t count =
            std::min<std::uint64_t>(kBlock, totalFrames_ - base);
        simAssert(count > 0, "frame allocator refill underflow");
        shuffled_.resize(count);
        std::iota(shuffled_.begin(), shuffled_.end(), base);
        Rng rng(rngSeed_ + base);
        for (std::size_t i = count; i > 1; --i)
            std::swap(shuffled_[i - 1], shuffled_[rng.below(i)]);
        shuffledNext_ = 0;
        nextSequential_ = base + count;
    }
    return shuffled_[shuffledNext_++];
}

VirtualMemory::VirtualMemory(SimMemory& memory, FrameAllocator::Mode mode,
                             std::uint64_t seed)
    : SimObject("vm"), memory_(memory),
      frames_(memory.sizeBytes() / kPageBytes, mode, seed)
{
}

Addr
VirtualMemory::alloc(std::uint64_t bytes, std::uint64_t align)
{
    simAssert(bytes > 0, "zero-byte allocation");
    simAssert(isPowerOfTwo(align), "alignment {} not a power of two",
              align);
    brk_ = (brk_ + align - 1) & ~(align - 1);
    const Addr base = brk_;
    brk_ += bytes;
    ensureMapped(base, bytes);
    return base;
}

void
VirtualMemory::ensureMapped(Addr vaddr, std::uint64_t bytes)
{
    // The heap only grows, so every page below the watermark
    // (heapPages_.size()) is mapped already, or was skipped by an
    // over-page alignment and stays a hole.
    const Addr heapVpn = pageNumber(kHeapBase);
    const Addr first = pageNumber(vaddr) - heapVpn;
    const Addr last = pageNumber(vaddr + bytes - 1) - heapVpn;
    if (heapPages_.size() < first)
        heapPages_.resize(first);
    for (Addr i = heapPages_.size(); i <= last; ++i) {
        const Addr pfn = frames_.allocate();
        pageTable_.map(heapVpn + i, pfn);
        heapPages_.push_back({pfn, memory_.frameBytes(pfn)});
    }
}

Addr
VirtualMemory::translate(Addr vaddr) const
{
    auto paddr = tryTranslate(vaddr);
    simAssert(paddr.has_value(), "unmapped virtual address {:#x}", vaddr);
    return *paddr;
}

std::optional<Addr>
VirtualMemory::tryTranslate(Addr vaddr) const
{
    if (const HeapPage* page = heapPage(vaddr))
        return page->pfn * kPageBytes + pageOffset(vaddr);
    auto pfn = pageTable_.lookup(pageNumber(vaddr));
    if (!pfn)
        return std::nullopt;
    return *pfn * kPageBytes + pageOffset(vaddr);
}

void
VirtualMemory::readBytes(Addr vaddr, void* out, std::size_t len) const
{
    auto* dst = static_cast<std::uint8_t*>(out);
    while (len > 0) {
        const std::uint32_t off = pageOffset(vaddr);
        const std::size_t chunk =
            std::min<std::size_t>(len, kPageBytes - off);
        if (const std::uint8_t* host = hostBytes(vaddr, chunk))
            std::memcpy(dst, host, chunk);
        else
            memory_.read(translate(vaddr), dst, chunk);
        dst += chunk;
        vaddr += chunk;
        len -= chunk;
    }
}

void
VirtualMemory::writeBytes(Addr vaddr, const void* src, std::size_t len)
{
    const auto* from = static_cast<const std::uint8_t*>(src);
    while (len > 0) {
        const std::uint32_t off = pageOffset(vaddr);
        const std::size_t chunk =
            std::min<std::size_t>(len, kPageBytes - off);
        if (std::uint8_t* host = hostBytes(vaddr, chunk))
            std::memcpy(host, from, chunk);
        else
            memory_.write(translate(vaddr), from, chunk);
        from += chunk;
        vaddr += chunk;
        len -= chunk;
    }
}

} // namespace qei
