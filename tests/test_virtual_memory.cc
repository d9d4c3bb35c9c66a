#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "vm/virtual_memory.hh"

using namespace qei;

namespace {

SimMemory&
sharedMemory()
{
    static SimMemory mem(1ULL << 32);
    return mem;
}

} // namespace

TEST(VirtualMemory, AllocRespectsAlignment)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(10, 8);
    const Addr b = vm.alloc(10, 64);
    const Addr c = vm.alloc(10, 4096);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(c % 4096, 0u);
}

TEST(VirtualMemory, AllocationsDoNotOverlap)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(100);
    const Addr b = vm.alloc(100);
    EXPECT_GE(b, a + 100);
}

TEST(VirtualMemory, ReadWriteThroughTranslation)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(4096 * 3);
    // Spans multiple (scattered) physical pages.
    std::vector<std::uint8_t> pattern(4096 * 3);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7);
    vm.writeBytes(a, pattern.data(), pattern.size());
    std::vector<std::uint8_t> out(pattern.size());
    vm.readBytes(a, out.data(), out.size());
    EXPECT_EQ(pattern, out);
}

TEST(VirtualMemory, FragmentedModeScattersFrames)
{
    SimMemory mem(1 << 28);
    VirtualMemory vm(mem, FrameAllocator::Mode::Fragmented, 3);
    const Addr base = vm.alloc(kPageBytes * 16, kPageBytes);
    bool contiguous = true;
    Addr prev = vm.translate(base);
    for (int p = 1; p < 16; ++p) {
        const Addr cur = vm.translate(base + p * kPageBytes);
        if (cur != prev + kPageBytes)
            contiguous = false;
        prev = cur;
    }
    EXPECT_FALSE(contiguous)
        << "fragmented allocator produced a contiguous mapping";
}

TEST(VirtualMemory, ContiguousModeIsContiguous)
{
    SimMemory mem(1 << 28);
    VirtualMemory vm(mem, FrameAllocator::Mode::Contiguous);
    const Addr base = vm.alloc(kPageBytes * 16, kPageBytes);
    for (int p = 1; p < 16; ++p) {
        EXPECT_EQ(vm.translate(base + p * kPageBytes),
                  vm.translate(base) + static_cast<Addr>(p) *
                                           kPageBytes);
    }
}

TEST(VirtualMemory, TranslatePreservesPageOffset)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(100, 8);
    EXPECT_EQ(pageOffset(vm.translate(a)), pageOffset(a));
}

TEST(VirtualMemory, TryTranslateUnmappedIsNull)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    EXPECT_FALSE(vm.tryTranslate(0x10).has_value());
    EXPECT_FALSE(vm.tryTranslate(VirtualMemory::kHeapBase +
                                 (1ULL << 33))
                     .has_value());
}

TEST(VirtualMemory, NullAddressNeverMapped)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    vm.alloc(1 << 20);
    EXPECT_FALSE(vm.tryTranslate(kNullAddr).has_value());
}

TEST(VirtualMemory, FramesNeverReused)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    std::set<Addr> frames;
    const Addr base = vm.alloc(kPageBytes * 64, kPageBytes);
    for (int p = 0; p < 64; ++p)
        frames.insert(pageNumber(vm.translate(base + p * kPageBytes)));
    EXPECT_EQ(frames.size(), 64u);
}

TEST(VirtualMemory, BytesAllocatedTracksBrk)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    vm.alloc(100, 8);
    EXPECT_GE(vm.bytesAllocated(), 100u);
}

TEST(VirtualMemory, TypedAccessAtPageEnd)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr base = vm.alloc(kPageBytes * 2, kPageBytes);
    const Addr last = base + kPageBytes - 8;
    vm.write<std::uint64_t>(last, 0x0102030405060708ULL);
    EXPECT_EQ(vm.read<std::uint64_t>(last), 0x0102030405060708ULL);
    // The value lands in the first page's frame, not the second's.
    EXPECT_EQ(mem.read<std::uint64_t>(vm.translate(last)),
              0x0102030405060708ULL);
    EXPECT_EQ(vm.read<std::uint64_t>(base + kPageBytes), 0u);
}

TEST(VirtualMemory, TypedAccessStraddlingPages)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr base = vm.alloc(kPageBytes * 2, kPageBytes);
    const Addr at = base + kPageBytes - 3; // 3 bytes here, 5 next page
    vm.write<std::uint64_t>(at, 0x1122334455667788ULL);
    EXPECT_EQ(vm.read<std::uint64_t>(at), 0x1122334455667788ULL);
    // Each part sits in its own (scattered) frame.
    const Addr head = vm.translate(at);
    const Addr tail = vm.translate(base + kPageBytes);
    ASSERT_NE(pageNumber(head) + 1, pageNumber(tail));
    std::uint8_t bytes[8];
    mem.read(head, bytes, 3);
    mem.read(tail, bytes + 3, 5);
    std::uint64_t joined;
    std::memcpy(&joined, bytes, 8);
    EXPECT_EQ(joined, 0x1122334455667788ULL);
}

TEST(VirtualMemory, ByteRoundTripAcrossThreePages)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr base = vm.alloc(kPageBytes * 3, kPageBytes);
    // Starts mid-page and ends mid-page: three partial chunks.
    const Addr start = base + 100;
    std::vector<std::uint8_t> pattern(2 * kPageBytes + 200);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 13 + 5);
    vm.writeBytes(start, pattern.data(), pattern.size());
    std::vector<std::uint8_t> out(pattern.size());
    vm.readBytes(start, out.data(), out.size());
    EXPECT_EQ(out, pattern);
    for (std::size_t i = 0; i < pattern.size(); i += 509) {
        EXPECT_EQ(mem.read<std::uint8_t>(vm.translate(start + i)),
                  pattern[i])
            << "byte " << i;
    }
    // Bytes outside the written range stay zero.
    EXPECT_EQ(vm.read<std::uint8_t>(start - 1), 0u);
    EXPECT_EQ(vm.read<std::uint8_t>(start + pattern.size()), 0u);
}

TEST(VirtualMemory, OverPageAlignmentLeavesHoleUnmapped)
{
    SimMemory mem(1 << 26);
    VirtualMemory vm(mem);
    const Addr a = vm.alloc(16);
    const Addr b = vm.alloc(16, 4 * kPageBytes);
    ASSERT_GE(b - a, 2 * kPageBytes);
    EXPECT_FALSE(vm.tryTranslate(a + kPageBytes).has_value());
    vm.write<std::uint64_t>(b, 42);
    EXPECT_EQ(vm.read<std::uint64_t>(b), 42u);
    const Addr c = vm.alloc(kPageBytes); // follows b, no new hole
    vm.write<std::uint64_t>(c, 43);
    EXPECT_EQ(vm.read<std::uint64_t>(c), 43u);
    EXPECT_EQ(vm.pageTable().size(), 3u);
}

TEST(VirtualMemoryDeath, TranslateUnmappedPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    EXPECT_DEATH((void)vm.translate(0x20), "unmapped");
}

TEST(VirtualMemoryDeath, ZeroAllocPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    EXPECT_DEATH((void)vm.alloc(0), "zero-byte");
}

TEST(VirtualMemoryDeath, BadAlignmentPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    EXPECT_DEATH((void)vm.alloc(8, 3), "power of two");
}

TEST(VirtualMemoryDeath, UnmappedHeapAccessPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    const Addr mapped = vm.alloc(64, kPageBytes);
    const Addr beyond = mapped + 4 * kPageBytes; // past the watermark
    std::uint8_t buf[16];
    EXPECT_DEATH((void)vm.read<std::uint64_t>(beyond),
                 "unmapped virtual address");
    EXPECT_DEATH(vm.write<std::uint64_t>(beyond, 1),
                 "unmapped virtual address");
    EXPECT_DEATH(vm.readBytes(beyond, buf, sizeof(buf)),
                 "unmapped virtual address");
    // A copy running off the last mapped page panics on the next one.
    EXPECT_DEATH(vm.readBytes(mapped + kPageBytes - 8, buf, sizeof(buf)),
                 "unmapped virtual address");
}

TEST(VirtualMemoryDeath, AccessBelowHeapPanics)
{
    SimMemory& mem = sharedMemory();
    VirtualMemory vm(mem);
    vm.alloc(64);
    const Addr below = VirtualMemory::kHeapBase - 8;
    std::uint8_t buf[16];
    EXPECT_DEATH((void)vm.read<std::uint64_t>(below),
                 "unmapped virtual address");
    EXPECT_DEATH(vm.write<std::uint64_t>(below, 1),
                 "unmapped virtual address");
    EXPECT_DEATH(vm.readBytes(below, buf, sizeof(buf)),
                 "unmapped virtual address");
    EXPECT_DEATH((void)vm.read<std::uint32_t>(0x40),
                 "unmapped virtual address");
}
