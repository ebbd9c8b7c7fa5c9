/**
 * @file
 * Simulated memory tests: regions, widths, endianness, bounds, lazily
 * committed backing pages, and in-place builds.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "isa/assembler.hh"
#include "sim/accounting.hh"
#include "sim/bblock.hh"
#include "sim/memory.hh"

namespace
{

using namespace pb;
using namespace pb::sim;
using namespace pb::sim::layout;

TEST(Memory, RegionClassification)
{
    Memory mem;
    EXPECT_EQ(mem.classify(textBase), MemRegion::Text);
    EXPECT_EQ(mem.classify(textBase + textSize - 1), MemRegion::Text);
    EXPECT_EQ(mem.classify(dataBase), MemRegion::Data);
    EXPECT_EQ(mem.classify(packetBase + 100), MemRegion::Packet);
    EXPECT_EQ(mem.classify(stackTop), MemRegion::Stack);
    EXPECT_EQ(mem.classify(0), MemRegion::Unmapped);
    EXPECT_EQ(mem.classify(textBase + textSize), MemRegion::Unmapped);
    EXPECT_EQ(mem.classify(0xffffffff), MemRegion::Unmapped);
}

TEST(Memory, NonPacketDataPredicate)
{
    EXPECT_TRUE(isNonPacketData(MemRegion::Data));
    EXPECT_TRUE(isNonPacketData(MemRegion::Stack));
    EXPECT_FALSE(isNonPacketData(MemRegion::Packet));
    EXPECT_FALSE(isNonPacketData(MemRegion::Text));
}

TEST(Memory, ReadWriteWidthsLittleEndian)
{
    Memory mem;
    mem.write32(dataBase, 0x11223344);
    EXPECT_EQ(mem.read8(dataBase), 0x44);
    EXPECT_EQ(mem.read8(dataBase + 3), 0x11);
    EXPECT_EQ(mem.read16(dataBase), 0x3344);
    EXPECT_EQ(mem.read16(dataBase + 2), 0x1122);
    EXPECT_EQ(mem.read32(dataBase), 0x11223344u);

    mem.write16(dataBase + 4, 0xbeef);
    EXPECT_EQ(mem.read8(dataBase + 4), 0xef);
    mem.write8(dataBase + 6, 0x7f);
    EXPECT_EQ(mem.read8(dataBase + 6), 0x7f);
}

TEST(Memory, FreshMemoryIsZero)
{
    Memory mem;
    EXPECT_EQ(mem.read32(dataBase + 1024), 0u);
    EXPECT_EQ(mem.read8(packetBase), 0u);
}

TEST(Memory, BlockCopyRoundTrip)
{
    Memory mem;
    uint8_t src[37];
    for (size_t i = 0; i < sizeof(src); i++)
        src[i] = static_cast<uint8_t>(i * 3 + 1);
    mem.writeBlock(packetBase + 5, src, sizeof(src));
    uint8_t dst[37] = {};
    mem.readBlock(packetBase + 5, dst, sizeof(dst));
    EXPECT_EQ(std::memcmp(src, dst, sizeof(src)), 0);
}

TEST(Memory, FillAndReset)
{
    Memory mem;
    mem.fill(dataBase, 16, 0xaa);
    EXPECT_EQ(mem.read8(dataBase + 15), 0xaa);
    EXPECT_EQ(mem.read8(dataBase + 16), 0x00);
    mem.reset();
    EXPECT_EQ(mem.read8(dataBase + 15), 0x00);
}

TEST(Memory, UnmappedAccessThrows)
{
    Memory mem;
    EXPECT_THROW(mem.read8(0), MemoryError);
    EXPECT_THROW(mem.write32(0xdead0000, 1), MemoryError);
    uint8_t buf[4];
    EXPECT_THROW(mem.readBlock(0x50, buf, 4), MemoryError);
}

TEST(Memory, CrossRegionAccessThrows)
{
    Memory mem;
    // Last byte is fine, one past the end is not.
    EXPECT_NO_THROW(mem.read8(packetBase + packetSize - 1));
    EXPECT_THROW(mem.read8(packetBase + packetSize), MemoryError);
    uint8_t buf[8];
    EXPECT_THROW(mem.readBlock(packetBase + packetSize - 4, buf, 8),
                 MemoryError);
}

TEST(Memory, MisalignedAccessThrows)
{
    Memory mem;
    EXPECT_THROW(mem.read32(dataBase + 2), AlignmentError);
    EXPECT_THROW(mem.read16(dataBase + 1), AlignmentError);
    EXPECT_THROW(mem.write32(dataBase + 1, 0), AlignmentError);
    EXPECT_THROW(mem.write16(dataBase + 3, 0), AlignmentError);
}

TEST(Memory, ZeroLengthBlockOpsAreNoops)
{
    Memory mem;
    EXPECT_NO_THROW(mem.writeBlock(dataBase, nullptr, 0));
    EXPECT_NO_THROW(mem.readBlock(dataBase, nullptr, 0));
    EXPECT_NO_THROW(mem.fill(dataBase, 0));
}

TEST(Memory, FreshRegionsAreClean)
{
    Memory mem;
    for (MemRegion region : {MemRegion::Text, MemRegion::Data,
                             MemRegion::Packet, MemRegion::Stack}) {
        auto [lo, hi] = mem.dirtyExtent(region);
        EXPECT_GE(lo, hi) << static_cast<int>(region);
    }
}

TEST(Memory, DirtyExtentCoversWrites)
{
    Memory mem;
    mem.write32(dataBase + 64, 0x12345678);
    auto [lo, hi] = mem.dirtyExtent(MemRegion::Data);
    EXPECT_EQ(lo, 64u);
    EXPECT_EQ(hi, 68u);

    // The extent widens to the union of all writes, and block ops
    // and fills mark it too.
    mem.write8(dataBase + 8, 0xff);
    uint8_t buf[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    mem.writeBlock(dataBase + 200, buf, sizeof(buf));
    std::tie(lo, hi) = mem.dirtyExtent(MemRegion::Data);
    EXPECT_EQ(lo, 8u);
    EXPECT_EQ(hi, 210u);

    // Reads don't dirty anything.
    auto [plo, phi] = mem.dirtyExtent(MemRegion::Packet);
    mem.read32(packetBase);
    auto [plo2, phi2] = mem.dirtyExtent(MemRegion::Packet);
    EXPECT_EQ(plo, plo2);
    EXPECT_EQ(phi, phi2);
}

TEST(Memory, ResetZeroesOnlyDirtyBytesAndClearsExtent)
{
    Memory mem;
    mem.write32(stackBase + 128, 0xdeadbeef);
    mem.fill(packetBase, 32, 0x55);
    mem.reset();
    EXPECT_EQ(mem.read32(stackBase + 128), 0u);
    EXPECT_EQ(mem.read8(packetBase + 31), 0u);
    for (MemRegion region : {MemRegion::Data, MemRegion::Packet,
                             MemRegion::Stack}) {
        auto [lo, hi] = mem.dirtyExtent(region);
        EXPECT_GE(lo, hi) << static_cast<int>(region);
    }
    // And the memory is writable/readable as usual afterwards.
    mem.write32(dataBase, 42);
    EXPECT_EQ(mem.read32(dataBase), 42u);
}

/** Resident set size of this process in bytes (/proc/self/statm). */
uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t size_pages = 0, resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(Memory, ConstructionCommitsNoPages)
{
    isa::Program prog =
        isa::Assembler(textBase).assemble("main: sys 0", "lazy");
    BlockMap blocks(prog);
    uint64_t before = residentBytes();
    ASSERT_GT(before, 0u) << "no /proc/self/statm";

    // Eight machines, as many as the paper mix builds.  A store that
    // zero-fills its regions and footprint bitmaps up front commits
    // about 130 MiB here.
    std::vector<std::unique_ptr<Memory>> mems;
    std::vector<std::unique_ptr<PacketRecorder>> recs;
    for (int i = 0; i < 8; i++) {
        mems.push_back(std::make_unique<Memory>());
        recs.push_back(std::make_unique<PacketRecorder>(prog, blocks));
    }
    uint64_t after = residentBytes();
    uint64_t grown = after > before ? after - before : 0;
    EXPECT_LT(grown, 4u << 20) << grown << " bytes became resident";
}

TEST(Memory, UntouchedRegionEndsReadZero)
{
    Memory mem;
    for (unsigned r = 0; r < numRegions; r++) {
        EXPECT_EQ(mem.read8(regionBase[r]), 0u) << r;
        EXPECT_EQ(mem.read8(regionBase[r] + regionSize[r] - 1), 0u) << r;
    }
}

TEST(Memory, WriteWordsMatchesWrite32)
{
    const uint32_t words[] = {0x11223344, 0xdeadbeef, 0, 0x80000001};
    Memory bulk, single;
    bulk.writeWords(dataBase + 256, words, 4);
    for (uint32_t i = 0; i < 4; i++)
        single.write32(dataBase + 256 + i * 4, words[i]);
    for (uint32_t off = 252; off < 276; off++)
        EXPECT_EQ(bulk.read8(dataBase + off), single.read8(dataBase + off))
            << off;
    EXPECT_EQ(bulk.dirtyExtent(MemRegion::Data),
              single.dirtyExtent(MemRegion::Data));

    EXPECT_THROW(bulk.writeWords(dataBase + 2, words, 1), AlignmentError);
    EXPECT_THROW(bulk.writeWords(packetBase + packetSize - 8, words, 4),
                 MemoryError);
    EXPECT_NO_THROW(bulk.writeWords(dataBase, nullptr, 0));
}

TEST(Memory, BuildInPlaceCommitsOnlyUsedBytes)
{
    Memory mem;
    uint32_t used = mem.buildInPlace(
        dataBase + 64, 4096, [](std::span<uint8_t> out) {
            EXPECT_EQ(out.size(), 4096u);
            for (uint32_t i = 0; i < 100; i++)
                out[i] = static_cast<uint8_t>(i + 1);
            return 100u;
        });
    EXPECT_EQ(used, 100u);
    EXPECT_EQ(mem.dirtyExtent(MemRegion::Data),
              std::make_pair(64u, 164u));
    EXPECT_EQ(mem.read8(dataBase + 64), 1u);
    EXPECT_EQ(mem.read8(dataBase + 163), 100u);
    mem.reset();
    EXPECT_EQ(mem.read8(dataBase + 163), 0u);

    // A build that throws leaves the whole span dirty, so reset()
    // still clears whatever it wrote.
    EXPECT_THROW(mem.buildInPlace(dataBase, 256,
                                  [](std::span<uint8_t> out) -> uint32_t {
                                      out[255] = 7;
                                      throw std::runtime_error("full");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(mem.dirtyExtent(MemRegion::Data),
              std::make_pair(0u, 256u));
    mem.reset();
    EXPECT_EQ(mem.read8(dataBase + 255), 0u);

    // The span is bounds-checked like any host-side write.
    EXPECT_THROW(mem.buildInPlace(dataBase + dataSize - 8, 16,
                                  [](std::span<uint8_t>) { return 0u; }),
                 MemoryError);
}

TEST(Memory, FootprintMarksAcrossBitmapPageBoundary)
{
    isa::Program prog =
        isa::Assembler(textBase).assemble("main: sys 0", "lazy");
    BlockMap blocks(prog);
    PacketRecorder rec(prog, blocks);

    // One bitmap page covers 8 bits per byte of page.
    const uint32_t boundary =
        dataBase + static_cast<uint32_t>(sysconf(_SC_PAGESIZE)) * 8;
    rec.beginPacket();
    for (int pass = 0; pass < 2; pass++) {
        rec.onMemAccess({boundary - 4, 4, false, MemRegion::Data});
        rec.onMemAccess({boundary, 4, true, MemRegion::Data});
    }
    rec.endPacket();
    EXPECT_EQ(rec.dataMemoryBytes(), 8u);
}

} // namespace
