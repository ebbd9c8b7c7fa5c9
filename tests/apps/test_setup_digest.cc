/**
 * @file
 * Set-up outputs pinned by digest.
 *
 * Every application's init() (Application::setup) builds tables in
 * the data region outside selective accounting; the generators and
 * the TSA precomputation feed those builds.  Changing how any of them
 * is computed must not change a single byte of what they produce, so
 * this file hashes each output and compares it against constants
 * computed at commit 02e79ea, before the set-up path was reworked to
 * commit simulated memory lazily, build the TSA top table from one
 * flip bit per (level, path), deduplicate generated prefixes with a
 * hash set and place table images with one bulk write.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/experiments.hh"
#include "anon/tsa.hh"
#include "route/prefix.hh"
#include "sim/memory.hh"

namespace
{

using namespace pb;

/** FNV-1a, 64-bit: a stable digest independent of library hashes. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const uint8_t *p, size_t n)
    {
        for (size_t i = 0; i < n; i++) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    word(uint32_t v)
    {
        const uint8_t b[4] = {static_cast<uint8_t>(v),
                              static_cast<uint8_t>(v >> 8),
                              static_cast<uint8_t>(v >> 16),
                              static_cast<uint8_t>(v >> 24)};
        bytes(b, sizeof(b));
    }
};

uint64_t
tableDigest(const std::vector<route::RouteEntry> &table)
{
    Digest d;
    d.word(static_cast<uint32_t>(table.size()));
    for (const route::RouteEntry &e : table) {
        d.word(e.prefix);
        d.word(e.len);
        d.word(e.nextHop);
    }
    return d.h;
}

struct AppDigest
{
    an::AppKind kind;
    uint32_t lo; ///< data-region dirty extent, offsets from its base
    uint32_t hi;
    uint64_t digest; ///< over the extent, then the bytes inside it
};

const AppDigest appDigests[] = {
    {an::AppKind::Ipv4Radix, 0, 4218640, 0xaf759c9e86f06f3cull},
    {an::AppKind::Ipv4Trie, 0, 61136, 0x077a7cdcf889af86ull},
    {an::AppKind::FlowClass, 0, 8, 0x3fedd3103a76e64dull},
    {an::AppKind::Tsa, 0, 139272, 0xde316086c6e6fd37ull},
    {an::AppKind::Crc32, 0, 1028, 0x4e5acd4640954e9dull},
    {an::AppKind::XteaEnc, 0, 16, 0xcf5448b7ab96f795ull},
    {an::AppKind::Nat, 0, 12, 0xdfdeb95f3cb4d0a7ull},
};

TEST(SetupDigest, EveryAppDataRegionMatches)
{
    static_assert(std::size(appDigests) == std::size(an::extendedAppKinds));
    an::ExperimentConfig cfg;
    for (const AppDigest &want : appDigests) {
        SCOPED_TRACE(an::appTitle(want.kind));
        auto app = an::makeApp(want.kind, cfg);
        sim::Memory mem;
        app->setup(mem);
        auto [lo, hi] = mem.dirtyExtent(sim::MemRegion::Data);
        EXPECT_EQ(lo, want.lo);
        EXPECT_EQ(hi, want.hi);
        ASSERT_LT(lo, hi);
        std::vector<uint8_t> bytes(hi - lo);
        mem.readBlock(sim::layout::dataBase + lo, bytes.data(),
                      hi - lo);
        Digest d;
        d.word(lo);
        d.word(hi);
        d.bytes(bytes.data(), bytes.size());
        EXPECT_EQ(d.h, want.digest) << std::hex << "0x" << d.h;
    }
}

TEST(SetupDigest, GeneratedRouteTablesMatch)
{
    an::ExperimentConfig cfg;
    auto core = route::generateCoreTable(32768, 1);
    EXPECT_EQ(core.size(), 32768u + 257u);
    EXPECT_EQ(tableDigest(core), 0x2742faa4e57df6dbull)
        << std::hex << "0x" << tableDigest(core);

    auto small =
        route::generateSmallTable(cfg.smallTablePrefixes, cfg.tableSeed);
    EXPECT_EQ(small.size(), cfg.smallTablePrefixes + 1u);
    EXPECT_EQ(tableDigest(small), 0x6d47709537ebebf7ull)
        << std::hex << "0x" << tableDigest(small);
}

TEST(SetupDigest, TsaTopTableMatches)
{
    const struct
    {
        uint32_t key;
        uint64_t digest;
    } cases[] = {
        {an::ExperimentConfig{}.tsaKey, 0x5fdfc4fdee2af891ull},
        {0x12345678u, 0x1033620fc23531d9ull},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.key);
        anon::TsaAnonymizer tsa(c.key);
        const std::vector<uint16_t> &top = tsa.topTable();
        ASSERT_EQ(top.size(), anon::tsalayout::topEntries);
        Digest d;
        for (uint16_t v : top)
            d.word(v);
        EXPECT_EQ(d.h, c.digest) << std::hex << "0x" << d.h;
    }
}

} // namespace
