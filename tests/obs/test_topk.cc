/**
 * @file
 * Space-saving top-K tests: exact tracking of heavy flows on skewed
 * traffic, the est - error <= true <= est bound on adversarial
 * (uniform churn) traffic, the N/capacity inclusion guarantee, and
 * the reporting surface (ordering, truncation, formatting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "obs/topk.hh"

namespace
{

using namespace pb::obs;

FlowId
flowIdFor(uint32_t n)
{
    FlowId id;
    id.src = 0x0a000000u | n;  // 10.0.x.y
    id.dst = 0xc0a80001u;      // 192.168.0.1
    id.srcPort = static_cast<uint16_t>(1024 + n);
    id.dstPort = 80;
    id.proto = 6;
    return id;
}

TEST(FlowTopK, SkewedHeavyHittersAreExact)
{
    FlowTopK topk(8);
    // Four heavy flows, 100 packets each, established first...
    for (int round = 0; round < 100; round++)
        for (uint64_t f = 0; f < 4; f++)
            topk.observe(f, flowIdFor(static_cast<uint32_t>(f)), 64,
                         false);
    // ...then 50 one-packet flows churning the light half of the
    // table.
    for (uint64_t f = 100; f < 150; f++)
        topk.observe(f, flowIdFor(static_cast<uint32_t>(f)), 64,
                     false);

    auto top = topk.top(4);
    ASSERT_EQ(top.size(), 4u);
    for (const auto &e : top) {
        // The heavy flows were never evicted: tracked exactly, with
        // no inherited overcount.
        EXPECT_LT(e.key, 4u);
        EXPECT_EQ(e.packets, 100u);
        EXPECT_EQ(e.error, 0u);
        EXPECT_EQ(e.bytes, 6400u);
        EXPECT_EQ(e.faults, 0u);
    }
    EXPECT_EQ(topk.observedPackets(), 450u);
}

TEST(FlowTopK, AdversarialChurnKeepsErrorBound)
{
    constexpr uint64_t kFlows = 40;
    constexpr int kRounds = 5;
    FlowTopK topk(4);
    std::map<uint64_t, uint64_t> truth;
    // Round-robin over many distinct flows: worst case for a
    // capacity-4 table — every miss evicts and inherits.
    for (int round = 0; round < kRounds; round++) {
        for (uint64_t f = 0; f < kFlows; f++) {
            topk.observe(f, flowIdFor(static_cast<uint32_t>(f)), 64,
                         false);
            truth[f]++;
        }
    }

    auto entries = topk.top();
    ASSERT_LE(entries.size(), 4u);
    for (const auto &e : entries) {
        uint64_t true_count = truth[e.key];
        // The space-saving invariant: the estimate only ever
        // overcounts, and by at most the recorded error.
        EXPECT_GE(e.packets, true_count) << "flow " << e.key;
        EXPECT_LE(e.packets - e.error, true_count)
            << "flow " << e.key;
    }
    EXPECT_EQ(topk.observedPackets(), kFlows * kRounds);
}

TEST(FlowTopK, FlowsAboveThresholdAreAlwaysTracked)
{
    FlowTopK topk(4);
    // 60 of 200 packets belong to flow 999 — far above N/capacity =
    // 50 — interleaved with uniform churn trying to push it out.
    uint64_t next_light = 1000;
    for (int i = 0; i < 200; i++) {
        if (i % 10 < 3) {
            topk.observe(999, flowIdFor(999), 128, false);
        } else {
            topk.observe(next_light,
                         flowIdFor(static_cast<uint32_t>(next_light)),
                         64, false);
            next_light++;
        }
    }
    bool found = false;
    for (const auto &e : topk.top())
        found = found || e.key == 999;
    EXPECT_TRUE(found)
        << "heavy flow evicted despite exceeding N/capacity";
}

TEST(FlowTopK, EvictsAMinimumEntry)
{
    // Brute-force space-saving reference: on a churn stream with a
    // few recurring flows, whenever a new flow arrives at a full
    // table, the entry that leaves must hold the minimum count of the
    // table before the packet, and the newcomer must inherit exactly
    // that count as its error.  Which of several tied minima leaves
    // is free.  The est - error <= true <= est bound holds throughout.
    constexpr uint32_t kCap = 8;
    FlowTopK topk(kCap);
    std::map<uint64_t, uint64_t> truth;
    uint64_t state = 12345;
    uint64_t evictions = 0;
    for (int i = 0; i < 4000; i++) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t r = state >> 33;
        // A third of the packets reuse one of 6 flows, the rest
        // draw from 300 flows.
        uint64_t key = r % 3 == 0 ? (r >> 2) % 6 : 100 + (r >> 2) % 300;

        std::map<uint64_t, FlowTopK::Entry> prev;
        for (const FlowTopK::Entry &e : topk.top())
            prev[e.key] = e;
        topk.observe(key, flowIdFor(static_cast<uint32_t>(key)), 64,
                     false);
        truth[key]++;
        std::vector<FlowTopK::Entry> now = topk.top();
        ASSERT_LE(now.size(), kCap);

        if (!prev.count(key) && prev.size() == kCap) {
            evictions++;
            uint64_t min_count = UINT64_MAX;
            for (const auto &[k, e] : prev)
                min_count = std::min(min_count, e.packets);
            std::map<uint64_t, bool> present;
            for (const FlowTopK::Entry &e : now)
                present[e.key] = true;
            size_t gone = 0;
            for (const auto &[k, e] : prev) {
                if (present.count(k))
                    continue;
                gone++;
                EXPECT_EQ(e.packets, min_count)
                    << "packet " << i << " evicted flow " << k;
            }
            EXPECT_EQ(gone, 1u) << "packet " << i;
            for (const FlowTopK::Entry &e : now) {
                if (e.key != key)
                    continue;
                EXPECT_EQ(e.error, min_count);
                EXPECT_EQ(e.packets, min_count + 1);
            }
        }
        for (const FlowTopK::Entry &e : now) {
            EXPECT_GE(e.packets, truth[e.key]) << "flow " << e.key;
            EXPECT_LE(e.packets - e.error, truth[e.key])
                << "flow " << e.key;
        }
    }
    EXPECT_GT(evictions, 1000u);
    EXPECT_EQ(topk.observedPackets(), 4000u);
}

TEST(FlowTopK, TopIsSortedAndTruncated)
{
    FlowTopK topk(8);
    for (uint64_t f = 0; f < 5; f++)
        for (uint64_t n = 0; n <= f; n++)
            topk.observe(f, flowIdFor(static_cast<uint32_t>(f)), 64,
                         false);

    auto all = topk.top();
    ASSERT_EQ(all.size(), 5u);
    for (size_t i = 1; i < all.size(); i++)
        EXPECT_GE(all[i - 1].packets, all[i].packets);
    EXPECT_EQ(all[0].key, 4u);

    auto two = topk.top(2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].key, 4u);
    EXPECT_EQ(two[1].key, 3u);
}

TEST(FlowTopK, FaultsAndBytesAccumulatePerEntry)
{
    FlowTopK topk(4);
    topk.observe(7, flowIdFor(7), 100, false);
    topk.observe(7, flowIdFor(7), 200, true);
    topk.observe(7, flowIdFor(7), 300, true);

    auto top = topk.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].packets, 3u);
    EXPECT_EQ(top[0].bytes, 600u);
    EXPECT_EQ(top[0].faults, 2u);
}

TEST(FlowTopK, ResetDropsAllState)
{
    FlowTopK topk(4);
    topk.observe(1, flowIdFor(1), 64, false);
    topk.reset();
    EXPECT_TRUE(topk.top().empty());
    EXPECT_EQ(topk.observedPackets(), 0u);
}

TEST(FlowTopK, FormatFlowIdRendersTuple)
{
    FlowId id;
    id.src = 0x0a000001;  // 10.0.0.1
    id.dst = 0xc0a80102;  // 192.168.1.2
    id.srcPort = 1234;
    id.dstPort = 80;
    id.proto = 6;
    EXPECT_EQ(formatFlowId(id), "10.0.0.1:1234 > 192.168.1.2:80/6");
}

} // namespace
