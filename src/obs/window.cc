/**
 * @file
 * Sliding-window rate and rolling-histogram implementation.
 */

#include "window.hh"

namespace pb::obs
{

namespace
{

constexpr int maxSnapshotRetries = 8;

/**
 * First absolute time slot still inside a window of @p n slots
 * ending at @p now_slot.
 */
uint64_t
windowCutoff(uint64_t now_slot, uint64_t n)
{
    return now_slot >= n - 1 ? now_slot - (n - 1) : 0;
}

} // namespace

WindowedRate::WindowedRate(uint64_t window_ns)
{
    bucketNs = window_ns / numBuckets;
    if (bucketNs == 0)
        bucketNs = 1;
}

void
WindowedRate::rotateTo(uint64_t slot)
{
    // The only multi-field update: reassign the ring slot the new
    // time slot maps to.  Readers treat an odd seq as "mid-rotation"
    // and retry, so they never pair the old slot with the new count
    // or vice versa.  Intermediate slots skipped over an idle gap
    // are left stale; readers filter them by slot, so they cost
    // nothing to skip — the update stays O(1) however long the gap.
    Bucket &b = buckets[slot % numBuckets];
    seq.fetch_add(1, std::memory_order_acq_rel);
    b.slot.store(slot, std::memory_order_relaxed);
    b.count.store(0, std::memory_order_relaxed);
    seq.fetch_add(1, std::memory_order_release);
}

void
WindowedRate::add(uint64_t n, uint64_t now_ns)
{
    uint64_t slot = now_ns / bucketNs;
    Bucket &b = buckets[slot % numBuckets];
    if (b.slot.load(std::memory_order_relaxed) != slot)
        rotateTo(slot);
    // Single writer: plain load-then-store updates, no lock prefix.
    ownerAdd(b.count, n);
    ownerAdd(total_, n);
}

uint64_t
WindowedRate::windowCount(uint64_t now_ns) const
{
    uint64_t now_slot = now_ns / bucketNs;
    uint64_t cutoff = windowCutoff(now_slot, numBuckets);
    uint64_t sum = 0;
    for (int attempt = 0; attempt < maxSnapshotRetries; attempt++) {
        uint64_t s1 = seq.load(std::memory_order_acquire);
        sum = 0;
        for (const Bucket &b : buckets) {
            uint64_t slot = b.slot.load(std::memory_order_relaxed);
            if (slot >= cutoff && slot <= now_slot)
                sum += b.count.load(std::memory_order_relaxed);
        }
        uint64_t s2 = seq.load(std::memory_order_acquire);
        if (s1 == s2 && (s1 & 1) == 0)
            break;
        // Else a rotation raced the scan; retry (bounded — a torn
        // sum misattributes at most one bucket of a rate estimate).
    }
    return sum;
}

double
WindowedRate::rate(uint64_t now_ns) const
{
    return static_cast<double>(windowCount(now_ns)) * 1e9 /
           static_cast<double>(windowNs());
}

void
WindowedRate::reset()
{
    for (Bucket &b : buckets) {
        b.slot.store(0, std::memory_order_relaxed);
        b.count.store(0, std::memory_order_relaxed);
    }
    total_.store(0, std::memory_order_relaxed);
}

WindowedHistogram::WindowedHistogram(uint64_t window_ns)
{
    sliceNs = window_ns / numSlices;
    if (sliceNs == 0)
        sliceNs = 1;
}

void
WindowedHistogram::rotateTo(uint64_t slot)
{
    Slice &s = slices[slot % numSlices];
    seq.fetch_add(1, std::memory_order_acq_rel);
    s.slot.store(slot, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (auto &bucket : s.buckets)
        bucket.store(0, std::memory_order_relaxed);
    seq.fetch_add(1, std::memory_order_release);
}

void
WindowedHistogram::observe(uint64_t sample, uint64_t now_ns)
{
    uint64_t slot = now_ns / sliceNs;
    Slice &s = slices[slot % numSlices];
    if (s.slot.load(std::memory_order_relaxed) != slot)
        rotateTo(slot);
    // Single writer: plain load-then-store min/max updates are safe.
    uint64_t count = s.count.load(std::memory_order_relaxed);
    if (count == 0 || sample < s.min.load(std::memory_order_relaxed))
        s.min.store(sample, std::memory_order_relaxed);
    if (sample > s.max.load(std::memory_order_relaxed))
        s.max.store(sample, std::memory_order_relaxed);
    s.count.store(count + 1, std::memory_order_relaxed);
    ownerAdd(s.sum, sample);
    ownerAdd(s.buckets[Histogram::bucketIndex(sample)], 1);
}

Histogram::Snapshot
WindowedHistogram::snapshot(uint64_t now_ns) const
{
    uint64_t now_slot = now_ns / sliceNs;
    uint64_t cutoff = windowCutoff(now_slot, numSlices);
    uint64_t merged[Histogram::numBuckets];
    Histogram::Snapshot snap;
    for (int attempt = 0; attempt < maxSnapshotRetries; attempt++) {
        uint64_t s1 = seq.load(std::memory_order_acquire);
        snap = Histogram::Snapshot{};
        for (auto &bucket : merged)
            bucket = 0;
        for (const Slice &s : slices) {
            uint64_t slot = s.slot.load(std::memory_order_relaxed);
            if (slot < cutoff || slot > now_slot)
                continue;
            uint64_t count =
                s.count.load(std::memory_order_relaxed);
            if (count == 0)
                continue;
            uint64_t mn = s.min.load(std::memory_order_relaxed);
            uint64_t mx = s.max.load(std::memory_order_relaxed);
            if (snap.count == 0 || mn < snap.min)
                snap.min = mn;
            if (mx > snap.max)
                snap.max = mx;
            snap.count += count;
            snap.sum += s.sum.load(std::memory_order_relaxed);
            for (size_t i = 0; i < Histogram::numBuckets; i++)
                merged[i] +=
                    s.buckets[i].load(std::memory_order_relaxed);
        }
        uint64_t s2 = seq.load(std::memory_order_acquire);
        if (s1 == s2 && (s1 & 1) == 0)
            break;
    }
    size_t last = 0;
    for (size_t i = 0; i < Histogram::numBuckets; i++) {
        if (merged[i])
            last = i + 1;
    }
    snap.buckets.assign(merged, merged + last);
    return snap;
}

void
WindowedHistogram::reset()
{
    for (Slice &s : slices) {
        s.slot.store(0, std::memory_order_relaxed);
        s.count.store(0, std::memory_order_relaxed);
        s.sum.store(0, std::memory_order_relaxed);
        s.min.store(0, std::memory_order_relaxed);
        s.max.store(0, std::memory_order_relaxed);
        for (auto &bucket : s.buckets)
            bucket.store(0, std::memory_order_relaxed);
    }
}

} // namespace pb::obs
