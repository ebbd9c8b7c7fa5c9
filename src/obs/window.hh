/**
 * @file
 * Time-windowed aggregation: sliding-window rate estimators and
 * rolling log2-histogram quantiles.
 *
 * The metrics registry (obs/metrics.hh) is cumulative-since-start;
 * that answers "how much happened" but not "how fast is it happening
 * *now*", which is the quantity a live telemetry plane (obs/stats.hh)
 * and the run heartbeat need.  Both classes here follow the same
 * scheme: wall time is divided into fixed sub-window buckets arranged
 * in a ring, an update lands in the bucket covering its timestamp
 * (O(1): one division plus a few relaxed loads and stores), and a reader
 * aggregates exactly the buckets whose time slot still falls inside
 * the sliding window — so idle periods age out without any timer
 * thread touching the estimator.
 *
 * Threading contract: one writer at a time (the owning engine's
 * thread; successive owners are fine when a join/handoff orders
 * them), any number of concurrent readers (the stats pump).  Every
 * mutable field is an atomic accessed with relaxed ordering, and the
 * writer updates it by load and store (obs::ownerAdd), never by a
 * locked read-modify-write, so concurrent snapshots are
 * data-race-free under TSan and an update costs no bus lock;
 * a sequence counter (even = stable, odd = bucket rotation in
 * progress) lets readers retry across the only multi-field update.
 * Readers give up after a bounded number of retries and return the
 * slightly-torn sums instead of spinning — acceptable for rate
 * estimation, and immune to writer stalls.
 *
 * Timestamps are caller-provided nanoseconds from any monotonic
 * origin (telemetryNowNs() in obs/stats.hh); taking them as
 * parameters keeps the hot path free of extra clock reads (callers
 * reuse timestamps they already took) and makes the classes testable
 * with a simulated clock.
 */

#ifndef PB_OBS_WINDOW_HH
#define PB_OBS_WINDOW_HH

#include <atomic>
#include <cstdint>

#include "obs/metrics.hh"

namespace pb::obs
{

/**
 * Sliding-window event-rate estimator.
 *
 * add(n, now) records @p n events at time @p now; rate(now) returns
 * events per second over the trailing window.  The window is split
 * into numBuckets sub-windows; the estimate covers the full window
 * length, so a burst decays linearly over one window after the
 * stream goes idle and the reported rate reaches zero once the
 * window has fully slid past it.
 */
class WindowedRate
{
  public:
    static constexpr uint32_t numBuckets = 16;

    /** @param window_ns sliding-window length (default one second) */
    explicit WindowedRate(uint64_t window_ns = 1'000'000'000);

    /** Record @p n events at @p now_ns (single writer). */
    void add(uint64_t n, uint64_t now_ns);

    /** Events per second over the window ending at @p now_ns. */
    double rate(uint64_t now_ns) const;

    /** Events inside the window ending at @p now_ns. */
    uint64_t windowCount(uint64_t now_ns) const;

    /** Events ever recorded (since-start total). */
    uint64_t
    total() const
    {
        return total_.load(std::memory_order_relaxed);
    }

    uint64_t windowNs() const { return bucketNs * numBuckets; }

    /** Zero all state (test hook; requires quiescent writer). */
    void reset();

  private:
    /** Ring slot covering absolute time slot @p slot. */
    struct Bucket
    {
        std::atomic<uint64_t> slot{0}; ///< now_ns / bucketNs when live
        std::atomic<uint64_t> count{0};
    };

    void rotateTo(uint64_t slot);

    uint64_t bucketNs;
    Bucket buckets[numBuckets];
    std::atomic<uint64_t> total_{0};
    /** Even = stable; odd while rotateTo() reassigns a bucket. */
    std::atomic<uint64_t> seq{0};
};

/**
 * Rolling log2 histogram: the distribution of samples observed
 * inside a sliding window, with the same bucket edges as
 * obs::Histogram so snapshots reuse Histogram::Snapshot (and its
 * quantile()).  Where the registry histogram answers "p99 since
 * start", this answers "p99 over the last second" — the two diverge
 * as soon as the workload shifts, which is exactly what a live view
 * must show.
 */
class WindowedHistogram
{
  public:
    /** Sub-windows in the ring; granularity = window / slices. */
    static constexpr uint32_t numSlices = 8;

    explicit WindowedHistogram(uint64_t window_ns = 1'000'000'000);

    /** Record one sample at @p now_ns (single writer). */
    void observe(uint64_t sample, uint64_t now_ns);

    /**
     * Distribution over the window ending at @p now_ns, merged
     * across in-window slices.  Exact up to slice granularity at the
     * window edge: a sample leaves the estimate only when its whole
     * slice slides out.
     */
    Histogram::Snapshot snapshot(uint64_t now_ns) const;

    uint64_t windowNs() const { return sliceNs * numSlices; }

    /** Zero all state (test hook; requires quiescent writer). */
    void reset();

  private:
    struct Slice
    {
        std::atomic<uint64_t> slot{0};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum{0};
        std::atomic<uint64_t> min{0};
        std::atomic<uint64_t> max{0};
        std::atomic<uint64_t> buckets[Histogram::numBuckets]{};
    };

    void rotateTo(uint64_t slot);

    uint64_t sliceNs;
    Slice slices[numSlices];
    std::atomic<uint64_t> seq{0};
};

} // namespace pb::obs

#endif // PB_OBS_WINDOW_HH
