/**
 * @file
 * Space-saving top-K heavy-hitter tracking for per-flow accounting.
 *
 * A network processor's load is dominated by its heaviest flows, and
 * the live telemetry plane (obs/stats.hh) must report them while
 * traffic flows — without a per-flow hash table that grows with the
 * flow count.  FlowTopK implements the space-saving algorithm
 * (Metwally et al.): a fixed set of counters; a hit increments its
 * counter, a miss on a full table evicts the minimum counter and the
 * newcomer inherits its count as an overestimate, with the inherited
 * amount recorded as the entry's error bound.  Guarantees:
 *
 *  - est - error <= true count <= est for every tracked flow,
 *  - any flow whose true count exceeds N/capacity is in the table
 *    (N = packets observed), so genuinely heavy flows on skewed
 *    traffic are reported exactly (error 0 once they never evict).
 *
 * Flows are keyed by the dispatcher's 5-tuple hash (net::flowHash —
 * the same value that pins a flow to an engine), and each entry
 * remembers the 5-tuple fields for human-readable reporting.  The
 * obs layer sits below net in the library graph, so the tuple is
 * mirrored here as a plain FlowId rather than a net::FiveTuple.
 *
 * Cost: the table is a binary min-heap on the packet estimate over a
 * fixed open-addressing key index, both sized once at construction.
 * A hit or an eviction is one index probe plus an O(log capacity)
 * sift; no packet allocates.  Fresh-flow traffic misses on almost
 * every packet, so eviction must not scan the table.
 *
 * Threading: observe() is called by the owning engine's worker
 * thread, top() by the stats pump; a plain mutex guards the table.
 * The per-packet cost is an uncontended lock plus the work above
 * (the pump takes the lock a few times per second for a copy of at
 * most `capacity` entries), and callers gate observe() behind
 * statsEnabled() so the disabled path costs one relaxed load.
 */

#ifndef PB_OBS_TOPK_HH
#define PB_OBS_TOPK_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb::obs
{

/** 5-tuple mirror (host byte order), for reporting only. */
struct FlowId
{
    uint32_t src = 0;
    uint32_t dst = 0;
    uint16_t srcPort = 0;
    uint16_t dstPort = 0;
    uint8_t proto = 0;
};

/** "a.b.c.d:p > e.f.g.h:q/proto" rendering of a FlowId. */
std::string formatFlowId(const FlowId &id);

/** Space-saving top-K tracker of per-flow packets/bytes/faults. */
class FlowTopK
{
  public:
    /** One tracked flow. */
    struct Entry
    {
        uint64_t key = 0; ///< dispatcher 5-tuple hash
        FlowId id;
        uint64_t packets = 0; ///< estimate (may overcount by error)
        uint64_t bytes = 0;   ///< since this key entered the table
        uint64_t faults = 0;  ///< since this key entered the table
        uint64_t error = 0;   ///< max overcount inherited on entry
    };

    /** @param capacity counters kept (the K in top-K) */
    explicit FlowTopK(uint32_t capacity = 64);

    /** Account one packet of flow @p key. */
    void observe(uint64_t key, const FlowId &id, uint64_t bytes,
                 bool fault);

    /**
     * The tracked flows, heaviest (by packet estimate) first,
     * at most @p n entries (0 = all).
     */
    std::vector<Entry> top(size_t n = 0) const;

    /** Packets observed in total (tracked or not). */
    uint64_t observedPackets() const;

    uint32_t capacity() const { return cap; }

    /** Drop all tracked flows (test hook). */
    void reset();

  private:
    static constexpr uint32_t noEntry = UINT32_MAX;

    /** Index slot of @p key, or of the empty slot ending its probe. */
    uint32_t probe(uint64_t key) const;
    /** Remove @p key from the index (backward-shift deletion). */
    void unindex(uint64_t key);
    /** Heap slot @p at now holds entries[@p entry]. */
    void place(uint32_t at, uint32_t entry);
    /** Restore the heap below heap[@p at] after its count grew. */
    void siftDown(uint32_t at);

    const uint32_t cap;
    mutable std::mutex mu;
    std::vector<Entry> entries; ///< tracked flows, in arrival order
    /**
     * entries[] indices as a binary min-heap on packets, so
     * entries[heap[0]] is a minimum entry; heapPos inverts heap.
     */
    std::vector<uint32_t> heap, heapPos;
    /** Linear-probing key -> entries[] index (noEntry = empty). */
    std::vector<uint32_t> index;
    uint32_t indexMask = 0;
    uint64_t observed = 0;
};

} // namespace pb::obs

#endif // PB_OBS_TOPK_HH
