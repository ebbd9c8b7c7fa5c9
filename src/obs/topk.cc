/**
 * @file
 * Space-saving top-K implementation.
 */

#include "topk.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace pb::obs
{

std::string
formatFlowId(const FlowId &id)
{
    return strprintf("%u.%u.%u.%u:%u > %u.%u.%u.%u:%u/%u",
                     id.src >> 24, (id.src >> 16) & 0xff,
                     (id.src >> 8) & 0xff, id.src & 0xff, id.srcPort,
                     id.dst >> 24, (id.dst >> 16) & 0xff,
                     (id.dst >> 8) & 0xff, id.dst & 0xff, id.dstPort,
                     id.proto);
}

namespace
{

/** Home index slot of @p key (multiplicative hash, high bits). */
uint32_t
homeSlot(uint64_t key, uint32_t mask)
{
    return static_cast<uint32_t>((key * 0x9e3779b97f4a7c15ull) >> 32) &
           mask;
}

} // namespace

FlowTopK::FlowTopK(uint32_t capacity) : cap(std::max(capacity, 1u))
{
    entries.reserve(cap);
    heap.reserve(cap);
    heapPos.reserve(cap);
    // At most half full, so linear probes stay short.
    index.assign(std::bit_ceil(size_t{cap} * 2), noEntry);
    indexMask = static_cast<uint32_t>(index.size() - 1);
}

uint32_t
FlowTopK::probe(uint64_t key) const
{
    uint32_t at = homeSlot(key, indexMask);
    while (index[at] != noEntry && entries[index[at]].key != key)
        at = (at + 1) & indexMask;
    return at;
}

void
FlowTopK::unindex(uint64_t key)
{
    // Backward-shift deletion: pull every later entry of the probe
    // run whose home does not lie after the hole back into it, so
    // probes never need tombstones.
    uint32_t hole = probe(key);
    index[hole] = noEntry;
    for (uint32_t at = (hole + 1) & indexMask; index[at] != noEntry;
         at = (at + 1) & indexMask) {
        uint32_t home = homeSlot(entries[index[at]].key, indexMask);
        if (((at - home) & indexMask) >= ((at - hole) & indexMask)) {
            index[hole] = index[at];
            index[at] = noEntry;
            hole = at;
        }
    }
}

void
FlowTopK::place(uint32_t at, uint32_t entry)
{
    heap[at] = entry;
    heapPos[entry] = at;
}

void
FlowTopK::siftDown(uint32_t at)
{
    const uint32_t n = static_cast<uint32_t>(heap.size());
    uint32_t entry = heap[at];
    uint64_t packets = entries[entry].packets;
    for (;;) {
        uint32_t child = 2 * at + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entries[heap[child + 1]].packets <
                                 entries[heap[child]].packets)
            child++;
        if (entries[heap[child]].packets >= packets)
            break;
        place(at, heap[child]);
        at = child;
    }
    place(at, entry);
}

void
FlowTopK::observe(uint64_t key, const FlowId &id, uint64_t bytes,
                  bool fault)
{
    std::lock_guard<std::mutex> lock(mu);
    observed++;
    uint32_t at = probe(key);
    if (index[at] != noEntry) {
        uint32_t i = index[at];
        Entry &e = entries[i];
        e.packets++;
        e.bytes += bytes;
        if (fault)
            e.faults++;
        siftDown(heapPos[i]);
        return;
    }
    if (entries.size() < cap) {
        Entry e;
        e.key = key;
        e.id = id;
        e.packets = 1;
        e.bytes = bytes;
        e.faults = fault ? 1 : 0;
        uint32_t i = static_cast<uint32_t>(entries.size());
        index[at] = i;
        entries.push_back(e);
        heap.push_back(i);
        heapPos.push_back(0);
        // A count of 1 is a minimum: sift up past every larger one.
        uint32_t pos = i;
        while (pos > 0 && entries[heap[(pos - 1) / 2]].packets > 1) {
            place(pos, heap[(pos - 1) / 2]);
            pos = (pos - 1) / 2;
        }
        place(pos, i);
        return;
    }
    // Table full: evict a minimum-count entry (the heap root) and let
    // the newcomer inherit its count (the space-saving overestimate).
    // The evicted count becomes the newcomer's error bound; bytes and
    // faults are not inherited — they restart as exact since-takeover
    // values.
    uint32_t i = heap[0];
    Entry &slot = entries[i];
    unindex(slot.key);
    index[probe(key)] = i;
    slot.key = key;
    slot.id = id;
    slot.error = slot.packets;
    slot.packets++;
    slot.bytes = bytes;
    slot.faults = fault ? 1 : 0;
    siftDown(0);
}

std::vector<FlowTopK::Entry>
FlowTopK::top(size_t n) const
{
    std::vector<Entry> out;
    {
        std::lock_guard<std::mutex> lock(mu);
        out = entries;
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.packets != b.packets)
                      return a.packets > b.packets;
                  return a.key < b.key; // deterministic ties
              });
    if (n && out.size() > n)
        out.resize(n);
    return out;
}

uint64_t
FlowTopK::observedPackets() const
{
    std::lock_guard<std::mutex> lock(mu);
    return observed;
}

void
FlowTopK::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
    heap.clear();
    heapPos.clear();
    std::fill(index.begin(), index.end(), noEntry);
    observed = 0;
}

} // namespace pb::obs
