/**
 * @file
 * Binary radix trie implementation.
 */

#include "radix.hh"

#include "common/bitops.hh"
#include "common/byteorder.hh"
#include "common/logging.hh"

namespace pb::route
{

using namespace radixlayout;

namespace
{

/** Image words as little-endian bytes in a fixed span. */
struct SpanWords
{
    std::span<uint8_t> out;

    bool
    addNode(size_t index)
    {
        if ((index + 1) * nodeSize > out.size())
            return false;
        for (uint32_t w = 0; w < wordsPerNode; w++)
            store(index * wordsPerNode + w, 0);
        return true;
    }

    uint32_t load(size_t word) const { return loadLe32(&out[word * 4]); }
    void store(size_t word, uint32_t v) { storeLe32(&out[word * 4], v); }
};

/** Image words as host words in a vector that grows by one node. */
struct VectorWords
{
    std::vector<uint32_t> &words;

    bool
    addNode(size_t)
    {
        words.resize(words.size() + wordsPerNode, 0);
        return true;
    }

    uint32_t load(size_t word) const { return words[word]; }
    void store(size_t word, uint32_t v) { words[word] = v; }
};

/**
 * The one insertion loop: root first, then one node per missing
 * prefix bit, each stored (zeroed) by addNode() before its link is
 * written or anything reads it.  Returns the node count, or nullopt
 * once addNode() refuses a node.
 */
template <typename Words>
std::optional<size_t>
insertAll(const std::vector<RouteEntry> &entries, uint32_t base,
          Words &words)
{
    if (!words.addNode(0))
        return std::nullopt;
    size_t nodes = 1;
    for (const auto &entry : entries) {
        if (entry.len > 32)
            fatal("radix: prefix length %u out of range", entry.len);
        if ((entry.prefix & ~prefixMask(entry.len)) != 0)
            fatal("radix: prefix has bits below its mask");
        size_t at = 0;
        for (unsigned depth = 0; depth < entry.len; depth++) {
            bool right = bit(entry.prefix, 31 - depth) != 0;
            size_t link = at + (right ? offRight : offLeft) / 4;
            uint32_t child = words.load(link);
            if (child == 0) {
                if (!words.addNode(nodes))
                    return std::nullopt;
                // The root is never a child, so address 0 (a root at
                // base 0) can still mean "no child".
                child = base + static_cast<uint32_t>(nodes * nodeSize);
                words.store(link, child);
                nodes++;
            }
            at = (child - base) / 4;
        }
        words.store(at + offValid / 4, 1);
        words.store(at + offNextHop / 4, entry.nextHop);
    }
    return nodes;
}

} // namespace

std::optional<uint32_t>
buildRadixImage(const std::vector<RouteEntry> &entries, uint32_t base_addr,
                std::span<uint8_t> out)
{
    SpanWords words{out};
    std::optional<size_t> nodes = insertAll(entries, base_addr, words);
    if (!nodes)
        return std::nullopt;
    return static_cast<uint32_t>(*nodes * nodeSize);
}

RadixTable::RadixTable(const std::vector<RouteEntry> &entries,
                       uint32_t base_addr)
    : base(base_addr)
{
    // A prefix of length len adds at most len nodes.  Reserving that
    // bound means the build never reallocates; the bound may be
    // several times the final size, but the pages past the last node
    // are never written, so they are never resident.
    size_t max_nodes = 1;
    for (const auto &entry : entries)
        max_nodes += entry.len;
    words.reserve(max_nodes * wordsPerNode);
    VectorWords sink{words};
    insertAll(entries, base, sink);
}

uint32_t
RadixTable::lookup(uint32_t addr) const
{
    uint32_t best = noRoute;
    size_t at = 0;
    for (unsigned depth = 0;; depth++) {
        if (words[at + offValid / 4])
            best = words[at + offNextHop / 4];
        if (depth >= 32)
            break;
        uint32_t child =
            words[at + (bit(addr, 31 - depth) ? offRight : offLeft) / 4];
        if (child == 0)
            break;
        at = wordOf(child);
    }
    return best;
}

} // namespace pb::route
