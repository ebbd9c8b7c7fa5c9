/**
 * @file
 * Binary radix trie implementation.
 */

#include "radix.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pb::route
{

RadixTable::RadixTable(const std::vector<RouteEntry> &entries,
                       uint32_t base_addr)
    : base(base_addr)
{
    using namespace radixlayout;
    // A prefix of length len adds at most len nodes.  Reserving that
    // bound means the build never reallocates; the bound may be
    // several times the final size, but the pages past the last node
    // are never written, so they are never resident.
    size_t max_nodes = 1;
    for (const auto &entry : entries)
        max_nodes += entry.len;
    words.reserve(max_nodes * wordsPerNode);
    words.resize(wordsPerNode, 0); // root, at base_addr

    for (const auto &entry : entries) {
        if (entry.len > 32)
            fatal("radix: prefix length %u out of range", entry.len);
        if ((entry.prefix & ~prefixMask(entry.len)) != 0)
            fatal("radix: prefix has bits below its mask");
        size_t at = 0;
        for (unsigned depth = 0; depth < entry.len; depth++) {
            bool right = bit(entry.prefix, 31 - depth) != 0;
            size_t link = at + (right ? offRight : offLeft) / 4;
            if (words[link] == 0) {
                // The root is never a child, so address 0 (a root at
                // base 0) can still mean "no child".
                words[link] = base + static_cast<uint32_t>(
                                         words.size() / wordsPerNode *
                                         nodeSize);
                words.resize(words.size() + wordsPerNode, 0);
            }
            at = wordOf(words[link]);
        }
        words[at + offValid / 4] = 1;
        words[at + offNextHop / 4] = entry.nextHop;
    }
}

uint32_t
RadixTable::lookup(uint32_t addr) const
{
    using namespace radixlayout;
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
