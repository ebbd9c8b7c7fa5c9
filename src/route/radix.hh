/**
 * @file
 * Binary radix trie for longest-prefix match (the IPv4-radix
 * workload's data structure).
 *
 * This mirrors the paper's use of the BSD radix code in its
 * "straightforward, not particularly optimized" role: a one-bit-at-
 * a-time radix trie descent, one node per tested bit, with the
 * longest matching route remembered along the way.  (The BSD tree's
 * path compression is deliberately absent — the paper contrasts this
 * implementation against the compressed LC-trie, and the per-packet
 * cost of the radix workload comes from walking one node per bit.)
 *
 * The trie exists only as its packed simulated-memory image, and one
 * builder produces it: buildRadixImage() writes it straight into a
 * byte span (the application's data region), and RadixTable runs the
 * same builder into host words for the host-side lookup, a bit-exact
 * reference for the NPE32 program.
 *
 * Simulated node layout (16 bytes, word-aligned):
 *   +0  left child address  (0 = none)
 *   +4  right child address (0 = none)
 *   +8  route valid flag    (0 / 1)
 *   +12 next hop
 */

#ifndef PB_ROUTE_RADIX_HH
#define PB_ROUTE_RADIX_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "route/prefix.hh"

namespace pb::route
{

/** Byte offsets of the packed radix node fields. */
namespace radixlayout
{

constexpr uint32_t offLeft = 0;
constexpr uint32_t offRight = 4;
constexpr uint32_t offValid = 8;
constexpr uint32_t offNextHop = 12;
constexpr uint32_t nodeSize = 16;
constexpr uint32_t wordsPerNode = nodeSize / 4;

} // namespace radixlayout

/**
 * Build the trie for @p entries in place as its image in @p out:
 * little-endian words, root node at out[0], which sits at simulated
 * address @p base_addr (child pointers are absolute simulated
 * addresses).  Each new node is stored before anything reads it, so
 * on lazily zeroed pages every page faults once, on a write.
 *
 * @return the image size in bytes, or nullopt when the image needs
 *         more than out.size() bytes (nothing is written past it)
 */
std::optional<uint32_t> buildRadixImage(
    const std::vector<RouteEntry> &entries, uint32_t base_addr,
    std::span<uint8_t> out);

/** Binary radix trie with host lookup over its image. */
class RadixTable
{
  public:
    /**
     * Build the trie from @p entries as an image whose root node sits
     * at simulated address @p base_addr (child pointers in the image
     * are absolute simulated addresses).
     */
    explicit RadixTable(const std::vector<RouteEntry> &entries,
                        uint32_t base_addr = 0);

    /** Longest-prefix match; noRoute if nothing matches. */
    uint32_t lookup(uint32_t addr) const;

    /** Number of trie nodes. */
    size_t
    numNodes() const
    {
        return words.size() / radixlayout::wordsPerNode;
    }

    /** Packed 32-bit image; words[0] belongs at the base address. */
    const std::vector<uint32_t> &image() const { return words; }

  private:
    /** Index into words of the node at simulated address @p addr. */
    size_t
    wordOf(uint32_t addr) const
    {
        return (addr - base) / 4;
    }

    uint32_t base;
    std::vector<uint32_t> words;
};

} // namespace pb::route

#endif // PB_ROUTE_RADIX_HH
