/**
 * @file
 * Simulated memory implementation: backing storage, bulk accessors,
 * and the cold error paths of the O(1) resolver (the hot resolve
 * itself is inline in memory.hh).
 */

#include "memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "net/simd/kernels.hh"

namespace pb::sim
{

std::string_view
memRegionName(MemRegion region)
{
    switch (region) {
      case MemRegion::Text:
        return "text";
      case MemRegion::Data:
        return "data";
      case MemRegion::Packet:
        return "packet";
      case MemRegion::Stack:
        return "stack";
      case MemRegion::Unmapped:
        return "unmapped";
    }
    return "unmapped";
}

Memory::Memory()
{
    for (unsigned r = 0; r < layout::numRegions; r++) {
        store[r] = ZeroPages(layout::regionSize[r]);
        dirtyLo[r] = layout::regionSize[r];
        dirtyHi[r] = 0;
    }
}

void
Memory::throwUnmapped(uint32_t addr, uint32_t len)
{
    throw MemoryError(
        strprintf("access to unmapped address 0x%x (%u bytes)", addr,
                  len));
}

void
Memory::throwCrossesEnd(uint32_t addr, uint32_t len, MemRegion region)
{
    throw MemoryError(strprintf(
        "access [0x%x, +%u) crosses the end of the %s region", addr,
        len, std::string(memRegionName(region)).c_str()));
}

void
Memory::throwMisaligned(const char *what, uint32_t addr)
{
    throw AlignmentError(
        strprintf("misaligned %s at 0x%x", what, addr));
}

void
Memory::writeBlock(uint32_t addr, const uint8_t *data, uint32_t len)
{
    if (len == 0)
        return;
    std::memcpy(writable(addr, len).ptr, data, len);
}

void
Memory::writeWords(uint32_t addr, const uint32_t *words, uint32_t n)
{
    if (!isAligned(addr, 4)) [[unlikely]]
        throwMisaligned("32-bit write", addr);
    if (n == 0)
        return;
    // A span whose byte length overflows 32 bits fits no region.
    if (n > UINT32_MAX / 4) [[unlikely]]
        throwUnmapped(addr, UINT32_MAX);
    uint8_t *p = writable(addr, n * 4).ptr;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, words, size_t{n} * 4);
    } else {
        for (uint32_t i = 0; i < n; i++)
            storeWord(p + size_t{i} * 4, words[i]);
    }
}

std::span<uint8_t>
Memory::hostSpan(uint32_t addr, uint32_t len)
{
    MemRegion region = readable(addr, len).region;
    unsigned idx = static_cast<unsigned>(region);
    return {store[idx].data() + (addr - layout::regionBase[idx]), len};
}

void
Memory::commitBuilt(uint32_t addr, uint32_t max_len, uint32_t used)
{
    if (used > max_len) [[unlikely]] {
        writable(addr, max_len);
        panic("in-place build used %u bytes of a %u-byte span", used,
              max_len);
    }
    if (used != 0)
        writable(addr, used);
}

void
Memory::readBlock(uint32_t addr, uint8_t *data, uint32_t len) const
{
    if (len == 0)
        return;
    std::memcpy(data, readable(addr, len).ptr, len);
}

void
Memory::fill(uint32_t addr, uint32_t len, uint8_t value)
{
    if (len == 0)
        return;
    uint8_t *p = writable(addr, len).ptr;
    if (value == 0)
        net::simd::kernels().clearBytes(p, len);
    else
        std::memset(p, value, len);
}

void
Memory::reset()
{
    // Per-packet clear of whatever the last run dirtied — one of the
    // host hot loops, served by the dispatched SIMD clear kernel.
    const auto &kern = net::simd::kernels();
    for (unsigned r = 0; r < layout::numRegions; r++) {
        if (dirtyLo[r] < dirtyHi[r])
            kern.clearBytes(store[r].data() + dirtyLo[r],
                            dirtyHi[r] - dirtyLo[r]);
        dirtyLo[r] = layout::regionSize[r];
        dirtyHi[r] = 0;
    }
}

} // namespace pb::sim
