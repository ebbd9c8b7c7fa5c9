/**
 * @file
 * Lazily zeroed host pages: mmap/munmap.
 */

#include "zeropages.hh"

#include <sys/mman.h>

#include <new>
#include <utility>

namespace pb::sim
{

ZeroPages::ZeroPages(size_t bytes)
{
    // Anonymous private pages read as zero and are committed on first
    // touch; calloc() only skips its memset when glibc happens to
    // serve the request from a fresh mapping.
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    base = static_cast<uint8_t *>(p);
    len = bytes;
}

ZeroPages::~ZeroPages()
{
    if (base)
        munmap(base, len);
}

ZeroPages::ZeroPages(ZeroPages &&other) noexcept
    : base(std::exchange(other.base, nullptr)),
      len(std::exchange(other.len, 0))
{}

ZeroPages &
ZeroPages::operator=(ZeroPages &&other) noexcept
{
    if (this != &other) {
        if (base)
            munmap(base, len);
        base = std::exchange(other.base, nullptr);
        len = std::exchange(other.len, 0);
    }
    return *this;
}

} // namespace pb::sim
