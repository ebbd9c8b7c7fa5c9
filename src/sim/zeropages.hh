/**
 * @file
 * Lazily zeroed host pages.
 *
 * Simulated memory and the recorder's footprint bitmaps are large
 * (16 MiB of data region, 2 MiB of data-footprint bits) but sparsely
 * used: most applications touch a few pages.  ZeroPages backs them
 * with an anonymous private mapping, so construction commits nothing
 * and each host page is zero-filled by the kernel on its first touch.
 * Set-up then costs what an application actually writes, not the
 * layout's full size.
 */

#ifndef PB_SIM_ZEROPAGES_HH
#define PB_SIM_ZEROPAGES_HH

#include <cstddef>
#include <cstdint>

namespace pb::sim
{

/**
 * Owns one anonymous mapping of zeroed bytes, unmapped on
 * destruction.  Move-only; empty when default-constructed or moved
 * from.
 */
class ZeroPages
{
  public:
    ZeroPages() = default;

    /**
     * Map @p bytes (nonzero) of zeroed memory.
     * @throws std::bad_alloc when the mapping fails
     */
    explicit ZeroPages(size_t bytes);

    ~ZeroPages();

    ZeroPages(ZeroPages &&other) noexcept;
    ZeroPages &operator=(ZeroPages &&other) noexcept;
    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    uint8_t *data() { return base; }
    const uint8_t *data() const { return base; }

    /**
     * The mapping viewed as an array of @p T.  Page alignment
     * satisfies any scalar type's alignment.
     */
    template <typename T>
    T *
    as()
    {
        return reinterpret_cast<T *>(base);
    }

  private:
    uint8_t *base = nullptr;
    size_t len = 0;
};

} // namespace pb::sim

#endif // PB_SIM_ZEROPAGES_HH
