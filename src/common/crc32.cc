#include "crc32.hh"

#include "simd.hh"

namespace wlcrc
{

uint32_t
crc32(const void *data, std::size_t len, uint32_t seed)
{
    return simd::ops().crc32(static_cast<const uint8_t *>(data), len,
                             seed);
}

} // namespace wlcrc
