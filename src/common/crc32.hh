/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
 * buffers. The trace containers use it so corruption is detected at
 * read time instead of silently skewing replay metrics: WLCTRC02
 * checksums each record block and the footer index; WLCTRC03
 * checksums both the stored (possibly compressed) bytes and the raw
 * record bytes of every block, plus its index, and a crc32 over the
 * v2-style index is the cache-facing content digest.
 *
 * The implementation is the crc32 kernel of the active SIMD table
 * (simd::ops(), common/simd.hh): slicing-by-16, PCLMULQDQ folding
 * or the ARMv8 CRC32 instructions, all returning the same checksum.
 */

#ifndef WLCRC_COMMON_CRC32_HH
#define WLCRC_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace wlcrc
{

/**
 * @return the CRC-32 of @p data[0..len), optionally continuing from
 * a previous buffer's checksum @p seed (pass the prior return value
 * to checksum a stream in pieces; the default starts a new message).
 */
uint32_t crc32(const void *data, std::size_t len, uint32_t seed = 0);

} // namespace wlcrc

#endif // WLCRC_COMMON_CRC32_HH
