#include "lz.hh"

#include <cstring>
#include <stdexcept>

namespace wlcrc
{

namespace
{

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr unsigned kHashBits = 14;
constexpr std::size_t kHashSize = std::size_t{1} << kHashBits;

inline uint32_t
load32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline uint32_t
hash4(const uint8_t *p)
{
    // Fibonacci hashing of the 4-byte prefix; endianness only
    // permutes buckets, never changes the output stream, because
    // every candidate is verified byte-for-byte before use.
    return (load32(p) * 2654435761u) >> (32 - kHashBits);
}

/** Bounds-checked output writer; overflow turns into "didn't fit". */
struct Sink
{
    uint8_t *dst;
    std::size_t cap;
    std::size_t pos = 0;
    bool ok = true;

    void
    put(uint8_t b)
    {
        if (pos < cap)
            dst[pos++] = b;
        else
            ok = false;
    }

    void
    putRun(const uint8_t *src, std::size_t n)
    {
        if (n <= cap - pos) {
            std::memcpy(dst + pos, src, n);
            pos += n;
        } else {
            ok = false;
            pos = cap;
        }
    }

    /** Emit a 255-continued length extension for @p v >= 15. */
    void
    putExtent(std::size_t v)
    {
        v -= 15;
        while (v >= 255) {
            put(255);
            v -= 255;
        }
        put(static_cast<uint8_t>(v));
    }
};

void
emitSequence(Sink &out, const uint8_t *lit, std::size_t litLen,
             std::size_t offset, std::size_t matchLen)
{
    const std::size_t litNibble = litLen < 15 ? litLen : 15;
    const std::size_t matchCode =
        matchLen ? matchLen - kMinMatch : 0;
    const std::size_t matchNibble = matchCode < 15 ? matchCode : 15;
    out.put(static_cast<uint8_t>((litNibble << 4) | matchNibble));
    if (litNibble == 15)
        out.putExtent(litLen);
    out.putRun(lit, litLen);
    if (matchLen == 0)
        return; // literals-only tail sequence
    out.put(static_cast<uint8_t>(offset & 0xff));
    out.put(static_cast<uint8_t>(offset >> 8));
    if (matchNibble == 15)
        out.putExtent(matchCode);
}

} // namespace

std::size_t
lzCompressBound(std::size_t rawLen)
{
    // One literal-only stream: token + extension bytes + literals.
    return rawLen + rawLen / 255 + 16;
}

// Cache-line aligned so the match loop keeps the same offset from
// 32- and 64-byte fetch boundaries in every build. Left to the
// linker, its placement follows the size of unrelated code, and on
// a 4-core Xeon that alone moved the trace write path (e2ebench
// trace_random_sharded setup_s) by about 15 %.
__attribute__((aligned(64))) std::size_t
lzCompress(const uint8_t *src, std::size_t srcLen, uint8_t *dst,
           std::size_t dstCap, LzScratch *scratch)
{
    LzScratch local;
    LzScratch &s = scratch ? *scratch : local;
    s.table.assign(kHashSize, 0); // positions stored +1; 0 = empty

    Sink out{dst, dstCap};
    std::size_t pos = 0;
    std::size_t litStart = 0;
    // Stop matching where a 4-byte load could run past the end.
    const std::size_t matchable =
        srcLen >= kMinMatch ? srcLen - kMinMatch + 1 : 0;

    // Trace blocks are runs of recordBytes-periodic records, so a
    // probe at exactly one record back catches the dominant
    // redundancy (same-line rewrites) even when the hash slot was
    // overwritten in between.
    constexpr std::size_t kStride = 136;

    const auto matchLenAt = [&](std::size_t from,
                                std::size_t at) -> std::size_t {
        if (load32(src + from) != load32(src + at))
            return 0;
        std::size_t len = kMinMatch;
        while (at + len < srcLen && src[from + len] == src[at + len])
            ++len;
        return len;
    };

    while (pos < matchable && out.ok) {
        const uint32_t h = hash4(src + pos);
        const uint32_t cand = s.table[h];
        s.table[h] = static_cast<uint32_t>(pos + 1);

        std::size_t from = 0;
        std::size_t len = 0;
        if (cand != 0) {
            const std::size_t c = cand - 1;
            if (pos - c <= kMaxOffset)
                len = matchLenAt(c, pos);
            from = c;
        }
        if (pos >= kStride) {
            const std::size_t sl = matchLenAt(pos - kStride, pos);
            if (sl > len) {
                len = sl;
                from = pos - kStride;
            }
        }
        if (len > 0) {
            // Extend backwards into the pending literals: changed
            // bytes break matches mid-record and the next hash hit
            // lands late; the gap bytes still match at this offset.
            while (pos > litStart && from > 0 &&
                   src[from - 1] == src[pos - 1]) {
                --pos;
                --from;
                ++len;
            }
            emitSequence(out, src + litStart, pos - litStart,
                         pos - from, len);
            pos += len;
            litStart = pos;
            if (pos + 2 < srcLen && pos >= 2) {
                // Re-seed the table at the match tail so runs of
                // identical records chain into long matches.
                s.table[hash4(src + pos - 2)] =
                    static_cast<uint32_t>(pos - 1);
            }
            continue;
        }
        ++pos;
    }
    if (litStart < srcLen || srcLen == 0)
        emitSequence(out, src + litStart, srcLen - litStart, 0, 0);
    return out.ok ? out.pos : 0;
}

std::size_t
lzDecompress(const uint8_t *src, std::size_t srcLen, uint8_t *dst,
             std::size_t dstCap)
{
    std::size_t ip = 0;
    std::size_t op = 0;
    const auto takeExtent = [&](std::size_t base) {
        std::size_t v = base;
        uint8_t b;
        do {
            if (ip >= srcLen)
                throw std::runtime_error(
                    "lz: truncated length extension");
            b = src[ip++];
            v += b;
        } while (b == 255);
        return v;
    };

    while (ip < srcLen) {
        const uint8_t token = src[ip++];
        std::size_t lit = token >> 4;
        if (lit == 15)
            lit = takeExtent(lit);
        if (lit > srcLen - ip)
            throw std::runtime_error(
                "lz: literal run past end of input");
        if (lit > dstCap - op)
            throw std::runtime_error(
                "lz: output overflow (literal run)");
        std::memcpy(dst + op, src + ip, lit);
        ip += lit;
        op += lit;
        if (ip == srcLen)
            break; // literals-only tail sequence
        if (srcLen - ip < 2)
            throw std::runtime_error("lz: truncated match offset");
        const std::size_t offset =
            std::size_t{src[ip]} | (std::size_t{src[ip + 1]} << 8);
        ip += 2;
        if (offset == 0 || offset > op)
            throw std::runtime_error(
                "lz: match offset outside decoded window");
        std::size_t matchLen = token & 0xf;
        if (matchLen == 15)
            matchLen = takeExtent(matchLen);
        matchLen += kMinMatch;
        if (matchLen > dstCap - op)
            throw std::runtime_error(
                "lz: output overflow (match copy)");
        const uint8_t *from = dst + op - offset;
        if (offset >= matchLen) {
            std::memcpy(dst + op, from, matchLen);
        } else {
            for (std::size_t i = 0; i < matchLen; ++i)
                dst[op + i] = from[i]; // overlapped: byte-serial
        }
        op += matchLen;
    }
    return op;
}

} // namespace wlcrc
