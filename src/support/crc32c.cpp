#include "support/crc32c.hpp"

#include <array>
#include <cstring>

#include "support/logging.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FINGRAV_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace fingrav::support {

namespace {

/** Reflected Castagnoli polynomial. */
constexpr std::uint32_t kPolynomial = 0x82F63B78u;

/** t[0] is the byte-at-a-time table; t[k][b] advances t[k-1][b] past
 *  one more zero byte, so eight lookups fold eight input bytes. */
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables
makeSliceTables()
{
    SliceTables t{};
    for (std::uint32_t b = 0; b < 256; ++b) {
        std::uint32_t c = b;
        for (int bit = 0; bit < 8; ++bit)
            c = (c >> 1) ^ (kPolynomial & (0u - (c & 1u)));
        t[0][b] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t b = 0; b < 256; ++b)
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
    return t;
}

constexpr SliceTables kSlices = makeSliceTables();

std::uint32_t
load32le(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

#if defined(FINGRAV_CRC32C_X86)

/** A register advanced past `bytes` zero bytes, eight at a time: the
 *  slice-by-8 step with an all-zero word (`bytes` % 8 == 0). */
constexpr std::uint32_t
shiftZeros(std::uint32_t crc, std::size_t bytes)
{
    const auto& t = kSlices;
    for (; bytes >= 8; bytes -= 8) {
        crc = t[7][crc & 0xFFu] ^ t[6][(crc >> 8) & 0xFFu] ^
              t[5][(crc >> 16) & 0xFFu] ^ t[4][crc >> 24];
    }
    return crc;
}

/** shiftZeros(x, Bytes) as four byte-indexed lookups: advancing past
 *  zeros is linear over GF(2), so t[k][b], the image of b << 8k, is the
 *  XOR of its set bits' images, and a register's image is the XOR of
 *  its four bytes' images. */
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

template <std::size_t Bytes>
constexpr ShiftTable
makeShiftTable()
{
    ShiftTable t{};
    for (std::size_t bit = 0; bit < 32; ++bit) {
        const std::uint32_t image = shiftZeros(std::uint32_t{1} << bit, Bytes);
        for (std::size_t b = 0; b < 256; ++b) {
            if ((b >> (bit % 8)) & 1u)
                t[bit / 8][b] ^= image;
        }
    }
    return t;
}

/** An 8-byte word at any address (memcpy keeps the load defined). */
std::uint64_t
load64(const std::uint8_t* p)
{
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    return word;
}

/**
 * Consume whole 3 x Stream chunks of [data, data + size).  Each chunk
 * runs as three independent crc32 chains, one per third, so the
 * instruction's three-cycle latency overlaps; the middle and last
 * chains start from zero.  A register is affine over GF(2),
 *
 *     reg(A || B, init) = shift(reg(A, init), |B|) ^ reg(B, 0),
 *
 * so folding each chain into the next past Stream zero bytes gives the
 * register a single chain over the chunk would hold.
 */
template <std::size_t Stream>
__attribute__((target("sse4.2"))) std::uint64_t
crc32cStreams(std::uint64_t crc, const std::uint8_t*& data, std::size_t& size)
{
    static constexpr ShiftTable t = makeShiftTable<Stream>();
    const auto shift = [](std::uint64_t r) -> std::uint64_t {
        return t[0][r & 0xFFu] ^ t[1][(r >> 8) & 0xFFu] ^
               t[2][(r >> 16) & 0xFFu] ^ t[3][(r >> 24) & 0xFFu];
    };
    for (; size >= 3 * Stream; size -= 3 * Stream, data += 3 * Stream) {
        std::uint64_t c0 = crc, c1 = 0, c2 = 0;
        for (std::size_t i = 0; i < Stream; i += 8) {
            c0 = _mm_crc32_u64(c0, load64(data + i));
            c1 = _mm_crc32_u64(c1, load64(data + Stream + i));
            c2 = _mm_crc32_u64(c2, load64(data + 2 * Stream + i));
        }
        crc = c2 ^ shift(c1 ^ shift(c0));
    }
    return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const std::uint8_t* data, std::size_t size)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    // Single bytes up to an 8-byte boundary, so every word load below is
    // aligned; then 3 x 8 KiB and 3 x 256 B three-chain chunks, then
    // single words and bytes for the tail.
    for (; size > 0 && reinterpret_cast<std::uintptr_t>(data) % 8 != 0;
         --size)
        crc = _mm_crc32_u8(crc, *data++);
    std::uint64_t wide = crc32cStreams<8192>(crc, data, size);
    wide = crc32cStreams<256>(wide, data, size);
    for (; size >= 8; size -= 8, data += 8)
        wide = _mm_crc32_u64(wide, load64(data));
    crc = static_cast<std::uint32_t>(wide);
    for (; size > 0; --size)
        crc = _mm_crc32_u8(crc, *data++);
    return ~crc;
}

#endif  // FINGRAV_CRC32C_X86

}  // namespace

std::uint32_t
crc32cTable(const std::uint8_t* data, std::size_t size)
{
    const auto& t = kSlices;
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; size >= 8; size -= 8, data += 8) {
        const std::uint32_t lo = crc ^ load32le(data);
        const std::uint32_t hi = load32le(data + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; --size)
        crc = t[0][(crc ^ *data++) & 0xFFu] ^ (crc >> 8);
    return ~crc;
}

bool
crc32cHardwareAvailable()
{
#if defined(FINGRAV_CRC32C_X86)
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.2") != 0;
    }();
    return available;
#else
    return false;
#endif
}

std::uint32_t
crc32cHardware([[maybe_unused]] const std::uint8_t* data,
               [[maybe_unused]] std::size_t size)
{
#if defined(FINGRAV_CRC32C_X86)
    if (crc32cHardwareAvailable())
        return crc32cSse42(data, size);
#endif
    panic("crc32c: this build or CPU has no SSE4.2 crc32 instruction");
}

std::uint32_t
crc32c(const std::uint8_t* data, std::size_t size)
{
#if defined(FINGRAV_CRC32C_X86) && !defined(FINGRAV_SIMD_SCALAR)
    if (crc32cHardwareAvailable())
        return crc32cSse42(data, size);
#endif
    return crc32cTable(data, size);
}

}  // namespace fingrav::support
