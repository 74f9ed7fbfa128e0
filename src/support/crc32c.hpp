#ifndef FINGRAV_SUPPORT_CRC32C_HPP_
#define FINGRAV_SUPPORT_CRC32C_HPP_

/**
 * @file
 * CRC-32C (Castagnoli): the codec's frame payload checksum.
 *
 * Reflected polynomial 0x82F63B78, initial value and final XOR
 * 0xFFFFFFFF (iSCSI, ext4, SSE4.2 `crc32`): "123456789" checks as
 * 0xE3069283 and the empty input as 0.  The code detects every
 * single-bit error and every burst of up to 32 bits in a message.
 *
 * Two implementations give the same value for every input:
 *
 *  - the SSE4.2 `crc32` instruction, eight bytes per step, chosen by a
 *    runtime CPU check on x86-64 builds.  After aligning to 8 bytes it
 *    runs each 3 x 8 KiB chunk, then each 3 x 256 B chunk, as three
 *    independent chains (the instruction has a three-cycle latency and
 *    a one-cycle throughput), then single words and bytes.  A CRC
 *    register is affine over GF(2), reg(A || B, init) =
 *    shift(reg(A, init), |B|) ^ reg(B, 0), so each chain is folded into
 *    the next through a compile-time table that advances a register
 *    past one stream's length of zero bytes;
 *  - a slice-by-8 table version, always compiled: the reference the
 *    tests hold the instruction path to, the path on other CPUs, and the
 *    only path when FINGRAV_SIMD_SCALAR is defined
 *    (-DFINGRAV_FORCE_SCALAR_SIMD=ON), as support/simd.hpp does for its
 *    kernels.
 */

#include <cstddef>
#include <cstdint>

namespace fingrav::support {

/** CRC-32C of `size` bytes: the instruction path when crc32cHardware
 *  is available and the build does not force scalar kernels, else the
 *  table path. */
std::uint32_t crc32c(const std::uint8_t* data, std::size_t size);

/** Slice-by-8 table CRC-32C (the reference). */
std::uint32_t crc32cTable(const std::uint8_t* data, std::size_t size);

/** True on an x86-64 build running on a CPU with SSE4.2. */
bool crc32cHardwareAvailable();

/** CRC-32C with the SSE4.2 `crc32` instruction; a panic unless
 *  crc32cHardwareAvailable(). */
std::uint32_t crc32cHardware(const std::uint8_t* data, std::size_t size);

}  // namespace fingrav::support

#endif  // FINGRAV_SUPPORT_CRC32C_HPP_
