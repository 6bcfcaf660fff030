// lz.hpp — tiny LZ4-style block compressor for the serialized storage tier.
//
// Greedy hash-chain match finder over a 64 KiB window, token stream of
// literal runs and (offset, length) copies. The format is private to this
// repo (spill files never leave the process), so it optimizes for simplicity
// and an exact round-trip guarantee rather than ratio. Compression is
// deterministic: same input bytes → same output bytes, which the chaos suite
// relies on for bit-identical spill checksums across interleavings.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

namespace gs {

namespace lz_detail {

inline constexpr std::size_t kMinMatch = 4;
inline constexpr std::size_t kMaxOffset = 0xffff;
inline constexpr std::size_t kMaxRun = 0xffff;
inline constexpr int kHashBits = 13;

inline std::uint32_t lz_hash(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline void put_u16(std::vector<std::uint8_t>& out, std::size_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

}  // namespace lz_detail

/// Token stream: 0x00 <u16 len> <len literal bytes> | 0x01 <u16 offset>
/// <u16 len> (copy `len` bytes from `pos - offset`). Runs longer than 64 KiB
/// split into multiple tokens.
inline std::vector<std::uint8_t> lz_compress(const std::uint8_t* data,
                                             std::size_t n) {
  using namespace lz_detail;
  std::vector<std::uint8_t> out;
  out.reserve(n / 2 + 16);
  std::vector<std::uint32_t> table(std::size_t{1} << kHashBits, 0);
  // Table stores pos+1 so 0 means "empty".
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  auto flush_literals = [&](std::size_t end) {
    std::size_t at = lit_start;
    while (at < end) {
      const std::size_t run = std::min(end - at, kMaxRun);
      out.push_back(0x00);
      put_u16(out, run);
      out.insert(out.end(), data + at, data + at + run);
      at += run;
    }
  };
  while (pos + kMinMatch <= n) {
    const std::uint32_t h = lz_hash(data + pos);
    const std::uint32_t prev = table[h];
    table[h] = static_cast<std::uint32_t>(pos + 1);
    if (prev != 0) {
      const std::size_t cand = prev - 1;
      const std::size_t offset = pos - cand;
      if (offset <= kMaxOffset &&
          std::memcmp(data + cand, data + pos, kMinMatch) == 0) {
        std::size_t len = kMinMatch;
        while (pos + len < n && len < kMaxRun &&
               data[cand + len] == data[pos + len]) {
          ++len;
        }
        flush_literals(pos);
        out.push_back(0x01);
        put_u16(out, offset);
        put_u16(out, len);
        pos += len;
        lit_start = pos;
        continue;
      }
    }
    ++pos;
  }
  flush_literals(n);
  return out;
}

/// Inverse of lz_compress. `raw_size` is the expected decompressed size;
/// returns nullopt on any malformed token stream or size mismatch (a corrupt
/// spill payload must fail loudly, never partially decode). A raw size that
/// `n` stream bytes cannot emit (at most kMaxRun per 5-byte copy token, plus
/// the literals) is rejected before anything is reserved.
inline std::optional<std::vector<std::uint8_t>> lz_decompress(
    const std::uint8_t* data, std::size_t n, std::size_t raw_size) {
  if (raw_size > n / 5 * lz_detail::kMaxRun + n) return std::nullopt;
  std::vector<std::uint8_t> out;
  out.reserve(raw_size);
  std::size_t pos = 0;
  auto get_u16 = [&](std::size_t& v) -> bool {
    if (pos + 2 > n) return false;
    v = static_cast<std::size_t>(data[pos]) |
        (static_cast<std::size_t>(data[pos + 1]) << 8);
    pos += 2;
    return true;
  };
  while (pos < n) {
    const std::uint8_t op = data[pos++];
    if (op == 0x00) {
      std::size_t run = 0;
      if (!get_u16(run) || pos + run > n) return std::nullopt;
      out.insert(out.end(), data + pos, data + pos + run);
      pos += run;
    } else if (op == 0x01) {
      std::size_t offset = 0;
      std::size_t len = 0;
      if (!get_u16(offset) || !get_u16(len)) return std::nullopt;
      if (offset == 0 || offset > out.size()) return std::nullopt;
      // Overlapping copies are legal (RLE-style); copy byte-by-byte.
      std::size_t src = out.size() - offset;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    } else {
      return std::nullopt;
    }
    if (out.size() > raw_size) return std::nullopt;
  }
  if (out.size() != raw_size) return std::nullopt;
  return out;
}

}  // namespace gs
