// item_codec.hpp — serialization for the MEMORY_*_SER and DISK storage tiers.
//
// Companion to item_bytes.hpp: where that file *estimates* what Spark would
// move for an item, this one actually encodes the item into a compact byte
// stream so the serialized tier holds real payloads (and the disk tier real
// files). Same ADL pattern — `encode_item` / `decode_item` overloads found
// from `TypedRdd<T>` via unqualified calls, so user item types opt in by
// providing their own pair in their own namespace.
//
// The payload envelope (u8 flag, u64 raw size, body) holds the encoded item
// raw or LZ-compressed (support/lz.hpp). LZ is a gated choice: it runs over
// the whole body only when it saves at least an eighth of a fixed 4 KiB
// prefix sample, and its output is kept only when it is smaller than the raw
// body. Compressed tiles of +inf-heavy DP tables routinely drop 10x; tiles of
// distinct doubles fail the sample and are stored raw without a full LZ pass.
//
// `encode_payload` / `decode_payload` are the one-pass pair the storage tiers
// use: the item is encoded straight behind the header, and a raw body decodes
// in place. `pack_payload` / `unpack_payload` wrap and unwrap an already
// encoded stream and give the same bytes. `payload_checksum` guards spill
// files; any single changed word, bit flips included, changes it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "grid/tile.hpp"
#include "support/lz.hpp"
#include "support/rng.hpp"

namespace sparklet {

using ByteBuffer = std::vector<std::uint8_t>;

/// Bounds-checked read cursor over an encoded stream. Every decode_item
/// overload returns false instead of reading past `end`, so a truncated or
/// bit-flipped payload fails loudly and the block falls back to lineage.
struct DecodeCursor {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }
  bool read_bytes(void* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, p, n);
    p += n;
    return true;
  }
};

// ---- scalar / trivially-copyable items --------------------------------------

template <typename T>
  requires std::is_trivially_copyable_v<T>
void encode_item(ByteBuffer& out, const T& x) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&x);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
bool decode_item(DecodeCursor& in, T& x) {
  return in.read_bytes(&x, sizeof(T));
}

// ---- strings ----------------------------------------------------------------

inline void encode_item(ByteBuffer& out, const std::string& s) {
  const std::uint64_t n = s.size();
  encode_item(out, n);
  out.insert(out.end(), s.begin(), s.end());
}

inline bool decode_item(DecodeCursor& in, std::string& s) {
  std::uint64_t n = 0;
  if (!decode_item(in, n) || in.remaining() < n) return false;
  s.assign(reinterpret_cast<const char*>(in.p), static_cast<std::size_t>(n));
  in.p += n;
  return true;
}

// ---- tiles ------------------------------------------------------------------

/// Dense tiles encode as (rows, cols) + the contiguous row-major cell block.
template <typename T>
  requires std::is_trivially_copyable_v<T>
void encode_item(ByteBuffer& out, const gs::Tile<T>& t) {
  encode_item(out, static_cast<std::uint64_t>(t.rows()));
  encode_item(out, static_cast<std::uint64_t>(t.cols()));
  const std::size_t n = t.rows() * t.cols();
  if (n == 0) return;
  const auto* cells =
      reinterpret_cast<const std::uint8_t*>(t.span().data());
  out.insert(out.end(), cells, cells + n * sizeof(T));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
bool decode_item(DecodeCursor& in, gs::Tile<T>& t) {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  if (!decode_item(in, rows) || !decode_item(in, cols)) return false;
  // rows·cols cells must fit in the bytes left; dividing instead of
  // multiplying keeps a hostile shape from wrapping to a small count.
  if (cols != 0 && rows > in.remaining() / sizeof(T) / cols) return false;
  const std::size_t n = static_cast<std::size_t>(rows * cols);
  gs::Tile<T> fresh(static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(cols));
  if (n != 0 && !in.read_bytes(fresh.span().data(), n * sizeof(T))) {
    return false;
  }
  t = std::move(fresh);
  return true;
}

/// TileRef: null flag + the tile payload when present. Decoding always
/// produces a fresh immutable tile (no aliasing with the encoder's copy).
template <typename T>
  requires std::is_trivially_copyable_v<T>
void encode_item(ByteBuffer& out, const gs::TileRef<T>& ref) {
  encode_item(out, static_cast<std::uint8_t>(ref ? 1 : 0));
  if (ref) encode_item(out, *ref);
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
bool decode_item(DecodeCursor& in, gs::TileRef<T>& ref) {
  std::uint8_t present = 0;
  if (!decode_item(in, present)) return false;
  if (present == 0) {
    ref = nullptr;
    return true;
  }
  if (present != 1) return false;
  gs::Tile<T> t;
  if (!decode_item(in, t)) return false;
  ref = std::make_shared<const gs::Tile<T>>(std::move(t));
  return true;
}

// ---- composites -------------------------------------------------------------

// Forward declarations first: the composite encoders call each other with
// dependent std:: argument types, which ADL does not resolve back into this
// namespace — each body must see every composite overload it may need.
template <typename A, typename B>
  requires(!std::is_trivially_copyable_v<std::pair<A, B>>)
void encode_item(ByteBuffer& out, const std::pair<A, B>& p);
template <typename A, typename B>
  requires(!std::is_trivially_copyable_v<std::pair<A, B>>)
bool decode_item(DecodeCursor& in, std::pair<A, B>& p);
template <typename T>
void encode_item(ByteBuffer& out, const std::vector<T>& v);
template <typename T>
bool decode_item(DecodeCursor& in, std::vector<T>& v);

template <typename A, typename B>
  requires(!std::is_trivially_copyable_v<std::pair<A, B>>)
void encode_item(ByteBuffer& out, const std::pair<A, B>& p) {
  encode_item(out, p.first);
  encode_item(out, p.second);
}

template <typename A, typename B>
  requires(!std::is_trivially_copyable_v<std::pair<A, B>>)
bool decode_item(DecodeCursor& in, std::pair<A, B>& p) {
  return decode_item(in, p.first) && decode_item(in, p.second);
}

template <typename T>
void encode_item(ByteBuffer& out, const std::vector<T>& v) {
  encode_item(out, static_cast<std::uint64_t>(v.size()));
  for (const T& x : v) encode_item(out, x);
}

template <typename T>
bool decode_item(DecodeCursor& in, std::vector<T>& v) {
  std::uint64_t n = 0;
  if (!decode_item(in, n)) return false;
  v.clear();
  // Only a hint: a hostile count must not reserve more than the bytes left.
  v.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(n, in.remaining())));
  for (std::uint64_t i = 0; i < n; ++i) {
    T x{};
    if (!decode_item(in, x)) return false;
    v.push_back(std::move(x));
  }
  return true;
}

// ---- codec detection --------------------------------------------------------

/// True when `T` has a complete encode/decode pair visible via ADL. RDDs of
/// non-encodable items silently degrade to MEMORY_ONLY semantics (evict +
/// lineage) rather than failing — matching item_bytes.hpp's estimate-only
/// philosophy.
template <typename T>
concept ItemCodec = requires(ByteBuffer& out, DecodeCursor& in, const T& cx,
                             T& x) {
  encode_item(out, cx);
  { decode_item(in, x) } -> std::convertible_to<bool>;
};

/// The concept alone is shallow — it picks the pair/vector overloads without
/// checking that their *element* types encode, so pair<K, NonCodable> would
/// claim support and then fail to instantiate. The trait recurses through
/// composites; everything else (scalars, strings, tiles, user types with
/// their own ADL overloads) answers via the concept.
template <typename T>
struct ItemCodable : std::bool_constant<ItemCodec<T>> {};
template <typename A, typename B>
struct ItemCodable<std::pair<A, B>>
    : std::bool_constant<ItemCodable<A>::value && ItemCodable<B>::value> {};
template <typename T>
struct ItemCodable<std::vector<T>> : ItemCodable<T> {};

template <typename T>
inline constexpr bool has_item_codec_v = ItemCodable<T>::value;

// ---- payload envelope -------------------------------------------------------

/// Envelope: u8 flag (0 = raw, 1 = LZ) + u64 raw size + body.
inline constexpr std::size_t kEnvelopeHeaderBytes = 9;
/// The LZ gate's probe: the first 4 KiB of the body (or all of a shorter one).
inline constexpr std::size_t kLzSampleBytes = 4096;
/// LZ runs over the whole body only if it saves at least 1/kLzMinSavingDiv of
/// the sample. Any looser gate lets every sample pass: the zero bytes of an
/// item's length and shape fields always match a little.
inline constexpr std::size_t kLzMinSavingDiv = 8;

namespace detail {

/// `buf` holds kEnvelopeHeaderBytes reserved bytes and then the raw body.
/// Compresses the body when the sample gate passes and LZ really shrinks the
/// whole body; otherwise fills in the raw header and returns `buf` itself.
inline ByteBuffer seal_envelope(ByteBuffer buf) {
  const std::uint8_t* body = buf.data() + kEnvelopeHeaderBytes;
  const std::uint64_t raw_size = buf.size() - kEnvelopeHeaderBytes;
  const std::size_t sample = std::min<std::size_t>(raw_size, kLzSampleBytes);
  if (gs::lz_compress(body, sample).size() * kLzMinSavingDiv <=
      sample * (kLzMinSavingDiv - 1)) {
    const auto compressed = gs::lz_compress(body, raw_size);
    if (compressed.size() < raw_size) {
      ByteBuffer packed;
      packed.reserve(kEnvelopeHeaderBytes + compressed.size());
      packed.push_back(1);
      encode_item(packed, raw_size);
      packed.insert(packed.end(), compressed.begin(), compressed.end());
      return packed;
    }
  }
  buf[0] = 0;
  std::memcpy(buf.data() + 1, &raw_size, sizeof raw_size);
  return buf;
}

/// A parsed envelope header; `body` covers the stored (raw or LZ) body.
struct Envelope {
  bool lz = false;
  std::uint64_t raw_size = 0;
  DecodeCursor body;
};

/// nullopt on an unknown flag, a short header, or a raw body whose length
/// disagrees with its raw size.
inline std::optional<Envelope> open_envelope(const ByteBuffer& payload) {
  DecodeCursor in{payload.data(), payload.data() + payload.size()};
  std::uint8_t flag = 0;
  Envelope e;
  if (!decode_item(in, flag) || !decode_item(in, e.raw_size) || flag > 1) {
    return std::nullopt;
  }
  if (flag == 0 && in.remaining() != e.raw_size) return std::nullopt;
  e.lz = flag == 1;
  e.body = in;
  return e;
}

}  // namespace detail

/// One-pass encode: `x` is encoded straight behind the envelope header, so a
/// body that stays raw is never copied. `size_hint` (an estimate of the
/// encoded size) sizes the buffer up front. Byte-identical to
/// pack_payload(raw) for the same encoded bytes.
template <typename T>
ByteBuffer encode_payload(const T& x, std::size_t size_hint = 0) {
  ByteBuffer buf;
  buf.reserve(kEnvelopeHeaderBytes + size_hint);
  buf.resize(kEnvelopeHeaderBytes);
  encode_item(buf, x);
  return detail::seal_envelope(std::move(buf));
}

/// Wraps an already-encoded stream in the envelope.
inline ByteBuffer pack_payload(ByteBuffer raw) {
  raw.insert(raw.begin(), kEnvelopeHeaderBytes, 0);
  return detail::seal_envelope(std::move(raw));
}

/// Inverse of pack_payload; nullopt on any malformed envelope or failed
/// decompression.
inline std::optional<ByteBuffer> unpack_payload(const ByteBuffer& packed) {
  const auto e = detail::open_envelope(packed);
  if (!e) return std::nullopt;
  if (!e->lz) return ByteBuffer(e->body.p, e->body.end);
  return gs::lz_decompress(e->body.p, e->body.remaining(), e->raw_size);
}

/// Inverse of encode_payload: a raw body decodes in place, an LZ body from
/// its decompressed bytes. Either way the item must end exactly where the
/// body does. False on any malformed payload; `x` may then hold a partial
/// value, so callers decode into a scratch item.
template <typename T>
bool decode_payload(const ByteBuffer& payload, T& x) {
  auto e = detail::open_envelope(payload);
  if (!e) return false;
  if (!e->lz) return decode_item(e->body, x) && e->body.remaining() == 0;
  const auto raw =
      gs::lz_decompress(e->body.p, e->body.remaining(), e->raw_size);
  if (!raw) return false;
  DecodeCursor in{raw->data(), raw->data() + raw->size()};
  return decode_item(in, x) && in.remaining() == 0;
}

/// Order-sensitive checksum that guards spill files end to end. Eight
/// independent lanes take one word each per 64-byte stride, each step
/// `x = (lane ^ w) * K; lane = x ^ (x >> 29)`, so the lanes run in parallel
/// instead of as one serial chain. The lanes, then the tail words and bytes,
/// fold through splitmix64. Every step is a bijection of the running state,
/// so changing any single word (bit flips included) always changes the sum.
inline std::uint64_t payload_checksum(const ByteBuffer& payload) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  constexpr std::size_t kLanes = 8;
  const std::uint8_t* p = payload.data();
  const std::size_t n = payload.size();
  std::uint64_t s = 0x5370696c6c212121ULL ^ n;
  std::uint64_t lane[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) lane[l] = s + l * kMul;
  std::size_t i = 0;
  for (; i + 8 * kLanes <= n; i += 8 * kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::uint64_t w;
      std::memcpy(&w, p + i + 8 * l, 8);
      const std::uint64_t x = (lane[l] ^ w) * kMul;
      lane[l] = x ^ (x >> 29);
    }
  }
  auto fold = [&s](std::uint64_t w) {
    std::uint64_t x = s ^ w;
    s = gs::splitmix64(x);
  };
  for (const std::uint64_t l : lane) fold(l);
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    fold(w);
  }
  if (i < n) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    fold(tail);
  }
  return s;
}

}  // namespace sparklet
