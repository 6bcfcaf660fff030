// tile.hpp — one dense block of the decomposed DP table.
//
// Tiles are the *values* of the pair RDD in the Spark-style drivers (the key
// is the grid coordinate). They are square in the solvers but the type
// supports rectangles for generality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "grid/matrix.hpp"
#include "support/buffer.hpp"
#include "support/span2d.hpp"

namespace gs {

/// Tile payloads live in AlignedBuffer storage, so every tile base pointer
/// is cache-line aligned. The SIMD micro-kernels and the fused D backend's
/// panel packing rely on this: a 64-byte base plus cache-line-padded packed
/// strides means vector loads never split a line.
inline constexpr std::size_t kTileAlignment = kCacheLineBytes;
static_assert(kTileAlignment == 64 && (kTileAlignment & (kTileAlignment - 1)) == 0,
              "tile storage must be 64-byte (cache line) aligned");

/// Grid coordinate of a tile: (block-row, block-col).
struct TileKey {
  std::int32_t i = 0;
  std::int32_t j = 0;

  friend bool operator==(const TileKey&, const TileKey&) = default;
  friend auto operator<=>(const TileKey&, const TileKey&) = default;
};

struct TileKeyHash {
  std::size_t operator()(const TileKey& k) const {
    // 2D -> 1D mix; grids are small (r <= a few hundred) so this is plenty.
    const std::uint64_t x =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.i)) << 32) |
        static_cast<std::uint32_t>(k.j);
    std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// A dense tile. Copy is deep (the IM driver's fan-out makes real copies,
/// matching Spark's shuffle semantics where each consumer gets its own
/// deserialized block).
template <typename T>
class Tile {
 public:
  Tile() = default;
  Tile(std::size_t rows, std::size_t cols) : m_(rows, cols) {}
  Tile(std::size_t rows, std::size_t cols, const T& fill) : m_(rows, cols, fill) {}
  explicit Tile(Matrix<T> m) : m_(std::move(m)) {}

  std::size_t rows() const { return m_.rows(); }
  std::size_t cols() const { return m_.cols(); }
  bool empty() const { return m_.empty(); }

  T& operator()(std::size_t i, std::size_t j) { return m_(i, j); }
  const T& operator()(std::size_t i, std::size_t j) const { return m_(i, j); }

  Span2D<T> span() { return m_.span(); }
  Span2D<const T> span() const { return m_.span(); }

  /// Serialized payload size — what Spark would move over the wire for this
  /// block. Used by sparklet's shuffle accounting and the simulators.
  std::size_t bytes() const { return m_.size() * sizeof(T) + 64; }

  /// True when the backing storage honours the kTileAlignment contract
  /// (always, by construction — asserted by the alignment unit tests).
  bool storage_aligned() const {
    const auto addr = reinterpret_cast<std::uintptr_t>(
        static_cast<const void*>(m_.span().data()));
    return empty() || addr % kTileAlignment == 0;
  }

  friend bool operator==(const Tile& a, const Tile& b) { return a.m_ == b.m_; }

 private:
  Matrix<T> m_;
};

/// Shared-immutable tile handle. Sparklet RDD elements are copied between
/// lineage nodes; sharing the payload keeps the *real* execution affordable
/// while the metrics layer still charges full copy bytes where Spark would.
template <typename T>
using TileRef = std::shared_ptr<const Tile<T>>;

/// The tiles one task reads, in the task's read order: borrowed pointers
/// that the caller keeps alive for the call. Kernels take their operands
/// this way, so a read costs no reference-count traffic.
template <typename T>
using TileReads = std::span<const Tile<T>* const>;

template <typename T, typename... Args>
TileRef<T> make_tile(Args&&... args) {
  return std::make_shared<const Tile<T>>(std::forward<Args>(args)...);
}

}  // namespace gs
