// tile_ops.hpp — whole-tile kernel application: copy-on-write update of one
// DP tile. This is the unit of work a Spark task executes in the drivers.
#pragma once

#include <unordered_map>
#include <vector>

#include "grid/tile.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/kernel_kind.hpp"

namespace gs {

/// Apply kernel `kind` to tile x with inputs u/v/w, returning the updated
/// tile. Inputs irrelevant to the kind must be null; `w` may additionally be
/// null for specs whose f ignores c[k,k] (kUsesW == false, e.g. FW-APSP) —
/// the paper's drivers exploit exactly that to ship fewer tile copies. The
/// inputs are borrowed for the call.
template <GepSpecType Spec>
TileRef<typename Spec::value_type> apply_tile_kernel(
    const GepKernels<Spec>& kernels, KernelKind kind,
    const Tile<typename Spec::value_type>* x,
    const Tile<typename Spec::value_type>* u,
    const Tile<typename Spec::value_type>* v,
    const Tile<typename Spec::value_type>* w) {
  using T = typename Spec::value_type;
  GS_CHECK_MSG(x != nullptr, "kernel input tile x missing");

  auto out = std::make_shared<Tile<T>>(*x);  // copy-on-write
  Span2D<T> xs = out->span();

  // Stand-in for w when the spec never reads it: any well-shaped span works.
  auto w_span = [&]() -> Span2D<const T> {
    if (w != nullptr) return w->span();
    GS_CHECK_MSG(!Spec::kUsesW, "spec reads c[k,k] but w tile missing");
    return x->span();
  };

  switch (kind) {
    case KernelKind::A:
      GS_CHECK_MSG(!u && !v && !w, "kernel A takes no external inputs");
      kernels.a(xs);
      break;
    case KernelKind::B:
      GS_CHECK_MSG(u != nullptr && !v, "kernel B needs u (and optionally w)");
      kernels.b(xs, u->span(), w_span());
      break;
    case KernelKind::C:
      GS_CHECK_MSG(v != nullptr && !u, "kernel C needs v (and optionally w)");
      kernels.c(xs, v->span(), w_span());
      break;
    case KernelKind::D:
      GS_CHECK_MSG(u != nullptr && v != nullptr, "kernel D needs u and v");
      kernels.d(xs, u->span(), v->span(), w_span());
      break;
  }
  return TileRef<T>(std::move(out));
}

/// One member of a fused D batch: the trailing tile (i,j) plus its pivot
/// column (i,k) and pivot row (k,j) operands, borrowed for the call. The
/// pivot tile (k,k) is shared by the whole batch and passed separately.
template <typename T>
struct FusedDMember {
  const Tile<T>* x;  ///< trailing tile to update
  const Tile<T>* u;  ///< pivot-column operand
  const Tile<T>* v;  ///< pivot-row operand
};

/// Apply the step-k D update to a whole batch of trailing tiles through the
/// fused backend: each distinct pivot operand tile is packed exactly once
/// (members sharing a tile row/column share the packed panel), then
/// fused_d_batch walks the members. Returns the updated tiles in member
/// order. Output value i is bit-identical to
/// apply_tile_kernel(D, members[i]...) unless cfg.strassen_d opts a field
/// spec into the reassociated split.
template <GepSpecType Spec>
std::vector<TileRef<typename Spec::value_type>> apply_fused_d_batch(
    const GepKernels<Spec>& kernels,
    const std::vector<FusedDMember<typename Spec::value_type>>& members,
    const Tile<typename Spec::value_type>* w) {
  using T = typename Spec::value_type;
  if (members.empty()) return {};

  const std::size_t b = members.front().x->rows();
  auto square_b = [&](const Tile<T>* t) {
    return t != nullptr && t->rows() == b && t->cols() == b;
  };

  // Assign pack slots, deduplicating operands shared across members (one
  // pivot-column tile serves a whole tile row of the trailing submatrix).
  std::unordered_map<const Tile<T>*, std::size_t> col_slot, row_slot;
  for (const auto& m : members) {
    GS_CHECK_MSG(square_b(m.x) && square_b(m.u) && square_b(m.v),
                 "fused D batch needs uniform square b x b tiles");
    col_slot.emplace(m.u, col_slot.size());
    row_slot.emplace(m.v, row_slot.size());
  }

  DPanelPack<Spec> pack(b, col_slot.size(), row_slot.size());
  {
    // Pack in slot order so slot indices and pack order agree.
    std::vector<const Tile<T>*> cols(col_slot.size()), rows(row_slot.size());
    for (const auto& [tile, slot] : col_slot) cols[slot] = tile;
    for (const auto& [tile, slot] : row_slot) rows[slot] = tile;
    for (const Tile<T>* t : cols) pack.pack_col(t->span());
    for (const Tile<T>* t : rows) pack.pack_row(t->span());
  }
  if constexpr (Spec::kUsesW) {
    GS_CHECK_MSG(square_b(w), "spec reads c[k,k] but pivot tile missing");
    pack.pack_pivot(w->span());
  }

  std::vector<std::shared_ptr<Tile<T>>> outs;
  std::vector<FusedDItem<Spec>> items;
  outs.reserve(members.size());
  items.reserve(members.size());
  for (const auto& m : members) {
    outs.push_back(std::make_shared<Tile<T>>(*m.x));  // copy-on-write
    items.push_back({outs.back()->span(), col_slot.at(m.u),
                     row_slot.at(m.v)});
  }
  kernels.d_batch(pack, items);

  std::vector<TileRef<T>> result;
  result.reserve(outs.size());
  for (auto& o : outs) result.push_back(TileRef<T>(std::move(o)));
  return result;
}

}  // namespace gs
