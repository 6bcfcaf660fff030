// driver.hpp — the paper's contribution: GEP-class DP algorithms driven as
// Spark jobs over an r×r tile grid, with two distribution strategies.
//
// In-Memory (IM) — paper Listing 1. Each iteration k runs three shuffled
// phases: A on the pivot tile, whose flatMap also fans out copies of the
// updated tile to every consumer; B/C on pivot row/column, assembled with
// combineByKey and fanning their outputs to the D tiles; and D on the
// trailing submatrix via mapPartitions. Every phase repartitions with the
// job partitioner, so the data paths are wide (shuffles) throughout.
//
// Collect-Broadcast (CB) — paper Listing 2. Instead of shuffling copies,
// each phase's results are collect()ed to the driver and redistributed to
// executors through shared persistent storage (broadcast). Only the final
// per-iteration union is repartitioned.
//
// Dataflow — GepPlan below hands the same A/B/C/D kernel calls to the
// tile-task engine (dataflow.hpp), which releases each one the moment its
// input versions are ready instead of through the per-phase barriers.
//
// All paths apply per-tile kernels through kernels/tile_ops.hpp, so the
// kernel flavour (iterative vs r_shared-way recursive with OpenMP) is a
// plug-in — the paper's central comparison.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/schedule_check.hpp"
#include "gepspark/copy_plan.hpp"
#include "gepspark/dataflow.hpp"
#include "gepspark/options.hpp"
#include "grid/tile_grid.hpp"
#include "kernels/tile_ops.hpp"
#include "obs/span.hpp"
#include "semiring/gep_spec.hpp"
#include "sparklet/rdd.hpp"

namespace gepspark {

/// Role a tile copy plays when it reaches a consumer kernel.
enum class Role : std::uint8_t {
  kSelf = 0,    ///< the tile being updated
  kDiag = 1,    ///< copy of the pivot tile (u/w for B, v/w for C, w for D)
  kRowPiv = 2,  ///< copy of pivot-row tile (k,j) — D's v input
  kColPiv = 3,  ///< copy of pivot-column tile (i,k) — D's u input
};

template <typename T>
struct TaggedTile {
  Role role = Role::kSelf;
  gs::TileRef<T> tile;
};

/// Serialized size for shuffle accounting (found by ADL from sparklet).
template <typename T>
std::size_t item_bytes(const TaggedTile<T>& t) {
  return (t.tile ? t.tile->bytes() : std::size_t{8}) + 1;
}

/// The GEP family as a dataflow plan (see dataflow.hpp). Step k emits
/// A(k,k), then the pivot row B(k,j) and column C(i,k), then the trailing
/// D(i,j), each reading its kernel operands in slot order self, u, v, w:
///
///   A(k,k):  self
///   B(k,j):  self, u = (k,k)            [+ w = (k,k) iff Spec::kUsesW]
///   C(i,k):  self, v = (k,k)            [+ w]
///   D(i,j):  self, u = (i,k), v = (k,j) [+ w]
///
/// Reads resolve to the latest version at emission, so every kernel sees
/// exactly the barrier loop's input versions — same kernels, same inputs.
/// With fused_d the D tasks are batch tasks: one "DBatchGE" graph task per
/// (executor, k) walks its members with the packed-panel batched kernel.
template <gs::GepSpecType Spec>
class GepPlan {
 public:
  using value_type = typename Spec::value_type;
  using TileR = gs::TileRef<value_type>;
  using Reads = gs::TileReads<value_type>;
  static constexpr char kStep = 'k';

  GepPlan(std::shared_ptr<const gs::GepKernels<Spec>> kernels,
          gs::TileGrid<value_type> grid, bool fused_d)
      : kernels_(std::move(kernels)),
        grid_(std::move(grid)),
        ranges_(static_cast<int>(grid_.layout().r), Spec::kStrictSigma),
        fused_d_(fused_d) {}

  int grid_cols() const { return ranges_.r(); }
  int waves() const { return ranges_.r(); }
  std::string graph_name() const { return "dataflow"; }
  std::vector<std::pair<gs::TileKey, TileR>> inputs() const {
    return grid_.entries();
  }
  std::size_t tile_bytes(gs::TileKey key) const {
    return grid_.at(static_cast<std::size_t>(key.i),
                    static_cast<std::size_t>(key.j))
        ->bytes();
  }
  analysis::ScheduleWorkload workload() const {
    return analysis::make_schedule_workload<Spec>(ranges_.r());
  }

  static const char* task_label(const TileTask& t) {
    if (t.batch) return "DBatchGE";
    switch (t.kind) {
      case 'A': return "ARecGE";
      case 'D': return "DRecGE";
      default: return "BCRecGE";
    }
  }

  /// CB ships the pivot tile, then the pivot row and column, through the
  /// driver each iteration; trailing D tiles stay on their executors.
  static int cb_round(const TileTask& t) {
    return t.kind == 'A' ? 0 : t.kind == 'D' ? -1 : 1;
  }

  std::vector<TileTask> step_tasks(int k) const {
    const gs::TileKey pivot{k, k};
    std::vector<TileTask> tasks;
    auto emit = [&](char kind, gs::TileKey out,
                    std::vector<gs::TileKey> reads) {
      if (Spec::kUsesW && kind != 'A') reads.push_back(pivot);
      tasks.push_back(
          TileTask{kind, out, std::move(reads), kind == 'D' && fused_d_});
    };
    emit('A', pivot, {pivot});
    for (const auto& key : ranges_.b_keys(k)) emit('B', key, {key, pivot});
    for (const auto& key : ranges_.c_keys(k)) emit('C', key, {key, pivot});
    for (const auto& key : ranges_.d_keys(k)) {
      // u: post-C pivot column; v: post-B pivot row.
      emit('D', key, {key, {key.i, k}, {k, key.j}});
    }
    return tasks;
  }

  TileR compute(const TileTask& t, Reads in) const {
    if (t.batch && kernels_->config().strassen_d) {
      // Strassen reassociates sums, so per-tile recomputation must go
      // through the same split the batch used. strassen_field_tile is
      // tile-local, so a single-member batch reproduces the member's bits
      // regardless of the original batch composition.
      return compute_batch({&t}, {in})[0];
    }
    const gs::Tile<value_type>* w =
        Spec::kUsesW && t.kind != 'A' ? in.back() : nullptr;
    switch (t.kind) {
      case 'A':
        return gs::apply_tile_kernel<Spec>(*kernels_, gs::KernelKind::A,
                                           in[0], nullptr, nullptr, nullptr);
      case 'B':
        return gs::apply_tile_kernel<Spec>(*kernels_, gs::KernelKind::B,
                                           in[0], in[1], nullptr, w);
      case 'C':
        return gs::apply_tile_kernel<Spec>(*kernels_, gs::KernelKind::C,
                                           in[0], nullptr, in[1], w);
      default:
        return gs::apply_tile_kernel<Spec>(*kernels_, gs::KernelKind::D,
                                           in[0], in[1], in[2], w);
    }
  }

  /// Fused D: the members share one packed pivot panel and run as one
  /// batched call — bit-identical to the per-tile D kernel.
  std::vector<TileR> compute_batch(
      const std::vector<const TileTask*>& /*tasks*/,
      const std::vector<Reads>& ins) const {
    std::vector<gs::FusedDMember<value_type>> members;
    members.reserve(ins.size());
    const gs::Tile<value_type>* w = nullptr;
    for (const Reads& in : ins) {
      members.push_back({in[0], in[1], in[2]});
      if (Spec::kUsesW) w = in[3];
    }
    return gs::apply_fused_d_batch<Spec>(*kernels_, members, w);
  }

  template <typename Lookup>
  gs::Matrix<value_type> assemble(const Lookup& at) const {
    gs::TileGrid<value_type> out = grid_;
    for (int i = 0; i < ranges_.r(); ++i) {
      for (int j = 0; j < ranges_.r(); ++j) {
        out.set(static_cast<std::size_t>(i), static_cast<std::size_t>(j),
                at(gs::TileKey{i, j}));
      }
    }
    return out.gather();
  }

 private:
  std::shared_ptr<const gs::GepKernels<Spec>> kernels_;
  gs::TileGrid<value_type> grid_;
  GridRanges ranges_;
  bool fused_d_;
};

template <gs::GepSpecType Spec>
class GepDriver {
 public:
  using T = typename Spec::value_type;
  using TileR = gs::TileRef<T>;
  using DPPair = std::pair<gs::TileKey, TileR>;
  using Tagged = std::pair<gs::TileKey, TaggedTile<T>>;
  using DpRdd = sparklet::RDD<DPPair>;
  using TaggedRdd = sparklet::RDD<Tagged>;

  GepDriver(sparklet::SparkContext& sc, SolverOptions opt)
      : sc_(sc), opt_(std::move(opt)),
        kernels_(std::make_shared<const gs::GepKernels<Spec>>(opt_.kernel)) {
    opt_.validate<Spec>();
  }

  /// Run the full GEP computation on `input`: the processed table and its
  /// structured JobProfile. Enable sc.tracer() beforehand to also get span
  /// nesting and per-iteration attribution.
  SolveOutcome<T> solve(const gs::Matrix<T>& input) {
    const gs::BlockLayout layout =
        gs::BlockLayout::for_problem(input.rows(), opt_.block_size);
    gs::TileGrid<T> grid(input, opt_.block_size, Spec::pad_diag(),
                         Spec::pad_off());
    const int r = static_cast<int>(layout.r);
    part_ = job_partitioner(sc_, opt_, r);
    return profiled_solve<T>(sc_, opt_.describe(), r, [&] {
      if (opt_.schedule == ScheduleMode::kDataflow) {
        // Tile-level dataflow: same kernels on the same input versions, but
        // released per-task the moment dependencies are ready instead of
        // through the per-phase barrier loop below.
        const GepPlan<Spec> plan(kernels_, std::move(grid), opt_.fused_d);
        return DataflowEngine<GepPlan<Spec>>(sc_, opt_, plan, part_).solve();
      }
      DpRdd dp = sparklet::parallelize_pairs(sc_, grid.entries(), part_, "DP");
      dp = (opt_.strategy == Strategy::kInMemory) ? solve_im(dp, layout)
                                                  : solve_cb(dp, layout);
      return gs::TileGrid<T>::from_entries(layout, dp.collect("gatherResult"))
          .gather();
    });
  }

 private:
  static constexpr bool kUsesW = Spec::kUsesW;

  // ------------------------- In-Memory (Listing 1) -------------------------

  DpRdd solve_im(DpRdd dp, const gs::BlockLayout& layout) {
    const int r = static_cast<int>(layout.r);
    const GridRanges ranges(r, Spec::kStrictSigma);
    auto kern = kernels_;
    obs::Tracer* tr = &sc_.tracer();

    for (int k = 0; k < r; ++k) {
      obs::ScopedSpan iter_span(tr, obs::SpanLevel::kIteration, "iteration", k);
      // IM is lazy: the phase spans here time graph *construction*; the
      // stages execute under the persist phase at the end of the iteration,
      // where per-phase virtual time is recovered from stage labels.
      std::optional<obs::ScopedSpan> phase;
      phase.emplace(tr, obs::SpanLevel::kPhase, "A", k);
      // ---- Stage 1: kernel A on the pivot tile + IM copy fan-out ----
      auto a_out =
          dp.filter([k](const DPPair& kv) { return kv.first == gs::TileKey{k, k}; },
                    "FilterA")
              .flat_map(
                  [kern, ranges, k, tr](const DPPair& kv) {
                    TileR updated;
                    {
                      obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                  "A", k);
                      updated = gs::apply_tile_kernel<Spec>(
                          *kern, gs::KernelKind::A, kv.second.get(), nullptr,
                          nullptr, nullptr);
                    }
                    std::vector<Tagged> out;
                    out.push_back({kv.first, {Role::kSelf, updated}});
                    for (const auto& key : ranges.b_keys(k)) {
                      out.push_back({key, {Role::kDiag, updated}});
                    }
                    for (const auto& key : ranges.c_keys(k)) {
                      out.push_back({key, {Role::kDiag, updated}});
                    }
                    if (kUsesW) {
                      for (const auto& key : ranges.d_keys(k)) {
                        out.push_back({key, {Role::kDiag, updated}});
                      }
                    }
                    return out;
                  },
                  "ARecGE")
              .partition_by(part_, "partitionByA");

      auto a_self = untag(a_out.filter(
          [](const Tagged& kv) { return kv.second.role == Role::kSelf; },
          "selfA"));

      if (ranges.num_b(k) == 0) {
        phase.reset();
        // Last strict iteration (or r == 1): nothing but A runs.
        dp = sparklet::union_all<DPPair>(
                 {dp.filter([ranges, k](const DPPair& kv) {
                    return !ranges.is_touched(kv.first, k);
                  },
                  "FilterPrev"),
                  a_self},
                 "unionIter")
                 .partition_by(part_, "repartition");
        persist_iteration(dp, k);
        continue;
      }

      phase.emplace(tr, obs::SpanLevel::kPhase, "BC", k);
      // ---- Stage 2: kernels B and C on pivot row/column ----
      auto bc_old = tag_self(dp.filter(
          [ranges, k](const DPPair& kv) {
            return ranges.is_b(kv.first, k) || ranges.is_c(kv.first, k);
          },
          "FilterBC"));
      auto bc_copies = a_out.filter(
          [ranges, k](const Tagged& kv) {
            return kv.second.role == Role::kDiag &&
                   (ranges.is_b(kv.first, k) || ranges.is_c(kv.first, k));
          },
          "diagForBC");
      auto bc_out =
          bc_old.union_with(bc_copies)
              .group_by_key(part_, "combineByKeyBC")
              .flat_map(
                  [kern, ranges, k, tr](
                      const std::pair<gs::TileKey, std::vector<TaggedTile<T>>>&
                          kv) {
                    TileR self, diag;
                    for (const auto& tt : kv.second) {
                      (tt.role == Role::kSelf ? self : diag) = tt.tile;
                    }
                    GS_CHECK_MSG(self && diag,
                                 "B/C group missing self tile or pivot copy");
                    const bool is_row = kv.first.i == k;  // (k,j) → kernel B
                    TileR updated;
                    {
                      obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                  is_row ? "B" : "C", k);
                      updated = gs::apply_tile_kernel<Spec>(
                          *kern, is_row ? gs::KernelKind::B : gs::KernelKind::C,
                          self.get(), is_row ? diag.get() : nullptr,
                          is_row ? nullptr : diag.get(),
                          kUsesW ? diag.get() : nullptr);
                    }
                    std::vector<Tagged> out;
                    out.push_back({kv.first, {Role::kSelf, updated}});
                    if (is_row) {
                      for (int i : ranges.trailing_indices(k)) {
                        out.push_back(
                            {gs::TileKey{i, kv.first.j}, {Role::kRowPiv, updated}});
                      }
                    } else {
                      for (int j : ranges.trailing_indices(k)) {
                        out.push_back(
                            {gs::TileKey{kv.first.i, j}, {Role::kColPiv, updated}});
                      }
                    }
                    return out;
                  },
                  "BCRecGE")
              .partition_by(part_, "partitionByBC");

      auto bc_self = untag(bc_out.filter(
          [](const Tagged& kv) { return kv.second.role == Role::kSelf; },
          "selfBC"));

      phase.emplace(tr, obs::SpanLevel::kPhase, "D", k);
      // ---- Stage 3: kernel D on the trailing submatrix ----
      auto d_old = tag_self(dp.filter(
          [ranges, k](const DPPair& kv) { return ranges.is_d(kv.first, k); },
          "FilterD"));
      auto d_rowcol = bc_out.filter(
          [](const Tagged& kv) {
            return kv.second.role == Role::kRowPiv ||
                   kv.second.role == Role::kColPiv;
          },
          "pivForD");
      std::vector<TaggedRdd> d_inputs{d_old, d_rowcol};
      if (kUsesW) {
        d_inputs.push_back(a_out.filter(
            [ranges, k](const Tagged& kv) {
              return kv.second.role == Role::kDiag && ranges.is_d(kv.first, k);
            },
            "diagForD"));
      }
      auto d_grouped = sparklet::union_all<Tagged>(d_inputs, "unionD")
                           .group_by_key(part_, "combineByKeyD");
      // Fused: each partition's trailing tiles run as ONE batched call per
      // task against a shared panel pack, instead of one kernel dispatch per
      // tile. Same copy-on-write outputs, bit-identical values.
      auto d_batched = [kern, k, tr](
                           int /*p*/,
                           const std::vector<std::pair<
                               gs::TileKey, std::vector<TaggedTile<T>>>>& items) {
        std::vector<DPPair> out;
        out.reserve(items.size());
        if (items.empty()) return out;
        std::vector<gs::FusedDMember<T>> members;
        members.reserve(items.size());
        TileR shared_diag;
        for (const auto& [key, group] : items) {
          TileR self, diag, row, col;
          for (const auto& tt : group) {
            switch (tt.role) {
              case Role::kSelf: self = tt.tile; break;
              case Role::kDiag: diag = tt.tile; break;
              case Role::kRowPiv: row = tt.tile; break;
              case Role::kColPiv: col = tt.tile; break;
            }
          }
          GS_CHECK_MSG(self && row && col && (!kUsesW || diag),
                       "D group missing an input tile");
          members.push_back({self.get(), col.get(), row.get()});
          if (kUsesW) shared_diag = diag;  // one pivot copy serves the batch
        }
        obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel, "Dbatch", k);
        auto updated = gs::apply_fused_d_batch<Spec>(
            *kern, members, kUsesW ? shared_diag.get() : nullptr);
        for (std::size_t m = 0; m < items.size(); ++m) {
          out.push_back({items[m].first, std::move(updated[m])});
        }
        return out;
      };
      auto d_per_tile = [kern, k, tr](
                            int /*p*/,
                            const std::vector<std::pair<
                                gs::TileKey, std::vector<TaggedTile<T>>>>& items) {
        std::vector<DPPair> out;
        out.reserve(items.size());
        for (const auto& [key, group] : items) {
          TileR self, diag, row, col;
          for (const auto& tt : group) {
            switch (tt.role) {
              case Role::kSelf: self = tt.tile; break;
              case Role::kDiag: diag = tt.tile; break;
              case Role::kRowPiv: row = tt.tile; break;
              case Role::kColPiv: col = tt.tile; break;
            }
          }
          GS_CHECK_MSG(self && row && col && (!kUsesW || diag),
                       "D group missing an input tile");
          obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel, "D", k);
          out.push_back({key, gs::apply_tile_kernel<Spec>(
                                  *kern, gs::KernelKind::D, self.get(),
                                  col.get(), row.get(),
                                  kUsesW ? diag.get() : nullptr)});
        }
        return out;
      };
      auto d_out =
          (opt_.fused_d
               ? d_grouped.map_partitions(d_batched,
                                          /*preserves_partitioning=*/true,
                                          "DBatchGE")
               : d_grouped.map_partitions(d_per_tile,
                                          /*preserves_partitioning=*/true,
                                          "DRecGE"))
              .partition_by(part_, "partitionByD");

      phase.reset();
      // ---- Preparation for the next iteration (Listing 1 lines 16-23) ----
      auto prev = dp.filter(
          [ranges, k](const DPPair& kv) {
            return !ranges.is_touched(kv.first, k);
          },
          "FilterPrev");
      dp = sparklet::union_all<DPPair>({prev, a_self, bc_self, d_out},
                                       "unionIter")
               .partition_by(part_, "repartition");
      persist_iteration(dp, k);
    }
    return dp;
  }

  // --------------------- Collect-Broadcast (Listing 2) ---------------------

  DpRdd solve_cb(DpRdd dp, const gs::BlockLayout& layout) {
    const int r = static_cast<int>(layout.r);
    const GridRanges ranges(r, Spec::kStrictSigma);
    auto kern = kernels_;
    obs::Tracer* tr = &sc_.tracer();

    for (int k = 0; k < r; ++k) {
      obs::ScopedSpan iter_span(tr, obs::SpanLevel::kIteration, "iteration", k);
      // CB phases A and BC execute eagerly inside their collect() calls, so
      // these phase spans carry real virtual-time windows; D stays lazy and
      // runs under the persist phase.
      std::optional<obs::ScopedSpan> phase;
      phase.emplace(tr, obs::SpanLevel::kPhase, "A", k);
      // ---- Stage 1: kernel A, collect to driver, broadcast via storage ----
      auto a_rdd =
          dp.filter([k](const DPPair& kv) { return kv.first == gs::TileKey{k, k}; },
                    "FilterA")
              .map(
                  [kern, k, tr](const DPPair& kv) {
                    obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                "A", k);
                    return DPPair{kv.first,
                                  gs::apply_tile_kernel<Spec>(
                                      *kern, gs::KernelKind::A, kv.second.get(),
                                      nullptr, nullptr, nullptr)};
                  },
                  "ARecGE");
      auto a_collected = a_rdd.collect("collectA");
      GS_CHECK_MSG(a_collected.size() == 1, "expected exactly one pivot tile");
      auto diag_bc = sc_.broadcast(a_collected.front().second);  // "tofile()"

      auto prev = dp.filter(
          [ranges, k](const DPPair& kv) {
            return !ranges.is_touched(kv.first, k);
          },
          "FilterPrev");

      if (ranges.num_b(k) == 0) {
        phase.reset();
        dp = sparklet::union_all<DPPair>({prev, a_rdd}, "unionIter")
                 .partition_by(part_, "repartition");
        persist_iteration(dp, k);
        continue;
      }

      phase.emplace(tr, obs::SpanLevel::kPhase, "BC", k);
      // ---- Stage 2: kernels B/C against the broadcast pivot ----
      auto bc_rdd =
          dp.filter(
                [ranges, k](const DPPair& kv) {
                  return ranges.is_b(kv.first, k) || ranges.is_c(kv.first, k);
                },
                "FilterBC")
              .map(
                  [kern, diag_bc, k, tr](const DPPair& kv) {
                    const bool is_row = kv.first.i == k;
                    const TileR& diag = diag_bc.value();
                    obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                is_row ? "B" : "C", k);
                    return DPPair{
                        kv.first,
                        gs::apply_tile_kernel<Spec>(
                            *kern, is_row ? gs::KernelKind::B : gs::KernelKind::C,
                            kv.second.get(), is_row ? diag.get() : nullptr,
                            is_row ? nullptr : diag.get(),
                            kUsesW ? diag.get() : nullptr)};
                  },
                  "BCRecGE");
      auto bc_collected = bc_rdd.collect("collectBC");
      std::unordered_map<gs::TileKey, TileR, gs::TileKeyHash> pivot_map;
      for (const auto& [key, tile] : bc_collected) pivot_map.emplace(key, tile);
      auto pivots_bc = sc_.broadcast(std::move(pivot_map));  // "tofile()"

      phase.emplace(tr, obs::SpanLevel::kPhase, "D", k);
      // ---- Stage 3: kernel D against broadcast pivot row/column ----
      auto d_filtered = dp.filter(
          [ranges, k](const DPPair& kv) { return ranges.is_d(kv.first, k); },
          "FilterD");
      DpRdd d_rdd =
          opt_.fused_d
              // Fused: the partition's tiles share one panel pack built from
              // the broadcast pivot maps, one batched call per task.
              ? d_filtered.map_partitions(
                    [kern, pivots_bc, diag_bc, k, tr](
                        int /*p*/, const std::vector<DPPair>& items) {
                      std::vector<DPPair> out;
                      out.reserve(items.size());
                      if (items.empty()) return out;
                      const auto& pivots = pivots_bc.value();
                      std::vector<gs::FusedDMember<T>> members;
                      members.reserve(items.size());
                      for (const auto& kv : items) {
                        members.push_back(
                            {kv.second.get(),
                             pivots.at(gs::TileKey{kv.first.i, k}).get(),
                             pivots.at(gs::TileKey{k, kv.first.j}).get()});
                      }
                      obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                  "Dbatch", k);
                      auto updated = gs::apply_fused_d_batch<Spec>(
                          *kern, members,
                          kUsesW ? diag_bc.value().get() : nullptr);
                      for (std::size_t m = 0; m < items.size(); ++m) {
                        out.push_back({items[m].first, std::move(updated[m])});
                      }
                      return out;
                    },
                    /*preserves_partitioning=*/true, "DBatchGE")
              : d_filtered.map(
                    [kern, pivots_bc, diag_bc, k, tr](const DPPair& kv) {
                      const auto& pivots = pivots_bc.value();
                      const TileR& col = pivots.at(gs::TileKey{kv.first.i, k});
                      const TileR& row = pivots.at(gs::TileKey{k, kv.first.j});
                      obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                  "D", k);
                      return DPPair{
                          kv.first,
                          gs::apply_tile_kernel<Spec>(
                              *kern, gs::KernelKind::D, kv.second.get(),
                              col.get(), row.get(),
                              kUsesW ? diag_bc.value().get() : nullptr)};
                    },
                    "DRecGE");
      phase.reset();

      // ---- Listing 2 lines 13-19: reassemble and repartition once ----
      dp = sparklet::union_all<DPPair>({prev, a_rdd, bc_rdd, d_rdd},
                                       "unionIter")
               .partition_by(part_, "repartition");
      persist_iteration(dp, k);
    }
    return dp;
  }

  // ------------------------------ helpers ------------------------------

  /// End-of-iteration persistence (Listings 1 & 2 line "checkpoint(DP)"):
  /// checkpoint — persist + truncate lineage — on the configured interval;
  /// otherwise just materialize, leaving lineage intact so a later failure
  /// replays from the last checkpoint instead of losing the job.
  void persist_iteration(DpRdd& dp, int k) const {
    // In IM this phase is where the whole iteration's lazy graph executes.
    obs::ScopedSpan phase_span(&sc_.tracer(), obs::SpanLevel::kPhase,
                               "persist", k);
    // The iteration's table carries the configured storage level, so under a
    // memory cap its tiles demote (serialize, spill) instead of dropping.
    dp.node()->set_storage_level(opt_.storage_level);
    const int interval = opt_.checkpoint_interval;
    if (interval > 0 && (k + 1) % interval == 0) {
      dp.checkpoint();
    } else {
      dp.cache();
    }
  }

  // mapValues keeps keys (and therefore the partitioner) intact, so these
  // wrappers never break the shuffle-elision chain.
  TaggedRdd tag_self(const DpRdd& rdd) const {
    return rdd.map_values(
        [](const TileR& t) { return TaggedTile<T>{Role::kSelf, t}; },
        "tagSelf");
  }

  DpRdd untag(const TaggedRdd& rdd) const {
    return rdd.map_values([](const TaggedTile<T>& tt) { return tt.tile; },
                          "untag");
  }

  sparklet::SparkContext& sc_;
  SolverOptions opt_;
  std::shared_ptr<const gs::GepKernels<Spec>> kernels_;
  sparklet::PartitionerPtr part_;
};

}  // namespace gepspark
