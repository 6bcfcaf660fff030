// nested_driver.hpp — unified solve entry point for the nested-dataflow
// workloads, mirroring GepDriver's surface: one call returns
// SolveOutcome{matrix, profile} and honours SolverOptions' strategy
// (IM / CB), schedule (barrier / dataflow), storage level, checkpoint
// interval, lookahead, and --validate-schedule.
//
// Barrier IM (Listing 1 shape): each wave phase fans a copy of every needed
// finished tile to its consumer tasks through a shuffle (flatMap +
// combineByKey keyed by the consumer tile), so the wide-dependency wavefront
// runs with Spark's shuffle machinery. Sentinel seeds guarantee a group for
// zero-read tasks (wave 0).
//
// Barrier CB (Listing 2 shape): finished tiles are collect()ed to the driver
// and re-broadcast each phase — the accordion's same-wave diagonal→panel
// ordering falls out of phases being separate collect rounds.
//
// Dataflow: the plan runs on the tile-task engine that also runs GEP
// (segments, fences, lookahead, transfer tasks, checkpoint snapshots) — see
// gepspark/dataflow.hpp.
//
// All three paths run plan.compute() — the same pure per-cell recurrence —
// on the same tile inputs, so results are bit-identical across every mode.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gepspark/dataflow.hpp"
#include "gepspark/options.hpp"
#include "grid/matrix.hpp"
#include "nested/nested_plan.hpp"
#include "obs/span.hpp"
#include "sparklet/rdd.hpp"
#include "support/check.hpp"
#include "support/format.hpp"

namespace nested {

inline const char* kind_cstr(char k) {
  switch (k) {
    case 'G': return "G";
    case 'E': return "E";
    case 'P': return "P";
    case 'V': return "V";
  }
  return "?";
}

namespace detail {

using DoneMap = std::unordered_map<gs::TileKey, TileR, gs::TileKeyHash>;

/// A task's read tiles, in `reads` order — what plan.compute() takes as its
/// TileReads. `done` keeps the tiles alive for the call.
inline std::vector<const gs::Tile<double>*> reads_of(const TileTask& task,
                                                     const DoneMap& done) {
  std::vector<const gs::Tile<double>*> in;
  in.reserve(task.reads.size());
  for (const gs::TileKey& key : task.reads) in.push_back(done.at(key).get());
  return in;
}

/// Collect-Broadcast barrier: per phase, broadcast every finished tile,
/// compute the phase's tasks against the broadcast map, collect, merge.
template <typename Plan>
gs::Matrix<double> solve_cb(sparklet::SparkContext& sc, const Plan& plan,
                            const gepspark::SolverOptions& opt,
                            const sparklet::PartitionerPtr& part) {
  (void)opt;
  obs::Tracer* tr = &sc.tracer();
  DoneMap done;
  const int waves = plan.waves();
  for (int wv = 0; wv < waves; ++wv) {
    obs::ScopedSpan iter_span(tr, obs::SpanLevel::kIteration, "wave", wv);
    for (const auto& phase : plan.wave_phases(wv)) {
      auto done_bc = sc.broadcast(done);  // "tofile()"
      auto tasks = std::make_shared<const std::vector<TileTask>>(phase);
      std::vector<std::pair<gs::TileKey, int>> keyed;
      keyed.reserve(phase.size());
      for (int t = 0; t < static_cast<int>(phase.size()); ++t) {
        keyed.push_back({phase[static_cast<std::size_t>(t)].out, t});
      }
      auto entries =
          sparklet::parallelize_pairs(sc, keyed, part, "nestedPhase")
              .map(
                  [plan, tasks, done_bc, tr,
                   wv](const std::pair<gs::TileKey, int>& kv) {
                    const TileTask& task =
                        (*tasks)[static_cast<std::size_t>(kv.second)];
                    obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                kind_cstr(task.kind), wv);
                    TileR out =
                        plan.compute(task, reads_of(task, done_bc.value()));
                    return std::pair<gs::TileKey, TileR>{kv.first,
                                                         std::move(out)};
                  },
                  "nestedWaveKernel")
              .collect("nestedCollectWave");
      for (auto& [key, tile] : entries) done.emplace(key, std::move(tile));
    }
  }
  return plan.assemble([&](gs::TileKey key) { return done.at(key); });
}

/// In-Memory barrier: per phase, fan a tagged copy of each finished tile to
/// every consumer task through the shuffle, group by consumer, compute.
template <typename Plan>
gs::Matrix<double> solve_im(sparklet::SparkContext& sc, const Plan& plan,
                            const gepspark::SolverOptions& opt,
                            const sparklet::PartitionerPtr& part) {
  using KV = std::pair<gs::TileKey, TileR>;
  using SrcKV = std::pair<gs::TileKey, TileR>;  // (source key, tile | sentinel)
  using FanKV = std::pair<gs::TileKey, SrcKV>;  // keyed by consumer tile
  obs::Tracer* tr = &sc.tracer();
  auto done =
      sparklet::parallelize_pairs(sc, std::vector<KV>{}, part, "nestedDP");
  const int waves = plan.waves();
  for (int wv = 0; wv < waves; ++wv) {
    obs::ScopedSpan iter_span(tr, obs::SpanLevel::kIteration, "wave", wv);
    for (const auto& phase : plan.wave_phases(wv)) {
      auto task_map = std::make_shared<
          const std::unordered_map<gs::TileKey, TileTask, gs::TileKeyHash>>(
          [&] {
            std::unordered_map<gs::TileKey, TileTask, gs::TileKeyHash> m;
            for (const auto& t : phase) m.emplace(t.out, t);
            return m;
          }());
      auto consumers = std::make_shared<const std::unordered_map<
          gs::TileKey, std::vector<gs::TileKey>, gs::TileKeyHash>>([&] {
        std::unordered_map<gs::TileKey, std::vector<gs::TileKey>,
                           gs::TileKeyHash>
            c;
        for (const auto& t : phase) {
          for (const auto& rd : t.reads) c[rd].push_back(t.out);
        }
        return c;
      }());

      // Every finished tile ships one copy per consumer task — the wide
      // wavefront dependency as an actual shuffle.
      auto fan = done.flat_map(
          [consumers](const KV& kv) {
            std::vector<FanKV> out;
            auto it = consumers->find(kv.first);
            if (it != consumers->end()) {
              out.reserve(it->second.size());
              for (const auto& dst : it->second) {
                out.push_back({dst, SrcKV{kv.first, kv.second}});
              }
            }
            return out;
          },
          "nestedFanOut");
      // Sentinel seeds guarantee a group exists even for zero-read tasks.
      std::vector<FanKV> seeds;
      seeds.reserve(phase.size());
      for (const auto& t : phase) seeds.push_back({t.out, SrcKV{t.out, nullptr}});
      auto computed =
          sparklet::parallelize_pairs(sc, seeds, part, "nestedSeeds")
              .union_with(fan, "nestedGather")
              .group_by_key(part, "combineByKeyNested")
              .map(
                  [plan, task_map, tr, wv](
                      const std::pair<gs::TileKey, std::vector<SrcKV>>& kv) {
                    DoneMap inputs;
                    for (const auto& src : kv.second) {
                      if (src.second != nullptr) {
                        inputs.emplace(src.first, src.second);
                      }
                    }
                    const TileTask& task = task_map->at(kv.first);
                    obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                kind_cstr(task.kind), wv);
                    TileR out = plan.compute(task, reads_of(task, inputs));
                    return KV{kv.first, std::move(out)};
                  },
                  "nestedWaveKernel");
      done = done.union_with(computed, "unionWave")
                 .partition_by(part, "repartition");
    }
    // End-of-wave persistence, exactly like the GEP barrier loop.
    obs::ScopedSpan persist_span(tr, obs::SpanLevel::kPhase, "persist", wv);
    done.node()->set_storage_level(opt.storage_level);
    const int interval = opt.checkpoint_interval;
    if (interval > 0 && (wv + 1) % interval == 0) {
      done.checkpoint();
    } else {
      done.cache();
    }
  }
  auto entries = done.collect("gatherResult");
  DoneMap all;
  all.reserve(entries.size());
  for (auto& [key, tile] : entries) all.emplace(key, std::move(tile));
  return plan.assemble([&](gs::TileKey key) { return all.at(key); });
}

}  // namespace detail

/// Solve a nested workload under the configured strategy and schedule.
template <typename Plan>
gepspark::SolveOutcome<double> nested_solve(
    sparklet::SparkContext& sc, const Plan& plan,
    const gepspark::SolverOptions& opt) {
  opt.validate();
  GS_THROW_IF(opt.fused_d, gs::ConfigError,
              "fused_d applies only to GEP-shaped workloads (the nested "
              "wavefronts have no D phase to batch)");
  GS_THROW_IF(opt.track_predecessors, gs::ConfigError,
              "track_predecessors applies only to the FW spec");

  const sparklet::PartitionerPtr part =
      gepspark::job_partitioner(sc, opt, plan.grid_cols());
  return gepspark::profiled_solve<double>(
      sc, gs::strfmt("%s %s", Plan::name(), opt.describe().c_str()),
      plan.grid_cols(), [&] {
        if (opt.schedule == gepspark::ScheduleMode::kDataflow) {
          return gepspark::DataflowEngine<Plan>(sc, opt, plan, part).solve();
        }
        return opt.strategy == gepspark::Strategy::kInMemory
                   ? detail::solve_im(sc, plan, opt, part)
                   : detail::solve_cb(sc, plan, opt, part);
      });
}

/// Model-check a nested plan's dataflow schedule (`--model-check`): the
/// nested counterpart of gepspark::model_check_gep.
template <typename Plan>
analysis::ModelCheckReport model_check_nested(
    sparklet::SparkContext& sc, const Plan& plan,
    const gepspark::SolverOptions& opt,
    const analysis::ModelCheckOptions& mc = analysis::ModelCheckOptions{}) {
  return gepspark::model_check_dataflow(
      sc, opt, mc, [&](const gepspark::SolverOptions& o) {
        return nested_solve(sc, plan, o);
      });
}

}  // namespace nested
