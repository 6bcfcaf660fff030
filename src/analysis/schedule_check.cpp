#include "analysis/schedule_check.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "gepspark/copy_plan.hpp"
#include "support/format.hpp"

namespace analysis {

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kMalformedGraph: return "malformed-graph";
    case ViolationKind::kBadMetadata: return "bad-metadata";
    case ViolationKind::kMissingTask: return "missing-task";
    case ViolationKind::kUnexpectedTask: return "unexpected-task";
    case ViolationKind::kDuplicateWrite: return "duplicate-write";
    case ViolationKind::kUnorderedRead: return "unordered-read";
    case ViolationKind::kStaleRead: return "stale-read";
    case ViolationKind::kUnorderedWrite: return "unordered-write";
    case ViolationKind::kMissingTransfer: return "missing-transfer";
    case ViolationKind::kLookaheadOverrun: return "lookahead-overrun";
    case ViolationKind::kFenceIncomplete: return "fence-incomplete";
  }
  return "?";
}

std::string ScheduleCheckReport::summary() const {
  std::string out = gs::strfmt(
      "schedule check: %s — %d segment(s), %d tile task(s), %d transfer(s), "
      "%d read(s)/%d write(s) verified, %zu violation(s)",
      ok() ? "SOUND" : "UNSOUND", segments, tasks, transfers, reads, writes,
      violations.size());
  for (const auto& v : violations) {
    out += gs::strfmt("\n  [%s] segment %d: %s", violation_kind_name(v.kind),
                      v.segment, v.message.c_str());
  }
  return out;
}

namespace {

/// Dense ancestor bitsets over a DAG given in dependency order: anc[i] holds
/// every task with a happens-before path to i. One pass suffices because
/// deps precede their consumers by construction.
class Reachability {
 public:
  explicit Reachability(std::size_t n)
      : n_(n), words_((n + 63) / 64), bits_(n_ * words_, 0) {}

  void absorb(std::size_t task, std::size_t dep) {
    std::uint64_t* t = row(task);
    const std::uint64_t* d = row(dep);
    for (std::size_t w = 0; w < words_; ++w) t[w] |= d[w];
    t[dep / 64] |= std::uint64_t{1} << (dep % 64);
  }

  bool reaches(std::size_t from, std::size_t to) const {
    return (row(to)[from / 64] >> (from % 64)) & 1u;
  }

 private:
  std::uint64_t* row(std::size_t i) { return bits_.data() + i * words_; }
  const std::uint64_t* row(std::size_t i) const {
    return bits_.data() + i * words_;
  }
  std::size_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// One symbolic read: tile `key` at version `k` (producing iteration; -1 or
/// anything older than the segment means carried/resident input).
struct SymRead {
  gs::TileKey key;
  int k;
};

const char* kind_str(char kind) {
  switch (kind) {
    case 'A': return "A";
    case 'B': return "B";
    case 'C': return "C";
    case 'D': return "D";
    case 'G': return "G";
    case 'E': return "E";
    case 'P': return "P";
    case 'V': return "V";
    case 'I': return "I";
    case 'S': return "S";
    case 'F': return "fence";
    case 'X': return "transfer";
  }
  return "?";
}

/// Which compute-task kinds a dependency shape may emit. A kind from the
/// wrong shape is bad metadata, not merely an unexpected task — the engine
/// stamped a kernel identity the workload cannot contain.
bool kind_in_shape(DepShape shape, char kind) {
  switch (shape) {
    case DepShape::kGep:
      return kind == 'A' || kind == 'B' || kind == 'C' || kind == 'D';
    case DepShape::kGap: return kind == 'G';
    case DepShape::kAccordion: return kind == 'E' || kind == 'P';
    case DepShape::kViterbi: return kind == 'V';
    case DepShape::kParen: return kind == 'I';
    case DepShape::kAlign: return kind == 'S';
  }
  return false;
}

std::string task_desc(const std::vector<sparklet::DataflowTaskSpec>& tasks,
                      int t) {
  const auto& s = tasks[static_cast<std::size_t>(t)];
  if (s.gep_kind == 'F') {
    return gs::strfmt("#%d %s(k=%d)", t, s.label.c_str(), s.gep_k);
  }
  if (!s.batch.empty()) {
    return gs::strfmt("#%d %s[%s batch of %zu tile(s)@k=%d]", t,
                      s.label.c_str(), kind_str(s.gep_kind), s.batch.size(),
                      s.gep_k);
  }
  return gs::strfmt("#%d %s[%s(%d,%d)@k=%d]", t, s.label.c_str(),
                    kind_str(s.gep_kind), s.tile_i, s.tile_j, s.gep_k);
}

}  // namespace

ScheduleChecker::ScheduleChecker(const ScheduleWorkload& workload,
                                 const ScheduleCheckOptions& opt)
    : w_(workload), opt_(opt) {
  GS_THROW_IF(w_.r < 1, gs::ConfigError, "schedule workload: r must be >= 1");
  GS_THROW_IF(w_.rows < 0, gs::ConfigError,
              "schedule workload: rows must be >= 0");
  GS_THROW_IF(opt_.lookahead < 0, gs::ConfigError,
              "schedule options: lookahead must be >= 0");
}

void ScheduleChecker::check_segment(
    const std::vector<sparklet::DataflowTaskSpec>& tasks, int seg_begin,
    int seg_end) {
  const int seg = segment_index_++;
  ++report_.segments;
  const std::size_t n = tasks.size();
  auto add = [&](ViolationKind kind, int task, int other, std::string msg) {
    report_.violations.push_back(
        {kind, seg, task, other, std::move(msg)});
  };

  // --- structural sanity + reachability ----------------------------------
  Reachability reach(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int d : tasks[i].deps) {
      if (d < 0 || static_cast<std::size_t>(d) >= i) {
        add(ViolationKind::kMalformedGraph, static_cast<int>(i), d,
            gs::strfmt("task #%zu has dep %d which does not precede it — "
                       "not a DAG in dependency order",
                       i, d));
        continue;
      }
      reach.absorb(i, static_cast<std::size_t>(d));
    }
  }

  // --- index tasks by identity -------------------------------------------
  // writer_of[(tile, k)] = task index; fence_of[k] = fence index.
  std::map<std::pair<std::pair<int, int>, int>, int> writer_of;
  std::map<int, int> fence_of;
  std::vector<int> compute_tasks;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& t = tasks[i];
    switch (t.gep_kind) {
      case 'A':
      case 'B':
      case 'C':
      case 'D':
      case 'G':
      case 'E':
      case 'P':
      case 'V':
      case 'I':
      case 'S': {
        if (!kind_in_shape(w_.shape, t.gep_kind)) {
          add(ViolationKind::kBadMetadata, static_cast<int>(i), -1,
              gs::strfmt("%s carries kernel kind %s which this workload's "
                         "dependency shape cannot emit",
                         task_desc(tasks, static_cast<int>(i)).c_str(),
                         kind_str(t.gep_kind)));
          break;
        }
        if (!t.batch.empty()) {
          // Batched task (fused D): its footprint is the union of the member
          // tiles' read/write sets. Each member registers as the writer of
          // its own (tile, k), so per-tile read coverage, write ordering,
          // duplicate detection, and the unexpected-task sweep all still see
          // tile granularity.
          if (t.gep_kind != 'D') {
            add(ViolationKind::kBadMetadata, static_cast<int>(i), -1,
                gs::strfmt("%s batches tiles but only D tasks may batch",
                           task_desc(tasks, static_cast<int>(i)).c_str()));
            break;
          }
          if (t.gep_k < seg_begin || t.gep_k >= seg_end) {
            add(ViolationKind::kBadMetadata, static_cast<int>(i), -1,
                gs::strfmt("%s carries iteration %d outside the segment "
                           "[%d,%d)",
                           task_desc(tasks, static_cast<int>(i)).c_str(),
                           t.gep_k, seg_begin, seg_end));
            break;
          }
          bool any_registered = false;
          for (const auto& [bi, bj] : t.batch) {
            if (bi < 0 || bi >= w_.r || bj < 0 || bj >= w_.r) {
              add(ViolationKind::kBadMetadata, static_cast<int>(i), -1,
                  gs::strfmt("%s member tile (%d,%d) lies outside the grid "
                             "%dx%d",
                             task_desc(tasks, static_cast<int>(i)).c_str(), bi,
                             bj, w_.r, w_.r));
              continue;
            }
            const auto id = std::make_pair(std::make_pair(bi, bj), t.gep_k);
            auto [wit, inserted] = writer_of.emplace(id, static_cast<int>(i));
            if (!inserted) {
              add(ViolationKind::kDuplicateWrite, static_cast<int>(i),
                  wit->second,
                  gs::strfmt("%s and %s both write tile (%d,%d) at "
                             "iteration %d",
                             task_desc(tasks, static_cast<int>(i)).c_str(),
                             task_desc(tasks, wit->second).c_str(), bi, bj,
                             t.gep_k));
              continue;
            }
            any_registered = true;
          }
          if (any_registered) compute_tasks.push_back(static_cast<int>(i));
          break;
        }
        if (t.gep_k < seg_begin || t.gep_k >= seg_end || t.tile_i < 0 ||
            t.tile_i >= w_.grid_rows() || t.tile_j < 0 || t.tile_j >= w_.r) {
          add(ViolationKind::kBadMetadata, static_cast<int>(i), -1,
              gs::strfmt("%s carries iteration/tile metadata outside the "
                         "segment [%d,%d) or grid %dx%d",
                         task_desc(tasks, static_cast<int>(i)).c_str(),
                         seg_begin, seg_end, w_.grid_rows(), w_.r));
          break;
        }
        const auto id = std::make_pair(std::make_pair(t.tile_i, t.tile_j),
                                       t.gep_k);
        auto [it, inserted] = writer_of.emplace(id, static_cast<int>(i));
        if (!inserted) {
          add(ViolationKind::kDuplicateWrite, static_cast<int>(i), it->second,
              gs::strfmt("%s and %s both write tile (%d,%d) at iteration %d",
                         task_desc(tasks, static_cast<int>(i)).c_str(),
                         task_desc(tasks, it->second).c_str(), t.tile_i,
                         t.tile_j, t.gep_k));
          break;
        }
        compute_tasks.push_back(static_cast<int>(i));
        break;
      }
      case 'F': {
        auto [it, inserted] = fence_of.emplace(t.gep_k, static_cast<int>(i));
        if (!inserted) {
          add(ViolationKind::kBadMetadata, static_cast<int>(i), it->second,
              gs::strfmt("two fences claim iteration %d (#%d and #%zu)",
                         t.gep_k, it->second, i));
        }
        break;
      }
      case 'X':
        ++report_.transfers;
        if (!t.transfer || t.deps.size() != 1) {
          add(ViolationKind::kBadMetadata, static_cast<int>(i), -1,
              gs::strfmt("transfer task #%zu must be flagged transfer with "
                         "exactly one producer dep",
                         i));
        }
        break;
      default:
        add(ViolationKind::kBadMetadata, static_cast<int>(i), -1,
            gs::strfmt("task #%zu (%s) carries no analysis metadata — cannot "
                       "be checked against the symbolic schedule",
                       i, t.label.c_str()));
        break;
    }
  }

  // --- symbolic footprints per iteration, checked against the graph ------
  const gepspark::GridRanges ranges(w_.r, w_.strict_sigma);
  // Working copy: versions advance as the symbolic schedule executes.
  auto version_at = [&](const gs::TileKey& key) {
    auto it = version_.find(key);
    return it == version_.end() ? -1 : it->second;
  };

  // Verify a single read: `reader` consumes tile `rd.key` at version `rd.k`.
  auto check_read = [&](int reader, const SymRead& rd) {
    ++report_.reads;
    if (rd.k < seg_begin) return;  // carried/resident input: no edge needed
    const auto id =
        std::make_pair(std::make_pair(int{rd.key.i}, int{rd.key.j}), rd.k);
    auto wit = writer_of.find(id);
    if (wit == writer_of.end()) return;  // producer missing: reported already
    const int producer = wit->second;
    if (!reach.reaches(static_cast<std::size_t>(producer),
                       static_cast<std::size_t>(reader))) {
      // Distinguish stale (ordered after an older version) from plainly
      // unordered: scan older in-segment versions of the same tile.
      int stale_from = -1;
      for (int pk = rd.k - 1; pk >= seg_begin && stale_from < 0; --pk) {
        auto old_it = writer_of.find(
            std::make_pair(std::make_pair(int{rd.key.i}, int{rd.key.j}), pk));
        if (old_it != writer_of.end() &&
            reach.reaches(static_cast<std::size_t>(old_it->second),
                          static_cast<std::size_t>(reader))) {
          stale_from = old_it->second;
        }
      }
      if (stale_from >= 0) {
        add(ViolationKind::kStaleRead, reader, producer,
            gs::strfmt("%s reads tile (%d,%d) but is ordered only after the "
                       "older version from %s — missing happens-before edge "
                       "%s -> %s",
                       task_desc(tasks, reader).c_str(), rd.key.i, rd.key.j,
                       task_desc(tasks, stale_from).c_str(),
                       task_desc(tasks, producer).c_str(),
                       task_desc(tasks, reader).c_str()));
      } else {
        add(ViolationKind::kUnorderedRead, reader, producer,
            gs::strfmt("%s reads tile (%d,%d)@k=%d with no happens-before "
                       "path from its producing write %s — missing edge "
                       "%s -> %s",
                       task_desc(tasks, reader).c_str(), rd.key.i, rd.key.j,
                       rd.k, task_desc(tasks, producer).c_str(),
                       task_desc(tasks, producer).c_str(),
                       task_desc(tasks, reader).c_str()));
      }
      return;
    }
    // Communication fidelity: under IM a cross-executor read must be fed by
    // a transfer task on the consumer's executor that fetches directly from
    // the producer (the modeled map-output fetch).
    const auto& pt = tasks[static_cast<std::size_t>(producer)];
    const auto& rt = tasks[static_cast<std::size_t>(reader)];
    if (opt_.in_memory && pt.executor != rt.executor) {
      bool mediated = false;
      for (std::size_t x = 0; x < n && !mediated; ++x) {
        const auto& xt = tasks[x];
        if (!xt.transfer || xt.gep_kind != 'X') continue;
        if (xt.executor != rt.executor) continue;
        if (std::find(xt.deps.begin(), xt.deps.end(), producer) ==
            xt.deps.end()) {
          continue;
        }
        mediated = reach.reaches(x, static_cast<std::size_t>(reader));
      }
      if (!mediated) {
        add(ViolationKind::kMissingTransfer, reader, producer,
            gs::strfmt("%s on executor %d reads tile (%d,%d)@k=%d produced "
                       "by %s on executor %d, but no transfer task on "
                       "executor %d fetches it — IM requires a modeled "
                       "shuffle transfer on every cross-executor data edge",
                       task_desc(tasks, reader).c_str(), rt.executor,
                       rd.key.i, rd.key.j, rd.k,
                       task_desc(tasks, producer).c_str(), pt.executor,
                       rt.executor));
      }
    }
  };

  auto expect_task = [&](char kind, int k, const gs::TileKey& key,
                         const std::vector<SymRead>& reads) -> int {
    const auto id = std::make_pair(std::make_pair(int{key.i}, int{key.j}), k);
    auto it = writer_of.find(id);
    if (it == writer_of.end()) {
      add(ViolationKind::kMissingTask, -1, -1,
          gs::strfmt("schedule requires kernel %s on tile (%d,%d) at "
                     "iteration %d but the graph has no such task",
                     kind_str(kind), key.i, key.j, k));
      return -1;
    }
    const int ti = it->second;
    if (tasks[static_cast<std::size_t>(ti)].gep_kind != kind) {
      add(ViolationKind::kUnexpectedTask, ti, -1,
          gs::strfmt("%s writes tile (%d,%d) at iteration %d but the "
                     "schedule demands kernel %s there",
                     task_desc(tasks, ti).c_str(), key.i, key.j, k,
                     kind_str(kind)));
    }
    ++report_.tasks;
    ++report_.writes;
    for (const auto& rd : reads) check_read(ti, rd);
    // Write-write ordering against the previous writer of this tile.
    const int prev = version_at(key);
    if (prev >= seg_begin) {
      auto pit = writer_of.find(
          std::make_pair(std::make_pair(int{key.i}, int{key.j}), prev));
      if (pit != writer_of.end() &&
          !reach.reaches(static_cast<std::size_t>(pit->second),
                         static_cast<std::size_t>(ti))) {
        add(ViolationKind::kUnorderedWrite, ti, pit->second,
            gs::strfmt("%s overwrites tile (%d,%d) without being ordered "
                       "after the previous writer %s — missing edge %s -> %s",
                       task_desc(tasks, ti).c_str(), key.i, key.j,
                       task_desc(tasks, pit->second).c_str(),
                       task_desc(tasks, pit->second).c_str(),
                       task_desc(tasks, ti).c_str()));
      }
    }
    version_[key] = k;
    return ti;
  };

  // Look up a tile at its CURRENT symbolic version — for the wavefront
  // shapes every tile is written exactly once, so this is either the wave
  // that produced it (possibly earlier in this very segment: expect_task
  // advances version_ immediately, which is what lets the accordion panels
  // see their same-wave diagonal) or a carried version from a past segment.
  auto read_now = [&](int bi, int bj) {
    const gs::TileKey key{bi, bj};
    return SymRead{key, version_at(key)};
  };

  switch (w_.shape) {
    case DepShape::kGep:
      for (int k = seg_begin; k < seg_end; ++k) {
        const gs::TileKey pivot{k, k};
        const int pivot_v = version_at(pivot);
        expect_task('A', k, pivot, {{pivot, pivot_v}});
        for (const auto& key : ranges.b_keys(k)) {
          // B(k,j): self + u = pivot (w identical to u when f reads it).
          expect_task('B', k, key, {{key, version_at(key)}, {pivot, k}});
        }
        for (const auto& key : ranges.c_keys(k)) {
          expect_task('C', k, key, {{key, version_at(key)}, {pivot, k}});
        }
        for (const auto& key : ranges.d_keys(k)) {
          std::vector<SymRead> reads{{key, version_at(key)},
                                     {{key.i, k}, k},  // u: post-C pivot column
                                     {{k, key.j}, k}};  // v: post-B pivot row
          if (w_.uses_w) reads.push_back({pivot, k});
          expect_task('D', k, key, reads);
        }
      }
      break;

    case DepShape::kGap:
    case DepShape::kAlign: {
      // Anti-diagonal wavefront: wave wv holds every tile with bi+bj == wv.
      // A GAP tile reads its whole row prefix and column prefix, an align
      // tile only the last tile of each (its left and upper neighbours);
      // both read the diagonal neighbour.
      const bool gap = w_.shape == DepShape::kGap;
      for (int wv = seg_begin; wv < seg_end; ++wv) {
        const int lo = std::max(0, wv - (w_.r - 1));
        const int hi = std::min(wv, w_.grid_rows() - 1);
        for (int bi = lo; bi <= hi; ++bi) {
          const int bj = wv - bi;
          std::vector<SymRead> reads;
          for (int q = gap ? 0 : std::max(0, bj - 1); q < bj; ++q) {
            reads.push_back(read_now(bi, q));
          }
          for (int p = gap ? 0 : std::max(0, bi - 1); p < bi; ++p) {
            reads.push_back(read_now(p, bj));
          }
          if (bi > 0 && bj > 0) reads.push_back(read_now(bi - 1, bj - 1));
          expect_task(gap ? 'G' : 'S', wv, gs::TileKey{bi, bj}, reads);
        }
      }
      break;
    }

    case DepShape::kAccordion:
      // Column wavefront over the lower triangle: wave bj computes column
      // bj — diagonal tile first (it feeds the panels' sweep rows), then
      // every panel below it. Both read the previous column's source rows
      // (tile-rows bj-1 and bj up to the diagonal); panels additionally
      // read the same-wave diagonal.
      for (int bj = seg_begin; bj < seg_end; ++bj) {
        auto column_reads = [&](bool include_diag) {
          std::vector<SymRead> reads;
          for (int q = 0; q < bj; ++q) reads.push_back(read_now(bj - 1, q));
          for (int q = 0; q < bj; ++q) reads.push_back(read_now(bj, q));
          if (include_diag) reads.push_back(read_now(bj, bj));
          return reads;
        };
        expect_task('E', bj, gs::TileKey{bj, bj}, column_reads(false));
        for (int bi = bj + 1; bi < w_.grid_rows(); ++bi) {
          expect_task('P', bj, gs::TileKey{bi, bj}, column_reads(true));
        }
      }
      break;

    case DepShape::kViterbi:
      // Row wavefront: trellis step t reads EVERY row segment of step t-1.
      for (int t = seg_begin; t < seg_end; ++t) {
        for (int bs = 0; bs < w_.r; ++bs) {
          std::vector<SymRead> reads;
          if (t > 0) {
            for (int q = 0; q < w_.r; ++q) reads.push_back(read_now(t - 1, q));
          }
          expect_task('V', t, gs::TileKey{t, bs}, reads);
        }
      }
      break;

    case DepShape::kParen:
      // Super-diagonal wavefront: wave d holds the tiles (bi, bi+d); each
      // reads its middle blocks' row and column tiles and both diagonals.
      for (int d = seg_begin; d < seg_end; ++d) {
        for (int bi = 0; bi + d < w_.r; ++bi) {
          const int bj = bi + d;
          std::vector<SymRead> reads;
          if (d > 0) {
            for (int bk = bi + 1; bk < bj; ++bk) {
              reads.push_back(read_now(bi, bk));
              reads.push_back(read_now(bk, bj));
            }
            reads.push_back(read_now(bi, bi));
            reads.push_back(read_now(bj, bj));
          }
          expect_task('I', d, gs::TileKey{bi, bj}, reads);
        }
      }
      break;
  }

  // Any writer not demanded by the schedule is an unexpected task. Batched
  // tasks are vetted member by member, so a batch that smuggles in a tile
  // outside its iteration's D range is named precisely.
  for (int ti : compute_tasks) {
    const auto& t = tasks[static_cast<std::size_t>(ti)];
    if (!t.batch.empty()) {
      for (const auto& [bi, bj] : t.batch) {
        if (bi < 0 || bi >= w_.r || bj < 0 || bj >= w_.r) continue;  // reported
        if (!ranges.is_d(gs::TileKey{bi, bj}, t.gep_k)) {
          add(ViolationKind::kUnexpectedTask, ti, -1,
              gs::strfmt("%s member tile (%d,%d) is not part of the D range "
                         "of iteration %d",
                         task_desc(tasks, ti).c_str(), bi, bj, t.gep_k));
        }
      }
      continue;
    }
    const gs::TileKey key{t.tile_i, t.tile_j};
    bool demanded = false;
    switch (w_.shape) {
      case DepShape::kGep:
        demanded = (t.gep_kind == 'A' && ranges.is_a(key, t.gep_k)) ||
                   (t.gep_kind == 'B' && ranges.is_b(key, t.gep_k)) ||
                   (t.gep_kind == 'C' && ranges.is_c(key, t.gep_k)) ||
                   (t.gep_kind == 'D' && ranges.is_d(key, t.gep_k));
        break;
      case DepShape::kGap:
      case DepShape::kAlign:
        demanded = t.gep_kind == (w_.shape == DepShape::kGap ? 'G' : 'S') &&
                   key.i + key.j == t.gep_k;
        break;
      case DepShape::kAccordion:
        demanded = (t.gep_kind == 'E' && key.i == t.gep_k &&
                    key.j == t.gep_k) ||
                   (t.gep_kind == 'P' && key.j == t.gep_k && key.i > t.gep_k);
        break;
      case DepShape::kViterbi:
        demanded = t.gep_kind == 'V' && key.i == t.gep_k;
        break;
      case DepShape::kParen:
        demanded = t.gep_kind == 'I' && key.j - key.i == t.gep_k;
        break;
    }
    if (!demanded) {
      add(ViolationKind::kUnexpectedTask, ti, -1,
          gs::strfmt("%s is not part of the symbolic schedule for "
                     "iteration %d",
                     task_desc(tasks, ti).c_str(), t.gep_k));
    }
  }

  // --- pipeline policy: fences + lookahead gates --------------------------
  for (int k = seg_begin; k < seg_end; ++k) {
    auto fit = fence_of.find(k);
    if (fit == fence_of.end()) {
      add(ViolationKind::kFenceIncomplete, -1, -1,
          gs::strfmt("iteration %d has no fence task — lookahead gating "
                     "cannot anchor on it",
                     k));
      continue;
    }
    const int fence = fit->second;
    for (int ti : compute_tasks) {
      if (tasks[static_cast<std::size_t>(ti)].gep_k != k) continue;
      if (!reach.reaches(static_cast<std::size_t>(ti),
                         static_cast<std::size_t>(fence))) {
        add(ViolationKind::kFenceIncomplete, fence, ti,
            gs::strfmt("fence(k=%d) does not cover %s — missing edge "
                       "%s -> %s",
                       k, task_desc(tasks, ti).c_str(),
                       task_desc(tasks, ti).c_str(),
                       task_desc(tasks, fence).c_str()));
      }
    }
  }
  for (int ti : compute_tasks) {
    const int k = tasks[static_cast<std::size_t>(ti)].gep_k;
    const int gate = k - opt_.lookahead - 1;
    if (gate < seg_begin) continue;
    auto fit = fence_of.find(gate);
    if (fit == fence_of.end()) continue;  // already reported above
    if (!reach.reaches(static_cast<std::size_t>(fit->second),
                       static_cast<std::size_t>(ti))) {
      add(ViolationKind::kLookaheadOverrun, ti, fit->second,
          gs::strfmt("%s may start before fence(k=%d) completes — pipeline "
                     "depth exceeds lookahead %d; missing edge %s -> %s",
                     task_desc(tasks, ti).c_str(), gate, opt_.lookahead,
                     task_desc(tasks, fit->second).c_str(),
                     task_desc(tasks, ti).c_str()));
    }
  }
}

ScheduleCheckReport check_dataflow_schedule(
    const ScheduleWorkload& workload, const ScheduleCheckOptions& opt,
    const std::vector<std::vector<sparklet::DataflowTaskSpec>>& segments) {
  ScheduleChecker checker(workload, opt);
  const int waves = workload.waves();
  const int interval = opt.checkpoint_interval;
  const int seg_len = interval > 0 ? interval : waves;
  std::size_t seg = 0;
  for (int s = 0; s < waves; s += seg_len, ++seg) {
    const int e = std::min(s + seg_len, waves);
    GS_THROW_IF(seg >= segments.size(), gs::ConfigError,
                gs::strfmt("schedule check: engine log has %zu segment "
                           "graph(s) but the checkpoint interval implies "
                           "at least %zu",
                           segments.size(), seg + 1));
    checker.check_segment(segments[seg], s, e);
  }
  GS_THROW_IF(seg != segments.size(), gs::ConfigError,
              gs::strfmt("schedule check: engine log has %zu segment "
                         "graph(s) but the checkpoint interval implies %zu",
                         segments.size(), seg));
  return checker.report();
}

}  // namespace analysis
