// ledger.cpp — per-layer wall-clock split of traced operations.
//
// Reads only the spans the library already records (obs::Tracer) and maps
// span levels to layers: job/iteration/phase/action → driver (work on the
// driver thread), stage → sparklet scheduler, task → sparklet task runtime,
// kernel → kernels. The dataflow engines open their kernel span around tile
// lookup and panel packing too, so "kernels" includes that work.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <unordered_map>
#include <utility>

#include "bench.hpp"

namespace e2e {
namespace {

using Interval = std::pair<double, double>;

/// Length of the union of intervals clipped to [lo, hi].
double covered(std::vector<Interval>& iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (const auto& [a0, b0] : iv) {
    const double a = std::max(a0, lo), b = std::min(b0, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

constexpr int level_of(obs::SpanLevel l) { return static_cast<int>(l); }

double driver_self(const LedgerSample& s) {
  return s.self_s[level_of(obs::SpanLevel::kJob)] +
         s.self_s[level_of(obs::SpanLevel::kIteration)] +
         s.self_s[level_of(obs::SpanLevel::kPhase)] +
         s.self_s[level_of(obs::SpanLevel::kAction)];
}

double busy(const LedgerSample& s) {
  double b = 0.0;
  for (double v : s.self_s) b += v;
  return b;
}

template <typename F>
std::vector<double> per_sample(const std::vector<LedgerSample>& samples, F f) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const auto& s : samples) v.push_back(f(s));
  return v;
}

}  // namespace

LedgerSample analyze_spans(const std::vector<obs::Span>& spans, double wall_s) {
  LedgerSample out;
  out.wall_s = wall_s;
  out.spans = spans.size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const auto& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].push_back({s.wall_start_s, s.wall_end_s});
    }
  }
  std::vector<Interval> jobs;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    const double self = s.wall_seconds() -
                        covered(children[i], s.wall_start_s, s.wall_end_s);
    out.self_s[level_of(s.level)] += std::max(0.0, self);
    switch (s.level) {
      case obs::SpanLevel::kJob:
        jobs.push_back({s.wall_start_s, s.wall_end_s});
        break;
      case obs::SpanLevel::kTask:
        out.task_wall_s += s.wall_seconds();
        break;
      case obs::SpanLevel::kKernel:
        ++out.kernel_calls;
        break;
      default:
        break;
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  out.job_wall_s = covered(jobs, -kInf, kInf);
  return out;
}

void Ledger::report(Report& rep) const {
  struct Layer {
    const char* name;
    double self_ms;  ///< median per op
    double share;    ///< median per op of self time / busy thread-time
  };
  const auto layer = [&](const char* name, auto self) {
    return Layer{name, 1e3 * median(per_sample(samples, self)),
                 median(per_sample(samples, [&](const LedgerSample& s) {
                   const double b = busy(s);
                   return b > 0.0 ? self(s) / b : 0.0;
                 }))};
  };
  const auto level = [](obs::SpanLevel l) {
    return [l](const LedgerSample& s) { return s.self_s[level_of(l)]; };
  };
  const Layer kernels = layer("kernels", level(obs::SpanLevel::kKernel));
  const Layer task = layer("sparklet.task", level(obs::SpanLevel::kTask));
  const Layer stage = layer("sparklet.stage", level(obs::SpanLevel::kStage));
  const Layer driver = layer("driver", driver_self);
  const double threads = std::max(1, pool_threads);

  rep.add("kernels.busy_ms", kernels.self_ms, "ms", true);
  add_counter(rep, "kernels.calls", per_sample(samples, [](const LedgerSample& s) {
                return double(s.kernel_calls);
              }), "count");
  rep.add("kernels.share", kernels.share, "ratio", true);
  rep.add("sparklet.stage.self_ms", stage.self_ms, "ms", true);
  rep.add("sparklet.task.self_ms", task.self_ms, "ms", true);
  rep.add("sparklet.pool.idle_frac",
          median(per_sample(samples, [&](const LedgerSample& s) {
            return 1.0 - s.task_wall_s / (s.wall_s * threads);
          })),
          "ratio", true);
  rep.add("driver.self_ms", driver.self_ms, "ms", true);
  add_counter(rep, "obs.spans_per_solve", per_sample(samples, [](const LedgerSample& s) {
                return double(s.spans);
              }), "count");
  rep.add("obs.ledger_coverage",
          median(per_sample(samples, [](const LedgerSample& s) {
            return s.job_wall_s / s.wall_s;
          })),
          "ratio", true);
  rep.add("busy_ms", 1e3 * median(per_sample(samples, busy)), "ms");

  std::printf("# per-layer self time, median per op over %zu traced ops "
              "(share of busy thread-time)\n", samples.size());
  for (const Layer& l : {kernels, task, stage, driver}) {
    std::printf("#   %-16s %10.3f ms  %5.1f%%\n", l.name, l.self_ms, 100.0 * l.share);
  }
}

bool Ledger::write_json(const std::string& dir, const std::string& workload,
                        const Report& rep) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + workload + ".trace.json";
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "{\"workload\": \"" << workload << "\", \"pool_threads\": "
      << pool_threads << ", \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const LedgerSample& s = samples[i];
    out << (i ? ", " : "") << "{\"wall_s\": " << s.wall_s
        << ", \"job_wall_s\": " << s.job_wall_s
        << ", \"task_wall_s\": " << s.task_wall_s
        << ", \"kernel_calls\": " << s.kernel_calls << ", \"spans\": " << s.spans
        << ", \"self_s\": {";
    for (int l = 0; l < kNumLevels; ++l) {
      out << (l ? ", " : "") << "\""
          << obs::span_level_name(static_cast<obs::SpanLevel>(l))
          << "\": " << s.self_s[l];
    }
    out << "}}";
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& m : rep.metrics) {
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << m.value
        << ", \"unit\": \"" << m.unit << "\""
        << (m.note.empty() ? "" : ", \"note\": \"" + m.note + "\"") << "}";
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
