#include "analysis/hb_detector.hpp"

#include <algorithm>
#include <utility>

#include "obs/span.hpp"
#include "support/format.hpp"

namespace analysis {

namespace {

/// Per-thread attribution: which detector (if any) considers this thread to
/// be inside a graph task right now. Driver threads and pool threads outside
/// a TaskScope attribute accesses to the driver (-1).
struct ThreadAttribution {
  HbDetector* det = nullptr;
  int task = -1;
};
thread_local ThreadAttribution g_attr;

}  // namespace

std::string RaceReport::to_string() const {
  return gs::strfmt("race on %s location 0x%llx: %s by %s unordered with %s by %s",
                    what.c_str(),
                    static_cast<unsigned long long>(location),
                    prev_write ? "WRITE" : "READ", prev.c_str(),
                    cur_write ? "WRITE" : "READ", cur.c_str());
}

void HbDetector::begin_graph(const std::string& name,
                             const std::vector<sparklet::DataflowTaskSpec>& tasks) {
  std::lock_guard<std::mutex> lock(mu_);
  ++era_;  // enter the graph era
  graph_name_ = name;
  graph_tasks_ = tasks;
  clocks_.assign(tasks.size(), VectorClock{});
  for (auto& c : clocks_) c.reset(tasks.size());
}

void HbDetector::end_graph() {
  std::lock_guard<std::mutex> lock(mu_);
  ++era_;  // back to a driver window; the driver joined every task
}

HbDetector::TaskScope::TaskScope(HbDetector* det, int ti) : det_(det) {
  prev_det_ = g_attr.det;
  prev_task_ = g_attr.task;
  if (det_ == nullptr) return;
  g_attr.det = det_;
  g_attr.task = ti;
  // Join dependency clocks, tick own component. Dependency clocks are fully
  // written before the scheduler publishes their completion (the acq_rel
  // decrement of this task's pending count), so reading them here without
  // mu_ is ordered by the same synchronization that launches this task.
  const std::size_t n = det_->clocks_.size();
  if (ti >= 0 && static_cast<std::size_t>(ti) < n) {
    VectorClock& own = det_->clocks_[static_cast<std::size_t>(ti)];
    const auto& spec = det_->graph_tasks_[static_cast<std::size_t>(ti)];
    for (int dep : spec.deps) {
      if (dep >= 0 && static_cast<std::size_t>(dep) < n) {
        own.join(det_->clocks_[static_cast<std::size_t>(dep)]);
      }
    }
    own.tick(static_cast<std::size_t>(ti));
    std::lock_guard<std::mutex> lock(det_->mu_);
    ++det_->tasks_tracked_;
  }
}

HbDetector::TaskScope::~TaskScope() {
  g_attr.det = prev_det_;
  g_attr.task = prev_task_;
}

bool HbDetector::happens_before(const Access& prev, int cur_task) const {
  if (prev.era < era_) return true;  // graph boundaries order eras
  if (prev.task < 0 || cur_task < 0) {
    // Same era involving the driver: the driver only touches instrumented
    // state outside the task-execution window (before posting roots / after
    // the graph finished; tasks it runs meanwhile carry their own ids), so
    // it is ordered with every task access.
    return true;
  }
  if (prev.task == cur_task) return true;  // program order within one task
  const std::size_t n = clocks_.size();
  if (static_cast<std::size_t>(cur_task) >= n ||
      static_cast<std::size_t>(prev.task) >= n) {
    return false;
  }
  return clocks_[static_cast<std::size_t>(cur_task)].at(
             static_cast<std::size_t>(prev.task)) >= 1;
}

std::string HbDetector::describe_current(int task) const {
  std::string who;
  if (task < 0) {
    who = "driver";
  } else if (static_cast<std::size_t>(task) < graph_tasks_.size()) {
    const auto& spec = graph_tasks_[static_cast<std::size_t>(task)];
    who = gs::strfmt("task #%d %s", task, spec.label.c_str());
    if (spec.gep_kind != 0) {
      who += gs::strfmt("[%c(%d,%d)@k=%d]", spec.gep_kind, spec.tile_i,
                        spec.tile_j, spec.gep_k);
    }
    who += gs::strfmt(" exec=%d", spec.executor);
  } else {
    who = gs::strfmt("task #%d", task);
  }
  std::string ctx = gs::strfmt(" (graph '%s', era %llu", graph_name_.c_str(),
                               static_cast<unsigned long long>(era_));
  if (tracer_ != nullptr && tracer_->enabled()) {
    const std::uint64_t span = tracer_->cross_thread_parent();
    if (span != 0) {
      ctx += gs::strfmt(", span #%llu", static_cast<unsigned long long>(span));
    }
  }
  ctx += ")";
  return who + ctx;
}

HbDetector::Access HbDetector::current_access(bool /*write*/,
                                              const char* /*what*/,
                                              std::uint64_t /*location*/) {
  Access acc;
  acc.era = era_;
  acc.task = (g_attr.det == this) ? g_attr.task : -1;
  acc.desc = describe_current(acc.task);
  return acc;
}

void HbDetector::record_race(const Location& loc, const Access& prev,
                             bool prev_write, const Access& cur,
                             bool cur_write, std::uint64_t location) {
  ++races_;
  if (reports_.size() >= kMaxReports) return;
  RaceReport r;
  r.location = location;
  r.what = loc.what;
  r.prev = prev.desc;
  r.cur = cur.desc;
  r.prev_write = prev_write;
  r.cur_write = cur_write;
  reports_.push_back(std::move(r));
}

void HbDetector::on_read(std::uint64_t location, const char* what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++accesses_;
  Location& loc = locations_[location];
  if (loc.what.empty()) loc.what = what;
  Access cur = current_access(false, what, location);
  if (loc.written && !happens_before(loc.last_write, cur.task)) {
    record_race(loc, loc.last_write, /*prev_write=*/true, cur,
                /*cur_write=*/false, location);
  }
  // Dedupe repeated reads by the same (era, task) to bound the read set.
  for (const Access& r : loc.reads) {
    if (r.era == cur.era && r.task == cur.task) return;
  }
  loc.reads.push_back(std::move(cur));
}

void HbDetector::on_write(std::uint64_t location, const char* what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++accesses_;
  Location& loc = locations_[location];
  if (loc.what.empty()) loc.what = what;
  Access cur = current_access(true, what, location);
  if (loc.written && !happens_before(loc.last_write, cur.task)) {
    record_race(loc, loc.last_write, /*prev_write=*/true, cur,
                /*cur_write=*/true, location);
  }
  for (const Access& r : loc.reads) {
    if (!happens_before(r, cur.task)) {
      record_race(loc, r, /*prev_write=*/false, cur, /*cur_write=*/true,
                  location);
    }
  }
  loc.last_write = std::move(cur);
  loc.written = true;
  loc.reads.clear();
}

std::size_t HbDetector::races_found() const {
  std::lock_guard<std::mutex> lock(mu_);
  return races_;
}

std::vector<RaceReport> HbDetector::races() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

std::size_t HbDetector::accesses_checked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accesses_;
}

std::size_t HbDetector::tasks_tracked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_tracked_;
}

std::string HbDetector::summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = gs::strfmt(
      "race check: %s — %zu task(s) tracked, %zu access(es) over %zu "
      "location(s), %zu race(s)",
      races_ == 0 ? "CLEAN" : "RACY", tasks_tracked_, accesses_,
      locations_.size(), races_);
  for (const auto& r : reports_) out += "\n  " + r.to_string();
  if (races_ > reports_.size()) {
    out += gs::strfmt("\n  ... and %zu more (report cap %zu)",
                      races_ - reports_.size(), kMaxReports);
  }
  return out;
}

void HbDetector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  locations_.clear();
  reports_.clear();
  races_ = 0;
  accesses_ = 0;
  tasks_tracked_ = 0;
}

}  // namespace analysis
