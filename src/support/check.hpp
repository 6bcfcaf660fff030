// check.hpp — error handling primitives shared by every module.
//
// The library is exception-based at API boundaries (configuration errors,
// capacity failures in the simulated block store) and assertion-based for
// internal invariants. GS_CHECK is always on. GS_DCHECK compiles away only
// when NDEBUG is defined, and this repository's Release flags are plain -O2
// without NDEBUG (CMakeLists.txt, bench/e2e/CMakeLists.txt), so DCHECKs are
// live in every build, gs_bench included; the nested plans' read-slot check
// relies on that. Because they are live, a DCHECK in an inner loop costs a
// compare and a branch per element: hot kernels check their inputs once per
// task (read counts, slot arithmetic, segment shapes) and then index raw
// rows, as the Viterbi kernel does, rather than checking per element or per
// predecessor read.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace gs {

/// Thrown for user-facing configuration errors (bad tile sizes, mismatched
/// partitioner, illegal parameter combinations).
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when the simulated storage substrate runs out of capacity — models
/// the paper's "constrained by the size of the underlying SSDs" failure mode.
class CapacityError : public std::runtime_error {
 public:
  explicit CapacityError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a job is aborted mid-flight (task failure propagation).
class JobAbortedError : public std::runtime_error {
 public:
  explicit JobAbortedError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a job is cancelled cooperatively (serve-layer cancel(), or a
/// SparkContext cancel flag flipped mid-solve). The scheduler polls the flag
/// at task-release points and stage boundaries, drains in-flight tasks, and
/// rethrows — so cancellation never leaves half-registered blocks behind.
class JobCancelledError : public std::runtime_error {
 public:
  explicit JobCancelledError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown when a task reads a partition whose backing data is gone (executor
/// loss, eviction, injected reducer-side fetch failure). The stage scheduler
/// catches it, resubmits the parent stage to regenerate the lost outputs via
/// lineage, and retries with exponential backoff — Spark's FetchFailed path.
class FetchFailedError : public std::runtime_error {
 public:
  explicit FetchFailedError(const std::string& what)
      : std::runtime_error(what) {}
};

[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const std::string& msg) {
  std::fprintf(stderr, "GS_CHECK failed: %s at %s:%d%s%s\n", expr, file, line,
               msg.empty() ? "" : " — ", msg.c_str());
  std::abort();
}

}  // namespace gs

#define GS_CHECK(expr)                                              \
  do {                                                              \
    if (!(expr)) ::gs::check_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define GS_CHECK_MSG(expr, msg)                                        \
  do {                                                                 \
    if (!(expr)) ::gs::check_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

#ifdef NDEBUG
#define GS_DCHECK(expr) ((void)0)
#else
#define GS_DCHECK(expr) GS_CHECK(expr)
#endif

#define GS_THROW_IF(cond, ExType, msg)    \
  do {                                    \
    if (cond) throw ExType(msg);          \
  } while (0)

// GS_RESTRICT — portable `restrict` qualifier for hot-loop row pointers.
// Kernels apply it only where operands are provably disjoint (e.g. row i vs
// row k with i != k); aliased cases (kernel A's own pivot row) use separate,
// unqualified loops.
#if defined(__GNUC__) || defined(__clang__)
#define GS_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define GS_RESTRICT __restrict
#else
#define GS_RESTRICT
#endif
