// Unit tests for the support layer: views, buffers, RNG, thread pool,
// formatting, and table output.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "support/buffer.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/span2d.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace gs;

// ---------------------------------------------------------------- Span2D

TEST(Span2D, IndexingRowMajor) {
  std::vector<int> data(12);
  for (int i = 0; i < 12; ++i) data[size_t(i)] = i;
  Span2D<int> s(data.data(), 3, 4);
  EXPECT_EQ(s(0, 0), 0);
  EXPECT_EQ(s(0, 3), 3);
  EXPECT_EQ(s(2, 3), 11);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s.cols(), 4u);
  EXPECT_TRUE(s.contiguous());
}

TEST(Span2D, SubviewStridesIntoParent) {
  std::vector<int> data(16);
  for (int i = 0; i < 16; ++i) data[size_t(i)] = i;
  Span2D<int> s(data.data(), 4, 4);
  auto sub = s.subview(1, 2, 2, 2);
  EXPECT_EQ(sub(0, 0), 6);
  EXPECT_EQ(sub(1, 1), 11);
  EXPECT_EQ(sub.stride(), 4u);
  EXPECT_FALSE(sub.contiguous());
  sub(0, 0) = 99;
  EXPECT_EQ(data[6], 99);  // writes reach the parent storage
}

TEST(Span2D, BlockDecomposition) {
  std::vector<int> data(64);
  for (int i = 0; i < 64; ++i) data[size_t(i)] = i;
  Span2D<int> s(data.data(), 8, 8);
  auto blk = s.block(1, 1, 2);  // bottom-right quadrant
  EXPECT_EQ(blk.rows(), 4u);
  EXPECT_EQ(blk(0, 0), 4 * 8 + 4);
  auto blk22 = s.block(3, 0, 4);
  EXPECT_EQ(blk22(0, 0), 6 * 8 + 0);
}

TEST(Span2D, ConstConversion) {
  std::vector<double> data(4, 1.0);
  Span2D<double> s(data.data(), 2, 2);
  Span2D<const double> cs = s;  // implicit
  EXPECT_EQ(cs(1, 1), 1.0);
  EXPECT_TRUE(s.same_origin(cs));
}

TEST(Span2D, CopyAndFill) {
  std::vector<int> a(9, 0), b(9, 7);
  Span2D<int> sa(a.data(), 3, 3);
  Span2D<const int> sb(b.data(), 3, 3);
  copy_span(sb, sa);
  EXPECT_EQ(a[4], 7);
  fill_span(sa, 3);
  EXPECT_EQ(a[8], 3);
}

TEST(Span2D, EmptySpan) {
  Span2D<int> s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
}

// ---------------------------------------------------------------- Buffer

TEST(AlignedBuffer, AlignmentIs64Bytes) {
  AlignedBuffer<double> buf(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kCacheLineBytes, 0u);
  EXPECT_EQ(buf.size(), 100u);
}

TEST(AlignedBuffer, CopyIsDeep) {
  AlignedBuffer<int> a(10);
  for (std::size_t i = 0; i < 10; ++i) a[i] = int(i);
  AlignedBuffer<int> b = a;
  b[3] = 42;
  EXPECT_EQ(a[3], 3);
  EXPECT_EQ(b[3], 42);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[0] = 5;
  const int* p = a.data();
  AlignedBuffer<int> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 5);
}

TEST(AlignedBuffer, SelfAssignmentIsSafe) {
  AlignedBuffer<int> a(4);
  a[0] = 9;
  a = a;
  EXPECT_EQ(a[0], 9);
}

TEST(AlignedBuffer, EmptyBuffer) {
  AlignedBuffer<double> a;
  EXPECT_TRUE(a.empty());
  AlignedBuffer<double> b(0);
  EXPECT_TRUE(b.empty());
}

// ---------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformU64Bounds) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = r.uniform_u64(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(Rng, UniformU64MeanIsCentered) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += double(r.uniform_u64(100));
  EXPECT_NEAR(sum / n, 49.5, 1.5);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitStreamsIndependentAndStable) {
  Rng root(42);
  Rng a1 = root.split(1);
  Rng a1_again = root.split(1);
  EXPECT_EQ(a1(), a1_again());
  int same = 0;
  Rng x = root.split(1), y = root.split(2);
  for (int i = 0; i < 64; ++i) same += (x() == y());
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) pool.post([&count] { count++; });
  }  // the destructor drains the queue before it joins the workers
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, TryRunOneRunsTheOldestJobOnTheCaller) {
  ThreadPool pool(1);
  // Park the only worker so the next jobs stay queued.
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false, release = false;
  pool.post([&] {
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  std::vector<int> ran;
  std::thread::id ran_on;
  pool.post([&] {
    ran.push_back(1);
    ran_on = std::this_thread::get_id();
  });
  pool.post([&] { ran.push_back(2); });
  EXPECT_TRUE(pool.try_run_one());
  EXPECT_EQ(ran, std::vector<int>{1});
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(pool.try_run_one());
  EXPECT_FALSE(pool.try_run_one());
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  parallel_for(pool, 50, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstError) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10,
                            [&](std::size_t i) {
                              if (i == 5) throw gs::ConfigError("bad");
                            }),
               gs::ConfigError);
  // Every index still runs, and the lowest failing index's error wins.
  std::atomic<int> ran{0};
  try {
    parallel_for(pool, 10, [&](std::size_t i) {
      ++ran;
      if (i == 7) throw gs::ConfigError("seven");
      if (i == 3) throw gs::ConfigError("three");
    });
    FAIL() << "no error rethrown";
  } catch (const gs::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("three"), std::string::npos);
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [&](std::size_t) { FAIL(); });
}

// ---------------------------------------------------------------- misc

TEST(Format, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(2048), "2.0 KiB");
  EXPECT_EQ(human_bytes(3.0 * 1024 * 1024 * 1024), "3.0 GiB");
}

TEST(Format, HumanSeconds) {
  EXPECT_EQ(human_seconds(0.5e-3), "500.0us");
  EXPECT_EQ(human_seconds(0.25), "250.0ms");
  EXPECT_EQ(human_seconds(12.0), "12.0s");
  EXPECT_EQ(human_seconds(90.0), "1m 30s");
  EXPECT_EQ(human_seconds(7200.0), "2h 0m");
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1;
  EXPECT_GT(sw.nanos(), 0u);
  EXPECT_GE(sw.seconds(), 0.0);
}

TEST(TextTable, RendersAlignedGrid) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "23"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, RowWidthMismatchAborts) {
  TextTable t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width mismatch");
}

TEST(Check, ThrowIf) {
  EXPECT_THROW(GS_THROW_IF(true, ConfigError, "nope"), ConfigError);
  EXPECT_NO_THROW(GS_THROW_IF(false, ConfigError, "fine"));
}

}  // namespace
