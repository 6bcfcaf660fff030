// Tests for the sparklet runtime machinery: stage planning, metrics,
// shuffle-byte accounting, storage capacity failures, broadcast, virtual
// timeline scheduling, the partitioners, and how a task set launches and
// fails (caller-runs graph waits).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "grid/tile.hpp"
#include "sparklet/rdd.hpp"

namespace {

using namespace sparklet;
using PairKV = std::pair<std::int64_t, std::int64_t>;

std::vector<PairKV> mod_pairs(int n, int mod) {
  std::vector<PairKV> v;
  for (int i = 0; i < n; ++i) v.push_back({i % mod, 1});
  return v;
}

// ----------------------------------------------------------- stages

TEST(Stages, NarrowChainIsOneStage) {
  SparkContext sc(ClusterConfig::local(2, 2));
  auto r = parallelize(sc, std::vector<int>{1, 2, 3, 4}, 2)
               .map([](const int& x) { return x + 1; })
               .filter([](const int& x) { return x > 1; })
               .map([](const int& x) { return x * 3; });
  r.count();
  EXPECT_EQ(sc.metrics().num_stages(), 1);
  const auto stage = sc.metrics().stages().front();
  EXPECT_FALSE(stage.shuffle_input);
  EXPECT_EQ(stage.num_tasks, 2);
}

TEST(Stages, WideDependencyCutsStage) {
  SparkContext sc(ClusterConfig::local(2, 2));
  auto grouped = parallelize_pairs(sc, mod_pairs(20, 4), nullptr)
                     .partition_by(std::make_shared<HashPartitioner>(3));
  grouped.count();
  EXPECT_EQ(sc.metrics().num_stages(), 2);
  EXPECT_TRUE(sc.metrics().stages().back().shuffle_input);
}

TEST(Stages, DiamondLineageRunsNodesOnce) {
  SparkContext sc(ClusterConfig::local(2, 2));
  std::atomic<int> runs{0};
  auto base = parallelize(sc, std::vector<int>{1, 2, 3, 4}, 2)
                  .map([&runs](const int& x) {
                    ++runs;
                    return x;
                  });
  auto left = base.map([](const int& x) { return x + 1; });
  auto right = base.map([](const int& x) { return x * 2; });
  auto joined = left.union_with(right);
  EXPECT_EQ(joined.count(), 8u);
  EXPECT_EQ(runs.load(), 4);  // base computed once despite two consumers
}

TEST(Stages, JobMetricsRecorded) {
  SparkContext sc(ClusterConfig::local(2, 2));
  parallelize(sc, std::vector<int>{1, 2}, 1).count();
  parallelize(sc, std::vector<int>{3}, 1).collect();
  const auto jobs = sc.metrics().jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "count");
  EXPECT_EQ(jobs[1].name, "collect");
}

// ----------------------------------------------------------- metrics

TEST(Metrics, ShuffleBytesMatchItemSizes) {
  SparkContext sc(ClusterConfig::local(2, 2));
  const int n = 24;
  auto p = parallelize_pairs(sc, mod_pairs(n, 6), nullptr)
               .partition_by(std::make_shared<HashPartitioner>(4));
  p.count();
  // Every pair crosses the shuffle: n × item_bytes(pair<i64,i64>).
  const std::size_t expected = std::size_t(n) * item_bytes(PairKV{});
  EXPECT_EQ(sc.metrics().total_shuffle_write(), expected);
  EXPECT_EQ(sc.metrics().total_shuffle_read(), expected);
}

TEST(Metrics, CollectBytesCharged) {
  SparkContext sc(ClusterConfig::local(2, 2));
  auto r = parallelize(sc, std::vector<double>(100, 1.0), 4);
  r.collect();
  EXPECT_EQ(sc.metrics().total_collect_bytes(), 100 * sizeof(double));
}

TEST(Metrics, TileBytesDominateTileRddAccounting) {
  SparkContext sc(ClusterConfig::local(2, 2));
  using KV = std::pair<gs::TileKey, gs::TileRef<double>>;
  std::vector<KV> tiles;
  for (int i = 0; i < 4; ++i) {
    tiles.push_back({gs::TileKey{i, 0}, gs::make_tile<double>(8, 8, 1.0)});
  }
  auto p = parallelize_pairs(sc, tiles, nullptr)
               .partition_by(std::make_shared<HashPartitioner>(2));
  p.count();
  const std::size_t per_tile = 8 * 8 * sizeof(double) + 64 + sizeof(gs::TileKey);
  EXPECT_EQ(sc.metrics().total_shuffle_write(), 4 * per_tile);
}

TEST(Metrics, ResetClears) {
  SparkContext sc(ClusterConfig::local(2, 2));
  parallelize(sc, std::vector<int>{1}, 1).count();
  EXPECT_GT(sc.metrics().num_stages(), 0);
  sc.metrics().reset();
  EXPECT_EQ(sc.metrics().num_stages(), 0);
  EXPECT_EQ(sc.metrics().num_tasks(), 0);
}

TEST(Metrics, PrintSummaryMentionsStages) {
  SparkContext sc(ClusterConfig::local(2, 2));
  parallelize(sc, std::vector<int>{1, 2}, 2).count();
  std::ostringstream os;
  sc.metrics().print_summary(os);
  EXPECT_NE(os.str().find("stage"), std::string::npos);
}

// ----------------------------------------------------------- storage

TEST(BlockStoreTest, TracksUsageAndPeak) {
  BlockStore store(DiskSpec::ssd(1000), 2);
  EXPECT_GT(store.write(0, 600), 0.0);
  EXPECT_EQ(store.used(0), 600u);
  store.release(0, 200);
  EXPECT_EQ(store.used(0), 400u);
  EXPECT_EQ(store.peak(0), 600u);
  EXPECT_EQ(store.used(1), 0u);
}

TEST(BlockStoreTest, OverflowThrowsCapacityError) {
  BlockStore store(DiskSpec::ssd(1000), 1);
  store.write(0, 900);
  EXPECT_THROW(store.write(0, 200), gs::CapacityError);
}

TEST(BlockStoreTest, HddSlowerThanSsd) {
  BlockStore ssd(DiskSpec::ssd(), 1), hdd(DiskSpec::hdd(), 1);
  EXPECT_LT(ssd.write(0, 100 << 20), hdd.write(0, 100 << 20));
  EXPECT_LT(ssd.read(0, 100 << 20), hdd.read(0, 100 << 20));
}

// Tier interactions under pressure: pinned checkpoints are immovable, and
// the eviction filter gates only the lossy path — lossless demotions down a
// block's storage-level ladder bypass it. (The ladder itself is covered in
// test_storage_levels.cpp; these pin down the policy interactions.)

BlockStore::TierHooks shrink_by_half_hooks() {
  BlockStore::TierHooks h;
  h.encode = [](const BlockId& id) -> std::optional<std::vector<std::uint8_t>> {
    return std::vector<std::uint8_t>(50, static_cast<std::uint8_t>(id.partition));
  };
  h.restore = [](const BlockId&, const std::vector<std::uint8_t>&) {
    return true;
  };
  h.release = [](const BlockId&) {};
  return h;
}

TEST(StorageTiers, PinnedBlocksNeverDemoteOrEvict) {
  BlockStore store(DiskSpec::ssd(250), 1);
  store.set_tier_hooks(shrink_by_half_hooks());
  const BlockId pinned{1, 0}, cached{1, 1}, incoming{1, 2};

  store.put_block(0, pinned, 100, 1, /*pinned=*/true,
                  StorageLevel::kMemoryAndDisk);
  store.put_block(0, cached, 100, 2, /*pinned=*/false,
                  StorageLevel::kMemoryAndDisk);
  // Pressure: the pinned block is older but must be skipped — the unpinned
  // one compacts instead (no disk hooks wired, so its ladder ends there).
  store.put_block(0, incoming, 100, 3, /*pinned=*/false,
                  StorageLevel::kMemoryAndDisk);
  EXPECT_EQ(store.block_tier(pinned), StorageTier::kDeserialized);
  EXPECT_NE(store.block_tier(cached), StorageTier::kDeserialized);

  // When pins alone exceed capacity, the put must fail with the per-tier
  // breakdown — pinned bytes are never sacrificed.
  try {
    store.put_block(0, BlockId{1, 3}, 200, 4, /*pinned=*/true,
                    StorageLevel::kMemoryAndDisk);
    FAIL() << "expected CapacityError";
  } catch (const gs::CapacityError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no block is evictable"), std::string::npos) << msg;
    EXPECT_NE(msg.find("deserialized"), std::string::npos) << msg;
    EXPECT_NE(msg.find("serialized"), std::string::npos) << msg;
    EXPECT_NE(msg.find("on disk"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pinned"), std::string::npos) << msg;
    EXPECT_NE(msg.find("filter-protected"), std::string::npos) << msg;
  }
  // The failed put left the store consistent: the pins survive, the
  // incoming block is unregistered (no ghost), and the unpinned blocks were
  // sacrificed in the attempt (their ladders end without a disk hook).
  EXPECT_TRUE(store.has_block(pinned));
  EXPECT_FALSE(store.has_block(cached));
  EXPECT_FALSE(store.has_block(BlockId{1, 3}));
  EXPECT_EQ(store.evictions(), 2);
}

TEST(StorageTiers, EvictionFilterGatesOnlyTheLossyPath) {
  // Filter says "nothing may be evicted". A MEMORY_AND_DISK block can still
  // demote (lossless bypasses the filter); a MEMORY_ONLY block whose ladder
  // is empty is stuck, and the put reports it as filter-protected.
  BlockStore demotable(DiskSpec::ssd(150), 1);
  demotable.set_tier_hooks(shrink_by_half_hooks());
  demotable.set_eviction_filter([](const BlockId&) { return false; });
  demotable.put_block(0, BlockId{1, 0}, 100, 1, false,
                      StorageLevel::kMemoryAndDisk);
  demotable.put_block(0, BlockId{1, 1}, 100, 2, false,
                      StorageLevel::kMemoryAndDisk);  // no throw: demotes
  EXPECT_EQ(demotable.block_tier(BlockId{1, 0}), StorageTier::kSerialized);
  EXPECT_EQ(demotable.evictions(), 0);

  BlockStore stuck(DiskSpec::ssd(150), 1);
  stuck.set_tier_hooks(shrink_by_half_hooks());
  stuck.set_eviction_filter([](const BlockId&) { return false; });
  stuck.put_block(0, BlockId{2, 0}, 100, 1, false, StorageLevel::kMemoryOnly);
  try {
    stuck.put_block(0, BlockId{2, 1}, 100, 2, false, StorageLevel::kMemoryOnly);
    FAIL() << "expected CapacityError";
  } catch (const gs::CapacityError& e) {
    EXPECT_NE(std::string(e.what()).find("1 filter-protected"),
              std::string::npos)
        << e.what();
  }
  // Same store, permissive filter: pressure now evicts instead of failing.
  stuck.set_eviction_filter([](const BlockId&) { return true; });
  stuck.put_block(0, BlockId{2, 2}, 100, 3, false, StorageLevel::kMemoryOnly);
  EXPECT_EQ(stuck.evictions(), 1);
  EXPECT_FALSE(stuck.has_block(BlockId{2, 0}));
}

TEST(ShuffleCapacity, SmallLocalDiskFailsBigShuffle) {
  // The paper's SSD-overflow failure mode, reproduced end-to-end: a shuffle
  // whose staged bytes exceed the per-node disk must abort the job.
  ClusterConfig cfg = ClusterConfig::local(2, 2);
  cfg.local_disk = DiskSpec::ssd(/*capacity=*/256);  // tiny disk
  SparkContext sc(cfg);
  std::vector<PairKV> data = mod_pairs(200, 50);
  auto p = parallelize_pairs(sc, data, nullptr)
               .partition_by(std::make_shared<HashPartitioner>(4));
  EXPECT_THROW(p.count(), gs::CapacityError);
}

// ----------------------------------------------------------- broadcast

TEST(BroadcastTest, DeliversValueAndChargesBytes) {
  SparkContext sc(ClusterConfig::local(4, 1));
  auto b = sc.broadcast(std::vector<double>(64, 1.5));
  EXPECT_EQ(b.value().size(), 64u);
  // 4 executors × payload
  EXPECT_EQ(sc.metrics().total_broadcast_bytes(),
            4 * (24 + 64 * sizeof(double)));
}

TEST(BroadcastTest, EmptyBroadcastDies) {
  Broadcast<int> b;
  EXPECT_FALSE(b.valid());
  EXPECT_DEATH(b.value(), "empty broadcast");
}

// ----------------------------------------------------------- timeline

TEST(Timeline, SingleExecutorSerializes) {
  VirtualTimeline t(1, 1);
  const double wall = t.add_stage("s", {1.0, 2.0, 3.0}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(wall, 6.0);
  EXPECT_DOUBLE_EQ(t.now(), 6.0);
}

TEST(Timeline, SlotsRunInParallel) {
  VirtualTimeline t(1, 2);
  const double wall = t.add_stage("s", {1.0, 1.0, 1.0, 1.0}, {0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(wall, 2.0);
}

TEST(Timeline, ExecutorsIndependent) {
  VirtualTimeline t(2, 1);
  const double wall = t.add_stage("s", {3.0, 1.0}, {0, 1});
  EXPECT_DOUBLE_EQ(wall, 3.0);  // limited by the slower executor
}

TEST(Timeline, StageBarrier) {
  VirtualTimeline t(2, 1);
  t.add_stage("s1", {2.0, 1.0}, {0, 1});
  t.add_stage("s2", {1.0}, {1});  // must start after s1 ends everywhere
  EXPECT_DOUBLE_EQ(t.now(), 3.0);
  EXPECT_EQ(t.stages().size(), 2u);
  EXPECT_DOUBLE_EQ(t.stages()[1].start_s, 2.0);
}

TEST(Timeline, GreedyListScheduling) {
  VirtualTimeline t(1, 2);
  // 5 tasks of 1s on 2 slots → ceil(5/2) = 3 waves.
  const double wall =
      t.add_stage("s", {1.0, 1.0, 1.0, 1.0, 1.0}, {0, 0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(wall, 3.0);
}

TEST(Timeline, SerialSegments) {
  VirtualTimeline t(2, 2);
  t.add_serial("shuffle", 1.5);
  t.add_serial("collect", 0.5);
  EXPECT_DOUBLE_EQ(t.now(), 2.0);
}

TEST(Timeline, TaskSpansStayInsideStageBounds) {
  VirtualTimeline t(2, 2);
  t.add_stage("s1", {1.0, 2.0, 0.5}, {0, 0, 1});
  t.add_serial("shuffle", 0.25);
  t.add_stage("s2", {1.0}, {1});
  ASSERT_EQ(t.task_spans().size(), 4u);
  for (const auto& span : t.task_spans()) {
    const auto& stage = t.stages()[std::size_t(span.stage_index)];
    EXPECT_GE(span.start_s, stage.start_s);
    EXPECT_LE(span.end_s, stage.end_s);
    EXPECT_LT(span.start_s, span.end_s);
    EXPECT_LT(span.executor, 2);
    EXPECT_LT(span.slot, 2);
  }
}

TEST(Timeline, ChromeTraceExportIsWellFormed) {
  VirtualTimeline t(2, 1);
  t.add_stage("compute", {1.0, 1.0}, {0, 1});
  t.add_serial("collect", 0.5);
  const std::string path = ::testing::TempDir() + "/trace.json";
  t.write_chrome_trace(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string body = ss.str();
  EXPECT_EQ(body.front(), '[');
  EXPECT_NE(body.find(R"("name":"compute")"), std::string::npos);
  EXPECT_NE(body.find(R"("name":"collect")"), std::string::npos);
  EXPECT_NE(body.find(R"("ph":"X")"), std::string::npos);
  // 2 task slices + 1 driver slice.
  std::size_t count = 0, pos = 0;
  while ((pos = body.find("\"ph\"", pos)) != std::string::npos) {
    ++count;
    pos += 4;
  }
  EXPECT_EQ(count, 3u);
}

TEST(Timeline, ResetRestartsClock) {
  VirtualTimeline t(1, 1);
  t.add_serial("x", 5.0);
  t.reset();
  EXPECT_DOUBLE_EQ(t.now(), 0.0);
  EXPECT_TRUE(t.stages().empty());
}

// ----------------------------------------------------------- partitioner

TEST(Partitioners, HashSpreadsTileKeys) {
  HashPartitioner p(64);
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      counts[size_t(p.partition_of(key_hash(gs::TileKey{i, j})))]++;
    }
  }
  int max_count = *std::max_element(counts.begin(), counts.end());
  // 256 keys in 64 bins: a uniform hash keeps the max bin modest.
  EXPECT_LE(max_count, 14);
}

TEST(Partitioners, GridPartitionerUnpacksCoordinates) {
  GridPartitioner p(10, /*grid_side=*/8);
  // Diagonal-shifted layout: (i, j) → (i*9 + j) mod 10.
  EXPECT_EQ(p.partition_of(key_hash(gs::TileKey{0, 0})), 0);
  EXPECT_EQ(p.partition_of(key_hash(gs::TileKey{0, 9})), 9);
  EXPECT_EQ(p.partition_of(key_hash(gs::TileKey{1, 2})), 1);
  EXPECT_EQ(p.partition_of(key_hash(gs::TileKey{2, 0})), 8);
}

TEST(Partitioners, GridPartitionerSpreadsRowsAndColumns) {
  // The reason for the diagonal shift: every grid row, column, and the
  // whole trailing submatrix must spread over all executors.
  const int r = 32, execs = 16;
  GridPartitioner p(1024, r);
  auto max_per_exec = [&](auto&& keys) {
    std::vector<int> per(execs, 0);
    int worst = 0;
    for (const auto& k : keys) {
      worst = std::max(worst, ++per[size_t(p.partition_of(key_hash(k)) % execs)]);
    }
    return worst;
  };
  std::vector<gs::TileKey> row, col;
  for (int t = 1; t < r; ++t) {
    row.push_back({0, t});   // pivot row of iteration 0
    col.push_back({t, 0});   // pivot column of iteration 0
  }
  EXPECT_LE(max_per_exec(row), 2);
  EXPECT_LE(max_per_exec(col), 2);
}

TEST(Partitioners, EquivalenceRules) {
  HashPartitioner h8(8), h8b(8), h4(4);
  GridPartitioner g8(8, 4), g8b(8, 4), g8c(8, 5);
  EXPECT_TRUE(h8.equivalent_to(h8b));
  EXPECT_FALSE(h8.equivalent_to(h4));
  EXPECT_FALSE(h8.equivalent_to(g8));
  EXPECT_TRUE(g8.equivalent_to(g8b));
  EXPECT_FALSE(g8.equivalent_to(g8c));  // different grid side
}

TEST(Partitioners, RejectNonPositive) {
  EXPECT_THROW(HashPartitioner(0), gs::ConfigError);
  EXPECT_THROW(GridPartitioner(4, 0), gs::ConfigError);
}

// ----------------------------------------------------------- cluster cfg

TEST(ClusterConfigTest, PresetsMatchPaperSetups) {
  auto c1 = ClusterConfig::skylake_cluster();
  EXPECT_EQ(c1.num_nodes, 16);
  EXPECT_EQ(c1.node.physical_cores, 32);
  EXPECT_EQ(c1.total_cores(), 512);
  EXPECT_EQ(c1.effective_partitions(), 1024u);  // paper: 2 × total cores
  EXPECT_EQ(c1.local_disk.kind, "ssd");

  auto c2 = ClusterConfig::haswell_cluster();
  EXPECT_EQ(c2.node.physical_cores, 20);
  EXPECT_EQ(c2.effective_partitions(), 640u);  // paper: 2 × 16 × 20
  EXPECT_EQ(c2.local_disk.kind, "hdd");
}

TEST(ClusterConfigTest, ValidationCatchesNonsense) {
  ClusterConfig bad = ClusterConfig::local(1, 1);
  bad.num_nodes = 0;
  EXPECT_THROW(bad.validate(), gs::ConfigError);
  bad = ClusterConfig::local(1, 1);
  bad.executor_cores = 0;
  EXPECT_THROW(bad.validate(), gs::ConfigError);
}

TEST(ClusterConfigTest, ExecutorNodeMapping) {
  SparkContext sc(ClusterConfig::local(3, 1));
  EXPECT_EQ(sc.executor_of(0), 0);
  EXPECT_EQ(sc.executor_of(4), 1);
  EXPECT_EQ(sc.node_of_executor(2), 2);
}

// ----------------------------------------------------------- caller runs
//
// The thread that launches a task graph runs the graph's queued tasks itself
// instead of parking until the pool finishes them.

ClusterConfig caller_runs_config(int physical_threads) {
  ClusterConfig cfg = ClusterConfig::local(2, 2);
  cfg.physical_threads = physical_threads;
  return cfg;
}

// The first task to start waits, at most 2 s, until every other task of the
// set has run; overlapped() says whether they all ran while it waited.
class FirstWaitsForTheRest {
 public:
  explicit FirstWaitsForTheRest(int tasks) : others_(tasks - 1) {}

  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!first_started_) {
      first_started_ = true;
      overlapped_ = cv_.wait_for(lock, std::chrono::seconds(2),
                                 [this] { return ran_ == others_; });
      return;
    }
    ++ran_;
    cv_.notify_all();
  }

  bool overlapped() {
    std::lock_guard<std::mutex> lock(mu_);
    return overlapped_;
  }

 private:
  const int others_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool first_started_ = false;
  int ran_ = 0;
  bool overlapped_ = false;
};

TEST(CallerRuns, LaunchingThreadRunsQueuedTasks) {
  // One pool worker: once the first task blocks it, only the launching
  // thread is left to run the other seven.
  SparkContext sc(caller_runs_config(1));
  FirstWaitsForTheRest gate(8);
  const std::vector<DataflowTaskSpec> tasks(8);
  const TaskGraphResult r =
      sc.run_task_graph("independent", tasks, [&](int) { gate.run(); });
  EXPECT_EQ(r.completion_order.size(), 8u);
  EXPECT_TRUE(gate.overlapped());
}

// A chain 0→1→2→3, a fan 3→{4..11}, and a join {4..11}→12.
std::vector<DataflowTaskSpec> chain_fan_join() {
  std::vector<DataflowTaskSpec> g(13);
  for (int i = 1; i <= 3; ++i) g[static_cast<std::size_t>(i)].deps = {i - 1};
  for (int i = 4; i <= 11; ++i) g[static_cast<std::size_t>(i)].deps = {3};
  for (int i = 4; i <= 11; ++i) g[12].deps.push_back(i);
  return g;
}

// Every task of the graph that depends on `t`, directly or not.
std::set<int> descendants(const std::vector<DataflowTaskSpec>& g, int t) {
  std::set<int> out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (int d : g[i].deps) {
      if (d == t || out.count(d) != 0) out.insert(static_cast<int>(i));
    }
  }
  return out;
}

// The context still runs a whole graph and a barrier job after a failure.
void expect_reusable(SparkContext& sc, const std::vector<DataflowTaskSpec>& g) {
  std::vector<std::atomic<int>> runs(g.size());
  const TaskGraphResult r =
      sc.run_task_graph("clean", g, [&](int ti) { ++runs[ti]; });
  EXPECT_EQ(r.completion_order.size(), g.size());
  for (const auto& n : runs) EXPECT_EQ(n.load(), 1);
  EXPECT_EQ(parallelize(sc, std::vector<int>{1, 2, 3, 4, 5, 6}, 3)
                .map([](const int& x) { return x * 2; })
                .collect(),
            (std::vector<int>{2, 4, 6, 8, 10, 12}));
}

TEST(CallerRuns, FailureStopsTheSetAndLeavesTheContextReusable) {
  const std::vector<DataflowTaskSpec> g = chain_fan_join();
  for (int threads : {1, 4}) {
    SparkContext sc(caller_runs_config(threads));
    for (int thrower : {0, 2, 6, 12}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, task "
                                      << thrower << " throws");
      std::vector<std::atomic<int>> runs(g.size());
      int caught = 0;
      try {
        sc.run_task_graph("throws", g, [&](int ti) {
          ++runs[ti];
          if (ti == thrower) throw std::runtime_error("boom");
        });
      } catch (const std::runtime_error& e) {
        ++caught;
        EXPECT_STREQ(e.what(), "boom");
      }
      EXPECT_EQ(caught, 1);
      EXPECT_EQ(runs[thrower].load(), 1);
      for (int d : descendants(g, thrower)) EXPECT_EQ(runs[d].load(), 0) << d;
      for (const auto& n : runs) EXPECT_LE(n.load(), 1);
      expect_reusable(sc, g);
    }

    SCOPED_TRACE(testing::Message() << threads << " threads, cancelled");
    std::atomic<bool> cancel{false};
    sc.set_cancel_flag(&cancel);
    std::vector<std::atomic<int>> runs(g.size());
    EXPECT_THROW(sc.run_task_graph("cancelled", g,
                                   [&](int ti) {
                                     ++runs[ti];
                                     if (ti == 2) cancel.store(true);
                                   }),
                 gs::JobCancelledError);
    for (int d : descendants(g, 2)) EXPECT_EQ(runs[d].load(), 0) << d;
    for (const auto& n : runs) EXPECT_LE(n.load(), 1);
    sc.set_cancel_flag(nullptr);
    expect_reusable(sc, g);
  }
}

}  // namespace
