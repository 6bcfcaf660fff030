// cluster.hpp — description of the (simulated) cluster a sparklet context
// runs against: node shape, network, disks, and the Spark-level settings the
// paper tunes (executors, executor-cores, RDD partitions).
//
// Presets model the paper's two testbeds:
//   * cluster 1 — 16 nodes × dual 16-core Skylake (32 cores), 192 GB RAM,
//     1 TB SSD, GbE.
//   * cluster 2 — 16 nodes × dual 10-core Haswell (20 cores), 64 GB RAM,
//     7500 rpm spinning disks, GbE.
#pragma once

#include <cstddef>
#include <string>

#include "support/check.hpp"

namespace sparklet {

struct NetworkSpec {
  double bandwidth_Bps = 125.0e6;  ///< GbE ≈ 125 MB/s per link
  double latency_s = 200e-6;       ///< per-transfer setup cost
};

struct DiskSpec {
  double read_Bps = 500.0e6;
  double write_Bps = 450.0e6;
  double seek_s = 0.1e-3;
  double capacity_bytes = 1.0e12;
  std::string kind = "ssd";

  static DiskSpec ssd(double capacity_bytes = 1.0e12) {
    return DiskSpec{500.0e6, 450.0e6, 0.1e-3, capacity_bytes, "ssd"};
  }
  static DiskSpec hdd(double capacity_bytes = 1.0e12) {
    return DiskSpec{120.0e6, 110.0e6, 8e-3, capacity_bytes, "hdd"};
  }
};

struct NodeSpec {
  int physical_cores = 32;
  double mem_bytes = 192.0e9;
  double l1_bytes = 32.0 * 1024;
  double l2_bytes = 1024.0 * 1024;
  double l3_bytes = 22.0 * 1024 * 1024;
  /// Sustained per-core GEP-update throughput when the working set is cache
  /// resident (updates/second). Calibrated in simtime::MachineModel docs.
  double core_updates_per_s = 1.0e9;
};

struct ClusterConfig {
  std::string name = "local";
  int num_nodes = 1;
  NodeSpec node;
  NetworkSpec network;
  DiskSpec local_disk = DiskSpec::ssd();   ///< shuffle staging
  DiskSpec shared_fs = DiskSpec::ssd();    ///< CB's shared persistent storage
  /// Device behind the storage-level spill tier (demoted cache blocks).
  /// Virtual-time charges use these rates; the payloads are real files.
  DiskSpec spill_disk = DiskSpec::ssd();
  /// Root for spill files: one subdirectory per *physical node* (so spill
  /// files survive executor kills, like Spark's external shuffle service).
  /// Empty → a unique temp dir owned (and removed) by the SparkContext.
  std::string spill_dir;

  // --- Spark settings (paper §V-B) ---
  int executors_per_node = 1;
  int executor_cores = 32;        ///< concurrent task slots per executor
  std::size_t rdd_partitions = 0; ///< 0 → 2 × total cores (Spark guidance)
  double executor_mem_bytes = 160.0e9;

  /// Per-task scheduling overhead (driver → executor dispatch, result fetch).
  double task_overhead_s = 4e-3;
  /// Per-stage overhead (DAG scheduling, barrier).
  double stage_overhead_s = 20e-3;

  /// Physical host threads backing the executor pool (0 → auto: the virtual
  /// slot count clamped to 2 × hardware concurrency). The launching thread
  /// runs graph tasks too, so a task graph runs on up to physical_threads + 1
  /// threads. Chaos tests pin this (1 against 8) to prove fault injection is
  /// independent of thread interleaving.
  int physical_threads = 0;

  int num_executors() const { return num_nodes * executors_per_node; }
  int total_cores() const { return num_nodes * node.physical_cores; }

  std::size_t effective_partitions() const {
    return rdd_partitions != 0
               ? rdd_partitions
               : static_cast<std::size_t>(2 * total_cores());
  }

  void validate() const {
    GS_THROW_IF(num_nodes < 1, gs::ConfigError, "need at least one node");
    GS_THROW_IF(executors_per_node < 1, gs::ConfigError,
                "need at least one executor per node");
    GS_THROW_IF(executor_cores < 1, gs::ConfigError,
                "executor_cores must be >= 1");
    GS_THROW_IF(node.physical_cores < 1, gs::ConfigError,
                "node must have cores");
  }

  // --- presets ---

  /// Paper cluster #1: 16 × (2×16-core Skylake, 192 GB, 1 TB SSD), GbE.
  static ClusterConfig skylake_cluster(int nodes = 16);

  /// Paper cluster #2: 16 × (2×10-core Haswell, 64 GB, spinning disk), GbE.
  static ClusterConfig haswell_cluster(int nodes = 16);

  /// In-process testing configuration (small and fast).
  static ClusterConfig local(int nodes = 2, int cores = 2);
};

}  // namespace sparklet
