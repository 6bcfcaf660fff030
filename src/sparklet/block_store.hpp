// block_store.hpp — simulated persistent storage with tiered residency.
//
// Two roles, mirroring the paper:
//   * per-node local disks that stage shuffle data for wide transformations —
//     with a hard capacity limit, reproducing the paper's observation that IM
//     executions are "constrained by the size of the underlying SSDs";
//   * the shared filesystem the Collect-Broadcast driver distributes tiles
//     through.
// All I/O is virtual: operations return the seconds they would take and
// update the accounted usage; actual data stays in process memory.
//
// On top of the raw byte counters sits a *named block* layer used by the
// fault-tolerance machinery: cached RDD partitions and checkpoint files are
// registered as (rdd, partition) blocks with a checksum and a StorageLevel.
// Under capacity pressure a block walks the demotion ladder its level allows
//
//   deserialized ──encode──▶ serialized ──spill──▶ disk
//
// before the store ever falls back to the lossy path (LRW eviction +
// lineage recomputation). Demotions are *lossless*, so they deliberately
// bypass the eviction filter that protects the running job's lineage: a
// readback restores the exact bytes. Pinned blocks (checkpoints) never
// demote and never evict. The actual encode/restore/spill work is delegated
// to TierHooks wired by SparkContext, which keeps this layer free of any
// knowledge about RDDs, codecs, or the filesystem.
//
// Blocks are keyed by BlockId, so every lookup (put's overwrite check,
// verify, readback, remove) is O(1) and remove_rdd_blocks is one pass. The
// container's iteration order is meaningless and nothing observable depends
// on it: each block carries a write stamp, and the stamp alone decides the
// least-recently-written victim, the order of blocks_on, and the order in
// which removals reach the access observer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sparklet/cluster.hpp"
#include "sparklet/storage_level.hpp"
#include "support/check.hpp"

namespace sparklet {

/// Identity of a cached/checkpointed partition in a BlockStore.
struct BlockId {
  int rdd = -1;
  int partition = -1;

  friend bool operator==(const BlockId& a, const BlockId& b) {
    return a.rdd == b.rdd && a.partition == b.partition;
  }
};

struct BlockIdHash {
  std::size_t operator()(const BlockId& id) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id.rdd)) << 32) |
        static_cast<std::uint32_t>(id.partition));
  }
};

/// One tier transition or tier I/O, reported to the storage observer so the
/// context can charge virtual time, bump RecoveryCounters, and drop trace
/// markers. Events fire outside the store mutex.
struct StorageEvent {
  enum Kind {
    kDemoteToSer,   ///< deserialized → serialized (memory op)
    kSpillWrite,    ///< serialized → disk (payload written to spill file)
    kSpillRefused,  ///< spill write failed (ENOSPC / fs error); block stayed
    kReadbackMem,   ///< transient restore from the serialized tier
    kReadbackDisk,  ///< transient restore from a spill file
    kCorruptSpill,  ///< payload failed verification; block dropped to lineage
  };
  Kind kind = kDemoteToSer;
  BlockId id;
  int node = 0;           ///< store slot (spill node for disk events)
  std::size_t bytes = 0;  ///< payload bytes moved/affected
};

class BlockStore {
 public:
  /// Decides whether a block may be *evicted* (lossy) under pressure, e.g.
  /// the scheduler protects the running job's lineage. Lossless demotions
  /// ignore the filter. Default: everything unpinned is fair game.
  using EvictionFilter = std::function<bool(const BlockId&)>;
  /// Invoked (outside the store lock) for every block evicted by pressure.
  using EvictHook = std::function<void(const BlockId&)>;
  /// Analysis hook (outside the store lock): every named-block access, with
  /// is_write = true for put/remove/corrupt. Wired by
  /// SparkContext::set_race_detector(); unset costs one branch per access.
  using AccessObserver = std::function<void(const BlockId&, bool is_write)>;

  /// Delegates for the serialized and disk tiers. encode/restore/release and
  /// spill_write run *inside* the store mutex — they must never call back
  /// into this store. observer runs outside the mutex.
  struct TierHooks {
    /// Serialize the owner's live data for `id`; nullopt when no codec or
    /// the data is not resident (block then stays deserialized).
    std::function<std::optional<std::vector<std::uint8_t>>(const BlockId&)>
        encode;
    /// Reinstall the owner's data from a payload; false on decode failure.
    std::function<bool(const BlockId&, const std::vector<std::uint8_t>&)>
        restore;
    /// Drop only the owner's deserialized copy (the payload stays here).
    std::function<void(const BlockId&)> release;
    /// Persist a payload on a physical node; false on ENOSPC/write failure.
    std::function<bool(const BlockId&, int, const std::vector<std::uint8_t>&)>
        spill_write;
    /// Fetch + verify a spilled payload; nullopt on corrupt/torn/missing.
    std::function<std::optional<std::vector<std::uint8_t>>(const BlockId&, int)>
        spill_read;
    std::function<void(const BlockId&, int)> spill_remove;
    /// Map a store slot (executor index) to its physical spill node, so
    /// spill files survive executor kills. Identity when unset.
    std::function<int(int)> spill_node_of;
    std::function<void(const StorageEvent&)> observer;
  };

  BlockStore(DiskSpec spec, int num_nodes);

  /// Stage `bytes` on `node`'s disk. Returns virtual seconds for the write.
  /// Throws gs::CapacityError when the node's disk would overflow.
  double write(int node, std::size_t bytes);

  /// Read `bytes` from `node`'s disk (no usage change).
  double read(int node, std::size_t bytes) const;

  /// Release staged bytes (shuffle cleanup after a stage completes).
  void release(int node, std::size_t bytes);
  void clear();

  std::size_t used(int node) const;
  std::size_t peak(int node) const;
  std::size_t total_written() const;

  // ----------------------- named blocks (fault tolerance) -----------------

  /// Register (or overwrite) block `id` on `node` with storage policy
  /// `level`. Under pressure, unpinned blocks demote down `level`'s tier
  /// ladder least-recently-written first; blocks whose ladder is exhausted
  /// are evicted if the filter allows. If nothing can demote or evict,
  /// throws gs::CapacityError with a per-tier breakdown. Pinned blocks
  /// (checkpoints) never demote or evict. Returns virtual seconds.
  double put_block(int node, const BlockId& id, std::size_t bytes,
                   std::uint64_t checksum, bool pinned,
                   StorageLevel level = StorageLevel::kMemoryOnly);

  /// Outcome of readback_block.
  enum class Readback {
    kOk,       ///< owner data is (now) live
    kNoBlock,  ///< no such block — caller recomputes from lineage
    kFailed,   ///< payload corrupt/torn/missing — block dropped; recompute
  };

  /// Restore the owner's data for a demoted block. The restore is
  /// *transient*: the block keeps its tier and memory charge (the payload or
  /// spill file stays authoritative), modeling Spark's task unroll memory.
  /// A corrupt or torn payload drops the block entirely (kFailed) so the
  /// caller heals via lineage — never silent wrong data.
  Readback readback_block(const BlockId& id);

  bool has_block(const BlockId& id) const;
  /// True when the block exists and its stored checksum matches `expect`.
  bool verify_block(const BlockId& id, std::uint64_t expect) const;
  /// Chaos injection: flip the stored checksum so verification fails.
  void corrupt_block(const BlockId& id);
  void remove_block(const BlockId& id);
  void remove_rdd_blocks(int rdd);
  /// Blocks currently resident on `node`, oldest first.
  std::vector<BlockId> blocks_on(int node) const;
  std::size_t num_blocks() const;
  int evictions() const;

  /// Residency of a block, or nullopt when absent. Used by the kill path
  /// (disk-tier blocks survive executor kills) and by tests.
  std::optional<StorageTier> block_tier(const BlockId& id) const;

  /// Per-tier census of one node (bytes = memory charge for memory tiers,
  /// file bytes for the disk tier). Also powers the CapacityError message.
  struct TierUsage {
    int blocks = 0;
    std::size_t bytes = 0;
  };
  TierUsage tier_usage(int node, StorageTier tier) const;

  void set_evict_hook(EvictHook hook) { evict_hook_ = std::move(hook); }
  void set_eviction_filter(EvictionFilter f) { evict_filter_ = std::move(f); }
  void set_access_observer(AccessObserver o) { access_observer_ = std::move(o); }
  void set_tier_hooks(TierHooks hooks) { hooks_ = std::move(hooks); }

  const DiskSpec& spec() const { return spec_; }
  int num_nodes() const { return static_cast<int>(used_.size()); }

 private:
  struct BlockInfo {
    BlockId id;
    int node = 0;
    std::size_t bytes = 0;  ///< logical (deserialized) size
    std::uint64_t checksum = 0;
    bool pinned = false;
    std::uint64_t stamp = 0;  ///< write clock, for least-recently-written
    StorageLevel level = StorageLevel::kMemoryOnly;
    StorageTier tier = StorageTier::kDeserialized;
    std::vector<std::uint8_t> payload;  ///< serialized tier only
    std::size_t disk_bytes = 0;         ///< disk tier only
    int spill_node = -1;                ///< physical node of the spill file
  };

  using BlockMap = std::unordered_map<BlockId, BlockInfo, BlockIdHash>;

  /// Memory accounted for a block in its current tier.
  static std::size_t mem_charge(const BlockInfo& b);
  /// Refund + unregister; removes the spill file for disk blocks. Returns
  /// the iterator past the erased block.
  BlockMap::iterator erase_block_locked(BlockMap::iterator it);
  /// serialized → disk under the lock; true on success.
  bool try_spill_locked(BlockInfo& b, std::vector<StorageEvent>& events);
  /// Walk demotion/eviction until `node` fits. False when stuck.
  bool shrink_node_locked(int node, std::vector<BlockId>& evicted,
                          std::vector<StorageEvent>& events);
  gs::CapacityError capacity_error_locked(int node,
                                          std::size_t requested) const;

  DiskSpec spec_;
  mutable std::mutex mu_;
  std::vector<std::size_t> used_;
  std::vector<std::size_t> peak_;
  std::size_t total_written_ = 0;

  BlockMap blocks_;
  std::uint64_t clock_ = 0;
  int evictions_ = 0;
  EvictHook evict_hook_;
  EvictionFilter evict_filter_;
  AccessObserver access_observer_;  ///< set before use, never concurrently
  TierHooks hooks_;                 ///< set before use, never concurrently
};

}  // namespace sparklet
