#include "sparklet/block_store.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/format.hpp"

namespace sparklet {

BlockStore::BlockStore(DiskSpec spec, int num_nodes)
    : spec_(std::move(spec)),
      used_(static_cast<std::size_t>(num_nodes), 0),
      peak_(static_cast<std::size_t>(num_nodes), 0) {
  GS_CHECK(num_nodes >= 1);
}

double BlockStore::write(int node, std::size_t bytes) {
  GS_CHECK(node >= 0 && node < num_nodes());
  std::lock_guard<std::mutex> lock(mu_);
  auto& u = used_[static_cast<std::size_t>(node)];
  if (static_cast<double>(u) + static_cast<double>(bytes) >
      spec_.capacity_bytes) {
    throw gs::CapacityError(gs::strfmt(
        "%s on node %d overflows: %s staged + %s requested > %s capacity",
        spec_.kind.c_str(), node, gs::human_bytes(double(u)).c_str(),
        gs::human_bytes(double(bytes)).c_str(),
        gs::human_bytes(spec_.capacity_bytes).c_str()));
  }
  u += bytes;
  auto& p = peak_[static_cast<std::size_t>(node)];
  if (u > p) p = u;
  total_written_ += bytes;
  return spec_.seek_s + static_cast<double>(bytes) / spec_.write_Bps;
}

double BlockStore::read(int node, std::size_t bytes) const {
  GS_CHECK(node >= 0 && node < num_nodes());
  return spec_.seek_s + static_cast<double>(bytes) / spec_.read_Bps;
}

void BlockStore::release(int node, std::size_t bytes) {
  GS_CHECK(node >= 0 && node < num_nodes());
  std::lock_guard<std::mutex> lock(mu_);
  auto& u = used_[static_cast<std::size_t>(node)];
  u = (bytes >= u) ? 0 : u - bytes;
}

void BlockStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& u : used_) u = 0;
  if (hooks_.spill_remove) {
    for (const auto& [id, b] : blocks_) {
      if (b.tier == StorageTier::kDisk) hooks_.spill_remove(id, b.spill_node);
    }
  }
  blocks_.clear();
}

std::size_t BlockStore::used(int node) const {
  GS_CHECK(node >= 0 && node < num_nodes());
  std::lock_guard<std::mutex> lock(mu_);
  return used_[static_cast<std::size_t>(node)];
}

std::size_t BlockStore::peak(int node) const {
  GS_CHECK(node >= 0 && node < num_nodes());
  std::lock_guard<std::mutex> lock(mu_);
  return peak_[static_cast<std::size_t>(node)];
}

std::size_t BlockStore::total_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_written_;
}

std::size_t BlockStore::mem_charge(const BlockInfo& b) {
  switch (b.tier) {
    case StorageTier::kDeserialized: return b.bytes;
    case StorageTier::kSerialized: return b.payload.size();
    case StorageTier::kDisk: return 0;
  }
  return 0;
}

BlockStore::BlockMap::iterator BlockStore::erase_block_locked(
    BlockMap::iterator it) {
  const BlockInfo& b = it->second;
  auto& u = used_[static_cast<std::size_t>(b.node)];
  const std::size_t charge = mem_charge(b);
  u = (charge >= u) ? 0 : u - charge;
  if (b.tier == StorageTier::kDisk && hooks_.spill_remove) {
    hooks_.spill_remove(b.id, b.spill_node);
  }
  return blocks_.erase(it);
}

bool BlockStore::try_spill_locked(BlockInfo& b,
                                  std::vector<StorageEvent>& events) {
  if (!hooks_.spill_write) return false;
  const int snode = hooks_.spill_node_of ? hooks_.spill_node_of(b.node) : b.node;
  if (!hooks_.spill_write(b.id, snode, b.payload)) {
    events.push_back(
        {StorageEvent::kSpillRefused, b.id, snode, b.payload.size()});
    return false;
  }
  auto& u = used_[static_cast<std::size_t>(b.node)];
  const std::size_t freed = b.payload.size();
  u = (freed >= u) ? 0 : u - freed;
  b.disk_bytes = b.payload.size();
  b.payload.clear();
  b.payload.shrink_to_fit();
  b.tier = StorageTier::kDisk;
  b.spill_node = snode;
  events.push_back({StorageEvent::kSpillWrite, b.id, snode, b.disk_bytes});
  return true;
}

bool BlockStore::shrink_node_locked(int node, std::vector<BlockId>& evicted,
                                    std::vector<StorageEvent>& events) {
  auto& u = used_[static_cast<std::size_t>(node)];
  // Ids that can neither demote further nor be evicted this round.
  std::vector<BlockId> stuck;
  auto is_stuck = [&](const BlockId& id) {
    return std::find(stuck.begin(), stuck.end(), id) != stuck.end();
  };
  while (static_cast<double>(u) > spec_.capacity_bytes) {
    // Least-recently-written victim among this node's unpinned blocks that
    // still hold memory. Disk-tier blocks charge nothing and are skipped.
    BlockInfo* victim = nullptr;
    for (auto& [id, b] : blocks_) {
      if (b.node != node || b.pinned || mem_charge(b) == 0) continue;
      if (is_stuck(id)) continue;
      if (victim == nullptr || b.stamp < victim->stamp) victim = &b;
    }
    if (victim == nullptr) return false;

    // Rung 1: deserialized → serialized. Lossless, so it bypasses the
    // eviction filter — a protected lineage block may still compact.
    if (victim->tier == StorageTier::kDeserialized &&
        level_allows_serialized_tier(victim->level) && hooks_.encode &&
        hooks_.restore && hooks_.release) {
      if (auto payload = hooks_.encode(victim->id)) {
        hooks_.release(victim->id);
        const std::size_t freed = victim->bytes;
        u = (freed >= u) ? 0 : u - freed;
        u += payload->size();
        victim->payload = std::move(*payload);
        victim->tier = StorageTier::kSerialized;
        events.push_back({StorageEvent::kDemoteToSer, victim->id, node,
                          victim->payload.size()});
        continue;
      }
      // No codec for this block: fall through to the lossy path.
    }

    // Rung 2: serialized → disk. Also lossless; a refused spill (ENOSPC,
    // fs error) falls through to the lossy path.
    if (victim->tier == StorageTier::kSerialized &&
        level_allows_disk_tier(victim->level)) {
      if (try_spill_locked(*victim, events)) continue;
    }

    // Lossy path: eviction. The filter protects the running job's lineage;
    // a protected block that cannot demote is simply stuck.
    if (evict_filter_ && !evict_filter_(victim->id)) {
      stuck.push_back(victim->id);
      continue;
    }
    const std::size_t charge = mem_charge(*victim);
    u = (charge >= u) ? 0 : u - charge;
    evicted.push_back(victim->id);
    blocks_.erase(evicted.back());
    ++evictions_;
  }
  return true;
}

gs::CapacityError BlockStore::capacity_error_locked(
    int node, std::size_t requested) const {
  const auto& u = used_[static_cast<std::size_t>(node)];
  int n_deser = 0, n_ser = 0, n_disk = 0, n_protected = 0;
  std::size_t b_deser = 0, b_ser = 0, b_disk = 0, pinned_bytes = 0;
  for (const auto& [id, b] : blocks_) {
    if (b.node != node) continue;
    switch (b.tier) {
      case StorageTier::kDeserialized: ++n_deser; b_deser += b.bytes; break;
      case StorageTier::kSerialized: ++n_ser; b_ser += b.payload.size(); break;
      case StorageTier::kDisk: ++n_disk; b_disk += b.disk_bytes; break;
    }
    if (b.pinned) pinned_bytes += mem_charge(b);
    if (!b.pinned && evict_filter_ && !evict_filter_(id)) ++n_protected;
  }
  return gs::CapacityError(gs::strfmt(
      "%s on node %d overflows and no block is evictable: %s used + %s "
      "requested > %s capacity [tiers: %d deserialized (%s), %d serialized "
      "(%s), %d on disk (%s); pinned %s; %d filter-protected]",
      spec_.kind.c_str(), node, gs::human_bytes(double(u)).c_str(),
      gs::human_bytes(double(requested)).c_str(),
      gs::human_bytes(spec_.capacity_bytes).c_str(), n_deser,
      gs::human_bytes(double(b_deser)).c_str(), n_ser,
      gs::human_bytes(double(b_ser)).c_str(), n_disk,
      gs::human_bytes(double(b_disk)).c_str(),
      gs::human_bytes(double(pinned_bytes)).c_str(), n_protected));
}

double BlockStore::put_block(int node, const BlockId& id, std::size_t bytes,
                             std::uint64_t checksum, bool pinned,
                             StorageLevel level) {
  GS_CHECK(node >= 0 && node < num_nodes());
  std::vector<BlockId> evicted;
  std::vector<StorageEvent> events;
  std::optional<gs::CapacityError> capacity_error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Overwrite semantics: drop the old registration (and spill file) first.
    if (auto old = blocks_.find(id); old != blocks_.end()) {
      erase_block_locked(old);
    }
    BlockInfo info;
    info.id = id;
    info.node = node;
    info.bytes = bytes;
    info.checksum = checksum;
    info.pinned = pinned;
    info.stamp = ++clock_;
    info.level = level;
    // _SER levels serialize at put; without a codec they degrade to
    // deserialized residency (same graceful fallback as eviction).
    if (level_serializes_at_put(level) && hooks_.encode && hooks_.restore &&
        hooks_.release) {
      if (auto payload = hooks_.encode(id)) {
        hooks_.release(id);
        info.payload = std::move(*payload);
        info.tier = StorageTier::kSerialized;
      }
    }
    {
      BlockInfo& fresh = blocks_.emplace(id, std::move(info)).first->second;
      // Charge the resident tier first so a DISK_ONLY spill's refund of
      // payload.size() inside try_spill_locked nets to zero instead of
      // draining other blocks' charges out of used_.
      used_[static_cast<std::size_t>(node)] += mem_charge(fresh);
      if (level == StorageLevel::kDiskOnly &&
          fresh.tier == StorageTier::kSerialized) {
        try_spill_locked(fresh, events);  // failure → stays serialized
      }
    }
    // Capacity pressure: walk blocks down their demotion ladders (possibly
    // including the block just put), evicting only when a ladder ends.
    if (!shrink_node_locked(node, evicted, events)) {
      // Leave the store consistent: unregister the incoming block. The
      // events that led here (refused spills, demotions) still happened and
      // are delivered below before the failure is reported.
      if (auto it = blocks_.find(id); it != blocks_.end()) {
        erase_block_locked(it);
      }
      capacity_error = capacity_error_locked(node, bytes);
    } else {
      total_written_ += bytes;  // failed puts never count
      auto& u = used_[static_cast<std::size_t>(node)];
      auto& p = peak_[static_cast<std::size_t>(node)];
      if (u > p) p = u;
    }
  }
  // Hooks run outside the lock: they drop the owning RDD's partition, which
  // must never re-enter this store's mutex.
  if (evict_hook_) {
    for (const auto& b : evicted) evict_hook_(b);
  }
  if (hooks_.observer) {
    for (const auto& ev : events) hooks_.observer(ev);
  }
  if (access_observer_) {
    for (const auto& b : evicted) access_observer_(b, /*is_write=*/true);
    if (!capacity_error) access_observer_(id, /*is_write=*/true);
  }
  if (capacity_error) throw *capacity_error;
  return spec_.seek_s + static_cast<double>(bytes) / spec_.write_Bps;
}

BlockStore::Readback BlockStore::readback_block(const BlockId& id) {
  std::vector<StorageEvent> events;
  Readback result = Readback::kNoBlock;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = blocks_.find(id);
    if (it == blocks_.end()) {
      result = Readback::kNoBlock;
    } else if (const BlockInfo& b = it->second;
               b.tier == StorageTier::kDeserialized) {
      result = Readback::kOk;  // owner copy is live by definition
    } else if (b.tier == StorageTier::kSerialized) {
      if (hooks_.restore && hooks_.restore(id, b.payload)) {
        events.push_back(
            {StorageEvent::kReadbackMem, id, b.node, b.payload.size()});
        result = Readback::kOk;
      } else {
        events.push_back(
            {StorageEvent::kCorruptSpill, id, b.node, b.payload.size()});
        erase_block_locked(it);
        result = Readback::kFailed;
      }
    } else {  // disk
      auto payload = hooks_.spill_read ? hooks_.spill_read(id, b.spill_node)
                                       : std::nullopt;
      if (payload && hooks_.restore && hooks_.restore(id, *payload)) {
        events.push_back(
            {StorageEvent::kReadbackDisk, id, b.spill_node, payload->size()});
        result = Readback::kOk;
      } else {
        // Corrupt, torn, or missing spill file: drop the block so the caller
        // heals via lineage recomputation — never silent wrong data.
        events.push_back(
            {StorageEvent::kCorruptSpill, id, b.spill_node, b.disk_bytes});
        erase_block_locked(it);
        result = Readback::kFailed;
      }
    }
  }
  if (hooks_.observer) {
    for (const auto& ev : events) hooks_.observer(ev);
  }
  // A readback is semantically a *read* of the block (the reinstall is an
  // idempotent internal detail), so the race detector sees it as one.
  if (access_observer_) access_observer_(id, /*is_write=*/false);
  return result;
}

bool BlockStore::has_block(const BlockId& id) const {
  if (access_observer_) access_observer_(id, /*is_write=*/false);
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.contains(id);
}

bool BlockStore::verify_block(const BlockId& id, std::uint64_t expect) const {
  if (access_observer_) access_observer_(id, /*is_write=*/false);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  return it != blocks_.end() && it->second.checksum == expect;
}

void BlockStore::corrupt_block(const BlockId& id) {
  if (access_observer_) access_observer_(id, /*is_write=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it != blocks_.end()) it->second.checksum ^= 0xbad0bad0bad0bad0ULL;
}

void BlockStore::remove_block(const BlockId& id) {
  if (access_observer_) access_observer_(id, /*is_write=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it != blocks_.end()) erase_block_locked(it);
}

void BlockStore::remove_rdd_blocks(int rdd) {
  std::vector<std::pair<std::uint64_t, BlockId>> removed;  // (stamp, id)
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      if (it->first.rdd != rdd) {
        ++it;
        continue;
      }
      if (access_observer_) removed.emplace_back(it->second.stamp, it->first);
      it = erase_block_locked(it);
    }
  }
  // The observer sees the removals oldest first, whatever the map order.
  std::sort(removed.begin(), removed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [stamp, id] : removed) access_observer_(id, /*is_write=*/true);
}

std::vector<BlockId> BlockStore::blocks_on(int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const BlockInfo*> on_node;
  for (const auto& [id, b] : blocks_) {
    if (b.node == node) on_node.push_back(&b);
  }
  std::sort(on_node.begin(), on_node.end(),
            [](const BlockInfo* a, const BlockInfo* b) {
              return a->stamp < b->stamp;
            });
  std::vector<BlockId> out;
  out.reserve(on_node.size());
  for (const BlockInfo* b : on_node) out.push_back(b->id);
  return out;
}

std::size_t BlockStore::num_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_.size();
}

int BlockStore::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::optional<StorageTier> BlockStore::block_tier(const BlockId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) return std::nullopt;
  return it->second.tier;
}

BlockStore::TierUsage BlockStore::tier_usage(int node, StorageTier tier) const {
  std::lock_guard<std::mutex> lock(mu_);
  TierUsage out;
  for (const auto& [id, b] : blocks_) {
    if (b.node != node || b.tier != tier) continue;
    ++out.blocks;
    out.bytes += tier == StorageTier::kDisk ? b.disk_bytes : mem_charge(b);
  }
  return out;
}

}  // namespace sparklet
