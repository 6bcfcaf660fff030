// spill_store.hpp — the disk tier behind BlockStore's demotion ladder.
//
// Unlike the rest of sparklet (which simulates I/O in virtual time), spill
// files are REAL files: an out-of-core solve genuinely does not hold the
// table in memory, so the payload has to live somewhere. Layout mirrors
// Spark's external shuffle service: one directory per *physical node* (not
// per executor), so spill files survive executor kills by construction.
//
//   <root>/node<N>/b<rdd>_p<part>.spill
//
// File format: 8-byte magic + u64 payload length + u64 checksum + payload.
// The checksum is payload_checksum (item_codec.hpp): eight multiply-xorshift
// lanes folded through splitmix64, so any single changed payload word is
// caught. Spill files never outlive their SparkContext, so the format carries
// no version. Writes go to a `.tmp` sibling and are renamed into place
// (atomic on POSIX), so a crash mid-write leaves either the old file or none
// — never a torn one that parses. Reads verify magic, length, and checksum;
// any mismatch reads as "no block", which the caller heals via lineage
// recomputation.
//
// Chaos hooks (corrupt_file / truncate_file / set_enospc) damage files
// *after* a successful write or refuse writes per node, so fault decisions
// stay on the driver-side spill path and remain interleaving-independent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sparklet {

struct BlockId;  // block_store.hpp

class SpillStore {
 public:
  /// `root` empty → a unique temp directory (removed by the destructor).
  /// A caller-supplied root is left in place on destruction, minus the files
  /// this store wrote.
  explicit SpillStore(std::string root = "");
  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Atomically persist `payload` for `id` in node `node`'s directory.
  /// Returns false when the node is marked out of space (ENOSPC chaos) or a
  /// filesystem write genuinely fails.
  bool write(const BlockId& id, int node, const std::vector<std::uint8_t>& payload);

  /// Read + verify. nullopt on missing, torn, or checksum-mismatched files.
  std::optional<std::vector<std::uint8_t>> read(const BlockId& id, int node) const;

  void remove(const BlockId& id, int node);
  /// Remove every spill file belonging to `rdd` across all node dirs.
  void remove_rdd(int rdd);

  // ---- chaos injection (driver-side) ----
  void set_enospc(int node, bool full);
  void clear_enospc();
  /// Flip one payload byte in place (header intact → caught by checksum).
  bool corrupt_file(const BlockId& id, int node);
  /// Truncate mid-payload, simulating a torn write that bypassed the rename
  /// protocol (e.g. a lying disk cache).
  bool truncate_file(const BlockId& id, int node);

  // ---- introspection ----
  bool contains(const BlockId& id, int node) const;
  std::size_t files_written() const { return files_written_; }
  std::size_t bytes_written() const { return bytes_written_; }
  const std::string& root() const { return root_; }

 private:
  std::string file_path(const BlockId& id, int node) const;

  std::string root_;
  bool owns_root_ = false;
  std::vector<char> enospc_;  // grown on demand, indexed by node
  std::size_t files_written_ = 0;
  std::size_t bytes_written_ = 0;
};

}  // namespace sparklet
