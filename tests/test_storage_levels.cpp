// Storage levels, the demotion ladder, and out-of-core solves.
//
// Layer by layer: the LZ block codec and the payload envelope must round-trip
// exactly; the SpillStore must detect corrupt / torn / missing files and
// refuse writes under ENOSPC; the BlockStore must walk blocks down
// deserialized → serialized → disk (never dropping what it can demote) while
// honoring pins and applying the eviction filter only to the lossy path; and
// a full GEP solve under a hard per-executor memory cap must stay
// bit-identical to the uncapped run — including under the disk-fault chaos
// matrix (spill corruption, torn writes, ENOSPC, slow spill devices, executor
// kills) on both strategies and both schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "gepspark/solver.hpp"
#include "sparklet/rdd.hpp"
#include "sparklet/spill_store.hpp"
#include "support/lz.hpp"
#include "test_util.hpp"

namespace {

using namespace sparklet;

// ----------------------------------------------------------- lz codec

std::vector<std::uint8_t> compressible_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i / 64) % 7);  // long runs
  }
  return v;
}

std::vector<std::uint8_t> noisy_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::uint64_t s = seed;
  for (auto& b : v) {
    s = gs::splitmix64(s);
    b = static_cast<std::uint8_t>(s & 0xff);
  }
  return v;
}

TEST(LzCodec, RoundTripsCompressibleAndNoisyData) {
  for (const auto& data :
       {compressible_bytes(10000), noisy_bytes(10000, 3), compressible_bytes(3),
        std::vector<std::uint8_t>{}}) {
    const auto packed = gs::lz_compress(data.data(), data.size());
    const auto back = gs::lz_decompress(packed.data(), packed.size(), data.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
  }
  // Long runs must actually compress, or the serialized tier is pointless.
  const auto runs = compressible_bytes(10000);
  EXPECT_LT(gs::lz_compress(runs.data(), runs.size()).size(), runs.size() / 4);
}

TEST(LzCodec, CompressionIsDeterministic) {
  const auto data = noisy_bytes(4096, 11);
  EXPECT_EQ(gs::lz_compress(data.data(), data.size()),
            gs::lz_compress(data.data(), data.size()));
}

TEST(LzCodec, MalformedStreamsFailLoudly) {
  const auto data = compressible_bytes(2048);
  auto packed = gs::lz_compress(data.data(), data.size());
  // Wrong expected size: reject, never partially decode.
  EXPECT_FALSE(gs::lz_decompress(packed.data(), packed.size(), data.size() + 1));
  // Invalid opcode at the front of a token.
  packed[0] = 0x7f;
  EXPECT_FALSE(gs::lz_decompress(packed.data(), packed.size(), data.size()));
  // Truncated stream.
  const auto good = gs::lz_compress(data.data(), data.size());
  EXPECT_FALSE(gs::lz_decompress(good.data(), good.size() / 2, data.size()));
}

TEST(PayloadEnvelope, RoundTripsThroughPackAndUnpack) {
  std::vector<double> items(513);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<double>(i % 17);
  }
  ByteBuffer raw;
  encode_item(raw, items);
  const auto packed = pack_payload(ByteBuffer(raw));
  const auto unpacked = unpack_payload(packed);
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(*unpacked, raw);
  DecodeCursor cur{unpacked->data(), unpacked->data() + unpacked->size()};
  std::vector<double> back;
  ASSERT_TRUE(decode_item(cur, back));
  EXPECT_EQ(cur.remaining(), 0u);
  EXPECT_EQ(back, items);
}

// Tile fixtures for the envelope: a solved-APSP-like tile that is mostly
// +inf (LZ shrinks it many times over) and a tile of distinct doubles (LZ
// cannot shrink it, so the sample gate stores it raw).
gs::TileRef<double> inf_heavy_tile(std::size_t n) {
  gs::Tile<double> t(n, n, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) t(i, i) = 0.0;
  return std::make_shared<const gs::Tile<double>>(std::move(t));
}

gs::TileRef<double> distinct_tile(std::size_t n, std::uint64_t seed) {
  gs::Tile<double> t(n, n);
  gs::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) t(i, j) = rng.uniform(0.0, 1e6);
  }
  return std::make_shared<const gs::Tile<double>>(std::move(t));
}

bool same_tile(const gs::TileRef<double>& a, const gs::TileRef<double>& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->rows() == b->rows() && a->cols() == b->cols() &&
         std::memcmp(a->span().data(), b->span().data(),
                     a->rows() * a->cols() * sizeof(double)) == 0;
}

ByteBuffer encoded(const auto& x) {
  ByteBuffer raw;
  encode_item(raw, x);
  return raw;
}

TEST(PayloadEnvelope, EncodePayloadMatchesPackPayload) {
  for (const auto& tile : {inf_heavy_tile(64), distinct_tile(64, 5)}) {
    const ByteBuffer packed = pack_payload(encoded(tile));
    // With no hint, an exact hint, or the store's estimate (Tile::bytes()).
    EXPECT_EQ(encode_payload(tile), packed);
    EXPECT_EQ(encode_payload(tile, encoded(tile).size()), packed);
    EXPECT_EQ(encode_payload(tile, tile->bytes()), packed);
    gs::TileRef<double> back;
    ASSERT_TRUE(decode_payload(packed, back));
    EXPECT_TRUE(same_tile(back, tile));
  }
  EXPECT_EQ(pack_payload(encoded(inf_heavy_tile(64)))[0], 1);  // LZ case
  EXPECT_EQ(pack_payload(encoded(distinct_tile(64, 5)))[0], 0);  // raw case
  // A payload whose item stops short of the body's end is malformed.
  ByteBuffer trailing = encoded(distinct_tile(8, 1));
  trailing.push_back(0);
  gs::TileRef<double> back;
  EXPECT_FALSE(decode_payload(pack_payload(trailing), back));
}

TEST(PayloadEnvelope, GateKeepsCompressibleBodies) {
  const auto sparse = inf_heavy_tile(128);
  const ByteBuffer sparse_raw = encoded(sparse);
  const ByteBuffer lz = encode_payload(sparse);
  EXPECT_EQ(lz[0], 1);
  EXPECT_LE(lz.size() * 4, sparse_raw.size());

  const auto dense = distinct_tile(128, 9);
  const ByteBuffer raw = encode_payload(dense);
  EXPECT_EQ(raw[0], 0);
  EXPECT_EQ(raw.size(), encoded(dense).size() + kEnvelopeHeaderBytes);
  EXPECT_TRUE(std::equal(raw.begin() + kEnvelopeHeaderBytes, raw.end(),
                         encoded(dense).begin()));
}

// ----------------------------------------------------------- level parsing

TEST(StorageLevelParse, AcceptsSparkNamesCaseAndDashInsensitive) {
  EXPECT_EQ(parse_storage_level("memory_only"), StorageLevel::kMemoryOnly);
  EXPECT_EQ(parse_storage_level("MEMORY-AND-DISK"), StorageLevel::kMemoryAndDisk);
  EXPECT_EQ(parse_storage_level("Memory_And_Disk_Ser"),
            StorageLevel::kMemoryAndDiskSer);
  EXPECT_EQ(parse_storage_level("memory-only-ser"), StorageLevel::kMemoryOnlySer);
  EXPECT_EQ(parse_storage_level("DISK_ONLY"), StorageLevel::kDiskOnly);
  EXPECT_FALSE(parse_storage_level("memory_and_ssd").has_value());
  EXPECT_FALSE(parse_storage_level("").has_value());
}

TEST(StorageLevelParse, LadderPredicatesMatchTheSparkSemantics) {
  using L = StorageLevel;
  EXPECT_FALSE(level_serializes_at_put(L::kMemoryOnly));
  EXPECT_TRUE(level_serializes_at_put(L::kMemoryOnlySer));
  EXPECT_TRUE(level_serializes_at_put(L::kDiskOnly));
  EXPECT_FALSE(level_allows_serialized_tier(L::kMemoryOnly));
  EXPECT_TRUE(level_allows_serialized_tier(L::kMemoryAndDisk));
  EXPECT_FALSE(level_allows_disk_tier(L::kMemoryOnly));
  EXPECT_FALSE(level_allows_disk_tier(L::kMemoryOnlySer));
  EXPECT_TRUE(level_allows_disk_tier(L::kMemoryAndDisk));
  EXPECT_TRUE(level_allows_disk_tier(L::kMemoryAndDiskSer));
  EXPECT_TRUE(level_allows_disk_tier(L::kDiskOnly));
}

// ----------------------------------------------------------- spill store

std::vector<std::uint8_t> payload_for(int tag, std::size_t n = 256) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i + static_cast<std::size_t>(tag)) & 0xff);
  }
  return v;
}

TEST(SpillStoreTest, RoundTripsAndCountsBytes) {
  SpillStore s;
  const BlockId id{3, 1};
  const auto body = payload_for(1);
  ASSERT_TRUE(s.write(id, 0, body));
  EXPECT_TRUE(s.contains(id, 0));
  const auto back = s.read(id, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, body);
  EXPECT_EQ(s.files_written(), 1u);
  EXPECT_GE(s.bytes_written(), body.size());
}

TEST(SpillStoreTest, MissingFileReadsAsNoBlock) {
  SpillStore s;
  EXPECT_FALSE(s.read(BlockId{9, 9}, 0).has_value());
  EXPECT_FALSE(s.contains(BlockId{9, 9}, 0));
}

TEST(SpillStoreTest, CorruptAndTornFilesAreDetected) {
  SpillStore s;
  const BlockId a{1, 0}, b{1, 1};
  ASSERT_TRUE(s.write(a, 0, payload_for(7)));
  ASSERT_TRUE(s.write(b, 0, payload_for(8)));
  ASSERT_TRUE(s.corrupt_file(a, 0));   // flipped payload byte → checksum
  ASSERT_TRUE(s.truncate_file(b, 0));  // torn write → short file
  EXPECT_FALSE(s.read(a, 0).has_value());
  EXPECT_FALSE(s.read(b, 0).has_value());
}

TEST(SpillStoreTest, EnospcRefusesWritesPerNode) {
  SpillStore s;
  s.set_enospc(0, true);
  EXPECT_FALSE(s.write(BlockId{2, 0}, 0, payload_for(2)));
  EXPECT_TRUE(s.write(BlockId{2, 0}, 1, payload_for(2)));  // other node fine
  s.clear_enospc();
  EXPECT_TRUE(s.write(BlockId{2, 0}, 0, payload_for(2)));
}

TEST(SpillStoreTest, NodesHaveIndependentDirectories) {
  SpillStore s;
  const BlockId id{4, 2};
  ASSERT_TRUE(s.write(id, 0, payload_for(10)));
  ASSERT_TRUE(s.write(id, 1, payload_for(11)));
  ASSERT_TRUE(s.corrupt_file(id, 0));
  EXPECT_FALSE(s.read(id, 0).has_value());
  const auto other = s.read(id, 1);  // node 1's copy untouched
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(*other, payload_for(11));
}

TEST(SpillStoreTest, OverwriteReplacesAtomically) {
  SpillStore s;
  const BlockId id{5, 0};
  ASSERT_TRUE(s.write(id, 0, payload_for(1)));
  ASSERT_TRUE(s.write(id, 0, payload_for(2)));
  const auto back = s.read(id, 0);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload_for(2));
}

TEST(SpillStoreTest, RemoveRddSweepsEveryNode) {
  SpillStore s;
  ASSERT_TRUE(s.write(BlockId{7, 0}, 0, payload_for(1)));
  ASSERT_TRUE(s.write(BlockId{7, 1}, 1, payload_for(2)));
  ASSERT_TRUE(s.write(BlockId{8, 0}, 0, payload_for(3)));
  s.remove_rdd(7);
  EXPECT_FALSE(s.contains(BlockId{7, 0}, 0));
  EXPECT_FALSE(s.contains(BlockId{7, 1}, 1));
  EXPECT_TRUE(s.contains(BlockId{8, 0}, 0));
}

TEST(SpillStoreTest, OwnedTempRootIsRemovedOnDestruction) {
  std::string root;
  {
    SpillStore s;
    root = s.root();
    ASSERT_TRUE(s.write(BlockId{1, 0}, 0, payload_for(1)));
    EXPECT_TRUE(std::filesystem::exists(root));
  }
  EXPECT_FALSE(std::filesystem::exists(root));
}

std::filesystem::path spill_file(const SpillStore& s, const BlockId& id,
                                 int node) {
  return std::filesystem::path(s.root()) / ("node" + std::to_string(node)) /
         ("b" + std::to_string(id.rdd) + "_p" + std::to_string(id.partition) +
          ".spill");
}

ByteBuffer read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return ByteBuffer(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::filesystem::path& path, const ByteBuffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

constexpr std::size_t kSpillHeaderBytes = 24;  // magic, length, checksum

TEST(SpillStoreTest, ChecksumCatchesAFlipInEveryLane) {
  // Three 64-byte strides, two tail words and five tail bytes.
  const auto body = noisy_bytes(3 * 64 + 2 * 8 + 5, 21);
  std::vector<std::size_t> flips;
  for (std::size_t lane = 0; lane < 8; ++lane) flips.push_back(8 * lane + 3);
  flips.push_back(64 + 8 * 5);  // a word of the second stride
  flips.push_back(3 * 64 + 8);  // a tail word
  flips.push_back(body.size() - 2);  // a tail byte
  SpillStore s;
  const BlockId id{6, 0};
  ASSERT_TRUE(s.write(id, 0, body));
  const ByteBuffer good = read_file(spill_file(s, id, 0));
  for (const std::size_t at : flips) {
    ByteBuffer flipped = body;
    flipped[at] ^= 0x01;
    EXPECT_NE(payload_checksum(flipped), payload_checksum(body)) << at;
    ByteBuffer file = good;
    file[kSpillHeaderBytes + at] ^= 0x01;
    write_file(spill_file(s, id, 0), file);
    EXPECT_FALSE(s.read(id, 0).has_value()) << "flip at byte " << at;
  }
  write_file(spill_file(s, id, 0), good);
  EXPECT_EQ(s.read(id, 0), body);
}

// ----------------------------------------------------------- codec fuzz

using FuzzPartition = std::vector<std::pair<gs::TileKey, gs::TileRef<double>>>;

/// A decoded tile is well formed when its cell block's byte size is
/// computable: a shape that wraps rows·cols or its byte count claims cells
/// the buffer does not hold.
bool well_formed(const gs::TileRef<double>& t) {
  std::size_t cells = 0;
  std::size_t bytes = 0;
  return t == nullptr ||
         (!__builtin_mul_overflow(t->rows(), t->cols(), &cells) &&
          !__builtin_mul_overflow(cells, sizeof(double), &bytes));
}

bool well_formed(const FuzzPartition& part) {
  return std::all_of(part.begin(), part.end(),
                     [](const auto& kv) { return well_formed(kv.second); });
}

/// One corpus entry: an item, its envelope, and the payload offsets of its
/// u64 header and shape fields (shape fields only where the body is raw).
struct FuzzCase {
  std::string name;
  std::variant<gs::TileRef<double>, FuzzPartition> item;
  ByteBuffer payload;
  std::vector<std::size_t> u64_fields;
  std::vector<std::size_t> shape_fields;  // offset of rows; cols follows
};

template <typename T>
FuzzCase make_case(std::string name, const T& item) {
  FuzzCase c{std::move(name), item, encode_payload(item), {1}, {}};
  if (c.payload[0] != 0) return c;
  // Walk the raw body: a tile's shape sits behind its TileRef presence byte.
  std::size_t at = kEnvelopeHeaderBytes;
  auto add_tile = [&](const gs::TileRef<double>& t) {
    at += 1;
    if (t == nullptr) return;
    c.shape_fields.push_back(at);
    at += 16 + t->rows() * t->cols() * sizeof(double);
  };
  if constexpr (std::is_same_v<T, FuzzPartition>) {
    c.u64_fields.push_back(at);  // item count
    at += 8;
    for (const auto& [key, t] : item) {
      at += sizeof(key);
      add_tile(t);
    }
  } else {
    add_tile(item);
  }
  for (std::size_t f : c.shape_fields) {
    c.u64_fields.push_back(f);
    c.u64_fields.push_back(f + 8);
  }
  return c;
}

void set_u64(ByteBuffer& b, std::size_t at, std::uint64_t v) {
  if (at + 8 <= b.size()) std::memcpy(b.data() + at, &v, 8);
}

/// Both decoders on one (possibly mutated) envelope. Whatever they accept
/// must be well formed and re-encode to exactly the bytes it came from; the
/// envelope itself carries no integrity check (spill files do), so a flipped
/// cell legitimately decodes to a different, exact value.
template <typename T>
void check_decoders(const ByteBuffer& m, const std::string& what) {
  T x{};
  if (decode_payload(m, x)) {
    const auto body = unpack_payload(m);
    EXPECT_TRUE(well_formed(x) && body && encoded(x) == *body)
        << "decode_payload accepted an inexact payload: " << what;
  }
  const auto body = unpack_payload(m);
  if (!body) return;
  DecodeCursor in{body->data(), body->data() + body->size()};
  T y{};
  if (decode_item(in, y)) {
    const ByteBuffer used(body->data(), in.p);
    EXPECT_TRUE(well_formed(y) && encoded(y) == used)
        << "decode_item accepted an inexact body: " << what;
  }
}

TEST(CodecFuzz, MutatedPayloadsDecodeExactlyOrFail) {
  FuzzPartition sparse_part{{{0, 0}, inf_heavy_tile(8)},
                            {{0, 1}, nullptr},
                            {{1, 0}, inf_heavy_tile(4)}};
  FuzzPartition dense_part{{{2, 3}, distinct_tile(6, 2)},
                           {{2, 4}, nullptr},
                           {{3, 3}, distinct_tile(3, 4)}};
  const std::vector<FuzzCase> corpus = {
      make_case("lz tile", inf_heavy_tile(16)),
      make_case("raw tile", distinct_tile(8, 1)),
      make_case("lz partition", sparse_part),
      make_case("raw partition", dense_part)};
  ASSERT_EQ(corpus[0].payload[0], 1);
  ASSERT_EQ(corpus[1].payload[0], 0);
  ASSERT_EQ(corpus[2].payload[0], 1);
  ASSERT_EQ(corpus[3].payload[0], 0);

  const std::uint64_t specials[] = {0,
                                    1,
                                    std::uint64_t{1} << 32,
                                    std::uint64_t{1} << 61,
                                    std::uint64_t{1} << 62,
                                    ~std::uint64_t{0}};
  gs::Rng rng(0xf022);
  // Every mutation of `base`: `random` bit flips, byte overwrites and
  // truncations, then each u64 field set to each special value and each
  // shape set to each special pair.
  auto mutations = [&](const ByteBuffer& base, int random,
                       const std::vector<std::size_t>& u64_fields,
                       const std::vector<std::size_t>& shape_fields) {
    std::vector<std::pair<std::string, ByteBuffer>> out;
    for (int r = 0; r < random; ++r) {
      ByteBuffer m = base;
      const std::size_t at = rng.uniform_u64(m.size());
      switch (r % 3) {
        case 0:
          m[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
          break;
        case 1:
          m[at] = static_cast<std::uint8_t>(rng());
          break;
        default:
          m.resize(at);
      }
      out.emplace_back("random #" + std::to_string(r), std::move(m));
    }
    for (std::size_t f : u64_fields) {
      for (std::uint64_t v : specials) {
        ByteBuffer m = base;
        set_u64(m, f, v);
        out.emplace_back("u64 @" + std::to_string(f) + " = " +
                             std::to_string(v),
                         std::move(m));
      }
    }
    for (std::size_t f : shape_fields) {
      for (std::uint64_t rows : specials) {
        for (std::uint64_t cols : specials) {
          ByteBuffer m = base;
          set_u64(m, f, rows);
          set_u64(m, f + 8, cols);
          out.emplace_back("shape @" + std::to_string(f) + " = " +
                               std::to_string(rows) + "x" +
                               std::to_string(cols),
                           std::move(m));
        }
      }
    }
    return out;
  };

  SpillStore store;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    const FuzzCase& fc = corpus[c];
    for (const auto& [what, m] :
         mutations(fc.payload, 1000, fc.u64_fields, fc.shape_fields)) {
      const std::string tag = fc.name + ", " + what;
      try {
        if (fc.item.index() == 0) {
          check_decoders<gs::TileRef<double>>(m, tag);
        } else {
          check_decoders<FuzzPartition>(m, tag);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "decoder threw (" << e.what() << "): " << tag;
      }
    }

    // The same payload as a spill file: the reader returns exactly the
    // payload written or nothing, whatever happens to the file.
    const BlockId id{1, static_cast<int>(c)};
    ASSERT_TRUE(store.write(id, 0, fc.payload));
    const auto path = spill_file(store, id, 0);
    const ByteBuffer file = read_file(path);
    for (const auto& [what, m] : mutations(file, 120, {8, 16}, {})) {
      write_file(path, m);
      try {
        const auto back = store.read(id, 0);
        EXPECT_TRUE(!back || *back == fc.payload)
            << "spill read accepted a damaged file: " << fc.name << ", "
            << what;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "spill read threw (" << e.what() << "): " << fc.name
                      << ", " << what;
      }
    }
  }
}

// ----------------------------------------------------------- demotion ladder

/// Fabricated tier delegates: "owner data" lives in `live`, serialization
/// shrinks a block to `ser_bytes`, spill files land in `disk`.
struct FakeTiers {
  using Key = std::pair<int, int>;
  static Key key(const BlockId& id) { return {id.rdd, id.partition}; }

  std::map<Key, bool> live;  // deserialized owner copies
  std::map<Key, std::vector<std::uint8_t>> disk;
  std::vector<StorageEvent> events;
  std::vector<BlockId> evicted;
  std::size_t ser_bytes = 10;
  bool refuse_spill = false;
  bool drop_spilled_payloads = false;  // simulates lost/corrupt spill files
  bool map_spills_to_node7 = false;
  int last_spill_read_node = -1;

  void install(BlockStore& store) {
    BlockStore::TierHooks h;
    h.encode = [this](const BlockId& id)
        -> std::optional<std::vector<std::uint8_t>> {
      auto it = live.find(key(id));
      if (it == live.end()) return std::nullopt;
      return payload_for(id.partition, ser_bytes);
    };
    h.restore = [this](const BlockId& id, const std::vector<std::uint8_t>&) {
      live[key(id)] = true;
      return true;
    };
    h.release = [this](const BlockId& id) { live.erase(key(id)); };
    h.spill_write = [this](const BlockId& id, int,
                           const std::vector<std::uint8_t>& payload) {
      if (refuse_spill) return false;
      disk[key(id)] = payload;
      return true;
    };
    h.spill_read = [this](const BlockId& id, int node)
        -> std::optional<std::vector<std::uint8_t>> {
      last_spill_read_node = node;
      if (drop_spilled_payloads) return std::nullopt;
      auto it = disk.find(key(id));
      if (it == disk.end()) return std::nullopt;
      return it->second;
    };
    h.spill_remove = [this](const BlockId& id, int) { disk.erase(key(id)); };
    if (map_spills_to_node7) {
      h.spill_node_of = [](int) { return 7; };
    }
    h.observer = [this](const StorageEvent& ev) { events.push_back(ev); };
    store.set_tier_hooks(std::move(h));
    store.set_evict_hook([this](const BlockId& id) { evicted.push_back(id); });
  }

  void add_live(const BlockId& id) { live[key(id)] = true; }

  int count(StorageEvent::Kind kind) const {
    int n = 0;
    for (const auto& ev : events) n += ev.kind == kind ? 1 : 0;
    return n;
  }
};

TEST(DemotionLadder, MemoryAndDiskWalksSerializedThenDisk) {
  BlockStore store(DiskSpec::ssd(120), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId a{1, 0}, b{1, 1}, c{1, 2};
  for (const auto& id : {a, b, c}) tiers.add_live(id);

  store.put_block(0, a, 100, 1, false, StorageLevel::kMemoryAndDisk);
  EXPECT_EQ(store.block_tier(a), StorageTier::kDeserialized);
  EXPECT_EQ(store.used(0), 100u);

  // Second block overflows: the LRW block compacts instead of dying.
  store.put_block(0, b, 100, 2, false, StorageLevel::kMemoryAndDisk);
  EXPECT_EQ(store.block_tier(a), StorageTier::kSerialized);
  EXPECT_EQ(store.used(0), 100u + tiers.ser_bytes);
  EXPECT_FALSE(tiers.live.count(FakeTiers::key(a)));  // owner copy released

  // Third block: a's ladder continues to disk, b compacts.
  store.put_block(0, c, 100, 3, false, StorageLevel::kMemoryAndDisk);
  EXPECT_EQ(store.block_tier(a), StorageTier::kDisk);
  EXPECT_EQ(store.block_tier(b), StorageTier::kSerialized);
  EXPECT_EQ(store.block_tier(c), StorageTier::kDeserialized);
  EXPECT_TRUE(tiers.disk.count(FakeTiers::key(a)));

  EXPECT_EQ(tiers.count(StorageEvent::kDemoteToSer), 2);
  EXPECT_EQ(tiers.count(StorageEvent::kSpillWrite), 1);
  EXPECT_EQ(store.evictions(), 0);  // everything demoted losslessly
  EXPECT_TRUE(tiers.evicted.empty());
}

TEST(DemotionLadder, ReadbackIsTransientAndKeepsTheTier) {
  BlockStore store(DiskSpec::ssd(120), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId a{1, 0}, b{1, 1}, c{1, 2};
  for (const auto& id : {a, b, c}) tiers.add_live(id);
  for (const auto& id : {a, b, c}) {
    store.put_block(0, id, 100, 1, false, StorageLevel::kMemoryAndDisk);
  }
  ASSERT_EQ(store.block_tier(a), StorageTier::kDisk);

  const std::size_t used_before = store.used(0);
  EXPECT_EQ(store.readback_block(a), BlockStore::Readback::kOk);
  EXPECT_TRUE(tiers.live.count(FakeTiers::key(a)));  // owner copy reinstalled
  EXPECT_EQ(store.block_tier(a), StorageTier::kDisk);  // spill file stays
  EXPECT_EQ(store.used(0), used_before);  // no memory charge change
  EXPECT_EQ(tiers.count(StorageEvent::kReadbackDisk), 1);

  EXPECT_EQ(store.readback_block(b), BlockStore::Readback::kOk);
  EXPECT_EQ(tiers.count(StorageEvent::kReadbackMem), 1);
  EXPECT_EQ(store.readback_block(BlockId{9, 9}), BlockStore::Readback::kNoBlock);
}

TEST(DemotionLadder, MemoryOnlyEvictsBecauseItsLadderIsEmpty) {
  BlockStore store(DiskSpec::ssd(120), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId a{1, 0}, b{1, 1};
  tiers.add_live(a);
  tiers.add_live(b);
  store.put_block(0, a, 100, 1, false, StorageLevel::kMemoryOnly);
  store.put_block(0, b, 100, 2, false, StorageLevel::kMemoryOnly);
  EXPECT_FALSE(store.has_block(a));
  EXPECT_TRUE(store.has_block(b));
  EXPECT_EQ(store.evictions(), 1);
  ASSERT_EQ(tiers.evicted.size(), 1u);
  EXPECT_EQ(tiers.evicted[0], a);
}

TEST(DemotionLadder, SerLevelsSerializeAtPut) {
  BlockStore store(DiskSpec::ssd(1000), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId a{1, 0};
  tiers.add_live(a);
  store.put_block(0, a, 100, 1, false, StorageLevel::kMemoryOnlySer);
  EXPECT_EQ(store.block_tier(a), StorageTier::kSerialized);
  EXPECT_EQ(store.used(0), tiers.ser_bytes);  // compact from the start
  EXPECT_FALSE(tiers.live.count(FakeTiers::key(a)));
}

TEST(DemotionLadder, SerLevelWithoutCodecDegradesToDeserialized) {
  BlockStore store(DiskSpec::ssd(1000), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId a{1, 0};  // NOT in tiers.live → encode returns nullopt
  store.put_block(0, a, 100, 1, false, StorageLevel::kMemoryOnlySer);
  EXPECT_EQ(store.block_tier(a), StorageTier::kDeserialized);
  EXPECT_EQ(store.used(0), 100u);
}

TEST(DemotionLadder, DiskOnlySpillsAtPutAndChargesNothing) {
  BlockStore store(DiskSpec::ssd(1000), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId a{1, 0};
  tiers.add_live(a);
  store.put_block(0, a, 100, 1, false, StorageLevel::kDiskOnly);
  EXPECT_EQ(store.block_tier(a), StorageTier::kDisk);
  EXPECT_EQ(store.used(0), 0u);
  EXPECT_TRUE(tiers.disk.count(FakeTiers::key(a)));
}

TEST(DemotionLadder, DiskOnlyPutDoesNotDrainOtherBlocksCharges) {
  // Regression: the DISK_ONLY spill at put refunds payload.size() from the
  // node's usage. If the fresh block was never charged, that refund drains
  // *other* blocks' charges — invisible on an empty node (clamp to zero) but
  // a permanent undercount on a busy one.
  BlockStore store(DiskSpec::ssd(1000), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId resident{1, 0}, spilled{1, 1};
  tiers.add_live(resident);
  tiers.add_live(spilled);
  store.put_block(0, resident, 100, 1, false, StorageLevel::kMemoryOnly);
  ASSERT_EQ(store.used(0), 100u);
  store.put_block(0, spilled, 100, 2, false, StorageLevel::kDiskOnly);
  EXPECT_EQ(store.block_tier(spilled), StorageTier::kDisk);
  EXPECT_EQ(store.used(0), 100u);  // resident block's charge is untouched
}

TEST(DemotionLadder, RefusedSpillDegradesGracefully) {
  // DISK_ONLY put with a refusing disk stays serialized in memory…
  BlockStore store(DiskSpec::ssd(120), 1);
  FakeTiers tiers;
  tiers.install(store);
  tiers.refuse_spill = true;
  const BlockId a{1, 0}, b{1, 1}, c{1, 2};
  for (const auto& id : {a, b, c}) tiers.add_live(id);
  store.put_block(0, a, 100, 1, false, StorageLevel::kDiskOnly);
  EXPECT_EQ(store.block_tier(a), StorageTier::kSerialized);
  EXPECT_GE(tiers.count(StorageEvent::kSpillRefused), 1);

  // …and under pressure a stuck ladder falls back to lossy eviction.
  store.put_block(0, b, 100, 2, false, StorageLevel::kMemoryAndDisk);
  store.put_block(0, c, 100, 3, false, StorageLevel::kMemoryAndDisk);
  EXPECT_GT(store.evictions(), 0);
  EXPECT_FALSE(store.has_block(a));
}

TEST(DemotionLadder, CorruptSpillReadbackDropsTheBlock) {
  BlockStore store(DiskSpec::ssd(120), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId a{1, 0}, b{1, 1}, c{1, 2};
  for (const auto& id : {a, b, c}) tiers.add_live(id);
  for (const auto& id : {a, b, c}) {
    store.put_block(0, id, 100, 1, false, StorageLevel::kMemoryAndDisk);
  }
  ASSERT_EQ(store.block_tier(a), StorageTier::kDisk);

  tiers.drop_spilled_payloads = true;  // spill file corrupt / torn / missing
  EXPECT_EQ(store.readback_block(a), BlockStore::Readback::kFailed);
  EXPECT_FALSE(store.has_block(a));  // dropped → caller heals via lineage
  EXPECT_EQ(tiers.count(StorageEvent::kCorruptSpill), 1);
}

TEST(DemotionLadder, SpillNodeMappingRoutesFilesToPhysicalNodes) {
  BlockStore store(DiskSpec::ssd(120), 1);
  FakeTiers tiers;
  tiers.map_spills_to_node7 = true;  // every executor slot → physical node 7
  tiers.install(store);
  const BlockId a{1, 0};
  tiers.add_live(a);
  store.put_block(0, a, 100, 1, false, StorageLevel::kDiskOnly);
  ASSERT_EQ(store.block_tier(a), StorageTier::kDisk);
  EXPECT_EQ(store.readback_block(a), BlockStore::Readback::kOk);
  EXPECT_EQ(tiers.last_spill_read_node, 7);  // read from the physical node
  bool saw_spill_on_7 = false;
  for (const auto& ev : tiers.events) {
    saw_spill_on_7 |= ev.kind == StorageEvent::kSpillWrite && ev.node == 7;
  }
  EXPECT_TRUE(saw_spill_on_7);
}

TEST(DemotionLadder, TierUsageCensusTracksResidency) {
  BlockStore store(DiskSpec::ssd(120), 1);
  FakeTiers tiers;
  tiers.install(store);
  const BlockId a{1, 0}, b{1, 1}, c{1, 2};
  for (const auto& id : {a, b, c}) tiers.add_live(id);
  for (const auto& id : {a, b, c}) {
    store.put_block(0, id, 100, 1, false, StorageLevel::kMemoryAndDisk);
  }
  const auto deser = store.tier_usage(0, StorageTier::kDeserialized);
  const auto ser = store.tier_usage(0, StorageTier::kSerialized);
  const auto disk = store.tier_usage(0, StorageTier::kDisk);
  EXPECT_EQ(deser.blocks, 1);
  EXPECT_EQ(deser.bytes, 100u);
  EXPECT_EQ(ser.blocks, 1);
  EXPECT_EQ(ser.bytes, tiers.ser_bytes);
  EXPECT_EQ(disk.blocks, 1);
  EXPECT_EQ(disk.bytes, tiers.ser_bytes);  // file holds the compact payload
}

// ----------------------------------------------------- block-store contract

// A seeded random walk over the named-block API under a cap that forces
// demotion, spill and eviction, checked after every operation against a
// plain model: which ids are live, on which node, in which tier, with which
// checksum, and in which write order. The model learns about demotions,
// spills, failed readbacks and evictions only from the observer events and
// the evict hook, so the test pins what the store promises, not how it lays
// its blocks out.
TEST(BlockStoreContract, RandomOperationsMatchAPlainModel) {
  constexpr int kNodes = 2;
  constexpr int kRdds = 3;
  constexpr int kParts = 8;
  constexpr int kOps = 2000;
  constexpr StorageLevel kLevels[] = {
      StorageLevel::kMemoryOnly, StorageLevel::kMemoryOnlySer,
      StorageLevel::kMemoryAndDisk, StorageLevel::kMemoryAndDiskSer,
      StorageLevel::kDiskOnly};
  BlockStore store(DiskSpec::ssd(400), kNodes);
  FakeTiers tiers;
  tiers.install(store);
  // Partitions 0 and 4 may demote but never be evicted, so a node can get
  // stuck and refuse a put.
  auto protected_block = [](const BlockId& id) { return id.partition % 4 == 0; };
  store.set_eviction_filter(
      [&](const BlockId& id) { return !protected_block(id); });

  struct Live {
    int node = 0;
    std::uint64_t stamp = 0;
    std::uint64_t checksum = 0;
    std::size_t bytes = 0;
    bool pinned = false;
    StorageTier tier = StorageTier::kDeserialized;
  };
  std::map<FakeTiers::Key, Live> model;
  std::uint64_t clock = 0;
  std::size_t events_seen = 0, evictions_seen = 0;
  std::map<StorageEvent::Kind, int> event_counts;
  int capacity_errors = 0;

  auto charge = [&](const Live& b) -> std::size_t {
    switch (b.tier) {
      case StorageTier::kDeserialized: return b.bytes;
      case StorageTier::kSerialized: return tiers.ser_bytes;
      case StorageTier::kDisk: return 0;
    }
    return 0;
  };
  // Fold the events and evictions the last operation reported into the
  // model, in the order the store delivered them.
  auto absorb = [&] {
    for (; events_seen < tiers.events.size(); ++events_seen) {
      const StorageEvent& ev = tiers.events[events_seen];
      ++event_counts[ev.kind];
      auto it = model.find(FakeTiers::key(ev.id));
      ASSERT_NE(it, model.end()) << "event for a block that is not live";
      switch (ev.kind) {
        case StorageEvent::kDemoteToSer:
          it->second.tier = StorageTier::kSerialized;
          break;
        case StorageEvent::kSpillWrite:
          it->second.tier = StorageTier::kDisk;
          break;
        case StorageEvent::kCorruptSpill: model.erase(it); break;
        default: break;
      }
    }
    for (; evictions_seen < tiers.evicted.size(); ++evictions_seen) {
      const BlockId& id = tiers.evicted[evictions_seen];
      auto it = model.find(FakeTiers::key(id));
      ASSERT_NE(it, model.end()) << "evicted a block that is not live";
      EXPECT_FALSE(it->second.pinned) << "evicted a pinned block";
      EXPECT_FALSE(protected_block(id)) << "evicted a protected block";
      EXPECT_NE(it->second.tier, StorageTier::kDisk);
      model.erase(it);
    }
  };
  auto check = [&](int op) {
    ASSERT_EQ(store.num_blocks(), model.size()) << "op " << op;
    for (int r = 0; r < kRdds; ++r) {
      for (int p = 0; p < kParts; ++p) {
        const BlockId id{r, p};
        auto it = model.find(FakeTiers::key(id));
        const bool live = it != model.end();
        ASSERT_EQ(store.has_block(id), live) << "op " << op;
        ASSERT_EQ(store.block_tier(id),
                  live ? std::optional(it->second.tier) : std::nullopt)
            << "op " << op << " block (" << r << "," << p << ")";
        ASSERT_EQ(store.verify_block(id, live ? it->second.checksum : 0), live)
            << "op " << op;
        // A spill file exists exactly for the disk-tier blocks.
        ASSERT_EQ(tiers.disk.count(FakeTiers::key(id)) == 1,
                  live && it->second.tier == StorageTier::kDisk)
            << "op " << op;
      }
    }
    for (int n = 0; n < kNodes; ++n) {
      std::vector<std::pair<std::uint64_t, BlockId>> on_node;
      std::size_t expect_used = 0;
      for (const auto& [key, b] : model) {
        if (b.node != n) continue;
        on_node.push_back({b.stamp, BlockId{key.first, key.second}});
        expect_used += charge(b);
      }
      std::sort(on_node.begin(), on_node.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      std::vector<BlockId> expect_order;
      for (const auto& [stamp, id] : on_node) expect_order.push_back(id);
      ASSERT_EQ(store.blocks_on(n), expect_order) << "op " << op;
      ASSERT_EQ(store.used(n), expect_used) << "op " << op;
      ASSERT_EQ(store.used(n),
                store.tier_usage(n, StorageTier::kDeserialized).bytes +
                    store.tier_usage(n, StorageTier::kSerialized).bytes)
          << "op " << op;
    }
    ASSERT_EQ(store.evictions(), static_cast<int>(tiers.evicted.size()));
  };

  gs::Rng rng(20261017);
  auto pick_id = [&] {
    return BlockId{static_cast<int>(rng.uniform_u64(kRdds)),
                   static_cast<int>(rng.uniform_u64(kParts))};
  };
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t roll = rng.uniform_u64(100);
    if (roll < 50) {  // put or overwrite
      const BlockId id = pick_id();
      const int node = static_cast<int>(rng.uniform_u64(kNodes));
      const StorageLevel level = kLevels[rng.uniform_u64(5)];
      const bool pinned = rng.uniform_u64(10) == 0;
      const std::size_t bytes = 20 + rng.uniform_u64(140);
      const std::uint64_t sum = rng();
      tiers.add_live(id);
      model.erase(FakeTiers::key(id));  // an overwrite drops the old block
      Live b;
      b.node = node;
      b.stamp = ++clock;
      b.checksum = sum;
      b.bytes = bytes;
      b.pinned = pinned;
      b.tier = level_serializes_at_put(level) ? StorageTier::kSerialized
                                              : StorageTier::kDeserialized;
      model[FakeTiers::key(id)] = b;
      try {
        store.put_block(node, id, bytes, sum, pinned, level);
        absorb();
      } catch (const gs::CapacityError&) {
        ++capacity_errors;
        absorb();
        model.erase(FakeTiers::key(id));  // a refused put registers nothing
      }
    } else if (roll < 58) {
      const BlockId id = pick_id();
      store.remove_block(id);
      model.erase(FakeTiers::key(id));
    } else if (roll < 61) {
      const int rdd = static_cast<int>(rng.uniform_u64(kRdds));
      std::map<FakeTiers::Key, Live> others;
      for (const auto& [key, b] : model) {
        if (key.first != rdd) others.emplace(key, b);
      }
      std::vector<std::size_t> used_before;
      for (int n = 0; n < kNodes; ++n) used_before.push_back(store.used(n));
      store.remove_rdd_blocks(rdd);
      std::erase_if(model, [&](const auto& kv) { return kv.first.first == rdd; });
      for (const auto& [key, b] : others) {
        ASSERT_EQ(store.block_tier({key.first, key.second}), b.tier);
      }
      for (int n = 0; n < kNodes; ++n) {
        std::size_t kept = 0;
        for (const auto& [key, b] : others) kept += b.node == n ? charge(b) : 0;
        ASSERT_EQ(store.used(n), kept);
        ASSERT_LE(store.used(n), used_before[static_cast<std::size_t>(n)]);
      }
    } else if (roll < 71) {  // corrupt, then verify
      const BlockId id = pick_id();
      store.corrupt_block(id);
      auto it = model.find(FakeTiers::key(id));
      if (it != model.end()) {
        EXPECT_FALSE(store.verify_block(id, it->second.checksum));
        it->second.checksum ^= 0xbad0bad0bad0bad0ULL;
      }
    } else if (roll < 95) {
      const BlockId id = pick_id();
      tiers.drop_spilled_payloads = rng.uniform_u64(4) == 0;
      auto it = model.find(FakeTiers::key(id));
      const auto expect =
          it == model.end() ? BlockStore::Readback::kNoBlock
          : it->second.tier == StorageTier::kDisk && tiers.drop_spilled_payloads
              ? BlockStore::Readback::kFailed
              : BlockStore::Readback::kOk;
      EXPECT_EQ(store.readback_block(id), expect) << "op " << op;
      absorb();
      tiers.drop_spilled_payloads = false;
    } else {
      tiers.refuse_spill = !tiers.refuse_spill;
    }
    check(op);
    if (HasFatalFailure()) return;
  }
  // The walk reached every rung of the ladder and the lossy path.
  EXPECT_GT(event_counts[StorageEvent::kDemoteToSer], 0);
  EXPECT_GT(event_counts[StorageEvent::kSpillWrite], 0);
  EXPECT_GT(event_counts[StorageEvent::kSpillRefused], 0);
  EXPECT_GT(event_counts[StorageEvent::kReadbackMem], 0);
  EXPECT_GT(event_counts[StorageEvent::kReadbackDisk], 0);
  EXPECT_GT(event_counts[StorageEvent::kCorruptSpill], 0);
  EXPECT_GT(store.evictions(), 0);
  EXPECT_GT(capacity_errors, 0);
}

// ----------------------------------------------------------- out-of-core

constexpr double kKiB = 1024.0;

template <typename Spec>
auto run_solve(const gs::Matrix<typename Spec::value_type>& input,
               gepspark::SolverOptions opt,
               double cap_bytes, const ChaosPlan* plan, RecoveryCounters* rc,
               std::vector<std::string>* markers = nullptr,
               int physical_threads = 0, int nodes = 4) {
  auto cfg = ClusterConfig::local(nodes, 2);
  if (cap_bytes > 0.0) cfg.executor_mem_bytes = cap_bytes;
  if (physical_threads > 0) cfg.physical_threads = physical_threads;
  SparkContext sc(cfg);
  if (plan != nullptr) sc.set_chaos_plan(*plan);
  auto out = gepspark::solve_gep<Spec>(sc, input, opt);
  if (rc != nullptr) *rc = sc.metrics().recovery();
  if (markers != nullptr) {
    for (const auto& m : sc.timeline().markers()) markers->push_back(m.name);
  }
  return std::move(out.matrix);
}

TEST(OutOfCore, CappedFwSolveBitIdenticalWithSpillTraffic) {
  // The acceptance run: FW under a hard per-executor cap far below the
  // working set. Tiles must spill to real files and read back, and the
  // result must match the uncapped solve bit for bit.
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(256, 77);
  gepspark::SolverOptions opt;
  opt.block_size = 64;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.storage_level = StorageLevel::kMemoryAndDisk;

  auto expected = run_solve<gs::FloydWarshallSpec>(input, opt, 0.0, nullptr,
                                                   nullptr);
  RecoveryCounters rc;
  std::vector<std::string> markers;
  auto got = run_solve<gs::FloydWarshallSpec>(input, opt, 64 * kKiB, nullptr,
                                              &rc, &markers);
  EXPECT_TRUE(got == expected);
  EXPECT_GT(rc.spilled_blocks, 0);
  EXPECT_GT(rc.spilled_bytes, 0u);
  EXPECT_GT(rc.spill_readbacks, 0);
  EXPECT_GT(rc.spill_readback_bytes, 0u);
  EXPECT_EQ(rc.corrupt_spills, 0);  // no chaos: every file verifies

  bool saw_spill = false, saw_readback = false;
  for (const auto& m : markers) {
    saw_spill |= m.rfind("spill x", 0) == 0;
    saw_readback |= m.rfind("spill-readback x", 0) == 0;
  }
  EXPECT_TRUE(saw_spill);
  EXPECT_TRUE(saw_readback);
}

TEST(OutOfCore, CappedGeSolveBitIdenticalOnCollectBroadcast) {
  auto input = gs::testutil::random_input<gs::GaussianEliminationSpec>(256, 42);
  gepspark::SolverOptions opt;
  opt.block_size = 64;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.storage_level = StorageLevel::kMemoryAndDiskSer;

  auto expected = run_solve<gs::GaussianEliminationSpec>(input, opt, 0.0,
                                                         nullptr, nullptr);
  RecoveryCounters rc;
  auto got = run_solve<gs::GaussianEliminationSpec>(input, opt, 64 * kKiB,
                                                    nullptr, &rc);
  EXPECT_TRUE(got == expected);
  EXPECT_GT(rc.spilled_blocks, 0);
  EXPECT_GT(rc.spill_readbacks, 0);
}

TEST(OutOfCore, EveryStorageLevelAgreesWithMemoryOnly) {
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(128, 5);
  gepspark::SolverOptions opt;
  opt.block_size = 32;

  opt.storage_level = StorageLevel::kMemoryOnly;
  opt.strategy = gepspark::Strategy::kInMemory;
  auto expected = run_solve<gs::FloydWarshallSpec>(input, opt, 0.0, nullptr,
                                                   nullptr);
  EXPECT_LE(gs::max_abs_diff(
                expected,
                gs::testutil::reference_solution<gs::FloydWarshallSpec>(input)),
            1e-9);

  for (auto level :
       {StorageLevel::kMemoryOnly, StorageLevel::kMemoryOnlySer,
        StorageLevel::kMemoryAndDisk, StorageLevel::kMemoryAndDiskSer,
        StorageLevel::kDiskOnly}) {
    for (auto strategy : {gepspark::Strategy::kInMemory,
                          gepspark::Strategy::kCollectBroadcast}) {
      opt.storage_level = level;
      opt.strategy = strategy;
      RecoveryCounters rc;
      auto got = run_solve<gs::FloydWarshallSpec>(input, opt, 0.0, nullptr, &rc);
      EXPECT_TRUE(got == expected)
          << storage_level_name(level) << " " << gepspark::strategy_name(strategy);
      if (level == StorageLevel::kDiskOnly) {
        EXPECT_GT(rc.spilled_blocks, 0) << gepspark::strategy_name(strategy);
      }
      if (strategy == gepspark::Strategy::kInMemory &&
          level_serializes_at_put(level)) {
        // Serialized-at-put blocks must be read back by the next iteration.
        EXPECT_GT(rc.spill_readbacks, 0) << storage_level_name(level);
      }
    }
  }
}

TEST(OutOfCore, DiskEnabledLevelsSurviveHardCaps) {
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(128, 5);
  gepspark::SolverOptions opt;
  opt.block_size = 32;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.storage_level = StorageLevel::kMemoryOnly;
  auto expected = run_solve<gs::FloydWarshallSpec>(input, opt, 0.0, nullptr,
                                                   nullptr);

  for (auto level : {StorageLevel::kMemoryAndDisk,
                     StorageLevel::kMemoryAndDiskSer, StorageLevel::kDiskOnly}) {
    opt.storage_level = level;
    RecoveryCounters rc;
    auto got =
        run_solve<gs::FloydWarshallSpec>(input, opt, 24 * kKiB, nullptr, &rc);
    EXPECT_TRUE(got == expected) << storage_level_name(level);
    EXPECT_GT(rc.spilled_blocks, 0) << storage_level_name(level);
    EXPECT_GT(rc.spill_readbacks, 0) << storage_level_name(level);
  }
}

TEST(OutOfCore, DataflowSchedulerSpillsCarriedTiles) {
  // checkpoint_interval 0 keeps carried tiles in the executor store (an
  // every-iteration checkpoint would pin them in shared storage instead), so
  // the dataflow engine's BlockSource path gets real demotion pressure.
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(128, 9);
  gepspark::SolverOptions opt;
  opt.block_size = 32;
  opt.strategy = gepspark::Strategy::kInMemory;
  auto expected = run_solve<gs::FloydWarshallSpec>(input, opt, 0.0, nullptr,
                                                   nullptr);

  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.checkpoint_interval = 0;
  opt.storage_level = StorageLevel::kMemoryAndDisk;
  RecoveryCounters rc;
  auto got =
      run_solve<gs::FloydWarshallSpec>(input, opt, 24 * kKiB, nullptr, &rc);
  EXPECT_TRUE(got == expected);
  EXPECT_GT(rc.spilled_blocks, 0);
  EXPECT_GT(rc.spill_readbacks, 0);
}

// ----------------------------------------------------------- disk chaos

/// Executor kills plus every disk fault at once: guaranteed spill corruption
/// and torn writes (up to their budgets), a 50% ENOSPC node, and slow spill
/// devices.
ChaosPlan disk_chaos(std::uint64_t seed) {
  ChaosPlan p;
  p.task_failure_prob = 0.15;
  p.max_task_attempts = 12;
  p.executor_kill_prob = 0.5;
  p.max_executor_kills = 1;
  p.spill_corruption_prob = 1.0;
  p.max_spill_corruptions = 2;
  p.torn_write_prob = 1.0;
  p.max_torn_writes = 2;
  p.enospc_prob = 0.5;
  p.max_enospc_nodes = 1;
  p.slow_spill_prob = 0.5;
  p.slow_spill_factor = 4.0;
  p.seed = seed;
  return p;
}

TEST(DiskChaosSeed, NewTagsSeparateDecisionStreams) {
  const std::uint64_t s = 42;
  const std::uint64_t tags[] = {kChaosTask, kChaosSpillCorrupt, kChaosTornWrite,
                                kChaosEnospc, kChaosSlowSpill};
  for (std::size_t i = 0; i < std::size(tags); ++i) {
    for (std::size_t j = i + 1; j < std::size(tags); ++j) {
      EXPECT_NE(chaos_event_seed(s, tags[i], 3, 1, 0),
                chaos_event_seed(s, tags[j], 3, 1, 0));
    }
  }
  // Pure in the whole tuple: replaying an attempt replays the decision.
  EXPECT_EQ(chaos_event_seed(s, kChaosSpillCorrupt, 3, 1, 2),
            chaos_event_seed(s, kChaosSpillCorrupt, 3, 1, 2));
  EXPECT_NE(chaos_event_seed(s, kChaosSpillCorrupt, 3, 1, 2),
            chaos_event_seed(s, kChaosSpillCorrupt, 3, 1, 3));
}

template <typename Spec>
void expect_bit_identical_under_disk_chaos(gepspark::Strategy strategy,
                                           gepspark::ScheduleMode schedule,
                                           std::uint64_t seed,
                                           RecoveryCounters& total) {
  auto input = gs::testutil::random_input<Spec>(40, 300 + seed);
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = strategy;
  opt.schedule = schedule;
  opt.storage_level = StorageLevel::kMemoryAndDisk;
  if (schedule == gepspark::ScheduleMode::kDataflow) {
    opt.checkpoint_interval = 0;  // keep carried tiles on the spill ladder
  }

  auto expected = run_solve<Spec>(input, opt, 0.0, nullptr, nullptr,
                                  /*markers=*/nullptr, /*physical_threads=*/0,
                                  /*nodes=*/3);
  const ChaosPlan plan = disk_chaos(seed);
  RecoveryCounters rc;
  auto got = run_solve<Spec>(input, opt, 4 * kKiB, &plan, &rc,
                             /*markers=*/nullptr, /*physical_threads=*/0,
                             /*nodes=*/3);
  EXPECT_TRUE(got == expected)
      << gepspark::strategy_name(strategy) << " "
      << gepspark::schedule_name(schedule) << " seed " << seed;

  total.spilled_blocks += rc.spilled_blocks;
  total.spill_readbacks += rc.spill_readbacks;
  total.corrupt_spills += rc.corrupt_spills;
  total.spill_write_failures += rc.spill_write_failures;
  total.executor_kills += rc.executor_kills;
  total.task_failures += rc.task_failures;
  total.partitions_recomputed += rc.partitions_recomputed;
}

TEST(DiskChaos, GepSolvesBitIdenticalUnderDiskFaults) {
  // FW / GE / TC × IM / CB × barrier / dataflow, memory-capped, with the full
  // disk-fault matrix on top of kills and flaky tasks. Every result must
  // equal the fault-free uncapped run, and the disk-fault machinery must
  // demonstrably fire somewhere in the sweep.
  RecoveryCounters total;
  for (auto schedule : {gepspark::ScheduleMode::kBarrier,
                        gepspark::ScheduleMode::kDataflow}) {
    for (auto strategy : {gepspark::Strategy::kInMemory,
                          gepspark::Strategy::kCollectBroadcast}) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        expect_bit_identical_under_disk_chaos<gs::FloydWarshallSpec>(
            strategy, schedule, seed, total);
        expect_bit_identical_under_disk_chaos<gs::GaussianEliminationSpec>(
            strategy, schedule, seed, total);
        expect_bit_identical_under_disk_chaos<gs::TransitiveClosureSpec>(
            strategy, schedule, seed, total);
      }
    }
  }
  EXPECT_GT(total.spilled_blocks, 0);
  EXPECT_GT(total.spill_readbacks, 0);
  EXPECT_GT(total.corrupt_spills, 0);  // corruption hit and was healed
  EXPECT_GT(total.executor_kills, 0);
  EXPECT_GT(total.task_failures, 0);
  EXPECT_GT(total.partitions_recomputed, 0);
}

TEST(DiskChaos, CorruptSpillsHealFromLineageWithMarkers) {
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(64, 17);
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.storage_level = StorageLevel::kMemoryAndDisk;
  auto expected = run_solve<gs::FloydWarshallSpec>(input, opt, 0.0, nullptr,
                                                   nullptr);

  ChaosPlan plan;
  plan.spill_corruption_prob = 1.0;
  plan.max_spill_corruptions = 2;
  plan.torn_write_prob = 1.0;
  plan.max_torn_writes = 2;
  plan.seed = 23;
  RecoveryCounters rc;
  std::vector<std::string> markers;
  auto got =
      run_solve<gs::FloydWarshallSpec>(input, opt, 8 * kKiB, &plan, &rc, &markers);
  EXPECT_TRUE(got == expected);
  // Two corruption budgets of two: every damaged file must be detected (by
  // checksum or length), dropped, and recomputed — never decoded silently.
  EXPECT_EQ(rc.corrupt_spills, 4);
  EXPECT_GT(rc.partitions_recomputed, 0);
  bool saw_corrupt_marker = false;
  for (const auto& m : markers) saw_corrupt_marker |= m == "spill-corrupt";
  EXPECT_TRUE(saw_corrupt_marker);
}

TEST(DiskChaos, EnospcRefusalsDegradeToEvictionNotWrongData) {
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(64, 33);
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.storage_level = StorageLevel::kMemoryAndDisk;
  auto expected = run_solve<gs::FloydWarshallSpec>(input, opt, 0.0, nullptr,
                                                   nullptr);

  ChaosPlan plan;
  plan.enospc_prob = 1.0;  // every node's spill volume is full
  plan.max_enospc_nodes = 4;
  plan.seed = 3;
  RecoveryCounters rc;
  auto got = run_solve<gs::FloydWarshallSpec>(input, opt, 8 * kKiB, &plan, &rc);
  EXPECT_TRUE(got == expected);
  EXPECT_GT(rc.spill_write_failures, 0);
  EXPECT_EQ(rc.spilled_blocks, 0);  // nothing ever landed on disk
}

TEST(DiskChaos, SpillFilesSurviveExecutorKills) {
  // Spill files live in per-physical-node directories, so a killed executor
  // takes its memory but not its disk: the capped solve keeps its spilled
  // tiles and still matches the uncapped run.
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(128, 21);
  gepspark::SolverOptions opt;
  opt.block_size = 32;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.storage_level = StorageLevel::kMemoryAndDisk;
  auto expected = run_solve<gs::FloydWarshallSpec>(input, opt, 0.0, nullptr,
                                                   nullptr);

  ChaosPlan plan;
  plan.executor_kill_prob = 1.0;
  plan.max_executor_kills = 2;
  plan.seed = 29;
  RecoveryCounters rc;
  auto got =
      run_solve<gs::FloydWarshallSpec>(input, opt, 24 * kKiB, &plan, &rc);
  EXPECT_TRUE(got == expected);
  EXPECT_EQ(rc.executor_kills, 2);
  EXPECT_GT(rc.spilled_blocks, 0);
  EXPECT_GT(rc.spill_readbacks, 0);  // spilled tiles were read back post-kill
}

TEST(DiskChaos, StrassenBatchedBackendBitIdenticalOnDiskTiersUnderChaos) {
  // Coverage gap: --strassen-d was exercised under chaos and the disk tiers
  // were exercised under chaos, but never TOGETHER. The Strassen split's
  // panel buffers ride the same spill ladder as plain tiles, so a capped
  // disk-faulted run must still match the fault-free uncapped batched run
  // bit for bit — on both schedulers and both disk-backed levels.
  auto input = gs::testutil::random_input<gs::GaussianEliminationSpec>(64, 7);
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = gepspark::Strategy::kInMemory;
  opt.fused_d = true;
  opt.kernel.strassen_d = true;
  opt.storage_level = StorageLevel::kMemoryAndDisk;
  auto expected = run_solve<gs::GaussianEliminationSpec>(input, opt, 0.0,
                                                         nullptr, nullptr);

  RecoveryCounters total;
  for (auto schedule : {gepspark::ScheduleMode::kBarrier,
                        gepspark::ScheduleMode::kDataflow}) {
    for (auto level : {StorageLevel::kMemoryAndDisk,
                       StorageLevel::kMemoryAndDiskSer}) {
      opt.schedule = schedule;
      opt.storage_level = level;
      opt.checkpoint_interval =
          schedule == gepspark::ScheduleMode::kDataflow ? 0 : 1;
      const ChaosPlan plan = disk_chaos(47);
      RecoveryCounters rc;
      auto got = run_solve<gs::GaussianEliminationSpec>(input, opt, 8 * kKiB,
                                                        &plan, &rc);
      EXPECT_TRUE(got == expected)
          << gepspark::schedule_name(schedule) << " "
          << storage_level_name(level);
      total.spilled_blocks += rc.spilled_blocks;
      total.spill_readbacks += rc.spill_readbacks;
      total.corrupt_spills += rc.corrupt_spills;
      total.task_failures += rc.task_failures;
    }
  }
  EXPECT_GT(total.spilled_blocks, 0);
  EXPECT_GT(total.spill_readbacks, 0);
  EXPECT_GT(total.corrupt_spills, 0);
  EXPECT_GT(total.task_failures, 0);
}

TEST(DiskChaos, FaultDecisionsIndependentOfPhysicalThreads) {
  // Disk-fault decisions are pure in (seed, tag, rdd, partition, attempt) —
  // never in scheduling order — so radically different host parallelism must
  // produce the same result and the same driver-side fault counts.
  auto run = [](int threads, RecoveryCounters& rc) {
    auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(64, 55);
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.strategy = gepspark::Strategy::kInMemory;
    opt.storage_level = StorageLevel::kMemoryAndDisk;
    const ChaosPlan plan = disk_chaos(13);
    return run_solve<gs::FloydWarshallSpec>(input, opt, 8 * kKiB, &plan, &rc,
                                            nullptr, threads);
  };
  RecoveryCounters serial, wide;
  auto a = run(1, serial);
  auto b = run(8, wide);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(serial.spilled_blocks, wide.spilled_blocks);
  EXPECT_EQ(serial.corrupt_spills, wide.corrupt_spills);
  EXPECT_EQ(serial.spill_write_failures, wide.spill_write_failures);
  EXPECT_EQ(serial.task_failures, wide.task_failures);
}

}  // namespace
