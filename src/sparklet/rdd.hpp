// rdd.hpp — typed, lazily-evaluated RDDs with Spark's transformation algebra.
//
// Supported (the subset the paper's Listings 1 & 2 rely on, plus the usual
// conveniences): map, flatMap, filter, mapPartitions, mapValues, union,
// partitionBy, groupByKey, combineByKey, reduceByKey, keys, values; actions
// collect, count, reduce, first, take; plus checkpoint() to truncate lineage
// in iterative jobs (the drivers call it once per outer iteration, exactly
// where Spark programs checkpoint or the lineage would grow with r).
//
// Semantics preserved from Spark that the paper's analysis depends on:
//   * wide vs narrow dependencies — partitionBy/groupByKey/combineByKey
//     shuffle unless the input is already partitioned equivalently
//     (paper footnote 1); union and map drop the partitioner, filter and
//     mapValues keep it;
//   * one task per partition, stages cut at wide dependencies;
//   * shuffle volume accounting through local-disk staging with capacity
//     limits (the paper's SSD-overflow failure mode).
#pragma once

#include <algorithm>
#include <atomic>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sparklet/context.hpp"
#include "sparklet/item_bytes.hpp"
#include "sparklet/item_codec.hpp"
#include "sparklet/rdd_base.hpp"
#include "support/format.hpp"

namespace sparklet {

namespace detail {

template <typename T>
struct is_pair : std::false_type {};
template <typename A, typename B>
struct is_pair<std::pair<A, B>> : std::true_type {};

template <typename T>
std::size_t bytes_of(const T& x) {
  using sparklet::item_bytes;
  return item_bytes(x);  // unqualified: ADL finds user overloads
}

/// Hash functor bridging key types to sparklet::key_hash / ADL overloads.
template <typename K>
struct KeyHashF {
  std::size_t operator()(const K& k) const {
    using sparklet::key_hash;
    return static_cast<std::size_t>(key_hash(k));
  }
};

template <typename K>
std::uint64_t hash_key(const K& k) {
  using sparklet::key_hash;
  return key_hash(k);
}

}  // namespace detail

template <typename T>
class RDD;

template <typename T>
RDD<T> union_all(std::vector<RDD<T>> rdds, std::string label = "unionAll");

/// Concrete lineage node holding (once materialized) the partitioned data.
template <typename T>
class TypedRdd final : public RddBase {
 public:
  using ComputeFn = std::function<std::vector<T>(int)>;
  using BulkFn = std::function<void(TypedRdd<T>&)>;

  /// Narrow node: partition p is computed independently by `compute(p)`.
  static std::shared_ptr<TypedRdd> make_narrow(
      SparkContext* ctx, std::string label, int num_partitions,
      std::vector<std::shared_ptr<RddBase>> parents, PartitionerPtr part,
      ComputeFn compute) {
    auto n = std::shared_ptr<TypedRdd>(
        new TypedRdd(ctx, std::move(label), num_partitions, /*wide=*/false,
                     std::move(parents), std::move(part)));
    n->compute_ = std::move(compute);
    return n;
  }

  /// Wide node: `bulk` computes all partitions at once (shuffles).
  static std::shared_ptr<TypedRdd> make_wide(
      SparkContext* ctx, std::string label, int num_partitions,
      std::vector<std::shared_ptr<RddBase>> parents, PartitionerPtr part,
      BulkFn bulk) {
    auto n = std::shared_ptr<TypedRdd>(
        new TypedRdd(ctx, std::move(label), num_partitions, /*wide=*/true,
                     std::move(parents), std::move(part)));
    n->bulk_ = std::move(bulk);
    return n;
  }

  const std::vector<T>& partition(int p) const {
    GS_CHECK_MSG(materialized(), "partition() on unmaterialized RDD " + label());
    if (!avail_acquire(p)) {
      // Maybe only demoted (serialized/disk tier), not lost: a readback
      // restores the exact bytes from the payload or spill file.
      if (!ctx_->try_block_readback({id(), p}) || !avail_acquire(p)) {
        // The cached data is gone (executor kill, eviction, injected fetch
        // failure). The scheduler catches this and regenerates via lineage.
        throw gs::FetchFailedError(gs::strfmt(
            "partition %d of RDD %d (%s) is lost", p, id(), label().c_str()));
      }
    }
    return parts_[static_cast<std::size_t>(p)];
  }

  std::vector<T>& partition_mutable(int p) {
    return parts_[static_cast<std::size_t>(p)];
  }

  void do_materialize() override {
    parts_.assign(static_cast<std::size_t>(num_partitions()), {});
    available_.assign(static_cast<std::size_t>(num_partitions()), 0);
    if (bulk_) {
      bulk_(*this);
    } else {
      GS_CHECK_MSG(static_cast<bool>(compute_), "node has no compute function");
      ctx_->run_node_tasks(
          *this, [this](int p) {
            parts_[static_cast<std::size_t>(p)] = compute_(p);
          });
    }
    bytes_.resize(parts_.size());
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      bytes_[p] = range_bytes(parts_[p]);
    }
    available_.assign(parts_.size(), 1);
    mark_materialized();
    // NOTE: compute_/bulk_ are retained — they are this node's lineage, the
    // only way to regenerate lost partitions. checkpoint() releases them.
  }

  std::size_t partition_bytes(int p) const override {
    GS_CHECK(materialized());
    return bytes_[static_cast<std::size_t>(p)];
  }

  std::size_t partition_items(int p) const override {
    return parts_[static_cast<std::size_t>(p)].size();
  }

  void unpersist() override {
    const std::size_t n = parts_.size();
    parts_.assign(n, {});
    bytes_.assign(n, 0);
    available_.assign(n, 0);
  }

  bool partition_available(int p) const override {
    return materialized() && available_[static_cast<std::size_t>(p)] != 0;
  }

  void drop_partition(int p) override {
    if (!materialized() || !available_[static_cast<std::size_t>(p)]) return;
    std::vector<T>().swap(parts_[static_cast<std::size_t>(p)]);
    available_[static_cast<std::size_t>(p)] = 0;
  }

  bool recomputable() const override {
    return static_cast<bool>(compute_) || static_cast<bool>(bulk_);
  }

  int recompute_missing() override {
    if (!materialized()) return 0;
    std::vector<int> missing;
    for (int p = 0; p < num_partitions(); ++p) {
      if (avail_acquire(p)) continue;
      // Readback first: a demoted block restores losslessly from its payload
      // or spill file. Only genuinely lost (or corrupt-spill) partitions
      // fall through to lineage recomputation.
      if (ctx_->try_block_readback({id(), p}) && avail_acquire(p)) continue;
      missing.push_back(p);
    }
    if (missing.empty()) return 0;
    GS_THROW_IF(!recomputable(), gs::JobAbortedError,
                gs::strfmt("%zu partition(s) of RDD %d (%s) lost beyond the "
                           "lineage horizon — checkpointed data is gone",
                           missing.size(), id(), label().c_str()));
    if (bulk_) {
      // A wide node's partitions are coupled through the shuffle: resubmit
      // the whole map/reduce pass (Spark regenerates the map outputs, which
      // means rerunning the parent-stage tasks).
      parts_.assign(static_cast<std::size_t>(num_partitions()), {});
      available_.assign(static_cast<std::size_t>(num_partitions()), 0);
      bulk_(*this);
      for (std::size_t p = 0; p < parts_.size(); ++p) {
        bytes_[p] = range_bytes(parts_[p]);
      }
      available_.assign(parts_.size(), 1);
      return num_partitions();
    }
    ctx_->run_recovery_tasks(*this, missing, [this](int p) {
      parts_[static_cast<std::size_t>(p)] = compute_(p);
    });
    for (int p : missing) {
      bytes_[static_cast<std::size_t>(p)] =
          range_bytes(parts_[static_cast<std::size_t>(p)]);
      available_[static_cast<std::size_t>(p)] = 1;
    }
    return static_cast<int>(missing.size());
  }

  std::uint64_t partition_checksum(int p) const override {
    // Structural fingerprint (identity + shape). The simulation never
    // scrambles payload bytes, so corruption is injected by flipping the
    // *stored* checksum; content hashing is not required for detection.
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t field :
         {static_cast<std::uint64_t>(id()), static_cast<std::uint64_t>(p),
          static_cast<std::uint64_t>(parts_[static_cast<std::size_t>(p)].size()),
          static_cast<std::uint64_t>(bytes_[static_cast<std::size_t>(p)])}) {
      std::uint64_t st = s ^ field;
      s = gs::splitmix64(st);
    }
    return s;
  }

  /// Cut lineage: once this node is checkpointed its ancestors are no longer
  /// needed; dropping them (and the compute closures that captured them)
  /// releases their cached partitions.
  void truncate_lineage() {
    GS_CHECK_MSG(materialized(), "checkpoint before materialization");
    mutable_parents().clear();
    compute_ = nullptr;
    bulk_ = nullptr;
  }

  // ------------- storage-level tier delegates (see rdd_base.hpp) -------------

  std::optional<std::vector<std::uint8_t>> encode_partition(
      int p) const override {
    if constexpr (has_item_codec_v<T>) {
      if (!materialized() || !avail_acquire(p)) return std::nullopt;
      return encode_payload(parts_[static_cast<std::size_t>(p)],
                            bytes_[static_cast<std::size_t>(p)]);
    } else {
      (void)p;
      return std::nullopt;  // no codec: block stays deserialized
    }
  }

  bool restore_partition(int p,
                         const std::vector<std::uint8_t>& payload) override {
    if constexpr (has_item_codec_v<T>) {
      if (!materialized()) return false;
      // Idempotent: a concurrent reader may have triggered the same readback
      // (serialized by the context's readback_mu_); never clobber live data.
      if (avail_acquire(p)) return true;
      std::vector<T> items;
      if (!decode_payload(payload, items)) return false;
      parts_[static_cast<std::size_t>(p)] = std::move(items);
      set_avail_release(p);
      return true;
    } else {
      (void)p;
      (void)payload;
      return false;
    }
  }

 private:
  TypedRdd(SparkContext* ctx, std::string label, int num_partitions, bool wide,
           std::vector<std::shared_ptr<RddBase>> parents, PartitionerPtr part)
      : RddBase(ctx, std::move(label), num_partitions, wide, std::move(parents),
                std::move(part)) {}

  // available_ is read by task threads (partition()) and written by readback
  // restores on other task threads; the flag is the release/acquire handshake
  // that also publishes parts_[p]. std::atomic_ref<const char> is ill-formed,
  // hence the const_cast on the const reader.
  bool avail_acquire(int p) const {
    return std::atomic_ref<char>(
               const_cast<char&>(available_[static_cast<std::size_t>(p)]))
               .load(std::memory_order_acquire) != 0;
  }
  void set_avail_release(int p) {
    std::atomic_ref<char>(available_[static_cast<std::size_t>(p)])
        .store(1, std::memory_order_release);
  }

  ComputeFn compute_;
  BulkFn bulk_;
  std::vector<std::vector<T>> parts_;
  std::vector<std::size_t> bytes_;
  std::vector<char> available_;  ///< per-partition cached-data residency
};

/// Value-semantics handle to a lineage node; the user-facing API.
template <typename T>
class RDD {
 public:
  RDD() = default;
  explicit RDD(std::shared_ptr<TypedRdd<T>> node) : node_(std::move(node)) {}

  bool valid() const { return node_ != nullptr; }
  int num_partitions() const { return node_->num_partitions(); }
  const std::shared_ptr<TypedRdd<T>>& node() const { return node_; }
  SparkContext& context() const { return *node_->context(); }
  PartitionerPtr partitioner() const { return node_->partitioner(); }

  // ---------------- narrow transformations ----------------

  template <typename F>
  auto map(F f, std::string label = "map") const {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    auto parent = node_;
    return RDD<U>(TypedRdd<U>::make_narrow(
        parent->context(), std::move(label), parent->num_partitions(),
        {parent}, nullptr, [parent, f](int p) {
          const auto& in = parent->partition(p);
          std::vector<U> out;
          out.reserve(in.size());
          for (const auto& x : in) out.push_back(f(x));
          return out;
        }));
  }

  template <typename F>
  auto flat_map(F f, std::string label = "flatMap") const {
    using Vec = std::decay_t<std::invoke_result_t<F, const T&>>;
    using U = typename Vec::value_type;
    auto parent = node_;
    return RDD<U>(TypedRdd<U>::make_narrow(
        parent->context(), std::move(label), parent->num_partitions(),
        {parent}, nullptr, [parent, f](int p) {
          std::vector<U> out;
          for (const auto& x : parent->partition(p)) {
            Vec items = f(x);
            for (auto& item : items) out.push_back(std::move(item));
          }
          return out;
        }));
  }

  template <typename Pred>
  RDD<T> filter(Pred pred, std::string label = "filter") const {
    auto parent = node_;
    return RDD<T>(TypedRdd<T>::make_narrow(
        parent->context(), std::move(label), parent->num_partitions(),
        {parent}, parent->partitioner(), [parent, pred](int p) {
          std::vector<T> out;
          for (const auto& x : parent->partition(p)) {
            if (pred(x)) out.push_back(x);
          }
          return out;
        }));
  }

  /// F: (int partition, const std::vector<T>&) -> std::vector<U>.
  /// `preserves_partitioning` mirrors pySpark's flag: set it when f keeps
  /// every element's key unchanged, so downstream partitionBy can be elided.
  template <typename F>
  auto map_partitions(F f, bool preserves_partitioning = false,
                      std::string label = "mapPartitions") const {
    using Vec = std::decay_t<std::invoke_result_t<F, int, const std::vector<T>&>>;
    using U = typename Vec::value_type;
    auto parent = node_;
    return RDD<U>(TypedRdd<U>::make_narrow(
        parent->context(), std::move(label), parent->num_partitions(),
        {parent}, preserves_partitioning ? parent->partitioner() : nullptr,
        [parent, f](int p) { return f(p, parent->partition(p)); }));
  }

  /// Like pySpark's union: when both inputs share an equivalent partitioner
  /// (and partition count), the result merges partitions pairwise and keeps
  /// the partitioner; otherwise partition lists concatenate and the
  /// partitioner is dropped.
  RDD<T> union_with(const RDD<T>& other, std::string label = "union") const {
    return union_all<T>({*this, other}, std::move(label));
  }

  // ---------------- pair-RDD transformations ----------------
  // Enabled when T = std::pair<K, V>.

  template <typename P = T, typename = std::enable_if_t<detail::is_pair<P>::value>>
  auto keys(std::string label = "keys") const {
    return map([](const T& kv) { return kv.first; }, std::move(label));
  }

  template <typename P = T, typename = std::enable_if_t<detail::is_pair<P>::value>>
  auto values(std::string label = "values") const {
    return map([](const T& kv) { return kv.second; }, std::move(label));
  }

  /// mapValues preserves the partitioner (key space unchanged).
  template <typename F, typename P = T,
            typename = std::enable_if_t<detail::is_pair<P>::value>>
  auto map_values(F f, std::string label = "mapValues") const {
    using K = typename T::first_type;
    using V = typename T::second_type;
    using U = std::decay_t<std::invoke_result_t<F, const V&>>;
    auto parent = node_;
    return RDD<std::pair<K, U>>(TypedRdd<std::pair<K, U>>::make_narrow(
        parent->context(), std::move(label), parent->num_partitions(),
        {parent}, parent->partitioner(), [parent, f](int p) {
          std::vector<std::pair<K, U>> out;
          out.reserve(parent->partition(p).size());
          for (const auto& [k, v] : parent->partition(p)) {
            out.emplace_back(k, f(v));
          }
          return out;
        }));
  }

  /// partitionBy: redistribution by key. Elided (narrow identity) when the
  /// input already uses an equivalent partitioner — paper footnote 1.
  template <typename P = T, typename = std::enable_if_t<detail::is_pair<P>::value>>
  RDD<T> partition_by(PartitionerPtr part, std::string label = "partitionBy") const {
    using K = typename T::first_type;
    auto parent = node_;
    SparkContext* ctx = parent->context();
    GS_CHECK(part != nullptr);

    if (parent->partitioner() != nullptr &&
        parent->partitioner()->equivalent_to(*part)) {
      // Already partitioned this way: narrow pass-through.
      return RDD<T>(TypedRdd<T>::make_narrow(
          ctx, label + "(elided)", parent->num_partitions(), {parent}, part,
          [parent](int p) { return parent->partition(p); }));
    }

    const int np = part->num_partitions();
    return RDD<T>(TypedRdd<T>::make_wide(
        ctx, std::move(label), np, {parent}, part,
        [parent, part](TypedRdd<T>& self) {
          SparkContext* c = self.context();
          const int m = parent->num_partitions();
          const int np2 = part->num_partitions();
          // Map side: bucket every item by target partition.
          std::vector<std::vector<std::vector<T>>> buckets(
              static_cast<std::size_t>(m));
          std::atomic<std::size_t> moved{0};
          gs::parallel_for(c->pool(), static_cast<std::size_t>(m),
                           [&](std::size_t mp) {
                             auto& bucket = buckets[mp];
                             bucket.resize(static_cast<std::size_t>(np2));
                             std::size_t local = 0;
                             for (const auto& kv :
                                  parent->partition(static_cast<int>(mp))) {
                               const int tp = part->partition_of(
                                   detail::hash_key<K>(kv.first));
                               local += detail::bytes_of(kv);
                               bucket[static_cast<std::size_t>(tp)].push_back(kv);
                             }
                             moved += local;
                           });
          c->note_shuffle(moved.load(), moved.load());
          c->charge_shuffle(moved.load());
          // Reduce side: concatenate buckets in map order (deterministic).
          c->run_node_tasks(self, [&](int p) {
            auto& out = self.partition_mutable(p);
            for (int mp = 0; mp < m; ++mp) {
              const auto& b =
                  buckets[static_cast<std::size_t>(mp)][static_cast<std::size_t>(p)];
              out.insert(out.end(), b.begin(), b.end());
            }
          });
        }));
  }

  /// combineByKey: the paper's IM fan-in. Map-side combining (Spark default),
  /// then shuffle, then merge_combiners on the reduce side. Output order is
  /// deterministic (first-seen key order per partition).
  template <typename Create, typename MergeV, typename MergeC, typename P = T,
            typename = std::enable_if_t<detail::is_pair<P>::value>>
  auto combine_by_key(Create create, MergeV merge_v, MergeC merge_c,
                      PartitionerPtr part = nullptr,
                      std::string label = "combineByKey") const {
    using K = typename T::first_type;
    using V = typename T::second_type;
    using C = std::decay_t<std::invoke_result_t<Create, const V&>>;
    using Out = std::pair<K, C>;

    auto parent = node_;
    SparkContext* ctx = parent->context();
    if (part == nullptr) part = ctx->default_partitioner();

    const bool copartitioned = parent->partitioner() != nullptr &&
                               parent->partitioner()->equivalent_to(*part) &&
                               parent->num_partitions() == part->num_partitions();
    const int np = part->num_partitions();

    if (copartitioned) {
      // Footnote 1: input already partitioned this way — no shuffle, no
      // stage break; combine locally within each partition.
      return RDD<Out>(TypedRdd<Out>::make_narrow(
          ctx, label + "(local)", np, {parent}, part,
          [parent, create, merge_v](int p) {
            std::unordered_map<K, C, detail::KeyHashF<K>> acc;
            std::vector<K> order;
            for (const auto& [k, v] : parent->partition(p)) {
              auto it = acc.find(k);
              if (it == acc.end()) {
                acc.emplace(k, create(v));
                order.push_back(k);
              } else {
                it->second = merge_v(std::move(it->second), v);
              }
            }
            std::vector<Out> out;
            out.reserve(order.size());
            for (const K& k : order) out.emplace_back(k, std::move(acc.at(k)));
            return out;
          }));
    }

    return RDD<Out>(TypedRdd<Out>::make_wide(
        ctx, std::move(label), np, {parent}, part,
        [parent, part, create, merge_v, merge_c](TypedRdd<Out>& self) {
          SparkContext* c = self.context();
          const int m = parent->num_partitions();
          const int np2 = part->num_partitions();

          // Map side: combine locally, bucket by target partition.
          std::vector<std::vector<std::vector<Out>>> buckets(
              static_cast<std::size_t>(m));
          std::atomic<std::size_t> moved{0};
          gs::parallel_for(
              c->pool(), static_cast<std::size_t>(m), [&](std::size_t mp) {
                std::unordered_map<K, C, detail::KeyHashF<K>> acc;
                std::vector<K> order;
                for (const auto& [k, v] : parent->partition(static_cast<int>(mp))) {
                  auto it = acc.find(k);
                  if (it == acc.end()) {
                    acc.emplace(k, create(v));
                    order.push_back(k);
                  } else {
                    it->second = merge_v(std::move(it->second), v);
                  }
                }
                auto& bucket = buckets[mp];
                bucket.resize(static_cast<std::size_t>(np2));
                std::size_t local = 0;
                for (const K& k : order) {
                  const int tp = part->partition_of(detail::hash_key<K>(k));
                  local += detail::bytes_of(k) + detail::bytes_of(acc.at(k));
                  bucket[static_cast<std::size_t>(tp)].emplace_back(
                      k, std::move(acc.at(k)));
                }
                moved += local;
              });

          c->note_shuffle(moved.load(), moved.load());
          c->charge_shuffle(moved.load());

          c->run_node_tasks(self, [&](int p) {
            std::unordered_map<K, C, detail::KeyHashF<K>> acc;
            std::vector<K> order;
            for (int mp = 0; mp < m; ++mp) {
              auto& b = buckets[static_cast<std::size_t>(mp)]
                               [static_cast<std::size_t>(p)];
              for (auto& [k, cval] : b) {
                auto it = acc.find(k);
                if (it == acc.end()) {
                  acc.emplace(k, std::move(cval));
                  order.push_back(k);
                } else {
                  it->second = merge_c(std::move(it->second), std::move(cval));
                }
              }
            }
            auto& out = self.partition_mutable(p);
            out.reserve(order.size());
            for (const K& k : order) {
              out.emplace_back(k, std::move(acc.at(k)));
            }
          });
        }));
  }

  /// groupByKey: combineByKey specialization collecting values in arrival
  /// order.
  template <typename P = T, typename = std::enable_if_t<detail::is_pair<P>::value>>
  auto group_by_key(PartitionerPtr part = nullptr,
                    std::string label = "groupByKey") const {
    using V = typename T::second_type;
    return combine_by_key(
        [](const V& v) { return std::vector<V>{v}; },
        [](std::vector<V> acc, const V& v) {
          acc.push_back(v);
          return acc;
        },
        [](std::vector<V> a, std::vector<V> b) {
          a.insert(a.end(), std::make_move_iterator(b.begin()),
                   std::make_move_iterator(b.end()));
          return a;
        },
        std::move(part), std::move(label));
  }

  template <typename F, typename P = T,
            typename = std::enable_if_t<detail::is_pair<P>::value>>
  auto reduce_by_key(F f, PartitionerPtr part = nullptr,
                     std::string label = "reduceByKey") const {
    using V = typename T::second_type;
    return combine_by_key(
        [](const V& v) { return v; },
        [f](V acc, const V& v) { return f(acc, v); },
        [f](V a, V b) { return f(a, b); }, std::move(part), std::move(label));
  }

  // ---------------- actions ----------------

  std::vector<T> collect(const std::string& action = "collect") const {
    obs::ScopedSpan action_span(&context().tracer(), obs::SpanLevel::kAction,
                                action);
    context().run_job(node_, action);
    std::vector<T> out;
    std::size_t bytes = 0;
    for (int p = 0; p < node_->num_partitions(); ++p) {
      const auto& part = node_->partition(p);
      out.insert(out.end(), part.begin(), part.end());
      bytes += node_->partition_bytes(p);
    }
    context().charge_collect(bytes);
    return out;
  }

  std::size_t count() const {
    obs::ScopedSpan action_span(&context().tracer(), obs::SpanLevel::kAction,
                                "count");
    context().run_job(node_, "count");
    std::size_t n = 0;
    for (int p = 0; p < node_->num_partitions(); ++p) {
      n += node_->partition_items(p);
    }
    return n;
  }

  template <typename F>
  T reduce(F f) const {
    obs::ScopedSpan action_span(&context().tracer(), obs::SpanLevel::kAction,
                                "reduce");
    context().run_job(node_, "reduce");
    bool seen = false;
    T acc{};
    for (int p = 0; p < node_->num_partitions(); ++p) {
      for (const auto& x : node_->partition(p)) {
        acc = seen ? f(std::move(acc), x) : x;
        seen = true;
      }
    }
    GS_CHECK_MSG(seen, "reduce() on empty RDD");
    return acc;
  }

  T first() const {
    auto taken = take(1);
    GS_CHECK_MSG(!taken.empty(), "first() on empty RDD");
    return taken.front();
  }

  std::vector<T> take(std::size_t n) const {
    obs::ScopedSpan action_span(&context().tracer(), obs::SpanLevel::kAction,
                                "take");
    context().run_job(node_, "take");
    std::vector<T> out;
    for (int p = 0; p < node_->num_partitions() && out.size() < n; ++p) {
      for (const auto& x : node_->partition(p)) {
        out.push_back(x);
        if (out.size() == n) break;
      }
    }
    return out;
  }

  /// Force materialization without moving data to the driver.
  const RDD& cache() const {
    obs::ScopedSpan action_span(&context().tracer(), obs::SpanLevel::kAction,
                                "cache");
    context().run_job(node_, "cache");
    return *this;
  }

  /// Spark's persist(level): cache() with an explicit storage level. Under
  /// memory pressure the cached blocks demote down the level's tier ladder
  /// (serialize in place, spill to disk) instead of being dropped outright.
  const RDD& persist(StorageLevel level) const {
    node_->set_storage_level(level);
    return cache();
  }

  /// Materialize, persist all partitions into the shared block store with
  /// per-block checksums (a corrupted block is recomputed from lineage), then
  /// cut lineage so ancestors can be freed — the standard move in iterative
  /// Spark jobs (paper's drivers run r outer iterations). Checkpointed data
  /// survives executor loss and is never evicted.
  const RDD& checkpoint() const {
    obs::ScopedSpan action_span(&context().tracer(), obs::SpanLevel::kAction,
                                "checkpoint");
    context().run_job(node_, "checkpoint");
    context().checkpoint_node(*node_);
    node_->truncate_lineage();
    return *this;
  }

 private:
  template <typename U>
  friend class RDD;

  std::shared_ptr<TypedRdd<T>> node_;
};

// ---------------- construction ----------------

/// Distribute `data` over `num_partitions` contiguous slices
/// (0 → cluster default).
template <typename T>
RDD<T> parallelize(SparkContext& sc, std::vector<T> data,
                   int num_partitions = 0, std::string label = "parallelize") {
  if (num_partitions <= 0) {
    num_partitions = static_cast<int>(sc.config().effective_partitions());
  }
  auto shared = std::make_shared<std::vector<T>>(std::move(data));
  const int np = num_partitions;
  return RDD<T>(TypedRdd<T>::make_narrow(
      &sc, std::move(label), np, {}, nullptr, [shared, np](int p) {
        const std::size_t n = shared->size();
        const std::size_t lo = n * static_cast<std::size_t>(p) /
                               static_cast<std::size_t>(np);
        const std::size_t hi = n * (static_cast<std::size_t>(p) + 1) /
                               static_cast<std::size_t>(np);
        return std::vector<T>(shared->begin() + static_cast<std::ptrdiff_t>(lo),
                              shared->begin() + static_cast<std::ptrdiff_t>(hi));
      }));
}

/// Distribute key–value pairs by `part` (defaults to the cluster's hash
/// partitioner). The resulting RDD knows its partitioner.
template <typename K, typename V>
RDD<std::pair<K, V>> parallelize_pairs(SparkContext& sc,
                                       std::vector<std::pair<K, V>> data,
                                       PartitionerPtr part = nullptr,
                                       std::string label = "parallelizePairs") {
  if (part == nullptr) part = sc.default_partitioner();
  auto shared =
      std::make_shared<std::vector<std::pair<K, V>>>(std::move(data));
  return RDD<std::pair<K, V>>(TypedRdd<std::pair<K, V>>::make_narrow(
      &sc, std::move(label), part->num_partitions(), {}, part,
      [shared, part](int p) {
        std::vector<std::pair<K, V>> out;
        for (const auto& kv : *shared) {
          if (part->partition_of(detail::hash_key<K>(kv.first)) == p) {
            out.push_back(kv);
          }
        }
        return out;
      }));
}

/// N-ary union (sc.union in pySpark). Partitioner-aware: when every input
/// shares an equivalent partitioner and partition count, partitions merge
/// pairwise and the partitioner survives (so a following
/// partitionBy/combineByKey is elided); otherwise partition lists
/// concatenate and the partitioner is dropped.
template <typename T>
RDD<T> union_all(std::vector<RDD<T>> rdds, std::string label) {
  GS_CHECK_MSG(!rdds.empty(), "union_all of zero RDDs");
  if (rdds.size() == 1) return rdds.front();
  std::vector<std::shared_ptr<RddBase>> parents;
  std::vector<std::shared_ptr<TypedRdd<T>>> nodes;
  int total = 0;
  for (const auto& r : rdds) {
    nodes.push_back(r.node());
    parents.push_back(r.node());
    total += r.num_partitions();
  }
  SparkContext* ctx = nodes.front()->context();

  const PartitionerPtr& first_part = nodes.front()->partitioner();
  bool aware = first_part != nullptr;
  for (const auto& n : nodes) {
    aware = aware && n->partitioner() != nullptr &&
            n->partitioner()->equivalent_to(*first_part) &&
            n->num_partitions() == nodes.front()->num_partitions();
  }

  if (aware) {
    return RDD<T>(TypedRdd<T>::make_narrow(
        ctx, label + "(aware)", nodes.front()->num_partitions(), std::move(parents),
        first_part, [nodes](int p) {
          std::vector<T> out;
          for (const auto& n : nodes) {
            const auto& part = n->partition(p);
            out.insert(out.end(), part.begin(), part.end());
          }
          return out;
        }));
  }

  return RDD<T>(TypedRdd<T>::make_narrow(
      ctx, std::move(label), total, std::move(parents), nullptr,
      [nodes](int p) {
        for (const auto& n : nodes) {
          if (p < n->num_partitions()) return n->partition(p);
          p -= n->num_partitions();
        }
        GS_CHECK_MSG(false, "partition index out of range in union");
        return std::vector<T>{};
      }));
}

}  // namespace sparklet
