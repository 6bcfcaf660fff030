// probes.cpp — each layer's public functions timed in isolation on fixed,
// seeded payloads (independent of --seed, so probe numbers compare across
// runs), printed beside the constant simtime charges for the same work.
// These rates are the calibration input for the virtual-time model.
#include <chrono>
#include <cstring>
#include <optional>

#include "baseline/reference.hpp"
#include "bench.hpp"
#include "gepspark/workload.hpp"
#include "kernels/dispatch.hpp"
#include "semiring/gep_spec.hpp"
#include "serve/job_server.hpp"
#include "sparklet/context.hpp"
#include "sparklet/item_codec.hpp"
#include "sparklet/rdd.hpp"
#include "sparklet/spill_store.hpp"
#include "support/format.hpp"
#include "support/lz.hpp"
#include "support/rng.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
constexpr std::uint64_t kProbeSeed = 7;

/// Keeps probe results observable so the timed work cannot be elided.
volatile double g_sink = 0.0;

/// Median wall seconds of `body` over `reps` runs; `prepare` runs untimed
/// before each.
template <typename Prepare, typename Body>
double median_seconds(int reps, Prepare prepare, Body body) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    prepare();
    const auto t0 = Clock::now();
    body();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(t);
}

gs::Matrix<double> random_tile(std::size_t b, gs::Rng& rng, double lo, double hi) {
  gs::Matrix<double> m(b, b);
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < b; ++j) m(i, j) = rng.uniform(lo, hi);
  }
  return m;
}

void probe_kernels(const Args& a, Report& rep, double model_updates_per_s) {
  const int reps = a.smoke ? 3 : 40;
  gs::Rng rng(kProbeSeed);
  const auto cfg = gs::KernelConfig::recursive(4, 1);
  {  // GepKernels<FW>::d, rec4, one 128² tile
    const std::size_t b = 128;
    const auto u = random_tile(b, rng, 1.0, 100.0);
    const auto v = random_tile(b, rng, 1.0, 100.0);
    const auto w = random_tile(b, rng, 1.0, 100.0);
    const auto x0 = random_tile(b, rng, 1.0, 100.0);
    gs::Matrix<double> x = x0;
    const gs::GepKernels<gs::FloydWarshallSpec> kern(cfg);
    const double t = median_seconds(
        reps, [&] { gs::copy_span<double>(x0.span(), x.span()); },
        [&] { kern.d(x.span(), u.span(), v.span(), w.span()); });
    g_sink = g_sink + x(b - 1, b - 1);
    rep.add("kernels.probe.tile_d_gups", double(b * b * b) / t / 1e9, "Gupd/s",
            true, gs::strfmt("model %.3g (NodeSpec::core_updates_per_s)",
                             model_updates_per_s / 1e9));
  }
  using GE = gs::GaussianEliminationSpec;
  const std::size_t b = 64;
  {  // fused_d_batch, GE, 4 x 4 = 16 trailing 64² tiles against one pack
    const std::size_t m = 4;
    gs::DPanelPack<GE> pack(b, m, m);
    for (std::size_t i = 0; i < m; ++i) {
      pack.pack_col(random_tile(b, rng, -1.0, 1.0).span());
      pack.pack_row(random_tile(b, rng, -1.0, 1.0).span());
    }
    gs::Matrix<double> w = random_tile(b, rng, -1.0, 1.0);
    for (std::size_t i = 0; i < b; ++i) w(i, i) = rng.uniform(2.0, 3.0);
    pack.pack_pivot(w.span());
    std::vector<gs::Matrix<double>> x0, x;
    std::vector<gs::FusedDItem<GE>> items;
    for (std::size_t k = 0; k < m * m; ++k) {
      x0.push_back(random_tile(b, rng, -1.0, 1.0));
      x.push_back(x0.back());
    }
    for (std::size_t k = 0; k < m * m; ++k) {
      items.push_back({x[k].span(), k / m, k % m});
    }
    const double t = median_seconds(
        reps,
        [&] {
          for (std::size_t k = 0; k < x.size(); ++k) {
            gs::copy_span<double>(x0[k].span(), x[k].span());
          }
        },
        [&] { gs::fused_d_batch<GE>(cfg, pack, items); });
    g_sink = g_sink + x.back()(b - 1, b - 1);
    rep.add("kernels.probe.fused_d_gups", double(m * m * b * b * b) / t / 1e9,
            "Gupd/s", true);
  }
  {  // DPanelPack: construct + pack 16 column and 16 row 64² tiles
    const std::size_t m = 16;
    std::vector<gs::Matrix<double>> tiles;
    for (std::size_t k = 0; k < 2 * m; ++k) tiles.push_back(random_tile(b, rng, -1.0, 1.0));
    const double t = median_seconds(reps, [] {}, [&] {
      gs::DPanelPack<GE> pack(b, m, m);
      for (std::size_t k = 0; k < m; ++k) {
        pack.pack_col(tiles[k].span());
        pack.pack_row(tiles[m + k].span());
      }
      g_sink = g_sink + pack.col(m - 1)(0, 0) + pack.row(m - 1)(0, 0);
    });
    rep.add("kernels.probe.pack_gbps",
            double(2 * m * b * b * sizeof(double)) / t / 1e9, "GB/s", true);
  }
}

/// Returns the measured per-task dispatch cost in seconds.
double probe_scheduler(const Args& a, Report& rep,
                       const sparklet::ClusterConfig& model) {
  sparklet::SparkContext sc(bench_cluster(2, 2, host_threads(4)));
  const auto reset = [&] {
    sc.metrics().reset();
    sc.timeline().reset();
  };
  const std::size_t n = 4096;
  std::vector<sparklet::DataflowTaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].label = "noop";
    tasks[i].executor = static_cast<int>(i) % sc.config().num_executors();
  }
  const double graph_s = median_seconds(a.smoke ? 2 : 10, reset, [&] {
    sc.run_task_graph("probe", tasks, [](int) {});
  });
  const double task_s = graph_s / double(n);
  rep.add("sparklet.probe.graph_task_us", 1e6 * task_s, "us", true,
          gs::strfmt("model %.0f (ClusterConfig::task_overhead_s)",
                     1e6 * model.task_overhead_s));
  std::optional<sparklet::RDD<int>> rdd;
  const int parts = static_cast<int>(sc.config().effective_partitions());
  const double stage_s = median_seconds(
      a.smoke ? 5 : 50,
      [&] {
        reset();
        rdd.emplace(sparklet::parallelize(sc, std::vector<int>(parts, 1), parts,
                                          "probe"));
      },
      [&] { g_sink = g_sink + double(rdd->count()); });
  rep.add("sparklet.probe.stage_us", 1e6 * stage_s, "us", true,
          gs::strfmt("model %.0f (ClusterConfig::stage_overhead_s)",
                     1e6 * model.stage_overhead_s));
  rdd.reset();
  return task_s;
}

/// Returns the measured spill write rate in bytes/s.
double probe_storage(const Args& a, Report& rep,
                     const sparklet::ClusterConfig& model) {
  const int reps = a.smoke ? 3 : 40;
  // A 128² tile of a solved APSP table: what the spill workload demotes once
  // the first iterations have filled in the +inf entries.
  gs::Matrix<double> solved =
      gs::workload::random_digraph({.n = 128, .seed = kProbeSeed});
  gs::baseline::reference_floyd_warshall(solved);
  gs::Tile<double> tile(128, 128);
  gs::copy_span<double>(solved.span(), tile.span());
  const gs::TileRef<double> ref =
      std::make_shared<const gs::Tile<double>>(std::move(tile));
  sparklet::ByteBuffer raw;
  sparklet::encode_item(raw, ref);
  const double mb = double(raw.size()) / 1e6;

  sparklet::ByteBuffer packed;
  const double enc_s = median_seconds(reps, [] {}, [&] {
    sparklet::ByteBuffer r;
    sparklet::encode_item(r, ref);
    packed = sparklet::pack_payload(std::move(r));
  });
  gs::TileRef<double> back;
  const double dec_s = median_seconds(reps, [] {}, [&] {
    const auto r = sparklet::unpack_payload(packed);
    if (!r) return;
    sparklet::DecodeCursor in{r->data(), r->data() + r->size()};
    if (!sparklet::decode_item(in, back)) back = nullptr;
  });
  ++rep.attempted;
  if (back == nullptr ||
      std::memcmp(back->span().data(), ref->span().data(),
                  128 * 128 * sizeof(double)) != 0) {
    rep.fail("codec probe round trip differs");
  }
  rep.add("sparklet.probe.codec_encode_mbps", mb / enc_s, "MB/s", true);
  rep.add("sparklet.probe.codec_decode_mbps", mb / dec_s, "MB/s", true);

  std::vector<std::uint8_t> lz;
  const double lzc_s = median_seconds(reps, [] {}, [&] {
    lz = gs::lz_compress(raw.data(), raw.size());
  });
  std::optional<std::vector<std::uint8_t>> unlz;
  const double lzd_s = median_seconds(reps, [] {}, [&] {
    unlz = gs::lz_decompress(lz.data(), lz.size(), raw.size());
  });
  ++rep.attempted;
  if (!unlz || *unlz != raw) rep.fail("LZ probe round trip differs");
  rep.add("support.probe.lz_compress_mbps", mb / lzc_s, "MB/s", true,
          gs::strfmt("ratio %.3f", double(lz.size()) / double(raw.size())));
  rep.add("support.probe.lz_decompress_mbps", mb / lzd_s, "MB/s", true);

  // Real files under $TMPDIR; the store removes its directory on exit.
  sparklet::SpillStore store;
  const std::size_t files = a.smoke ? 8 : 64, bytes = 128 * 1024;
  gs::Rng rng(kProbeSeed);
  std::vector<std::vector<std::uint8_t>> payloads(files);
  for (auto& p : payloads) {
    p.resize(bytes);
    for (auto& c : p) c = static_cast<std::uint8_t>(rng());
  }
  bool ok = true;
  const double spill_mb = double(files * bytes) / 1e6;
  const double w_s = median_seconds(a.smoke ? 2 : 5, [&] { store.remove_rdd(0); }, [&] {
    for (std::size_t i = 0; i < files; ++i) {
      ok = store.write({0, static_cast<int>(i)}, 0, payloads[i]) && ok;
    }
  });
  std::vector<std::optional<std::vector<std::uint8_t>>> read(files);
  const double r_s = median_seconds(a.smoke ? 2 : 5, [] {}, [&] {
    for (std::size_t i = 0; i < files; ++i) {
      read[i] = store.read({0, static_cast<int>(i)}, 0);
    }
  });
  for (std::size_t i = 0; i < files; ++i) ok = ok && read[i] && *read[i] == payloads[i];
  store.remove_rdd(0);
  ++rep.attempted;
  if (!ok) rep.fail("spill probe write/read round trip failed");
  rep.add("sparklet.probe.spill_write_mbps", spill_mb / w_s, "MB/s", true,
          gs::strfmt("model %.0f (DiskSpec::write_Bps)",
                     model.spill_disk.write_Bps / 1e6));
  rep.add("sparklet.probe.spill_read_mbps", spill_mb / r_s, "MB/s", true,
          gs::strfmt("model %.0f (DiskSpec::read_Bps)",
                     model.spill_disk.read_Bps / 1e6));
  return spill_mb * 1e6 / w_s;
}

void probe_query(const Args& a, Report& rep) {
  serve::ServerConfig cfg;
  cfg.cluster = bench_cluster(1, 2, 2);
  cfg.num_contexts = 1;
  serve::JobServer server(cfg);
  serve::SolveRequest req;
  req.options.block_size = 32;
  req.matrix = gs::workload::random_digraph({.n = 192, .seed = kProbeSeed});
  const serve::SolveTicket ticket = server.submit(req);
  ++rep.attempted;
  if (ticket.await() != serve::JobStatus::kDone) {
    rep.fail("query probe job failed: " + ticket.error());
    return;
  }
  const auto table = server.table(ticket.id());
  gs::Rng rng(kProbeSeed);
  const std::size_t batch = 1000;
  std::vector<std::pair<std::size_t, std::size_t>> uv(batch);
  for (auto& [u, v] : uv) {
    u = rng.uniform_u64(192);
    v = rng.uniform_u64(192);
  }
  const double t = median_seconds(a.smoke ? 10 : 200, [] {}, [&] {
    double sum = 0.0;
    for (const auto& [u, v] : uv) sum += server.query_dist(ticket.id(), u, v);
    g_sink = g_sink + sum;
  });
  ++rep.attempted;
  for (const auto& [u, v] : uv) {
    if (!(server.query_dist(ticket.id(), u, v) == table->values(u, v))) {
      rep.fail("query probe answers differ");
      break;
    }
  }
  rep.add("serve.probe.query_ns", 1e9 * t / double(batch), "ns", true);
  server.shutdown();
}

}  // namespace

void run_probes(const Args& args, Report& rep) {
  const sparklet::ClusterConfig model = sparklet::ClusterConfig::local();
  probe_kernels(args, rep, model.node.core_updates_per_s);
  const double task_s = probe_scheduler(args, rep, model);
  const double spill_Bps = probe_storage(args, rep, model);
  probe_query(args, rep);
  // Modeled constants over measured rates: reported beside the measurements,
  // never instead of them.
  rep.add("model.task_overhead_ratio", model.task_overhead_s / task_s, "ratio", true);
  rep.add("model.spill_write_ratio", spill_Bps / model.spill_disk.write_Bps, "ratio",
          true);
}

}  // namespace e2e
