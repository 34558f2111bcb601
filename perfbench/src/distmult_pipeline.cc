// distmult_shard / distmult_int8: a DistMult ScaleTrainer over a streamed
// graph whose entity table lives on mmap shard slabs.
//   set-up   StreamGenerateBkg → TSV, FilterIndex over every split,
//            ScaleTrainer::Create on slab-backed stores
//   train    one ScaleTrainer::TrainEpoch at a 2-thread pool
//   eval     ScaleTrainer::EvaluateFiltered on a fixed valid sample
//   publish  shard: ShardStore::Seal + ScoreServer over the fp32 store;
//            int8:  ShardStore::Quantize(kInt8) + ScoreServer over it
//   serve    TopK (K=10) over shuffled test (h, r) pairs, 3 clients; the
//            query encoder (e_h ∘ r) copies rows under a PinPanel lease
//
// distmult_shard keeps max_resident_shards = 4 of 13 slabs, so training,
// eval and every serving sweep fault slabs in and out; distmult_int8 runs
// the same graph with unlimited residency.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/stream_bkg.h"
#include "infer/candidate_panels.h"
#include "infer/score_server.h"
#include "kg/filter_index.h"
#include "serving.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "tensor/shard_store.h"
#include "tensor/tensor.h"
#include "trace.h"
#include "train/scale_trainer.h"

namespace perfbench {

using namespace came;  // NOLINT: the benchmark calls into every layer

namespace {

constexpr int64_t kDim = 32;
constexpr int kTrainThreads = 2;
constexpr size_t kTrainChunks = 8;

struct Sizes {
  int64_t entities;
  int64_t triples;
  int64_t rows_per_shard;
  int64_t max_resident;  // distmult_shard only; distmult_int8 uses 0
  size_t eval_queries;
  size_t serve_queries;
  int setups;
  int epochs;  // the smoke-test graph trains longer, so its table is trained
};

Sizes SizesFor(const Options& opts) {
  if (opts.tiny) return {20000, 60000, 2048, 4, 64, 128, 2, 4};
  return {200000, 600000, 16384, 4, 512, 1024, 3, 1};
}

// Entity mix of bench_sharded_scale: structural graph only.
datagen::BkgConfig GraphConfig(const Sizes& z) {
  datagen::BkgConfig c = datagen::BkgConfig::DrkgMmSynth(1.0);
  c.seed = 7;  // fixed dataset; --seed varies the request streams
  c.num_genes = z.entities * 4 / 10;
  c.num_compounds = z.entities * 3 / 10;
  c.num_diseases = z.entities * 2 / 10;
  c.num_side_effects = z.entities - c.num_genes - c.num_compounds - c.num_diseases;
  c.num_symptoms = 0;
  c.num_triples = z.triples;
  c.molecules = false;
  return c;
}

struct DistMultSetup {
  datagen::StreamBkgSummary summary;
  std::unique_ptr<kg::FilterIndex> filter;
  std::vector<kg::Triple> train;
  std::vector<kg::Triple> valid_sample;
  std::vector<kg::Triple> test;
  train::ScaleTrainer trainer;
  double generate_s = 0;
  double filter_build_s = 0;
};

Status ReadSplit(const std::string& path, const datagen::StreamBkgSummary& sum,
                 std::vector<kg::Triple>* out) {
  train::TsvTripleSource src(path, sum.num_entities, sum.num_relations);
  CAME_RETURN_IF_ERROR(src.Reset());
  kg::Triple t;
  for (;;) {
    Result<bool> got = src.Next(&t);
    if (!got.ok()) return got.status();
    if (!got.value()) return Status::OK();
    out->push_back(t);
  }
}

// One full set-up; returns its wall time, or a negative value on failure.
double BuildSetup(const Options& opts, const Sizes& z, bool int8,
                  DistMultSetup* s, Report* report) {
  Span span("setup");
  Stopwatch total;
  const std::string dir = WorkDir(opts);
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  datagen::StreamBkgOptions gen;
  gen.out_dir = dir + "/data";
  gen.write_entities = false;
  {
    Span sp("datagen.StreamGenerateBkg");
    Stopwatch sw;
    Result<datagen::StreamBkgSummary> r = datagen::StreamGenerateBkg(GraphConfig(z), gen);
    report->Op("setup", r.ok());
    if (!r.ok()) return -1;
    s->summary = r.value();
    s->generate_s = sw.ElapsedSeconds();
  }
  {
    Span sp("kg.filter_build");
    Stopwatch sw;
    s->filter = std::make_unique<kg::FilterIndex>(s->summary.num_entities,
                                                  s->summary.num_relations);
    std::vector<kg::Triple> split;
    for (const char* name : {"train.tsv", "valid.tsv", "test.tsv"}) {
      split.clear();
      const Status st = ReadSplit(gen.out_dir + "/" + name, s->summary, &split);
      report->Op("setup", st.ok());
      if (!st.ok()) return -1;
      s->filter->AddTriples(split);
      if (std::strcmp(name, "train.tsv") == 0) s->train = split;
      if (std::strcmp(name, "valid.tsv") == 0) {
        s->valid_sample.assign(split.begin(),
                               split.begin() + static_cast<ptrdiff_t>(std::min(split.size(), z.eval_queries)));
      }
      if (std::strcmp(name, "test.tsv") == 0) s->test = split;
    }
    s->filter_build_s = sw.ElapsedSeconds();
  }
  {
    Span sp("train.ScaleTrainer.Create");
    train::ScaleTrainConfig tc;
    tc.dim = kDim;
    tc.negatives = 1;
    tc.batch_size = 1024;
    tc.seed = 11;
    tc.store_dir = dir + "/stores";
    tc.rows_per_shard = z.rows_per_shard;
    tc.max_resident_shards = int8 ? 0 : z.max_resident;
    tc.eval_panel_rows = 8192;
    tc.eval_query_batch = 64;
    Result<train::ScaleTrainer> made =
        train::ScaleTrainer::Create(s->summary.num_entities, s->summary.num_relations, tc);
    report->Op("setup", made.ok());
    if (!made.ok()) return -1;
    s->trainer = std::move(made).value();
  }
  return total.ElapsedSeconds();
}

// DistMult query rows e_h ∘ r, copied out of the stores while the rows'
// shards are pinned so a concurrent sweep cannot evict them mid-copy.
infer::QueryEncoder DistMultEncoder(tensor::ShardStore* ent, tensor::ShardStore* rel) {
  return [ent, rel](const std::vector<int64_t>& heads, const std::vector<int64_t>& rels) {
    const int64_t b = static_cast<int64_t>(heads.size());
    const int64_t d = ent->dim();
    tensor::Tensor q({b, d});
    for (int64_t i = 0; i < b; ++i) {
      const int64_t h = heads[static_cast<size_t>(i)];
      const int64_t r = rels[static_cast<size_t>(i)];
      const int64_t eh_pin = ent->PinPanel(h, h + 1);
      const int64_t r_pin = rel->PinPanel(r, r + 1);
      const float* eh = ent->Row(h);
      const float* rr = rel->Row(r);
      float* out = q.data() + i * d;
      for (int64_t k = 0; k < d; ++k) out[k] = eh[k] * rr[k];
      rel->UnpinPanel(r_pin);
      ent->UnpinPanel(eh_pin);
    }
    return q;
  };
}

tensor::ShardStore::Stats Minus(const tensor::ShardStore::Stats& a,
                                const tensor::ShardStore::Stats& b) {
  tensor::ShardStore::Stats d;
  d.map_hits = a.map_hits - b.map_hits;
  d.map_misses = a.map_misses - b.map_misses;
  d.evictions = a.evictions - b.evictions;
  d.pin_blocked_evictions = a.pin_blocked_evictions - b.pin_blocked_evictions;
  return d;
}

}  // namespace

void RunDistMult(const Options& opts, bool int8, Report* report) {
  const Sizes z = SizesFor(opts);

  // ---- set-up, several times; the last one is used.
  DistMultSetup s;
  std::vector<double> setup_s;
  for (int i = 0; i < z.setups; ++i) {
    s = DistMultSetup();
    const double t = BuildSetup(opts, z, int8, &s, report);
    if (t < 0) return;
    setup_s.push_back(t);
  }
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("datagen.generate_s", s.generate_s, "s");
  report->Metric("kg.filter_build_s", s.filter_build_s, "s");
  report->Info("graph", std::to_string(s.summary.num_entities) + " entities, " +
                            std::to_string(s.summary.train_triples) + " train triples, " +
                            std::to_string(s.trainer.entity_store().num_shards()) +
                            " slabs, max resident " +
                            (int8 ? std::string("unlimited") : std::to_string(z.max_resident)));
  tensor::ShardStore& ent = s.trainer.entity_store();
  tensor::ShardStore& rel = s.trainer.relation_store();

  // ---- train: each epoch is fed in kTrainChunks equal slices of whole
  // batches (so the batches match a single pass); the median slice
  // throughput is reported, which a burst of outside load moves less.
  SetNumThreads(kTrainThreads);
  const tensor::ShardStore::Stats train0 = ent.GetStats();
  const size_t batch = 1024;
  const size_t chunk = (s.train.size() / kTrainChunks + batch - 1) / batch * batch;
  std::vector<double> chunk_rate;
  double loss_sum = 0;  // of the last epoch
  Stopwatch train_sw;
  for (int epoch = 0; epoch < z.epochs; ++epoch) {
    loss_sum = 0;
    for (size_t begin = 0; begin < s.train.size(); begin += chunk) {
      const size_t end = std::min(s.train.size(), begin + chunk);
      train::VectorTripleSource slice(std::vector<kg::Triple>(
          s.train.begin() + static_cast<ptrdiff_t>(begin),
          s.train.begin() + static_cast<ptrdiff_t>(end)));
      Span sp("train.ScaleTrainer.TrainEpoch");
      Stopwatch sw;
      Result<double> r = s.trainer.TrainEpoch(&slice);
      report->Op("train", r.ok());
      if (!r.ok()) return;
      chunk_rate.push_back(static_cast<double>(end - begin) / sw.ElapsedSeconds());
      loss_sum += r.value() * static_cast<double>(end - begin);
    }
  }
  const double epoch_s = train_sw.ElapsedSeconds() / z.epochs;
  double loss = loss_sum / static_cast<double>(s.train.size());
  const tensor::ShardStore::Stats train_delta = Minus(ent.GetStats(), train0);
  report->Metric("train_triples_per_s", Median(chunk_rate), "1/s");
  report->Metric("train.scale_epoch_s", epoch_s, "s");
  report->Metric("tensor.shard_evictions_train", static_cast<double>(train_delta.evictions),
                 "count");
  report->Metric("tensor.shard_map_misses_train", static_cast<double>(train_delta.map_misses),
                 "count");
  report->Counter("tensor.shard_evictions_train", train_delta.evictions);
  report->Counter("tensor.shard_map_misses_train", train_delta.map_misses);
  if (opts.inject_fault == "loss") loss = std::nan("");
  report->Check("train.loss_finite", std::isfinite(loss), "epoch loss " + std::to_string(loss));

  // ---- filtered eval on the fixed valid sample; deterministic, so it
  // runs several times and the median time is reported.
  eval::Metrics m;
  std::vector<double> eval_qps;
  bool same_metrics = true;
  for (int pass = 0; pass < (opts.tiny ? 2 : 5); ++pass) {
    train::VectorTripleSource eval_source(s.valid_sample);
    Span sp("train.ScaleTrainer.EvaluateFiltered");
    Stopwatch sw;
    Result<eval::Metrics> r = s.trainer.EvaluateFiltered(&eval_source, *s.filter);
    const double secs = sw.ElapsedSeconds();
    Phase& ep = report->phase("eval");
    ep.attempted += static_cast<int64_t>(s.valid_sample.size());
    if (!r.ok()) {
      ep.failed += static_cast<int64_t>(s.valid_sample.size());
      return;
    }
    ep.succeeded += r.value().count;
    ep.failed += static_cast<int64_t>(s.valid_sample.size()) - r.value().count;
    eval_qps.push_back(static_cast<double>(r.value().count) / secs);
    if (pass > 0) same_metrics = same_metrics && r.value().reciprocal_sum == m.reciprocal_sum;
    m = r.value();
  }
  report->Check("eval.passes_agree", same_metrics, "");
  report->Metric("eval_queries_per_s", Median(eval_qps), "1/s");
  report->Metric("eval_mrr", m.Mrr(), "%");
  report->Check("eval.mrr_finite", std::isfinite(m.Mrr()) && m.count > 0, "");

  // ---- publish: seal (fp32) or quantize (int8), then the server.
  // Quantizing is short, so it runs several times into fresh directories
  // and the median counts; the last store serves. Training left tens of
  // MB of dirty slab pages; they are flushed first, untimed, so publish
  // times its own writes rather than the kernel's writeback of those.
  ::sync();
  const std::string qdir = WorkDir(opts) + "/int8";
  tensor::ShardStore qstore;
  std::unique_ptr<infer::ShardStorePanelSource> source_panels;
  double store_s = 0;
  if (int8) {
    std::vector<double> quantize_s;
    for (int pass = 0; pass < (opts.tiny ? 2 : 5); ++pass) {
      Span sp("tensor.ShardStore.Quantize");
      Stopwatch sw;
      Result<tensor::ShardStore> q = tensor::ShardStore::Quantize(
          &ent, qdir + "_" + std::to_string(pass), tensor::ShardDtype::kInt8);
      report->Op("publish", q.ok());
      if (!q.ok()) return;
      qstore = std::move(q).value();
      quantize_s.push_back(sw.ElapsedSeconds());
    }
    store_s = Median(quantize_s);
    report->Metric("tensor.shard_quantize_s", store_s, "s");
    source_panels = std::make_unique<infer::ShardStorePanelSource>(&qstore);
  } else {
    Span sp("tensor.ShardStore.Seal");
    Stopwatch sw;
    const Status st = ent.Seal();
    report->Op("publish", st.ok());
    if (!st.ok()) return;
    store_s = sw.ElapsedSeconds();
    report->Metric("tensor.shard_seal_s", store_s, "s");
    source_panels = std::make_unique<infer::ShardStorePanelSource>(&ent);
  }
  infer::ScoreServerConfig sc;
  sc.num_relations = s.summary.num_relations;
  sc.prune = true;
  const infer::QueryEncoder raw_encoder = DistMultEncoder(&ent, &rel);
  std::unique_ptr<infer::ScoreServer> server;
  Stopwatch ctor_sw;
  {
    Span sp("infer.ScoreServer.ctor");
    server = std::make_unique<infer::ScoreServer>(TracedEncoder(raw_encoder),
                                                  source_panels.get(), sc);
  }
  report->Metric("publish_s", store_s + ctor_sw.ElapsedSeconds(), "s");

  // ---- serve
  // A fixed set of test (h, r) pairs in a seeded order: every seed does
  // the same work, so seeds differ in the stream, not in its cost.
  std::vector<Query> queries;
  for (size_t i = 0; queries.size() < z.serve_queries; ++i) {
    const kg::Triple& t = s.test[i % s.test.size()];
    queries.push_back({t.head, t.rel});
  }
  Rng qrng(opts.seed * 7919 + 3);
  qrng.Shuffle(&queries);
  const uint64_t order_seed = opts.seed * 7919 + 7;

  SetNumThreads(1);
  const auto store_stats = [&] {
    tensor::ShardStore::Stats a = ent.GetStats();
    if (int8) {
      const tensor::ShardStore::Stats b = qstore.GetStats();
      a.map_misses += b.map_misses;
      a.evictions += b.evictions;
      a.pin_blocked_evictions += b.pin_blocked_evictions;
    }
    return a;
  };
  const tensor::ShardStore::Stats serve0 = store_stats();
  const infer::ScoreServer::Stats before = server->GetStats();
  ArmResult direct =
      RunDirectArm(server.get(), queries, order_seed, kServeClients, opts.seconds / 2);
  const infer::ScoreServer::Stats after = server->GetStats();
  const tensor::ShardStore::Stats direct_delta = Minus(store_stats(), serve0);
  ReportArm(direct, "serve", report);
  if (opts.trace) {
    ReportTraceOverhead(server.get(), queries, order_seed, direct, opts.seconds / 2, report);
  }
  int64_t batches = 0;
  int64_t max_coalesced = 0;
  ArmResult batched = RunBatchedArm(server.get(), queries, order_seed, kServeClients,
                                    opts.seconds / 2, &batches, &max_coalesced);
  ReportArm(batched, "batched", report);
  const tensor::ShardStore::Stats serve_delta = Minus(store_stats(), serve0);
  const double served_q = static_cast<double>(after.queries_served - before.queries_served);
  const double scored = static_cast<double>(after.panels_scored - before.panels_scored);
  const double skipped = static_cast<double>(after.panels_skipped - before.panels_skipped);
  report->Metric("infer.panels_scored_per_query", scored / served_q, "count");
  report->Metric("infer.panels_skipped_ratio", skipped / std::max(1.0, scored + skipped), "ratio");
  report->Metric("tensor.shard_map_misses_per_query",
                 static_cast<double>(direct_delta.map_misses) / served_q, "count");
  report->Metric("tensor.shard_pin_blocked_evictions",
                 static_cast<double>(serve_delta.pin_blocked_evictions), "count");
  report->Metric("infer.batch_size_mean",
                 static_cast<double>(batched.attempted) /
                     static_cast<double>(std::max<int64_t>(1, batches)),
                 "count");
  report->Metric("infer.max_coalesced", static_cast<double>(max_coalesced), "count");
  if (opts.trace) {
    double enc = 0;
    double sweep = 0;
    ServeLayerTimes(direct.trace_begin_ns, direct.trace_end_ns, &enc, &sweep);
    report->Metric("infer.encode_us", enc, "us");
    report->Metric("infer.sweep_us", sweep, "us");
  }

  // ---- output checks (untimed)
  // Reference pass: one client over the whole stream, exact counters.
  const infer::ScoreServer::Stats ref0 = server->GetStats();
  const tensor::ShardStore::Stats refs0 = store_stats();
  std::vector<infer::TopKResult> reference(queries.size());
  int64_t ref_failed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<infer::TopKResult> r = server->TopK(queries[i].head, queries[i].rel, kTopK);
    report->Op("reference", r.ok());
    if (r.ok()) reference[i] = std::move(r).value();
    else ++ref_failed;
  }
  const infer::ScoreServer::Stats ref1 = server->GetStats();
  report->Counter("infer.reference_queries", static_cast<int64_t>(queries.size()));
  report->Counter("infer.reference_panels_scored", ref1.panels_scored - ref0.panels_scored);
  report->Counter("infer.reference_panels_skipped", ref1.panels_skipped - ref0.panels_skipped);
  // Not exact: the pass starts from whatever the concurrent arms left
  // resident.
  report->Info("reference_shard_map_misses",
               std::to_string(Minus(store_stats(), refs0).map_misses));
  CheckArmsAgainstReference(direct, batched, reference, report);

  const size_t sample = std::min<size_t>(queries.size(), opts.tiny ? 32 : 200);
  if (!int8) {
    // Pruned and unpruned sweeps over the same store must agree bitwise.
    infer::ScoreServerConfig off = sc;
    off.prune = false;
    infer::ScoreServer unpruned(raw_encoder, source_panels.get(), off);
    int64_t mismatches = 0;
    for (size_t i = 0; i < sample; ++i) {
      Result<infer::TopKResult> r = unpruned.TopK(queries[i].head, queries[i].rel, kTopK);
      report->Op("reference", r.ok());
      infer::TopKResult got = reference[i];
      if (opts.inject_fault == "topk" && i == 0 && !got.scores.empty()) {
        got.scores[0] = std::nextafter(got.scores[0], 1e30f);
      }
      if (!r.ok() || !SameTopK(got, r.value())) ++mismatches;
    }
    report->Check("serve.pruned_equals_unpruned", mismatches == 0,
                  std::to_string(mismatches) + " of " + std::to_string(sample) + " differ");
  } else {
    // int8 vs fp32 agreement@10 over the whole query set (the serving
    // parity gate), so every seed checks the same answers.
    {
      Span sp("tensor.ShardStore.Seal");
      Stopwatch sw;
      const Status st = ent.Seal();
      report->Op("reference", st.ok());
      report->Metric("tensor.shard_seal_s", sw.ElapsedSeconds(), "s");
    }
    infer::ShardStorePanelSource fp32_panels(&ent);
    infer::ScoreServer fp32(raw_encoder, &fp32_panels, sc);
    double agree = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      Result<infer::TopKResult> r = fp32.TopK(queries[i].head, queries[i].rel, kTopK);
      report->Op("reference", r.ok());
      if (!r.ok()) continue;
      std::vector<int64_t> a = r.value().ids;
      std::vector<int64_t> b = reference[i].ids;
      if (opts.inject_fault == "topk") {
        for (int64_t& id : b) id = (id + 1) % s.summary.num_entities;
      }
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<int64_t> both;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(both));
      agree += static_cast<double>(both.size()) / static_cast<double>(std::max<size_t>(1, a.size()));
    }
    agree /= static_cast<double>(queries.size());
    report->Check("serve.int8_agreement_at_10", agree >= 0.99,
                  "agreement@10 " + std::to_string(agree));
    report->Metric("infer.int8_agreement_at_10", agree, "ratio");
  }

  // ---- traced-only: the other publish route and the panel kernels
  if (opts.trace) {
    if (!int8) {
      Span sp("tensor.ShardStore.Quantize");
      Stopwatch sw;
      Result<tensor::ShardStore> q =
          tensor::ShardStore::Quantize(&ent, qdir, tensor::ShardDtype::kInt8);
      report->Op("probe.shard_publish", q.ok());
      report->Metric("tensor.shard_quantize_s", sw.ElapsedSeconds(), "s");
    }
    RunGemmPanelProbes(sc.panel_width, kDim, report);
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

void RunGemmPanelProbes(int64_t panel_rows, int64_t dim, Report* report) {
  SetNumThreads(1);
  Rng rng(5);
  std::vector<float> q(static_cast<size_t>(dim));
  std::vector<float> panel(static_cast<size_t>(panel_rows * dim));
  for (float& v : q) v = static_cast<float>(rng.Uniform(-1, 1));
  for (float& v : panel) v = static_cast<float>(rng.Uniform(-1, 1));
  std::vector<float> out(static_cast<size_t>(panel_rows));
  // One serving query against one candidate panel, as the direct TopK
  // sweep issues it; many repetitions so the timer resolves it.
  const int reps = 20000;
  const double flops = 2.0 * static_cast<double>(dim * panel_rows) * reps;
  {
    Span sp("tensor.gemm.panel");
    Stopwatch sw;
    for (int i = 0; i < reps; ++i) {
      tensor::gemm::Gemm(q.data(), panel.data(), out.data(), 1, dim, panel_rows, false, true,
                         false);
    }
    report->Metric("tensor.gemm_panel_gflops", flops / sw.ElapsedSeconds() / 1e9, "GFLOP/s");
  }
  std::vector<int8_t> q8(static_cast<size_t>(dim));
  std::vector<int8_t> p8(static_cast<size_t>(panel_rows * dim));
  float qs = 0;
  std::vector<float> ps(static_cast<size_t>(panel_rows));
  report->Op("probe.qgemm",
             tensor::qgemm::QuantizeRowsInt8(q.data(), 1, dim, q8.data(), &qs).ok() &&
                 tensor::qgemm::QuantizeRowsInt8(panel.data(), panel_rows, dim, p8.data(),
                                                 ps.data()).ok());
  {
    Span sp("tensor.qgemm.panel");
    Stopwatch sw;
    for (int i = 0; i < reps; ++i) {
      tensor::qgemm::GemmInt8(q8.data(), &qs, p8.data(), ps.data(), out.data(), 1, dim,
                              panel_rows);
    }
    report->Metric("tensor.qgemm_panel_gops", flops / sw.ElapsedSeconds() / 1e9, "GOP/s");
  }
}

}  // namespace perfbench
