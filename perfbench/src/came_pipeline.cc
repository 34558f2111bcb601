// came_inram: CamE as the quickstart builds it, end to end in RAM.
//   set-up   GenerateBkg(DRKG-MM-Synth) + BuildFeatureBank + Evaluator
//            (filter index) + CreateModel("CamE") + Trainer
//   train    Trainer::RunEpoch at a 2-thread pool
//   eval     Evaluator::Evaluate over the whole test split
//   publish  FusedEmbeddingTable::Build + InstallFoldedRows + ScoreServer
//   serve    fp32 TopK (K=10) over shuffled test (h, r) pairs, 3 clients
//
// The CamE layer probes (a replica of the trainer's 1-to-N step and the
// standalone MMF / RIC / TCA / Conv2d modules) live here too; every
// traced run calls them, on this workload's model or on a CamE built for
// the purpose.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "baselines/conve.h"
#include "baselines/model_zoo.h"
#include "bench.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/mmf.h"
#include "core/ric.h"
#include "core/tca.h"
#include "datagen/bkg_generator.h"
#include "encoders/feature_bank.h"
#include "eval/evaluator.h"
#include "eval/ranking.h"
#include "infer/fused_embedding_table.h"
#include "infer/score_server.h"
#include "kg/filter_index.h"
#include "nn/layers.h"
#include "optim/optimizer.h"
#include "serving.h"
#include "tensor/gemm.h"
#include "tensor/shard_store.h"
#include "tensor/storage_pool.h"
#include "trace.h"
#include "train/scale_trainer.h"
#include "train/trainer.h"

namespace perfbench {

using namespace came;  // NOLINT: the benchmark calls into every layer

namespace {

constexpr int64_t kDim = 32;
constexpr int64_t kFusionDim = 32;
constexpr int64_t kReshapeH = 4;
constexpr int64_t kBatch = 256;  // TrainConfig default batch size
constexpr int kTrainThreads = 2;

// Everything set-up builds. Held by pointer: the model context points
// into the feature bank and the dataset.
struct CamESetup {
  datagen::GeneratedBkg bkg;
  encoders::FeatureBank bank{0, 0, 0};
  std::unique_ptr<eval::Evaluator> evaluator;
  baselines::ModelContext ctx;
  std::unique_ptr<baselines::KgcModel> model;
  std::unique_ptr<train::Trainer> trainer;
  double generate_s = 0;
  double feature_bank_s = 0;
  double filter_build_s = 0;
};

double CamEScale(const Options& opts) { return opts.tiny ? 0.05 : 0.3; }

std::unique_ptr<baselines::KgcModel> MakeCamE(const baselines::ModelContext& ctx) {
  baselines::ZooOptions zoo;
  zoo.dim = kDim;
  zoo.came.fusion_dim = kFusionDim;
  zoo.came.reshape_h = kReshapeH;
  return baselines::CreateModel("CamE", ctx, zoo);
}

// One full set-up; returns its wall time.
double BuildCamESetup(const Options& opts, std::unique_ptr<CamESetup>* out) {
  Span span("setup");
  Stopwatch total;
  auto s = std::make_unique<CamESetup>();
  // The dataset is fixed (the generator's own seed); --seed varies the
  // request streams, so quality and work stay comparable across seeds.
  const datagen::BkgConfig cfg = datagen::BkgConfig::DrkgMmSynth(CamEScale(opts));
  {
    Span sp("datagen.GenerateBkg");
    Stopwatch sw;
    s->bkg = datagen::GenerateBkg(cfg);
    s->generate_s = sw.ElapsedSeconds();
  }
  {
    Span sp("encoders.BuildFeatureBank");
    Stopwatch sw;
    s->bank = encoders::BuildFeatureBank(s->bkg, encoders::FeatureBankConfig());
    s->feature_bank_s = sw.ElapsedSeconds();
  }
  const kg::Dataset& ds = s->bkg.dataset;
  {
    Span sp("kg.filter_build");  // the Evaluator indexes every split
    Stopwatch sw;
    s->evaluator = std::make_unique<eval::Evaluator>(ds);
    s->filter_build_s = sw.ElapsedSeconds();
  }
  {
    Span sp("baselines.CreateModel");
    s->ctx.num_entities = ds.num_entities();
    s->ctx.num_relations = ds.num_relations_with_inverses();
    s->ctx.features = &s->bank;
    s->ctx.train_triples = &ds.train;
    s->model = MakeCamE(s->ctx);
  }
  {
    Span sp("train.Trainer.ctor");
    s->trainer = std::make_unique<train::Trainer>(s->model.get(), ds, train::TrainConfig());
  }
  *out = std::move(s);
  return total.ElapsedSeconds();
}

double MedianMs(const char* name, size_t skip) {
  std::vector<double> d = trace::DurationsMs(name);
  if (d.size() > skip) d.erase(d.begin(), d.begin() + static_cast<ptrdiff_t>(skip));
  return Median(d);
}

ag::Var RandomVar(int64_t rows, int64_t cols, Rng* rng, bool requires_grad) {
  tensor::Tensor t({rows, cols});
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = static_cast<float>(rng->Uniform(-1, 1));
  return ag::Var(std::move(t), requires_grad);
}

ag::Var SumOf(const std::vector<ag::Var>& parts) {
  ag::Var total = ag::SumAll(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) total = ag::Add(total, ag::SumAll(parts[i]));
  return total;
}

// Times `fwd` and a Backward from the sum of its outputs, `reps` times
// after one warm-up, under spans `fwd_name` / `bwd_name`.
template <typename Fwd>
void TimeModule(const char* fwd_name, const char* bwd_name, int reps, Fwd fwd) {
  for (int i = 0; i <= reps; ++i) {
    ag::Var loss;
    {
      Span sp(fwd_name);
      loss = SumOf(fwd());
    }
    {
      Span sp(bwd_name);
      loss.Backward();
    }
  }
}

void RunModuleProbes(const CamESetup& s, const Options& opts, Report* report) {
  const int reps = opts.tiny ? 2 : 8;
  Rng rng(77);
  std::vector<int64_t> dims;
  if (s.bank.dim_m() > 0) dims.push_back(s.bank.dim_m());
  dims.push_back(s.bank.dim_t());
  dims.push_back(kDim);
  core::TcaConfig tca;  // CamEConfig defaults: 2 heads, interval 5
  std::vector<ag::Var> inputs;
  for (int64_t d : dims) inputs.push_back(RandomVar(kBatch, d, &rng, true));

  core::MmfConfig mc;
  mc.fusion_dim = kFusionDim;
  mc.input_dims = dims;
  mc.tca = tca;
  core::Mmf mmf(mc, &rng);
  TimeModule("core.mmf.fwd", "core.mmf.bwd", reps, [&] { return std::vector<ag::Var>{mmf.Forward(inputs)}; });

  core::RicConfig rc;
  rc.rel_dim = kDim;
  rc.input_dims = dims;
  rc.tca = tca;
  core::Ric ric(rc, &rng);
  ag::Var rel = RandomVar(kBatch, kDim, &rng, true);
  TimeModule("core.ric.fwd", "core.ric.bwd", reps, [&] { return ric.Forward(inputs, rel); });

  core::TcaConfig tc = tca;
  tc.dim = kDim;
  core::Tca tca_mod(tc, &rng);
  ag::Var q = RandomVar(kBatch, kDim, &rng, true);
  ag::Var d = RandomVar(kBatch, kDim, &rng, true);
  TimeModule("core.tca.fwd", "core.tca.bwd", reps, [&] {
    auto [a, b] = tca_mod.Forward(q, d);
    return std::vector<ag::Var>{a, b};
  });

  // Both decoder convolutions at the model's shapes: conv1 over the
  // fusion image (one channel per modality), conv2 over [v_s ; (h, r)].
  const int64_t c1 = static_cast<int64_t>(dims.size());
  nn::Conv2d conv1(c1, 32, 3, 1, &rng);
  nn::Conv2d conv2(2, 32, 3, 1, &rng);
  std::vector<ag::Var> ch1;
  for (int64_t i = 0; i < c1; ++i) ch1.push_back(RandomVar(kBatch, kFusionDim, &rng, true));
  std::vector<ag::Var> ch2 = {RandomVar(kBatch, 2 * kDim, &rng, true),
                              RandomVar(kBatch, 2 * kDim, &rng, true)};
  TimeModule("nn.conv2d.fwd", "nn.conv2d.bwd", reps, [&] {
    return std::vector<ag::Var>{conv1.Forward(baselines::Stack2d(ch1, kReshapeH)),
                                conv2.Forward(baselines::Stack2d(ch2, kReshapeH))};
  });

  for (const char* m : {"core.mmf", "core.ric", "core.tca", "nn.conv2d"}) {
    const std::string base = m;
    report->Metric(base + "_fwd_ms", MedianMs((base + ".fwd").c_str(), 1), "ms");
    report->Metric(base + "_bwd_ms", MedianMs((base + ".bwd").c_str(), 1), "ms");
  }
}

// A replica of Trainer::OneToNEpoch's step over the same public calls,
// on a fresh model, with a span around each call.
void RunStepReplica(const CamESetup& s, const Options& opts, Report* report) {
  const kg::Dataset& ds = s.bkg.dataset;
  std::unique_ptr<baselines::KgcModel> model = MakeCamE(s.ctx);
  model->SetTraining(true);
  const train::TrainConfig tc;
  optim::Adam adam(model->Parameters(), tc.lr, 0.9f, 0.999f, 1e-8f, tc.weight_decay);
  kg::FilterIndex filter(ds.num_entities(), ds.num_relations());
  filter.AddTriples(ds.train);
  std::vector<kg::Triple> triples = ds.TrainWithInverses();
  Rng rng(opts.seed);
  rng.Shuffle(&triples);

  const int64_t n = ds.num_entities();
  const float off = tc.label_smoothing / static_cast<float>(n);
  const float on = 1.0f - tc.label_smoothing + off;
  const int steps = opts.tiny ? 3 : 12;
  const int warmup = 2;
  std::vector<double> tape_nodes;
  std::vector<double> heap_allocs;
  tensor::pool::Stats pool0;
  for (int step = 0; step < steps; ++step) {
    if (step == warmup) pool0 = tensor::pool::GetStats();
    const size_t begin = static_cast<size_t>(step) * kBatch % triples.size();
    const size_t end = std::min(triples.size(), begin + kBatch);
    const int64_t b = static_cast<int64_t>(end - begin);
    const int64_t allocs0 = tensor::pool::HeapAllocCount();
    const int64_t nodes0 = ag::TapeNodesRecordedThisThread();
    Span step_span("train.step");
    std::vector<int64_t> heads;
    std::vector<int64_t> rels;
    tensor::Tensor labels;
    {
      Span sp("train.labels");
      labels = tensor::Tensor::Full({b, n}, off);
      for (size_t i = begin; i < end; ++i) {
        heads.push_back(triples[i].head);
        rels.push_back(triples[i].rel);
      }
      ParallelFor(0, b, 16, [&](int64_t lo, int64_t hi) {
        for (int64_t row = lo; row < hi; ++row) {
          const kg::Triple& t = triples[begin + static_cast<size_t>(row)];
          for (int64_t tail : filter.Tails(t.head, t.rel)) labels.data()[row * n + tail] = on;
        }
      });
    }
    ag::Var scores;
    {
      Span sp("core.score_all_tails.fwd");
      scores = model->ScoreAllTails(heads, rels);
    }
    ag::Var loss;
    {
      Span sp("autograd.loss");
      loss = ag::BceWithLogitsMean(scores, labels);
    }
    if (step >= warmup) {
      tape_nodes.push_back(static_cast<double>(ag::TapeNodesRecordedThisThread() - nodes0));
    }
    adam.ZeroGrad();
    {
      Span sp("autograd.backward");
      loss.Backward();
    }
    {
      Span sp("optim.clip");
      optim::ClipGradNorm(model->Parameters(), tc.grad_clip);
    }
    {
      Span sp("optim.adam_step");
      adam.Step();
    }
    if (step >= warmup) {
      heap_allocs.push_back(static_cast<double>(tensor::pool::HeapAllocCount() - allocs0));
    }
    report->Op("probe.train_step", std::isfinite(loss.value().data()[0]));
  }
  const tensor::pool::Stats pool1 = tensor::pool::GetStats();
  const size_t skip = warmup;
  report->Metric("train.step_ms", MedianMs("train.step", skip), "ms");
  report->Metric("train.labels_ms", MedianMs("train.labels", skip), "ms");
  report->Metric("core.score_all_tails_fwd_ms", MedianMs("core.score_all_tails.fwd", skip), "ms");
  report->Metric("autograd.loss_ms", MedianMs("autograd.loss", skip), "ms");
  report->Metric("autograd.backward_ms", MedianMs("autograd.backward", skip), "ms");
  report->Metric("optim.clip_ms", MedianMs("optim.clip", skip), "ms");
  report->Metric("optim.adam_step_ms", MedianMs("optim.adam_step", skip), "ms");
  const double nodes = Median(tape_nodes);
  const double allocs = Median(heap_allocs);
  report->Metric("autograd.tape_nodes_per_step", nodes, "count");
  report->Metric("tensor.pool_heap_allocs_per_step", allocs, "count");
  report->Counter("autograd.tape_nodes_per_step", static_cast<int64_t>(nodes));
  report->Counter("tensor.pool_heap_allocs_per_step", static_cast<int64_t>(allocs));
  const double acquires = static_cast<double>(pool1.acquires - pool0.acquires);
  report->Metric("tensor.pool_hit_ratio",
                 acquires > 0 ? static_cast<double>(pool1.hits - pool0.hits) / acquires : 0.0,
                 "ratio");
}

// Folds `model` for serving and returns the fold time in ms.
double FoldForServing(baselines::InnerProductKgcModel* ip, infer::FusedEmbeddingTable* table) {
  Span span("infer.fold");
  Stopwatch sw;
  ip->SetTraining(false);
  *table = infer::FusedEmbeddingTable::Build(ip);
  table->InstallFoldedRows(ip);
  return sw.ElapsedMillis();
}

std::unique_ptr<infer::ScoreServer> MakeServer(baselines::InnerProductKgcModel* ip,
                                               const infer::FusedEmbeddingTable* table) {
  Span span("infer.ScoreServer.ctor");
  infer::ScoreServerConfig sc;
  sc.dtype = infer::ScoreDtype::kFp32;
  sc.num_relations = ip->num_relations();
  const infer::QueryEncoder encoder = [ip](const std::vector<int64_t>& h,
                                           const std::vector<int64_t>& r) {
    return ip->ServingQuery(h, r);
  };
  return std::make_unique<infer::ScoreServer>(TracedEncoder(encoder), table, sc);
}

void RunCamEProbesOn(CamESetup* s, const Options& opts, Report* report) {
  SetNumThreads(kTrainThreads);
  RunStepReplica(*s, opts, report);
  RunModuleProbes(*s, opts, report);
}

// ScaleTrainer epoch and ShardStore publish over this graph, so that the
// traced run of came_inram reports the shard-side layers too (in RAM, so
// evictions and faults are genuinely zero).
void RunShardProbes(const CamESetup& s, const infer::FusedEmbeddingTable& table,
                    const Options& opts, Report* report) {
  const kg::Dataset& ds = s.bkg.dataset;
  train::ScaleTrainConfig tc;
  tc.dim = kDim;
  tc.negatives = 1;
  tc.batch_size = 1024;
  Result<train::ScaleTrainer> made =
      train::ScaleTrainer::Create(ds.num_entities(), ds.num_relations(), tc);
  report->Op("probe.scale_train", made.ok());
  if (!made.ok()) return;
  train::ScaleTrainer trainer = std::move(made).value();
  train::VectorTripleSource source(ds.train);
  {
    Span sp("train.ScaleTrainer.TrainEpoch");
    Stopwatch sw;
    Result<double> loss = trainer.TrainEpoch(&source);
    report->Op("probe.scale_train", loss.ok() && std::isfinite(loss.value()));
    report->Metric("train.scale_epoch_s", sw.ElapsedSeconds(), "s");
  }
  const tensor::ShardStore::Stats st = trainer.entity_store().GetStats();
  report->Metric("tensor.shard_evictions_train", static_cast<double>(st.evictions), "count");
  report->Metric("tensor.shard_map_misses_train", static_cast<double>(st.map_misses), "count");

  // Publish the folded candidate matrix as a shard store: seal, quantize.
  const std::string dir = WorkDir(opts) + "/came_shards";
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  const int64_t rows = table.num_entities();
  const int64_t dim = table.dim();
  tensor::ShardStoreOptions so;
  so.rows_per_shard = 256;
  Result<tensor::ShardStore> store = tensor::ShardStore::Create(dir + "/fp32", rows, dim, so);
  report->Op("probe.shard_publish", store.ok());
  if (!store.ok()) return;
  for (int64_t r = 0; r < rows; ++r) {
    std::memcpy(store.value().MutableRow(r), table.candidates().data() + r * dim,
                sizeof(float) * static_cast<size_t>(dim));
  }
  {
    Span sp("tensor.ShardStore.Seal");
    Stopwatch sw;
    const Status st2 = store.value().Seal();
    report->Op("probe.shard_publish", st2.ok());
    report->Metric("tensor.shard_seal_s", sw.ElapsedSeconds(), "s");
  }
  {
    Span sp("tensor.ShardStore.Quantize");
    Stopwatch sw;
    Result<tensor::ShardStore> q = tensor::ShardStore::Quantize(
        &store.value(), dir + "/int8", tensor::ShardDtype::kInt8);
    report->Op("probe.shard_publish", q.ok());
    report->Metric("tensor.shard_quantize_s", sw.ElapsedSeconds(), "s");
  }
  RemoveTree(dir);
}

}  // namespace

void RunCamELayerProbes(const Options& opts, Report* report) {
  std::unique_ptr<CamESetup> s;
  BuildCamESetup(opts, &s);
  report->Metric("encoders.feature_bank_s", s->feature_bank_s, "s");
  RunCamEProbesOn(s.get(), opts, report);
  auto* ip = dynamic_cast<baselines::InnerProductKgcModel*>(s->model.get());
  infer::FusedEmbeddingTable table;
  report->Metric("infer.fold_ms", FoldForServing(ip, &table), "ms");
}

void RunCamEInRam(const Options& opts, Report* report) {
  // ---- set-up, several times; the last one is used.
  std::unique_ptr<CamESetup> s;
  std::vector<double> setup_s;
  const int setups = opts.tiny ? 2 : 9;
  for (int i = 0; i < setups; ++i) {
    setup_s.push_back(BuildCamESetup(opts, &s));
    report->Op("setup", true);
  }
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("datagen.generate_s", s->generate_s, "s");
  report->Metric("encoders.feature_bank_s", s->feature_bank_s, "s");
  report->Metric("kg.filter_build_s", s->filter_build_s, "s");
  const kg::Dataset& ds = s->bkg.dataset;
  report->Info("graph", std::to_string(ds.num_entities()) + " entities, " +
                            std::to_string(ds.train.size()) + " train / " +
                            std::to_string(ds.test.size()) + " test triples");

  // ---- train
  SetNumThreads(kTrainThreads);
  const int epochs = 2;
  std::vector<float> losses;
  Stopwatch train_sw;
  for (int e = 0; e < epochs; ++e) {
    Span sp("train.RunEpoch");
    losses.push_back(s->trainer->RunEpoch());
    report->Op("train", std::isfinite(losses.back()));
  }
  const double train_s = train_sw.ElapsedSeconds();
  const double triples = static_cast<double>(2 * ds.train.size() * epochs);
  report->Metric("train_triples_per_s", triples / train_s, "1/s");
  bool finite = true;
  for (float l : losses) finite = finite && std::isfinite(l);
  const float drop = opts.inject_fault == "loss" ? 0.0f : losses.front() - losses.back();
  report->Check("train.losses_finite", finite, "");
  report->Check("train.losses_decrease", drop > 0,
                "epoch 1 " + std::to_string(losses.front()) + " -> epoch " +
                    std::to_string(epochs) + " " + std::to_string(losses.back()));

  // ---- filtered eval over the whole test split (both directions)
  // Evaluation is deterministic, so it runs several times and the median
  // time is reported; every pass must give the same metrics.
  eval::Metrics m;
  std::vector<double> eval_qps;
  bool same_metrics = true;
  for (int pass = 0; pass < (opts.tiny ? 2 : 5); ++pass) {
    Span sp("eval.Evaluate");
    Stopwatch sw;
    const eval::Metrics got = s->evaluator->Evaluate(s->model.get(), ds.test);
    eval_qps.push_back(static_cast<double>(got.count) / sw.ElapsedSeconds());
    if (pass > 0) same_metrics = same_metrics && got.reciprocal_sum == m.reciprocal_sum;
    m = got;
    Phase& ep = report->phase("eval");
    ep.attempted += got.count;
    ep.succeeded += got.count;
  }
  report->Check("eval.passes_agree", same_metrics, "");
  report->Metric("eval_queries_per_s", Median(eval_qps), "1/s");
  report->Metric("eval_mrr", m.Mrr(), "%");
  report->Check("eval.mrr_finite", std::isfinite(m.Mrr()) && m.count > 0, "");

  // ---- publish: fold + serving table + server
  auto* ip = dynamic_cast<baselines::InnerProductKgcModel*>(s->model.get());
  // Publishing is repeated too (median reported); the last table serves.
  infer::FusedEmbeddingTable table;
  std::vector<double> publish_s;
  std::vector<double> fold_ms;
  std::unique_ptr<infer::ScoreServer> server;
  for (int pass = 0; pass < (opts.tiny ? 2 : 5); ++pass) {
    Stopwatch pub_sw;
    fold_ms.push_back(FoldForServing(ip, &table));
    server = MakeServer(ip, &table);
    publish_s.push_back(pub_sw.ElapsedSeconds());
    report->Op("publish", true);
  }
  report->Metric("publish_s", Median(publish_s), "s");
  report->Metric("infer.fold_ms", Median(fold_ms), "ms");

  // ---- serve: shuffled test (h, r) pairs, both directions
  std::vector<Query> queries;
  for (const kg::Triple& t : ds.test) {
    queries.push_back({t.head, t.rel});
    queries.push_back({t.tail, ds.InverseRelation(t.rel)});
  }
  Rng qrng(opts.seed * 7919 + 1);
  qrng.Shuffle(&queries);
  const uint64_t order_seed = opts.seed * 7919 + 5;
  const size_t min_queries = opts.tiny ? 100 : 1000;
  for (size_t i = 0; queries.size() < min_queries; ++i) queries.push_back(queries[i]);

  SetNumThreads(1);
  const infer::ScoreServer::Stats before = server->GetStats();
  ArmResult direct =
      RunDirectArm(server.get(), queries, order_seed, kServeClients, opts.seconds / 2);
  const infer::ScoreServer::Stats after = server->GetStats();
  ReportArm(direct, "serve", report);
  if (opts.trace) {
    ReportTraceOverhead(server.get(), queries, order_seed, direct, opts.seconds / 2, report);
  }
  int64_t batches = 0;
  int64_t max_coalesced = 0;
  ArmResult batched = RunBatchedArm(server.get(), queries, order_seed, kServeClients,
                                    opts.seconds / 2, &batches, &max_coalesced);
  ReportArm(batched, "batched", report);
  const double served = static_cast<double>(after.queries_served - before.queries_served);
  report->Metric("infer.panels_scored_per_query",
                 static_cast<double>(after.panels_scored - before.panels_scored) / served, "count");
  const double panels = static_cast<double>(after.panels_scored - before.panels_scored +
                                            after.panels_skipped - before.panels_skipped);
  report->Metric("infer.panels_skipped_ratio",
                 static_cast<double>(after.panels_skipped - before.panels_skipped) / panels,
                 "ratio");
  report->Metric("infer.batch_size_mean",
                 static_cast<double>(batched.attempted) / static_cast<double>(std::max<int64_t>(1, batches)),
                 "count");
  report->Metric("infer.max_coalesced", static_cast<double>(max_coalesced), "count");
  report->Metric("tensor.shard_map_misses_per_query", 0.0, "count");
  report->Metric("tensor.shard_pin_blocked_evictions", 0.0, "count");
  if (opts.trace) {
    double enc = 0;
    double sweep = 0;
    ServeLayerTimes(direct.trace_begin_ns, direct.trace_end_ns, &enc, &sweep);
    report->Metric("infer.encode_us", enc, "us");
    report->Metric("infer.sweep_us", sweep, "us");
  }

  // ---- output checks (untimed)
  // Reference pass: one client, the whole stream, exact work counters.
  const infer::ScoreServer::Stats ref0 = server->GetStats();
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

  // Brute-force oracle on a sample: full-width Gemm of the serving query
  // against every candidate, plus bias, ordered by eval::ScoredBefore.
  const int64_t n = table.num_entities();
  const int64_t d = table.dim();
  const size_t sample = std::min<size_t>(queries.size(), opts.tiny ? 32 : 128);
  int64_t mismatches = 0;
  for (size_t i = 0; i < sample; ++i) {
    const tensor::Tensor q = ip->ServingQuery({queries[i].head}, {queries[i].rel});
    std::vector<float> scores(static_cast<size_t>(n));
    tensor::gemm::Gemm(q.data(), table.candidates().data(), scores.data(), 1, d, n,
                       false, true, false);
    if (table.has_bias()) {
      for (int64_t j = 0; j < n; ++j) scores[static_cast<size_t>(j)] += table.bias().data()[j];
    }
    std::vector<int64_t> ids(static_cast<size_t>(n));
    std::iota(ids.begin(), ids.end(), int64_t{0});
    std::partial_sort(ids.begin(), ids.begin() + std::min<int64_t>(kTopK, n), ids.end(),
                      [&](int64_t a, int64_t b) {
                        return eval::ScoredBefore(scores[static_cast<size_t>(a)], a,
                                                  scores[static_cast<size_t>(b)], b);
                      });
    infer::TopKResult want;
    for (int64_t k = 0; k < std::min<int64_t>(kTopK, n); ++k) {
      want.ids.push_back(ids[static_cast<size_t>(k)]);
      want.scores.push_back(scores[static_cast<size_t>(ids[static_cast<size_t>(k)])]);
    }
    infer::TopKResult got = reference[i];
    if (opts.inject_fault == "topk" && i == 0 && !got.scores.empty()) {
      got.scores[0] = std::nextafter(got.scores[0], 1e30f);
    }
    if (!SameTopK(got, want)) ++mismatches;
  }
  report->Check("serve.topk_equals_bruteforce_oracle", mismatches == 0 && ref_failed == 0,
                std::to_string(mismatches) + " of " + std::to_string(sample) + " differ");
  CheckArmsAgainstReference(direct, batched, reference, report);

  // ---- traced-only layer probes over this workload's graph and model
  if (opts.trace) {
    RunShardProbes(*s, table, opts, report);
    RunGemmPanelProbes(std::min<int64_t>(n, 1024), d, report);
    // Step replica and module probes on a fresh CamE over this graph.
    SetNumThreads(kTrainThreads);
    RunCamEProbesOn(s.get(), opts, report);
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
