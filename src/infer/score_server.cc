#include "infer/score_server.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/kgc_model.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "eval/ranking.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "tensor/storage_pool.h"

namespace came::infer {

namespace {

struct Entry {
  float score;
  int64_t id;
};

// Heap comparator: "better-ranked first" is the heap's less-than, so the
// heap front (the comparator-maximum) is the worst kept entry — the one a
// better candidate evicts.
bool BetterEntry(const Entry& a, const Entry& b) {
  return eval::ScoredBefore(a.score, a.id, b.score, b.id);
}

// Skip-set cursor over a sorted id list (known tails / explicit excludes).
// A default-constructed cursor is inactive (matches nothing); an engaged
// cursor walks the span. The span's storage must outlive the cursor.
class SkipCursor {
 public:
  SkipCursor() = default;
  explicit SkipCursor(std::span<const int64_t> ids)
      : active_(true), ids_(ids), it_(ids_.begin()) {}

  bool active() const { return active_; }

  void Seek(int64_t first_id) {
    if (!active_) return;
    it_ = std::lower_bound(ids_.begin(), ids_.end(), first_id);
  }

  bool Skip(int64_t id) {
    if (!active_) return false;
    while (it_ != ids_.end() && *it_ < id) ++it_;
    return it_ != ids_.end() && *it_ == id;
  }

 private:
  bool active_ = false;
  std::span<const int64_t> ids_;
  std::span<const int64_t>::iterator it_{};
};

SkipCursor CursorOver(const std::vector<int64_t>* ids) {
  return ids == nullptr ? SkipCursor() : SkipCursor(std::span(*ids));
}

// Feeds one panel of scores into the query's bounded heap. `bias` is
// panel-local (bias[j] belongs to entity begin + j), matching the
// ShardStorePanelSource::BiasPanel contract.
void UpdateHeap(std::vector<Entry>* heap, int64_t k, const float* scores,
                const float* bias, int64_t begin, int64_t len,
                SkipCursor filter_cursor, int64_t keep,
                SkipCursor exclude_cursor, SkipCursor restrict_cursor) {
  filter_cursor.Seek(begin);
  exclude_cursor.Seek(begin);
  restrict_cursor.Seek(begin);
  for (int64_t j = 0; j < len; ++j) {
    const int64_t id = begin + j;
    if (restrict_cursor.active() && !restrict_cursor.Skip(id)) continue;
    const bool in_filter = filter_cursor.Skip(id);
    const bool in_exclude = exclude_cursor.Skip(id);
    if ((in_filter || in_exclude) && id != keep) continue;
    const float s = bias != nullptr ? scores[j] + bias[j] : scores[j];
    if (static_cast<int64_t>(heap->size()) < k) {
      heap->push_back({s, id});
      std::push_heap(heap->begin(), heap->end(), BetterEntry);
    } else if (BetterEntry({s, id}, heap->front())) {
      std::pop_heap(heap->begin(), heap->end(), BetterEntry);
      heap->back() = {s, id};
      std::push_heap(heap->begin(), heap->end(), BetterEntry);
    }
  }
}

// Conditionally-held whole-sweep lock (ScoreServerConfig::serialize_sweep).
// The thread-safety analysis cannot express "acquired iff a runtime flag",
// and the mutex guards no fields (it only serialises sweeps), so the
// helper body is exempt from the analysis.
class OptionalSweepLock {
 public:
  explicit OptionalSweepLock(came::Mutex* mu) CAME_NO_THREAD_SAFETY_ANALYSIS
      : mu_(mu) {
    if (mu_ != nullptr) mu_->Lock();
  }
  ~OptionalSweepLock() CAME_NO_THREAD_SAFETY_ANALYSIS {
    if (mu_ != nullptr) mu_->Unlock();
  }
  OptionalSweepLock(const OptionalSweepLock&) = delete;
  OptionalSweepLock& operator=(const OptionalSweepLock&) = delete;

 private:
  came::Mutex* mu_;
};

// Relative safety margin folded into every panel score bound. The sweep's
// fp32 GEMM accumulates with relative error <= dim * 2^-24 against the
// real-valued inner product (|sum q_j*c_j| <= ||q||*||c|| termwise via
// Cauchy–Schwarz, so the error is bounded relative to the bound itself);
// the int8 combine adds a few more ulps. 1e-3 dominates both up to
// dim ~10^4 while costing a negligible amount of pruning slack.
constexpr double kBoundSlack = 1e-3;

// Conservative fp32 upper bound on every serving score in a panel for a
// query of L2 norm `qnorm`: ||q|| * max_row_norm + max_bias, inflated by
// kBoundSlack and rounded *up* to float so the float comparisons against
// heap entries / target scores stay sound. NaN (only reachable via
// 0 * inf, e.g. a zero-norm query against a no-metadata +inf max_norm)
// widens to +inf: "no usable bound, never prune".
float PanelScoreBound(double qnorm, float max_norm, float max_bias) {
  const double qn_mn = qnorm * static_cast<double>(max_norm);
  const double mb = static_cast<double>(max_bias);
  const double bound =
      qn_mn + mb + (std::abs(qn_mn) + std::abs(mb)) * kBoundSlack;
  if (std::isnan(bound)) return std::numeric_limits<float>::infinity();
  float f = static_cast<float>(bound);
  if (static_cast<double>(f) < bound)
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  return f;
}

// L2 norm of the int8 path's *effective* query row: the two-digit
// dequantized vector v_j = hi_j*hi_scale + lo_j*lo_scale the GEMM scores
// with. Computed in double (error is ~ulps, far inside kBoundSlack); NaN
// scales (non-finite query rows) propagate to +inf, which disables
// pruning for that query.
double TwoDigitQueryNorm(const int8_t* hi, float hi_scale, const int8_t* lo,
                         float lo_scale, int64_t d) {
  double sum = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    const double v = static_cast<double>(hi[j]) * hi_scale +
                     static_cast<double>(lo[j]) * lo_scale;
    sum += v * v;
  }
  const double norm = std::sqrt(sum);
  return std::isnan(norm) ? std::numeric_limits<double>::infinity() : norm;
}

// One panel of the sweep plus its cached bound metadata. `key` is the
// batch-level ordering bound (max query norm * max_norm + max_bias),
// NaN-sanitised to +inf so the sort stays a strict weak ordering.
struct PanelSeg {
  int64_t begin = 0;
  int64_t end = 0;
  float max_norm = 0.0f;
  float max_bias = 0.0f;
  double key = 0.0;
};

// Query-side state of one sweep, shared by TopKBatch and RankOf. int8
// stores score a two-digit (hi + residual) encoding of the queries, made
// once per sweep, so the query contributes ~127x less error than the
// int8 candidate rows (a non-finite query degrades to NaN scales → NaN
// scores → ranked worst); bf16 panels decode into a scratch panel and
// reuse the fp32 GEMM. With pruning on, `norms` holds each query's L2
// norm — of the row the GEMM actually scores with — for the
// Cauchy–Schwarz panel bound.
struct QueryBatch {
  QueryBatch(tensor::Tensor queries, ScoreDtype store_dtype, bool prune,
             int64_t panel_rows)
      : q(std::move(queries)),
        b(q.dim(0)),
        d(q.dim(1)),
        dtype(store_dtype) {
    if (dtype == ScoreDtype::kInt8) {
      hi.resize(static_cast<size_t>(b * d));
      hi_scales.resize(static_cast<size_t>(b));
      lo.resize(static_cast<size_t>(b * d));
      lo_scales.resize(static_cast<size_t>(b));
      tensor::qgemm::QuantizeRowsInt8ServingTwoDigit(
          q.data(), b, d, hi.data(), hi_scales.data(), lo.data(),
          lo_scales.data());
    }
    if (dtype == ScoreDtype::kBf16) decode.emplace(panel_rows * d);
    if (!prune) return;
    norms.resize(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i) {
      const size_t si = static_cast<size_t>(i);
      const double qn =
          dtype == ScoreDtype::kInt8
              ? TwoDigitQueryNorm(hi.data() + i * d, hi_scales[si],
                                  lo.data() + i * d, lo_scales[si], d)
              : static_cast<double>(
                    tensor::qgemm::RowNormUpperBoundFp32(q.data() + i * d, d));
      norms[si] = qn;
      max_norm = std::max(max_norm, qn);
    }
  }

  const tensor::Tensor q;  // [B, d] fp32 queries
  const int64_t b;
  const int64_t d;
  const ScoreDtype dtype;
  std::vector<int8_t> hi;
  std::vector<float> hi_scales;
  std::vector<int8_t> lo;
  std::vector<float> lo_scales;
  std::optional<tensor::pool::ScratchLease> decode;
  std::vector<double> norms;  // [B] when pruning
  double max_norm = 0.0;
};

// Scores candidate rows [p0, pend) of `store` against every query into
// `out` ([B, pend - p0], row-major), in the store's precision. Bitwise
// equal to columns [p0, pend) of the full [B, N] score GEMM: the fp32
// and bf16 per-element k-accumulation order does not depend on the n
// blocking, and the int8 dot is exact integer arithmetic. The caller
// holds a pin on the range.
void ScorePanel(QueryBatch* qb, tensor::ShardStore* store, int64_t p0,
                int64_t pend, float* out) {
  const int64_t pw = pend - p0;
  switch (qb->dtype) {
    case ScoreDtype::kFp32:
      tensor::gemm::Gemm(qb->q.data(), store->PanelRows(p0, pend), out, qb->b,
                         qb->d, pw, /*trans_a=*/false, /*trans_b=*/true,
                         /*accumulate=*/false);
      break;
    case ScoreDtype::kInt8:
      tensor::qgemm::GemmInt8TwoDigit(
          qb->hi.data(), qb->hi_scales.data(), qb->lo.data(),
          qb->lo_scales.data(), store->QuantPanelRows(p0, pend),
          store->PanelScales(p0, pend), out, qb->b, qb->d, pw);
      break;
    case ScoreDtype::kBf16:
      tensor::qgemm::DecodeBf16(store->Bf16PanelRows(p0, pend), pw * qb->d,
                                qb->decode->data());
      tensor::gemm::Gemm(qb->q.data(), qb->decode->data(), out, qb->b, qb->d,
                         pw, /*trans_a=*/false, /*trans_b=*/true,
                         /*accumulate=*/false);
      break;
  }
}

// RAII pin lease on the slab backing rows [begin, end): while held, the
// range's panel pointers survive other threads' evictions.
class PanelPin {
 public:
  PanelPin(tensor::ShardStore* store, int64_t begin, int64_t end)
      : store_(store), shard_(store->PinPanel(begin, end)) {}
  ~PanelPin() { store_->UnpinPanel(shard_); }
  PanelPin(const PanelPin&) = delete;
  PanelPin& operator=(const PanelPin&) = delete;

 private:
  tensor::ShardStore* store_;
  int64_t shard_;
};

// The fused-table server's candidates: the table's [N, d] matrix copied
// into a one-shard in-RAM store, sealed (fp32) or quantized to `dtype`.
tensor::ShardStore InRamCandidates(const FusedEmbeddingTable& table,
                                   ScoreDtype dtype) {
  CAME_CHECK_GT(table.num_entities(), 0) << "empty fused table";
  Result<tensor::ShardStore> made =
      tensor::ShardStore::InRam(table.num_entities(), table.dim());
  CAME_CHECK(made.ok()) << made.status().ToString();
  tensor::ShardStore rows = std::move(made).value();
  const int64_t d = table.dim();
  for (int64_t r = 0; r < table.num_entities(); ++r) {
    std::memcpy(rows.MutableRow(r), table.candidates().data() + r * d,
                sizeof(float) * static_cast<size_t>(d));
  }
  if (dtype == ScoreDtype::kFp32) {
    const Status st = rows.Seal();
    CAME_CHECK(st.ok()) << st.ToString();
    return rows;
  }
  Result<tensor::ShardStore> quantized =
      tensor::ShardStore::Quantize(&rows, /*dir=*/"", dtype);
  CAME_CHECK(quantized.ok()) << quantized.status().ToString();
  return std::move(quantized).value();
}

int64_t CheckedPanelWidth(int64_t width) {
  if (width > 0) return width;
  CAME_LOG(Warning) << "ScoreServerConfig::panel_width " << width
                    << " is not positive; using 1024";
  return 1024;
}

}  // namespace

ScoreDtype ScoreDtypeFromEnv() {
  const char* env = std::getenv("CAME_SCORE_DTYPE");
  if (env == nullptr || *env == '\0') return ScoreDtype::kFp32;
  Result<ScoreDtype> parsed = tensor::ParseShardDtype(env);
  if (!parsed.ok()) {
    CAME_LOG(Warning) << "ignoring invalid CAME_SCORE_DTYPE=\"" << env
                      << "\" (want fp32|int8|bf16); serving fp32";
    return ScoreDtype::kFp32;
  }
  return parsed.value();
}

bool ScorePruneFromEnv() {
  const char* v = std::getenv("CAME_SCORE_PRUNE");
  if (v == nullptr || *v == '\0') return true;
  std::string s(v);
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  if (s == "on" || s == "1" || s == "true") return true;
  if (s == "off" || s == "0" || s == "false") return false;
  CAME_LOG(Warning) << "CAME_SCORE_PRUNE=" << v
                    << " is not on/off; defaulting to on";
  return true;
}

ScoreServer::ScoreServer(baselines::InnerProductKgcModel* model,
                         const FusedEmbeddingTable* table,
                         const ScoreServerConfig& config)
    : ScoreServer(
          [model](const std::vector<int64_t>& heads,
                  const std::vector<int64_t>& rels) {
            return model->ServingQuery(heads, rels);
          },
          table, config) {
  CAME_CHECK(model != nullptr);
  if (config_.num_relations <= 0)
    config_.num_relations = model->num_relations();
}

ScoreServer::ScoreServer(QueryEncoder encoder,
                         const FusedEmbeddingTable* table,
                         const ScoreServerConfig& config)
    : encoder_(std::move(encoder)), config_(config) {
  CAME_CHECK(encoder_ != nullptr);
  CAME_CHECK(table != nullptr);
  owned_store_ = std::make_unique<tensor::ShardStore>(
      InRamCandidates(*table, config_.dtype));
  owned_source_ = std::make_unique<ShardStorePanelSource>(owned_store_.get(),
                                                          table->bias());
  source_ = owned_source_.get();
  config_.panel_width = CheckedPanelWidth(config_.panel_width);
}

ScoreServer::ScoreServer(QueryEncoder encoder, ShardStorePanelSource* source,
                         const ScoreServerConfig& config)
    : encoder_(std::move(encoder)), source_(source), config_(config) {
  CAME_CHECK(encoder_ != nullptr);
  CAME_CHECK(source_ != nullptr);
  CAME_CHECK_GT(source_->num_entities(), 0) << "empty candidate source";
  config_.panel_width = CheckedPanelWidth(config_.panel_width);
}

tensor::Tensor ScoreServer::EncodeQueries(const std::vector<int64_t>& heads,
                                          const std::vector<int64_t>& rels) {
  CAME_CHECK_EQ(heads.size(), rels.size());
  CAME_CHECK(!heads.empty());
  tensor::Tensor q = encoder_(heads, rels);
  CAME_CHECK_EQ(q.ndim(), 2);
  CAME_CHECK_EQ(q.dim(0), static_cast<int64_t>(heads.size()));
  CAME_CHECK_EQ(q.dim(1), source_->dim()) << "query/table dim mismatch";
  return q;
}

Status ScoreServer::ValidateIds(const std::vector<int64_t>& heads,
                                const std::vector<int64_t>& rels) const {
  const int64_t n = source_->num_entities();
  for (size_t i = 0; i < heads.size(); ++i) {
    if (heads[i] < 0 || heads[i] >= n) {
      return Status::InvalidArgument(
          "head id " + std::to_string(heads[i]) + " outside [0, " +
          std::to_string(n) + ")");
    }
    if (config_.num_relations > 0 &&
        (rels[i] < 0 || rels[i] >= config_.num_relations)) {
      return Status::InvalidArgument(
          "relation id " + std::to_string(rels[i]) + " outside [0, " +
          std::to_string(config_.num_relations) + ")");
    }
  }
  return Status::OK();
}

Result<TopKResult> ScoreServer::TopK(int64_t head, int64_t rel, int64_t k,
                                     const TopKOptions& opts) {
  Result<std::vector<TopKResult>> batch = TopKBatch({head}, {rel}, k, opts);
  if (!batch.ok()) return batch.status();
  return std::move(batch.value()[0]);
}

Result<std::vector<TopKResult>> ScoreServer::TopKBatch(
    const std::vector<int64_t>& heads, const std::vector<int64_t>& rels,
    int64_t k, const TopKOptions& opts) {
  if (k <= 0)
    return Status::InvalidArgument("top-k requires k > 0, got " +
                                   std::to_string(k));
  if (heads.size() != rels.size())
    return Status::InvalidArgument(
        "head/relation batch size mismatch: " + std::to_string(heads.size()) +
        " vs " + std::to_string(rels.size()));
  if (heads.empty()) return std::vector<TopKResult>();
  CAME_RETURN_IF_ERROR(ValidateIds(heads, rels));

  OptionalSweepLock sweep_lock(config_.serialize_sweep ? &serial_mu_
                                                       : nullptr);
  const int64_t n = source_->num_entities();
  const int64_t panel = std::min(config_.panel_width, n);
  const bool prune = config_.prune;
  QueryBatch qb(EncodeQueries(heads, rels), source_->dtype(), prune, panel);
  const int64_t b = qb.b;

  std::vector<std::vector<Entry>> heaps(static_cast<size_t>(b));
  for (auto& h : heaps) h.reserve(static_cast<size_t>(std::min(k, n)));

  // Panel schedule. With pruning on, panels are visited in descending
  // batch-bound order (best candidates first fill the heaps with strong
  // entries, so later weak panels prune); the tie-break on `begin` keeps
  // the order deterministic. Safe to reorder because eval::ScoredBefore
  // is a strict total order — the top-K *set* (and its sorted output) is
  // sweep-order independent.
  std::vector<PanelSeg> segs;
  segs.reserve(static_cast<size_t>((n + panel - 1) / std::max<int64_t>(
                                                         panel, 1)));
  for (int64_t p0 = 0; p0 < n;) {
    // Clamp to the candidate source's shard boundary; for the in-RAM
    // table PanelEnd is n and this is the plain blocked sweep.
    const int64_t pend =
        std::min(source_->PanelEnd(p0), p0 + config_.panel_width);
    PanelSeg seg;
    seg.begin = p0;
    seg.end = pend;
    if (prune) {
      seg.max_norm = source_->PanelMaxNorm(p0, pend);
      seg.max_bias = source_->PanelMaxBias(p0, pend);
      const double key = qb.max_norm * static_cast<double>(seg.max_norm) +
                         static_cast<double>(seg.max_bias);
      seg.key = std::isnan(key) ? std::numeric_limits<double>::infinity()
                                : key;
    }
    segs.push_back(seg);
    p0 = pend;
  }
  if (prune) {
    std::sort(segs.begin(), segs.end(), [](const PanelSeg& a,
                                           const PanelSeg& b) {
      if (a.key != b.key) return a.key > b.key;
      return a.begin < b.begin;
    });
  }

  tensor::pool::ScratchLease scores(b * panel);
  std::vector<uint8_t> skip(static_cast<size_t>(b), 0);
  int64_t panels_scored = 0;
  int64_t panels_skipped = 0;
  int64_t bound_rejects = 0;
  for (const PanelSeg& seg : segs) {
    const int64_t p0 = seg.begin;
    const int64_t pend = seg.end;
    const int64_t pw = pend - p0;
    // Prune pass: a query skips this panel once its heap holds k entries
    // whose worst member the panel's score bound cannot beat. The bound
    // over-approximates every panel score and seg.begin lower-bounds
    // every panel id, so (bound, begin) ranks at least as well as any
    // (score, id) the panel could produce under ScoredBefore — if even
    // that loses to the heap front, every real candidate does too.
    int64_t nskip = 0;
    if (prune) {
      for (int64_t i = 0; i < b; ++i) {
        const std::vector<Entry>& h = heaps[static_cast<size_t>(i)];
        bool s = false;
        if (static_cast<int64_t>(h.size()) == k) {
          const float bound = PanelScoreBound(qb.norms[static_cast<size_t>(i)],
                                              seg.max_norm, seg.max_bias);
          s = !eval::ScoredBefore(bound, seg.begin, h.front().score,
                                  h.front().id);
        }
        skip[static_cast<size_t>(i)] = s ? 1 : 0;
        if (s) ++nskip;
      }
    } else {
      std::fill(skip.begin(), skip.end(), 0);
    }
    bound_rejects += nskip;
    if (nskip == b) {
      // Every query pruned the panel: no pin, no GEMM, and for a
      // shard-backed source no residency fault.
      ++panels_skipped;
      continue;
    }
    // Pin the panel's backing residency for the whole consume (GEMM +
    // heap updates) so a concurrent sweep's eviction cannot invalidate
    // the pointers mid-use.
    PanelPin pin(source_->store(), p0, pend);
    ScorePanel(&qb, source_->store(), p0, pend, scores.data());
    const float* bias =
        source_->has_bias() ? source_->BiasPanel(p0, pend) : nullptr;
    ++panels_scored;
    ParallelFor(0, b, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        if (skip[static_cast<size_t>(i)] != 0) continue;
        const SkipCursor filtered =
            opts.filter != nullptr
                ? SkipCursor(opts.filter->Tails(heads[static_cast<size_t>(i)],
                                                rels[static_cast<size_t>(i)]))
                : SkipCursor();
        UpdateHeap(&heaps[static_cast<size_t>(i)], k, scores.data() + i * pw,
                   bias, p0, pw, filtered, opts.keep,
                   CursorOver(opts.exclude), CursorOver(opts.restrict_to));
      }
    });
  }

  std::vector<TopKResult> out(static_cast<size_t>(b));
  for (int64_t i = 0; i < b; ++i) {
    std::vector<Entry>& heap = heaps[static_cast<size_t>(i)];
    std::sort(heap.begin(), heap.end(), BetterEntry);
    TopKResult& r = out[static_cast<size_t>(i)];
    r.ids.reserve(heap.size());
    r.scores.reserve(heap.size());
    for (const Entry& e : heap) {
      r.ids.push_back(e.id);
      r.scores.push_back(e.score);
    }
  }
  stats_.queries_served.fetch_add(b, std::memory_order_relaxed);
  stats_.batches_executed.fetch_add(1, std::memory_order_relaxed);
  stats_.panels_scored.fetch_add(panels_scored, std::memory_order_relaxed);
  stats_.panels_skipped.fetch_add(panels_skipped, std::memory_order_relaxed);
  stats_.bound_rejects.fetch_add(bound_rejects, std::memory_order_relaxed);
  return out;
}

Result<double> ScoreServer::RankOf(int64_t head, int64_t rel, int64_t target,
                                   const TopKOptions& opts) {
  const int64_t n = source_->num_entities();
  if (target < 0 || target >= n)
    return Status::InvalidArgument("rank target " + std::to_string(target) +
                                   " outside [0, " + std::to_string(n) + ")");
  const std::vector<int64_t> heads = {head};
  const std::vector<int64_t> rels = {rel};
  CAME_RETURN_IF_ERROR(ValidateIds(heads, rels));

  OptionalSweepLock sweep_lock(config_.serialize_sweep ? &serial_mu_
                                                       : nullptr);
  const bool has_bias = source_->has_bias();
  const bool prune = config_.prune;
  tensor::ShardStore* store = source_->store();

  const std::span<const int64_t> filtered =
      opts.filter != nullptr ? opts.filter->Tails(head, rel)
                             : std::span<const int64_t>();

  const int64_t panel = std::min(config_.panel_width, n);
  QueryBatch qb(EncodeQueries(heads, rels), source_->dtype(), prune, panel);
  const double qnorm = prune ? qb.norms[0] : 0.0;
  tensor::pool::ScratchLease scores(panel);

  // The target's score first (the accumulator compares against it). A
  // 1-wide panel is bitwise identical to the same element of any wider
  // panel in every dtype (see ScorePanel).
  float s_target;
  {
    // Pin across the whole read (int8 reads rows and scales): the second
    // accessor call must not evict the first's mapping under a
    // concurrent sweep.
    PanelPin pin(store, target, target + 1);
    ScorePanel(&qb, store, target, target + 1, &s_target);
    if (has_bias) s_target += source_->BiasPanel(target, target + 1)[0];
  }

  eval::RankAccumulator acc(s_target, target, filtered);
  int64_t panels_scored = 0;
  int64_t panels_skipped = 0;
  int64_t bound_rejects = 0;
  if (prune && std::isnan(s_target)) {
    // A NaN target ranks worst by protocol and Accumulate is a no-op for
    // every candidate (nothing is "better" or "equal" to NaN), so the
    // whole sweep can be skipped: Rank(n) already computes the worst
    // rank from n and the filter alone. Bitwise identical by
    // construction — no scores feed the result. Gated on `prune` so the
    // prune-off configuration stays a faithful full-sweep baseline
    // (panels_skipped stays zero when pruning is disabled).
    for (int64_t p0 = 0; p0 < n;) {
      const int64_t pend =
          std::min(source_->PanelEnd(p0), p0 + config_.panel_width);
      ++panels_skipped;
      ++bound_rejects;
      p0 = pend;
    }
  } else {
    // Panel order is irrelevant here (s_target is fixed before the
    // sweep), so panels run in natural order. A panel is skipped when
    // its score bound is *strictly* below s_target: every candidate in
    // it then scores strictly worse (or NaN, which the accumulator
    // ignores) and contributes neither "better" nor "equal" counts. The
    // bound-equal case must still be scored — equal scores count half a
    // rank each. The target's own panel is never skipped (belt and
    // braces; its bound >= s_target anyway).
    for (int64_t p0 = 0; p0 < n;) {
      const int64_t pend =
          std::min(source_->PanelEnd(p0), p0 + config_.panel_width);
      const int64_t pw = pend - p0;
      if (prune && !(p0 <= target && target < pend)) {
        const float bound =
            PanelScoreBound(qnorm, source_->PanelMaxNorm(p0, pend),
                            source_->PanelMaxBias(p0, pend));
        if (bound < s_target) {
          ++panels_skipped;
          ++bound_rejects;
          p0 = pend;
          continue;
        }
      }
      PanelPin pin(store, p0, pend);
      ScorePanel(&qb, store, p0, pend, scores.data());
      ++panels_scored;
      if (has_bias) {
        const float* bias = source_->BiasPanel(p0, pend);
        for (int64_t j = 0; j < pw; ++j) scores.data()[j] += bias[j];
      }
      acc.Accumulate(scores.data(), p0, pw);
      p0 = pend;
    }
  }
  stats_.queries_served.fetch_add(1, std::memory_order_relaxed);
  stats_.batches_executed.fetch_add(1, std::memory_order_relaxed);
  stats_.panels_scored.fetch_add(panels_scored, std::memory_order_relaxed);
  stats_.panels_skipped.fetch_add(panels_skipped, std::memory_order_relaxed);
  stats_.bound_rejects.fetch_add(bound_rejects, std::memory_order_relaxed);
  return acc.Rank(n);
}

ScoreServer::Stats ScoreServer::GetStats() const {
  Stats s;
  s.queries_served = stats_.queries_served.load(std::memory_order_relaxed);
  s.batches_executed =
      stats_.batches_executed.load(std::memory_order_relaxed);
  s.panels_scored = stats_.panels_scored.load(std::memory_order_relaxed);
  s.panels_skipped = stats_.panels_skipped.load(std::memory_order_relaxed);
  s.bound_rejects = stats_.bound_rejects.load(std::memory_order_relaxed);
  return s;
}

}  // namespace came::infer
