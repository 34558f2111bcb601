#include "infer/score_server.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
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
// CandidatePanelSource::BiasPanel contract.
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

}  // namespace

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
  if (config_.dtype == ScoreDtype::kFp32) {
    owned_source_ = std::make_unique<FusedTablePanelSource>(table);
  } else {
    // Quantize the candidate matrix once at construction; the sweep then
    // scores against the compact snapshot for the server's lifetime.
    Result<QuantizedTable> qt = QuantizedTable::Build(*table, config_.dtype);
    CAME_CHECK(qt.ok()) << qt.status().ToString();
    owned_qtable_ = std::make_unique<QuantizedTable>(std::move(qt).value());
    owned_source_ =
        std::make_unique<QuantizedTablePanelSource>(owned_qtable_.get());
  }
  source_ = owned_source_.get();
  CAME_CHECK_GT(source_->num_entities(), 0) << "empty fused table";
  if (config_.panel_width <= 0) {
    CAME_LOG(Warning) << "ScoreServerConfig::panel_width "
                      << config_.panel_width << " is not positive; using 1024";
    config_.panel_width = 1024;
  }
}

ScoreServer::ScoreServer(QueryEncoder encoder, CandidatePanelSource* source,
                         const ScoreServerConfig& config)
    : encoder_(std::move(encoder)), source_(source), config_(config) {
  CAME_CHECK(encoder_ != nullptr);
  CAME_CHECK(source_ != nullptr);
  CAME_CHECK_GT(source_->num_entities(), 0) << "empty candidate source";
  if (config_.panel_width <= 0) {
    CAME_LOG(Warning) << "ScoreServerConfig::panel_width "
                      << config_.panel_width << " is not positive; using 1024";
    config_.panel_width = 1024;
  }
}

const QuantizedTable& ScoreServer::quantized_table() const {
  CAME_CHECK(owned_qtable_ != nullptr)
      << "server is not scoring a quantized fused table";
  return *owned_qtable_;
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
  const tensor::Tensor q = EncodeQueries(heads, rels);
  const int64_t b = q.dim(0);
  const int64_t d = q.dim(1);
  const int64_t n = source_->num_entities();

  std::vector<std::vector<Entry>> heaps(static_cast<size_t>(b));
  for (auto& h : heaps) h.reserve(static_cast<size_t>(std::min(k, n)));

  const int64_t panel = std::min(config_.panel_width, n);
  const ScoreDtype dtype = source_->dtype();
  // Query-side state for the quantized paths: int8 queries are encoded
  // once per batch as a two-digit (hi + residual) pair, so the query
  // contributes ~127x less error than the int8 candidate rows (a
  // non-finite query degrades to NaN scales → NaN scores → ranked
  // worst); bf16 panels decode into an fp32 scratch panel and reuse the
  // fp32 GEMM.
  std::vector<int8_t> q8_hi;
  std::vector<float> q8_hi_scales;
  std::vector<int8_t> q8_lo;
  std::vector<float> q8_lo_scales;
  if (dtype == ScoreDtype::kInt8) {
    q8_hi.resize(static_cast<size_t>(b * d));
    q8_hi_scales.resize(static_cast<size_t>(b));
    q8_lo.resize(static_cast<size_t>(b * d));
    q8_lo_scales.resize(static_cast<size_t>(b));
    tensor::qgemm::QuantizeRowsInt8ServingTwoDigit(
        q.data(), b, d, q8_hi.data(), q8_hi_scales.data(), q8_lo.data(),
        q8_lo_scales.data());
  }
  std::optional<tensor::pool::ScratchLease> decode;
  if (dtype == ScoreDtype::kBf16) decode.emplace(panel * d);

  // Pruning state: each query's L2 norm (of the row the GEMM actually
  // scores with — the fp32 row, or the int8 path's dequantized two-digit
  // vector) feeds the per-panel Cauchy–Schwarz bound.
  const bool prune = config_.prune;
  std::vector<double> qnorms;
  double qnorm_max = 0.0;
  if (prune) {
    qnorms.resize(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i) {
      const double qn =
          dtype == ScoreDtype::kInt8
              ? TwoDigitQueryNorm(
                    q8_hi.data() + i * d, q8_hi_scales[static_cast<size_t>(i)],
                    q8_lo.data() + i * d, q8_lo_scales[static_cast<size_t>(i)],
                    d)
              : static_cast<double>(
                    tensor::qgemm::RowNormUpperBoundFp32(q.data() + i * d, d));
      qnorms[static_cast<size_t>(i)] = qn;
      qnorm_max = std::max(qnorm_max, qn);
    }
  }

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
      const double key = qnorm_max * static_cast<double>(seg.max_norm) +
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
          const float bound = PanelScoreBound(qnorms[static_cast<size_t>(i)],
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
    // bias + heap updates) so a concurrent sweep's eviction cannot
    // invalidate the pointers mid-use.
    PanelPin pin(source_, p0, pend);
    // q [B, d] x candidates[p0 .. pend) [pw, d]^T -> [B, pw]. Bitwise
    // equal to columns [p0, pend) of the full [B, N] score GEMM (fp32
    // and bf16 paths), or of the full int8 score GEMM (exact int32
    // accumulation makes panel width irrelevant there too).
    switch (dtype) {
      case ScoreDtype::kFp32:
        tensor::gemm::Gemm(q.data(), source_->Panel(p0, pend), scores.data(),
                           b, d, pw, /*trans_a=*/false, /*trans_b=*/true,
                           /*accumulate=*/false);
        break;
      case ScoreDtype::kInt8:
        tensor::qgemm::GemmInt8TwoDigit(
            q8_hi.data(), q8_hi_scales.data(), q8_lo.data(),
            q8_lo_scales.data(), source_->PanelInt8(p0, pend),
            source_->PanelScales(p0, pend), scores.data(), b, d, pw);
        break;
      case ScoreDtype::kBf16:
        tensor::qgemm::DecodeBf16(source_->PanelBf16(p0, pend), pw * d,
                                  decode->data());
        tensor::gemm::Gemm(q.data(), decode->data(), scores.data(), b, d, pw,
                           /*trans_a=*/false, /*trans_b=*/true,
                           /*accumulate=*/false);
        break;
    }
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
  const tensor::Tensor q = EncodeQueries(heads, rels);
  const int64_t d = q.dim(1);
  const bool has_bias = source_->has_bias();
  const bool prune = config_.prune;

  const std::span<const int64_t> filtered =
      opts.filter != nullptr ? opts.filter->Tails(head, rel)
                             : std::span<const int64_t>();

  const int64_t panel = std::min(config_.panel_width, n);
  const ScoreDtype dtype = source_->dtype();
  std::vector<int8_t> q8_hi;
  std::vector<float> q8_hi_scales;
  std::vector<int8_t> q8_lo;
  std::vector<float> q8_lo_scales;
  if (dtype == ScoreDtype::kInt8) {
    q8_hi.resize(static_cast<size_t>(d));
    q8_hi_scales.resize(1);
    q8_lo.resize(static_cast<size_t>(d));
    q8_lo_scales.resize(1);
    tensor::qgemm::QuantizeRowsInt8ServingTwoDigit(
        q.data(), 1, d, q8_hi.data(), q8_hi_scales.data(), q8_lo.data(),
        q8_lo_scales.data());
  }
  const double qnorm =
      !prune ? 0.0
      : dtype == ScoreDtype::kInt8
          ? TwoDigitQueryNorm(q8_hi.data(), q8_hi_scales[0], q8_lo.data(),
                              q8_lo_scales[0], d)
          : static_cast<double>(
                tensor::qgemm::RowNormUpperBoundFp32(q.data(), d));
  std::optional<tensor::pool::ScratchLease> decode;
  if (dtype == ScoreDtype::kBf16) decode.emplace(panel * d);

  tensor::pool::ScratchLease scores(panel);

  // The target's score first (the accumulator compares against it). A
  // 1-wide panel is bitwise identical to the same element of any wider
  // panel in every dtype: fp32/bf16 because the per-element
  // k-accumulation order does not depend on n, int8 because the dot is
  // exact integer arithmetic.
  float s_target;
  {
    // Pin across both the row and the bias (int8 also reads scales): the
    // second accessor call must not evict the first's mapping under a
    // concurrent sweep.
    PanelPin pin(source_, target, target + 1);
    switch (dtype) {
      case ScoreDtype::kFp32:
        tensor::gemm::Gemm(q.data(), source_->Panel(target, target + 1),
                           &s_target, 1, d, 1, /*trans_a=*/false,
                           /*trans_b=*/true, /*accumulate=*/false);
        break;
      case ScoreDtype::kInt8:
        tensor::qgemm::GemmInt8TwoDigit(
            q8_hi.data(), q8_hi_scales.data(), q8_lo.data(),
            q8_lo_scales.data(), source_->PanelInt8(target, target + 1),
            source_->PanelScales(target, target + 1), &s_target, 1, d, 1);
        break;
      case ScoreDtype::kBf16:
        tensor::qgemm::DecodeBf16(source_->PanelBf16(target, target + 1), d,
                                  decode->data());
        tensor::gemm::Gemm(q.data(), decode->data(), &s_target, 1, d, 1,
                           /*trans_a=*/false, /*trans_b=*/true,
                           /*accumulate=*/false);
        break;
    }
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
      PanelPin pin(source_, p0, pend);
      switch (dtype) {
        case ScoreDtype::kFp32:
          tensor::gemm::Gemm(q.data(), source_->Panel(p0, pend),
                             scores.data(), 1, d, pw, /*trans_a=*/false,
                             /*trans_b=*/true, /*accumulate=*/false);
          break;
        case ScoreDtype::kInt8:
          tensor::qgemm::GemmInt8TwoDigit(
              q8_hi.data(), q8_hi_scales.data(), q8_lo.data(),
              q8_lo_scales.data(), source_->PanelInt8(p0, pend),
              source_->PanelScales(p0, pend), scores.data(), 1, d, pw);
          break;
        case ScoreDtype::kBf16:
          tensor::qgemm::DecodeBf16(source_->PanelBf16(p0, pend), pw * d,
                                    decode->data());
          tensor::gemm::Gemm(q.data(), decode->data(), scores.data(), 1, d,
                             pw, /*trans_a=*/false, /*trans_b=*/true,
                             /*accumulate=*/false);
          break;
      }
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
