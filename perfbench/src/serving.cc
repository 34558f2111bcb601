#include "serving.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <chrono>
#include <cstring>
#include <exception>
#include <future>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "common/random.h"
#include "infer/batching_front_end.h"
#include "trace.h"

namespace perfbench {

using came::infer::TopKResult;

namespace {

constexpr double kFailedLatency = std::numeric_limits<double>::infinity();
constexpr int64_t kMaxWindows = 10;
constexpr int64_t kMinWindowQueries = 1000;
// Permutations an arm cycles through after its first pass. Slab faults
// and coalescing depend on the order of the stream, so one order per run
// would make a run's cost hang on its seed; tens of them average it out.
constexpr size_t kPassOrders = 64;

// Runs `clients` closed-loop threads over the repeating stream. Each
// calls `answer(i, &result)` for query i and returns whether it worked.
template <typename AnswerFn>
ArmResult RunArm(const std::vector<Query>& queries, uint64_t order_seed,
                 int clients, double budget_s, AnswerFn answer) {
  const int64_t n = static_cast<int64_t>(queries.size());
  std::vector<std::vector<int64_t>> orders(kPassOrders, std::vector<int64_t>(queries.size()));
  came::Rng rng(order_seed);
  for (size_t p = 0; p < kPassOrders; ++p) {
    std::iota(orders[p].begin(), orders[p].end(), 0);
    if (p > 0) rng.Shuffle(&orders[p]);
  }
  ArmResult arm;
  arm.first_pass.resize(queries.size());
  std::atomic<int64_t> next{0};
  std::atomic<bool> stop{false};
  // Per client: (completion time since start in ns, latency in us).
  std::vector<std::vector<std::pair<int64_t, double>>> lat(static_cast<size_t>(clients));
  const double cpu0 = ProcessCpuSeconds();
  const double steal0 = StealSeconds();

  arm.trace_begin_ns = trace::NowNs();
  const int64_t start_ns = arm.trace_begin_ns;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const int64_t i = next.fetch_add(1);
        if (i >= n && stop.load()) return;
        TopKResult result;
        const int64_t t0 = trace::NowNs();
        const std::vector<int64_t>& order = orders[static_cast<size_t>(i / n) % kPassOrders];
        const bool ok = answer(order[static_cast<size_t>(i % n)], &result);
        const int64_t t1 = trace::NowNs();
        lat[static_cast<size_t>(c)].emplace_back(
            t1 - start_ns, ok ? static_cast<double>(t1 - t0) / 1e3 : kFailedLatency);
        if (i < n && ok) arm.first_pass[static_cast<size_t>(i)] = std::move(result);
      }
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(budget_s);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  arm.trace_end_ns = trace::NowNs();
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double wall_s = static_cast<double>(arm.trace_end_ns - start_ns) / 1e9;
  arm.steal_pct = (StealSeconds() - steal0) / wall_s * 100.0;

  // Medians over up to kMaxWindows equal slices of the arm, so a burst of
  // load from outside the process moves one slice, not the result. Each
  // slice holds at least kMinWindowQueries answers, which leaves at
  // least ten samples beyond its p99.
  int64_t total = 0;
  for (const auto& v : lat) total += static_cast<int64_t>(v.size());
  const int windows = static_cast<int>(
      std::clamp<int64_t>(total / kMinWindowQueries, 1, kMaxWindows));
  const double window_ns = static_cast<double>(arm.trace_end_ns - start_ns) / windows;
  std::vector<std::vector<double>> by_window(static_cast<size_t>(windows));
  for (const auto& v : lat) {
    for (const auto& [done_ns, us] : v) {
      const int w = std::min(windows - 1, static_cast<int>(static_cast<double>(done_ns) / window_ns));
      by_window[static_cast<size_t>(w)].push_back(us);
      ++arm.attempted;
      if (us == kFailedLatency) ++arm.failed;
    }
  }
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p99;
  for (int w = 0; w < windows; ++w) {
    const std::vector<double>& v = by_window[static_cast<size_t>(w)];
    if (v.empty()) continue;
    int64_t ok = 0;
    for (double us : v) ok += us == kFailedLatency ? 0 : 1;
    qps.push_back(static_cast<double>(ok) / (window_ns / 1e9));
    p50.push_back(Percentile(v, 0.50));
    p99.push_back(Percentile(v, 0.99));
  }
  arm.cpu_us_per_query =
      cpu_s * 1e6 / static_cast<double>(std::max<int64_t>(1, arm.attempted - arm.failed));
  arm.qps = Median(qps);
  arm.p50_us = Median(p50);
  arm.p99_us = Median(p99);
  return arm;
}

}  // namespace

ArmResult RunDirectArm(came::infer::ScoreServer* server,
                       const std::vector<Query>& queries, uint64_t order_seed,
                       int clients, double budget_s) {
  return RunArm(queries, order_seed, clients, budget_s, [&](int64_t i, TopKResult* out) {
    Span span("infer.TopK");
    came::Result<TopKResult> r =
        server->TopK(queries[static_cast<size_t>(i)].head,
                     queries[static_cast<size_t>(i)].rel, kTopK);
    if (!r.ok()) return false;
    *out = std::move(r).value();
    return !out->ids.empty();
  });
}

ArmResult RunBatchedArm(came::infer::ScoreServer* server,
                        const std::vector<Query>& queries, uint64_t order_seed,
                        int clients, double budget_s, int64_t* batches,
                        int64_t* max_coalesced) {
  came::infer::BatchingFrontEnd front(server, kTopK);
  ArmResult arm =
      RunArm(queries, order_seed, clients, budget_s, [&](int64_t i, TopKResult* out) {
        Span span("infer.BatchingFrontEnd.request");
        std::future<TopKResult> f = front.Submit(
            queries[static_cast<size_t>(i)].head,
            queries[static_cast<size_t>(i)].rel);
        try {
          *out = f.get();
        } catch (const std::exception&) {
          return false;  // a broken future is a failed query
        }
        return !out->ids.empty();
      });
  const came::infer::BatchingFrontEnd::Stats stats = front.GetStats();
  *batches = stats.batches_executed;
  *max_coalesced = stats.max_coalesced;
  return arm;
}

void ServeLayerTimes(int64_t begin_ns, int64_t end_ns, double* encode_us,
                     double* sweep_us) {
  const std::vector<SpanRecord> spans = trace::Snapshot();
  std::map<int64_t, double> encode_by_parent;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, "infer.encode") == 0 && s.parent >= 0) {
      encode_by_parent[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::vector<double> enc;
  std::vector<double> sweep;
  for (const SpanRecord& s : spans) {
    if (std::strcmp(s.name, "infer.TopK") != 0) continue;
    if (s.start_ns < begin_ns || s.end_ns > end_ns) continue;
    const double total = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const auto it = encode_by_parent.find(s.id);
    const double e = it == encode_by_parent.end() ? 0.0 : it->second;
    enc.push_back(e);
    sweep.push_back(total - e);
  }
  *encode_us = Median(enc);
  *sweep_us = Median(sweep);
}

came::infer::QueryEncoder TracedEncoder(came::infer::QueryEncoder inner) {
  return [inner = std::move(inner)](const std::vector<int64_t>& heads,
                                    const std::vector<int64_t>& rels) {
    Span span("infer.encode");
    return inner(heads, rels);
  };
}

void ReportTraceOverhead(came::infer::ScoreServer* server,
                         const std::vector<Query>& queries, uint64_t order_seed,
                         const ArmResult& traced, double budget_s,
                         Report* report) {
  trace::SetEnabled(false);
  const ArmResult plain = RunDirectArm(server, queries, order_seed, kServeClients, budget_s);
  trace::SetEnabled(true);
  report->Metric("trace.serve_overhead_pct", (plain.qps / traced.qps - 1.0) * 100.0, "%");
}

void ReportArm(const ArmResult& arm, const char* prefix, Report* report) {
  Phase& p = report->phase(prefix);
  p.attempted += arm.attempted;
  p.failed += arm.failed;
  p.succeeded += arm.attempted - arm.failed;
  const std::string pre = prefix;
  report->Metric(pre + "_qps", arm.qps, "1/s");
  report->Metric(pre + "_p50_us", arm.p50_us, "us");
  report->Metric(pre + "_p99_us", arm.p99_us, "us");
  report->Metric(pre + "_cpu_us_per_query", arm.cpu_us_per_query, "us");
  char steal[32];
  std::snprintf(steal, sizeof(steal), "%.1f", arm.steal_pct);
  report->Info(pre + "_steal_pct_of_one_vcpu", steal);
}

void CheckArmsAgainstReference(const ArmResult& direct,
                               const ArmResult& batched,
                               const std::vector<TopKResult>& reference,
                               Report* report) {
  int64_t direct_diff = 0;
  int64_t batched_ids_diff = 0;
  int64_t batched_bits_diff = 0;
  double max_rel = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    const TopKResult& want = reference[i];
    if (!SameTopK(direct.first_pass[i], want)) ++direct_diff;
    const TopKResult& got = batched.first_pass[i];
    if (got.ids != want.ids) {
      ++batched_ids_diff;
      continue;
    }
    if (!SameTopK(got, want)) ++batched_bits_diff;
    // Difference relative to the answer's largest |score|, so a score
    // near zero does not blow the ratio up.
    double scale = 1e-30;
    for (float v : want.scores) scale = std::max(scale, std::fabs(static_cast<double>(v)));
    for (size_t k = 0; k < want.scores.size(); ++k) {
      const double diff = std::fabs(static_cast<double>(want.scores[k]) - got.scores[k]);
      max_rel = std::max(max_rel, diff / scale);
    }
  }
  const std::string n = std::to_string(reference.size());
  char max_rel_text[32];
  std::snprintf(max_rel_text, sizeof(max_rel_text), "%.3g", max_rel);
  report->Check("serve.direct_equals_reference", direct_diff == 0,
                std::to_string(direct_diff) + " of " + n + " differ");
  report->Check("serve.batched_ids_equal_reference", batched_ids_diff == 0 && max_rel <= 1e-5,
                std::to_string(batched_ids_diff) + " of " + n +
                    " rank other ids; max relative score difference " + max_rel_text);
  report->Info("batched_answers_not_bitwise", std::to_string(batched_bits_diff) + " of " + n);
}

bool SameTopK(const TopKResult& a, const TopKResult& b) {
  return a.ids == b.ids && a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(),
                     a.scores.size() * sizeof(float)) == 0;
}

}  // namespace perfbench
