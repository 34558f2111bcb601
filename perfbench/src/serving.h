// Closed-loop top-K serving arms shared by every workload: direct
// ScoreServer::TopK calls and the same stream through a BatchingFrontEnd.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "infer/score_server.h"

namespace perfbench {

constexpr int64_t kTopK = 10;
constexpr int kServeClients = 3;

struct Query {
  int64_t head;
  int64_t rel;
};

struct ArmResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  // CPU time of every thread of the process over the arm, per answered
  // query. Steal-free, so it stays put when the host is busy.
  double cpu_us_per_query = 0;
  // Hypervisor steal over the arm, in percent of one vCPU.
  double steal_pct = 0;
  int64_t trace_begin_ns = 0;  // arm window, for span filtering
  int64_t trace_end_ns = 0;
  // Answers to the first pass over the stream, by query index (empty
  // entries for failed queries), for the output checks.
  std::vector<came::infer::TopKResult> first_pass;
};

// Each of `clients` threads claims the next query index, answers it and
// times it. The stream passes over `queries` until `budget_s` has passed,
// and always makes one pass; a failed query counts as +inf latency. The
// first pass keeps the given order; later passes use permutations drawn
// from `order_seed`, the same for every arm given the same seed.
ArmResult RunDirectArm(came::infer::ScoreServer* server,
                       const std::vector<Query>& queries, uint64_t order_seed,
                       int clients, double budget_s);
ArmResult RunBatchedArm(came::infer::ScoreServer* server,
                        const std::vector<Query>& queries, uint64_t order_seed,
                        int clients, double budget_s, int64_t* batches,
                        int64_t* max_coalesced);

// Median encode time and median (TopK - encode) sweep time, in us, over
// the "infer.TopK" spans recorded inside [begin_ns, end_ns).
void ServeLayerTimes(int64_t begin_ns, int64_t end_ns, double* encode_us,
                     double* sweep_us);

// Wraps an encoder so every call records an "infer.encode" span.
came::infer::QueryEncoder TracedEncoder(came::infer::QueryEncoder inner);

// Re-runs the direct arm with tracing off and reports how much slower
// the traced arm was, in percent of the untraced QPS.
void ReportTraceOverhead(came::infer::ScoreServer* server,
                         const std::vector<Query>& queries, uint64_t order_seed,
                         const ArmResult& traced, double budget_s,
                         Report* report);

// Records the arm's metrics and phase accounting under `prefix`
// ("serve" or "batched").
void ReportArm(const ArmResult& arm, const char* prefix, Report* report);

// Direct answers must equal the single-client reference pass bitwise.
// Batched answers must rank the same ids; their scores may differ from
// the reference in the last bits, because the encoder runs on a
// different batch, and the count of such answers is reported.
void CheckArmsAgainstReference(const ArmResult& direct,
                               const ArmResult& batched,
                               const std::vector<came::infer::TopKResult>& reference,
                               Report* report);

bool SameTopK(const came::infer::TopKResult& a,
              const came::infer::TopKResult& b);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
