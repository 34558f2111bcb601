// Pipeline benchmark: one workload per process, end to end.
//
//   came_perfbench --workload came_inram|distmult_shard|distmult_int8
//                  --seed N --seconds S --trace 0|1
//                  [--tiny] [--inject-fault loss|topk] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same pipeline with spans around every library call plus the
// layer probes, and reports the per-layer metrics. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Details
// (phases, checks, exact work counters) go to <out-dir>/<run>.json, and a
// traced run also writes <out-dir>/<run>.trace.json (Chrome trace events)
// and <out-dir>/<run>.layers.tsv (per-span self time).
//
// Exit status: 0 when every output check passed and no operation failed,
// 1 otherwise, 2 on a usage error.
#include <sys/sysinfo.h>
#include <sys/utsname.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/flags.h"
#include "common/parallel_for.h"
#include "tensor/gemm.h"
#include "tensor/qgemm.h"
#include "trace.h"

namespace perfbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",         "train_triples_per_s",     "eval_queries_per_s",
    "eval_mrr",        "publish_s",               "serve_qps",
    "serve_p50_us",    "serve_p99_us",            "serve_cpu_us_per_query",
    "batched_qps",     "batched_cpu_us_per_query", "peak_rss_mb",
};

const std::vector<std::string> kPerLayer = {
    "datagen.generate_s",
    "encoders.feature_bank_s",
    "kg.filter_build_s",
    "train.step_ms",
    "train.labels_ms",
    "core.score_all_tails_fwd_ms",
    "autograd.loss_ms",
    "autograd.backward_ms",
    "autograd.tape_nodes_per_step",
    "optim.clip_ms",
    "optim.adam_step_ms",
    "core.mmf_fwd_ms",
    "core.mmf_bwd_ms",
    "core.ric_fwd_ms",
    "core.ric_bwd_ms",
    "core.tca_fwd_ms",
    "core.tca_bwd_ms",
    "nn.conv2d_fwd_ms",
    "nn.conv2d_bwd_ms",
    "tensor.pool_heap_allocs_per_step",
    "tensor.pool_hit_ratio",
    "train.scale_epoch_s",
    "tensor.shard_evictions_train",
    "tensor.shard_map_misses_train",
    "infer.fold_ms",
    "tensor.shard_seal_s",
    "tensor.shard_quantize_s",
    "infer.encode_us",
    "infer.sweep_us",
    "infer.panels_scored_per_query",
    "infer.panels_skipped_ratio",
    "tensor.shard_map_misses_per_query",
    "tensor.shard_pin_blocked_evictions",
    "tensor.gemm_panel_gflops",
    "tensor.qgemm_panel_gops",
    "infer.batch_size_mean",
    "infer.max_coalesced",
    "batched_p50_us",
    "batched_p99_us",
    "trace.serve_overhead_pct",
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: came_perfbench --workload came_inram|distmult_shard|"
               "distmult_int8 --seed N --seconds S --trace 0|1 [--tiny] "
               "[--inject-fault loss|topk] [--out-dir DIR]\n",
               msg);
  return 2;
}

void RecordHost(const Options& opts, Report* report) {
  struct utsname u = {};
  if (uname(&u) == 0) {
    report->Info("host", u.nodename);
    report->Info("kernel", std::string(u.sysname) + " " + u.release + " " + u.machine);
  }
  struct sysinfo si = {};
  if (sysinfo(&si) == 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f",
                  static_cast<double>(si.loads[0]) / static_cast<double>(1 << SI_LOAD_SHIFT));
    report->Info("loadavg_1m_at_start", buf);
  }
  report->Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report->Info("pool_threads", "train/eval 2, serve 1 with 3 closed-loop clients");
  report->Info("gemm_kernel", came::tensor::gemm::KernelName(came::tensor::gemm::ActiveKernel()));
  report->Info("qgemm_kernel",
               came::tensor::qgemm::KernelName(came::tensor::qgemm::ActiveKernel()));
  report->Info("seconds", std::to_string(opts.seconds));
  report->Info("sizes", opts.tiny ? "tiny" : "full");
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--workload" && value(&v)) {
      opts.workload = v;
    } else if (arg == "--seed" && value(&v)) {
      came::Result<int64_t> r = came::flags::ParseInt(v);
      if (!r.ok() || r.value() < 0) return Usage("bad --seed");
      opts.seed = static_cast<uint64_t>(r.value());
    } else if (arg == "--seconds" && value(&v)) {
      came::Result<double> r = came::flags::ParseDouble(v);
      if (!r.ok() || !(r.value() > 0) || r.value() > 600) return Usage("bad --seconds");
      opts.seconds = r.value();
    } else if (arg == "--trace" && value(&v)) {
      if (v != "0" && v != "1") return Usage("bad --trace");
      opts.trace = v == "1";
    } else if (arg == "--inject-fault" && value(&v)) {
      if (v != "loss" && v != "topk") return Usage("bad --inject-fault");
      opts.inject_fault = v;
    } else if (arg == "--out-dir" && value(&v)) {
      opts.out_dir = v;
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (opts.workload != "came_inram" && opts.workload != "distmult_shard" &&
      opts.workload != "distmult_int8") {
    return Usage("unknown --workload");
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec) return Usage(("cannot create " + opts.out_dir).c_str());

  Report report;
  RecordHost(opts, &report);
  trace::SetEnabled(opts.trace);
  if (opts.workload == "came_inram") {
    RunCamEInRam(opts, &report);
  } else {
    RunDistMult(opts, opts.workload == "distmult_int8", &report);
    // The CamE layers are not on this pipeline; a traced run still probes
    // them, on a CamE built over the came_inram graph for this seed.
    if (opts.trace) RunCamELayerProbes(opts, &report);
  }
  RemoveTree(WorkDir(opts));
  came::SetNumThreads(1);

  const std::string run = opts.out_dir + "/" + opts.workload + "_seed" +
                          std::to_string(opts.seed) + (opts.trace ? "_trace" : "");
  if (opts.trace) {
    trace::SetEnabled(false);
    if (!trace::WriteChromeTrace(run + ".trace.json") || !trace::WriteLayerTable(run + ".layers.tsv")) {
      report.Check("trace.files_written", false, run);
    }
    report.Info("trace_file", run + ".trace.json");
  }
  // A missing metric means a phase failed and the pipeline stopped early.
  const std::vector<std::string>& names = opts.trace ? kPerLayer : kEndToEnd;
  std::string missing;
  for (const std::string& name : names) {
    if (!report.HasMetric(name)) missing += " " + name;
  }
  report.Check("report.every_metric_present", missing.empty(), missing);
  report.WriteDetail(run + ".json");
  report.Print(opts, names);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
