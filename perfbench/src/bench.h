// Shared declarations of the pipeline benchmark: options, the per-run
// report (metrics, phase accounting, exact work counters) and the entry
// points of the three workloads.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // serving window, split between the two arms
  bool trace = false;
  bool tiny = false;         // smoke-test sizes
  std::string inject_fault;  // corrupt one output so a check must fire
  std::string out_dir = ".bench_out";
};

// Attempted / succeeded / failed operations of one pipeline phase. A
// failed operation is a non-ok Result, a broken future or a failed check.
struct Phase {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
};

class Report {
 public:
  // A metric value in the final JSON line; later writes replace earlier.
  void Metric(const std::string& name, double value, const std::string& unit);
  // A work counter that repeats exactly for a given seed and code.
  void Counter(const std::string& name, int64_t value);
  void Info(const std::string& key, const std::string& value);
  bool HasMetric(const std::string& name) const { return metrics_.count(name) > 0; }

  Phase& phase(const std::string& name);
  // Counts one operation of `phase_name` as succeeded or failed.
  void Op(const std::string& phase_name, bool ok);
  // Records an output check; a failing check is a failed operation of the
  // "checks" phase and makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);

  bool correct() const { return failed_checks_.empty() && TotalFailed() == 0; }
  int64_t TotalAttempted() const;
  int64_t TotalFailed() const;

  // Human-readable summary on stdout, the detail file, then the one-line
  // JSON result (the last line of stdout).
  void Print(const Options& opts, const std::vector<std::string>& names) const;
  void WriteDetail(const std::string& path) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, std::string> info_;
  std::map<std::string, Phase> phases_;
  std::vector<std::string> checks_;
  std::vector<std::string> failed_checks_;
};

// Workloads. Each runs set-up → train → filtered eval → publish → serve
// and fills `report`; with opts.trace it also runs the layer probes.
void RunCamEInRam(const Options& opts, Report* report);
void RunDistMult(const Options& opts, bool int8, Report* report);

// Layer probes that traced runs call outside their own pipeline: the
// CamE step replica and modules on a CamE built for the purpose
// (came_pipeline.cc), and the fp32/int8 panel kernels (distmult_pipeline.cc).
void RunCamELayerProbes(const Options& opts, Report* report);
void RunGemmPanelProbes(int64_t panel_rows, int64_t dim, Report* report);

// Small helpers (report.cc).
double PeakRssMb();
// CPU time of all the process's threads, in seconds. On a guest kernel
// with paravirtual steal accounting, time the hypervisor keeps a vCPU
// from running is not counted.
double ProcessCpuSeconds();
// Time the hypervisor kept this guest's vCPUs from running, summed over
// vCPUs, in seconds (the steal column of /proc/stat; 0 where absent).
double StealSeconds();
double Median(std::vector<double> v);
// Nearest-rank percentile; +inf samples (failed queries) sort last.
double Percentile(std::vector<double> v, double p);
std::string WorkDir(const Options& opts);  // per-run scratch, under out_dir
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
