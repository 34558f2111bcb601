#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/json_writer.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Counter(const std::string& name, int64_t value) {
  counters_[name] = value;
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

Phase& Report::phase(const std::string& name) { return phases_[name]; }

void Report::Op(const std::string& phase_name, bool ok) {
  Phase& p = phases_[phase_name];
  ++p.attempted;
  if (ok) {
    ++p.succeeded;
  } else {
    ++p.failed;
  }
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  Op("checks", ok);
  const std::string line = name + ": " + (ok ? "ok" : "FAILED") +
                           (detail.empty() ? "" : " (" + detail + ")");
  checks_.push_back(line);
  if (!ok) failed_checks_.push_back(line);
}

int64_t Report::TotalAttempted() const {
  int64_t n = 0;
  for (const auto& [name, p] : phases_) n += p.attempted;
  return n;
}

int64_t Report::TotalFailed() const {
  int64_t n = 0;
  for (const auto& [name, p] : phases_) n += p.failed;
  return n;
}

namespace {

// Shortest text that reads back as the same double; non-finite values
// (a failed query's latency) have no JSON number and print as null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print(const Options& opts,
                   const std::vector<std::string>& names) const {
  std::printf("== %s seed=%llu trace=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  for (const auto& [k, v] : info_) std::printf("info   %-34s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, p] : phases_) {
    std::printf("phase  %-34s attempted=%lld succeeded=%lld failed=%lld\n",
                k.c_str(), static_cast<long long>(p.attempted),
                static_cast<long long>(p.succeeded),
                static_cast<long long>(p.failed));
  }
  for (const std::string& c : checks_) std::printf("check  %s\n", c.c_str());
  for (const auto& [k, v] : counters_) {
    std::printf("count  %-34s %lld\n", k.c_str(), static_cast<long long>(v));
  }
  for (const auto& [k, v] : metrics_) {
    std::printf("metric %-34s %14.6f %s\n", k.c_str(), v.value, v.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, TotalAttempted()));
  line += ", \"failed\": " + std::to_string(TotalFailed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + JsonNumber(it->second.value) +
            ", \"unit\": \"" + it->second.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Report::WriteDetail(const std::string& path) const {
  came::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct());
  w.Key("info");
  w.BeginObject();
  for (const auto& [k, v] : info_) {
    w.Key(k);
    w.String(v);
  }
  w.EndObject();
  w.Key("phases");
  w.BeginObject();
  for (const auto& [k, p] : phases_) {
    w.Key(k);
    w.BeginObject();
    w.Key("attempted");
    w.Int(p.attempted);
    w.Key("succeeded");
    w.Int(p.succeeded);
    w.Key("failed");
    w.Int(p.failed);
    w.EndObject();
  }
  w.EndObject();
  w.Key("checks");
  w.BeginArray();
  for (const std::string& c : checks_) w.String(c);
  w.EndArray();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [k, v] : counters_) {
    w.Key(k);
    w.Int(v);
  }
  w.EndObject();
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [k, v] : metrics_) {
    w.Key(k);
    w.BeginObject();
    w.Key("value");
    w.Double(std::isfinite(v.value) ? v.value : -1.0);
    w.Key("unit");
    w.String(v.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  if (!w.WriteFile(path)) std::fprintf(stderr, "could not write %s\n", path.c_str());
}

double PeakRssMb() {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ProcessCpuSeconds() {
  timespec ts = {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double StealSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  // user nice system idle iowait irq softirq steal, in USER_HZ ticks
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz) : 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string WorkDir(const Options& opts) {
  return opts.out_dir + "/work_" + opts.workload + "_" +
         std::to_string(opts.seed) + (opts.trace ? "_trace" : "");
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
