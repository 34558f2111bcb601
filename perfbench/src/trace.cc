#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/mutex.h"

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{0};
std::atomic<int64_t> g_next_tid{0};
came::Mutex g_mu;
std::vector<SpanRecord>* g_spans = new std::vector<SpanRecord>();

thread_local int64_t t_current = -1;
thread_local int64_t t_tid = -1;

int64_t ThreadId() {
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

}  // namespace

namespace trace {

void SetEnabled(bool on) { g_enabled.store(on); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<SpanRecord> Snapshot() {
  came::MutexLock lock(&g_mu);
  return *g_spans;
}

std::vector<double> DurationsMs(const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : Snapshot()) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, LayerTime> LayerTable() {
  const std::vector<SpanRecord> spans = Snapshot();
  std::map<int64_t, double> child_ms;  // parent id -> covered by children
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, LayerTime> table;
  for (const SpanRecord& s : spans) {
    LayerTime& t = table[s.name];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++t.count;
    t.total_ms += ms;
    const auto it = child_ms.find(s.id);
    t.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
  }
  return table;
}

bool WriteChromeTrace(const std::string& path) {
  const std::vector<SpanRecord> spans = Snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans.empty() ? 0
                                   : std::min_element(spans.begin(), spans.end(),
                                                      [](const SpanRecord& a,
                                                         const SpanRecord& b) {
                                                        return a.start_ns < b.start_ns;
                                                      })->start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %lld, \"parent\": %lld}}%s\n",
                 s.name, static_cast<int>(std::strcspn(s.name, ".")), s.name,
                 static_cast<long long>(s.tid),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool WriteLayerTable(const std::string& path) {
  const std::map<std::string, LayerTime> table = LayerTable();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tcount\ttotal_ms\tself_ms\tself_ms_per_call\n");
  for (const auto& [name, t] : table) {
    std::fprintf(f, "%s\t%lld\t%.3f\t%.3f\t%.4f\n", name.c_str(),
                 static_cast<long long>(t.count), t.total_ms, t.self_ms,
                 t.self_ms / static_cast<double>(std::max<int64_t>(1, t.count)));
  }
  return std::fclose(f) == 0;
}

}  // namespace trace

Span::Span(const char* name) : name_(name) {
  if (!trace::Enabled()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = trace::NowNs();
}

Span::~Span() {
  if (id_ < 0) return;
  const int64_t end = trace::NowNs();
  t_current = parent_;
  const SpanRecord rec{name_, id_, parent_, ThreadId(), start_ns_, end};
  came::MutexLock lock(&g_mu);
  g_spans->push_back(rec);
}

}  // namespace perfbench
