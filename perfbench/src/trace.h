// In-memory span tracer for the benchmark's own call sites. A Span wraps
// one call into a library layer; it records name, thread, start, end and
// the enclosing span on the same thread. Spans are kept in memory and
// written at exit as Chrome trace-event JSON plus a per-layer self-time
// table. When tracing is off a Span costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;
  int64_t id;
  int64_t parent;  // -1 for a root span
  int64_t tid;
  int64_t start_ns;
  int64_t end_ns;
};

struct LayerTime {
  int64_t count = 0;
  double total_ms = 0;  // wall time inside the span
  double self_ms = 0;   // total minus time covered by child spans
};

namespace trace {

void SetEnabled(bool on);
bool Enabled();
int64_t NowNs();

// All spans recorded so far (finished ones only), in end order.
std::vector<SpanRecord> Snapshot();
// Durations in ms of every finished span named `name`.
std::vector<double> DurationsMs(const std::string& name);
// Per-name totals and self time over every finished span.
std::map<std::string, LayerTime> LayerTable();

// Writes {"traceEvents": [...]} (complete "X" events, microseconds) and
// returns false on an I/O error.
bool WriteChromeTrace(const std::string& path);
// Writes the self-time table as TSV; returns false on an I/O error.
bool WriteLayerTable(const std::string& path);

}  // namespace trace

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  int64_t start_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
