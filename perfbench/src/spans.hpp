// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each public call it makes into a
// library layer (name "<layer>.<what>", e.g. "noc.step"), keeps every span
// in memory with its start, end and parent, and derives per-layer self
// time after the run.  A span's self time is its duration minus the part
// of its interval covered by its children, so nested layers are never
// counted twice.  A disabled recorder records nothing, which is how the
// untraced run drives the same replica code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr;  ///< string literal "<layer>.<what>"
  std::uint64_t start_ns = 0;  ///< since the recorder was created
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 at root
  std::uint64_t duration() const { return end_ns - start_ns; }
};

/// The layer a span belongs to: its name up to the first '.'.
std::string layer_of(const char* name);

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when disabled.
  std::int32_t open(const char* name);
  /// Closes span `index`, which must be the innermost open span.
  void close(std::int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint64_t now_ns() const;
};

/// RAII span: open at construction, close at destruction.
class Scope {
 public:
  Scope(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), index_(recorder.open(name)) {}
  ~Scope() { recorder_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to its own interval.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct NameTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< summed durations
  std::uint64_t self_ns = 0;   ///< summed self times
};

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Summed self time per layer (layer_of each span name).
std::map<std::string, std::uint64_t> self_ns_by_layer(
    const std::vector<Span>& spans);

/// Durations (ns) of every span called `name`, in recording order.
std::vector<double> durations_of(const std::vector<Span>& spans,
                                 const std::string& name);

/// Chrome trace_event JSON ("X" events, microseconds) for spans
/// [0, count): one lane, each event's args carry its layer, index and
/// parent index.  Validates against schemas/trace.schema.json.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              std::size_t count);

}  // namespace perfbench
