#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::uint64_t SpanRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

std::int32_t SpanRecorder::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  open_.push_back(index);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  if (!enabled_) return;
  const std::uint64_t end = now_ns();
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("span closed out of nesting order");
  open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = p.start_ns;  // end of the union so far
    for (auto [b, e] : iv) {
      b = std::max(b, cursor);
      e = std::min(e, p.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = p.duration() - covered;
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::uint64_t> self = self_times(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].duration();
    t.self_ns += self[i];
  }
  return out;
}

std::map<std::string, std::uint64_t> self_ns_by_layer(
    const std::vector<Span>& spans) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, t] : totals_by_name(spans))
    out[layer_of(name.c_str())] += t.self_ns;
  return out;
}

std::vector<double> durations_of(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (name == s.name) out.push_back(static_cast<double>(s.duration()));
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans,
                              std::size_t count) {
  count = std::min(count, spans.size());
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                "\"args\":{\"name\":\"perfbench\"}}");
  out += buf;
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"layer\":\"%s\","
                  "\"id\":\"%zu\",\"parent\":\"%d\"}}",
                  s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.duration()) / 1e3,
                  layer_of(s.name).c_str(), i, s.parent);
    out += buf;
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
