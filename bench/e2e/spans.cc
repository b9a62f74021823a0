#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace xrank::e2e {

int32_t SpanLog::Add(uint64_t request, int32_t parent, std::string name,
                     int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{request, parent, std::move(name), start_ns, end_ns});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Import(uint64_t request, int32_t parent,
                     const query::QueryTrace& trace, int64_t trace_origin_ns) {
  // The trace stores depth, not parents: the open ancestor at each depth is
  // the parent of the next span one level deeper.
  std::vector<int32_t> ancestors = {parent};
  for (const query::QueryTrace::Span& span : trace.spans()) {
    size_t depth = static_cast<size_t>(std::max(0, span.depth));
    if (depth + 1 > ancestors.size()) depth = ancestors.size() - 1;
    ancestors.resize(depth + 1);
    int64_t start = trace_origin_ns + span.start_us * 1000;
    int32_t index = Add(request, ancestors[depth], span.name, start,
                        start + span.duration_us * 1000);
    ancestors.push_back(index);
  }
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& header_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"header\": %s,\n \"fields\": [\"request\", \"parent\", "
               "\"name\", \"start_ns\", \"end_ns\"],\n \"spans\": [",
               header_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  [%" PRIu64 ", %d, \"%s\", %" PRId64 ", %" PRId64 "]",
                 i > 0 ? "," : "", s.request, s.parent, s.name.c_str(),
                 s.start_ns, s.end_ns);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

TraceSummary Summarize(const query::QueryTrace& trace) {
  TraceSummary summary;
  const auto& spans = trace.spans();
  std::vector<std::pair<int64_t, int64_t>> top;
  for (size_t i = 0; i < spans.size(); ++i) {
    const query::QueryTrace::Span& span = spans[i];
    int64_t children = 0;
    for (size_t j = i + 1; j < spans.size() && spans[j].depth > span.depth;
         ++j) {
      if (spans[j].depth == span.depth + 1) children += spans[j].duration_us;
    }
    summary.self_us[span.name] +=
        std::max<int64_t>(0, span.duration_us - children);
    if (span.depth == 0) {
      top.emplace_back(span.start_us, span.start_us + span.duration_us);
      if (span.name.rfind("shard[", 0) == 0) {
        summary.shard_us.push_back(span.duration_us);
      }
    }
  }
  // Shards run in parallel, so top-level spans may overlap: count each
  // covered microsecond once.
  std::sort(top.begin(), top.end());
  int64_t end = INT64_MIN;
  for (const auto& [s, e] : top) {
    int64_t from = std::max(s, end);
    if (e > from) summary.covered_us += e - from;
    end = std::max(end, e);
  }
  return summary;
}

}  // namespace xrank::e2e
