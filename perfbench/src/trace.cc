#include "trace.h"

#include <algorithm>
#include <fstream>

#include "stats.h"

namespace perfbench {

int64_t Tracer::Record(std::string name, Clock::time_point start,
                       Clock::time_point end, int64_t parent, uint64_t request,
                       std::vector<std::pair<std::string, double>> counts) {
  if (!enabled()) return -1;
  Span span;
  span.name = std::move(name);
  span.start = At(start);
  span.end = At(end);
  span.parent = parent;
  span.request = request;
  span.counts = std::move(counts);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> ComputeSelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the
    // parent, swept left to right.
    double covered = 0;
    double reach = lo;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      const double to = std::min(b, hi);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(b, hi));
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = ComputeSelfSeconds(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); i++) out[spans[i].name] += self[i];
  return out;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& record_json) const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = ComputeSelfSeconds(spans);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"record\": " << record_json << ",\n\"spans\": [\n";
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start\": " << JsonNumber(s.start)
        << ", \"end\": " << JsonNumber(s.end) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request
        << ", \"self\": " << JsonNumber(self[i]) << ", \"counts\": {";
    for (size_t c = 0; c < s.counts.size(); c++) {
      out << (c ? ", " : "") << JsonString(s.counts[c].first) << ": "
          << JsonNumber(s.counts[c].second);
    }
    out << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
