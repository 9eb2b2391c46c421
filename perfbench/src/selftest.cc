// Self-tests of the benchmark's own measurement code: the tail-percentile
// rule, recall@10 with padding, the scan fraction, row well-formedness,
// span self time, and the shape of the printed metric set. Run through
// `python3 perfbench/run.py --selftest`, which also checks BENCHMARK.json
// against the names printed by `perfbench_selftest --list-metrics`.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "metrics.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
    failures++;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; i++) v[i] = static_cast<double>(i + 1);
  return v;
}

void TestTailPercentile() {
  // 1000 samples: p99 is rank 990, which leaves exactly ten beyond it.
  Percentile p = TailPercentile(Iota(1000), 0.99);
  EXPECT(Near(p.value, 990) && Near(p.pct, 0.99) && p.n == 1000);
  // 500 samples: rank 495 leaves five beyond, so it drops to rank 490.
  p = TailPercentile(Iota(500), 0.99);
  EXPECT(Near(p.value, 490) && Near(p.pct, 0.98));
  // The median of an odd count is the middle sample, order-independent.
  p = TailPercentile({5, 1, 3, 2, 4, 9, 8, 7, 6, 10, 11}, 0.5);
  EXPECT(Near(p.value, 6));
  // 21 samples: rank 11 is the only one above the median with ten beyond.
  p = TailPercentile(Iota(21), 0.99);
  EXPECT(Near(p.value, 11));
  // Twenty or fewer: nothing above the median qualifies; it stands in.
  p = TailPercentile(Iota(20), 0.99);
  EXPECT(Near(p.value, 10) && Near(p.pct, 0.5));
  p = TailPercentile(Iota(10), 0.99);
  EXPECT(Near(p.value, 5) && Near(p.pct, 0.5));
  p = TailPercentile({}, 0.99);
  EXPECT(p.n == 0 && p.value == 0);
}

void TestRecall() {
  const uint32_t truth[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const uint32_t exact[10] = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT(Near(RowRecall(exact, 10, truth, 10), 1.0));
  // Padding never matches; duplicates count once.
  const uint32_t padded[10] = {1, 2, 3, 3, kPadId, kPadId, kPadId,
                               kPadId, kPadId, kPadId};
  EXPECT(Near(RowRecall(padded, 10, truth, 10), 0.3));
  // Padded ground truth shrinks the denominator (fewer than k exist).
  const uint32_t short_truth[10] = {1, 2, kPadId, kPadId, kPadId,
                                    kPadId, kPadId, kPadId, kPadId, kPadId};
  EXPECT(Near(RowRecall(padded, 10, short_truth, 10), 1.0));
  const uint32_t all_pad[10] = {kPadId, kPadId, kPadId, kPadId, kPadId,
                                kPadId, kPadId, kPadId, kPadId, kPadId};
  EXPECT(Near(RowRecall(all_pad, 10, truth, 10), 0.0));
  EXPECT(Near(RowRecall(all_pad, 10, all_pad, 10), 1.0));
}

void TestScanFraction() {
  EXPECT(Near(ScanFraction(378.0 * 100, 100, 50000), 378.0 / 50000));
  EXPECT(ScanFraction(1, 0, 50000) == 0);
  EXPECT(ScanFraction(1, 1, 0) == 0);
}

void TestCheckRow() {
  const float inf = std::numeric_limits<float>::infinity();
  auto any = [](uint32_t) { return true; };
  const uint32_t ids[4] = {3, 1, kPadId, kPadId};
  const float d[4] = {0.5f, 0.7f, inf, inf};
  EXPECT(CheckRow(ids, d, 4, any).empty());
  const float unsorted[4] = {0.7f, 0.5f, inf, inf};
  EXPECT(!CheckRow(ids, unsorted, 4, any).empty());
  const uint32_t dup[4] = {3, 3, kPadId, kPadId};
  EXPECT(!CheckRow(dup, d, 4, any).empty());
  const uint32_t gap[4] = {3, kPadId, 1, kPadId};
  const float gap_d[4] = {0.5f, inf, 0.7f, inf};
  EXPECT(!CheckRow(gap, gap_d, 4, any).empty());
  const float finite_pad[4] = {0.5f, 0.7f, 0.9f, inf};
  EXPECT(!CheckRow(ids, finite_pad, 4, any).empty());
  EXPECT(!CheckRow(ids, d, 4, [](uint32_t id) { return id >= 2; }).empty());
}

void TestSelfTime() {
  std::vector<Span> spans(4);
  spans[0] = {"parent", 0.0, 10.0, -1, 1, {}};
  spans[1] = {"a", 1.0, 4.0, 0, 1, {}};
  spans[2] = {"b", 3.0, 6.0, 0, 1, {}};   // overlaps a: union is [1, 6]
  spans[3] = {"c", 9.0, 12.0, 0, 1, {}};  // clipped to the parent at 10
  const std::vector<double> self = ComputeSelfSeconds(spans);
  EXPECT(Near(self[0], 10.0 - 5.0 - 1.0));
  EXPECT(Near(self[1], 3.0) && Near(self[3], 3.0));
}

void TestMetricNames() {
  // Names are unique and within the result format's limits.
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT(seen.insert(m.name).second);
      EXPECT(!m.name.empty() && m.name.size() <= 64 && m.unit.size() <= 16);
    }
  }
  EXPECT(EndToEndMetrics().front().name == "setup_s");
  EXPECT(JsonNumber(0.1) == "0.10000000000000001");
  EXPECT(JsonString("a\"b") == "\"a\\\"b\"");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    // One "<kind> <name> <unit>" line per metric, for run.py's schema check.
    for (const MetricSpec& m : EndToEndMetrics()) {
      std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    for (const MetricSpec& m : PerLayerMetrics()) {
      std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    return 0;
  }
  TestTailPercentile();
  TestRecall();
  TestScanFraction();
  TestCheckRow();
  TestSelfTime();
  TestMetricNames();
  std::printf("perfbench selftest: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}
