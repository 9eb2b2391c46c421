// Small, dependency-free measurement helpers shared by the workloads and
// covered by selftest.cc: the tail-percentile rule, recall@k with padding,
// the scan fraction, result well-formedness, and the JSON number format.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Padding id the library writes past the valid candidates of a row.
constexpr uint32_t kPadId = 0xffffffffu;

/// A percentile as reported: the value, the percentile it really is
/// (after the ten-samples-beyond rule) and the sample count.
struct Percentile {
  double value = 0;
  double pct = 0;  ///< in [0, 1]
  size_t n = 0;
};

/// Nearest-rank percentile `wanted` (in (0, 1]) of `samples`. Above the
/// median, it is lowered to the highest percentile that still has at
/// least ten samples above its rank, but never below the median (which
/// is what a run with twenty or fewer samples reports). An empty input
/// reports zeros.
inline Percentile TailPercentile(std::vector<double> samples, double wanted) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const long n = static_cast<long>(samples.size());
  const long median = (n + 1) / 2;
  long rank = static_cast<long>(std::ceil(wanted * static_cast<double>(n)));
  rank = std::clamp(rank, 1L, n);
  if (rank > median) rank = std::max(median, std::min(rank, n - 10));
  out.value = samples[rank - 1];
  out.pct = static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

/// recall@k of one result row against one exact ground-truth row: the
/// number of distinct valid result ids found among the first k valid
/// ground-truth ids, over the number of those ground-truth ids. Padding
/// (kPadId) never matches; a ground-truth row with no valid id scores 1.
inline double RowRecall(const uint32_t* result, size_t result_len,
                        const uint32_t* truth, size_t k) {
  std::vector<uint32_t> want;
  for (size_t i = 0; i < k; i++) {
    if (truth[i] != kPadId) want.push_back(truth[i]);
  }
  if (want.empty()) return 1.0;
  std::vector<uint32_t> seen;
  size_t hits = 0;
  for (size_t i = 0; i < result_len; i++) {
    const uint32_t id = result[i];
    if (id == kPadId) continue;
    if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
    seen.push_back(id);
    if (std::find(want.begin(), want.end(), id) != want.end()) hits++;
  }
  return static_cast<double>(hits) / static_cast<double>(want.size());
}

/// Fraction of the live dataset one query scored on average.
inline double ScanFraction(double distances, double queries, double live_rows) {
  if (queries <= 0 || live_rows <= 0) return 0;
  return distances / queries / live_rows;
}

/// Checks one result row of the library's contract: distances ascending,
/// no duplicate valid ids, padding (kPadId with +inf) only after every
/// valid entry, and every valid id accepted by `valid_id`. Returns an
/// empty string when the row is well-formed, else what is wrong.
template <typename ValidId>
std::string CheckRow(const uint32_t* ids, const float* dists, size_t k,
                     ValidId&& valid_id) {
  bool padding = false;
  for (size_t i = 0; i < k; i++) {
    const bool pad = ids[i] == kPadId;
    if (pad) {
      if (!std::isinf(dists[i]) || dists[i] < 0) return "padding without +inf";
      padding = true;
      continue;
    }
    if (padding) return "valid id after padding";
    if (std::isnan(dists[i])) return "NaN distance";
    if (!valid_id(ids[i])) return "invalid id " + std::to_string(ids[i]);
    if (i > 0 && dists[i] < dists[i - 1]) return "distances not ascending";
    for (size_t j = 0; j < i; j++) {
      if (ids[j] == ids[i]) return "duplicate id " + std::to_string(ids[i]);
    }
  }
  return "";
}

/// Formats a metric value with all its digits (round-trips a double).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON string literal with the escapes the benchmark's strings need.
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
