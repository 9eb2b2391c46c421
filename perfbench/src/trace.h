// In-memory span recorder for the traced benchmark run. Spans are
// recorded by the benchmark around calls into the library's public API
// (never inside the library), kept in memory, and written out once when
// the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One recorded interval. Times are seconds since the tracer's origin.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t parent = -1;   ///< index of the parent span, -1 for a root
  uint64_t request = 0;  ///< request / call id shared by a span tree
  std::vector<std::pair<std::string, double>> counts;
};

/// Thread-safe span store. When disabled or paused, Record is a no-op
/// returning -1, so call sites need no branches of their own.
class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), recording_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return recording_.load(std::memory_order_relaxed); }

  /// Pauses or resumes recording, so a traced run can measure an
  /// untraced phase for comparison. No effect on a disabled tracer.
  void SetRecording(bool on) { recording_.store(enabled_ && on); }

  /// Seconds of `t` since the origin.
  double At(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  /// Appends a span and returns its index (the id children pass as
  /// `parent`), or -1 when tracing is off.
  int64_t Record(std::string name, Clock::time_point start,
                 Clock::time_point end, int64_t parent = -1,
                 uint64_t request = 0,
                 std::vector<std::pair<std::string, double>> counts = {});

  /// Copy of every span recorded so far.
  std::vector<Span> Spans() const;

  /// Total self time per span name, in seconds: each span's duration
  /// minus the part of it that its children cover.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes `{"record": <record_json>, "spans": [...]}` to `path`.
  /// Returns false when the file cannot be written.
  bool WriteJson(const std::string& path, const std::string& record_json) const;

 private:
  const bool enabled_;
  std::atomic<bool> recording_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time of every span in `spans`, in seconds, indexed like `spans`.
std::vector<double> ComputeSelfSeconds(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
