// Shared state and helpers of the three benchmark workloads: the run
// context (arguments, tracer, correctness gate, metrics), input
// generation, exact ground truth, and the timing decorator the serving
// workload puts between the scheduler and the index.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/search.h"
#include "core/searcher.h"
#include "dataset/matrix.h"
#include "trace.h"

namespace perfbench {

// Workload constants shared by all three workloads (DEEP-1M profile).
constexpr const char* kProfile = "DEEP-1M";
constexpr size_t kBaseRows = 50000;
constexpr size_t kGraphDegree = 32;
constexpr size_t kK = 10;
constexpr size_t kItopk = 16;
constexpr uint64_t kModelSeed = 42;  // the generator's mixture model

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
  std::string commit = "unknown";
};

/// Everything a workload reads and fills. Metrics use the names listed
/// in BENCHMARK.json; main() checks the set is complete.
class Context {
 public:
  explicit Context(Args args);

  const Args& args() const { return args_; }
  Tracer& tracer() { return tracer_; }
  size_t nproc() const { return nproc_; }

  /// Correctness gate: records a failure (thread-safe). Any failure
  /// makes the run exit nonzero.
  void Fail(const std::string& what);
  bool correct() const;

  /// Operations attempted / failed (the result line's counts).
  std::atomic<size_t> attempted{0};
  std::atomic<size_t> failed{0};

  void Set(const std::string& name, double value);
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  Args args_;
  Tracer tracer_;
  size_t nproc_;
  mutable std::mutex mu_;
  size_t failures_ = 0;  // guarded by mu_
  std::map<std::string, double> metrics_;
};

/// Prints one informational line to stdout (never the last line).
void Info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

double Seconds(Clock::time_point a, Clock::time_point b);
double Millis(Clock::time_point a, Clock::time_point b);

/// Base rows plus `extra_rows` further rows and `num_queries` queries,
/// drawn by the workload seed from one fixed DEEP-1M synthetic model.
struct Inputs {
  cagra::Matrix<float> base;   ///< kBaseRows rows
  cagra::Matrix<float> extra;  ///< fresh rows for inserts
  cagra::Matrix<float> queries;
};
Inputs MakeInputs(uint64_t seed, size_t extra_rows, size_t num_queries);

/// The workloads' build parameters (graph degree 32, L2).
cagra::BuildParams MakeBuildParams();

/// Rows `first .. first+count` of `m` as their own matrix.
cagra::Matrix<float> Slice(const cagra::Matrix<float>& m, size_t first,
                           size_t count);

/// Exact k nearest neighbours (L2, ties by id) of every row of `queries`
/// among the candidate rows `rows[i]` with ids `ids[i]`: num_queries x k
/// ids, computed by the benchmark itself so a library bug cannot hide in
/// its own ground truth.
std::vector<uint32_t> ExactTopK(const std::vector<const float*>& rows,
                                const std::vector<uint32_t>& ids,
                                size_t dim, const cagra::Matrix<float>& queries,
                                size_t k, size_t threads);

/// Work counters of a stream of searches, summed per call.
struct SearchTally {
  size_t calls = 0;
  size_t queries = 0;
  cagra::KernelCounters counters;
  double cta_queries = 0;       ///< sum of ctas_per_query x batch
  double modeled_seconds = 0;   ///< summed modeled device time
  std::vector<double> call_ms;  ///< host time per call

  void Add(const cagra::SearchResult& result, size_t batch, double ms);
};

/// The work counts a search span carries.
std::vector<std::pair<std::string, double>> SearchSpanCounts(
    const cagra::SearchResult& result, size_t batch);

/// Sets the search.*, distance.* and gpusim.* per-layer metrics from a
/// tally, with the scan fraction taken against `live_rows`.
void SetSearchLayerMetrics(Context* ctx, const SearchTally& tally,
                           double live_rows);

/// Sets the nn_descent.*, optimize.* and index.build_s per-layer metrics
/// of one build (per-shard statistics summed for a sharded build).
void SetBuildLayerMetrics(Context* ctx,
                          const std::vector<cagra::BuildStats>& stats,
                          double build_seconds);

/// Searcher decorator: forwards to `inner` and times every call (the
/// serving scheduler's micro-batches), tallying the work counters and,
/// when tracing, recording a `searcher.search` span per call.
class TimedSearcher : public cagra::Searcher {
 public:
  TimedSearcher(const cagra::Searcher& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] cagra::Result<cagra::SearchResult> Search(
      const cagra::Matrix<float>& queries,
      const cagra::SearchParams& params) const override;
  size_t dim() const override { return inner_.dim(); }
  cagra::DeviceSpec device() const override { return inner_.device(); }

  /// Returns the tally so far and starts a new one.
  SearchTally Take();

 private:
  const cagra::Searcher& inner_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  mutable SearchTally tally_;  // guarded by mu_
};

/// VmHWM of this process in MiB (0 when /proc is unreadable).
double PeakRssMiB();

// The workloads. Each fills every end-to-end metric (untraced run) or
// every per-layer metric it exercises (traced run).
void RunBatchLarge(Context* ctx);
void RunServeSingle(Context* ctx);
void RunChurnSharded(Context* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
