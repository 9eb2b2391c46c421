#include "workload.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <random>
#include <thread>
#include <utility>

#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "stats.h"

namespace perfbench {

Context::Context(Args args)
    : args_(std::move(args)),
      tracer_(args_.trace),
      nproc_(std::max(1u, std::thread::hardware_concurrency())) {}

void Context::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  // The first few failures say what broke; the rest would only repeat.
  if (failures_ < 10) std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
  failures_++;
}

bool Context::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_ == 0;
}

void Context::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Info(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Millis(Clock::time_point a, Clock::time_point b) {
  return Seconds(a, b) * 1e3;
}

cagra::Matrix<float> Slice(const cagra::Matrix<float>& m, size_t first,
                           size_t count) {
  cagra::Matrix<float> out(count, m.dim());
  for (size_t r = 0; r < count; r++) {
    std::copy(m.Row(first + r), m.Row(first + r) + m.dim(), out.MutableRow(r));
  }
  return out;
}

namespace {

/// `count` rows of `pool` picked by a seeded partial Fisher-Yates shuffle:
/// rows [0, count) of the shuffled order, then the next call's rows.
class RowDraw {
 public:
  RowDraw(size_t pool_rows, uint64_t seed) : order_(pool_rows), rng_(seed) {
    for (size_t i = 0; i < pool_rows; i++) order_[i] = i;
  }

  cagra::Matrix<float> Take(const cagra::Matrix<float>& pool, size_t count) {
    cagra::Matrix<float> out(count, pool.dim());
    for (size_t r = 0; r < count; r++, next_++) {
      std::swap(order_[next_], order_[next_ + rng_() % (order_.size() - next_)]);
      const float* row = pool.Row(order_[next_]);
      std::copy(row, row + pool.dim(), out.MutableRow(r));
    }
    return out;
  }

 private:
  std::vector<size_t> order_;
  size_t next_ = 0;
  std::mt19937_64 rng_;
};

}  // namespace

Inputs MakeInputs(uint64_t seed, size_t extra_rows, size_t num_queries) {
  // The mixture model (cluster layout, manifold) is fixed; the seed picks
  // which of its rows and queries a run uses. Drawing from one model
  // keeps seed-to-seed differences to sampling, so recall and search
  // work per query do not swing with a new random cluster layout.
  const cagra::DatasetProfile* profile = cagra::FindProfile(kProfile);
  const cagra::SyntheticData pool = cagra::GenerateDataset(
      *profile, 2 * kBaseRows + extra_rows, 2 * num_queries, kModelSeed);
  RowDraw rows(pool.base.rows(), seed);
  RowDraw queries(pool.queries.rows(), seed ^ 0x9e3779b97f4a7c15ull);
  Inputs in;
  in.base = rows.Take(pool.base, kBaseRows);
  in.extra = rows.Take(pool.base, extra_rows);
  in.queries = queries.Take(pool.queries, num_queries);
  return in;
}

cagra::BuildParams MakeBuildParams() {
  cagra::BuildParams params;
  params.graph_degree = kGraphDegree;
  params.metric = cagra::Metric::kL2;
  return params;
}

namespace {

float L2(const float* a, const float* b, size_t dim) {
  float acc[4] = {0, 0, 0, 0};
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    for (size_t j = 0; j < 4; j++) {
      const float d = a[i + j] - b[i + j];
      acc[j] += d * d;
    }
  }
  for (; i < dim; i++) {
    const float d = a[i] - b[i];
    acc[0] += d * d;
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

}  // namespace

std::vector<uint32_t> ExactTopK(const std::vector<const float*>& rows,
                                const std::vector<uint32_t>& ids, size_t dim,
                                const cagra::Matrix<float>& queries, size_t k,
                                size_t threads) {
  const size_t nq = queries.rows();
  std::vector<uint32_t> out(nq * k, kPadId);
  auto worker = [&](size_t t) {
    std::vector<std::pair<float, uint32_t>> best;
    for (size_t q = t; q < nq; q += threads) {
      best.clear();
      const float* query = queries.Row(q);
      for (size_t i = 0; i < rows.size(); i++) {
        const std::pair<float, uint32_t> cand(L2(query, rows[i], dim), ids[i]);
        if (best.size() == k && !(cand < best.back())) continue;
        best.insert(std::upper_bound(best.begin(), best.end(), cand), cand);
        if (best.size() > k) best.pop_back();
      }
      for (size_t j = 0; j < best.size(); j++) out[q * k + j] = best[j].second;
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; t++) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();
  return out;
}

void SearchTally::Add(const cagra::SearchResult& result, size_t batch,
                      double ms) {
  calls++;
  queries += batch;
  counters.Add(result.counters);
  cta_queries += static_cast<double>(result.launch.ctas_per_query) *
                 static_cast<double>(batch);
  modeled_seconds += result.modeled_seconds;
  call_ms.push_back(ms);
}

std::vector<std::pair<std::string, double>> SearchSpanCounts(
    const cagra::SearchResult& result, size_t batch) {
  const cagra::KernelCounters& c = result.counters;
  return {{"queries", static_cast<double>(batch)},
          {"dists", static_cast<double>(c.distance_computations)},
          {"distance_elements", static_cast<double>(c.distance_elements)},
          {"iterations", static_cast<double>(c.iterations)},
          {"sort_exchanges", static_cast<double>(c.sort_exchanges)},
          {"hash_probes",
           static_cast<double>(c.hash_probes_shared + c.hash_probes_device)},
          {"ctas_per_query", static_cast<double>(result.launch.ctas_per_query)}};
}

void SetSearchLayerMetrics(Context* ctx, const SearchTally& tally,
                           double live_rows) {
  if (tally.queries == 0) return;
  const double q = static_cast<double>(tally.queries);
  const cagra::KernelCounters& c = tally.counters;
  const double dists = static_cast<double>(c.distance_computations);
  ctx->Set("search.dists_per_query", dists / q);
  ctx->Set("search.scan_fraction", ScanFraction(dists, q, live_rows));
  ctx->Set("search.ctas_per_query", tally.cta_queries / q);
  ctx->Set("search.sort_exchanges_per_query",
           static_cast<double>(c.sort_exchanges) / q);
  ctx->Set("search.iters_per_query", static_cast<double>(c.iterations) / q);
  ctx->Set("search.hash_probes_per_query",
           static_cast<double>(c.hash_probes_shared + c.hash_probes_device) / q);
  ctx->Set("search.call_ms_p50", TailPercentile(tally.call_ms, 0.50).value);
  ctx->Set("search.call_ms_p99", TailPercentile(tally.call_ms, 0.99).value);
  const double elements = static_cast<double>(c.distance_elements) / q;
  ctx->Set("distance.elements_per_query", elements);
  // Computed, not measured: every workload searches fp32 rows.
  ctx->Set("distance.bytes_per_query", elements * sizeof(float));
  if (tally.modeled_seconds > 0) {
    ctx->Set("gpusim.modeled_qps", q / tally.modeled_seconds);
  }
}

void SetBuildLayerMetrics(Context* ctx,
                          const std::vector<cagra::BuildStats>& stats,
                          double build_seconds) {
  double knn_s = 0, iterations = 0, dists = 0, optimize_s = 0;
  for (const cagra::BuildStats& s : stats) {
    knn_s += s.knn.seconds;
    iterations += static_cast<double>(s.knn.iterations);
    dists += static_cast<double>(s.knn.distance_computations);
    optimize_s += s.optimize.total_seconds;
  }
  ctx->Set("nn_descent.knn_s", knn_s);
  ctx->Set("nn_descent.iterations", iterations);
  ctx->Set("nn_descent.dists", dists);
  ctx->Set("optimize.total_s", optimize_s);
  ctx->Set("index.build_s", build_seconds);
}

cagra::Result<cagra::SearchResult> TimedSearcher::Search(
    const cagra::Matrix<float>& queries,
    const cagra::SearchParams& params) const {
  const auto t0 = Clock::now();
  auto result = inner_.Search(queries, params);
  const auto t1 = Clock::now();
  if (!result.ok()) return result;
  uint64_t call = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tally_.Add(*result, queries.rows(), Millis(t0, t1));
    call = tally_.calls;
  }
  if (tracer_->enabled()) {
    tracer_->Record("searcher.search", t0, t1, -1, call,
                    SearchSpanCounts(*result, queries.rows()));
  }
  return result;
}

SearchTally TimedSearcher::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(tally_, SearchTally{});
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace perfbench
