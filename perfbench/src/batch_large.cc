// batch-large: one closed-loop caller issuing back-to-back Search calls of
// 10,000 queries each (the paper's large batch), explicit single-CTA,
// num_threads = nproc. Measures throughput at recall below 1.
#include <string>
#include <vector>

#include "core/index.h"
#include "core/search.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kBatch = 10000;
constexpr size_t kGtStride = 10;  // ground truth on every 10th query
constexpr double kRecallFloor = 0.90;

struct Phase {
  SearchTally tally;
  double seconds = 0;
  double recall = 0;
  /// Call cycle times (call start to next call start) of untraced [0]
  /// and traced [1] calls; a traced run traces every other call.
  std::vector<double> cycle_ms[2];
};

}  // namespace

void RunBatchLarge(Context* ctx) {
  const Args& args = ctx->args();
  Inputs in = MakeInputs(args.seed, 0, kBatch);

  cagra::Matrix<float> sample(kBatch / kGtStride, in.queries.dim());
  for (size_t s = 0; s < sample.rows(); s++) {
    const float* q = in.queries.Row(s * kGtStride);
    std::copy(q, q + sample.dim(), sample.MutableRow(s));
  }
  std::vector<const float*> rows(kBaseRows);
  std::vector<uint32_t> ids(kBaseRows);
  for (size_t i = 0; i < kBaseRows; i++) {
    rows[i] = in.base.Row(i);
    ids[i] = static_cast<uint32_t>(i);
  }
  const std::vector<uint32_t> truth =
      ExactTopK(rows, ids, in.base.dim(), sample, kK, ctx->nproc());

  // Set-up: the build alone makes the index ready.
  cagra::BuildStats stats;
  const auto b0 = Clock::now();
  auto built = cagra::CagraIndex::Build(in.base, MakeBuildParams(), &stats);
  const auto b1 = Clock::now();
  if (!built.ok()) {
    ctx->Fail("Build: " + built.status().ToString());
    return;
  }
  const cagra::CagraIndex& index = *built;
  ctx->tracer().Record("index.build", b0, b1, -1, 0,
                       {{"rows", static_cast<double>(kBaseRows)}});
  const double build_s = Seconds(b0, b1);
  Info("batch-large: build %.3f s (nn-descent %.3f s, %zu iterations)",
       build_s, stats.knn.seconds, stats.knn.iterations);

  cagra::SearchParams params;
  params.k = kK;
  params.itopk = kItopk;
  params.algo = cagra::SearchAlgo::kSingleCta;
  params.num_threads = ctx->nproc();

  uint64_t call_id = 0;
  auto measure = [&](double seconds, bool traced) {
    Phase phase;
    const auto start = Clock::now();
    Clock::time_point prev_start = start;
    bool prev_traced = false;
    uint64_t calls = 0;
    do {
      const auto t0 = Clock::now();
      if (calls > 0) phase.cycle_ms[prev_traced].push_back(Millis(prev_start, t0));
      prev_start = t0;
      prev_traced = traced && calls++ % 2 == 1;
      auto result = cagra::Search(index, in.queries, params);
      const auto t1 = Clock::now();
      call_id++;
      ctx->attempted += kBatch;
      if (!result.ok()) {
        ctx->failed += kBatch;
        ctx->Fail("Search: " + result.status().ToString());
        continue;
      }
      const cagra::NeighborList& nl = result->neighbors;
      size_t bad = 0;
      if (!result->complete || nl.k != kK || nl.num_queries() != kBatch) {
        bad = kBatch;
        ctx->Fail("Search returned an incomplete or misshapen result");
      } else {
        for (size_t q = 0; q < kBatch; q++) {
          const std::string err = CheckRow(
              nl.Row(q), nl.distances.data() + q * kK, kK,
              [](uint32_t id) { return id < kBaseRows; });
          if (!err.empty()) {
            if (bad++ == 0) ctx->Fail("query " + std::to_string(q) + ": " + err);
          }
        }
      }
      ctx->failed += bad;
      double recall = 0;
      for (size_t s = 0; s < sample.rows(); s++) {
        recall += RowRecall(nl.Row(s * kGtStride), kK, &truth[s * kK], kK);
      }
      phase.recall += recall / static_cast<double>(sample.rows());
      phase.tally.Add(*result, kBatch, Millis(t0, t1));
      if (prev_traced) {
        ctx->tracer().Record("search.batch", t0, t1, -1, call_id,
                             SearchSpanCounts(*result, kBatch));
      }
    } while (Seconds(start, Clock::now()) < seconds);
    phase.seconds = Seconds(start, Clock::now());
    phase.recall /= static_cast<double>(phase.tally.calls);
    return phase;
  };

  // Warm-up call: per-thread search scratch is allocated lazily.
  (void)cagra::Search(index, in.queries, params);

  if (!args.trace) {
    const Phase p = measure(args.seconds, false);
    const double qps = static_cast<double>(p.tally.queries) / p.seconds;
    ctx->Set("setup_s", build_s);
    ctx->Set("write_rows_per_s", static_cast<double>(kBaseRows) / build_s);
    ctx->Set("recall_at_10", p.recall);
    ctx->Set("qps", qps);
    const Percentile p50 = TailPercentile(p.tally.call_ms, 0.50);
    const Percentile p99 = TailPercentile(p.tally.call_ms, 0.99);
    ctx->Set("p50_ms", p50.value);
    ctx->Set("p99_ms", p99.value);
    Info("batch-large: %zu calls x %zu queries in %.3f s: %.1f qps, recall@10 "
         "%.4f, call p50 %.2f ms, p%.1f %.2f ms (n=%zu)",
         p.tally.calls, kBatch, p.seconds, qps, p.recall, p50.value,
         p99.pct * 100, p99.value, p99.n);
    if (p.recall < kRecallFloor) {
      ctx->Fail("recall@10 " + std::to_string(p.recall) + " below floor " +
                std::to_string(kRecallFloor));
    }
    return;
  }

  const Phase traced = measure(args.seconds, true);
  SetBuildLayerMetrics(ctx, {stats}, build_s);
  SetSearchLayerMetrics(ctx, traced.tally, kBaseRows);
  ctx->Set("trace.overhead_frac",
           TailPercentile(traced.cycle_ms[1], 0.50).value /
                   TailPercentile(traced.cycle_ms[0], 0.50).value - 1.0);
  ctx->Set("client.failed_frac",
           static_cast<double>(ctx->failed) / static_cast<double>(ctx->attempted));
  if (traced.recall < kRecallFloor) ctx->Fail("recall@10 below floor");
}

}  // namespace perfbench
