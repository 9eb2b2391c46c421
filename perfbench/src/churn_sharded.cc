// churn-sharded: a 4-shard ShardedCagraIndex under concurrent writes and
// reads. One writer loops Add(slab of fresh rows) then Remove(as many of
// the oldest live ids), keeping 50k rows live; background compaction runs
// on its default knobs. One reader issues closed-loop 32-query sharded
// Searches (explicit single-CTA) beside it. The run ends with
// WaitForCompaction and a recall check over the final live set.
//
// The reader passes num_threads = nproc, so its searches run on its own
// threads. On the global pool they queue behind the compaction tasks of
// all four shards, which fire together about once per run, and the read
// p99 then swung by 59% (IQR over median) across seeds.
#include <algorithm>
#include <atomic>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kSlab = 128;          // rows per Add, ids per Remove
constexpr size_t kReadBatch = 32;
constexpr size_t kReadSlices = 32;     // distinct 32-query read batches
constexpr size_t kRecallQueries = 1000;
constexpr size_t kExtraRows = 150000;  // fresh rows the writer may insert
constexpr double kRecallFloor = 0.80;

/// The benchmark's own ledger of the index contents, owned by the writer
/// while a phase runs.
struct Ledger {
  std::deque<uint32_t> live;          // ascending: oldest first
  std::vector<const float*> rows;     // global id -> vector
  size_t extra_used = 0;
  /// Every id below is removed; a read that started after the Remove
  /// that raised it returned must never see one of them.
  std::atomic<uint32_t> watermark{0};
  /// Ids below may appear in results (raised before each Add).
  std::atomic<uint32_t> limit{0};
};

struct Phase {
  SearchTally reads;
  std::vector<double> add_ms, remove_ms;
  size_t rows_written = 0;
  double writer_seconds = 0;
  double reader_seconds = 0;
  double tombstone_frac_max = 0;
  /// Read cycle times (call start to next call start) of untraced [0]
  /// and traced [1] calls; a traced run traces every other read.
  std::vector<double> cycle_ms[2];
};

Phase RunPhase(Context* ctx, cagra::ShardedCagraIndex* index, Ledger* ledger,
               const cagra::Matrix<float>& extra,
               const std::vector<cagra::Matrix<float>>& reads,
               const cagra::SearchParams& params, double seconds,
               bool traced) {
  Phase phase;
  std::atomic<bool> stop{false};
  Tracer& tracer = ctx->tracer();

  std::thread writer([&] {
    const auto start = Clock::now();
    std::vector<uint32_t> ids;
    for (uint64_t op = 0; !stop.load(); op++) {
      if (ledger->extra_used + kSlab > extra.rows()) {
        Info("churn-sharded: writer ran out of fresh rows");
        break;
      }
      const cagra::Matrix<float> slab = Slice(extra, ledger->extra_used, kSlab);
      const uint32_t first = static_cast<uint32_t>(ledger->rows.size());
      ledger->limit.store(first + kSlab);
      ids.clear();
      const auto a0 = Clock::now();
      const cagra::Status added = index->Add(slab, &ids);
      const auto a1 = Clock::now();
      ctx->attempted++;
      if (!added.ok()) {
        ctx->failed++;
        ctx->Fail("Add: " + added.ToString());
        break;
      }
      bool contiguous = ids.size() == kSlab;
      for (size_t j = 0; contiguous && j < kSlab; j++) {
        contiguous = ids[j] == first + j;
      }
      if (!contiguous) {
        ctx->Fail("Add assigned ids other than the next " +
                  std::to_string(kSlab) + " in order");
        break;
      }
      for (size_t j = 0; j < kSlab; j++) {
        ledger->rows.push_back(extra.Row(ledger->extra_used + j));
        ledger->live.push_back(first + static_cast<uint32_t>(j));
      }
      ledger->extra_used += kSlab;

      const std::vector<uint32_t> victims(ledger->live.begin(),
                                          ledger->live.begin() + kSlab);
      const auto r0 = Clock::now();
      const cagra::Status removed = index->Remove(victims);
      const auto r1 = Clock::now();
      ctx->attempted++;
      if (!removed.ok()) {
        ctx->failed++;
        ctx->Fail("Remove: " + removed.ToString());
        break;
      }
      ledger->live.erase(ledger->live.begin(), ledger->live.begin() + kSlab);
      ledger->watermark.store(victims.back() + 1);
      phase.rows_written += 2 * kSlab;
      phase.add_ms.push_back(Millis(a0, a1));
      phase.remove_ms.push_back(Millis(r0, r1));
      const double dead = static_cast<double>(index->tombstone_count());
      const double live = static_cast<double>(index->live_size());
      phase.tombstone_frac_max =
          std::max(phase.tombstone_frac_max, dead / (dead + live));
      tracer.Record("index.add", a0, a1, -1, op, {{"rows", kSlab}});
      tracer.Record("index.remove", r0, r1, -1, op, {{"rows", kSlab}});
    }
    phase.writer_seconds = Seconds(start, Clock::now());
  });

  std::thread reader([&] {
    // Untimed first read: the reader thread's search pool and scratch are
    // created lazily.
    (void)index->Search(reads[0], params);
    const auto start = Clock::now();
    Clock::time_point prev_start = start;
    bool prev_traced = false;
    for (uint64_t call = 0; !stop.load(); call++) {
      const cagra::Matrix<float>& q = reads[call % reads.size()];
      const uint32_t watermark = ledger->watermark.load();
      const auto t0 = Clock::now();
      if (call > 0) phase.cycle_ms[prev_traced].push_back(Millis(prev_start, t0));
      prev_start = t0;
      prev_traced = traced && call % 2 == 1;
      auto result = index->Search(q, params);
      const auto t1 = Clock::now();
      const uint32_t limit = ledger->limit.load();
      ctx->attempted += kReadBatch;
      if (!result.ok() || !result->complete) {
        ctx->failed += kReadBatch;
        ctx->Fail("sharded Search failed or came back incomplete");
        continue;
      }
      const cagra::NeighborList& nl = result->neighbors;
      size_t bad = 0;
      for (size_t r = 0; r < kReadBatch; r++) {
        const std::string err =
            CheckRow(nl.Row(r), nl.distances.data() + r * kK, kK,
                     [&](uint32_t id) { return id >= watermark && id < limit; });
        if (!err.empty() && bad++ == 0) {
          ctx->Fail("read after removal watermark " +
                    std::to_string(watermark) + ": " + err);
        }
      }
      ctx->failed += bad;
      phase.reads.Add(*result, kReadBatch, Millis(t0, t1));
      if (prev_traced) {
        tracer.Record("sharded.search", t0, t1, -1, call,
                      SearchSpanCounts(*result, kReadBatch));
      }
    }
    phase.reader_seconds = Seconds(start, Clock::now());
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  writer.join();
  reader.join();
  return phase;
}

}  // namespace

void RunChurnSharded(Context* ctx) {
  const Args& args = ctx->args();
  Inputs in = MakeInputs(args.seed, kExtraRows,
                         kReadSlices * kReadBatch + kRecallQueries);
  std::vector<cagra::Matrix<float>> reads;
  for (size_t s = 0; s < kReadSlices; s++) {
    reads.push_back(Slice(in.queries, s * kReadBatch, kReadBatch));
  }
  const cagra::Matrix<float> recall_queries =
      Slice(in.queries, kReadSlices * kReadBatch, kRecallQueries);

  // Set-up: the sharded build.
  cagra::ShardedBuildStats stats;
  const auto b0 = Clock::now();
  auto built = cagra::ShardedCagraIndex::Build(in.base, MakeBuildParams(),
                                               kShards, &stats);
  const auto b1 = Clock::now();
  if (!built.ok()) {
    ctx->Fail("ShardedCagraIndex::Build: " + built.status().ToString());
    return;
  }
  cagra::ShardedCagraIndex& index = *built;
  ctx->tracer().Record("index.build", b0, b1, -1, 0,
                       {{"rows", static_cast<double>(kBaseRows)},
                        {"shards", static_cast<double>(kShards)}});
  const double build_s = Seconds(b0, b1);
  Info("churn-sharded: %zu-shard build %.3f s", kShards, build_s);

  Ledger ledger;
  for (size_t i = 0; i < kBaseRows; i++) {
    ledger.rows.push_back(in.base.Row(i));
    ledger.live.push_back(static_cast<uint32_t>(i));
  }
  ledger.limit.store(kBaseRows);

  cagra::SearchParams params;
  params.k = kK;
  params.itopk = kItopk;
  params.algo = cagra::SearchAlgo::kSingleCta;
  params.num_threads = ctx->nproc();

  const Phase p = RunPhase(ctx, &index, &ledger, in.extra, reads, params,
                           args.seconds, args.trace);

  const auto w0 = Clock::now();
  index.WaitForCompaction();
  const auto w1 = Clock::now();
  ctx->tracer().Record("index.wait_compaction", w0, w1);

  if (index.live_size() != ledger.live.size()) {
    ctx->Fail("live_size() " + std::to_string(index.live_size()) +
              " != ledger " + std::to_string(ledger.live.size()));
  }

  // Recall over the final live set, against the ledger's own rows.
  std::vector<const float*> live_rows;
  std::vector<uint32_t> live_ids(ledger.live.begin(), ledger.live.end());
  for (uint32_t id : live_ids) live_rows.push_back(ledger.rows[id]);
  const std::vector<uint32_t> truth = ExactTopK(
      live_rows, live_ids, in.base.dim(), recall_queries, kK, ctx->nproc());
  auto final_result = index.Search(recall_queries, params);
  double recall = 0;
  if (!final_result.ok()) {
    ctx->Fail("final Search: " + final_result.status().ToString());
  } else {
    const cagra::NeighborList& nl = final_result->neighbors;
    const uint32_t watermark = ledger.watermark.load();
    const uint32_t limit = static_cast<uint32_t>(ledger.rows.size());
    for (size_t q = 0; q < kRecallQueries; q++) {
      const std::string err =
          CheckRow(nl.Row(q), nl.distances.data() + q * kK, kK,
                   [&](uint32_t id) { return id >= watermark && id < limit; });
      if (!err.empty()) ctx->Fail("final search: " + err);
      recall += RowRecall(nl.Row(q), kK, &truth[q * kK], kK);
    }
    recall /= kRecallQueries;
  }
  if (recall < kRecallFloor) {
    ctx->Fail("recall@10 " + std::to_string(recall) + " below floor");
  }

  const Percentile p50 = TailPercentile(p.reads.call_ms, 0.50);
  const Percentile p99 = TailPercentile(p.reads.call_ms, 0.99);
  const double read_qps = static_cast<double>(p.reads.queries) / p.reader_seconds;
  const double write_rate =
      static_cast<double>(p.rows_written) / p.writer_seconds;
  Info("churn-sharded: reads %zu calls, %.1f qps, p50 %.3f ms p%.1f %.3f ms "
       "(n=%zu); writes %.1f rows/s; compaction wait %.3f s; final recall@10 "
       "%.4f over %zu live rows",
       p.reads.calls, read_qps, p50.value, p99.pct * 100, p99.value, p99.n,
       write_rate, Seconds(w0, w1), recall, ledger.live.size());

  if (!args.trace) {
    ctx->Set("setup_s", build_s);
    ctx->Set("write_rows_per_s", write_rate);
    ctx->Set("recall_at_10", recall);
    ctx->Set("qps", read_qps);
    ctx->Set("p50_ms", p50.value);
    ctx->Set("p99_ms", p99.value);
    return;
  }

  SetBuildLayerMetrics(ctx, stats.per_shard, build_s);
  SetSearchLayerMetrics(ctx, p.reads, static_cast<double>(ledger.live.size()));
  ctx->Set("index.add_ms_p50", TailPercentile(p.add_ms, 0.50).value);
  ctx->Set("index.add_ms_p99", TailPercentile(p.add_ms, 0.99).value);
  ctx->Set("index.remove_ms_p50", TailPercentile(p.remove_ms, 0.50).value);
  ctx->Set("index.remove_ms_p99", TailPercentile(p.remove_ms, 0.99).value);
  ctx->Set("index.tombstone_frac_max", p.tombstone_frac_max);
  ctx->Set("index.compaction_wait_s", Seconds(w0, w1));
  ctx->Set("sharded.search_ms_p50", p50.value);
  ctx->Set("sharded.search_ms_p99", p99.value);
  ctx->Set("client.failed_frac",
           static_cast<double>(ctx->failed) / static_cast<double>(ctx->attempted));
  // Traced and untraced reads alternate through the same churn, so the
  // comparison is not confounded by when compaction lands.
  ctx->Set("trace.overhead_frac",
           TailPercentile(p.cycle_ms[1], 0.50).value /
                   TailPercentile(p.cycle_ms[0], 0.50).value - 1.0);
}

}  // namespace perfbench
