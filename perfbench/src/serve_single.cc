// serve-single: Build -> Save -> Load (how a server starts), then one
// client thread sends open-loop single-query Submits into a
// ServingScheduler (1 worker, max_batch 64, 1 ms collect window) over the
// loaded index, on a fixed rate ladder 150, 300, ... 4800 req/s. Latency
// runs from each request's scheduled send time to the moment its response
// is ready, so a stalled generator or a backlog shows in the numbers.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/search.h"
#include "serving/serving.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr double kRates[] = {150, 300, 600, 1200, 2400, 4800};
constexpr size_t kSteps = sizeof(kRates) / sizeof(kRates[0]);
constexpr double kSloMs = 50;
constexpr size_t kPool = 1000;       // distinct queries, with ground truth
constexpr size_t kSpotChecks = 64;   // responses re-run as direct Searches
constexpr size_t kWarmupBursts = 4;  // bursts of max_batch requests
constexpr double kRecallFloor = 0.90;

using Response = cagra::Result<cagra::QueryResponse>;

struct Done {
  size_t pool_row = 0;
  cagra::StatusCode code = cagra::StatusCode::kOk;
  cagra::QueryResponse resp;
  double latency_ms = 0;  ///< scheduled send -> response ready
  double late_ms = 0;     ///< scheduled send -> Submit call
};

struct Step {
  double rate = 0;
  size_t sent = 0;
  size_t ok = 0, shed = 0, expired = 0, partial = 0, failed = 0;
  size_t outstanding = 0;  ///< not yet answered when the send window closed
  double seconds = 0;      ///< step start -> last response
  std::vector<Done> done;
  Percentile p50, p99, late99;
  bool pass = false;

  size_t not_ok() const { return sent - ok; }
};

/// Runs one ladder step: `rate x window` requests at uniformly random
/// times in [0, window) (a Poisson stream conditioned on its count), a
/// collector thread waiting on the futures in send order.
Step RunStep(Context* ctx, cagra::ServingScheduler* scheduler,
             const cagra::Matrix<float>& pool, double rate, double window,
             std::mt19937_64* rng, uint64_t* request_id) {
  Step step;
  step.rate = rate;
  const size_t n = static_cast<size_t>(std::llround(rate * window));
  std::vector<double> offsets(n);
  std::uniform_real_distribution<double> uniform(0.0, window);
  for (double& t : offsets) t = uniform(*rng);
  std::sort(offsets.begin(), offsets.end());
  std::vector<size_t> rows(n);
  for (size_t& r : rows) r = (*rng)() % kPool;

  struct Sent {
    size_t pool_row;
    Clock::time_point scheduled, sent;
    Clock::time_point ready{};  ///< set when Submit answered at once (shed)
    std::future<Response> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> inflight;  // guarded by mu
  bool closed = false;        // guarded by mu
  std::atomic<size_t> answered{0};
  Clock::time_point last_ready;
  Tracer& tracer = ctx->tracer();
  const uint64_t first_id = *request_id;

  std::thread collector([&] {
    for (uint64_t id = first_id;; id++) {
      Sent s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !inflight.empty(); });
        if (inflight.empty()) break;
        s = std::move(inflight.front());
        inflight.pop_front();
      }
      Response r = s.future.get();
      // One worker answers in FIFO order, so waiting in send order stamps
      // each response when it is ready, except for a request refused at
      // Submit, which was stamped there.
      const bool refused = s.ready != Clock::time_point{};
      const auto ready = refused ? s.ready : Clock::now();
      if (!refused) answered++;
      last_ready = std::max(last_ready, ready);
      Done d;
      d.pool_row = s.pool_row;
      d.latency_ms = Millis(s.scheduled, ready);
      d.late_ms = Millis(s.scheduled, s.sent);
      if (r.ok()) {
        d.resp = std::move(*r);
      } else {
        d.code = r.status().code();
      }
      if (tracer.enabled()) {
        const int64_t parent = tracer.Record(
            "client.request", s.scheduled, ready, -1, id,
            {{"rows_examined", static_cast<double>(d.resp.rows_examined)},
             {"batch_rows", static_cast<double>(d.resp.batch_rows)}});
        if (r.ok()) {
          const auto us = [](double v) {
            return std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::micro>(v));
          };
          const auto formed = s.sent + us(d.resp.queue_us);
          tracer.Record("serving.queue", s.sent, formed, parent, id);
          tracer.Record("serving.search", formed,
                        formed + us(d.resp.search_us), parent, id);
        }
      }
      step.done.push_back(std::move(d));
    }
  });

  const auto start = Clock::now();
  for (size_t i = 0; i < n; i++) {
    const auto scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[i]));
    std::this_thread::sleep_until(scheduled);
    Sent s;
    s.pool_row = rows[i];
    s.scheduled = scheduled;
    s.sent = Clock::now();
    s.future = scheduler->Submit(pool.Row(rows[i]), kK);
    if (s.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      s.ready = Clock::now();
      answered++;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(std::move(s));
    }
    cv.notify_one();
  }
  const auto window_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(window));
  std::this_thread::sleep_until(window_end);
  step.outstanding = n - answered.load();
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_one();
  collector.join();
  *request_id += n;

  step.sent = n;
  step.seconds = n == 0 ? window : std::max(window, Seconds(start, last_ready));
  std::vector<double> latency, late;
  for (const Done& d : step.done) {
    late.push_back(d.late_ms);
    switch (d.code) {
      case cagra::StatusCode::kOk:
        if (d.resp.complete) {
          step.ok++;
          latency.push_back(d.latency_ms);
        } else {
          step.partial++;
        }
        break;
      case cagra::StatusCode::kUnavailable:
        step.shed++;
        break;
      case cagra::StatusCode::kDeadlineExceeded:
        step.expired++;
        break;
      default:
        step.failed++;
    }
  }
  step.p50 = TailPercentile(latency, 0.50);
  step.p99 = TailPercentile(std::move(latency), 0.99);
  step.late99 = TailPercentile(std::move(late), 0.99);
  // A failed or refused request misses the SLO. The backlog is growing
  // when, at the end of the send window, more requests are in flight
  // than Little's law allows at a wait of one SLO (rate x SLO), and
  // draining them takes longer than the SLO. Either alone also fires on
  // a brief burst of arrivals or on one slow last request.
  const double drain_ms = Millis(window_end, std::max(window_end, last_ready));
  const bool backlog =
      static_cast<double>(step.outstanding) > rate * kSloMs / 1e3 &&
      drain_ms > kSloMs;
  step.pass = step.ok == n && n > 0 && step.p99.value <= kSloMs && !backlog;
  return step;
}

struct Ladder {
  std::vector<Step> steps;
  SearchTally tally;
  cagra::ServingStats stats;

  /// Answer rate of the highest step that meets the SLO (0 if none).
  double Goodput() const {
    double goodput = 0;
    for (const Step& s : steps) {
      if (s.pass) goodput = static_cast<double>(s.ok) / s.seconds;
    }
    return goodput;
  }
};

}  // namespace

void RunServeSingle(Context* ctx) {
  const Args& args = ctx->args();
  Inputs in = MakeInputs(args.seed, 0, kPool);
  std::vector<const float*> rows(kBaseRows);
  std::vector<uint32_t> ids(kBaseRows);
  for (size_t i = 0; i < kBaseRows; i++) {
    rows[i] = in.base.Row(i);
    ids[i] = static_cast<uint32_t>(i);
  }
  const std::vector<uint32_t> truth =
      ExactTopK(rows, ids, in.base.dim(), in.queries, kK, ctx->nproc());

  // Set-up: Build -> Save -> Load, as a server starts.
  Tracer& tracer = ctx->tracer();
  const std::string path =
      args.out_dir + "/serve-single-" + std::to_string(args.seed) + ".index";
  cagra::BuildStats stats;
  const auto b0 = Clock::now();
  auto built = cagra::CagraIndex::Build(in.base, MakeBuildParams(), &stats);
  const auto b1 = Clock::now();
  if (!built.ok()) {
    ctx->Fail("Build: " + built.status().ToString());
    return;
  }
  const cagra::Status saved = built->Save(path);
  const auto b2 = Clock::now();
  if (!saved.ok()) {
    ctx->Fail("Save: " + saved.ToString());
    return;
  }
  auto loaded = cagra::CagraIndex::Load(path);
  const auto b3 = Clock::now();
  double file_mb = 0;
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    file_mb = static_cast<double>(std::ftell(f)) / (1024.0 * 1024.0);
    std::fclose(f);
  }
  std::remove(path.c_str());
  if (!loaded.ok()) {
    ctx->Fail("Load: " + loaded.status().ToString());
    return;
  }
  tracer.Record("index.build", b0, b1);
  tracer.Record("index.save", b1, b2);
  tracer.Record("index.load", b2, b3);
  const cagra::CagraIndex& index = *loaded;
  const double build_s = Seconds(b0, b1);
  Info("serve-single: build %.3f s, save %.3f s, load %.3f s (%.1f MiB)",
       build_s, Seconds(b1, b2), Seconds(b2, b3), file_mb);

  cagra::IndexSearcher direct(index);
  TimedSearcher timed(direct, &tracer);
  cagra::ServingOptions options;
  options.num_workers = 1;
  options.max_batch = 64;
  options.collect_window_us = 1000;
  options.params.k = kK;
  options.params.itopk = kItopk;

  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ull + 1);
  uint64_t request_id = 0;
  // Each step lasts seconds / 3, so the 150 req/s step yields ~600
  // latency samples at the default 12 s; at seconds / 6 (300 samples)
  // its p99 spread 30% (IQR over median) across ten seeds.
  const double window = args.seconds / 3;

  // One scheduler per phase, so its statistics cover that phase only.
  // Spans are recorded only in a traced phase, after its warm-up.
  auto ladder = [&](size_t steps, bool traced) {
    Ladder out;
    cagra::ServingScheduler scheduler(timed, options);
    // Warm-up: full bursts form max_batch micro-batches, so every pool
    // thread has allocated its search scratch before the first step.
    for (size_t b = 0; b < kWarmupBursts; b++) {
      std::vector<std::future<Response>> burst;
      for (size_t i = 0; i < options.max_batch; i++) {
        burst.push_back(scheduler.Submit(in.queries.Row(i), kK));
      }
      for (auto& f : burst) (void)f.get();
    }
    tracer.SetRecording(traced);
    const cagra::ServingStats before = scheduler.Snapshot();
    (void)timed.Take();
    for (size_t s = 0; s < steps; s++) {
      out.steps.push_back(RunStep(ctx, &scheduler, in.queries, kRates[s],
                                  window, &rng, &request_id));
    }
    out.stats = scheduler.Snapshot();
    out.stats.shed -= before.shed;
    const double rows_after =
        out.stats.mean_batch_rows * static_cast<double>(out.stats.batches);
    const double rows_before =
        before.mean_batch_rows * static_cast<double>(before.batches);
    out.stats.batches -= before.batches;
    out.stats.mean_batch_rows =
        out.stats.batches ? (rows_after - rows_before) / out.stats.batches : 0;
    scheduler.Shutdown();
    out.tally = timed.Take();
    return out;
  };

  // The correctness gate over one phase's responses: well-formed results,
  // recall, failure accounting, and EXPECT_EQ identity of a spread of
  // responses against a direct batch-of-one Search.
  auto check = [&](const Ladder& l) {
    double recall = 0;
    size_t answered = 0;
    for (size_t s = 0; s < l.steps.size(); s++) {
      const Step& step = l.steps[s];
      ctx->attempted += step.sent;
      ctx->failed += s == 0 ? step.not_ok() : step.failed + step.partial;
      for (const Done& d : step.done) {
        if (d.code != cagra::StatusCode::kOk) continue;
        const cagra::QueryResponse& r = d.resp;
        if (r.ids.size() != kK || r.distances.size() != kK) {
          ctx->Fail("response with " + std::to_string(r.ids.size()) + " ids");
          continue;
        }
        const std::string err = CheckRow(r.ids.data(), r.distances.data(), kK,
                                         [](uint32_t id) { return id < kBaseRows; });
        if (!err.empty()) ctx->Fail("response: " + err);
        recall += RowRecall(r.ids.data(), kK, &truth[d.pool_row * kK], kK);
        answered++;
      }
    }
    const Step& first = l.steps.front();
    if (first.not_ok() != 0) {
      ctx->Fail(std::to_string(first.not_ok()) + " requests failed at " +
                std::to_string(static_cast<int>(first.rate)) + " req/s");
    }
    cagra::SearchParams p = options.params;
    p.uniform_seed = true;
    p = cagra::ResolveBatchShape(p, direct.device(), 1);
    const size_t stride = std::max<size_t>(1, first.done.size() / kSpotChecks);
    for (size_t i = 0; i < first.done.size(); i += stride) {
      const Done& d = first.done[i];
      if (d.code != cagra::StatusCode::kOk) continue;
      auto want = cagra::Search(index, Slice(in.queries, d.pool_row, 1), p);
      if (!want.ok() || want->neighbors.ids != d.resp.ids ||
          want->neighbors.distances != d.resp.distances) {
        ctx->Fail("served response differs from a direct Search of query " +
                  std::to_string(d.pool_row));
      }
    }
    return answered ? recall / static_cast<double>(answered) : 0.0;
  };

  auto report = [&](const Ladder& l, const char* phase) {
    for (const Step& s : l.steps) {
      Info("serve-single %s: %6.0f req/s sent %zu ok %zu shed %zu expired %zu "
           "partial %zu failed %zu | p50 %.2f ms p%.1f %.2f ms (n=%zu) | late "
           "p%.1f %.3f ms | backlog %zu | %s",
           phase, s.rate, s.sent, s.ok, s.shed, s.expired, s.partial, s.failed,
           s.p50.value, s.p99.pct * 100, s.p99.value, s.p99.n,
           s.late99.pct * 100, s.late99.value, s.outstanding,
           s.pass ? "meets SLO" : "misses SLO");
    }
  };

  if (!args.trace) {
    const Ladder l = ladder(kSteps, false);
    report(l, "untraced");
    const double recall = check(l);
    const Step& first = l.steps.front();
    double served = 0, busy = 0;
    for (const Step& s : l.steps) {
      served += static_cast<double>(s.ok);
      busy += s.seconds;
    }
    ctx->Set("setup_s", Seconds(b0, b3));
    ctx->Set("write_rows_per_s", static_cast<double>(kBaseRows) / build_s);
    ctx->Set("recall_at_10", recall);
    ctx->Set("qps", served / busy);
    ctx->Set("p50_ms", first.p50.value);
    ctx->Set("p99_ms", first.p99.value);
    Info("serve-single: recall@10 %.4f, goodput %.1f req/s, served %.1f req/s",
         recall, l.Goodput(), served / busy);
    if (recall < kRecallFloor) ctx->Fail("recall@10 below floor");
    return;
  }

  const Ladder base = ladder(1, false);
  report(base, "untraced");
  const Ladder l = ladder(kSteps, true);
  report(l, "traced");
  check(base);
  if (check(l) < kRecallFloor) ctx->Fail("recall@10 below floor");
  const Step& first = l.steps.front();
  SetBuildLayerMetrics(ctx, {stats}, build_s);
  SetSearchLayerMetrics(ctx, l.tally, kBaseRows);
  ctx->Set("index.save_s", Seconds(b1, b2));
  ctx->Set("index.load_s", Seconds(b2, b3));
  ctx->Set("index.file_mb", file_mb);
  std::vector<double> queue_ms, search_ms, late_ms;
  for (const Done& d : first.done) {
    if (d.code != cagra::StatusCode::kOk) continue;
    queue_ms.push_back(d.resp.queue_us / 1e3);
    search_ms.push_back(d.resp.search_us / 1e3);
  }
  for (const Step& s : l.steps) {
    for (const Done& d : s.done) late_ms.push_back(d.late_ms);
  }
  ctx->Set("serving.queue_ms_p50", TailPercentile(queue_ms, 0.50).value);
  ctx->Set("serving.queue_ms_p99", TailPercentile(queue_ms, 0.99).value);
  ctx->Set("serving.search_ms_p50", TailPercentile(search_ms, 0.50).value);
  ctx->Set("serving.search_ms_p99", TailPercentile(search_ms, 0.99).value);
  ctx->Set("serving.batch_rows", l.stats.mean_batch_rows);
  ctx->Set("serving.searcher_calls", static_cast<double>(l.tally.calls));
  ctx->Set("serving.shed", static_cast<double>(l.stats.shed));
  ctx->Set("serving.goodput_qps", l.Goodput());
  ctx->Set("client.late_ms_p99", TailPercentile(late_ms, 0.99).value);
  ctx->Set("client.failed_frac", static_cast<double>(first.not_ok()) /
                                     static_cast<double>(std::max<size_t>(1, first.sent)));
  ctx->Set("trace.overhead_frac",
           first.p50.value / base.steps.front().p50.value - 1.0);
}

}  // namespace perfbench
