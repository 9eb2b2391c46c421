// Benchmark program: one workload per invocation.
//
//   perfbench --workload <batch-large|serve-single|churn-sharded>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// The untraced run (--trace 0) prints every end-to-end metric; the traced
// run (--trace 1) prints every per-layer metric and writes its spans to
// <out-dir>/trace-<workload>-<seed>.json. The last line of stdout is the
// result object; the exit code is nonzero whenever the correctness gate
// failed or a metric is missing.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "distance/simd.h"
#include "metrics.h"
#include "stats.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<batch-large|serve-single|churn-sharded> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::string RecordJson(const Context& ctx) {
  const Args& a = ctx.args();
  return "{\"workload\": " + JsonString(a.workload) +
         ", \"seed\": " + std::to_string(a.seed) +
         ", \"seconds\": " + JsonNumber(a.seconds) +
         ", \"trace\": " + (a.trace ? "1" : "0") +
         ", \"simd\": " +
         JsonString(cagra::SimdLevelName(cagra::ActiveSimdLevel())) +
         ", \"nproc\": " + std::to_string(ctx.nproc()) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + JsonString(a.commit) + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  void (*run)(Context*) = nullptr;
  if (args.workload == "batch-large") run = RunBatchLarge;
  if (args.workload == "serve-single") run = RunServeSingle;
  if (args.workload == "churn-sharded") run = RunChurnSharded;
  if (run == nullptr) return Usage("unknown workload");

  Context ctx(args);
  const std::string record = RecordJson(ctx);
  Info("record %s", record.c_str());
  run(&ctx);

  const std::vector<MetricSpec>& specs =
      args.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (args.trace) {
    // Layers a workload bypasses report 0 (below), so every workload
    // prints the same per-layer set.
    const std::string prefix = "trace.self_s.";
    const auto self = ctx.tracer().SelfSeconds();
    for (const MetricSpec& s : specs) {
      if (s.name.rfind(prefix, 0) == 0) {
        auto it = self.find(s.name.substr(prefix.size()));
        ctx.Set(s.name, it == self.end() ? 0.0 : it->second);
      }
    }
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!ctx.tracer().WriteJson(path, record)) {
      ctx.Fail("cannot write trace file " + path);
    }
  } else {
    ctx.Set("peak_rss_mb", PeakRssMiB());
  }

  std::string metrics;
  for (const MetricSpec& s : specs) {
    auto it = ctx.metrics().find(s.name);
    double value = 0;
    if (it != ctx.metrics().end()) {
      value = it->second;
    } else if (!args.trace) {
      ctx.Fail("end-to-end metric " + s.name + " was not measured");
    }
    if (!args.trace && !(value > 0)) {
      ctx.Fail("end-to-end metric " + s.name + " is not positive");
    }
    metrics += (metrics.empty() ? "" : ", ") + JsonString(s.name) +
               ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(s.unit) + "}";
  }
  const bool correct = ctx.correct();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<size_t>(1, ctx.attempted),
              ctx.failed.load(), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
