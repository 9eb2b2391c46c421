// The metric names and units the benchmark prints. BENCHMARK.json lists
// the same set; run.py refuses a result whose names or units differ.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Printed by the untraced run. All are measured on the host.
inline const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
      {"recall_at_10", "ratio"}, {"qps", "1/s"},
      {"p50_ms", "ms"},          {"p99_ms", "ms"},
      {"write_rows_per_s", "1/s"},
  };
  return specs;
}

/// Spans whose total self time the traced run reports.
inline const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "client.request", "serving.queue",   "serving.search",
      "searcher.search", "search.batch",   "sharded.search",
      "index.build",    "index.save",      "index.load",
      "index.add",      "index.remove",    "index.wait_compaction",
  };
  return names;
}

/// Printed by the traced run. Modeled (cost-model) values appear only
/// under gpusim.*.
inline const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"search.dists_per_query", "count"},
        {"search.scan_fraction", "ratio"},
        {"search.ctas_per_query", "count"},
        {"search.sort_exchanges_per_query", "count"},
        {"search.iters_per_query", "count"},
        {"search.hash_probes_per_query", "count"},
        {"search.call_ms_p50", "ms"},
        {"search.call_ms_p99", "ms"},
        {"distance.elements_per_query", "count"},
        {"distance.bytes_per_query", "B"},
        {"serving.queue_ms_p50", "ms"},
        {"serving.queue_ms_p99", "ms"},
        {"serving.search_ms_p50", "ms"},
        {"serving.search_ms_p99", "ms"},
        {"serving.batch_rows", "count"},
        {"serving.searcher_calls", "count"},
        {"serving.shed", "count"},
        {"serving.goodput_qps", "1/s"},
        {"client.late_ms_p99", "ms"},
        {"client.failed_frac", "ratio"},
        {"nn_descent.knn_s", "s"},
        {"nn_descent.iterations", "count"},
        {"nn_descent.dists", "count"},
        {"optimize.total_s", "s"},
        {"index.build_s", "s"},
        {"index.save_s", "s"},
        {"index.load_s", "s"},
        {"index.file_mb", "MiB"},
        {"index.add_ms_p50", "ms"},
        {"index.add_ms_p99", "ms"},
        {"index.remove_ms_p50", "ms"},
        {"index.remove_ms_p99", "ms"},
        {"index.tombstone_frac_max", "ratio"},
        {"index.compaction_wait_s", "s"},
        {"sharded.search_ms_p50", "ms"},
        {"sharded.search_ms_p99", "ms"},
        {"gpusim.modeled_qps", "1/s"},
        {"trace.overhead_frac", "ratio"},
    };
    for (const std::string& span : SpanNames()) {
      s.push_back({"trace.self_s." + span, "s"});
    }
    return s;
  }();
  return specs;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
