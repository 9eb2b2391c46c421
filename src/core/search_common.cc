#include <algorithm>
#include <cmath>

#include "core/search_internal.h"
#include "util/radix_sort.h"

namespace cagra {
namespace internal_search {

VisitedSet& SearchScratch::EnsureVisited(size_t capacity) {
  // Reset() and a fresh allocation are both O(capacity); reuse avoids
  // the allocator, not the wipe.
  if (visited == nullptr || visited->capacity() != capacity) {
    visited = std::make_unique<VisitedSet>(capacity);
  } else {
    visited->Reset();
  }
  return *visited;
}

void SearchScratch::FlushBatch(const DatasetView& dataset,
                               const DatasetView::QueryView& query,
                               std::vector<KeyValue>* buffer,
                               KernelCounters* counters) {
  batch_dists.resize(batch_ids.size());
  dataset.DistanceBatch(query, batch_ids.data(), batch_ids.size(),
                        batch_dists.data(), counters);
  for (size_t i = 0; i < batch_ids.size(); i++) {
    (*buffer)[batch_slots[i]] = {batch_dists[i], batch_ids[i]};
  }
  batch_ids.clear();
  batch_slots.clear();
}

ResolvedConfig ResolveConfig(const SearchParams& params, SearchAlgo algo,
                             size_t graph_degree, size_t dataset_size) {
  ResolvedConfig cfg{};
  cfg.k = params.k;
  cfg.itopk = ResolveItopk(params);
  cfg.search_width = std::max<size_t>(1, params.search_width);
  cfg.cta_per_query =
      algo == SearchAlgo::kMultiCta ? params.cta_per_query : 1;
  cfg.seed = params.seed;
  cfg.cancel = params.cancel;

  // Auto iteration budget: enough to refill the top-M list several times
  // over (each iteration expands `search_width` parents).
  if (params.max_iterations != 0) {
    cfg.max_iterations = params.max_iterations;
  } else {
    cfg.max_iterations = std::clamp<size_t>(
        2 * cfg.itopk / cfg.search_width, 16, 1024);
  }
  cfg.min_iterations = std::min(params.min_iterations, cfg.max_iterations);

  // Hash sizing (§IV-B3): the search touches at most
  // Imax * p * d + initial-sample nodes; a standard table is sized to 2x
  // that. In multi-CTA mode all cta_per_query CTAs (p = 1 each) share
  // one table, and each also seeds d random samples. A shared-memory
  // (forgettable) table is clamped to 2^8..2^13 entries; if the needed
  // size exceeds the clamp we keep the paper's periodic reset interval.
  size_t worst_visits;
  if (algo == SearchAlgo::kMultiCta) {
    const size_t per_iter = cfg.cta_per_query * graph_degree;
    worst_visits = (cfg.max_iterations + 1) * per_iter + per_iter;
  } else {
    worst_visits =
        (cfg.max_iterations + 1) * cfg.search_width * graph_degree;
  }
  const size_t wanted = 2 * worst_visits;
  size_t bits = params.hash_bits;
  const bool forgettable =
      params.hash_mode == HashMode::kForgettable ||
      (params.hash_mode == HashMode::kAuto && algo == SearchAlgo::kSingleCta);
  if (forgettable) {
    if (bits == 0) {
      bits = 8;
      while ((1ull << bits) < wanted && bits < 13) bits++;
    }
    cfg.hash_in_shared = true;
    cfg.hash_reset_interval = std::max<size_t>(1, params.hash_reset_interval);
    // A table big enough for the whole search never needs resetting.
    if ((1ull << bits) >= wanted) cfg.hash_reset_interval = 0;
  } else {
    if (bits == 0) {
      bits = 8;
      while ((1ull << bits) < wanted && (1ull << bits) < 2 * dataset_size) {
        bits++;
      }
    }
    cfg.hash_in_shared = false;
    cfg.hash_reset_interval = 0;
  }
  cfg.hash_bits = bits;
  return cfg;
}

void SortAndMerge(std::vector<KeyValue>* topm,
                  std::vector<KeyValue>* candidates,
                  std::vector<KeyValue>* merge_buffer,
                  KernelCounters* counters) {
  // §IV-B2: warp-level bitonic sort in registers for small candidate
  // lists, CTA-level radix sort in shared memory above 512 entries.
  if (candidates->size() <= 512) {
    counters->sort_exchanges += BitonicSorter::Sort(candidates);
  } else {
    counters->radix_scatters += RadixSorter::Sort(candidates);
  }
  counters->sort_exchanges +=
      BitonicSorter::MergeKeepSmallest(topm, *candidates, merge_buffer);
}

}  // namespace internal_search
}  // namespace cagra
