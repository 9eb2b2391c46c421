#include "util/bitonic.h"

#include <algorithm>
#include <utility>

namespace cagra {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t BitonicSorter::SortStages(size_t n) {
  if (n <= 1) return 0;
  size_t log_n = 0;
  size_t p = NextPow2(n);
  while (p > 1) {
    p >>= 1;
    log_n++;
  }
  return log_n * (log_n + 1) / 2;
}

size_t BitonicSorter::Sort(std::vector<KeyValue>* data) {
  const size_t n = data->size();
  if (n <= 1) return 0;
  std::sort(data->begin(), data->end(), KeyValueLess);
  // Every stage of the padded network pairs each lane with one partner.
  return NextPow2(n) / 2 * SortStages(n);
}

size_t BitonicSorter::MergeKeepSmallest(std::vector<KeyValue>* a,
                                        const std::vector<KeyValue>& b,
                                        std::vector<KeyValue>* buffer) {
  // The hardware kernel forms a bitonic sequence by concatenating the
  // ascending top-M run with the candidate run reversed, then runs the
  // merge stages. Functionally that is a sorted two-way merge keeping the
  // |a| smallest; we execute the merge and charge the network cost.
  const size_t m = a->size();
  if (m == 0) return 0;

  buffer->resize(m);
  size_t ia = 0;
  size_t ib = 0;
  // ia + ib == out < m, so `a` never runs out before the output is full.
  for (size_t out = 0; out < m; out++) {
    const bool take_a = ib >= b.size() || !KeyValueLess(b[ib], (*a)[ia]);
    (*buffer)[out] = take_a ? (*a)[ia++] : b[ib++];
  }
  std::swap(*a, *buffer);

  // Cost: one bitonic merge over the padded combined length
  // (log2(len) stages of len/2 exchanges each).
  const size_t len = NextPow2(m + b.size());
  size_t stages = 0;
  for (size_t p = len; p > 1; p >>= 1) stages++;
  return stages * (len / 2);
}

}  // namespace cagra
