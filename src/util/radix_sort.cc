#include "util/radix_sort.h"

#include <algorithm>

namespace cagra {

size_t RadixSorter::Sort(std::vector<KeyValue>* data) {
  const size_t n = data->size();
  if (n <= 1) return 0;
  std::sort(data->begin(), data->end(), KeyValueLess);
  // Every digit pass scatters each element once.
  return n * kPasses;
}

}  // namespace cagra
