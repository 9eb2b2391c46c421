#ifndef CAGRA_UTIL_RADIX_SORT_H_
#define CAGRA_UTIL_RADIX_SORT_H_

#include <cstddef>
#include <vector>

#include "util/bitonic.h"

namespace cagra {

/// CTA-level radix sort of (float key, uint32 value) pairs, used by the
/// single-CTA search kernel when the candidate buffer exceeds the warp
/// register budget (paper §IV-B2: radix path for candidate lists > 512).
/// The GPU maps keys to order-preserving unsigned integers and sorts them
/// by 8-bit digits; the host sorts by KeyValueLess with std::sort and
/// returns the scatter count those digit passes would execute.
class RadixSorter {
 public:
  /// Sorts by KeyValueLess. Returns the number of scatter operations the
  /// kernel executes (elements x passes), the shared-memory traffic
  /// driver.
  static size_t Sort(std::vector<KeyValue>* data);

  /// Number of digit passes for 32-bit keys with 8-bit digits.
  static constexpr size_t kPasses = 4;
};

}  // namespace cagra

#endif  // CAGRA_UTIL_RADIX_SORT_H_
