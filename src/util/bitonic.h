#ifndef CAGRA_UTIL_BITONIC_H_
#define CAGRA_UTIL_BITONIC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace cagra {

/// A (distance, index) pair as held in the CAGRA search buffer. The index
/// carries the MSB "has been a parent" flag (§IV-B4), so comparisons must
/// mask it off (KeyValueLess does).
struct KeyValue {
  float key;
  uint32_t value;
};

/// Maps a float's bit pattern to an unsigned key with the same ordering:
/// flip all bits for negatives, flip only the sign bit for positives.
/// Total over every bit pattern (NaNs sort past the infinities, -0 before
/// +0), so a comparison built on it is a strict weak order even when a
/// crafted query produces NaN distances.
inline uint32_t OrderPreservingBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

/// The search-buffer order: ascending distance, ties broken by ascending
/// node id with the parent flag masked off, so whether an entry has been
/// expanded never decides its position. The (distance, id) order
/// BoundedHeap also uses; it makes every sorted buffer independent of
/// the order its entries arrived in.
inline bool KeyValueLess(const KeyValue& a, const KeyValue& b) {
  constexpr uint32_t kIdMask = 0x7fffffffu;
  const uint64_t ka =
      (static_cast<uint64_t>(OrderPreservingBits(a.key)) << 32) |
      (a.value & kIdMask);
  const uint64_t kb =
      (static_cast<uint64_t>(OrderPreservingBits(b.key)) << 32) |
      (b.value & kIdMask);
  return ka < kb;
}

/// Sorting and merging for the warp-level kernel of the paper (§IV-B2).
/// The GPU runs a bitonic compare-exchange network padded to a power of
/// two; the host produces the same sorted output with std::sort and a
/// plain merge, and returns the network's exchange count, which depends
/// only on the length, so the gpusim cost model can price the kernel.
class BitonicSorter {
 public:
  /// Sorts `data` by KeyValueLess. Returns the compare-exchange count of
  /// a bitonic network over NextPow2(n) lanes:
  /// NextPow2(n)/2 * SortStages(n) (the hardware cost driver).
  static size_t Sort(std::vector<KeyValue>* data);

  /// Merges two individually sorted runs `a` and `b` into `a` keeping
  /// only the |a| smallest entries under KeyValueLess (on an exact tie
  /// the `a` entry comes first) — the internal-top-M update: the sorted
  /// candidate list is merged into the sorted top-M buffer. `buffer` is
  /// caller-owned workspace, swapped with `*a`, so a caller that reuses
  /// it merges without allocating. Returns the compare-exchange count of
  /// one bitonic merge over NextPow2(|a| + |b|) lanes.
  static size_t MergeKeepSmallest(std::vector<KeyValue>* a,
                                  const std::vector<KeyValue>& b,
                                  std::vector<KeyValue>* buffer);

  /// Number of compare-exchange stages for a length-n bitonic sort
  /// (log^2 complexity); used by the cost model.
  static size_t SortStages(size_t n);
};

}  // namespace cagra

#endif  // CAGRA_UTIL_BITONIC_H_
