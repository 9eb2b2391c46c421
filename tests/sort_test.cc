#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/bitonic.h"
#include "util/radix_sort.h"
#include "util/rng.h"

namespace cagra {
namespace {

constexpr uint32_t kParent = 0x80000000u;

std::vector<KeyValue> RandomData(size_t n, uint64_t seed,
                                 bool with_negatives = false) {
  Pcg32 rng(seed);
  std::vector<KeyValue> data(n);
  for (size_t i = 0; i < n; i++) {
    float key = rng.NextFloat() * 100.0f;
    if (with_negatives) key -= 50.0f;
    data[i] = {key, rng.NextBounded(1u << 30)};
  }
  return data;
}

/// Keys drawn from a handful of values, so most entries tie on distance
/// and the id tiebreak decides their order. Ids are distinct.
std::vector<KeyValue> TiedData(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<KeyValue> data(n);
  for (size_t i = 0; i < n; i++) {
    data[i] = {static_cast<float>(rng.NextBounded(4)),
               static_cast<uint32_t>(i * 7919 % 100003)};
  }
  std::shuffle(data.begin(), data.end(), std::mt19937(seed));
  return data;
}

/// The contract every search-buffer sort and merge follows: ascending
/// distance, then ascending id with the parent flag masked off.
std::vector<KeyValue> Reference(std::vector<KeyValue> data) {
  std::stable_sort(data.begin(), data.end(), [](KeyValue a, KeyValue b) {
    if (a.key != b.key) return a.key < b.key;
    return (a.value & ~kParent) < (b.value & ~kParent);
  });
  return data;
}

void ExpectSameEntries(const std::vector<KeyValue>& got,
                       const std::vector<KeyValue>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i].key, want[i].key) << i;
    EXPECT_EQ(got[i].value, want[i].value) << i;
  }
}

/// Compare-exchanges of the bitonic network the GPU kernel runs over
/// NextPow2(n) lanes, counted by walking the network's loop nest — an
/// independent witness for the analytic count Sort returns.
size_t NetworkExchanges(size_t n) {
  if (n <= 1) return 0;
  size_t padded = 1;
  while (padded < n) padded <<= 1;
  size_t exchanges = 0;
  for (size_t k = 2; k <= padded; k <<= 1) {
    for (size_t j = k >> 1; j > 0; j >>= 1) {
      for (size_t i = 0; i < padded; i++) {
        if ((i ^ j) > i) exchanges++;
      }
    }
  }
  return exchanges;
}

// ------------------------------------------------------------- Bitonic

TEST(BitonicTest, EmptyAndSingle) {
  std::vector<KeyValue> empty;
  EXPECT_EQ(BitonicSorter::Sort(&empty), 0u);
  std::vector<KeyValue> one = {{3.f, 1}};
  EXPECT_EQ(BitonicSorter::Sort(&one), 0u);
  EXPECT_EQ(one[0].key, 3.f);
}

TEST(BitonicTest, SortMatchesReferenceAcrossSizes) {
  for (size_t n : {2u, 3u, 5u, 17u, 64u, 100u, 513u}) {
    auto data = RandomData(n, n, /*with_negatives=*/true);
    const auto want = Reference(data);
    BitonicSorter::Sort(&data);
    ExpectSameEntries(data, want);
  }
}

TEST(BitonicTest, SortCountEqualsNetworkCount) {
  // NextPow2(n)/2 * SortStages(n), written out per size.
  const std::pair<size_t, size_t> cases[] = {
      {2, 1 * 1}, {3, 2 * 3}, {64, 32 * 21}, {100, 64 * 28}, {512, 256 * 45}};
  for (const auto& [n, expected] : cases) {
    auto data = RandomData(n, n + 1);
    EXPECT_EQ(BitonicSorter::Sort(&data), expected) << n;
    EXPECT_EQ(NetworkExchanges(n), expected) << n;
  }
}

TEST(BitonicTest, SortCountIgnoresData) {
  // The count is a property of the network, not of the input order.
  auto sorted = RandomData(100, 4);
  std::sort(sorted.begin(), sorted.end(), KeyValueLess);
  auto reversed = sorted;
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_EQ(BitonicSorter::Sort(&sorted), BitonicSorter::Sort(&reversed));
}

TEST(BitonicTest, SortStagesFormula) {
  EXPECT_EQ(BitonicSorter::SortStages(1), 0u);
  EXPECT_EQ(BitonicSorter::SortStages(2), 1u);
  EXPECT_EQ(BitonicSorter::SortStages(4), 3u);
  EXPECT_EQ(BitonicSorter::SortStages(512), 45u);  // 9*10/2
}

TEST(BitonicTest, SortBreaksTiesByAscendingId) {
  for (size_t n : {8u, 64u, 300u}) {
    auto data = TiedData(n, n);
    BitonicSorter::Sort(&data);
    for (size_t i = 1; i < n; i++) {
      ASSERT_LE(data[i - 1].key, data[i].key) << n << " " << i;
      if (data[i - 1].key == data[i].key) {
        EXPECT_LT(data[i - 1].value, data[i].value) << n << " " << i;
      }
    }
  }
}

TEST(BitonicTest, SortOrdersParentFlaggedByMaskedId) {
  // Equal distances: the flag (bit 31) must not push an entry back.
  std::vector<KeyValue> data = {
      {1.f, 9 | kParent}, {1.f, 4}, {1.f, 7 | kParent}, {0.f, 50 | kParent}};
  BitonicSorter::Sort(&data);
  EXPECT_EQ(data[0].value, 50 | kParent);
  EXPECT_EQ(data[1].value, 4u);
  EXPECT_EQ(data[2].value, 7 | kParent);
  EXPECT_EQ(data[3].value, 9 | kParent);
}

TEST(BitonicTest, SortTotalOverNonFiniteKeys) {
  // NaN and infinities keep the order strict-weak, so the sort stays in
  // bounds and deterministic on whatever distances a query produces.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<KeyValue> data;
  for (uint32_t i = 0; i < 40; i++) {
    const float key = i % 4 == 0 ? nan : i % 4 == 1 ? inf : float(i);
    data.push_back({key, 40 - i});
  }
  BitonicSorter::Sort(&data);
  ASSERT_EQ(data.size(), 40u);
  EXPECT_EQ(data[0].key, 2.f);
  size_t finite = 0;
  while (finite < data.size() && std::isfinite(data[finite].key)) finite++;
  EXPECT_EQ(finite, 20u);
  for (size_t i = finite; i < finite + 10; i++) EXPECT_EQ(data[i].key, inf);
  for (size_t i = finite + 10; i < data.size(); i++) {
    EXPECT_TRUE(std::isnan(data[i].key));
  }
}

TEST(BitonicTest, MergeKeepSmallestBasic) {
  std::vector<KeyValue> a = {{1.f, 1}, {4.f, 4}, {9.f, 9}};
  std::vector<KeyValue> b = {{2.f, 2}, {3.f, 3}};
  std::vector<KeyValue> buffer;
  BitonicSorter::MergeKeepSmallest(&a, b, &buffer);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].key, 1.f);
  EXPECT_EQ(a[1].key, 2.f);
  EXPECT_EQ(a[2].key, 3.f);
}

TEST(BitonicTest, MergeWithEmptyCandidates) {
  std::vector<KeyValue> a = {{1.f, 1}, {2.f, 2}};
  std::vector<KeyValue> b;
  std::vector<KeyValue> buffer;
  BitonicSorter::MergeKeepSmallest(&a, b, &buffer);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].key, 1.f);
  EXPECT_EQ(a[1].key, 2.f);
}

TEST(BitonicTest, MergeMatchesReference) {
  Pcg32 rng(5);
  std::vector<KeyValue> buffer;
  for (int trial = 0; trial < 30; trial++) {
    const size_t m = 1 + rng.NextBounded(64);
    const size_t c = rng.NextBounded(64);
    // Tied keys in half the trials, so the id order is exercised too.
    auto a = trial % 2 ? TiedData(m, trial * 2 + 100)
                       : RandomData(m, trial * 2 + 100);
    auto b = trial % 2 ? TiedData(c, trial * 2 + 101)
                       : RandomData(c, trial * 2 + 101);
    for (auto& kv : b) kv.value += 200000;  // ids distinct from a's
    a = Reference(a);
    b = Reference(b);
    std::vector<KeyValue> all = a;
    all.insert(all.end(), b.begin(), b.end());
    all = Reference(all);
    all.resize(m);
    BitonicSorter::MergeKeepSmallest(&a, b, &buffer);
    ExpectSameEntries(a, all);
  }
}

TEST(BitonicTest, MergeOrdersParentFlaggedByMaskedId) {
  // The top-M list carries expanded entries with the flag set; a fresh
  // candidate at the same distance slots in by id, not behind them.
  std::vector<KeyValue> a = {{1.f, 3 | kParent}, {1.f, 8 | kParent},
                             {2.f, 1}};
  std::vector<KeyValue> b = {{1.f, 5}, {1.f, 9}};
  std::vector<KeyValue> buffer;
  BitonicSorter::MergeKeepSmallest(&a, b, &buffer);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].value, 3 | kParent);
  EXPECT_EQ(a[1].value, 5u);
  EXPECT_EQ(a[2].value, 8 | kParent);
}

TEST(BitonicTest, MergeKeepsTopMEntryOnExactTie) {
  // Same node in both runs (possible after a visited-table overflow):
  // the top-M copy, with its parent flag, wins.
  std::vector<KeyValue> a = {{1.f, 6 | kParent}, {3.f, 2}};
  std::vector<KeyValue> b = {{1.f, 6}};
  std::vector<KeyValue> buffer;
  BitonicSorter::MergeKeepSmallest(&a, b, &buffer);
  EXPECT_EQ(a[0].value, 6 | kParent);
  EXPECT_EQ(a[1].value, 6u);
}

TEST(BitonicTest, MergeCountIsNetworkCostAndReusesBuffer) {
  std::vector<KeyValue> a = RandomData(32, 1);
  std::vector<KeyValue> b = RandomData(32, 2);
  std::sort(a.begin(), a.end(), KeyValueLess);
  std::sort(b.begin(), b.end(), KeyValueLess);
  std::vector<KeyValue> buffer;
  // One merge over 64 lanes: log2(64) stages of 32 exchanges.
  EXPECT_EQ(BitonicSorter::MergeKeepSmallest(&a, b, &buffer), 6u * 32u);
  // A second merge swaps the two allocations back and forth instead of
  // allocating a third.
  const KeyValue* storage_a = a.data();
  const KeyValue* storage_buf = buffer.data();
  BitonicSorter::MergeKeepSmallest(&a, b, &buffer);
  EXPECT_EQ(a.data(), storage_buf);
  EXPECT_EQ(buffer.data(), storage_a);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), KeyValueLess));
}

// ------------------------------------------------------------- Radix

TEST(RadixTest, MatchesReference) {
  auto data = RandomData(777, 9, /*with_negatives=*/true);
  const auto want = Reference(data);
  const size_t scatters = RadixSorter::Sort(&data);
  ExpectSameEntries(data, want);
  EXPECT_EQ(scatters, 777u * RadixSorter::kPasses);
}

TEST(RadixTest, CountEqualsPassesTimesElements) {
  for (size_t n : {2u, 3u, 64u, 100u, 512u, 1024u}) {
    auto data = RandomData(n, n);
    EXPECT_EQ(RadixSorter::Sort(&data), n * RadixSorter::kPasses) << n;
  }
  std::vector<KeyValue> one = {{1.f, 0}};
  EXPECT_EQ(RadixSorter::Sort(&one), 0u);
}

TEST(RadixTest, BreaksTiesByAscendingMaskedId) {
  std::vector<KeyValue> data = {
      {1.f, 3}, {1.f, 1 | kParent}, {0.f, 2}, {1.f, 0}};
  RadixSorter::Sort(&data);
  EXPECT_EQ(data[0].value, 2u);
  EXPECT_EQ(data[1].value, 0u);
  EXPECT_EQ(data[2].value, 1 | kParent);
  EXPECT_EQ(data[3].value, 3u);

  auto tied = TiedData(2000, 11);
  RadixSorter::Sort(&tied);
  ExpectSameEntries(tied, Reference(tied));
}

TEST(RadixTest, HandlesZeroAndNegativeZero) {
  std::vector<KeyValue> data = {{0.0f, 0}, {-0.0f, 1}, {-1.0f, 2}, {1.0f, 3}};
  RadixSorter::Sort(&data);
  EXPECT_EQ(data[0].key, -1.0f);
  EXPECT_EQ(data[3].key, 1.0f);
}

// Parameterized cross-check: both sorters produce the (distance, id)
// reference order across a sweep of sizes (the §IV-B2 small/large
// candidate-list regimes), with and without tied keys.
class SorterSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SorterSweepTest, BitonicMatchesReference) {
  auto data = RandomData(GetParam(), GetParam() * 13 + 1, true);
  const auto want = Reference(data);
  BitonicSorter::Sort(&data);
  ExpectSameEntries(data, want);

  auto tied = TiedData(GetParam(), GetParam() * 13 + 2);
  const auto tied_want = Reference(tied);
  BitonicSorter::Sort(&tied);
  ExpectSameEntries(tied, tied_want);
}

TEST_P(SorterSweepTest, RadixMatchesReference) {
  auto data = RandomData(GetParam(), GetParam() * 17 + 3, true);
  const auto want = Reference(data);
  RadixSorter::Sort(&data);
  ExpectSameEntries(data, want);

  auto tied = TiedData(GetParam(), GetParam() * 17 + 4);
  const auto tied_want = Reference(tied);
  RadixSorter::Sort(&tied);
  ExpectSameEntries(tied, tied_want);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SorterSweepTest,
                         ::testing::Values(2, 7, 16, 31, 64, 127, 256, 512,
                                           513, 1024, 2048));

}  // namespace
}  // namespace cagra
