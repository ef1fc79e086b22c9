// Interning-layer tests: canonicalization (equal contents == same handle),
// arena lifetime and scoped arenas, cached selection length, id stability,
// mutator re-interning, the set-handle contract over both community types,
// the pool-layout inputs (payload hashes and sizes), the thread-safety of the
// sharded pools, and the FlatMap / FlatSet containers the compact RIBs are
// built on. This binary carries the
// `intern` ctest label so the sanitizer CI subset exercises the arena and
// the lock-free read paths under ASan.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "moas/bgp/as_path.h"
#include "moas/bgp/community.h"
#include "moas/bgp/intern.h"
#include "moas/bgp/intern_pool.h"
#include "moas/util/flat_map.h"

namespace {

using namespace moas;
using bgp::Asn;
using bgp::AsPath;

TEST(InternPath, EqualContentsShareOneHandle) {
  AsPath a({3, 2, 1});
  AsPath b({3, 2, 1});
  EXPECT_EQ(a, b);  // pointer equality via interning
  EXPECT_EQ(a.intern_id(), b.intern_id());
  EXPECT_NE(a.intern_id(), 0u);

  AsPath c({3, 2});
  EXPECT_NE(a, c);
  EXPECT_NE(a.intern_id(), c.intern_id());
}

TEST(InternPath, EmptyPathIsTheNullHandle) {
  AsPath empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.intern_id(), 0u);
  EXPECT_EQ(empty.selection_length(), 0u);
  EXPECT_TRUE(empty.segments().empty());
  EXPECT_EQ(empty, AsPath());
}

TEST(InternPath, IdsAreStableAcrossRepeatedConstruction) {
  const std::uint32_t id = AsPath({7, 6, 5}).intern_id();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(AsPath({7, 6, 5}).intern_id(), id);
  }
}

TEST(InternPath, CachedSelectionLengthMatchesSegmentWalk) {
  AsPath path({4, 3, 2, 1});
  path.append_set({10, 11, 12});
  path.append_sequence({20, 21});

  // Recompute the RFC 4271 §9.1.2.2 rule from the raw segments.
  std::size_t expected = 0;
  for (const bgp::PathSegment& segment : path.segments()) {
    expected += segment.kind == bgp::PathSegment::Kind::Set ? 1 : segment.asns.size();
  }
  EXPECT_EQ(expected, 4u + 1u + 2u);
  EXPECT_EQ(path.selection_length(), expected);
}

TEST(InternPath, MutatorsReinternToCanonicalHandles) {
  AsPath grown({2, 1});
  grown.prepend(3);
  EXPECT_EQ(grown, AsPath({3, 2, 1}));

  AsPath appended({3});
  appended.append_sequence({2, 1});
  EXPECT_EQ(appended, AsPath({3, 2, 1}));
  EXPECT_EQ(appended.intern_id(), grown.intern_id());

  // Wide (4-octet) members intern like any other value.
  AsPath wide({70'000, 3, 2});
  wide.prepend(100'000);
  EXPECT_EQ(wide, AsPath({100'000, 70'000, 3, 2}));
  EXPECT_TRUE(wide.contains(70'000));
}

TEST(InternPath, ValueOrderingSurvivesInterning) {
  AsPath a({1, 2});
  AsPath b({1, 3});
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a <=> AsPath({1, 2}), std::strong_ordering::equal);
}

TEST(InternCommunitySet, DedupAndSortedValues) {
  bgp::CommunitySet a;
  a.add(bgp::Community(20, 200));
  a.add(bgp::Community(10, 100));
  bgp::CommunitySet b;
  b.add(bgp::Community(10, 100));
  b.add(bgp::Community(20, 200));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.intern_id(), b.intern_id());
  ASSERT_EQ(a.size(), 2u);
  EXPECT_LT(a.values()[0], a.values()[1]);  // canonical order is sorted

  a.remove(bgp::Community(10, 100));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 1u);
}

TEST(InternLargeCommunitySet, DedupAcrossBuildOrder) {
  bgp::LargeCommunity wide(70'000, 0xff9a, 0);
  bgp::LargeCommunity wider(1'000'000, 0xff9a, 0);
  bgp::LargeCommunitySet a;
  a.add(wider);
  a.add(wide);
  bgp::LargeCommunitySet b;
  b.add(wide);
  b.add(wider);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.intern_id(), b.intern_id());
  EXPECT_TRUE(a.contains(wide));

  bgp::LargeCommunitySet empty;
  EXPECT_EQ(empty.intern_id(), 0u);
  EXPECT_TRUE(empty.empty());
}

/// The set contract's per-element-type inputs: three members in ascending
/// order, the to_string form of {a, c}, and the arena pool the sets use.
template <typename T>
struct SetCase;

template <>
struct SetCase<bgp::Community> {
  static constexpr bgp::Community a{1, 1};
  static constexpr bgp::Community b{1, 2};
  static constexpr bgp::Community c{2, 0};
  static constexpr const char* kAcString = "1:1 2:0";
  static constexpr auto kPool = &bgp::intern::PoolStats::community_sets;
};

template <>
struct SetCase<bgp::LargeCommunity> {
  static constexpr bgp::LargeCommunity a{70'000, 1, 2};
  static constexpr bgp::LargeCommunity b{70'000, 2, 0};
  static constexpr bgp::LargeCommunity c{4'200'000'000u, 0, 0};
  static constexpr const char* kAcString = "70000:1:2 4200000000:0:0";
  static constexpr auto kPool = &bgp::intern::PoolStats::large_community_sets;
};

/// One contract for both intern::Set instantiations.
template <typename T>
class InternSet : public ::testing::Test {
 protected:
  using Set = bgp::intern::Set<T>;
  using Case = SetCase<T>;

  static std::size_t entries() { return (bgp::intern::pool_stats().*Case::kPool).entries; }
};

using SetElements = ::testing::Types<bgp::Community, bgp::LargeCommunity>;
TYPED_TEST_SUITE(InternSet, SetElements);

TYPED_TEST(InternSet, AddRemoveContains) {
  using Case = typename TestFixture::Case;
  // In a fresh arena, so the entry counts show one intern per changing call.
  const bgp::intern::ScopedArena arena;
  typename TestFixture::Set set;
  EXPECT_TRUE(set.empty());
  set.add(Case::a);
  set.add(Case::a);  // duplicates collapse
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.contains(Case::a));
  EXPECT_FALSE(set.contains(Case::b));
  EXPECT_EQ(TestFixture::entries(), 1u);

  set.add(Case::c);
  const auto before = set;
  set.remove(Case::b);  // absent: the handle stays
  EXPECT_EQ(set, before);
  EXPECT_EQ(TestFixture::entries(), 2u);

  set.remove(Case::a);
  EXPECT_EQ(set.values(), std::vector<TypeParam>{Case::c});
  EXPECT_EQ(TestFixture::entries(), 3u);
  set.remove(Case::c);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.intern_id(), 0u);
  EXPECT_EQ(set.interned(), nullptr);
}

TYPED_TEST(InternSet, OrderIrrelevantForEquality) {
  using Case = typename TestFixture::Case;
  typename TestFixture::Set a;
  a.add(Case::c);
  a.add(Case::a);
  typename TestFixture::Set b;
  b.add(Case::a);
  b.add(Case::c);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.interned(), b.interned());
  EXPECT_EQ(a.values(), (std::vector<TypeParam>{Case::a, Case::c}));
}

TYPED_TEST(InternSet, ValueOrdering) {
  using Case = typename TestFixture::Case;
  using Set = typename TestFixture::Set;
  const Set a{Case::a};
  const Set ab{Case::a, Case::b};
  const Set b{Case::b};
  EXPECT_LT(Set(), a);
  EXPECT_LT(a, ab);
  EXPECT_LT(ab, b);
  EXPECT_EQ(ab <=> (Set{Case::b, Case::a}), std::strong_ordering::equal);
  // Equal contents in two arenas: == is identity, the ordering is content.
  const bgp::intern::ScopedArena arena;
  const Set inside{Case::a, Case::b};
  EXPECT_NE(inside, ab);
  EXPECT_EQ(inside <=> ab, std::strong_ordering::equal);
  EXPECT_LT(inside, b);
}

TYPED_TEST(InternSet, InitializerList) {
  using Case = typename TestFixture::Case;
  typename TestFixture::Set added;
  added.add(Case::a);
  added.add(Case::c);
  const typename TestFixture::Set set{Case::c, Case::a, Case::a};
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set, added);
}

TYPED_TEST(InternSet, ToStringSorted) {
  using Case = typename TestFixture::Case;
  typename TestFixture::Set set;
  EXPECT_EQ(set.to_string(), "");
  set.add(Case::c);
  set.add(Case::a);
  EXPECT_EQ(set.to_string(), Case::kAcString);
}

TYPED_TEST(InternSet, Clear) {
  using Case = typename TestFixture::Case;
  typename TestFixture::Set set{Case::a};
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set, typename TestFixture::Set());
  EXPECT_TRUE(set.values().empty());
}

TYPED_TEST(InternSet, ProcessCopyOutlivesTheScope) {
  using Case = typename TestFixture::Case;
  using Set = typename TestFixture::Set;
  Set kept;
  {
    const bgp::intern::ScopedArena arena;
    const Set set{Case::a, Case::b};
    kept = bgp::intern::to_process_arena(set);
    EXPECT_NE(kept, set);
    EXPECT_EQ(kept <=> set, std::strong_ordering::equal);
    EXPECT_TRUE(bgp::intern::to_process_arena(Set()).empty());
  }
  EXPECT_EQ(kept, (Set{Case::b, Case::a}));
  EXPECT_EQ(kept.values(), (std::vector<TypeParam>{Case::a, Case::b}));
}

TEST(InternPools, PayloadHashesArePinned) {
  // A value's pool shard is its hash's low bits, and the per-shard index
  // sizes feed pool_stats().index_bytes: a changed seed or mix order moves
  // entries between shards and changes the benchmark's internet
  // fingerprint. These are the hashes the seeds "PATH", "COMM", "LCOM" and
  // "MOAS" give.
  using namespace bgp;
  const std::vector<PathSegment> path{{PathSegment::Kind::Sequence, {3, 2, 1}},
                                      {PathSegment::Kind::Set, {10, 11}}};
  const std::vector<Community> communities{Community(4006, 0xff9a), Community(65000, 42)};
  const std::vector<LargeCommunity> large{LargeCommunity(70'000, 0xff9a, 0),
                                          LargeCommunity(4'200'000'000u, 1, 2)};
  const std::vector<Asn> members{3, 7, 70'000};
  EXPECT_EQ(intern::hash_payload(path), 0x28f4bacdc8f335bdull);
  EXPECT_EQ(intern::hash_payload(communities), 0xcd94b3730fb3d4cdull);
  EXPECT_EQ(intern::hash_payload(large), 0xe4812c0f9f126143ull);
  EXPECT_EQ(intern::hash_payload(std::span<const Asn>(members)), 0xfb5dffcd39d9d8e2ull);
  EXPECT_EQ(intern::hash_payload(std::vector<Community>{}), 0x434f4d4dull);
  EXPECT_EQ(intern::hash_payload(std::vector<LargeCommunity>{}), 0x4c434f4dull);
}

TEST(InternPools, PayloadStructsAre32Bytes) {
  // pool_stats().payload_bytes charges sizeof(Data) per entry.
  EXPECT_EQ(sizeof(bgp::intern::PathData), 32u);
  EXPECT_EQ(sizeof(bgp::intern::CommunitySetData), 32u);
  EXPECT_EQ(sizeof(bgp::intern::LargeCommunitySetData), 32u);
}

TEST(InternPools, StatsCountDistinctValuesAndGrowMonotonically) {
  const bgp::intern::PoolStats before = bgp::intern::pool_stats();
  // Fresh values (unique to this test) must add exactly these entries;
  // re-interning them must add nothing.
  AsPath p1({90'001, 90'002, 90'003});
  bgp::CommunitySet c;
  c.add(bgp::Community(901, 9001));
  const bgp::intern::PoolStats after = bgp::intern::pool_stats();
  EXPECT_GE(after.paths.entries, before.paths.entries + 1);
  EXPECT_GE(after.community_sets.entries, before.community_sets.entries + 1);
  EXPECT_GT(after.paths.payload_bytes, before.paths.payload_bytes);

  AsPath p2({90'001, 90'002, 90'003});
  EXPECT_EQ(p1, p2);
  const bgp::intern::PoolStats again = bgp::intern::pool_stats();
  EXPECT_EQ(again.paths.entries, after.paths.entries);
  EXPECT_EQ(again.total_bytes(), after.total_bytes());
}

TEST(InternPools, ConcurrentInterningCanonicalizes) {
  // 8 threads hammer the same 64 values plus thread-private ones; every
  // equal-content handle must come back pointer-identical, and ASan must
  // see no arena lifetime violation.
  constexpr int kThreads = 8;
  constexpr Asn kShardBase = 50'000;
  std::vector<std::vector<AsPath>> shared(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &shared] {
      for (int round = 0; round < 50; ++round) {
        for (Asn base = 0; base < 64; ++base) {
          AsPath path({kShardBase + base, kShardBase + base / 2, 65'600 + base});
          if (round == 0) shared[t].push_back(path);
          AsPath mine({kShardBase + static_cast<Asn>(t) * 1000 + base});
          EXPECT_TRUE(mine.contains(kShardBase + static_cast<Asn>(t) * 1000 + base));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(shared[t].size(), shared[0].size());
    for (std::size_t i = 0; i < shared[t].size(); ++i) {
      EXPECT_EQ(shared[t][i], shared[0][i]);
      EXPECT_EQ(shared[t][i].intern_id(), shared[0][i].intern_id());
    }
  }
}

TEST(InternArena, ScopeStartsEmptyAndRestoresTheProcessArena) {
  AsPath outside({91'001, 91'002});
  const bgp::intern::PoolStats process = bgp::intern::pool_stats();
  EXPECT_FALSE(bgp::intern::in_scoped_arena());
  {
    const bgp::intern::ScopedArena run;
    EXPECT_TRUE(bgp::intern::in_scoped_arena());
    EXPECT_EQ(bgp::intern::pool_stats().paths.entries, 0u);
    EXPECT_EQ(bgp::intern::pool_stats().paths.payload_bytes, 0u);
    AsPath inside({91'001, 91'002});
    bgp::CommunitySet communities{bgp::Community(911, 1), bgp::Community(912, 2)};
    EXPECT_EQ(bgp::intern::pool_stats().paths.entries, 1u);
    EXPECT_EQ(bgp::intern::pool_stats().community_sets.entries, 1u);
    // Equal contents, two arenas: == is identity, the ordering is content.
    EXPECT_NE(inside, outside);
    EXPECT_TRUE((inside <=> outside) == 0);
    {
      const bgp::intern::ScopedArena nested;
      EXPECT_EQ(bgp::intern::pool_stats().paths.entries, 0u);
      AsPath deeper({91'001, 91'002});
      EXPECT_NE(deeper, inside);
    }
    EXPECT_EQ(bgp::intern::pool_stats().paths.entries, 1u);
    EXPECT_EQ(AsPath({91'001, 91'002}), inside);
  }
  EXPECT_FALSE(bgp::intern::in_scoped_arena());
  const bgp::intern::PoolStats after = bgp::intern::pool_stats();
  EXPECT_EQ(after.paths.entries, process.paths.entries);
  EXPECT_EQ(after.total_bytes(), process.total_bytes());
  EXPECT_EQ(AsPath({91'001, 91'002}), outside);
}

TEST(InternArena, ProcessCopiesOutliveTheScope) {
  AsPath kept;
  bgp::CommunitySet kept_communities;
  bgp::LargeCommunitySet kept_large;
  const std::uint64_t generation = bgp::intern::arena_generation();
  {
    const bgp::intern::ScopedArena run;
    AsPath path({92'003, 92'002});
    path.append_set({92'010, 92'011});
    const bgp::CommunitySet communities{bgp::Community(921, 1)};
    const bgp::LargeCommunitySet large{bgp::LargeCommunity(92'000, 1, 2)};
    kept = bgp::intern::to_process_arena(path);
    kept_communities = bgp::intern::to_process_arena(communities);
    kept_large = bgp::intern::to_process_arena(large);
    EXPECT_TRUE((kept <=> path) == 0);
    EXPECT_EQ(kept.selection_length(), path.selection_length());
    EXPECT_TRUE(bgp::intern::to_process_arena(AsPath()).empty());
    EXPECT_EQ(bgp::intern::arena_generation(), generation);
  }
  EXPECT_EQ(bgp::intern::arena_generation(), generation + 1);
  // The copies are canonical in the process arena and still readable.
  AsPath expected({92'003, 92'002});
  expected.append_set({92'010, 92'011});
  EXPECT_EQ(kept, expected);
  EXPECT_EQ(kept.to_string(), "92003 92002 {92010,92011}");
  EXPECT_EQ(kept.selection_length(), 3u);
  EXPECT_EQ(kept_communities, (bgp::CommunitySet{bgp::Community(921, 1)}));
  EXPECT_EQ(kept_large, (bgp::LargeCommunitySet{bgp::LargeCommunity(92'000, 1, 2)}));
}

TEST(InternArena, ConcurrentScopesStayOnTheirThreads) {
  // Each thread runs arenas of its own in a row while the others intern
  // into theirs: a thread's values never land in another thread's arena or
  // in the process arena.
  constexpr int kThreads = 4;
  const bgp::intern::PoolStats process = bgp::intern::pool_stats();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int round = 0; round < 20; ++round) {
        const bgp::intern::ScopedArena run;
        for (Asn base = 0; base < 32; ++base) {
          AsPath path({93'000 + base, 94'000 + static_cast<Asn>(t)});
          EXPECT_EQ(path, AsPath({93'000 + base, 94'000 + static_cast<Asn>(t)}));
        }
        EXPECT_EQ(bgp::intern::pool_stats().paths.entries, 32u);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(bgp::intern::pool_stats().paths.entries, process.paths.entries);
}

/// Counts every move, to tell an appending insert from a shifting one.
struct MoveCounted {
  static inline std::size_t moves = 0;
  MoveCounted() = default;
  MoveCounted(MoveCounted&&) noexcept { ++moves; }
  MoveCounted& operator=(MoveCounted&&) noexcept {
    ++moves;
    return *this;
  }
};

TEST(FlatMap, AscendingInsertsAppendWithoutShifting) {
  // How a router gets its peers wired: a hub with thousands of peers,
  // in ascending ASN order. Each insert must append (one move, plus the
  // amortised growth relocations); a shifting insert would move every
  // later entry, which is quadratic over the whole wiring.
  constexpr std::size_t n = 4096;
  util::FlatMap<std::uint32_t, MoveCounted> flat;
  MoveCounted::moves = 0;
  for (std::uint32_t key = 0; key < n; ++key) flat.try_emplace(key);
  EXPECT_EQ(flat.size(), n);
  EXPECT_LE(MoveCounted::moves, 3 * n);
}

TEST(FlatMap, IterationOrderMatchesStdMap) {
  util::FlatMap<int, std::string> flat;
  std::map<int, std::string> reference;
  for (int key : {5, 1, 9, 3, 7, 1}) {
    flat[key] = "v" + std::to_string(key);
    reference[key] = "v" + std::to_string(key);
  }
  ASSERT_EQ(flat.size(), reference.size());
  auto it = flat.begin();
  for (const auto& [key, value] : reference) {
    EXPECT_EQ(it->first, key);
    EXPECT_EQ(it->second, value);
    ++it;
  }
}

TEST(FlatMap, FindEraseAndAssignSemantics) {
  util::FlatMap<int, int> flat;
  EXPECT_TRUE(flat.empty());
  flat[2] = 20;
  flat[1] = 10;
  EXPECT_TRUE(flat.contains(1));
  EXPECT_FALSE(flat.contains(3));
  ASSERT_NE(flat.find(2), flat.end());
  EXPECT_EQ(flat.find(2)->second, 20);
  EXPECT_EQ(flat.find(3), flat.end());

  // insert_or_assign to an existing key assigns in place (no reordering).
  int* slot = &flat.find(2)->second;
  flat.insert_or_assign(2, 21);
  EXPECT_EQ(flat.find(2)->second, 21);
  EXPECT_EQ(&flat.find(2)->second, slot);

  EXPECT_EQ(flat.erase(2), 1u);
  EXPECT_EQ(flat.erase(2), 0u);
  EXPECT_EQ(flat.size(), 1u);
  EXPECT_GE(flat.container_bytes(), flat.size() * sizeof(std::pair<int, int>));

  util::FlatMap<int, int> other;
  other[1] = 10;
  EXPECT_EQ(flat, other);
}

TEST(FlatMap, EraseIfVisitsInKeyOrderAndCompactsOnce) {
  // The stream shard marks eviction victims by position and relies on
  // erase_if seeing each entry once, in key order.
  util::FlatMap<int, int> flat;
  for (int key : {4, 0, 3, 1, 2, 5}) flat.try_emplace(key, 10 * key);

  std::vector<int> seen;
  const std::vector<bool> victim = {false, true, true, false, true, false};
  std::size_t position = 0;
  EXPECT_EQ(flat.erase_if([&](const std::pair<int, int>& entry) {
              seen.push_back(entry.first);
              return victim[position++];
            }),
            3u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  std::vector<std::pair<int, int>> kept(flat.begin(), flat.end());
  EXPECT_EQ(kept, (std::vector<std::pair<int, int>>{{0, 0}, {3, 30}, {5, 50}}));
}

TEST(FlatSet, SortedUniqueMembership) {
  util::FlatSet<int> set;
  EXPECT_TRUE(set.insert(5));
  EXPECT_TRUE(set.insert(1));
  EXPECT_FALSE(set.insert(5));  // duplicate
  EXPECT_TRUE(set.contains(1));
  EXPECT_FALSE(set.contains(2));
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(*set.begin(), 1);

  std::set<int> reference{5, 1};
  auto it = set.begin();
  for (int value : reference) EXPECT_EQ(*it++, value);

  EXPECT_EQ(set.erase(5), 1u);
  EXPECT_EQ(set.erase(5), 0u);
  EXPECT_EQ(set, util::FlatSet<int>{1});
}

TEST(FlatSet, RangeConstructorSortsAndDedupes) {
  const std::vector<int> unsorted{7, 3, 7, 1, 3, 9, 1};
  const util::FlatSet<int> set(unsorted.begin(), unsorted.end());
  const std::set<int> reference(unsorted.begin(), unsorted.end());
  EXPECT_TRUE(std::equal(set.begin(), set.end(), reference.begin(), reference.end()));
  EXPECT_EQ(set, (util::FlatSet<int>{1, 3, 7, 9}));
  EXPECT_EQ(set.container_bytes(), unsorted.size() * sizeof(int));  // one allocation, no growth

  const std::vector<int> none;
  EXPECT_TRUE(util::FlatSet<int>(none.begin(), none.end()).empty());
}

TEST(FlatSet, RangeInsertMergesIntoSortedUniqueMembers) {
  util::FlatSet<int> set{2, 4, 6};
  std::set<int> reference{2, 4, 6};
  // Members below, between, above and equal to the existing ones, with a
  // duplicate inside the range itself.
  const std::vector<int> more{5, 0, 6, 9, 2, 5, 3};
  set.insert(more.begin(), more.end());
  reference.insert(more.begin(), more.end());
  EXPECT_TRUE(std::equal(set.begin(), set.end(), reference.begin(), reference.end()));
  EXPECT_EQ(set.size(), 7u);

  const std::vector<int> none;
  set.insert(none.begin(), none.end());
  EXPECT_EQ(set.size(), 7u);

  util::FlatSet<int> empty;
  empty.insert(more.begin(), more.end());
  EXPECT_EQ(empty, (util::FlatSet<int>{0, 2, 3, 5, 6, 9}));
}

}  // namespace
