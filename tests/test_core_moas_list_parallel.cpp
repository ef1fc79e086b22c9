// The MoasList pool and decode memo under concurrent decoders. Lives in the
// `parallel` binary so CI's ThreadSanitizer job runs it.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "moas/core/moas_list.h"

namespace moas::core {
namespace {

TEST(MoasListParallel, ConcurrentDecodesReturnOneHandle) {
  // Every thread decodes the same lists, fresh to the pool, in its own
  // order: each thread's memo misses once per list, so the pool sees racing
  // inserts of equal contents and must hand all of them one handle.
  constexpr int kThreads = 4;
  constexpr int kLists = 64;
  std::vector<bgp::PathAttributes> lists(kLists);
  for (int i = 0; i < kLists; ++i) {
    attach_moas_list(lists[i], {static_cast<Asn>(0x7100 + i), static_cast<Asn>(900'000 + i)});
  }
  std::vector<std::vector<MoasList>> seen(kThreads, std::vector<MoasList>(kLists));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < kLists; ++k) {
          const int i = (k * (2 * t + 1)) % kLists;
          const MoasList list = moas_list_of(lists[i]);
          if (round == 0) seen[t][i] = list;
          EXPECT_EQ(list, seen[t][i]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kLists; ++i) {
    EXPECT_EQ(seen[0][i].set(), (AsnSet{static_cast<Asn>(0x7100 + i), static_cast<Asn>(900'000 + i)}));
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][i], seen[0][i]) << "list " << i;
  }
}

}  // namespace
}  // namespace moas::core
