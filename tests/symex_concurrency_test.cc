// Concurrency primitives under src/symex: the shared coverage map (the
// atomic bitset the parallel exercise stage publishes into).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "symex/coverage.h"

namespace revnic::symex {
namespace {

// ---- SharedCoverageMap ----

TEST(SharedCoverageMap, MarksOnlyUniversePcsAndCountsFirstCoverage) {
  SharedCoverageMap map({0x100, 0x104, 0x10C, 0x200});
  EXPECT_EQ(map.UniverseSize(), 4u);
  EXPECT_EQ(map.CoveredCount(), 0u);

  EXPECT_TRUE(map.Mark(0x104));
  EXPECT_FALSE(map.Mark(0x104));  // repeat
  EXPECT_FALSE(map.Mark(0x108));  // not in universe
  EXPECT_TRUE(map.Covered(0x104));
  EXPECT_FALSE(map.Covered(0x100));
  EXPECT_FALSE(map.Covered(0x108));
  EXPECT_EQ(map.CoveredCount(), 1u);

  EXPECT_EQ(map.Seed({0x100, 0x104, 0x200}), 2u);  // 0x104 already covered
  EXPECT_EQ(map.CoveredCount(), 3u);

  std::set<uint32_t> snapshot;
  map.SnapshotInto(&snapshot);
  EXPECT_EQ(snapshot, (std::set<uint32_t>{0x100, 0x104, 0x200}));
}

TEST(SharedCoverageMap, ConcurrentMarkingCountsEachBlockOnce) {
  // A universe bigger than one bitmap word, hammered by racing workers with
  // overlapping ranges: every pc must be counted exactly once.
  std::set<uint32_t> universe;
  for (uint32_t pc = 0; pc < 1000; ++pc) {
    universe.insert(pc * 4);
  }
  SharedCoverageMap map(universe);

  std::atomic<size_t> fresh{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&map, &fresh, t] {
      // Each worker marks 3/4 of the universe, offset by its index.
      for (uint32_t i = 0; i < 750; ++i) {
        uint32_t pc = ((i + static_cast<uint32_t>(t) * 125) % 1000) * 4;
        if (map.Mark(pc)) {
          fresh.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(fresh.load(), 1000u);
  EXPECT_EQ(map.CoveredCount(), 1000u);
  std::set<uint32_t> snapshot;
  map.SnapshotInto(&snapshot);
  EXPECT_EQ(snapshot, universe);
}

}  // namespace
}  // namespace revnic::symex
