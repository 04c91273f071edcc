// Each output check must pass clean results and count a planted corruption.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "checks.hpp"

namespace perfbench {
namespace {

TEST(ScanCheck, AcceptsAChainThatCoversOwnWrites) {
  ScanCheck c(100);
  c.wrote(10);
  c.scanned(10);
  c.scanned(40);
  c.wrote(50);
  c.scanned(100);
  EXPECT_EQ(c.failed(), 0u);
  EXPECT_EQ(check_final_scan(100, 100), 0u);
}

TEST(ScanCheck, CountsDecreaseMissedWriteAndInventedValue) {
  ScanCheck c(100);
  c.scanned(40);
  c.scanned(30);  // decreased
  c.wrote(60);
  c.scanned(50);   // misses this thread's completed write
  c.scanned(101);  // larger than anything written
  EXPECT_EQ(c.failed(), 3u);
  EXPECT_EQ(check_final_scan(99, 100), 1u);
}

std::vector<std::vector<std::int64_t>> clean_logs() {
  // Producers 0 and 1 enqueued 3 and 2 values; two consumers.
  return {{queue_value(0, 1), queue_value(1, 1), queue_value(0, 2)},
          {queue_value(1, 2), queue_value(0, 3)}};
}

TEST(QueueCheck, AcceptsEveryValueOnceInProducerOrder) {
  EXPECT_EQ(check_queue({3, 2}, clean_logs()), 0u);
}

TEST(QueueCheck, CountsLostValue) {
  auto logs = clean_logs();
  logs[1].pop_back();
  EXPECT_EQ(check_queue({3, 2}, logs), 1u);
}

TEST(QueueCheck, CountsDuplicate) {
  auto logs = clean_logs();
  logs[1].push_back(queue_value(1, 1));
  EXPECT_GE(check_queue({3, 2}, logs), 1u);
}

TEST(QueueCheck, CountsProducerOrderBrokenWithinAConsumer) {
  auto logs = clean_logs();
  std::swap(logs[0][0], logs[0][2]);  // producer 0: seq 2 before seq 1
  EXPECT_EQ(check_queue({3, 2}, logs), 1u);
}

TEST(QueueCheck, CountsEmptyAndForeignResponses) {
  auto logs = clean_logs();
  logs[0].push_back(-1);
  logs[0].push_back(queue_value(5, 1));
  EXPECT_EQ(check_queue({3, 2}, logs), 2u);
}

const std::vector<Edge> kEdges = {{3, 1}, {4, 5}, {5, 3}, {6, 7}};
// Sets: {1,3,4,5} root 1, {6,7} root 6, {0}, {2}: 4 sets over 8 vertices.
const std::vector<std::int32_t> kRoots = {0, 1, 2, 1, 1, 1, 6, 6};

TEST(PartitionCheck, AcceptsTheSequentialPartition) {
  EXPECT_EQ(check_partition(kEdges, kRoots, 4), 0u);
}

TEST(PartitionCheck, CountsWrongRootAndInexactNumSets) {
  auto roots = kRoots;
  roots[7] = 7;  // vertex 7 split from its set
  EXPECT_EQ(check_partition(kEdges, roots, 4), 1u);
  EXPECT_EQ(check_partition(kEdges, kRoots, 5), 1u);
}

TEST(QueryCheck, CountsSameSetYesForSeparateSetsAndNumSetsOutOfRange) {
  const std::vector<Query> clean = {{false, {3, 4}, 1},
                                    {false, {0, 2}, 0},
                                    {true, {}, 4},
                                    {true, {}, 8}};
  EXPECT_EQ(check_queries(clean, kRoots, 4), 0u);
  const std::vector<Query> bad = {{false, {0, 2}, 1},  // never merged
                                  {true, {}, 3},       // below final count
                                  {true, {}, 9}};      // above the universe
  EXPECT_EQ(check_queries(bad, kRoots, 4), 3u);
}

TEST(CounterCheck, CountsAnInexactFinalRead) {
  EXPECT_EQ(check_counter(42, 42), 0u);
  EXPECT_EQ(check_counter(41, 42), 1u);
}

}  // namespace
}  // namespace perfbench
