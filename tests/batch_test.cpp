#include "core/batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "attr/tnam.hpp"
#include "core/thread_budget.hpp"
#include "eval/datasets.hpp"

namespace laca {
namespace {

TEST(ThreadBudgetTest, FleetIsCappedByTheThreadBudget) {
  // More queries (or requested workers) than threads: one worker per
  // budgeted thread, never more.
  EXPECT_EQ(WorkerCount(/*max_workers=*/16, /*total_threads=*/8), 8u);
  EXPECT_EQ(WorkerCount(16, 4), 4u);
  EXPECT_EQ(WorkerCount(0, 6), 6u);  // max_workers 0 = no cap
}

TEST(ThreadBudgetTest, FleetIsCappedByTheWorkerCeiling) {
  // Fewer queries than threads: surplus threads stay unused — every worker
  // answers its queries serially, so an idle extra would only cost a Laca.
  EXPECT_EQ(WorkerCount(3, 8), 3u);
  EXPECT_EQ(WorkerCount(1, 16), 1u);
  EXPECT_EQ(WorkerCount(5, 5), 5u);
}

TEST(ThreadBudgetTest, ZeroDefaultsAreSane) {
  // total 0 = hardware concurrency (at least 1); the fleet is never empty.
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(WorkerCount(0, 0), hardware);
  EXPECT_EQ(WorkerCount(1000, 0), hardware);
  EXPECT_EQ(WorkerCount(5, 1), 1u);
}

class BatchClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = &GetDataset("cora-sim");
    TnamOptions topts;
    tnam_ = new Tnam(Tnam::Build(ds_->data.attributes, topts));
  }
  static void TearDownTestSuite() {
    delete tnam_;
    tnam_ = nullptr;
  }

  static std::vector<BatchQuery> MakeQueries(size_t count) {
    std::vector<NodeId> seeds = SampleSeeds(*ds_, count);
    std::vector<BatchQuery> queries;
    for (NodeId seed : seeds) {
      queries.push_back(
          {seed, ds_->data.communities.GroundTruthCluster(seed).size()});
    }
    return queries;
  }

  static const Dataset* ds_;
  static Tnam* tnam_;
};

const Dataset* BatchClusterTest::ds_ = nullptr;
Tnam* BatchClusterTest::tnam_ = nullptr;

TEST_F(BatchClusterTest, MatchesSerialClusterCalls) {
  std::vector<BatchQuery> queries = MakeQueries(12);
  BatchClusterOptions opts;
  opts.num_threads = 4;
  std::vector<std::vector<NodeId>> batch =
      BatchCluster(ds_->data.graph, tnam_, queries, opts);

  Laca serial(ds_->data.graph, tnam_);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i],
              serial.Cluster(queries[i].seed, queries[i].size, opts.laca))
        << "query " << i;
  }
}

TEST_F(BatchClusterTest, ResultsIndependentOfThreadCount) {
  std::vector<BatchQuery> queries = MakeQueries(9);
  BatchClusterOptions one, many;
  one.num_threads = 1;
  many.num_threads = 8;
  EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, one),
            BatchCluster(ds_->data.graph, tnam_, queries, many));
}

TEST_F(BatchClusterTest, MoreWorkersThanQueries) {
  // Regression: worker counts far above the query count must clamp cleanly
  // (excess workers used to distort the static chunk sizing) and still
  // answer every query exactly once.
  std::vector<BatchQuery> queries = MakeQueries(3);
  BatchClusterOptions serial, oversized;
  serial.num_threads = 1;
  oversized.num_threads = 100;
  std::vector<std::vector<NodeId>> expected =
      BatchCluster(ds_->data.graph, tnam_, queries, serial);
  EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, oversized),
            expected);
  oversized.schedule = BatchSchedule::kStaticChunk;
  EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, oversized),
            expected);
}

TEST_F(BatchClusterTest, SchedulersAgreeAcrossWorkerCounts) {
  std::vector<BatchQuery> queries = MakeQueries(11);
  BatchClusterOptions base;
  base.num_threads = 1;
  std::vector<std::vector<NodeId>> expected =
      BatchCluster(ds_->data.graph, tnam_, queries, base);
  for (size_t threads : {0u, 1u, 2u, 5u, 16u}) {
    for (BatchSchedule schedule :
         {BatchSchedule::kDynamic, BatchSchedule::kStaticChunk}) {
      BatchClusterOptions opts;
      opts.num_threads = threads;
      opts.schedule = schedule;
      EXPECT_EQ(BatchCluster(ds_->data.graph, tnam_, queries, opts), expected)
          << "threads=" << threads << " schedule=" << static_cast<int>(schedule);
    }
  }
}

TEST_F(BatchClusterTest, WithoutSnasMode) {
  std::vector<BatchQuery> queries = MakeQueries(4);
  BatchClusterOptions opts;
  std::vector<std::vector<NodeId>> results =
      BatchCluster(ds_->data.graph, /*tnam=*/nullptr, queries, opts);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_FALSE(results[i].empty());
    EXPECT_EQ(results[i].front(), queries[i].seed);
  }
}

TEST_F(BatchClusterTest, EmptyQueryListIsANoop) {
  BatchClusterOptions opts;
  EXPECT_TRUE(
      BatchCluster(ds_->data.graph, tnam_, {}, opts).empty());
}

TEST_F(BatchClusterTest, InvalidQueryPropagates) {
  std::vector<BatchQuery> queries = {{0, 0}};  // zero size
  BatchClusterOptions opts;
  EXPECT_THROW(BatchCluster(ds_->data.graph, tnam_, queries, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace laca
