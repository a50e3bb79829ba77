#include "core/cluster.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "diffusion/exact.hpp"
#include "eval/metrics.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace laca {
namespace {

/// Two 5-cliques joined by one bridge — the canonical sweep-cut testbed.
Graph Barbell() {
  GraphBuilder b(10);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  for (NodeId u = 5; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) b.AddEdge(u, v);
  }
  b.AddEdge(4, 5);  // bridge
  return b.Build();
}

// ---------------------------------------------------------------------------
// TopKCluster.

TEST(TopKClusterTest, SeedComesFirstEvenWithZeroScore) {
  SparseVector scores;
  scores.Add(3, 0.9);
  scores.Add(7, 0.8);
  std::vector<NodeId> cluster = TopKCluster(scores, /*seed=*/1, 2);
  ASSERT_EQ(cluster.size(), 2u);
  EXPECT_EQ(cluster[0], 1u);
  EXPECT_EQ(cluster[1], 3u);
}

TEST(TopKClusterTest, SeedNotDuplicatedWhenScored) {
  SparseVector scores;
  scores.Add(1, 0.9);
  scores.Add(2, 0.5);
  std::vector<NodeId> cluster = TopKCluster(scores, 1, 2);
  EXPECT_EQ(cluster, (std::vector<NodeId>{1, 2}));
}

TEST(TopKClusterTest, TiesBreakByNodeId) {
  SparseVector scores;
  scores.Add(9, 0.5);
  scores.Add(2, 0.5);
  scores.Add(5, 0.5);
  std::vector<NodeId> cluster = TopKCluster(scores, 0, 3);
  EXPECT_EQ(cluster, (std::vector<NodeId>{0, 2, 5}));
}

TEST(TopKClusterTest, ReturnsFewerWhenSupportIsSmall) {
  SparseVector scores;
  scores.Add(4, 1.0);
  std::vector<NodeId> cluster = TopKCluster(scores, 4, 10);
  EXPECT_EQ(cluster, (std::vector<NodeId>{4}));
}

TEST(TopKClusterTest, ZeroSizeThrows) {
  EXPECT_THROW(TopKCluster(SparseVector(), 0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PadWithBfs.

TEST(PadWithBfsTest, PadsFromSeedOutward) {
  Graph g = Barbell();
  std::vector<NodeId> cluster =
      PadWithBfs(g, {0}, /*size=*/5, /*seed=*/0);
  EXPECT_EQ(cluster.size(), 5u);
  // All of clique A is closer to the seed than anything across the bridge.
  std::sort(cluster.begin(), cluster.end());
  EXPECT_EQ(cluster, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(PadWithBfsTest, AlreadyLargeEnoughIsUntouched) {
  Graph g = Barbell();
  std::vector<NodeId> cluster = {0, 9, 3};
  EXPECT_EQ(PadWithBfs(g, cluster, 3, 0), cluster);
  EXPECT_EQ(PadWithBfs(g, cluster, 2, 0), cluster);
}

TEST(PadWithBfsTest, StopsAtComponentBoundary) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);  // separate component
  Graph g = b.Build();
  std::vector<NodeId> cluster = PadWithBfs(g, {0}, 6, 0);
  // Only nodes reachable from the seed can pad the cluster.
  std::sort(cluster.begin(), cluster.end());
  EXPECT_EQ(cluster, (std::vector<NodeId>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Extraction against frozen references: the full-sort TopKCluster and the
// hash-set BFS pad, kept verbatim. The library versions select before they
// sort and mark visits in a flat array; their output must be equal.

std::vector<NodeId> ReferenceTopKCluster(const SparseVector& scores,
                                         NodeId seed, size_t size) {
  LACA_CHECK(size >= 1, "cluster size must be >= 1");
  SparseVector sorted = scores;
  sorted.SortByValueDesc();
  std::vector<NodeId> cluster;
  cluster.reserve(size);
  cluster.push_back(seed);
  for (const auto& e : sorted.entries()) {
    if (cluster.size() >= size) break;
    if (e.index == seed) continue;
    cluster.push_back(e.index);
  }
  return cluster;
}

std::vector<NodeId> ReferencePadWithBfs(const Graph& graph,
                                        std::vector<NodeId> cluster,
                                        size_t size, NodeId seed) {
  if (cluster.size() >= size) return cluster;
  std::unordered_set<NodeId> in(cluster.begin(), cluster.end());
  std::deque<NodeId> queue;
  // Start the BFS frontier from the existing cluster (seed first).
  queue.push_back(seed);
  for (NodeId v : cluster) {
    if (v != seed) queue.push_back(v);
  }
  std::unordered_set<NodeId> visited(cluster.begin(), cluster.end());
  visited.insert(seed);
  while (!queue.empty() && cluster.size() < size) {
    NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : graph.Neighbors(u)) {
      if (visited.insert(v).second) {
        queue.push_back(v);
        if (in.insert(v).second) {
          cluster.push_back(v);
          if (cluster.size() >= size) break;
        }
      }
    }
  }
  return cluster;
}

// Random scores over ids [0, universe): values from a small pool (many
// exact ties, some zeros and negatives). `duplicates` appends repeated
// indices, which takes the Compact() path; otherwise the entries are
// strictly increasing by index, as a diffusion result is.
SparseVector RandomScores(Rng& rng, NodeId universe, bool duplicates) {
  static const double kPool[] = {0.5, 0.25, 0.125, 1e-9, 0.0, -0.25, 0.75};
  SparseVector scores;
  for (NodeId v = 0; v < universe; ++v) {
    if (rng.Bernoulli(0.6)) scores.Add(v, kPool[rng.UniformInt(7)]);
  }
  if (duplicates) {
    const size_t extra = 1 + rng.UniformInt(universe);
    for (size_t i = 0; i < extra; ++i) {
      scores.Add(static_cast<NodeId>(rng.UniformInt(universe)),
                 kPool[rng.UniformInt(7)]);
    }
  }
  return scores;
}

TEST(TopKClusterTest, MatchesFullSortReferenceOnRandomInputs) {
  Rng rng(2024);
  size_t seed_in_prefix = 0, seed_outside = 0, oversized = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const NodeId universe = static_cast<NodeId>(1 + rng.UniformInt(60));
    const SparseVector scores =
        RandomScores(rng, universe, /*duplicates=*/trial % 3 == 0);
    const NodeId seed = static_cast<NodeId>(rng.UniformInt(universe + 2));
    // Sizes from 1 up past the support.
    const size_t size = 1 + rng.UniformInt(universe + 10);
    ASSERT_EQ(TopKCluster(scores, seed, size),
              ReferenceTopKCluster(scores, seed, size))
        << "trial " << trial << " seed " << seed << " size " << size;
    // Count the cases the selection must get right.
    SparseVector sorted = scores;
    sorted.SortByValueDesc();
    const auto& ranked = sorted.entries();
    const auto at = std::find_if(ranked.begin(), ranked.end(),
                                 [&](const auto& e) { return e.index == seed; });
    if (at != ranked.end()) {
      ++(static_cast<size_t>(at - ranked.begin()) < size ? seed_in_prefix
                                                         : seed_outside);
    }
    if (size > ranked.size()) ++oversized;
  }
  EXPECT_GT(seed_in_prefix, 0u);
  EXPECT_GT(seed_outside, 0u);
  EXPECT_GT(oversized, 0u);
}

TEST(TopKClusterTest, DropsZerosAndMergesDuplicatesLikeCompact) {
  SparseVector increasing;
  increasing.Add(1, 0.0);
  increasing.Add(2, 0.3);
  increasing.Add(3, -0.0);
  increasing.Add(4, 0.3);
  EXPECT_EQ(TopKCluster(increasing, 0, 4), (std::vector<NodeId>{0, 2, 4}));
  SparseVector duplicated;
  duplicated.Add(5, 0.25);
  duplicated.Add(2, 0.5);
  duplicated.Add(5, 0.5);   // merges to 0.75, ahead of node 2
  duplicated.Add(3, 0.25);
  duplicated.Add(3, -0.25);  // merges to 0 and is dropped
  EXPECT_EQ(TopKCluster(duplicated, 0, 5), (std::vector<NodeId>{0, 5, 2}));
  EXPECT_EQ(TopKCluster(duplicated, 0, 5),
            ReferenceTopKCluster(duplicated, 0, 5));
}

// A graph of up to four components: random blocks over disjoint id ranges
// (sparse enough that some blocks split further).
Graph ComponentsGraph(Rng& rng) {
  const NodeId n = static_cast<NodeId>(20 + rng.UniformInt(80));
  GraphBuilder b(n);
  const NodeId parts = static_cast<NodeId>(1 + rng.UniformInt(4));
  for (NodeId p = 0; p < parts; ++p) {
    const NodeId lo = n * p / parts;
    const NodeId hi = n * (p + 1) / parts;
    for (NodeId u = lo; u < hi; ++u) {
      for (NodeId v = u + 1; v < hi; ++v) {
        if (rng.Bernoulli(0.12)) b.AddEdge(u, v);
      }
    }
  }
  return b.Build();
}

TEST(PadWithBfsTest, MatchesHashSetReferenceOnRandomInputs) {
  Rng rng(77);
  size_t padded = 0, stopped_short = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Graph g = ComponentsGraph(rng);
    const NodeId n = g.num_nodes();
    const NodeId seed = static_cast<NodeId>(rng.UniformInt(n));
    // Clusters holding non-seed nodes, with or without the seed, sometimes
    // across components.
    std::vector<NodeId> cluster;
    if (rng.Bernoulli(0.7)) cluster.push_back(seed);
    const size_t extra = rng.UniformInt(8);
    for (size_t i = 0; i < extra; ++i) {
      const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
      if (std::find(cluster.begin(), cluster.end(), v) == cluster.end()) {
        cluster.push_back(v);
      }
    }
    rng.Shuffle(cluster);
    const size_t size = rng.UniformInt(n + 5);
    const std::vector<NodeId> want = ReferencePadWithBfs(g, cluster, size, seed);
    ASSERT_EQ(PadWithBfs(g, cluster, size, seed), want)
        << "trial " << trial << " seed " << seed << " size " << size;
    if (want.size() > cluster.size()) ++padded;
    if (want.size() < size) ++stopped_short;
  }
  EXPECT_GT(padded, 0u);
  EXPECT_GT(stopped_short, 0u);
}

TEST(PadWithBfsTest, OutOfRangeIdsThrow) {
  Graph g = Barbell();
  EXPECT_THROW(PadWithBfs(g, {}, 3, 10), std::invalid_argument);
  EXPECT_THROW(PadWithBfs(g, {0, 12}, 3, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SweepCut.

TEST(SweepCutTest, FindsThePlantedCliqueCut) {
  Graph g = Barbell();
  SparseVector scores =
      SparseVector::FromDense(ExactRwr(g, 0, 0.8), 1e-12);
  // Degree-normalize, as every diffusion method in the library does.
  for (auto& e : scores.mutable_entries()) e.value /= g.Degree(e.index);
  SweepResult result = SweepCut(g, scores);
  std::vector<NodeId> cluster = result.cluster;
  std::sort(cluster.begin(), cluster.end());
  EXPECT_EQ(cluster, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  // Clique volume = 5*4 + 1 bridge endpoint = 21; cut = 1.
  EXPECT_NEAR(result.conductance, 1.0 / 21.0, 1e-12);
}

TEST(SweepCutTest, ConductanceMatchesIndependentMetric) {
  Graph g = GenerateAttributedSbm([] {
               AttributedSbmOptions o;
               o.num_nodes = 300;
               o.num_communities = 4;
               o.avg_degree = 8.0;
               o.attr_dim = 0;
               o.seed = 21;
               return o;
             }()).graph;
  SparseVector scores =
      SparseVector::FromDense(ExactRwr(g, 5, 0.8), 1e-9);
  for (auto& e : scores.mutable_entries()) e.value /= g.Degree(e.index);
  SweepResult result = SweepCut(g, scores, /*max_size=*/100);
  ASSERT_FALSE(result.cluster.empty());
  EXPECT_NEAR(result.conductance, Conductance(g, result.cluster), 1e-9);
}

TEST(SweepCutTest, IsTheMinimumOverAllPrefixes) {
  Graph g = Barbell();
  SparseVector scores;
  // A deliberately bad ordering: alternating cliques.
  const NodeId order[] = {0, 5, 1, 6, 2, 7, 3, 8, 4, 9};
  double v = 1.0;
  for (NodeId u : order) {
    scores.Add(u, v);
    v *= 0.9;
  }
  SweepResult result = SweepCut(g, scores);

  // Recompute every prefix conductance independently.
  double best = 2.0;
  std::vector<NodeId> prefix;
  for (NodeId u : order) {
    prefix.push_back(u);
    if (prefix.size() == 10) break;  // whole graph is not a cut
    best = std::min(best, Conductance(g, prefix));
  }
  EXPECT_NEAR(result.conductance, best, 1e-12);
}

TEST(SweepCutTest, MaxSizeBoundsTheCluster) {
  Graph g = Barbell();
  SparseVector scores =
      SparseVector::FromDense(ExactRwr(g, 0, 0.8), 1e-12);
  SweepResult result = SweepCut(g, scores, /*max_size=*/3);
  EXPECT_LE(result.cluster.size(), 3u);
}

TEST(SweepCutTest, EmptyScoresYieldEmptyCluster) {
  SweepResult result = SweepCut(Barbell(), SparseVector());
  EXPECT_TRUE(result.cluster.empty());
  EXPECT_DOUBLE_EQ(result.conductance, 1.0);
}

TEST(SweepCutTest, WholeComponentPrefixIsSkippedOnConnectedGraph) {
  // On a connected graph the full-node-set prefix has denominator 0 and must
  // not be reported as a conductance-0 cluster.
  Graph g = Barbell();
  SparseVector scores;
  for (NodeId v = 0; v < 10; ++v) scores.Add(v, 1.0 - 0.01 * v);
  SweepResult result = SweepCut(g, scores);
  EXPECT_LT(result.cluster.size(), 10u);
  EXPECT_GT(result.conductance, 0.0);
}

}  // namespace
}  // namespace laca
