// Golden kernel-equivalence suite for the DiffusionWorkspace refactor.
//
// Every production kernel (Greedy / NonGreedy / Adaptive / QueuePush) is
// checked against a frozen straight-line reference implementation of the
// paper's algorithms that keeps the pre-refactor structure: dense O(n)
// arrays allocated per call, full scans per round, division by Degree(v).
// The production kernels reorganize all of that (shared epoch-stamped
// workspace, push-time candidate tracking, ping-pong residuals, reciprocal
// multiplies) but must produce the same reserve vectors to within 1e-12.
//
// The suite also pins the workspace invariants: repeated calls on one engine
// are bit-identical (no stale scratch), and steady-state calls perform zero
// heap allocations (witnessed by DiffusionWorkspace::alloc_events()).
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "diffusion/diffusion.hpp"
#include "diffusion/push.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace laca {
namespace {

enum class RefMode { kGreedy, kNonGreedy, kAdaptive };

// Frozen reference: one round per loop iteration, full dense scans, batch
// semantics of Eq. 16 via an explicit snapshot. Intentionally simple.
std::vector<double> ReferenceDiffuse(const Graph& g, RefMode mode,
                                     const SparseVector& f,
                                     const DiffusionOptions& opts) {
  const NodeId n = g.num_nodes();
  std::vector<double> r(n, 0.0), q(n, 0.0);
  double f_l1 = 0.0;
  for (const auto& e : f.entries()) {
    r[e.index] += e.value;
    f_l1 += e.value;
  }
  const double budget = f_l1 / ((1.0 - opts.alpha) * opts.epsilon);
  double cost = 0.0;
  while (true) {
    std::vector<NodeId> active;
    size_t live = 0;
    double vol_r = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      if (r[v] == 0.0) continue;
      ++live;
      vol_r += g.Degree(v);
      if (r[v] >= opts.epsilon * g.Degree(v)) active.push_back(v);
    }
    if (active.empty()) break;

    bool nongreedy = false;
    if (mode == RefMode::kNonGreedy) {
      nongreedy = true;
    } else if (mode == RefMode::kAdaptive) {
      const double frac =
          static_cast<double>(active.size()) / static_cast<double>(live);
      nongreedy = frac > opts.sigma && cost + vol_r < budget;
    }

    std::vector<NodeId> gamma;
    if (nongreedy) {
      cost += vol_r;
      for (NodeId v = 0; v < n; ++v) {
        if (r[v] != 0.0) gamma.push_back(v);
      }
    } else {
      gamma = active;
    }

    std::vector<double> values(gamma.size());
    for (size_t i = 0; i < gamma.size(); ++i) {
      values[i] = r[gamma[i]];
      r[gamma[i]] = 0.0;
    }
    for (size_t i = 0; i < gamma.size(); ++i) {
      const NodeId v = gamma[i];
      const double gv = values[i];
      q[v] += (1.0 - opts.alpha) * gv;
      auto nbrs = g.Neighbors(v);
      if (nbrs.empty()) continue;
      const double scale = opts.alpha * gv / g.Degree(v);
      if (g.is_weighted()) {
        auto wts = g.NeighborWeights(v);
        for (size_t e = 0; e < nbrs.size(); ++e) r[nbrs[e]] += scale * wts[e];
      } else {
        for (NodeId u : nbrs) r[u] += scale;
      }
    }
  }
  return q;
}

// Frozen reference for the queue-driven push: the pre-refactor deque-based
// structure with per-call O(n) arrays.
void ReferenceQueuePush(const Graph& g, const SparseVector& f,
                        const QueuePushOptions& opts, std::vector<double>* q,
                        std::vector<double>* r) {
  const NodeId n = g.num_nodes();
  q->assign(n, 0.0);
  r->assign(n, 0.0);
  std::vector<uint8_t> queued(n, 0);
  std::vector<NodeId> queue;
  size_t head = 0;
  auto add = [&](NodeId v, double value) {
    (*r)[v] += value;
    if (!queued[v] && (*r)[v] >= opts.epsilon * g.Degree(v)) {
      queued[v] = 1;
      queue.push_back(v);
    }
  };
  for (const auto& e : f.entries()) {
    if (e.value > 0.0) add(e.index, e.value);
  }
  while (head < queue.size()) {
    const NodeId u = queue[head++];
    queued[u] = 0;
    const double ru = (*r)[u];
    if (ru < opts.epsilon * g.Degree(u)) continue;
    (*r)[u] = 0.0;
    (*q)[u] += (1.0 - opts.alpha) * ru;
    auto nbrs = g.Neighbors(u);
    auto wts = g.NeighborWeights(u);
    const double spread = opts.alpha * ru / g.Degree(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      add(nbrs[i], spread * (g.is_weighted() ? wts[i] : 1.0));
    }
  }
}

Graph UnweightedTestGraph() {
  AttributedSbmOptions o;
  o.num_nodes = 400;
  o.num_communities = 4;
  o.avg_degree = 12.0;
  o.intra_fraction = 0.75;
  o.attr_dim = 0;
  o.seed = 91;
  return GenerateAttributedSbm(o).graph;
}

Graph WeightedTestGraph() {
  // Ring plus two chord families (offsets 7 and 31 never collide with each
  // other or the ring as unordered pairs on 200 nodes), random weights.
  GraphBuilder b(200);
  Rng rng(77);
  for (NodeId v = 0; v < 200; ++v) {
    b.AddEdge(v, (v + 1) % 200, 0.25 + 2.0 * rng.Uniform());
    b.AddEdge(v, (v + 7) % 200, 0.25 + 2.0 * rng.Uniform());
    b.AddEdge(v, (v + 31) % 200, 0.25 + 2.0 * rng.Uniform());
  }
  return b.Build(/*weighted=*/true);
}

SparseVector TwoSpikeInput() {
  SparseVector f;
  f.Add(3, 0.35);
  f.Add(42, 0.65);
  return f;
}

void ExpectMatchesReference(const Graph& g, RefMode mode, double epsilon,
                            double sigma) {
  DiffusionEngine engine(g);
  DiffusionOptions opts;
  opts.alpha = 0.8;
  opts.epsilon = epsilon;
  opts.sigma = sigma;
  SparseVector f = TwoSpikeInput();
  SparseVector got;
  DiffusionStats stats;
  switch (mode) {
    case RefMode::kGreedy:
      got = engine.Greedy(f, opts, &stats);
      break;
    case RefMode::kNonGreedy:
      got = engine.NonGreedy(f, opts, &stats);
      break;
    case RefMode::kAdaptive:
      got = engine.Adaptive(f, opts, &stats);
      break;
  }
  // At eps = 1e-5 the residual spreads over both test graphs, so the
  // non-greedy rounds switch to pulls and the comparison below covers them.
  if (mode != RefMode::kGreedy && epsilon == 1e-5) {
    EXPECT_GT(stats.pull_rounds, 0u);
  }
  EXPECT_LE(stats.pull_rounds, stats.nongreedy_rounds);
  std::vector<double> want = ReferenceDiffuse(g, mode, f, opts);
  std::vector<double> got_dense = got.ToDense(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(got_dense[v], want[v], 1e-12) << "node " << v;
  }
  // Support must match exactly: every emitted entry is a true non-zero.
  for (const auto& e : got.entries()) {
    EXPECT_NE(want[e.index], 0.0) << "spurious entry at " << e.index;
  }
}

class GoldenEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(GoldenEquivalenceTest, UnweightedMatchesReference) {
  auto [mode, epsilon, sigma] = GetParam();
  ExpectMatchesReference(UnweightedTestGraph(), static_cast<RefMode>(mode),
                         epsilon, sigma);
}

TEST_P(GoldenEquivalenceTest, WeightedMatchesReference) {
  auto [mode, epsilon, sigma] = GetParam();
  ExpectMatchesReference(WeightedTestGraph(), static_cast<RefMode>(mode),
                         epsilon, sigma);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GoldenEquivalenceTest,
    ::testing::Combine(::testing::Values(0, 1, 2),        // kernels
                       ::testing::Values(1e-3, 1e-5),     // epsilon
                       ::testing::Values(0.0, 0.3)));     // sigma

TEST(GoldenQueuePushTest, MatchesReferenceOnBothGraphs) {
  for (const Graph& g : {UnweightedTestGraph(), WeightedTestGraph()}) {
    QueuePushOptions opts;
    opts.alpha = 0.8;
    opts.epsilon = 1e-5;
    DiffusionWorkspace ws(g);
    QueuePushResult got = QueuePush(g, TwoSpikeInput(), opts, &ws);
    std::vector<double> want_q, want_r;
    ReferenceQueuePush(g, TwoSpikeInput(), opts, &want_q, &want_r);
    std::vector<double> got_q = got.reserve.ToDense(g.num_nodes());
    std::vector<double> got_r = got.residual.ToDense(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(got_q[v], want_q[v], 1e-12) << "reserve at " << v;
      EXPECT_NEAR(got_r[v], want_r[v], 1e-12) << "residual at " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Stale-scratch detection: repeated calls on ONE engine must be bit-identical
// to each other regardless of which kernels ran in between.

TEST(GoldenRepeatabilityTest, InterleavedKernelsAreBitIdentical) {
  for (const Graph& g : {UnweightedTestGraph(), WeightedTestGraph()}) {
    DiffusionEngine engine(g);
    DiffusionOptions opts;
    opts.epsilon = 1e-4;
    SparseVector f = TwoSpikeInput();
    SparseVector g1 = engine.Greedy(f, opts);
    SparseVector n1 = engine.NonGreedy(f, opts);
    SparseVector a1 = engine.Adaptive(f, opts);
    // QueuePush shares the same workspace in between.
    QueuePushOptions popts;
    popts.epsilon = 1e-4;
    QueuePush(g, f, popts, engine.mutable_workspace());
    SparseVector g2 = engine.Greedy(f, opts);
    QueuePush(g, f, popts, engine.mutable_workspace());
    SparseVector n2 = engine.NonGreedy(f, opts);
    SparseVector a2 = engine.Adaptive(f, opts);
    auto expect_identical = [](const SparseVector& x, const SparseVector& y) {
      ASSERT_EQ(x.Size(), y.Size());
      for (size_t i = 0; i < x.Size(); ++i) {
        EXPECT_EQ(x.entries()[i].index, y.entries()[i].index);
        EXPECT_EQ(x.entries()[i].value, y.entries()[i].value);
      }
    };
    expect_identical(g1, g2);
    expect_identical(n1, n2);
    expect_identical(a1, a2);
  }
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state: after warm-up, repeated calls must not touch
// the heap (ISSUE acceptance criterion, witnessed by the workspace counter).

TEST(GoldenZeroAllocTest, EngineSteadyStateAllocatesNothing) {
  Graph g = UnweightedTestGraph();
  DiffusionEngine engine(g);
  DiffusionOptions opts;
  opts.epsilon = 1e-5;
  SparseVector f = TwoSpikeInput();
  // Warm-up: every kernel once (buffer capacities reach steady state).
  engine.Greedy(f, opts);
  engine.NonGreedy(f, opts);
  engine.Adaptive(f, opts);
  const uint64_t warm = engine.workspace().alloc_events();
  uint64_t pull_rounds = 0;
  for (int rep = 0; rep < 10; ++rep) {
    DiffusionStats nongreedy, adaptive;
    engine.Greedy(f, opts);
    engine.NonGreedy(f, opts, &nongreedy);
    engine.Adaptive(f, opts, &adaptive);
    engine.Greedy(SparseVector::Unit(static_cast<NodeId>(7 + rep)), opts);
    pull_rounds += nongreedy.pull_rounds + adaptive.pull_rounds;
  }
  EXPECT_EQ(engine.workspace().alloc_events(), warm);
  // The steady state above includes pull rounds.
  EXPECT_GT(pull_rounds, 0u);
}

TEST(GoldenWorkspaceTest, RebindingToALargerGraphGrowsEveryArray) {
  // The pull round's share array is sized at Bind like r and q: a shared
  // workspace rebound to a larger graph must grow it, count the
  // allocations, and then run pull rounds exactly as a fresh arena does.
  Graph small = WeightedTestGraph();
  Graph large = UnweightedTestGraph();
  ASSERT_LT(small.num_nodes(), large.num_nodes());
  DiffusionWorkspace shared(small);
  DiffusionOptions opts;
  opts.epsilon = 1e-5;
  DiffusionEngine(small, &shared).Adaptive(TwoSpikeInput(), opts);
  const uint64_t before = shared.alloc_events();
  DiffusionEngine engine(large, &shared);
  // Eight dense arrays (r, its partner, q, s, queued, stamp, inv_degree,
  // the queue ring) and five support lists.
  EXPECT_EQ(shared.alloc_events(), before + 13);
  EXPECT_EQ(shared.size(), large.num_nodes());
  DiffusionStats stats;
  SparseVector got = engine.Adaptive(TwoSpikeInput(), opts, &stats);
  EXPECT_GT(stats.pull_rounds, 0u);
  DiffusionEngine fresh(large);
  SparseVector want = fresh.Adaptive(TwoSpikeInput(), opts);
  ASSERT_EQ(got.Size(), want.Size());
  for (size_t i = 0; i < want.Size(); ++i) {
    EXPECT_EQ(got.entries()[i].index, want.entries()[i].index);
    EXPECT_EQ(got.entries()[i].value, want.entries()[i].value);
  }
}

TEST(GoldenWorkspaceTest, QueuePushThrowMidValidationLeavesWorkspaceClean) {
  // Regression: a rejected input must not strand queued[] flags (or any
  // other state) that would corrupt the next call on the same workspace.
  Graph g = UnweightedTestGraph();
  DiffusionWorkspace ws(g);
  QueuePushOptions opts;
  opts.epsilon = 1e-4;
  SparseVector bad;
  bad.Add(5, 1.0);
  bad.Add(9, -0.25);
  EXPECT_THROW(QueuePush(g, bad, opts, &ws), std::invalid_argument);
  QueuePushResult after = QueuePush(g, TwoSpikeInput(), opts, &ws);
  DiffusionWorkspace fresh(g);
  QueuePushResult want = QueuePush(g, TwoSpikeInput(), opts, &fresh);
  ASSERT_EQ(after.reserve.Size(), want.reserve.Size());
  for (size_t i = 0; i < want.reserve.Size(); ++i) {
    EXPECT_EQ(after.reserve.entries()[i].value, want.reserve.entries()[i].value);
  }
}

TEST(GoldenWorkspaceTest, RebindingToSameSizeGraphRefreshesDegrees) {
  // Regression: the workspace must detect a different graph of identical
  // node count (fresh inv_degree), not just a different size.
  Graph a = UnweightedTestGraph();
  AttributedSbmOptions o;
  o.num_nodes = a.num_nodes();
  o.num_communities = 8;
  o.avg_degree = 6.0;
  o.intra_fraction = 0.9;
  o.attr_dim = 0;
  o.seed = 1234;
  Graph b = GenerateAttributedSbm(o).graph;
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  DiffusionWorkspace shared(a);
  QueuePushOptions opts;
  opts.epsilon = 1e-4;
  QueuePush(a, TwoSpikeInput(), opts, &shared);
  QueuePushResult got = QueuePush(b, TwoSpikeInput(), opts, &shared);
  DiffusionWorkspace fresh(b);
  QueuePushResult want = QueuePush(b, TwoSpikeInput(), opts, &fresh);
  ASSERT_EQ(got.reserve.Size(), want.reserve.Size());
  for (size_t i = 0; i < want.reserve.Size(); ++i) {
    EXPECT_EQ(got.reserve.entries()[i].index, want.reserve.entries()[i].index);
    EXPECT_EQ(got.reserve.entries()[i].value, want.reserve.entries()[i].value);
  }
}

TEST(GoldenZeroAllocTest, QueuePushSteadyStateAllocatesNothing) {
  Graph g = WeightedTestGraph();
  DiffusionWorkspace ws(g);
  QueuePushOptions opts;
  opts.epsilon = 1e-5;
  QueuePush(g, TwoSpikeInput(), opts, &ws);  // warm-up
  const uint64_t warm = ws.alloc_events();
  for (int rep = 0; rep < 10; ++rep) {
    QueuePush(g, TwoSpikeInput(), opts, &ws);
    QueuePush(g, SparseVector::Unit(static_cast<NodeId>(rep)), opts, &ws);
  }
  EXPECT_EQ(ws.alloc_events(), warm);
}

}  // namespace
}  // namespace laca
