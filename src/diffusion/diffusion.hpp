// RWR-based graph diffusion (Section IV): GreedyDiffuse, the non-greedy
// power-style variant, and AdaptiveDiffuse.
//
// All three approximate q with 0 <= sum_i f_i pi(v_i, v_t) - q_t <= eps d(v_t)
// (Eq. 14) for a non-negative input vector f, where pi is the RWR score with
// restart factor alpha. Runtime is O(max{|supp(f)|, ||f||_1 / ((1-alpha) eps)}),
// independent of the graph size (Theorems IV.1 / IV.2).
#ifndef LACA_DIFFUSION_DIFFUSION_HPP_
#define LACA_DIFFUSION_DIFFUSION_HPP_

#include <cstdint>
#include <vector>

#include "common/cancel.hpp"
#include "common/diffusion_workspace.hpp"
#include "common/sparse_vector.hpp"
#include "graph/graph.hpp"

namespace laca {

/// Parameters shared by the diffusion algorithms.
struct DiffusionOptions {
  /// Walk probability alpha in (0, 1): the RWR stops with prob 1 - alpha at
  /// each step (Eq. 6).
  double alpha = 0.8;
  /// Diffusion threshold eps > 0: residues with r_i / d(v_i) >= eps are
  /// converted and pushed (Eq. 15).
  double epsilon = 1e-6;
  /// Adaptive balancing parameter sigma in [0, 1] (Algo. 2). 0 prefers
  /// non-greedy rounds; >= 1 degenerates to GreedyDiffuse.
  double sigma = 0.0;
  /// Cooperative cancellation token (borrowed; null = never cancel). Polled
  /// at every round boundary and every kCancelPollOps push operations (a
  /// pull round counts one per node in each of its two passes). A
  /// tripped token throws CancelledError; the engine restores the workspace
  /// invariants (AbortCall) before letting it propagate, so the arena stays
  /// as warm and flat as after a completed call.
  const CancelToken* cancel = nullptr;
};

/// Per-call statistics (iteration counts feed Fig. 5 / Table II).
struct DiffusionStats {
  uint64_t iterations = 0;
  uint64_t greedy_rounds = 0;
  uint64_t nongreedy_rounds = 0;
  /// Non-greedy rounds that ran as a pull (a gather over every CSR row)
  /// instead of a push; a subset of nongreedy_rounds (DESIGN.md §2).
  uint64_t pull_rounds = 0;
  /// Total edge traversals performed by push operations: sum of DegreeCount
  /// over converted nodes, counted the same way for pull rounds.
  uint64_t push_work = 0;
  /// Budget consumed by non-greedy rounds (the C_tot of Algo. 2).
  double nongreedy_cost = 0.0;
  /// ||r||_1 recorded at the end of every iteration when tracing is enabled.
  std::vector<double> residual_trace;
  bool record_trace = false;
};

/// Reusable diffusion engine over a fixed graph.
///
/// Works on a DiffusionWorkspace sized to the graph so repeated calls (the
/// two diffusions inside LACA, or many seeds in an experiment) perform zero
/// heap allocations after warm-up. Weighted graphs are supported: pushes
/// distribute proportionally to edge weights and thresholds use weighted
/// degrees. Not thread-safe; not copyable (the workspace is call state).
///
/// A non-greedy round whose residual covers a large share of vol(G) runs as
/// a pull: it converts the same residual and counts the same push_work, and
/// only the order of the floating-point sums differs from a push
/// (DESIGN.md §2, "Pull rounds").
///
/// Extraction contract (the workspace-to-cacheable-vector seam): each call
/// returns a plain SparseVector detached from the workspace — it owns its
/// entries, pins nothing, and is safe to retain, share across threads, and
/// replay long after this engine (or the graph snapshot it ran on) is gone.
/// Its entry ORDER is deterministic for fixed (graph, f, opts): downstream
/// consumers iterate it in order, so order is part of the bit-identity
/// contract the serving layer's diffusion-vector cache relies on
/// (DESIGN.md §13). Anything reordering an extracted vector must reorder
/// deterministically or not at all.
class DiffusionEngine {
 public:
  /// Owns a private workspace bound to `graph`.
  explicit DiffusionEngine(const Graph& graph);

  /// Borrows `workspace` (rebinding it to `graph`); the caller keeps it alive
  /// for the engine's lifetime. Lets one arena serve the engine and
  /// QueuePush on the same thread.
  DiffusionEngine(const Graph& graph, DiffusionWorkspace* workspace);

  DiffusionEngine(const DiffusionEngine&) = delete;
  DiffusionEngine& operator=(const DiffusionEngine&) = delete;

  /// Algo. 1: greedy residue conversion only. `f` must be non-negative.
  SparseVector Greedy(const SparseVector& f, const DiffusionOptions& opts,
                      DiffusionStats* stats = nullptr);

  /// The non-greedy variant (Eq. 17 in every round): converts and pushes the
  /// entire residual each iteration until all residues fall under eps.
  SparseVector NonGreedy(const SparseVector& f, const DiffusionOptions& opts,
                         DiffusionStats* stats = nullptr);

  /// Algo. 2: adaptively interleaves non-greedy rounds (while the cost budget
  /// ||f||_1 / ((1-alpha) eps) allows and the active fraction exceeds sigma)
  /// with greedy rounds.
  SparseVector Adaptive(const SparseVector& f, const DiffusionOptions& opts,
                        DiffusionStats* stats = nullptr);

  const Graph& graph() const { return graph_; }

  /// The scratch arena backing this engine (owned or borrowed).
  const DiffusionWorkspace& workspace() const { return *ws_; }
  DiffusionWorkspace* mutable_workspace() { return ws_; }

 private:
  enum class Mode { kGreedy, kNonGreedy, kAdaptive };
  SparseVector Run(Mode mode, const SparseVector& f,
                   const DiffusionOptions& opts, DiffusionStats* stats);

  // One call's work counters; Run() copies them into DiffusionStats only
  // when the call completes.
  struct Counters {
    uint64_t iterations = 0;
    uint64_t greedy_rounds = 0;
    uint64_t nongreedy_rounds = 0;
    uint64_t pull_rounds = 0;
    uint64_t push_work = 0;
    double nongreedy_cost = 0.0;
  };

  // The mode-specialized iteration loop; Weighted selects the scatter kernel
  // and TrackVolume elides vol(r) bookkeeping when the mode never reads it.
  template <bool Weighted, bool TrackVolume>
  void RunLoop(Mode mode, const DiffusionOptions& opts, double budget,
               bool record_trace, double r_l1, DiffusionStats* stats,
               Counters* counts);

  const Graph& graph_;
  DiffusionWorkspace owned_ws_;  // unused when a workspace is borrowed
  DiffusionWorkspace* ws_;
  double r_volume_ = 0.0;
};

}  // namespace laca

#endif  // LACA_DIFFUSION_DIFFUSION_HPP_
