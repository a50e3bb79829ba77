// LACA (Algo. 4): local BDD approximation over attributed graphs.
#ifndef LACA_CORE_LACA_HPP_
#define LACA_CORE_LACA_HPP_

#include <vector>

#include "attr/tnam.hpp"
#include "common/sparse_vector.hpp"
#include "diffusion/diffusion.hpp"
#include "graph/graph.hpp"

namespace laca {

/// Online-stage options of LACA.
struct LacaOptions {
  /// Restart factor alpha of the underlying RWR (paper sweeps 0..0.9).
  double alpha = 0.8;
  /// Diffusion threshold eps; output volume and cost are O(1/((1-alpha) eps)).
  double epsilon = 1e-6;
  /// AdaptiveDiffuse balance parameter sigma.
  double sigma = 0.0;
  /// Ablation switch (Table VI, "w/o AdaptiveDiffuse"): use GreedyDiffuse.
  bool use_adaptive = true;
  /// Cooperative cancellation token (borrowed; null = never cancel).
  /// Forwarded to both diffusion calls and polled in the Step-2 kernel, so a
  /// deadline trips within one poll interval anywhere in Algo. 4. A tripped
  /// token throws CancelledError; the workspace is restored before it
  /// propagates, so the caller can immediately reuse this Laca.
  const CancelToken* cancel = nullptr;

  DiffusionOptions ToDiffusionOptions() const {
    return DiffusionOptions{alpha, epsilon, sigma, cancel};
  }
};

/// Outcome of one LACA invocation.
struct LacaResult {
  /// The approximate BDD vector rho' (degree-normalized, Line 6 of Algo. 4).
  SparseVector bdd;
  /// Statistics of the two diffusion calls (Steps 1 and 3).
  DiffusionStats rwr_stats, bdd_stats;
  /// |supp(pi')| after Step 1.
  size_t rwr_support = 0;
  /// ||phi'||_1 after Step 2.
  double phi_l1 = 0.0;
};

/// The LACA solver. Construct once per (graph, TNAM) pair; each ComputeBdd /
/// Cluster call is a local operation whose cost is O(k / ((1-alpha) eps)),
/// independent of the graph size (Section V-B).
///
/// Passing a null TNAM selects the LACA (w/o SNAS) ablation: the SNAS
/// degenerates to the identity and the BDD to the CoSimRank-style
/// topology-only measure (Remark, Section II-C).
class Laca {
 public:
  /// `tnam` may be null (w/o SNAS mode); when non-null it must cover all
  /// graph nodes. The referenced graph and TNAM must outlive this object.
  Laca(const Graph& graph, const Tnam* tnam);

  /// As above, but diffusing on a borrowed scratch arena (rebound to
  /// `graph`) instead of a private one. Lets long-lived harnesses keep one
  /// warm workspace across Laca instances — e.g. re-preparing with a new
  /// TNAM per run — so steady-state runs stay allocation-free.
  Laca(const Graph& graph, const Tnam* tnam, DiffusionWorkspace* workspace);

  /// Runs Algo. 4 and returns the approximate BDD vector.
  LacaResult ComputeBdd(NodeId seed, const LacaOptions& opts);

  /// As ComputeBdd; additionally moves the Step-1 RWR vector pi' into
  /// `*rwr_out` (when non-null) after Steps 2-3 consumed it. The extracted
  /// vector preserves its exact entry order — the Step-2/3 sweeps iterate
  /// it in order, so replaying it through ComputeBddFromRwr under the same
  /// (alpha, eps, sigma) reproduces this call's result bit for bit. This is
  /// the serving layer's diffusion-tier cache seam (DESIGN.md §13).
  LacaResult ComputeBdd(NodeId seed, const LacaOptions& opts,
                        SparseVector* rwr_out);

  /// Steps 2-3 of Algo. 4 over a precomputed Step-1 vector `rwr` (as
  /// extracted by the rwr_out overload under the SAME alpha/eps/sigma —
  /// sigma parameterizes Step 1, so a pi' from a different sigma is a
  /// different vector, not a reusable one). rwr_stats stays zero: no
  /// Step-1 diffusion ran.
  LacaResult ComputeBddFromRwr(NodeId seed, const SparseVector& rwr,
                               const LacaOptions& opts);

  /// Runs Algo. 4 and extracts the `size` nodes with the largest BDD values
  /// (seed included, BFS-padded if the explored region is too small).
  std::vector<NodeId> Cluster(NodeId seed, size_t size, const LacaOptions& opts);

  /// As Cluster, extracting pi' like the ComputeBdd overload.
  std::vector<NodeId> Cluster(NodeId seed, size_t size, const LacaOptions& opts,
                              SparseVector* rwr_out);

  /// Cluster over a precomputed Step-1 vector (ComputeBddFromRwr contract).
  std::vector<NodeId> ClusterFromRwr(NodeId seed, size_t size,
                                     const SparseVector& rwr,
                                     const LacaOptions& opts);

  /// Algo. 4 with an arbitrary SNAS provider. When `snas` is actually a
  /// `Tnam` covering the graph, Step 2 routes through the fused batched
  /// kernel (one AccumulateRows pass for psi, one DotRows pass for phi:
  /// O(|supp(pi')| k), identical to ComputeBdd). Any other provider falls
  /// back to the generic O(|supp(pi')|^2) double loop of virtual Snas(j, i)
  /// calls restricted to supp(pi') — quadratic in the support, so callers in
  /// that regime (the alternative-similarity experiments of Table XI, whose
  /// metrics admit no low-rank form) should pick a coarser epsilon to keep
  /// Step 2 affordable.
  LacaResult ComputeBddWithProvider(NodeId seed, const SnasProvider& snas,
                                    const LacaOptions& opts);

  const Graph& graph() const { return graph_; }
  bool has_snas() const { return tnam_ != nullptr; }

  /// The diffusion scratch arena (owned or borrowed); its alloc_events()
  /// counter witnesses the zero-allocation steady state across queries.
  const DiffusionWorkspace& workspace() const { return engine_.workspace(); }

 private:
  // Algo. 4 is one path: RwrStep (Step 1), a Step-2 phi' computation, then
  // FinishBdd (fallback and Step 3). The three BDD entry points differ only
  // in where pi' and phi' come from, so they cannot drift apart
  // numerically.

  // Step 1: pi' from the unit vector at `seed`. Fills rwr_stats and
  // rwr_support.
  SparseVector RwrStep(NodeId seed, const LacaOptions& opts,
                       LacaResult* result);

  // Step 2 with this Laca's own SNAS: the fused TNAM kernel, or the
  // identity SNAS (TopologyPhi) without a TNAM.
  SparseVector SnasStep(const SparseVector& pi, const CancelToken* cancel);

  // Step 2 (Eqs. 12-13) through the fused TNAM kernels; shared by
  // SnasStep and the Tnam fast path of ComputeBddWithProvider. `cancel`
  // (may be null) is polled during the phi assembly sweep.
  SparseVector FusedSnasStep(const Tnam& tnam, const SparseVector& pi,
                             const CancelToken* cancel);

  // The identity-SNAS phi'_i = pi'_i d(i): Step 2 without a TNAM, and the
  // fallback when an attribute-aware phi' comes out empty.
  SparseVector TopologyPhi(const SparseVector& pi) const;

  // Falls back to TopologyPhi(pi) when `phi` is empty, then runs Step 3.
  // Fills result's bdd/bdd_stats/phi_l1.
  void FinishBdd(const SparseVector& pi, SparseVector phi,
                 const LacaOptions& opts, LacaResult* result);

  // The `size` largest entries of `bdd` (seed first), BFS-padded from the
  // seed when the explored region is too small.
  std::vector<NodeId> Extract(const SparseVector& bdd, NodeId seed,
                              size_t size) const;

  const Graph& graph_;
  const Tnam* tnam_;
  DiffusionEngine engine_;
  std::vector<double> psi_;   // Step 2 scratch: Eq. 12 aggregate
  std::vector<double> dots_;  // Step 2 scratch: Eq. 13 batched dots
};

}  // namespace laca

#endif  // LACA_CORE_LACA_HPP_
