#include "core/laca.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/cluster.hpp"

namespace laca {

Laca::Laca(const Graph& graph, const Tnam* tnam)
    : graph_(graph), tnam_(tnam), engine_(graph) {
  if (tnam_ != nullptr) {
    LACA_CHECK(tnam_->num_rows() == graph.num_nodes(),
               "TNAM row count must match graph node count");
    psi_.resize(tnam_->dim());
  }
}

Laca::Laca(const Graph& graph, const Tnam* tnam, DiffusionWorkspace* workspace)
    : graph_(graph), tnam_(tnam), engine_(graph, workspace) {
  if (tnam_ != nullptr) {
    LACA_CHECK(tnam_->num_rows() == graph.num_nodes(),
               "TNAM row count must match graph node count");
    psi_.resize(tnam_->dim());
  }
}

LacaResult Laca::ComputeBdd(NodeId seed, const LacaOptions& opts) {
  return ComputeBdd(seed, opts, nullptr);
}

LacaResult Laca::ComputeBdd(NodeId seed, const LacaOptions& opts,
                            SparseVector* rwr_out) {
  LacaResult result;
  SparseVector pi = RwrStep(seed, opts, &result);
  FinishBdd(pi, SnasStep(pi, opts.cancel), opts, &result);
  // Extract pi' only after Steps 2-3 consumed it, preserving its exact
  // entry order: replaying it through ComputeBddFromRwr reproduces this
  // result bit for bit (the diffusion-tier cache contract).
  if (rwr_out != nullptr) *rwr_out = std::move(pi);
  return result;
}

LacaResult Laca::ComputeBddFromRwr(NodeId seed, const SparseVector& rwr,
                                   const LacaOptions& opts) {
  LACA_CHECK(seed < graph_.num_nodes(), "seed out of range");
  LacaResult result;
  result.rwr_support = rwr.Size();
  FinishBdd(rwr, SnasStep(rwr, opts.cancel), opts, &result);
  return result;
}

SparseVector Laca::RwrStep(NodeId seed, const LacaOptions& opts,
                           LacaResult* result) {
  LACA_CHECK(seed < graph_.num_nodes(), "seed out of range");
  // Step 1: estimate the RWR vector pi' by diffusing the unit vector 1^(s).
  const DiffusionOptions dopts = opts.ToDiffusionOptions();
  SparseVector pi = opts.use_adaptive
                        ? engine_.Adaptive(SparseVector::Unit(seed), dopts,
                                           &result->rwr_stats)
                        : engine_.Greedy(SparseVector::Unit(seed), dopts,
                                         &result->rwr_stats);
  result->rwr_support = pi.Size();
  return pi;
}

SparseVector Laca::SnasStep(const SparseVector& pi,
                            const CancelToken* cancel) {
  // Step 2: aggregate TNAM rows into psi (Eq. 12), then build the RWR-SNAS
  // vector phi'_i = (psi . z(i)) d(i) over supp(pi') (Eq. 13) — the fused
  // two-pass kernel over contiguous TNAM storage. Without a TNAM the SNAS
  // is the identity.
  return tnam_ != nullptr ? FusedSnasStep(*tnam_, pi, cancel)
                          : TopologyPhi(pi);
}

SparseVector Laca::TopologyPhi(const SparseVector& pi) const {
  SparseVector phi;
  for (const auto& e : pi.entries()) {
    phi.Add(e.index, e.value * graph_.Degree(e.index));
  }
  return phi;
}

void Laca::FinishBdd(const SparseVector& pi, SparseVector phi,
                     const LacaOptions& opts, LacaResult* result) {
  if (phi.Empty()) {
    // Degenerate attributes (e.g. all-zero rows near the seed): fall back to
    // the topology-only BDD so a cluster is still produced.
    phi = TopologyPhi(pi);
  }
  result->phi_l1 = phi.L1Norm();
  if (phi.Empty()) {
    // pi' itself is empty: with a huge eps the all-zero vector already
    // satisfies Eq. 14 (pi(t) <= eps d(t) everywhere), so the approximate
    // BDD is legitimately zero. Cluster() pads from the seed by BFS.
    return;
  }

  // Step 3: diffuse phi' with threshold eps * ||phi'||_1 (Line 5), then
  // normalize each entry by its degree (Line 6).
  DiffusionOptions bdd_opts = opts.ToDiffusionOptions();
  bdd_opts.epsilon = opts.epsilon * result->phi_l1;
  SparseVector rho = opts.use_adaptive
                         ? engine_.Adaptive(phi, bdd_opts, &result->bdd_stats)
                         : engine_.Greedy(phi, bdd_opts, &result->bdd_stats);
  for (auto& e : rho.mutable_entries()) {
    e.value /= graph_.Degree(e.index);
  }
  result->bdd = std::move(rho);
}

SparseVector Laca::FusedSnasStep(const Tnam& tnam, const SparseVector& pi,
                                 const CancelToken* cancel) {
  const size_t dim = tnam.dim();
  psi_.assign(dim, 0.0);
  tnam.AccumulateRows(pi.entries(), psi_);
  dots_.resize(pi.Size());
  tnam.DotRows(pi.entries(), psi_,
               std::span<double>(dots_.data(), pi.Size()));
  SparseVector phi;
  for (size_t t = 0; t < pi.Size(); ++t) {
    // Step-2 poll: keeps Algo. 4's deadline granularity when the sweep over
    // supp(pi') dwarfs a diffusion round (large supports, big k).
    if (cancel != nullptr && (t & 4095) == 4095) cancel->ThrowIfExpired();
    const double dot = dots_[t];
    // The low-rank SNAS can dip below zero; the diffusion requires a
    // non-negative input, so clamp (documented in DESIGN.md).
    if (dot > 0.0) {
      const NodeId i = pi.entries()[t].index;
      phi.Add(i, dot * graph_.Degree(i));
    }
  }
  return phi;
}

LacaResult Laca::ComputeBddWithProvider(NodeId seed, const SnasProvider& snas,
                                        const LacaOptions& opts) {
  LacaResult result;
  SparseVector pi = RwrStep(seed, opts, &result);

  // A Tnam provider admits the same fused O(|supp| k) Step 2 as ComputeBdd;
  // only truly unfactorized providers pay the quadratic double loop.
  const Tnam* tnam = dynamic_cast<const Tnam*>(&snas);
  SparseVector phi;
  if (tnam != nullptr && tnam->num_rows() == graph_.num_nodes()) {
    phi = FusedSnasStep(*tnam, pi, opts.cancel);
  } else {
    for (const auto& ei : pi.entries()) {
      // The quadratic fallback does O(|supp|) work per outer entry, so the
      // outer loop alone gives a fine-enough poll interval.
      if (opts.cancel != nullptr) opts.cancel->ThrowIfExpired();
      double acc = 0.0;
      for (const auto& ej : pi.entries()) {
        acc += ej.value * snas.Snas(ej.index, ei.index);
      }
      if (acc > 0.0) phi.Add(ei.index, acc * graph_.Degree(ei.index));
    }
  }
  FinishBdd(pi, std::move(phi), opts, &result);
  return result;
}

std::vector<NodeId> Laca::Cluster(NodeId seed, size_t size,
                                  const LacaOptions& opts) {
  return Cluster(seed, size, opts, nullptr);
}

std::vector<NodeId> Laca::Cluster(NodeId seed, size_t size,
                                  const LacaOptions& opts,
                                  SparseVector* rwr_out) {
  return Extract(ComputeBdd(seed, opts, rwr_out).bdd, seed, size);
}

std::vector<NodeId> Laca::ClusterFromRwr(NodeId seed, size_t size,
                                         const SparseVector& rwr,
                                         const LacaOptions& opts) {
  return Extract(ComputeBddFromRwr(seed, rwr, opts).bdd, seed, size);
}

std::vector<NodeId> Laca::Extract(const SparseVector& bdd, NodeId seed,
                                  size_t size) const {
  std::vector<NodeId> cluster = TopKCluster(bdd, seed, size);
  if (cluster.size() < size) {
    cluster = PadWithBfs(graph_, std::move(cluster), size, seed);
  }
  return cluster;
}

}  // namespace laca
