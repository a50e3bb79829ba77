#include "diffusion/diffusion.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace laca {

namespace {

// A non-greedy round whose starting vol(r) is at least vol(G) divided by
// this share runs as a pull instead of a push. Chosen by a sweep over
// 4..50 on cora-sim, pubmed-sim and amazon2m-sim (DESIGN.md §2, "Pull
// rounds"): at 50, amazon2m-sim's local residuals already cross it and each
// pull walks all of its 5M adjacency entries.
constexpr double kDenseRoundShare = 10.0;

}  // namespace

DiffusionEngine::DiffusionEngine(const Graph& graph)
    : graph_(graph), owned_ws_(graph), ws_(&owned_ws_) {}

DiffusionEngine::DiffusionEngine(const Graph& graph,
                                 DiffusionWorkspace* workspace)
    : graph_(graph), ws_(workspace) {
  LACA_CHECK(workspace != nullptr, "workspace must not be null");
  ws_->Bind(graph);
}

SparseVector DiffusionEngine::Greedy(const SparseVector& f,
                                     const DiffusionOptions& opts,
                                     DiffusionStats* stats) {
  return Run(Mode::kGreedy, f, opts, stats);
}

SparseVector DiffusionEngine::NonGreedy(const SparseVector& f,
                                        const DiffusionOptions& opts,
                                        DiffusionStats* stats) {
  return Run(Mode::kNonGreedy, f, opts, stats);
}

SparseVector DiffusionEngine::Adaptive(const SparseVector& f,
                                       const DiffusionOptions& opts,
                                       DiffusionStats* stats) {
  return Run(Mode::kAdaptive, f, opts, stats);
}

// The per-iteration loop, specialized so the per-edge path carries no
// is_weighted() branch and no vol(r) bookkeeping unless the mode reads it
// (only adaptive/non-greedy rounds consume r_volume_).
//
// Support representation (DESIGN.md §2): the support list is append-only for
// the whole call and deduplicated by the workspace's per-node epoch stamps —
// a node enters the list the first time its residue becomes non-zero and is
// never removed, so there is no per-round compaction pass and non-greedy
// rounds do not rebuild the list. Entries whose residue has decayed to zero
// are skipped wherever the list is walked. Round structure per mode:
//   * greedy rounds fuse the threshold scan with gamma extraction (one pass
//     over the support, then a scatter over the usually-small gamma batch);
//   * non-greedy rounds skip scanning entirely — an early-exit probe checks
//     that some node still meets Eq. 15, then one pass drains the whole
//     residual (batch semantics of Eq. 16) into the ping-pong partner, as a
//     push over the support or, once vol(r) covers a kDenseRoundShare-th of
//     vol(G), as a pull over every CSR row;
//   * adaptive rounds use the probe when sigma == 0 (the decision only needs
//     "is any node active" plus the budget) and a counting pass otherwise.
template <bool Weighted, bool TrackVolume>
void DiffusionEngine::RunLoop(Mode mode, const DiffusionOptions& opts,
                              double budget, bool record_trace, double r_l1,
                              DiffusionStats* stats, Counters* counts) {
  double* r = ws_->r();        // residual being drained this round
  double* r_next = ws_->r_other();  // all-zero ping-pong partner (see below)
  double* const q = ws_->q();
  double* const s = ws_->s();
  const NodeId n = graph_.num_nodes();
  const double pull_volume = graph_.TotalVolume() / kDenseRoundShare;
  const double* const deg = graph_.degrees().data();
  const double* const inv_deg = ws_->inv_degree();
  const EdgeIndex* const offsets = graph_.offsets().data();
  const NodeId* const adjacency = graph_.adjacency().data();
  const double* const weights = Weighted ? graph_.weights().data() : nullptr;
  uint32_t* const stamp = ws_->stamp();
  const uint32_t call_stamp = ws_->call_stamp();
  uint8_t* const queued = ws_->queued();
  std::vector<NodeId>& support = ws_->r_support();
  std::vector<NodeId>& gamma_ids = ws_->gamma_ids();
  std::vector<double>& gamma_values = ws_->gamma_values();
  std::vector<NodeId>& q_support = ws_->q_support();
  std::vector<NodeId>& candidates = ws_->candidates();
  const double alpha = opts.alpha;
  const double eps = opts.epsilon;

  // Cooperative cancellation: a null token compiles to one pointer test per
  // round and per kCancelPollOps pushes — nothing on the per-edge path. The
  // countdown is shared by every poll site so the interval holds across
  // round-type switches.
  const CancelToken* const cancel = opts.cancel;
  uint64_t ops_until_poll = kCancelPollOps;
  auto poll_cancel = [&]() {
    if (cancel != nullptr && --ops_until_poll == 0) {
      ops_until_poll = kCancelPollOps;
      cancel->ThrowIfExpired();
    }
  };

  // Greedy mode never scans for gamma: residues only grow between
  // extractions (every push is non-negative), so the set of nodes meeting
  // Eq. 15 at a round boundary is exactly the set that crossed the threshold
  // at some earlier push — collected into `candidates` at push time and
  // deduplicated by the queued flags. Seed it from the input vector.
  if (mode == Mode::kGreedy) {
    for (NodeId v : support) {
      if (r[v] >= eps * deg[v]) {
        queued[v] = 1;
        candidates.push_back(v);
      }
    }
  }

  // Scatters alpha * g across the neighbors of each gamma node after
  // converting (1 - alpha) g into reserve. Newly touched nodes are appended
  // to the support in frontier order; `ids` may alias support.data() (the
  // stamp dedupe bounds the list by n, so Bind()'s reservation guarantees no
  // reallocation mid-scatter). TrackCandidates additionally records
  // threshold crossings for the greedy no-scan round structure.
  double scattered_l1 = 0.0;
  auto scatter = [&]<bool TrackCandidates>(const NodeId* ids,
                                           const double* values,
                                           size_t count) {
    for (size_t i = 0; i < count; ++i) {
      poll_cancel();
      const double g = values[i];
      if (g == 0.0) continue;  // entry whose residue had already decayed
      const NodeId v = ids[i];
      if (q[v] == 0.0) q_support.push_back(v);
      q[v] += (1.0 - alpha) * g;
      const EdgeIndex begin = offsets[v];
      const EdgeIndex end = offsets[v + 1];
      counts->push_work += end - begin;
      const double scale = alpha * g * inv_deg[v];
      if (scale == 0.0 || begin == end) continue;  // dangling / underflow
      if (record_trace) scattered_l1 += alpha * g;
      for (EdgeIndex e = begin; e < end; ++e) {
        double value;
        if constexpr (Weighted) {
          value = scale * weights[e];
          if (value == 0.0) continue;
        } else {
          value = scale;
        }
        const NodeId u = adjacency[e];
        const double ru = r[u];
        if (ru == 0.0) {
          if (TrackVolume) r_volume_ += deg[u];
          if (stamp[u] != call_stamp) {
            stamp[u] = call_stamp;
            support.push_back(u);
          }
        }
        const double ru_new = ru + value;
        r[u] = ru_new;
        if constexpr (TrackCandidates) {
          if (!queued[u] && ru_new >= eps * deg[u]) {
            queued[u] = 1;
            candidates.push_back(u);
          }
        }
      }
    }
  };

  while (!support.empty()) {
    // Round boundary: the unconditional poll site.
    if (cancel != nullptr) cancel->ThrowIfExpired();

    // Decide the round type (Algo. 2, Line 4): non-greedy when the active
    // fraction exceeds sigma and the cost budget allows it. gamma == 0
    // (no node meets Eq. 15) terminates every mode.
    bool nongreedy = false;
    if (mode != Mode::kGreedy) {
      const bool budget_ok =
          mode == Mode::kNonGreedy ||
          (TrackVolume && counts->nongreedy_cost + r_volume_ < budget);
      if (mode == Mode::kNonGreedy || opts.sigma == 0.0) {
        // The decision only needs "does any node meet the threshold", so an
        // early-exit probe replaces the full counting scan.
        bool any_active = false;
        for (NodeId v : support) {
          const double rv = r[v];
          if (rv != 0.0 && rv >= eps * deg[v]) {
            any_active = true;
            break;
          }
        }
        if (!any_active) break;  // Algo. 1, Line 4: gamma == 0
        nongreedy = budget_ok;
      } else {
        size_t live = 0, active = 0;
        for (NodeId v : support) {
          const double rv = r[v];
          if (rv == 0.0) continue;
          ++live;
          if (rv >= eps * deg[v]) ++active;
        }
        if (active == 0) break;  // Algo. 1, Line 4: gamma == 0
        const double frac =
            static_cast<double>(active) / static_cast<double>(live);
        nongreedy = frac > opts.sigma && budget_ok;
      }
    }

    // Snapshot gamma and remove it from r (batch semantics of Eq. 16: this
    // round's pushes land in next round's residual — the snapshot completes
    // before any scatter touches it).
    double g_total = 0.0;
    if (nongreedy && TrackVolume && r_volume_ >= pull_volume) {
      // Pull round: the same conversion as the push below, as an SpMV.
      // Pass 1 converts r into q node by node and writes every node's share
      // s_v = alpha r_v / d(v) (0 where r_v == 0, so s carries nothing from
      // earlier rounds). Pass 2 gathers r_next[u] = sum over N(u) of s_v
      // (times w(u, v)) in CSR order, which equals the push's scatter on an
      // undirected graph up to the order of the floating-point sums. Both
      // passes poll through the shared countdown once per node.
      counts->nongreedy_cost += r_volume_;  // Algo. 2, Line 5
      r_volume_ = 0.0;  // re-accumulated over r_next in pass 2
      ++counts->nongreedy_rounds;
      ++counts->pull_rounds;
      for (NodeId v = 0; v < n; ++v) {
        poll_cancel();
        const double rv = r[v];
        if (rv == 0.0) {
          s[v] = 0.0;
          continue;
        }
        r[v] = 0.0;
        g_total += rv;
        if (q[v] == 0.0) q_support.push_back(v);
        q[v] += (1.0 - alpha) * rv;
        const EdgeIndex degree = offsets[v + 1] - offsets[v];
        counts->push_work += degree;
        const double scale = alpha * rv * inv_deg[v];
        s[v] = scale;
        if (record_trace && scale != 0.0 && degree != 0) {
          scattered_l1 += alpha * rv;
        }
      }
      for (NodeId u = 0; u < n; ++u) {
        poll_cancel();
        double sum = 0.0;
        for (EdgeIndex e = offsets[u]; e < offsets[u + 1]; ++e) {
          if constexpr (Weighted) {
            sum += s[adjacency[e]] * weights[e];
          } else {
            sum += s[adjacency[e]];
          }
        }
        if (sum == 0.0) continue;
        r_next[u] = sum;
        r_volume_ += deg[u];
        if (stamp[u] != call_stamp) {
          stamp[u] = call_stamp;
          support.push_back(u);
        }
      }
      std::swap(r, r_next);  // pass 1 zeroed every entry of r
      ws_->SwapR();
    } else if (nongreedy) {
      // Eq. 17 converts the entire residual, so no snapshot pass is needed:
      // one fused pass drains r while scattering into the all-zero ping-pong
      // partner r_next, which preserves Eq. 16 batch semantics by
      // construction (reads and writes hit different arrays). The support
      // stays append-only; entries appended mid-pass hold their mass in
      // r_next and are skipped by the fixed iteration count.
      counts->nongreedy_cost += r_volume_;  // Algo. 2, Line 5
      if (TrackVolume) r_volume_ = 0.0;  // re-accumulated over r_next below
      ++counts->nongreedy_rounds;
      const size_t count = support.size();
      for (size_t i = 0; i < count; ++i) {
        poll_cancel();
        const NodeId v = support[i];
        const double rv = r[v];
        if (rv == 0.0) continue;
        r[v] = 0.0;
        g_total += rv;
        if (q[v] == 0.0) q_support.push_back(v);
        q[v] += (1.0 - alpha) * rv;
        const EdgeIndex begin = offsets[v];
        const EdgeIndex end = offsets[v + 1];
        counts->push_work += end - begin;
        const double scale = alpha * rv * inv_deg[v];
        if (scale == 0.0 || begin == end) continue;  // dangling / underflow
        if (record_trace) scattered_l1 += alpha * rv;
        for (EdgeIndex e = begin; e < end; ++e) {
          double value;
          if constexpr (Weighted) {
            value = scale * weights[e];
            if (value == 0.0) continue;
          } else {
            value = scale;
          }
          const NodeId u = adjacency[e];
          const double ru = r_next[u];
          if (ru == 0.0) {
            if (TrackVolume) r_volume_ += deg[u];
            if (stamp[u] != call_stamp) {
              stamp[u] = call_stamp;
              support.push_back(u);
            }
          }
          r_next[u] = ru + value;
        }
      }
      std::swap(r, r_next);  // r_next is fully drained, hence all-zero
      ws_->SwapR();
    } else if (mode == Mode::kGreedy) {
      // Greedy round, no scan: this round's gamma is exactly the candidate
      // set collected at push time (see the seeding comment above). The two
      // id buffers swap roles so the scatter can refill `candidates` for the
      // next round while `gamma_ids` is being drained.
      if (candidates.empty()) break;  // Algo. 1, Line 4: gamma == 0
      gamma_ids.swap(candidates);
      candidates.clear();
      const size_t count = gamma_ids.size();
      gamma_values.resize(count);
      for (size_t i = 0; i < count; ++i) {
        const NodeId v = gamma_ids[i];
        const double rv = r[v];  // >= eps * deg[v] > 0 by monotonicity
        gamma_values[i] = rv;
        g_total += rv;
        r[v] = 0.0;
        queued[v] = 0;
      }
      ++counts->greedy_rounds;
      scatter.template operator()<true>(gamma_ids.data(), gamma_values.data(),
                                        count);
    } else {
      // Greedy round inside an adaptive/non-greedy run: nearly every
      // extracted node is re-pushed within a round or two, so re-appending
      // (stamp store + push_back churn) would cost more than skipping the
      // few dead entries — keep the support append-only.
      gamma_ids.clear();
      gamma_values.clear();
      for (NodeId v : support) {
        const double rv = r[v];
        if (rv == 0.0 || rv < eps * deg[v]) continue;
        gamma_ids.push_back(v);
        gamma_values.push_back(rv);
        g_total += rv;
        r[v] = 0.0;
        if (TrackVolume) r_volume_ -= deg[v];
      }
      if (gamma_ids.empty()) break;  // Algo. 1, Line 4: gamma == 0
      ++counts->greedy_rounds;
      scatter.template operator()<false>(gamma_ids.data(), gamma_values.data(),
                                         gamma_ids.size());
    }

    ++counts->iterations;
    if (record_trace) {
      // ||r||_1 tracked incrementally: extraction removed g_total, the
      // scatter re-deposited alpha * g per non-dangling gamma node. This
      // replaces the former O(|supp(r)|) re-summation per round.
      r_l1 = r_l1 - g_total + scattered_l1;
      scattered_l1 = 0.0;
      stats->residual_trace.push_back(r_l1);
    }
  }
}

SparseVector DiffusionEngine::Run(Mode mode, const SparseVector& f,
                                  const DiffusionOptions& opts,
                                  DiffusionStats* stats) {
  LACA_CHECK(opts.alpha > 0.0 && opts.alpha < 1.0, "alpha must be in (0,1)");
  LACA_CHECK(opts.epsilon > 0.0, "epsilon must be positive");
  LACA_CHECK(opts.sigma >= 0.0, "sigma must be non-negative");

  // Re-establish the arena (no-op unless a borrowed workspace was rebound)
  // and sparse-clear the previous call's state.
  ws_->Bind(graph_);
  ws_->BeginCall();
  r_volume_ = 0.0;

  // Line 1: r <- f, q <- 0.
  double* const r = ws_->r();
  const double* const deg = graph_.degrees().data();
  uint32_t* const stamp = ws_->stamp();
  const uint32_t call_stamp = ws_->call_stamp();
  std::vector<NodeId>& support = ws_->r_support();
  const bool track_volume = mode != Mode::kGreedy;
  double f_l1 = 0.0;
  for (const auto& e : f.entries()) {
    LACA_CHECK(e.index < graph_.num_nodes(), "input index out of range");
    LACA_CHECK(e.value >= 0.0, "diffusion input must be non-negative");
    if (e.value == 0.0) continue;
    if (r[e.index] == 0.0) {
      if (track_volume) r_volume_ += deg[e.index];
      if (stamp[e.index] != call_stamp) {
        stamp[e.index] = call_stamp;
        support.push_back(e.index);
      }
    }
    r[e.index] += e.value;
    f_l1 += e.value;
  }

  // Cost budget of Algo. 2, Line 4: ||f||_1 / ((1 - alpha) eps).
  const double budget = f_l1 / ((1.0 - opts.alpha) * opts.epsilon);
  const bool record_trace = stats != nullptr && stats->record_trace;
  Counters counts;

  try {
    if (graph_.is_weighted()) {
      if (mode == Mode::kGreedy) {
        RunLoop<true, false>(mode, opts, budget, record_trace, f_l1, stats,
                             &counts);
      } else {
        RunLoop<true, true>(mode, opts, budget, record_trace, f_l1, stats,
                            &counts);
      }
    } else {
      if (mode == Mode::kGreedy) {
        RunLoop<false, false>(mode, opts, budget, record_trace, f_l1, stats,
                              &counts);
      } else {
        RunLoop<false, true>(mode, opts, budget, record_trace, f_l1, stats,
                             &counts);
      }
    }
  } catch (const CancelledError&) {
    // A tripped token can unwind from any poll site, leaving residue in
    // both r generations and queued[] flags standing — state BeginCall()
    // does not cover. AbortCall() restores every invariant sparsely, so the
    // arena is immediately reusable and still allocation-flat.
    ws_->AbortCall();
    throw;
  }

  if (stats != nullptr) {
    stats->iterations = counts.iterations;
    stats->greedy_rounds = counts.greedy_rounds;
    stats->nongreedy_rounds = counts.nongreedy_rounds;
    stats->pull_rounds = counts.pull_rounds;
    stats->push_work = counts.push_work;
    stats->nongreedy_cost = counts.nongreedy_cost;
  }

  std::vector<NodeId>& q_support = ws_->q_support();
  const double* const q = ws_->q();
  const NodeId n = graph_.num_nodes();
  SparseVector out;
  // One exact-size allocation instead of push_back growth churn (q_support is
  // duplicate-free: nodes are recorded at their first q conversion). For
  // dense results a sequential sweep of q beats sorting the support ids.
  out.mutable_entries().reserve(q_support.size());
  if (q_support.size() >= static_cast<size_t>(n) / 8) {
    for (NodeId v = 0; v < n; ++v) {
      if (q[v] != 0.0) out.Add(v, q[v]);
    }
  } else {
    std::sort(q_support.begin(), q_support.end());
    for (NodeId v : q_support) {
      if (q[v] != 0.0) out.Add(v, q[v]);
    }
  }
  return out;
}

}  // namespace laca
