#include "common/diffusion_workspace.hpp"

#include <algorithm>

namespace laca {

template <typename T>
void DiffusionWorkspace::Reserve(std::vector<T>& buf, size_t capacity) {
  if (buf.capacity() < capacity) {
    buf.reserve(capacity);
    ++alloc_events_;
  }
}

void DiffusionWorkspace::Bind(const Graph& graph) {
  const size_t n = graph.num_nodes();
  const double* degrees = graph.degrees().data();
  if (r_.size() == n && bound_graph_id_ == graph.instance_id()) return;

  bound_graph_id_ = graph.instance_id();
  if (r_.size() != n) {
    r_.assign(n, 0.0);
    r_alt_.assign(n, 0.0);
    active_r_ = 0;
    q_.assign(n, 0.0);
    s_.resize(n);
    queued_.assign(n, 0);
    stamp_.assign(n, 0);
    call_stamp_ = 0;
    inv_degree_.resize(n);
    queue_ring_.resize(n);
    alloc_events_ += 8;
    // Support lists are bounded by n (the stamp array dedupes appends), so
    // one up-front reservation makes every later call allocation-free.
    Reserve(r_support_, n);
    Reserve(q_support_, n);
    Reserve(gamma_ids_, n);
    Reserve(gamma_values_, n);
    Reserve(candidates_, n);
  } else {
    // Same size, different graph: dense arrays stay, but the stale sparse
    // state and the degree cache must be rebuilt.
    BeginCall();
  }
  for (size_t v = 0; v < n; ++v) {
    inv_degree_[v] = degrees[v] > 0.0 ? 1.0 / degrees[v] : 0.0;
  }
}

void DiffusionWorkspace::AbortCall() {
  // r_support covers every node whose residue became nonzero in EITHER
  // generation this call (the stamp check guards all appends), so clearing
  // both arrays over it restores the all-zero-outside-support invariant no
  // matter which round phase the unwind interrupted. queued[] flags are only
  // ever set for nodes pushed into `candidates` (greedy rounds clear a flag
  // when they extract the node), so the pending candidate list is exactly
  // the set of flags still standing.
  double* const a = r();
  double* const b = r_other();
  for (NodeId v : r_support_) {
    a[v] = 0.0;
    b[v] = 0.0;
  }
  for (NodeId v : q_support_) q_[v] = 0.0;
  for (NodeId v : candidates_) queued_[v] = 0;
  r_support_.clear();
  q_support_.clear();
  gamma_ids_.clear();
  gamma_values_.clear();
  candidates_.clear();
}

uint64_t DiffusionWorkspace::BeginCall() {
  double* const active = r();
  for (NodeId v : r_support_) active[v] = 0.0;
  for (NodeId v : q_support_) q_[v] = 0.0;
  r_support_.clear();
  q_support_.clear();
  gamma_ids_.clear();
  gamma_values_.clear();
  candidates_.clear();
  if (++call_stamp_ == 0) {
    // uint32 wrap: re-zero once every 2^32 calls so old stamps cannot
    // collide with the fresh generation.
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    call_stamp_ = 1;
  }
  return ++epoch_;
}

}  // namespace laca
