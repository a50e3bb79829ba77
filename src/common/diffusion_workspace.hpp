// Shared scratch arena for the diffusion hot path (DESIGN.md §2).
//
// Every diffusion kernel (DiffusionEngine's batched strategies and the
// queue-driven QueuePush) works on dense arrays sized to the graph. Before
// this arena existed, QueuePush allocated and zeroed three O(n) arrays per
// call; now all kernels borrow the same workspace, which is sized exactly
// once per graph binding and reset in O(|touched|) between calls.
//
// Invariants (checked by tests/diffusion_golden_test.cpp):
//   * Outside a call, r[v] == 0 and q[v] == 0 for every v NOT listed in
//     r_support / q_support; BeginCall() sparse-clears the listed slots and
//     advances the epoch, so a new call starts from all-zero scratch without
//     touching the other n - |touched| entries. Both support lists are
//     duplicate-free: every client appends through the epoch-stamp check,
//     so a support walk visits each node once and both lists stay bounded
//     by n (Bind() reserves that once).
//   * Buffer capacities reach a per-graph steady state after the first call
//     or two, after which repeated calls perform zero heap allocations —
//     alloc_events() is the witness the zero-allocation test reads.
//   * queued[] is self-cleaning: QueuePush clears a flag on pop and its loop
//     only terminates once the queue is empty, so the array is all-zero
//     whenever no call is active.
//   * inv_degree[v] == 1.0 / graph.Degree(v) for the bound graph (0 for
//     isolated nodes); binding a different graph (detected via
//     Graph::instance_id(), never via data pointers) re-derives it.
#ifndef LACA_COMMON_DIFFUSION_WORKSPACE_HPP_
#define LACA_COMMON_DIFFUSION_WORKSPACE_HPP_

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace laca {

/// Reusable scratch arena shared by all diffusion kernels over one graph.
///
/// Not thread-safe: one workspace per worker thread. Kernels access the raw
/// arrays directly (this is the hot path); the workspace only guarantees the
/// sizing, reset, and bookkeeping invariants documented above.
class DiffusionWorkspace {
 public:
  DiffusionWorkspace() = default;
  explicit DiffusionWorkspace(const Graph& graph) { Bind(graph); }

  /// Sizes the arena for `graph` and precomputes inv_degree. Idempotent and
  /// allocation-free when already bound to a graph of the same size with the
  /// same degree data pointer.
  void Bind(const Graph& graph);

  /// Starts a new call epoch: sparse-clears r/q over the recorded supports,
  /// clears the support lists, and returns the new epoch id.
  uint64_t BeginCall();

  /// Restores every invariant after a call unwound mid-round (cooperative
  /// cancellation). BeginCall() alone is not enough there: a non-greedy
  /// round leaves mass in BOTH r generations until its final SwapR(), and a
  /// greedy round leaves queued[] flags set for the collected candidates —
  /// state the normal call path cleans up itself. Sparse (O(|touched|)) and
  /// allocation-free, so a cancelled call leaves the arena as warm and flat
  /// as a completed one.
  void AbortCall();

  /// Number of nodes the arena is sized for.
  NodeId size() const { return static_cast<NodeId>(r_.size()); }

  /// Monotone counter of buffer (re)allocations. Steady-state diffusion calls
  /// must not change it — the zero-allocation acceptance check reads this.
  uint64_t alloc_events() const { return alloc_events_; }

  /// Call-generation stamp, advanced by BeginCall().
  uint64_t epoch() const { return epoch_; }

  // Raw scratch, valid between Bind() calls. See the class invariants.
  double* r() { return active_r_ == 0 ? r_.data() : r_alt_.data(); }
  /// The ping-pong partner of r(): all-zero outside a non-greedy round, which
  /// scatters into it while draining r() and then calls SwapR(). Keeping the
  /// two generations in separate arrays is what lets that round fuse its
  /// snapshot and scatter passes without violating Eq. 16 batch semantics.
  double* r_other() { return active_r_ == 0 ? r_alt_.data() : r_.data(); }
  void SwapR() { active_r_ ^= 1; }
  double* q() { return q_.data(); }
  /// Per-node shares s_v = alpha r_v / d(v) of a pull round. Each pull round
  /// writes every entry before reading any, so no invariant holds between
  /// rounds and nothing resets it.
  double* s() { return s_.data(); }
  const double* inv_degree() const { return inv_degree_.data(); }
  uint8_t* queued() { return queued_.data(); }

  /// Per-node epoch stamps: stamp()[v] == call_stamp() iff v has entered the
  /// current call's support. Lets kernels keep an append-only duplicate-free
  /// support list without ever clearing the array — BeginCall() just advances
  /// the stamp (with an O(n) re-zero once every 2^32 calls on wrap).
  uint32_t* stamp() { return stamp_.data(); }
  uint32_t call_stamp() const { return call_stamp_; }

  std::vector<NodeId>& r_support() { return r_support_; }
  std::vector<NodeId>& q_support() { return q_support_; }
  /// Gamma batch extracted each round.
  std::vector<NodeId>& gamma_ids() { return gamma_ids_; }
  std::vector<double>& gamma_values() { return gamma_values_; }
  /// Nodes detected crossing the push threshold (deduped via queued()):
  /// greedy mode collects next round's gamma here at push time instead of
  /// re-scanning the support.
  std::vector<NodeId>& candidates() { return candidates_; }

  // Fixed-capacity FIFO ring for QueuePush. At most one entry per node can be
  // queued at a time (the queued[] flag dedupes), so capacity n suffices.
  NodeId* queue_ring() { return queue_ring_.data(); }
  size_t queue_capacity() const { return queue_ring_.size(); }

 private:
  // Reserves `capacity` for `buf`, counting real allocations.
  template <typename T>
  void Reserve(std::vector<T>& buf, size_t capacity);

  std::vector<double> r_, r_alt_, q_, s_;
  std::vector<double> inv_degree_;
  int active_r_ = 0;
  std::vector<uint8_t> queued_;
  std::vector<uint32_t> stamp_;
  std::vector<NodeId> r_support_, q_support_, gamma_ids_, candidates_;
  std::vector<double> gamma_values_;
  std::vector<NodeId> queue_ring_;
  uint64_t bound_graph_id_ = 0;  // Graph::instance_id() of the bound graph
  uint64_t alloc_events_ = 0;
  uint64_t epoch_ = 0;
  uint32_t call_stamp_ = 0;
};

}  // namespace laca

#endif  // LACA_COMMON_DIFFUSION_WORKSPACE_HPP_
