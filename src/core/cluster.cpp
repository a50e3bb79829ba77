#include "core/cluster.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "common/error.hpp"

namespace laca {

std::vector<NodeId> TopKCluster(const SparseVector& scores, NodeId seed,
                                size_t size) {
  LACA_CHECK(size >= 1, "cluster size must be >= 1");
  SparseVector ranked = scores;
  std::vector<SparseVector::Entry>& entries = ranked.mutable_entries();
  // Diffusion results arrive strictly increasing by index, and on such input
  // Compact() only drops exact zeros.
  const bool increasing =
      std::adjacent_find(entries.begin(), entries.end(),
                         [](const auto& a, const auto& b) {
                           return a.index >= b.index;
                         }) == entries.end();
  if (increasing) {
    std::erase_if(entries, [](const auto& e) { return e.value == 0.0; });
  } else {
    ranked.Compact();
  }
  // The order of SortByValueDesc(): value descending, index ascending. It is
  // strict on compacted entries, so selecting the first `size` and sorting
  // only them yields the same prefix as sorting everything. `size` entries
  // always hold size - 1 non-seed nodes, which is all the loop below takes.
  auto by_rank = [](const SparseVector::Entry& a,
                    const SparseVector::Entry& b) {
    if (a.value != b.value) return a.value > b.value;
    return a.index < b.index;
  };
  const auto top = entries.begin() + std::min(size, entries.size());
  std::nth_element(entries.begin(), top, entries.end(), by_rank);
  std::sort(entries.begin(), top, by_rank);
  std::vector<NodeId> cluster;
  cluster.reserve(size);
  cluster.push_back(seed);
  for (auto it = entries.begin(); it != top && cluster.size() < size; ++it) {
    if (it->index != seed) cluster.push_back(it->index);
  }
  return cluster;
}

std::vector<NodeId> PadWithBfs(const Graph& graph, std::vector<NodeId> cluster,
                               size_t size, NodeId seed) {
  if (cluster.size() >= size) return cluster;
  const NodeId n = graph.num_nodes();
  LACA_CHECK(seed < n, "seed out of range");
  // Every cluster node is marked visited before the BFS starts, and every
  // node it visits joins the cluster, so one mark answers both questions.
  std::vector<uint8_t> visited(n, 0);
  std::vector<NodeId> queue;
  queue.reserve(std::min<size_t>(size, n) + 1);
  // Start the BFS frontier from the existing cluster (seed first).
  queue.push_back(seed);
  for (NodeId v : cluster) {
    LACA_CHECK(v < n, "cluster node out of range");
    if (v != seed) queue.push_back(v);
    visited[v] = 1;
  }
  visited[seed] = 1;
  for (size_t head = 0; head < queue.size() && cluster.size() < size;
       ++head) {
    for (NodeId v : graph.Neighbors(queue[head])) {
      if (visited[v]) continue;
      visited[v] = 1;
      queue.push_back(v);
      cluster.push_back(v);
      if (cluster.size() >= size) break;
    }
  }
  return cluster;
}

SweepResult SweepCut(const Graph& graph, const SparseVector& scores,
                     size_t max_size) {
  SparseVector sorted = scores;
  sorted.SortByValueDesc();
  const double total_volume = graph.TotalVolume();

  std::unordered_set<NodeId> in_set;
  double volume = 0.0, cut = 0.0;
  SweepResult best;
  best.conductance = 2.0;  // above any real conductance
  size_t best_prefix = 0;

  size_t limit = sorted.Size();
  if (max_size > 0) limit = std::min(limit, max_size);
  std::vector<NodeId> prefix;
  prefix.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    NodeId u = sorted.entries()[i].index;
    double internal = 0.0;
    auto nbrs = graph.Neighbors(u);
    auto wts = graph.NeighborWeights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      if (in_set.count(nbrs[e])) {
        internal += graph.is_weighted() ? wts[e] : 1.0;
      }
    }
    in_set.insert(u);
    prefix.push_back(u);
    volume += graph.Degree(u);
    cut += graph.Degree(u) - 2.0 * internal;
    double denom = std::min(volume, total_volume - volume);
    if (denom <= 0.0) break;  // prefix swallowed more than half the graph
    double phi = cut / denom;
    if (phi < best.conductance) {
      best.conductance = phi;
      best_prefix = i + 1;
    }
  }
  best.cluster.assign(prefix.begin(), prefix.begin() + best_prefix);
  if (best_prefix == 0) best.conductance = 1.0;  // nothing sweepable
  return best;
}

}  // namespace laca
