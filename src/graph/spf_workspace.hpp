// Reusable scratch state for shortest-path-tree computation.
//
// Failure sweeps build the same trees over and over (one per destination per
// scenario), so the SPF core must not allocate per tree.  SpfWorkspace owns
// the transient state -- an index-based binary heap ordered by the canonical
// (cost, hops, node-id) key, plus the epoch-stamped orphan marks used by
// delta repair -- and writes results straight into caller-provided columns
// (e.g. route::RoutingDb's contiguous destination-major arrays).  Capacity is
// retained across calls, so a warm workspace allocates nothing.
//
// Two entry points:
//   * full_build: Dijkstra from scratch, bit-identical to the classic
//     graph::shortest_paths_to (which is now a thin wrapper over it).  It is
//     also the oracle every repaired table is tested against.
//   * repair_tree: Ramalingam-Reps-style delta repair.  Given columns holding
//     the PRISTINE (no-exclusions) tree, detaches the subtrees orphaned by the
//     excluded edges and regrows only them from the surviving boundary.  Every
//     per-tree cost is O(orphan region), not O(n): orphan subtrees are found
//     by descending precomputed pristine child lists from the failed tree
//     edges, and all per-node scratch is epoch-stamped so nothing is cleared
//     per call.  A sweep batching many destination trees per scenario through
//     one workspace (route::RoutingDb::rebuild) therefore pays for the trees'
//     damage, not for the topology size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace pr::graph {

class SpfWorkspace {
 public:
  /// Dijkstra toward `destination`, writing per-node cost / hop count / first
  /// dart into `dist` / `hops` / `next_dart` (each an array of at least
  /// g.node_count() entries).  Edges in `excluded` (when non-null) are
  /// ignored.  Ties break by (cost, hops, node id); unreachable nodes end as
  /// (kUnreachable, UINT32_MAX, kInvalidDart).
  void full_build(const Graph& g, NodeId destination, const EdgeSet* excluded,
                  Weight* dist, std::uint32_t* hops, DartId* next_dart);

  /// Child lists of one destination's pristine shortest-path tree in CSR form:
  /// node v's tree children are ids[offsets[v]] .. ids[offsets[v + 1]], with
  /// offsets absolute into the shared id array (so per-destination slices of
  /// one flat index share a single payload; route::RoutingDb materialises the
  /// index this way for all destinations at once).
  struct TreeChildren {
    const std::uint32_t* offsets;
    const NodeId* ids;
  };

  /// Delta repair.  The columns must hold the pristine (no-exclusions) tree
  /// and `children` must describe that same tree; on return the columns hold
  /// exactly what full_build with `excluded` would have produced -- dist,
  /// hops AND next_dart, bit for bit.  Nodes whose pristine path avoids every
  /// excluded edge are provably unchanged (removing edges cannot shorten a
  /// surviving path, and the deterministic parent choice is preserved), so
  /// only orphans are regrown: they are seeded from the surviving boundary in
  /// the exact (cost, hops, node-id) pop order a from-scratch run relaxes
  /// them in.  No step scans all n nodes: the orphan set is the union of
  /// pristine subtrees hanging below excluded tree edges, found by descending
  /// the child lists from the failed darts' tail endpoints, and the per-node
  /// marks are epoch stamps that are never cleared.  Returns the orphan list
  /// -- the exact set of rows that may now differ from pristine (callers use
  /// it for sparse restores); valid until the next workspace call.
  [[nodiscard]] std::span<const NodeId> repair_tree(const Graph& g,
                                                    const EdgeSet& excluded,
                                                    Weight* dist, std::uint32_t* hops,
                                                    DartId* next_dart,
                                                    TreeChildren children);

 private:
  /// Heap key: the canonical Dijkstra pop order (cost, hops, node id).
  /// Entries are lazily deleted -- a pop that no longer matches the node's
  /// current label is stale and skipped, mirroring the reference algorithm.
  struct Entry {
    Weight cost;
    std::uint32_t hops;
    NodeId node;

    [[nodiscard]] bool operator<(const Entry& other) const noexcept {
      if (cost != other.cost) return cost < other.cost;
      if (hops != other.hops) return hops < other.hops;
      return node < other.node;
    }
  };

  void heap_push(Entry e);
  [[nodiscard]] Entry heap_pop();

  /// Shared pop/relax loop.  `skip_relax(u)` vetoes label updates for node u;
  /// repair_tree passes a filter that restricts relaxation to orphans (safe
  /// labels are final and the reference run could never improve them either).
  template <typename SkipRelax>
  void run_impl(const Graph& g, const EdgeSet* excluded, Weight* dist,
                std::uint32_t* hops, DartId* next_dart, SkipRelax skip_relax);

  /// Advances the epoch-stamp pair used by repair_tree (orphan mark, seed
  /// mark) and sizes stamp_ for `n` nodes, zeroing it only on counter wrap.
  void advance_stamps(std::size_t n);

  std::vector<Entry> heap_;
  std::vector<NodeId> chain_;         ///< subtree-descent scratch
  std::vector<std::uint32_t> stamp_;  ///< repair_tree per-node epoch marks
  std::uint32_t stamp_cur_ = 0;       ///< current orphan mark (seed = cur + 1)
  std::vector<NodeId> orphans_;       ///< repair_tree result list
};

}  // namespace pr::graph
