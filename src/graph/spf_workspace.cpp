#include "graph/spf_workspace.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"

namespace pr::graph {

namespace {
constexpr std::uint32_t kNoHops = std::numeric_limits<std::uint32_t>::max();

/// std::*_heap builds a max-heap; invert the comparator for a min-heap.
/// Entries are pairwise-distinct tuples (a node is re-pushed only on strict
/// label improvement), so the (cost, hops, node) total order makes the pop
/// sequence identical to the reference std::priority_queue.
constexpr auto kEntryGreater = [](const auto& a, const auto& b) { return b < a; };
}  // namespace

void SpfWorkspace::heap_push(Entry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), kEntryGreater);
}

SpfWorkspace::Entry SpfWorkspace::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), kEntryGreater);
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

template <typename SkipRelax>
void SpfWorkspace::run_impl(const Graph& g, const EdgeSet* excluded, Weight* dist,
                            std::uint32_t* hops, DartId* next_dart,
                            SkipRelax skip_relax) {
  while (!heap_.empty()) {
    const Entry e = heap_pop();
    const NodeId v = e.node;
    if (e.cost > dist[v] || (e.cost == dist[v] && e.hops > hops[v])) {
      continue;  // stale entry
    }
    // Relax v's neighbours: the tree grows from the destination outward, so a
    // neighbour u reaches the destination via the dart u->v.
    for (const DartId d_vu : g.out_darts(v)) {
      const EdgeId edge = dart_edge(d_vu);
      if (excluded != nullptr && excluded->contains(edge)) continue;
      const NodeId u = g.dart_head(d_vu);
      if (skip_relax(u)) continue;
      const Weight cand = e.cost + g.edge_weight(edge);
      const std::uint32_t cand_hops = e.hops + 1;
      if (cand < dist[u] || (cand == dist[u] && cand_hops < hops[u])) {
        dist[u] = cand;
        hops[u] = cand_hops;
        next_dart[u] = reverse(d_vu);  // dart u->v
        heap_push(Entry{cand, cand_hops, u});
      }
    }
  }
}

void SpfWorkspace::full_build(const Graph& g, NodeId destination,
                              const EdgeSet* excluded, Weight* dist,
                              std::uint32_t* hops, DartId* next_dart) {
  if (destination >= g.node_count()) {
    throw std::out_of_range("SpfWorkspace::full_build: destination out of range");
  }
  obs::count(obs::Counter::kSpfFullBuilds);
  const std::size_t n = g.node_count();
  std::fill_n(dist, n, kUnreachable);
  std::fill_n(hops, n, kNoHops);
  std::fill_n(next_dart, n, kInvalidDart);
  dist[destination] = 0;
  hops[destination] = 0;
  heap_.clear();
  heap_push(Entry{0.0, 0U, destination});
  run_impl(g, excluded, dist, hops, next_dart, [](NodeId) { return false; });
}

void SpfWorkspace::advance_stamps(std::size_t n) {
  if (stamp_.size() < n) stamp_.resize(n, 0);
  // Marks come in (orphan, seed) pairs; wrap the counter well before the pair
  // could collide with stale marks from a previous epoch.
  if (stamp_cur_ >= std::numeric_limits<std::uint32_t>::max() - 3) {
    std::fill(stamp_.begin(), stamp_.end(), 0U);
    stamp_cur_ = 0;
  }
  stamp_cur_ += 2;
}

std::span<const NodeId> SpfWorkspace::repair_tree(const Graph& g,
                                                  const EdgeSet& excluded,
                                                  Weight* dist, std::uint32_t* hops,
                                                  DartId* next_dart,
                                                  TreeChildren children) {
  orphans_.clear();
  if (excluded.empty()) return orphans_;  // pristine columns already correct
  advance_stamps(g.node_count());
  const std::uint32_t orphan_mark = stamp_cur_;
  const std::uint32_t seed_mark = stamp_cur_ + 1;

  // 1. Roots: a failed edge e is in this tree exactly when one of its
  //    endpoints routes over it (two would form a 2-cycle), so the orphan
  //    subtree roots are found in O(1) per failed edge -- no whole-tree
  //    classification pass.
  chain_.clear();
  for (const EdgeId e : excluded.elements()) {
    if (e >= g.edge_count()) continue;  // unknown edge id
    for (const NodeId v : {g.edge_u(e), g.edge_v(e)}) {
      const DartId d = next_dart[v];
      if (d != kInvalidDart && dart_edge(d) == e && stamp_[v] != orphan_mark) {
        stamp_[v] = orphan_mark;
        chain_.push_back(v);
      }
    }
  }
  if (chain_.empty()) return orphans_;  // no failed edge is a tree edge

  // 2. The orphan set is the union of the pristine subtrees below the roots:
  //    descend the child lists (marks dedup nested failed edges), touching
  //    only the damaged region.
  while (!chain_.empty()) {
    const NodeId v = chain_.back();
    chain_.pop_back();
    orphans_.push_back(v);
    for (std::uint32_t i = children.offsets[v]; i < children.offsets[v + 1]; ++i) {
      const NodeId child = children.ids[i];
      if (stamp_[child] != orphan_mark) {
        stamp_[child] = orphan_mark;
        chain_.push_back(child);
      }
    }
  }

  // 3. Detach the orphans and seed the regrow frontier: every reachable safe
  //    node adjacent to an orphan over a surviving edge is pushed once with
  //    its (final, unchanged) label.  The heap then interleaves those
  //    boundary sources with regrown orphans in exactly the (cost, hops, id)
  //    order a from-scratch run pops them -- entries are pairwise distinct,
  //    so push order does not matter -- and each orphan sees the same
  //    relaxation sequence, and therefore records the same parent dart, as a
  //    full rebuild.
  for (const NodeId v : orphans_) {
    dist[v] = kUnreachable;
    hops[v] = kNoHops;
    next_dart[v] = kInvalidDart;
  }
  heap_.clear();
  for (const NodeId v : orphans_) {
    for (const DartId d : g.out_darts(v)) {
      if (excluded.contains(dart_edge(d))) continue;
      const NodeId u = g.dart_head(d);
      if (stamp_[u] == orphan_mark || stamp_[u] == seed_mark) continue;
      if (dist[u] == kUnreachable) continue;
      stamp_[u] = seed_mark;
      heap_push(Entry{dist[u], hops[u], u});
    }
  }
  run_impl(g, &excluded, dist, hops, next_dart,
           [this, orphan_mark](NodeId u) { return stamp_[u] != orphan_mark; });
  obs::count(obs::Counter::kSpfTreeRepairs);
  obs::count(obs::Counter::kSpfOrphanNodes, orphans_.size());
  return orphans_;
}

}  // namespace pr::graph
