#include "route/routing_db.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pr::route {

namespace {
template <typename T>
[[nodiscard]] std::size_t cap_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}
}  // namespace

RoutingDb::RoutingDb(const Graph& g, const graph::EdgeSet* excluded,
                     DiscriminatorKind kind)
    : graph_(&g), kind_(kind), node_count_(g.node_count()) {
  if (kind_ == DiscriminatorKind::kWeightedCost) {
    // Weighted discriminators ride in an integer header field; require the
    // configured weights to be integral so encoding is exact.
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Weight w = g.edge_weight(e);
      if (w != std::floor(w)) {
        throw std::invalid_argument(
            "RoutingDb: weighted discriminators require integer link weights");
      }
    }
  }
  next_dart_.resize(node_count_ * node_count_);
  dist_.resize(node_count_ * node_count_);
  hops_.resize(node_count_ * node_count_);
  graph::SpfWorkspace workspace;
  for (NodeId dest = 0; dest < node_count_; ++dest) {
    // The SPF core writes each tree straight into the contiguous columns --
    // no per-destination ShortestPathTree allocations.
    const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
    workspace.full_build(g, dest, excluded, dist_.data() + base,
                         hops_.data() + base, next_dart_.data() + base);
  }

  // One flat whole-table pass (no per-pair reachability re-check, no
  // allocation); the per-column breakdown that keeps this maintainable
  // across rebuilds is materialised lazily with the rest of the
  // incremental state.
  max_discriminator_ = 0;
  for (NodeId dest = 0; dest < node_count_; ++dest) {
    max_discriminator_ = std::max(max_discriminator_, column_max_discriminator(dest));
  }

  baseline_excluded_ = excluded != nullptr && !excluded->empty();
  graph_structure_id_ = g.structure_id();
}

void RoutingDb::ensure_incremental_state() {
  if (incremental_ready_) return;
  // Deferred to the first rebuild(): never-rebuilt dbs (a suite's pristine
  // tables, per-scenario throwaways) skip the 2x column snapshot and the
  // index pass entirely.  rebuild() is the only table mutator and dirty
  // columns are tracked from here on, so the columns are still pristine when
  // this snapshot is taken.
  pristine_next_dart_ = next_dart_;
  pristine_dist_ = dist_;
  pristine_hops_ = hops_;
  col_max_disc_.resize(node_count_);
  pristine_col_argmax_.resize(node_count_);
  for (NodeId dest = 0; dest < node_count_; ++dest) {
    // Track the argmax row alongside the max: a rebuild only rescans a column
    // when that one row was orphaned (every other row either keeps its
    // pristine discriminator or is in the orphan list the repair hands back).
    const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
    std::uint32_t best = 0;
    NodeId best_at = dest;  // the dest row is always reachable with disc 0
    for (NodeId at = 0; at < node_count_; ++at) {
      if (dist_[base + at] == graph::kUnreachable) continue;
      const std::uint32_t d = disc_at(base + at);
      if (d > best) {
        best = d;
        best_at = at;
      }
    }
    col_max_disc_[dest] = best;
    pristine_col_argmax_[dest] = best_at;
  }
  pristine_col_max_disc_ = col_max_disc_;
  build_edge_dest_index();
  build_children_index();
  dest_flag_.assign(node_count_, 0);
  incremental_ready_ = true;
}

void RoutingDb::build_edge_dest_index() {
  const std::size_t edges = graph_->edge_count();
  edge_dest_offsets_.assign(edges + 1, 0);
  // A tree uses each edge at most once (two nodes pointing over the same edge
  // would form a 2-cycle), so the payload needs no dedup: count, prefix-sum,
  // fill.
  for (const DartId d : pristine_next_dart_) {
    if (d != graph::kInvalidDart) ++edge_dest_offsets_[graph::dart_edge(d) + 1];
  }
  for (std::size_t e = 0; e < edges; ++e) {
    edge_dest_offsets_[e + 1] += edge_dest_offsets_[e];
  }
  edge_dest_ids_.resize(edge_dest_offsets_[edges]);
  std::vector<std::uint32_t> cursor(edge_dest_offsets_.begin(),
                                    edge_dest_offsets_.end() - 1);
  for (NodeId dest = 0; dest < node_count_; ++dest) {
    const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
    for (NodeId at = 0; at < node_count_; ++at) {
      const DartId d = pristine_next_dart_[base + at];
      if (d != graph::kInvalidDart) {
        edge_dest_ids_[cursor[graph::dart_edge(d)]++] = dest;
      }
    }
  }
}

void RoutingDb::build_children_index() {
  const std::size_t n = node_count_;
  child_offsets_.assign(n * (n + 1), 0);
  child_ids_.resize(edge_dest_ids_.size());  // one entry per tree edge, too
  std::vector<std::uint32_t> cursor(n);
  std::uint32_t running = 0;
  for (NodeId dest = 0; dest < n; ++dest) {
    const std::size_t base = dest * n;
    std::uint32_t* off = child_offsets_.data() + dest * (n + 1);
    // Count each node's children (child v's parent is the head of its next
    // dart), then prefix into absolute offsets continuing from the previous
    // destination's slice.
    for (NodeId v = 0; v < n; ++v) {
      const DartId d = pristine_next_dart_[base + v];
      if (d != graph::kInvalidDart) ++off[graph_->dart_head(d) + 1];
    }
    off[0] = running;
    for (std::size_t i = 1; i <= n; ++i) off[i] += off[i - 1];
    running = off[n];
    std::copy_n(off, n, cursor.data());
    for (NodeId v = 0; v < n; ++v) {
      const DartId d = pristine_next_dart_[base + v];
      if (d != graph::kInvalidDart) child_ids_[cursor[graph_->dart_head(d)]++] = v;
    }
  }
}

void RoutingDb::restore_dirty_columns() {
  // Each rebuild records exactly which rows its repairs changed, so undoing
  // the previous scenario replays those rows instead of memcpying whole O(n)
  // columns -- the second half of making a sweep step cost O(damage).
  for (std::size_t c = 0; c < dirty_dests_.size(); ++c) {
    const NodeId dest = dirty_dests_[c];
    const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
    for (std::size_t i = changed_offsets_[c]; i < changed_offsets_[c + 1]; ++i) {
      const std::size_t flat = base + changed_nodes_[i];
      next_dart_[flat] = pristine_next_dart_[flat];
      dist_[flat] = pristine_dist_[flat];
      hops_[flat] = pristine_hops_[flat];
    }
    col_max_disc_[dest] = pristine_col_max_disc_[dest];
  }
  dirty_dests_.clear();
  changed_offsets_.clear();
  changed_nodes_.clear();
}

void RoutingDb::rebuild(const graph::EdgeSet& excluded,
                        graph::SpfWorkspace& workspace) {
  if (baseline_excluded_) {
    throw std::logic_error(
        "RoutingDb::rebuild: only supported on a db built without a baseline "
        "exclusion set");
  }
  if (graph_->structure_id() != graph_structure_id_) {
    // Repair mixes the pristine snapshot with the live graph; a mutation in
    // between would silently corrupt the tables, so fail loudly instead.
    throw std::logic_error(
        "RoutingDb::rebuild: graph was mutated since this db was built");
  }
  ensure_incremental_state();

  // Destinations whose pristine tree uses a failed edge -- everything else is
  // provably identical to a from-scratch build and is skipped.
  affected_dests_.clear();
  for (const EdgeId e : excluded.elements()) {
    if (e >= graph_->edge_count()) continue;  // unknown edge id
    for (std::uint32_t i = edge_dest_offsets_[e]; i < edge_dest_offsets_[e + 1];
         ++i) {
      const NodeId dest = edge_dest_ids_[i];
      if (dest_flag_[dest] == 0) {
        dest_flag_[dest] = 1;
        affected_dests_.push_back(dest);
      }
    }
  }

  // Restore every row a previous rebuild modified; repair then starts from
  // the pristine tree state it requires.
  restore_dirty_columns();

  changed_offsets_.push_back(0);
  for (const NodeId dest : affected_dests_) {
    dest_flag_[dest] = 0;
    const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
    const std::span<const NodeId> orphans = workspace.repair_tree(
        *graph_, excluded, dist_.data() + base, hops_.data() + base,
        next_dart_.data() + base, children_view(dest));
    if (orphans.empty()) continue;  // defensive: tree untouched, stay clean
    // The orphan list is exactly the set of rows that may now differ from
    // pristine: record it for the next restore, and fold the regrown rows
    // into the column maximum.  Non-orphan rows keep their pristine
    // discriminators, so unless the pristine argmax row itself was orphaned
    // the new maximum is max(pristine max, regrown rows' max) -- no column
    // scan.  (A regrown row CAN shrink its discriminator -- a costlier
    // surviving path may have fewer hops -- which is why the orphaned-
    // argmax case rescans instead of assuming monotonicity.)
    const NodeId argmax = pristine_col_argmax_[dest];
    bool argmax_orphaned = false;
    std::uint32_t orphan_max = 0;
    for (const NodeId v : orphans) {
      changed_nodes_.push_back(v);
      argmax_orphaned = argmax_orphaned || v == argmax;
      const std::size_t flat = base + v;
      if (dist_[flat] != graph::kUnreachable) {
        orphan_max = std::max(orphan_max, disc_at(flat));
      }
    }
    changed_offsets_.push_back(changed_nodes_.size());
    col_max_disc_[dest] =
        argmax_orphaned
            ? column_max_discriminator(dest)
            : std::max(pristine_col_max_disc_[dest], orphan_max);
    dirty_dests_.push_back(dest);
  }

  max_discriminator_ = col_max_disc_.empty()
                           ? 0
                           : *std::max_element(col_max_disc_.begin(),
                                               col_max_disc_.end());
}

std::uint32_t RoutingDb::discriminator(NodeId at, NodeId dest) const {
  if (!reachable(at, dest)) {
    throw std::logic_error("RoutingDb::discriminator: destination unreachable");
  }
  if (kind_ == DiscriminatorKind::kHops) return hops(at, dest);
  return static_cast<std::uint32_t>(std::llround(cost(at, dest)));
}

std::uint32_t RoutingDb::disc_at(std::size_t flat) const noexcept {
  return kind_ == DiscriminatorKind::kHops
             ? hops_[flat]
             : static_cast<std::uint32_t>(std::llround(dist_[flat]));
}

std::uint32_t RoutingDb::column_max_discriminator(NodeId dest) const noexcept {
  const std::size_t base = static_cast<std::size_t>(dest) * node_count_;
  std::uint32_t best = 0;
  if (kind_ == DiscriminatorKind::kHops) {
    for (std::size_t i = base; i < base + node_count_; ++i) {
      if (dist_[i] != graph::kUnreachable) best = std::max(best, hops_[i]);
    }
  } else {
    for (std::size_t i = base; i < base + node_count_; ++i) {
      if (dist_[i] != graph::kUnreachable) {
        best = std::max(best, static_cast<std::uint32_t>(std::llround(dist_[i])));
      }
    }
  }
  return best;
}

std::size_t RoutingDb::memory_bytes_per_router() const noexcept {
  // Per destination: next-hop interface id (4 B) + discriminator column (4 B).
  return graph_->node_count() * (sizeof(DartId) + sizeof(std::uint32_t));
}

std::size_t RoutingDb::bytes() const noexcept {
  return sizeof(*this) + cap_bytes(next_dart_) + cap_bytes(dist_) +
         cap_bytes(hops_) + cap_bytes(col_max_disc_) +
         cap_bytes(pristine_next_dart_) + cap_bytes(pristine_dist_) +
         cap_bytes(pristine_hops_) + cap_bytes(pristine_col_max_disc_) +
         cap_bytes(pristine_col_argmax_) + cap_bytes(edge_dest_offsets_) +
         cap_bytes(edge_dest_ids_) + cap_bytes(child_offsets_) +
         cap_bytes(child_ids_) + cap_bytes(dirty_dests_) +
         cap_bytes(dest_flag_) + cap_bytes(affected_dests_) +
         cap_bytes(changed_offsets_) + cap_bytes(changed_nodes_);
}

}  // namespace pr::route
