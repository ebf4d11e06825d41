#pragma once

/// Fully dynamic undirected simple graph over flat sorted adjacency.
///
/// This is the substrate under the dynamic matching algorithms (Section 7 of
/// the paper): the graph "starts empty and never has more than m edges".
/// Each vertex keeps its neighbors in a sorted contiguous vector, which
///
///  * makes the hot neighbor-scan paths cache-friendly (no per-node heap
///    chasing as with `unordered_set` buckets), and
///  * pins iteration order to ascending vertex id on every platform and
///    standard library, so `snapshot()` and everything downstream of a
///    neighbor scan (e.g. the dynamic matcher's rematch-by-first-free-neighbor
///    repair) is deterministic and reproducible across toolchains.
///
/// Single-edge insert/erase costs O(log deg) to locate plus O(deg) to shift;
/// the batched entry points below regain parallelism across vertices: a batch
/// of updates is resolved into its structural subset (`resolve_structural`,
/// no-op aware and duplicate-edge aware) and applied with per-vertex replay
/// (`apply_structural`), where distinct vertices' adjacency lists are mutated
/// concurrently but each list is replayed in batch order — the same
/// private-slot/ordered-merge discipline as util/thread_pool.hpp, so results
/// are bit-identical at any thread count.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace bmf {

/// One Problem 1 update. Lives with the dynamic substrate so that batch
/// machinery (graph, oracles, matchers) shares a single update vocabulary.
struct EdgeUpdate {
  Vertex u = kNoVertex;
  Vertex v = kNoVertex;
  bool insert = true;
  /// Problem 1 allows "empty updates" that change nothing but count toward
  /// chunk accounting.
  [[nodiscard]] bool empty() const { return u == kNoVertex; }
  /// True iff the dynamic engines accept this update on an n-vertex graph:
  /// an empty update, or two distinct endpoints in [0, n).
  [[nodiscard]] bool valid_for(Vertex n) const {
    return empty() || (u >= 0 && u < n && v >= 0 && v < n && u != v);
  }

  static EdgeUpdate ins(Vertex u, Vertex v) { return {u, v, true}; }
  static EdgeUpdate del(Vertex u, Vertex v) { return {u, v, false}; }
  static EdgeUpdate none() { return {}; }
};

class DynGraph {
 public:
  explicit DynGraph(Vertex num_vertices);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::int64_t num_edges() const { return m_; }

  /// Inserts {u, v}; returns false if it already existed (no-op).
  bool insert(Vertex u, Vertex v);

  /// Deletes {u, v}; returns false if it was absent (no-op).
  bool erase(Vertex u, Vertex v);

  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  [[nodiscard]] std::int64_t degree(Vertex v) const {
    return static_cast<std::int64_t>(adj_[static_cast<std::size_t>(v)].size());
  }

  /// Neighbors of v in ascending vertex order (platform-deterministic).
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return adj_[static_cast<std::size_t>(v)];
  }

  /// Snapshot into a static CSR graph (used by rebuild steps and tests).
  /// Edges come out sorted lexicographically with u < v.
  [[nodiscard]] Graph snapshot() const;

  /// Resolves which updates of a batch structurally change the graph when
  /// replayed in order: flags[i] != 0 iff update i toggles edge presence
  /// (insert of an absent edge / erase of a present edge), accounting for
  /// earlier updates in the same batch that touch the same edge. Validates
  /// endpoints up front; does not mutate. Distinct edges resolve in parallel.
  [[nodiscard]] std::vector<std::uint8_t> resolve_structural(
      std::span<const EdgeUpdate> updates, int threads = 1) const;

  /// Applies the structural subset of a batch (flags from
  /// `resolve_structural`) with per-vertex parallel replay. Equivalent to
  /// applying the flagged updates one by one in batch order.
  void apply_structural(std::span<const EdgeUpdate> updates,
                        std::span<const std::uint8_t> structural, int threads = 1);

  /// Fast path of `apply_structural` for batches whose structural updates
  /// have pairwise-disjoint endpoints (each vertex is touched at most once):
  /// applies them in batch order without any grouping pass.
  void apply_structural_disjoint(std::span<const EdgeUpdate> updates,
                                 std::span<const std::uint8_t> structural);

 private:
  void link(Vertex u, Vertex v);    // one-directional sorted insert
  void unlink(Vertex u, Vertex v);  // one-directional sorted erase

  Vertex n_;
  std::int64_t m_ = 0;
  std::vector<std::vector<Vertex>> adj_;  // each sorted ascending
};

/// Shared workhorse under batched adjacency-shaped maintenance (DynGraph,
/// bit-matrix oracles): emits both directed copies (u, v) and (v, u) of every
/// structural update, grouped by first vertex, and invokes
/// fn(vertex, other, insert) group by group — a vertex's copies arrive in
/// batch order and never split across threads, while distinct vertices run
/// concurrently. Callers may therefore mutate per-vertex state inside fn and
/// still get the serial-replay result at any thread count.
void for_each_incident_by_vertex(
    std::span<const EdgeUpdate> updates, std::span<const std::uint8_t> structural,
    int threads, const std::function<void(Vertex, Vertex, bool)>& fn);

}  // namespace bmf
