#pragma once

/// Sharded vertex-partition dynamic matching engine.
///
/// The distributed vertex-partition regime (Robinson & Zhu 2025 applied to
/// Section 7 of the paper; batches as the unit of sharding following
/// Ghaffari & Trygub 2024): the vertex set is partitioned into `k`
/// contiguous shards, and each shard *owns* the per-vertex state of its
/// range —
///
///  * its slice of the flat sorted adjacency (the rows of the owned
///    vertices; an edge {u, v} materializes as two directed copies, one in
///    owner(u)'s slice and one in owner(v)'s), and
///  * the corresponding row range of the A_weak adjacency bit-matrix
///    (ShardedMatrixOracle below).
///
/// The storage layout lives in `ShardedAdjacencyStore`, an AdjacencyStore
/// policy for the shared `DynamicReplayCore` (replay_core.hpp):
/// `ShardedDynamicMatcher` is a thin facade over
/// `DynamicReplayCore<ShardedAdjacencyStore>`, so every decision — prefix
/// cuts, the rebuild-budget replay, heavy-run reservation rematch, rebuild
/// arming and overlap — is literally the same implementation as
/// `DynamicMatcher`'s. The store routes each batch's structural directed
/// copies to their owning shards (the `Problem1Instance::apply_chunk`
/// resolution discipline — chunks shard cleanly), shards apply local
/// adjacency and bit-row mutations by replaying their op lists in
/// (shard-id, update-index) order on the calling thread (a conflict-free
/// prefix is too little work to pay for a pool fan-out; docs/ablation.md),
/// **all matching commits run through the coordinator in update order**,
/// and the Theorem 6.2 rebuild budget is replayed globally. The shards are
/// a model of the vertex-partition setting and its message ledger
/// (`comm_stats()`), not a source of update-path parallelism:
///
///   ShardedDynamicMatcher is **bit-identical to DynamicMatcher** —
///   matchings (mate by mate), graph, rebuild counts *and positions*, and
///   A_weak call counts — at every (shards x threads) combination,
///   including shards = 1 and threads = 1.
///
/// That holds because every ingredient reproduces the sequential decision
/// sequence exactly: shard slices store neighbors ascending (so neighbor
/// scans and `snapshot()` equal DynGraph's), the decision machinery is the
/// one shared core, and the sharded oracle answers queries bit-identically
/// to MatrixWeakOracle (below).
///
/// ## Sharded masked row probes (the A_weak serial fraction)
///
/// `MatrixWeakOracle::query_impl` is a serial greedy over S: probe row u
/// against the availability mask, commit, shrink the mask. PR 3 exposed that
/// loop as a visible serial fraction of rebuild time. ShardedMatrixOracle
/// parallelizes it with a speculative scan + serial commit:
///
///  1. every row of S is probed concurrently (shard-local rows, grouped by
///     owning shard) against the *pre-query* availability mask;
///  2. a serial greedy commit walks S in order: a vertex already consumed is
///     skipped, a speculative candidate that is still available commits, a
///     stale candidate (consumed by an earlier commit) re-probes inline
///     against the live mask.
///
/// Availability only shrinks, so a still-available speculative candidate is
/// provably the live mask's first common neighbor too (min over a superset
/// that still contains it) — the commit sequence equals the serial greedy's
/// choice for choice, and answers are bit-identical to MatrixWeakOracle at
/// any shard/thread count. `words_touched()` charges the words the probes
/// actually scan (speculative, inline, and wasted scans alike), so it is
/// deterministic for a given engine but — unlike matchings and call counts —
/// legitimately differs from the serial oracle's count, which never probes
/// speculatively.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/framework.hpp"
#include "dynamic/replay_core.hpp"
#include "dynamic/replay_engine.hpp"
#include "dynamic/weak_oracle.hpp"
#include "graph/bit_matrix.hpp"
#include "graph/dyn_graph.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace bmf {

/// Contiguous vertex partition into k shards: shard s owns
/// [s * block, min(n, (s+1) * block)) with block = ceil(n / k). The last
/// shard absorbs the remainder, so every vertex has exactly one owner.
class VertexPartition {
 public:
  VertexPartition(Vertex n, int shards);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] int shards() const { return k_; }
  [[nodiscard]] int owner(Vertex v) const {
    return block_ == 0 ? 0
                       : static_cast<int>(
                             std::min<Vertex>(v / block_, static_cast<Vertex>(k_ - 1)));
  }
  [[nodiscard]] Vertex begin(int shard) const {
    return std::min<Vertex>(n_, static_cast<Vertex>(shard) * block_);
  }
  [[nodiscard]] Vertex end(int shard) const {
    return shard == k_ - 1 ? n_
                           : std::min<Vertex>(n_, static_cast<Vertex>(shard + 1) *
                                                      block_);
  }
  [[nodiscard]] Vertex size(int shard) const { return end(shard) - begin(shard); }

 private:
  Vertex n_;
  int k_;
  Vertex block_;
};

/// The vertex-partition RebuildParticipation policy (core/framework.hpp):
/// each shard scans the snapshot rows of the vertices it owns into a private
/// pos-tagged candidate buffer, merged by the coordinator with the canonical
/// ascending-pos splice — so ordering is inherited, and this class only adds
/// the rebuild-side message accounting. `note_rebuild_begin` charges the
/// snapshot distribution (both directed copies of every edge travel to their
/// row owners), `note_rebuild_gather` one coordinator gather round per
/// discovery sweep iteration. At shards = 1 nothing crosses a boundary and
/// both hooks charge nothing, keeping the k = 1 engine's ledger all-zero.
///
/// Thread safety: the counters are written only by the thread running the
/// Theorem 6.2 boost (the rebuild-overlap worker or the caller itself) and
/// read after its join — the words_touched_ single-writer discipline; no lock.
class ShardedRebuildParticipation final : public RebuildParticipation {
 public:
  explicit ShardedRebuildParticipation(const VertexPartition& part)
      : part_(part) {}

  [[nodiscard]] int participants() const override { return part_.shards(); }
  [[nodiscard]] int owner(Vertex v) const override { return part_.owner(v); }

  void note_rebuild_begin(const Graph& snapshot) override {
    if (part_.shards() <= 1) return;
    bytes_ += 2 * snapshot.num_edges() *
              static_cast<std::int64_t>(sizeof(Vertex));
    ++rounds_;
  }
  void note_rebuild_gather(std::int64_t bytes) override {
    if (part_.shards() <= 1) return;
    bytes_ += bytes;
    ++rounds_;
  }

  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t rounds() const { return rounds_; }

 private:
  const VertexPartition& part_;
  std::int64_t bytes_ = 0;
  std::int64_t rounds_ = 0;
};

/// One directed copy of a structural update, owned by the shard holding
/// `vertex`'s row.
struct ShardOp {
  Vertex vertex, other;
  bool insert;
};

/// A batch's structural subset routed to its owning shards: per-shard
/// directed op lists, each in update order (so a per-shard serial replay is
/// the (shard-id, update-index)-ordered merge), plus the net edge delta.
/// Routing once serves both the adjacency slices and the oracle row ranges.
struct RoutedOps {
  std::vector<std::vector<ShardOp>> per_shard;
  std::int64_t edge_delta = 0;
  std::int64_t total_ops = 0;
};

[[nodiscard]] RoutedOps route_structural_ops(
    const VertexPartition& part, std::span<const EdgeUpdate> updates,
    std::span<const std::uint8_t> structural);

/// A_weak over shard-owned bit-matrix row ranges; answers bit-identical to
/// MatrixWeakOracle (see the file comment for the speculative-probe scheme).
class ShardedMatrixOracle final : public WeakOracle {
 public:
  ShardedMatrixOracle(Vertex n, int shards, int threads);

  [[nodiscard]] double lambda() const override { return 0.5; }
  void on_insert(Vertex u, Vertex v) override;
  void on_erase(Vertex u, Vertex v) override;
  /// Routed maintenance on the calling thread (`threads` is ignored): each
  /// shard replays the directed copies it owns in batch order, so the final
  /// matrix state equals the serial on_insert/on_erase replay.
  void on_batch(std::span<const EdgeUpdate> updates,
                std::span<const std::uint8_t> structural, int threads) override;
  /// on_batch on pre-routed ops (lets callers route a batch once and feed
  /// both the graph slices and the oracle).
  void apply_ops(const RoutedOps& ops);

  [[nodiscard]] Vertex num_vertices() const { return part_.num_vertices(); }
  [[nodiscard]] const VertexPartition& partition() const { return part_; }
  [[nodiscard]] bool bit(Vertex u, Vertex v) const;

  /// Words of row data scanned by probes (speculative + inline re-probes) —
  /// exact, monotone, and thread-count invariant for a fixed shard count.
  [[nodiscard]] std::int64_t words_touched() const { return words_touched_; }

  /// Rebuild-query gather traffic: each A_weak query's speculative probe
  /// results travel from their owning shards to the serial commit at the
  /// coordinator (one slot per row, one round per query). Zero at shards = 1.
  /// Same single-writer discipline as words_touched_ (the boost thread).
  [[nodiscard]] std::int64_t query_gather_bytes() const {
    return query_gather_bytes_;
  }
  [[nodiscard]] std::int64_t query_gather_rounds() const {
    return query_gather_rounds_;
  }

 protected:
  WeakQueryResult query_impl(std::span<const Vertex> s, double delta) override;
  WeakQueryResult query_cover_impl(std::span<const Vertex> s_plus,
                                   std::span<const Vertex> s_minus,
                                   double delta) override;

 private:
  /// first_common_in_row of u's owned row against mask; adds the words
  /// scanned to *words.
  [[nodiscard]] std::int64_t probe(Vertex u, const BitVec& mask,
                                   std::int64_t* words) const;
  /// The shared speculative-scan + serial-greedy-commit engine behind both
  /// query flavors; `consume_plus` distinguishes G[S] greedy (both endpoints
  /// leave the mask, consumed rows skip) from cover greedy (only the minus
  /// copy leaves the mask, every plus row probes).
  WeakQueryResult greedy(std::span<const Vertex> rows, BitVec& avail,
                         bool consume_plus, double delta);

  VertexPartition part_;
  std::vector<BitMatrix> slices_;  ///< shard s: size(s) x n rows
  int threads_;
  std::int64_t words_touched_ = 0;
  std::int64_t query_gather_bytes_ = 0;
  std::int64_t query_gather_rounds_ = 0;
};

/// The vertex-partition AdjacencyStore policy: per-shard sorted adjacency
/// slices plus the row-sharded oracle. Satisfies the replay_core.hpp store
/// contract; batched entry points route once and feed both state slices.
class ShardedAdjacencyStore {
 public:
  ShardedAdjacencyStore(const VertexPartition& part, ShardedMatrixOracle& oracle);

  [[nodiscard]] Vertex num_vertices() const { return part_.num_vertices(); }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;
  /// Neighbors of v ascending, read from the owning shard's slice —
  /// identical to DynGraph::neighbors on the same update stream.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const { return row(v); }
  /// Assembled across shards in vertex order; equals DynGraph::snapshot().
  [[nodiscard]] Graph snapshot() const;
  [[nodiscard]] WeakOracle& oracle() { return oracle_; }
  /// Routing pays off with real shards even on one thread; the serial apply
  /// loop stays the reference semantics only when both axes are trivial.
  [[nodiscard]] bool use_batch_engine(int threads) const {
    return threads > 1 || part_.shards() > 1;
  }

  bool toggle(const EdgeUpdate& up);

  void apply_structural(std::span<const EdgeUpdate> updates,
                        std::span<const std::uint8_t> structural);
  void apply_adjacency(std::span<const EdgeUpdate> updates,
                       std::span<const std::uint8_t> structural);
  void flush_oracle(std::span<const EdgeUpdate> updates,
                    std::span<const std::uint8_t> structural);

  /// The vertex-partition participation policy the core hands to every
  /// Theorem 6.2 boost (replay_core.hpp contract).
  [[nodiscard]] RebuildParticipation& rebuild_participation() {
    return participation_;
  }
  /// Folds the store's boundary traffic — batch routing (charged here),
  /// rebuild snapshot/gather rounds (participation_), and rebuild-query probe
  /// gathers (the oracle) — into one ledger. All-zero at shards = 1.
  [[nodiscard]] CommStats comm_stats() const {
    CommStats out;
    out.batch_bytes = batch_bytes_;
    out.batch_rounds = batch_rounds_;
    out.rebuild_bytes = participation_.bytes() + oracle_.query_gather_bytes();
    out.rebuild_rounds = participation_.rounds() + oracle_.query_gather_rounds();
    return out;
  }

  [[nodiscard]] std::int64_t num_edges() const { return m_edges_; }

 private:
  /// apply_adjacency's routing, kept so a flush_oracle over the *same* spans
  /// (the deferred-oracle overlap path) reuses it instead of routing again.
  /// Keyed on span identity: routing depends only on the partition and the
  /// update list, so a cached entry can never go stale — only miss.
  struct CachedRoute {
    const EdgeUpdate* updates = nullptr;
    const std::uint8_t* flags = nullptr;
    std::size_t count = 0;
    RoutedOps ops;
  };

  [[nodiscard]] std::vector<Vertex>& row(Vertex v);
  [[nodiscard]] const std::vector<Vertex>& row(Vertex v) const;
  void link(Vertex u, Vertex v);    // directed copy into owner(u)'s slice
  void unlink(Vertex u, Vertex v);  // directed copy out of owner(u)'s slice

  /// Applies pre-routed ops to the adjacency slices (each shard replays its
  /// list in update order) and updates m_edges_.
  void apply_graph_ops(const RoutedOps& ops);

  /// Charges one routing round of `total_ops` directed copies to the batch
  /// ledger; no-op at shards = 1 or for an empty flush (nothing crosses).
  void charge_route(std::int64_t total_ops);

  const VertexPartition& part_;
  /// shard -> local row -> sorted neighbors (the shard's adjacency slice).
  std::vector<std::vector<std::vector<Vertex>>> slices_;
  std::int64_t m_edges_ = 0;
  ShardedMatrixOracle& oracle_;
  ShardedRebuildParticipation participation_;
  CachedRoute pending_oracle_route_;
  /// Batch-side comm ledger (routing traffic). Written only by the update
  /// thread — never by the overlap rebuild worker, which touches only the
  /// distinct rebuild-side fields above; the worker's join publishes both.
  std::int64_t batch_bytes_ = 0;
  std::int64_t batch_rounds_ = 0;
};

static_assert(AdjacencyStorePolicy<ShardedAdjacencyStore>,
              "ShardedAdjacencyStore must model AdjacencyStorePolicy");
static_assert(RebuildParticipationPolicy<ShardedRebuildParticipation>,
              "ShardedRebuildParticipation must model "
              "RebuildParticipationPolicy");

/// The shared replay-core knobs plus the shard count (replay_core.hpp; the
/// flat facade derives from the same struct, so the engines cannot drift).
struct ShardedMatcherConfig : DynamicCoreConfig {
  /// Vertex shards (>= 1; > n is legal, trailing shards own empty ranges).
  /// Results are bit-identical at any setting.
  int shards = 1;
};

/// The whole `ReplayEngine` surface — apply/apply_batch (bit-identical to
/// `DynamicMatcher` on the same stream at any shards x threads),
/// matching/snapshot/export_snapshot, and the counters incl.
/// rebuild_positions()/overlap_stats()/rebuild_stats()/comm_stats() (the
/// comm ledger is live at shards > 1, all-zero at shards = 1) — is inherited
/// from
/// `ReplayEngineFacade` (replay_engine.hpp); only the oracle-reading
/// `weak_calls()` and the partition/store extras live here.
class ShardedDynamicMatcher final
    : public ReplayEngineFacade<ShardedDynamicMatcher, ShardedAdjacencyStore> {
 public:
  ShardedDynamicMatcher(Vertex n, const ShardedMatcherConfig& cfg);

  [[nodiscard]] const VertexPartition& partition() const { return part_; }
  [[nodiscard]] const ShardedMatrixOracle& oracle() const { return oracle_; }

  [[nodiscard]] std::int64_t num_edges() const { return store_.num_edges(); }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const {
    return store_.has_edge(u, v);
  }
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return store_.neighbors(v);
  }

  [[nodiscard]] std::int64_t weak_calls() const override {
    return oracle_.calls();
  }

 private:
  friend class ReplayEngineFacade<ShardedDynamicMatcher, ShardedAdjacencyStore>;

  VertexPartition part_;
  ShardedMatrixOracle oracle_;
  ShardedAdjacencyStore store_;
  DynamicReplayCore<ShardedAdjacencyStore> core_;
};

}  // namespace bmf
