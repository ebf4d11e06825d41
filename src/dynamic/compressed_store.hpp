#pragma once

/// CSR-compressed AdjacencyStore with per-vertex delta buffers.
///
/// The third backend behind `DynamicReplayCore<Store>` (after Flat and
/// Sharded), built for the memory hierarchy instead of bit-identity plumbing:
/// the adjacency body is one contiguous CSR index (`offsets_` + `csr_`)
/// instead of per-vertex vectors, so rebuild-time scans walk one allocation.
/// Updates between rebuilds land in small per-vertex sorted delta buffers
/// (`adds` disjoint from the CSR row, `dels` a subset of it); the active row
/// of a touched vertex is materialized eagerly as a sorted `merged` vector so
/// `neighbors()` can keep returning one contiguous ascending span, which is
/// what the core's scans (prefix cutting, reservation rematch) require.
///
/// Delta buffers fold back into the CSR body at Theorem 6.2 rebuild
/// boundaries — when the engine is rewriting structures anyway. The fold
/// lives inside `snapshot()`: the core snapshots exactly once per rebuild, on
/// the caller thread, *before* the overlapped boost launches, so the fold
/// never races the overlap window's `apply_adjacency` mutations (the boost
/// worker only ever reads the already-taken snapshot). Folding is observably
/// neutral — it changes row storage, never row content — so facade-level
/// `snapshot()` calls from tests merely merge early.
///
/// The store is bit-identical to Flat/Sharded across the full differential
/// grid (matchings, rebuild positions, A_weak calls, RebuildStats); it shares
/// the flat engine's `MatrixWeakOracle`, so `words_touched` is also exactly
/// the flat family's. Single participant: `comm_stats()` is all-zero.

#include <cstdint>
#include <span>
#include <vector>

#include "core/framework.hpp"
#include "dynamic/replay_core.hpp"
#include "dynamic/replay_engine.hpp"
#include "dynamic/weak_oracle.hpp"
#include "graph/graph.hpp"

namespace bmf {

/// Monotone observability counters for the delta/merge life cycle.
/// Deterministic per (stream, config): same run, same numbers.
struct CompressedStoreStats {
  std::int64_t merges = 0;          ///< delta folds into the CSR body
  std::int64_t merged_entries = 0;  ///< delta entries consumed by those folds
  std::int64_t delta_inserts = 0;   ///< structural inserts buffered
  std::int64_t delta_erases = 0;    ///< structural erases buffered
  std::int64_t peak_delta_entries = 0;  ///< high-water directed delta size

  friend bool operator==(const CompressedStoreStats&,
                         const CompressedStoreStats&) = default;
};

/// Single-participant rebuild policy for the compressed store. Deliberately
/// NOT where the delta fold happens: under rebuild/update overlap,
/// `note_rebuild_begin` runs on the boost worker concurrently with the
/// caller's window mutations, so the fold sits in `snapshot()` (caller
/// thread, pre-launch) instead. Stateless; safe to share across threads.
class CompressedRebuildParticipation final : public RebuildParticipation {
 public:
  [[nodiscard]] int participants() const override { return 1; }
  [[nodiscard]] int owner(Vertex /*v*/) const override { return 0; }
};

static_assert(
    RebuildParticipationPolicy<CompressedRebuildParticipation>,
    "CompressedRebuildParticipation must model RebuildParticipationPolicy");

class CompressedAdjacencyStore {
 public:
  CompressedAdjacencyStore(Vertex n, WeakOracle& oracle);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;
  /// Ascending neighbor ids: the CSR slice for clean rows, the materialized
  /// merged row for rows with pending deltas. Invalidated by any mutation of
  /// v's row and by `snapshot()`/`merge_deltas()`.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const;
  /// Folds pending deltas into the CSR body (rebuild boundary — see the file
  /// comment), then freezes it in DynGraph snapshot order (u < v, ascending).
  [[nodiscard]] Graph snapshot() const;
  [[nodiscard]] WeakOracle& oracle() { return oracle_; }
  [[nodiscard]] bool use_batch_engine(int threads) const { return threads > 1; }

  bool toggle(const EdgeUpdate& up);

  void apply_structural(std::span<const EdgeUpdate> updates,
                        std::span<const std::uint8_t> structural);
  void apply_adjacency(std::span<const EdgeUpdate> updates,
                       std::span<const std::uint8_t> structural);
  void flush_oracle(std::span<const EdgeUpdate> updates,
                    std::span<const std::uint8_t> structural);

  [[nodiscard]] RebuildParticipation& rebuild_participation() {
    return participation_;
  }
  [[nodiscard]] CommStats comm_stats() const { return {}; }

  // ---- observability beyond the store contract ----------------------------

  [[nodiscard]] std::int64_t num_edges() const { return m_; }
  /// Directed delta entries currently buffered (adds + dels over all rows);
  /// 0 right after a fold.
  [[nodiscard]] std::int64_t delta_entries() const { return delta_entries_; }
  /// Bytes behind the CSR body (offsets + index), by element count.
  [[nodiscard]] std::int64_t csr_bytes() const;
  /// Bytes behind live delta state (buffers + materialized rows).
  [[nodiscard]] std::int64_t delta_bytes() const;
  [[nodiscard]] const CompressedStoreStats& store_stats() const {
    return stats_;
  }

  /// Folds every pending delta into a freshly packed CSR body and clears the
  /// per-vertex buffers. Called by `snapshot()` at rebuild boundaries; public
  /// so tests can pin fold-point equivalence directly.
  void merge_deltas();

 private:
  struct DeltaRow {
    std::vector<Vertex> adds;    // sorted, disjoint from the CSR row
    std::vector<Vertex> dels;    // sorted, subset of the CSR row
    std::vector<Vertex> merged;  // the active row while dirty
  };

  [[nodiscard]] std::span<const Vertex> csr_row(Vertex v) const;
  [[nodiscard]] bool csr_contains(Vertex u, Vertex v) const;
  /// Copies the CSR row into `merged` on first touch and marks the row dirty.
  void materialize(Vertex v);
  /// One directed half of an insert/erase whose presence change is already
  /// established. Touches only row x's state.
  void insert_half(Vertex x, Vertex y);
  void erase_half(Vertex x, Vertex y);
  bool insert_edge(Vertex u, Vertex v);
  bool erase_edge(Vertex u, Vertex v);
  /// Bookkeeping shared by toggle and the batch entry points: edge
  /// count, directed delta-entry count, stats. `csr_contains` tells whether
  /// the op re-toggles a base edge (shrinking a buffer) or a delta edge.
  void account_structural(const EdgeUpdate& up);

  Vertex n_ = 0;
  std::int64_t m_ = 0;
  std::int64_t delta_entries_ = 0;
  WeakOracle& oracle_;
  std::vector<std::int64_t> offsets_;  // size n_ + 1
  std::vector<Vertex> csr_;            // size 2m at last fold
  std::vector<DeltaRow> delta_;
  std::vector<std::uint8_t> dirty_;
  CompressedRebuildParticipation participation_;
  CompressedStoreStats stats_;
};

static_assert(AdjacencyStorePolicy<CompressedAdjacencyStore>,
              "CompressedAdjacencyStore must model AdjacencyStorePolicy");

struct CompressedMatcherConfig : DynamicCoreConfig {};

/// ReplayEngine facade over the compressed store — the compressed sibling of
/// `DynamicMatcher` (flat) and `ShardedDynamicMatcher`.
class CompressedDynamicMatcher final
    : public ReplayEngineFacade<CompressedDynamicMatcher,
                                CompressedAdjacencyStore> {
 public:
  CompressedDynamicMatcher(Vertex n, const CompressedMatcherConfig& cfg);

  [[nodiscard]] std::int64_t weak_calls() const override {
    return oracle_.calls();
  }

  [[nodiscard]] std::int64_t num_edges() const { return store_.num_edges(); }
  [[nodiscard]] const CompressedAdjacencyStore& store() const { return store_; }
  [[nodiscard]] const MatrixWeakOracle& matrix_oracle() const {
    return oracle_;
  }

 private:
  friend class ReplayEngineFacade<CompressedDynamicMatcher,
                                  CompressedAdjacencyStore>;

  MatrixWeakOracle oracle_;
  CompressedAdjacencyStore store_;
  DynamicReplayCore<CompressedAdjacencyStore> core_;
};

}  // namespace bmf
