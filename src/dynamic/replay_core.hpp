#pragma once

/// The unified dynamic replay core (Theorem 7.1's update loop, one home).
///
/// PR 2-4 grew two bit-identity-critical copies of the same decision
/// machinery: `DynamicMatcher` (flat single-node `DynGraph` adjacency) and
/// `ShardedDynamicMatcher` (vertex-partitioned shard slices) each carried
/// their own rebuild-budget replay, conflict-free prefix cutting, heavy
/// deletion-run reservation rematch, and rebuild arming. Following the
/// batch-dynamic literature's separation of update-commit discipline from
/// storage layout (Ghaffari & Trygub 2024; Robinson & Zhu 2025),
/// `DynamicReplayCore<Store>` is that discipline extracted once, templated
/// over an **AdjacencyStore policy** that owns the storage layout:
///
///  * `FlatAdjacencyStore` (below) — a `DynGraph` plus an external
///    `WeakOracle`; the single-node engine.
///  * `ShardedAdjacencyStore` (sharded_matcher.hpp) — per-shard adjacency
///    slices plus the row-sharded `ShardedMatrixOracle`.
///
/// The policy contract an AdjacencyStore must satisfy — machine-checked by
/// the `bmf::AdjacencyStorePolicy` concept below (shape) and by the
/// `DynamicReplayCore` static_assert cascade (one named diagnostic per
/// missing member; exercised by tests/compile_fail/):
///
///   Vertex num_vertices() const;
///   bool has_edge(Vertex u, Vertex v) const;          // O(log deg)
///   std::span<const Vertex> neighbors(Vertex) const;  // ascending ids
///   Graph snapshot() const;                           // == DynGraph order
///   WeakOracle& oracle();
///   bool use_batch_engine(int threads) const;
///   bool toggle(const EdgeUpdate&);   // adjacency + oracle; true iff the
///                                     // update changed edge presence
///   // Batched application of a structural subset with pairwise-disjoint
///   // endpoints (flags[i] != 0 selects), on the calling thread;
///   // `apply_structural` maintains adjacency and oracle together, the split
///   // pair defers the oracle for the rebuild-overlap path (never touch the
///   // oracle while rebuild queries are in flight):
///   void apply_structural(updates, flags);
///   void apply_adjacency(updates, flags);
///   void flush_oracle(updates, flags);
///   // Rebuild participation (core/framework.hpp): the policy object the
///   // Theorem 6.2 boost's H'/H'_s exhaustion sweeps fan out through —
///   // shard-local candidate sweeps merged by the coordinator in canonical
///   // order. Flat stores return the trivial single-participant policy. The
///   // returned object must outlive the store; the core passes it into
///   // every static_weak_boost call (so the rebuild path drives the store's
///   // policy instead of reaching around it into FrameworkDriver):
///   RebuildParticipation& rebuild_participation();
///   // Coordinator message ledger (CommStats below), folded across the
///   // store's state slices (participation + oracle + batch routing);
///   // all-zero for single-participant layouts:
///   CommStats comm_stats() const;
///
/// Everything else — matching, counters, scratch marks, budget replay, and
/// every decision sequence — lives here, so the two engines cannot drift:
/// the determinism contract (bit-identical matchings, graph, rebuild
/// *positions*, and A_weak call counts versus the sequential `apply` loop at
/// any threads / shards / batch-size setting) is one implementation pinned by
/// one differential harness (tests/test_replay_core.cpp).
///
/// ## Batched updates (the batch determinism contract)
///
/// `apply_batch` cuts the batch into maximal *conflict-free prefixes* (runs
/// of updates with pairwise-disjoint endpoints, none deleting a currently
/// matched edge), evaluates per-update decisions against the pre-prefix
/// state, replays the rebuild budget to truncate the prefix at the exact
/// sequential trigger position, hands the structural subset to the store as
/// one batch, and commits matching changes in update order. Heavy deletion
/// runs (consecutive matched-edge deletions with disjoint endpoints) take the
/// reservation rematch: a worst-case budget replay bounds the run so no
/// rebuild can fire inside it, each freed endpoint reserves its ascending
/// possibly-free candidate list, and an in-order commit takes the first
/// still-free candidate — exactly the sequential minimum-free-neighbor
/// repair.
///
/// All of that runs inline on the calling thread. Between rebuilds an update
/// costs O(1) work (Theorem 7.1), and a conflict-free prefix ends at the
/// first repeated endpoint — on uniform streams after about sqrt(n) updates,
/// whatever the batch size: far too little work to pay for a pool fan-out
/// (docs/ablation.md). `threads` buys only the two jobs that do pay: the
/// overlapped rebuild's dedicated thread (below) and the rebuild's internal
/// H'/H'_s discovery fan-out.
///
/// ## Rebuild/update overlap with pre-classified deletion windows
///
/// When a prefix arms a Theorem 6.2 rebuild, the rebuild runs on a dedicated
/// thread against the immutable snapshot and a copy of the matching while
/// the caller applies the next conflict-free window's adjacency mutations.
/// PR 3 stopped that window at the first deletion because a deletion's
/// heaviness (does it hit a matched edge?) depends on the rebuild's output.
/// This core instead **pre-classifies deletions against the pre-rebuild
/// matching**: a deletion predicted light (its edge unmatched before the
/// rebuild) joins the window — its graph mutation is matching-independent —
/// and the classification is validated after the join against the rebuilt
/// matching. Window endpoints are pairwise disjoint and window commits never
/// touch a deletion's endpoints, so "matched at this deletion's sequential
/// turn" equals "matched in the rebuilt matching" exactly; the validation
/// scan is therefore exact. On a misprediction (boosting matched the edge)
/// the core falls back serially: the structural suffix beyond the
/// mispredicted deletion is rewound (disjoint endpoints make inverse ops
/// order-free), the oracle catches up to the sequential point, the validated
/// prefix commits, the deletion takes the sequential heavy repair, and the
/// remaining updates re-enter the batch loop — still bit-identical, pinned
/// by the planted-misprediction tests. `ReplayOverlapStats` counts windows,
/// overlapped deletions, and mispredictions so tests can assert the path is
/// genuinely exercised.

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "dynamic/static_weak.hpp"
#include "dynamic/weak_oracle.hpp"
#include "graph/dyn_graph.hpp"
#include "matching/matching.hpp"
#include "matching/matching_view.hpp"
#include "util/annotations.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace bmf {

/// The one config behind every replay-core engine. Facade configs
/// (`DynamicMatcherConfig`, `ShardedMatcherConfig`) derive from this so the
/// knobs cannot drift apart or be forwarded by ad-hoc field copies.
struct DynamicCoreConfig {
  double eps = 0.25;
  WeakSimConfig sim;  ///< rebuild configuration (sim.core.eps is forced to eps/2)
  /// Updates between rebuilds; 0 = adaptive max(1, floor(eps*|M|/4)).
  std::int64_t rebuild_every = 0;
  std::uint64_t seed = 1;
  /// Rebuild parallelism: the Theorem 6.2 rebuild's internal H'/H'_s
  /// discovery fan-out (forced into `sim.core.threads`) and, above 1, the
  /// batched path with its overlapped rebuild thread (0 = hardware
  /// concurrency, 1 = serial). The update path itself always runs on the
  /// calling thread. Results are bit-identical at any setting.
  int threads = 0;
  /// Overlap an armed rebuild (dedicated thread, snapshot + matching copy)
  /// with the next conflict-free window's graph mutations, including
  /// predicted-light deletions. Only active on the batched path with
  /// threads > 1; bit-identical either way.
  bool overlap_rebuild = true;
};

/// Validates the shared knobs (and the shard count, for sharded engines;
/// pass shards = 1 otherwise). Throws std::invalid_argument; `who` prefixes
/// the message. shards > n is legal — trailing shards own empty ranges.
void validate_core_config(const DynamicCoreConfig& cfg, int shards, const char* who);

/// `cfg` with the rebuild simulation forced onto the shared eps/seed/threads
/// knobs, so rebuild trajectories line up bit for bit across engines.
[[nodiscard]] DynamicCoreConfig resolve_core_config(DynamicCoreConfig cfg);

/// Coverage counters for the rebuild-overlap path (test observability; they
/// are deterministic for a fixed stream x config like every other counter).
struct ReplayOverlapStats {
  /// Armed rebuilds that ran on the dedicated overlap thread.
  std::int64_t overlapped_rebuilds = 0;
  /// Non-empty update windows applied while a rebuild was in flight.
  std::int64_t overlap_windows = 0;
  /// Windows whose consumed part contained at least one deletion.
  std::int64_t overlap_windows_with_deletions = 0;
  /// Updates consumed inside overlap windows / deletions among them.
  std::int64_t overlapped_updates = 0;
  std::int64_t overlapped_deletions = 0;
  /// Predicted-light deletions the rebuilt matching proved heavy (each takes
  /// the serial fixup path).
  std::int64_t deletion_mispredictions = 0;
};

/// Coordinator message ledger: bytes and rounds crossing the shard boundary,
/// split between the batch path (routing update ops to shard slices) and the
/// rebuild path (snapshot distribution, discovery-sweep candidate gathers,
/// oracle probe gathers). Stores with a single participant report all zeros —
/// the flat engine and a sharded engine at shards = 1 both have no boundary
/// to cross. The ledger counts the messages the store actually models; serial
/// coordinator reads inside a rebuild (in-structure sweeps, local
/// contractions) are deliberately not charged — the exact-cost accounting
/// caveat (docs/replay_core.md). Counters are deterministic for a fixed
/// stream x config cell and monotone over a run, but are *not* equal across
/// thread counts: the overlap path's window grouping changes which gathers
/// happen where.
struct CommStats {
  std::int64_t batch_bytes = 0;    ///< update ops routed to shard slices
  std::int64_t batch_rounds = 0;   ///< routing rounds (one per batched flush)
  std::int64_t rebuild_bytes = 0;  ///< snapshot + gathers during rebuilds
  std::int64_t rebuild_rounds = 0;
  [[nodiscard]] std::int64_t coord_bytes() const {
    return batch_bytes + rebuild_bytes;
  }
  [[nodiscard]] std::int64_t coord_rounds() const {
    return batch_rounds + rebuild_rounds;
  }
  friend bool operator==(const CommStats&, const CommStats&) = default;
};

/// Theorem 6.2 rebuild counters folded across every boost the core ran
/// (including overlapped ones). Part of the determinism contract:
/// bit-identical across engines, shards, threads, and batch sizes for a fixed
/// stream x config — unlike CommStats, which is per-cell only.
struct RebuildStats {
  std::int64_t rebuilds = 0;
  std::int64_t weak_calls = 0;  ///< == engine weak_calls(): only rebuilds query
  std::int64_t sampled_iterations = 0;
  std::int64_t certified = 0;  ///< boosts that ended with the B.4 certificate
  friend bool operator==(const RebuildStats&, const RebuildStats&) = default;
};

/// Per-member concepts behind `AdjacencyStorePolicy`. Split so the
/// static_asserts inside `DynamicReplayCore` can name the exact member a
/// candidate store is missing (one diagnostic per hole — see
/// tests/compile_fail/, which compiles a store with each member removed and
/// greps for the matching message) instead of surfacing as a wall of
/// unrelated template errors.
namespace store_contract {

template <class S>
concept HasNumVertices = requires(const S& s) {
  { s.num_vertices() } -> std::convertible_to<Vertex>;
};

template <class S>
concept HasHasEdge = requires(const S& s, Vertex u, Vertex v) {
  { s.has_edge(u, v) } -> std::convertible_to<bool>;
};

template <class S>
concept HasNeighbors = requires(const S& s, Vertex v) {
  { s.neighbors(v) } -> std::convertible_to<std::span<const Vertex>>;
};

template <class S>
concept HasSnapshot = requires(const S& s) {
  { s.snapshot() } -> std::same_as<Graph>;
};

template <class S>
concept HasOracle = requires(S& s) {
  { s.oracle() } -> std::convertible_to<WeakOracle&>;
};

template <class S>
concept HasUseBatchEngine = requires(const S& s, int threads) {
  { s.use_batch_engine(threads) } -> std::convertible_to<bool>;
};

template <class S>
concept HasToggle = requires(S& s, const EdgeUpdate& up) {
  { s.toggle(up) } -> std::convertible_to<bool>;
};

template <class S>
concept HasApplyStructural =
    requires(S& s, std::span<const EdgeUpdate> ups,
             std::span<const std::uint8_t> flags) {
      s.apply_structural(ups, flags);
    };

template <class S>
concept HasApplyAdjacency =
    requires(S& s, std::span<const EdgeUpdate> ups,
             std::span<const std::uint8_t> flags) {
      s.apply_adjacency(ups, flags);
    };

template <class S>
concept HasFlushOracle =
    requires(S& s, std::span<const EdgeUpdate> ups,
             std::span<const std::uint8_t> flags) {
      s.flush_oracle(ups, flags);
    };

template <class S>
concept HasRebuildParticipation = requires(S& s) {
  { s.rebuild_participation() } -> std::convertible_to<RebuildParticipation&>;
};

template <class S>
concept HasCommStats = requires(const S& s) {
  { s.comm_stats() } -> std::same_as<CommStats>;
};

}  // namespace store_contract

/// The AdjacencyStore policy contract (file comment above) as a C++20
/// concept: exactly the surface `DynamicReplayCore` drives. The concept
/// checks shape; the semantic obligations (ascending `neighbors`, snapshot
/// order == DynGraph order, `toggle`'s changed-presence return, the
/// deferred-oracle split of the batch trio, participation merge order) stay
/// prose — they are pinned by the differential harness, not the type system.
template <class S>
concept AdjacencyStorePolicy =
    store_contract::HasNumVertices<S> && store_contract::HasHasEdge<S> &&
    store_contract::HasNeighbors<S> && store_contract::HasSnapshot<S> &&
    store_contract::HasOracle<S> && store_contract::HasUseBatchEngine<S> &&
    store_contract::HasToggle<S> && store_contract::HasApplyStructural<S> &&
    store_contract::HasApplyAdjacency<S> && store_contract::HasFlushOracle<S> &&
    store_contract::HasRebuildParticipation<S> && store_contract::HasCommStats<S>;

/// The flat single-node AdjacencyStore policy: a `DynGraph` plus a borrowed
/// `WeakOracle`. `DynamicMatcher` is a facade over
/// `DynamicReplayCore<FlatAdjacencyStore>`.
class FlatAdjacencyStore {
 public:
  FlatAdjacencyStore(Vertex n, WeakOracle& oracle) : g_(n), oracle_(oracle) {}

  [[nodiscard]] Vertex num_vertices() const { return g_.num_vertices(); }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const { return g_.has_edge(u, v); }
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return g_.neighbors(v);
  }
  [[nodiscard]] Graph snapshot() const { return g_.snapshot(); }
  [[nodiscard]] WeakOracle& oracle() { return oracle_; }
  [[nodiscard]] bool use_batch_engine(int threads) const { return threads > 1; }

  bool toggle(const EdgeUpdate& up) {
    if (up.insert) {
      if (!g_.insert(up.u, up.v)) return false;
      oracle_.on_insert(up.u, up.v);
    } else {
      if (!g_.erase(up.u, up.v)) return false;
      oracle_.on_erase(up.u, up.v);
    }
    return true;
  }

  void apply_structural(std::span<const EdgeUpdate> updates,
                        std::span<const std::uint8_t> structural) {
    g_.apply_structural_disjoint(updates, structural);
    oracle_.on_batch(updates, structural, /*threads=*/1);
  }
  void apply_adjacency(std::span<const EdgeUpdate> updates,
                       std::span<const std::uint8_t> structural) {
    g_.apply_structural_disjoint(updates, structural);
  }
  void flush_oracle(std::span<const EdgeUpdate> updates,
                    std::span<const std::uint8_t> structural) {
    oracle_.on_batch(updates, structural, /*threads=*/1);
  }

  /// The trivial single-participant policy: every rebuild sweep scans the
  /// whole snapshot at the coordinator, nothing crosses a boundary.
  [[nodiscard]] RebuildParticipation& rebuild_participation() {
    return participation_;
  }
  [[nodiscard]] CommStats comm_stats() const { return {}; }

  [[nodiscard]] const DynGraph& graph() const { return g_; }

 private:
  DynGraph g_;
  WeakOracle& oracle_;
  FlatRebuildParticipation participation_;
};

static_assert(AdjacencyStorePolicy<FlatAdjacencyStore>,
              "FlatAdjacencyStore must model AdjacencyStorePolicy");

/// The shared decision machinery. One instance per engine facade; `Store` is
/// the AdjacencyStore policy (see the file comment for the contract).
///
/// The static_assert cascade fires at instantiation, one named diagnostic
/// per missing contract member, before the member bodies get a chance to
/// spray unrelated errors; the final assert is the whole concept, so a store
/// failing in a way no per-member assert names is still rejected here.
template <class Store>
class DynamicReplayCore {
  static_assert(store_contract::HasNumVertices<Store>,
                "AdjacencyStore contract: missing 'Vertex num_vertices() const'");
  static_assert(store_contract::HasHasEdge<Store>,
                "AdjacencyStore contract: missing "
                "'bool has_edge(Vertex, Vertex) const'");
  static_assert(store_contract::HasNeighbors<Store>,
                "AdjacencyStore contract: missing "
                "'std::span<const Vertex> neighbors(Vertex) const'");
  static_assert(store_contract::HasSnapshot<Store>,
                "AdjacencyStore contract: missing 'Graph snapshot() const'");
  static_assert(store_contract::HasOracle<Store>,
                "AdjacencyStore contract: missing 'WeakOracle& oracle()'");
  static_assert(store_contract::HasUseBatchEngine<Store>,
                "AdjacencyStore contract: missing "
                "'bool use_batch_engine(int) const'");
  static_assert(store_contract::HasToggle<Store>,
                "AdjacencyStore contract: missing "
                "'bool toggle(const EdgeUpdate&)'");
  static_assert(store_contract::HasApplyStructural<Store>,
                "AdjacencyStore contract: missing "
                "'void apply_structural(updates, flags)'");
  static_assert(store_contract::HasApplyAdjacency<Store>,
                "AdjacencyStore contract: missing "
                "'void apply_adjacency(updates, flags)'");
  static_assert(store_contract::HasFlushOracle<Store>,
                "AdjacencyStore contract: missing "
                "'void flush_oracle(updates, flags)'");
  static_assert(store_contract::HasRebuildParticipation<Store>,
                "AdjacencyStore contract: missing "
                "'RebuildParticipation& rebuild_participation()'");
  static_assert(store_contract::HasCommStats<Store>,
                "AdjacencyStore contract: missing 'CommStats comm_stats() const'");
  static_assert(AdjacencyStorePolicy<Store>,
                "Store does not model bmf::AdjacencyStorePolicy "
                "(see src/dynamic/replay_core.hpp)");

 public:
  /// `cfg` must already be resolved (resolve_core_config) and validated.
  DynamicReplayCore(Store& store, const DynamicCoreConfig& cfg)
      : store_(store),
        cfg_(cfg),
        m_(store.num_vertices()),
        mark_(static_cast<std::size_t>(store.num_vertices()), 0) {}

  void apply(const EdgeUpdate& update) {
    ++updates_;
    ++since_rebuild_;
    if (!update.empty()) {
      if (store_.toggle(update))
        on_structural_change(update.u, update.v, update.insert);
    }
    maybe_rebuild();
  }

  void apply_batch(std::span<const EdgeUpdate> batch) {
    const Vertex n = store_.num_vertices();
    for (const EdgeUpdate& up : batch)
      BMF_REQUIRE(up.valid_for(n), "DynamicReplayCore::apply_batch: invalid update");
    const int threads = ThreadPool::resolve_threads(cfg_.threads);
    if (!store_.use_batch_engine(threads)) {
      // The batch engine only buys anything with an overlap thread (or real
      // shards); the serial loop is the reference semantics.
      for (const EdgeUpdate& up : batch) apply(up);
      return;
    }
    std::size_t i = 0;
    while (i < batch.size()) {
      if (is_heavy(batch[i])) {
        const std::size_t run = heavy_run_length(batch.subspan(i));
        if (run >= 2) {
          i += apply_heavy_run(batch.subspan(i, run));
        } else {
          // An isolated heavy deletion: the reservation machinery buys
          // nothing.
          apply(batch[i]);
          ++i;
        }
        continue;
      }
      const std::size_t len = light_prefix_length(batch.subspan(i));
      const PrefixOutcome got = apply_light_prefix(batch.subspan(i, len));
      i += got.consumed;
      if (got.fired) {
        arm_rebuild();
        if (cfg_.overlap_rebuild && threads > 1) {
          i += rebuild_overlapped(batch.subspan(i));
        } else {
          rebuild();
        }
      }
    }
  }

  [[nodiscard]] const Matching& matching() const { return m_; }

  /// Exports the current matching as an immutable epoch snapshot (compact
  /// mate array + size + the given epoch id + the update count) — the
  /// publication hook behind `MatchingService`. Pure read: exporting never
  /// perturbs the replay state, so engines with and without snapshot export
  /// stay bit-identical (pinned by the differential harness, which exports
  /// after every run and compares mate for mate).
  [[nodiscard]] MatchingSnapshot export_snapshot(std::int64_t epoch) const {
    return MatchingSnapshot::of(m_, epoch, updates_);
  }

  [[nodiscard]] std::int64_t updates() const { return updates_; }
  [[nodiscard]] std::int64_t rebuilds() const { return rebuilds_; }
  /// Update position (the value of `updates()`) at which each rebuild fired —
  /// the golden-trace suites pin these byte for byte.
  [[nodiscard]] const std::vector<std::int64_t>& rebuild_positions() const {
    return rebuild_positions_;
  }
  [[nodiscard]] const ReplayOverlapStats& overlap_stats() const { return stats_; }
  /// Folded Theorem 6.2 counters across every rebuild (bit-identical across
  /// the whole engine grid; rebuild_stats().weak_calls equals the oracle's
  /// total call count because only rebuilds query it).
  [[nodiscard]] const RebuildStats& rebuild_stats() const {
    return rebuild_stats_;
  }

 private:
  struct PrefixOutcome {
    std::size_t consumed = 0;
    bool fired = false;  ///< a rebuild is armed at the truncation point
  };

  void try_match(Vertex v) {
    if (!m_.is_free(v)) return;
    for (Vertex w : store_.neighbors(v)) {
      if (m_.is_free(w)) {
        m_.add(v, w);
        return;
      }
    }
  }

  void on_structural_change(Vertex u, Vertex v, bool inserted) {
    if (inserted) {
      if (m_.is_free(u) && m_.is_free(v)) m_.add(u, v);
    } else if (m_.has(u, v)) {
      m_.remove_at(u);
      try_match(u);
      try_match(v);
    }
  }

  /// Updates allowed between rebuilds at matching size `sz` — the one
  /// formula behind both maybe_rebuild() and the batched budget replays (the
  /// bit-identical contract depends on them agreeing).
  [[nodiscard]] std::int64_t rebuild_budget(std::int64_t sz) const {
    if (cfg_.rebuild_every > 0) return cfg_.rebuild_every;
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::floor(cfg_.eps * static_cast<double>(sz) / 4.0)));
  }

  void arm_rebuild() {
    since_rebuild_ = 0;
    ++rebuilds_;
    rebuild_positions_.push_back(updates_);
  }

  void maybe_rebuild() {
    if (since_rebuild_ < rebuild_budget(m_.size())) return;
    arm_rebuild();
    rebuild();
  }

  void note_rebuild_result(const WeakBoostResult& boosted) {
    ++rebuild_stats_.rebuilds;
    rebuild_stats_.weak_calls += boosted.weak_calls;
    rebuild_stats_.sampled_iterations += boosted.sampled_iterations;
    if (boosted.outcome.certified) ++rebuild_stats_.certified;
  }

  void rebuild() {
    const Graph snapshot = store_.snapshot();
    WeakBoostResult boosted = static_weak_boost(
        snapshot, m_, store_.oracle(), cfg_.sim, &store_.rebuild_participation());
    note_rebuild_result(boosted);
    m_ = std::move(boosted.matching);
  }

  /// True for a structural deletion of a currently matched edge — the one
  /// update kind whose repair reads beyond its own endpoints.
  [[nodiscard]] bool is_heavy(const EdgeUpdate& up) const {
    // m_ only ever holds live edges, so a matched pair implies edge presence.
    return !up.empty() && !up.insert && m_.has(up.u, up.v);
  }

  /// Length of the maximal conflict-free prefix of `rest` (>= 1 unless
  /// empty).
  [[nodiscard]] std::size_t light_prefix_length(std::span<const EdgeUpdate> rest) {
    ++epoch_;
    std::size_t j = 0;
    for (; j < rest.size(); ++j) {
      const EdgeUpdate& c = rest[j];
      if (c.empty()) continue;
      auto& mu = mark_[static_cast<std::size_t>(c.u)];
      auto& mv = mark_[static_cast<std::size_t>(c.v)];
      if (mu == epoch_ || mv == epoch_) break;
      // A matched-edge deletion ends the prefix: its repair reads neighbors'
      // mates, which concurrent prefix members may be writing. The mate test
      // is exact here because earlier prefix members cannot touch c's
      // endpoints.
      if (is_heavy(c)) break;
      mu = epoch_;
      mv = epoch_;
    }
    return j;
  }

  /// Length of the maximal run of consecutive heavy deletions of `rest` with
  /// pairwise-disjoint endpoints (rest[0] must be heavy); records each
  /// endpoint's deletion index in `heavy_index_` under the current epoch.
  [[nodiscard]] std::size_t heavy_run_length(std::span<const EdgeUpdate> rest) {
    if (heavy_index_.empty()) heavy_index_.assign(mark_.size(), 0);
    ++epoch_;
    std::size_t j = 0;
    for (; j < rest.size(); ++j) {
      const EdgeUpdate& c = rest[j];
      if (c.empty() || c.insert) break;
      auto& mu = mark_[static_cast<std::size_t>(c.u)];
      auto& mv = mark_[static_cast<std::size_t>(c.v)];
      if (mu == epoch_ || mv == epoch_) break;
      // Disjointness keeps m_ exact at c's endpoints, so this test equals the
      // sequential at-time heaviness; a light deletion ends the run.
      if (!m_.has(c.u, c.v)) break;
      mu = epoch_;
      mv = epoch_;
      heavy_index_[static_cast<std::size_t>(c.u)] = static_cast<std::int32_t>(j);
      heavy_index_[static_cast<std::size_t>(c.v)] = static_cast<std::int32_t>(j);
    }
    return j;
  }

  /// Reservation rematch over a heavy run (see the file comment); returns
  /// how many deletions were consumed (the run is truncated to the
  /// worst-case rebuild-free bound; 0 forces one serial `apply`).
  std::size_t apply_heavy_run(std::span<const EdgeUpdate> run) {
    // Worst-case budget replay: |M| drops by at most one per deletion and
    // rebuild_budget is nondecreasing in |M|, so while
    // since_rebuild_ + i < rebuild_budget(|M| - i) no rebuild can fire at
    // update i for ANY rematch outcome — exactly where the sequential loop
    // cannot fire either. Truncate the run to that provably rebuild-free
    // bound.
    const std::int64_t sz0 = m_.size();
    std::int64_t safe = 0;
    while (safe < static_cast<std::int64_t>(run.size()) &&
           since_rebuild_ + safe + 1 < rebuild_budget(sz0 - (safe + 1)))
      ++safe;
    if (safe == 0) {
      // The very next deletion may fire a rebuild; take the serial path.
      apply(run[0]);
      return 1;
    }
    run = run.first(static_cast<std::size_t>(safe));

    // Every run member deletes a currently matched (hence present) edge, so
    // the whole run is structural: delete as one batch, maintain the oracle.
    structural_.assign(run.size(), 1);
    const std::span<const std::uint8_t> flags(structural_.data(), run.size());
    store_.apply_structural(run, flags);

    // Reservation scan (read-only): endpoint 2i / 2i+1 collects the ascending
    // list of neighbors that can possibly be free at its commit turn — free
    // before the run, or freed by an earlier deletion of the run. Deleting
    // the run's matched edges does not change any other endpoint's adjacency
    // (endpoints are disjoint), so the post-deletion neighbor scan equals the
    // sequential at-time scan.
    std::vector<std::vector<Vertex>> cand(2 * run.size());
    for (std::size_t k = 0; k < cand.size(); ++k) {
      const std::size_t i = k / 2;
      const Vertex x = (k % 2 == 0) ? run[i].u : run[i].v;
      for (Vertex nb : store_.neighbors(x)) {
        const auto nbi = static_cast<std::size_t>(nb);
        if (m_.is_free(nb) || (mark_[nbi] == epoch_ &&
                               heavy_index_[nbi] < static_cast<std::int32_t>(i)))
          cand[k].push_back(nb);
      }
    }

    // Commit in update order: unmatch the pair, then rematch each
    // freed endpoint with its first still-free reserved neighbor — the
    // sequential minimum-free-neighbor repair, endpoint for endpoint.
    for (std::size_t i = 0; i < run.size(); ++i) {
      m_.remove_at(run[i].u);
      for (const std::size_t k : {2 * i, 2 * i + 1}) {
        const Vertex x = (k % 2 == 0) ? run[i].u : run[i].v;
        if (!m_.is_free(x)) continue;
        for (Vertex nb : cand[k]) {
          if (m_.is_free(nb)) {
            m_.add(x, nb);
            break;
          }
        }
      }
      ++updates_;
      ++since_rebuild_;
    }
    BMF_ASSERT(since_rebuild_ < rebuild_budget(m_.size()));
    return run.size();
  }

  /// Processes a conflict-free prefix; reports how many updates were
  /// consumed (the prefix is truncated at the first rebuild trigger) and
  /// whether the caller must now arm a rebuild.
  PrefixOutcome apply_light_prefix(std::span<const EdgeUpdate> prefix) {
    structural_.assign(prefix.size(), 0);
    match_.assign(prefix.size(), 0);

    // Decisions read only the update's own endpoints (untouched by the rest
    // of the prefix), so evaluating them all against the pre-prefix state
    // equals the sequential decisions exactly.
    for (std::size_t k = 0; k < prefix.size(); ++k) {
      const EdgeUpdate& up = prefix[k];
      if (up.empty()) continue;
      if (up.insert) {
        if (!store_.has_edge(up.u, up.v)) {
          structural_[k] = 1;
          if (m_.is_free(up.u) && m_.is_free(up.v)) match_[k] = 1;
        }
      } else if (store_.has_edge(up.u, up.v)) {
        // Matched deletions never enter a prefix, so a structural deletion
        // here is of an unmatched edge and needs no repair.
        structural_[k] = 1;
      }
    }

    // Replay the rebuild budget to find where maybe_rebuild() would fire in
    // the sequential loop; truncate the prefix there (inclusive).
    std::size_t cut = prefix.size();
    bool fire = false;
    {
      std::int64_t sz = m_.size();
      std::int64_t since = since_rebuild_;
      for (std::size_t k = 0; k < prefix.size(); ++k) {
        ++since;
        if (match_[k]) ++sz;
        if (since >= rebuild_budget(sz)) {
          cut = k + 1;
          fire = true;
          break;
        }
      }
    }

    const auto committed = prefix.first(cut);
    const auto flags = std::span<const std::uint8_t>(structural_).first(cut);
    store_.apply_structural(committed, flags);
    for (std::size_t k = 0; k < cut; ++k) {
      ++updates_;
      ++since_rebuild_;
      if (match_[k]) m_.add(prefix[k].u, prefix[k].v);
    }
    return {cut, fire};
  }

  /// Runs the armed rebuild on a dedicated thread while overlapping the next
  /// conflict-free window of `rest` — insertions, no-ops, and deletions
  /// pre-classified light against the pre-rebuild matching (see the file
  /// comment); returns how many window updates were consumed. Caller must
  /// have called arm_rebuild().
  std::size_t rebuild_overlapped(std::span<const EdgeUpdate> rest) {
    // The window is bounded by the worst-case post-rebuild budget: boosting
    // never shrinks the matching and (predictions holding) the window's
    // deletions are light, so |M| stays >= its arm-time size and the first
    // rebuild_budget(|M| at arm) - 1 updates after the rebuild are provably
    // rebuild-free. A predicted-heavy deletion stops the window — its repair
    // depends on the rebuild's output either way.
    const std::int64_t cap = rebuild_budget(m_.size()) - 1;
    ++epoch_;
    std::size_t w = 0;
    while (w < rest.size() && static_cast<std::int64_t>(w) < cap) {
      const EdgeUpdate& c = rest[w];
      if (c.empty()) {
        ++w;
        continue;
      }
      auto& mu = mark_[static_cast<std::size_t>(c.u)];
      auto& mv = mark_[static_cast<std::size_t>(c.v)];
      if (mu == epoch_ || mv == epoch_) break;
      // Disjointness keeps m_ exact at c's endpoints, so this is exactly
      // "matched in the pre-rebuild matching".
      if (!c.insert && m_.has(c.u, c.v)) break;
      mu = epoch_;
      mv = epoch_;
      ++w;
    }
    const auto window = rest.first(w);
    if (window.empty()) {
      // Nothing to overlap (the rebuild fired at the batch's end, or the
      // next update conflicts immediately): the dedicated thread would only
      // add spawn/join latency. Same boost call, bit-identical either way.
      rebuild();
      return 0;
    }

    // Launch the rebuild on a dedicated thread (a pool worker would degrade
    // its inner parallel_for fan-out to inline). It reads the immutable
    // snapshot, a copy of the matching, and the oracle — never the live
    // adjacency.
    const Graph snapshot = store_.snapshot();
    const Matching base = m_;
    // The rebuild's result crosses the thread boundary through an annotated
    // slot: the worker computes outside the lock, stores under it; the caller
    // reads under it strictly after the join. The lock is uncontended — it
    // exists so the handoff discipline is compile-checked rather than implied
    // by the join alone.
    struct OverlapSlot {
      Mutex mu;
      WeakBoostResult rebuilt BMF_GUARDED_BY(mu);
      std::exception_ptr error BMF_GUARDED_BY(mu);
    } slot;
    DedicatedThread worker([&] {
      // The participation/oracle rebuild-side comm counters are touched only
      // by this thread while the boost runs (the caller's window work charges
      // the distinct batch-side fields); the join below publishes them, same
      // as the oracle's words_touched_ precedent.
      WeakBoostResult boosted;
      std::exception_ptr err;
      try {
        // bmf-analyzer: allow(single-writer-ledger) -- join publishes these
        boosted = static_weak_boost(snapshot, base, store_.oracle(), cfg_.sim,
                                    &store_.rebuild_participation());
      } catch (...) {
        err = std::current_exception();
      }
      const MutexLock lock(slot.mu);
      slot.rebuilt = std::move(boosted);
      slot.error = err;
    });
    ++stats_.overlapped_rebuilds;

    // Overlapped work: structural resolution + adjacency mutation only (both
    // matching-independent). Matching decisions and oracle maintenance wait
    // for the join below. If anything here throws, DedicatedThread joins the
    // rebuild on unwind before `snapshot`/`base` leave scope.
    structural_.assign(window.size(), 0);
    for (std::size_t k = 0; k < window.size(); ++k) {
      const EdgeUpdate& up = window[k];
      if (!up.empty() && store_.has_edge(up.u, up.v) != up.insert)
        structural_[k] = 1;
    }
    const std::span<const std::uint8_t> flags(structural_.data(), window.size());
    store_.apply_adjacency(window, flags);
    worker.join();
    {
      const MutexLock lock(slot.mu);
      if (slot.error) std::rethrow_exception(slot.error);
      note_rebuild_result(slot.rebuilt);
      m_ = std::move(slot.rebuilt.matching);
    }

    // Validate the light classification against the rebuilt matching. Window
    // endpoints are pairwise disjoint and commits never touch a deletion's
    // endpoints, so "matched at this deletion's sequential turn" equals
    // "matched in the rebuilt matching" — the scan is exact.
    std::size_t bad = window.size();
    for (std::size_t k = 0; k < window.size(); ++k) {
      const EdgeUpdate& up = window[k];
      if (!up.empty() && !up.insert && structural_[k] && m_.has(up.u, up.v)) {
        bad = k;
        break;
      }
    }

    const std::size_t consumed = bad == window.size() ? window.size() : bad + 1;
    if (bad == window.size()) {
      // Every classification held: deferred oracle maintenance and serial
      // commits in update order — the final state equals the sequential
      // rebuild-then-apply loop exactly.
      store_.flush_oracle(window, flags);
      commit_overlap_prefix(window);
    } else {
      // Misprediction: the sequential loop would treat window[bad] as a
      // heavy deletion. Rewind the structural suffix beyond it (those
      // updates have not "happened" yet; disjoint endpoints make the
      // inverse ops order-free), catch the oracle up to the sequential
      // point just after window[bad], commit the validated prefix, and take
      // the sequential heavy repair — the adjacency now holds exactly the
      // pre-window state plus structural updates 0..bad, so the repair's
      // neighbor scans equal the sequential at-time scans.
      ++stats_.deletion_mispredictions;
      std::vector<EdgeUpdate> inverse;
      for (std::size_t k = bad + 1; k < window.size(); ++k)
        if (structural_[k])
          inverse.push_back(window[k].insert
                                ? EdgeUpdate::del(window[k].u, window[k].v)
                                : EdgeUpdate::ins(window[k].u, window[k].v));
      const std::vector<std::uint8_t> all(inverse.size(), 1);
      store_.apply_adjacency(inverse, all);
      store_.flush_oracle(window.first(bad + 1), flags.first(bad + 1));
      commit_overlap_prefix(window.first(bad));
      ++updates_;
      ++since_rebuild_;
      m_.remove_at(window[bad].u);
      try_match(window[bad].u);
      try_match(window[bad].v);
      ++stats_.overlapped_updates;
      ++stats_.overlapped_deletions;
      // The heavy repair may have shrunk |M| below the cap's assumption, so
      // the sequential loop's budget check at this position is live again.
      maybe_rebuild();
    }

    if (consumed > 0) {
      ++stats_.overlap_windows;
      bool saw_deletion = false;
      for (std::size_t k = 0; k < consumed; ++k)
        saw_deletion |= !window[k].empty() && !window[k].insert;
      if (saw_deletion) ++stats_.overlap_windows_with_deletions;
    }
    return consumed;
  }

  /// Serial in-order commits for the consumed part of an overlap window:
  /// insertions match two free endpoints, validated-light deletions change
  /// no matching state, every update advances the budget.
  void commit_overlap_prefix(std::span<const EdgeUpdate> window) {
    for (std::size_t k = 0; k < window.size(); ++k) {
      ++updates_;
      ++since_rebuild_;
      ++stats_.overlapped_updates;
      const EdgeUpdate& up = window[k];
      if (up.empty()) continue;
      if (up.insert) {
        if (structural_[k] && m_.is_free(up.u) && m_.is_free(up.v))
          m_.add(up.u, up.v);
      } else {
        ++stats_.overlapped_deletions;
      }
    }
  }

  Store& store_;
  DynamicCoreConfig cfg_;
  Matching m_;
  std::int64_t updates_ = 0;
  std::int64_t since_rebuild_ = 0;
  std::int64_t rebuilds_ = 0;
  std::vector<std::int64_t> rebuild_positions_;
  ReplayOverlapStats stats_;
  RebuildStats rebuild_stats_;

  // Reused apply_batch scratch: endpoint marks (epoch-stamped; 64-bit so the
  // epoch cannot wrap within a process lifetime), per-update decision slots,
  // and per-endpoint heavy-run deletion indices (valid where mark_ carries
  // the current epoch).
  std::vector<std::uint64_t> mark_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint8_t> structural_;
  std::vector<std::uint8_t> match_;
  std::vector<std::int32_t> heavy_index_;
};

}  // namespace bmf
