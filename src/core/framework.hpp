#pragma once

/// The boosting framework for a graph oracle (Section 5, Theorem 1.1).
///
/// FrameworkDriver simulates Extend-Active-Path (Algorithm 5: l_max label
/// stages, each a loop of A_matching calls on the bipartite stage graph H'_s
/// of Definition 5.8) and Contract-and-Augment (Algorithm 4: local
/// contraction to kill type-1 arcs, then a loop of A_matching calls on the
/// structure graph H' of Definition 5.4). Per Remark 2, the Contract-and-
/// Augment invocation at the end of Algorithm 5 is skipped; the phase engine
/// runs it once per pass-bundle.
///
/// `boost_matching` is the Theorem 1.1 entry point: it computes a
/// 4-approximate initial matching with O(c) oracle calls (Lemma 5.3) and then
/// runs the phase engine with this driver.
///
/// The driver's derived-graph construction — the dominant per-iteration
/// local cost of both simulations (the work Theorem 1.1 charges to
/// A_process) — is built so its cost scales with the structures a sweep can
/// actually use and the arcs they produce, not with the forest size:
///
///  * a serial prepass collects the eligible structure ids of the iteration
///    (live, not on hold, not extended, at the stage's level for H'_s; live
///    for H') together with their flat vertex scans; an iteration with no
///    eligible structure returns before any pool call or allocation;
///  * discovery fans out over the eligible (participant x structure) slots
///    only — const reads on the forest into private candidate buffers,
///    operations applied after the oracle answers — and the buffers merge
///    serially in structure-id order, so the H' / H'_s handed to the oracle
///    is bit-identical at any thread count;
///  * the fan-out gate measures the work the iteration really has: the
///    eligible slot count and the arcs its scans will examine (scanned
///    vertices times the graph's average degree). A stage sweep over a few
///    eligible structures runs inline instead of waking the pool;
///  * all per-iteration state is driver-owned scratch reused across
///    iterations: the slot and scan buffers, a vertex-indexed right-id array
///    with a last-left stamp that drops repeated (left, right) pairs, per-left
///    edge ranges that resolve the oracle's H'_s answer, and a flat
///    (structure-pair key, witness) vector, sorted once per H' iteration and
///    binary-searched for the answer. Once the buffers have grown to the
///    largest iteration seen, a single-participant sweep allocates nothing
///    (a partitioned one only inside the participation's `merge`);
///  * frontier gate: most H' sweeps find nothing, so the augment loop first
///    tries to prove H' empty from what changed since it was last empty.
///    Within a phase an H' arc depends only on removed / structure_of /
///    is_outer, which change monotonically and only at the points the
///    forest logs (structures.hpp), so every arc that appeared since the
///    forest's empty-H' mark has a logged endpoint. If no logged outer
///    vertex has an outer neighbour in another live structure, H' is empty:
///    the loop charges `note_rebuild_gather(0)` exactly as the empty full
///    sweep did (the coordinator ledger is unchanged) and returns. Otherwise
///    the full sweep runs unchanged, so every non-empty H' the oracle sees is
///    the same one. Every empty verdict, proved or swept, moves the mark to
///    the log's end; a loop cut short (truncation, paper bound) clears it.
///    Under `check_invariants` every "proved empty" verdict is
///    cross-checked against a full sweep.
///
/// This is what makes the Theorem 6.2 rebuild inside the dynamic matcher
/// parallel, and cheap: its exhaustion sweeps run through this driver.
///
/// ## Rebuild participation (the storage-layout fan-out surface)
///
/// When the driver runs inside a dynamic rebuild, the graph it scans is a
/// frozen snapshot of a storage layout that may be sharded. The
/// `RebuildParticipation` interface below lets that layout participate in the
/// discovery sweeps as a first-class policy instead of the driver reaching
/// around the store: discovery fans out per (participant x structure), each
/// participant scans only the structure vertices whose rows it owns into a
/// private pos-tagged buffer, and the coordinator splices the buffers per
/// structure through the `merge` hook — in (shard-id, structure-id) slot
/// order, resolved within a structure by scan position. The position tags are
/// load-bearing: a structure's flat vertex scan (blossom order) is *not*
/// ascending by vertex id, so owner-major concatenation would reorder
/// candidates; merging by pos reproduces the flat emission order exactly,
/// keeping matchings, op counts, and truncation decisions bit-identical to
/// the single-participant sweep at every (participants x threads).
/// `FlatRebuildParticipation` is the trivial single-participant case and the
/// default when no participation is supplied.

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/oracle.hpp"
#include "core/phase.hpp"
#include "core/structures.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace bmf {

/// One candidate arc emitted by a participant's share of a discovery sweep.
/// `pos` is the index of the scanning vertex `w` in the structure's flat
/// vertex scan (blossom-vertex order for H'_s stages, member order for the
/// H' augment sweep) — the coordinator's merge key (see the file comment).
struct SweepArc {
  std::int32_t pos = 0;
  Vertex w = kNoVertex;
  Vertex x = kNoVertex;
  StructureId sx = kNoStructure;  ///< peer structure (augment sweeps only)
};

/// How a storage layout takes part in the rebuild's H'/H'_s discovery
/// sweeps. Implementations must satisfy the merge-order determinism
/// obligation: `merge` must splice per-participant buffers (each ascending in
/// pos, with pairwise-disjoint pos sets — every scan position is owned by
/// exactly one participant) into ascending-pos order, reproducing the flat
/// scan's emission order exactly. The default implementation is that
/// canonical cursor merge; overrides exist for accounting, not ordering.
///
/// The `note_*` hooks are the coordinator message ledger (CommStats,
/// replay_core.hpp): `note_rebuild_begin` is invoked once per Theorem 6.2
/// boost with the frozen snapshot it distributes, `note_rebuild_gather` once
/// per discovery sweep iteration with the candidate bytes gathered across
/// the boundary. Single-participant layouts keep both as no-ops.
class RebuildParticipation {
 public:
  virtual ~RebuildParticipation() = default;

  /// Number of participants (>= 1); 1 is the flat single-participant case.
  [[nodiscard]] virtual int participants() const = 0;
  /// Owning participant of vertex v's adjacency row, in [0, participants()).
  [[nodiscard]] virtual int owner(Vertex v) const = 0;
  /// Splices one structure's per-participant candidate buffers into `out` in
  /// flat scan order (ascending pos). See the class comment for the
  /// obligation; the default implementation is the canonical merge.
  virtual void merge(std::span<const std::vector<SweepArc>> per_participant,
                     std::vector<SweepArc>& out) const;
  /// One Theorem 6.2 boost begins: the coordinator distributes the frozen
  /// snapshot's rows to their owners. Default: no accounting.
  virtual void note_rebuild_begin(const Graph& snapshot) { (void)snapshot; }
  /// One discovery sweep iteration gathered `bytes` bytes of candidate
  /// buffers at the coordinator. Default: no accounting.
  virtual void note_rebuild_gather(std::int64_t bytes) { (void)bytes; }
};

/// The trivial single-participant RebuildParticipation: one owner for every
/// row, pass-through merge, no message accounting. Stateless, so one instance
/// may be shared across threads.
class FlatRebuildParticipation final : public RebuildParticipation {
 public:
  [[nodiscard]] int participants() const override { return 1; }
  [[nodiscard]] int owner(Vertex /*v*/) const override { return 0; }
};

/// The compile-time face of the participation contract: a type usable where
/// the rebuild sweeps expect a participation policy. Derivation from
/// `RebuildParticipation` carries the virtual dispatch the driver uses; the
/// requires-clause re-states the load-bearing surface so a policy that
/// shadows (rather than overrides) a member is rejected at the concept, with
/// a readable diagnostic, instead of at an eventual wrong vtable call. The
/// semantic half of the contract — `merge` reproduces flat scan order
/// exactly — stays with the class comment above; concepts check shape only.
template <class P>
concept RebuildParticipationPolicy =
    std::derived_from<P, RebuildParticipation> &&
    requires(const P& p, Vertex v, std::span<const std::vector<SweepArc>> bufs,
             std::vector<SweepArc>& out) {
      { p.participants() } -> std::convertible_to<int>;
      { p.owner(v) } -> std::convertible_to<int>;
      p.merge(bufs, out);
    };

static_assert(RebuildParticipationPolicy<FlatRebuildParticipation>,
              "FlatRebuildParticipation must model RebuildParticipationPolicy");

struct FrameworkStats {
  std::int64_t stage_loops = 0;       ///< (stage, pass-bundle) pairs simulated
  std::int64_t stage_iterations = 0;  ///< oracle iterations inside Algorithm 5
  std::int64_t ca_iterations = 0;     ///< oracle iterations inside Algorithm 4
  std::int64_t truncated_loops = 0;   ///< loops cut by the paper's fixed bound
  std::int64_t augment_sweeps = 0;    ///< full H' sweeps (frontier gate missed)
};

/// Observation hook for the Figure-3 benchmark: reports the size of the
/// matching A_matching found in each simulation iteration together with the
/// number of arcs in the derived graph.
struct IterationObservation {
  int stage = -1;  ///< label stage for Algorithm 5; -1 for Algorithm 4
  std::int64_t h_vertices = 0;
  std::int64_t h_edges = 0;
  std::int64_t matched = 0;
};
using IterationObserver = std::function<void(const IterationObservation&)>;

class FrameworkDriver final : public PassBundleDriver {
 public:
  /// `participation` selects the rebuild-participation policy the discovery
  /// sweeps fan out through; nullptr means the flat single-participant case
  /// (static pipelines, tests). The policy object must outlive the driver.
  FrameworkDriver(const Graph& g, MatchingOracle& oracle, const CoreConfig& cfg,
                  RebuildParticipation* participation = nullptr);

  void extend_active_path(StructureForest& forest) override;
  void contract_and_augment(StructureForest& forest) override;
  [[nodiscard]] bool exhaustive() const override;

  [[nodiscard]] const FrameworkStats& stats() const { return stats_; }
  void set_observer(IterationObserver obs) { observer_ = std::move(obs); }

  /// The two steps of Contract-and-Augment, callable on their own by a driver
  /// that samples in between (WeakOracleDriver): step 1 exhausts type-1 arcs
  /// by local contraction, step 2 is the A_matching loop on H'.
  void run_local_contractions(StructureForest& forest);
  void run_augment_loop(StructureForest& forest);

 private:
  /// Which derived graph a discovery sweep builds.
  enum class Sweep { kStage, kAugment };

  /// One H' arc keyed by its structure pair; `seq` is its emission index, so
  /// sorting by (key, seq) puts each pair's first witness first.
  struct KeyedArc {
    std::int64_t key = 0;
    std::int32_t seq = 0;
    Vertex w = kNoVertex;
    Vertex x = kNoVertex;
  };

  /// One stage of Algorithm 5 (or the unsplit [FMU22]-style variant when
  /// cfg.stage_split is false and stage < 0).
  void run_stage(StructureForest& forest, int stage);
  /// The frontier gate: true when no vertex logged since the forest's
  /// empty-H' mark is outer with an outer neighbour in another live
  /// structure, which proves H' empty (structures.hpp, change log).
  [[nodiscard]] bool frontier_proves_empty(const StructureForest& forest) const;
  /// One full H' sweep: every live structure's members into keyed_ / nodes_
  /// (one keyed arc per candidate, emission order). Returns the number of
  /// candidate arcs gathered; keyed_ is empty iff H' is.
  std::int64_t sweep_structure_graph(const StructureForest& forest);

  /// Scans every eligible structure's vertex run into its slot buffers,
  /// fanned out over the (participant x eligible structure) slots when the
  /// gate opens (`scan_vertices` is the iteration's total scan length).
  void discover(const StructureForest& forest, Sweep kind,
                std::int64_t scan_vertices);
  /// The slot task of `discover`: one participant's share of one eligible
  /// structure's scan, into that slot's private buffer.
  void scan_slot(const StructureForest& forest, Sweep kind, std::int64_t slot);
  /// Eligible structure e's candidate arcs in flat scan order: its slot
  /// buffer directly for one participant, else the participation's merge.
  [[nodiscard]] std::span<const SweepArc> merged_arcs(std::size_t e);
  /// H' vertex id of structure s, assigned on first use this iteration.
  std::int32_t structure_node(StructureId s);

  const Graph& g_;
  MatchingOracle& oracle_;
  const CoreConfig& cfg_;
  RebuildParticipation* participation_;  ///< never null (flat fallback)
  int participants_;                     ///< participation_->participants()
  std::int64_t avg_degree_;              ///< ceil(2m / n), arcs per scanned vertex
  FrameworkStats stats_;
  IterationObserver observer_;

  // Sweep scratch, reused across iterations (see the file comment).
  // Both sweeps: the iteration's eligible structures, one (eligible x
  // participant) candidate buffer per slot, one structure's spliced buffers,
  // and the derived graph itself.
  std::vector<StructureId> eligible_;
  std::vector<std::vector<SweepArc>> slots_;
  std::vector<SweepArc> merged_;
  OracleGraph h_;
  // H'_s: the structures that may still extend this pass-bundle (see
  // extend_active_path); per eligible structure its level and its working
  // blossom's vertex run scan_[scan_begin_[e], scan_begin_[e + 1]).
  std::vector<StructureId> candidates_;
  std::vector<int> eligible_level_;
  std::vector<Vertex> scan_;
  std::vector<std::int32_t> scan_begin_;
  // H'_s numbering: vertex -> right id (-1 when unnumbered) and the last left
  // id that emitted it, right id -> vertex, then per left id its edges
  // h_.edges[left_begin_[l], left_begin_[l + 1]) and its overtaker level, and
  // per edge its witness arc (w, x).
  std::vector<std::int32_t> right_id_;
  std::vector<std::int32_t> last_left_;
  std::vector<Vertex> rights_;
  std::vector<std::int32_t> left_begin_;
  std::vector<int> left_level_;
  std::vector<std::pair<Vertex, Vertex>> witness_;
  // H' numbering: structure -> node id (-1 when unnumbered), node id ->
  // structure, and the keyed arcs (after dedup: one per edge, in edge order).
  std::vector<std::int32_t> node_of_;
  std::vector<StructureId> nodes_;
  std::vector<KeyedArc> keyed_;
};

/// Lemma 5.3: a Theta(1)-approximate initial matching by repeatedly invoking
/// A_matching on the subgraph induced by currently-free vertices.
[[nodiscard]] Matching framework_initial_matching(const Graph& g,
                                                  MatchingOracle& oracle,
                                                  const CoreConfig& cfg);

struct BoostResult {
  Matching matching;
  BoostOutcome outcome;
  FrameworkStats stats;
  std::int64_t initial_oracle_calls = 0;
  std::int64_t total_oracle_calls = 0;
};

/// Theorem 1.1: a (1+eps)-approximate maximum matching of g using only
/// invocations of the given Theta(1)-approximate oracle (plus the local
/// structure processing the theorem charges to A_process).
[[nodiscard]] BoostResult boost_matching(const Graph& g, MatchingOracle& oracle,
                                         const CoreConfig& cfg);

/// Builds a fresh oracle for one boosting repetition from that repetition's
/// seed. Each repetition gets its own oracle so independent runs never share
/// mutable state (randomness, counters) across threads.
using OracleFactory =
    std::function<std::unique_ptr<MatchingOracle>(std::uint64_t seed)>;

struct EnsembleResult {
  BoostResult best;            ///< the repetition with the largest matching
  int best_repetition = -1;    ///< its index (lowest on ties)
  std::vector<std::int64_t> sizes;  ///< matching size per repetition
};

/// Runs `repetitions` independent boosted runs, each with its own oracle and
/// a per-repetition seed split from cfg.seed, fanned out across cfg.threads
/// pool workers, and keeps the run with the largest matching (ties break to
/// the lowest repetition index). Seeds are drawn serially up front and each
/// repetition writes into its own result slot, so the outcome is
/// bit-identical at any thread count.
[[nodiscard]] EnsembleResult boost_matching_ensemble(const Graph& g,
                                                     const OracleFactory& make_oracle,
                                                     const CoreConfig& cfg,
                                                     int repetitions);

}  // namespace bmf
