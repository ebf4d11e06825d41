#pragma once

/// The structure forest of [MMSS25] (Section 4): one structure
/// S_alpha = (G_alpha, Omega_alpha, w'_alpha) per free vertex, with the three
/// basic operations Augment / Contract / Overtake (Section 4.5) and
/// Backtrack-Stuck-Structures (Section 4.8).
///
/// The forest lives for one phase (Alg-Phase): `init_phase` builds a
/// single-vertex structure per free vertex; operations grow, merge and remove
/// structures; recorded augmenting paths are applied to the matching by the
/// phase engine after the phase ends (Algorithm 1 line 6). The matching is
/// read-only during a phase.
///
/// Change log (the H' frontier gate of core/framework.hpp): an arc of the
/// structure graph H' (Definition 5.4) depends only on per-vertex state —
/// removed, structure_of and is_outer. Within a phase removal only grows,
/// outer status only goes inner -> outer (Contract), and a vertex changes
/// structure only by Overtake case 1 (v, t join) or case 2.2 (subtree theft).
/// The forest appends to a per-phase vertex log at exactly those points:
/// case 1 logs t (v joins inner), case 2.2 logs every moved vertex, Contract
/// logs the formerly inner cycle members; Augment and Backtrack log nothing.
/// So if H' was empty when the log had length k, every H' arc that exists
/// now has an endpoint logged at index >= k. The forest also keeps that k
/// (the empty-H' mark) rather than a driver: a driver cannot tell phases
/// apart by forest address (the phase engine builds each phase's forest in
/// the same place) and a wrapped driver may never see `begin_phase`.
/// `init_phase` resets both.

#include <cstdint>
#include <vector>

#include "core/blossoms.hpp"
#include "core/config.hpp"
#include "graph/graph.hpp"
#include "matching/matching.hpp"

namespace bmf {

struct StructureInfo {
  Vertex alpha = kNoVertex;       ///< the free root vertex
  BlossomId root = kNoBlossom;    ///< Omega(alpha)
  BlossomId working = kNoBlossom; ///< w'_alpha; kNoBlossom means inactive
  bool on_hold = false;
  bool modified = false;
  bool extended = false;
  bool removed = false;
  std::int64_t size = 0;          ///< number of G-vertices
  std::vector<Vertex> members;

  /// The structure may still Overtake in this pass-bundle: live, active, not
  /// on hold, not yet extended. Within Extend-Active-Path this only ever
  /// switches off (only Backtrack hands a working vertex back).
  [[nodiscard]] bool can_extend() const {
    return !removed && !on_hold && !extended && working != kNoBlossom;
  }
};

/// Operation counters, used both for instrumentation and for pass-bundle
/// quiescence detection (a bundle that performs zero operations proves all
/// remaining bundles of the phase are no-ops).
struct OpCounts {
  std::int64_t overtake_unvisited = 0;  ///< Overtake case 1
  std::int64_t overtake_same = 0;       ///< Overtake case 2.1
  std::int64_t overtake_steal = 0;      ///< Overtake case 2.2 (subtree theft)
  std::int64_t contracts = 0;
  std::int64_t augments = 0;
  std::int64_t backtracks = 0;

  [[nodiscard]] std::int64_t total() const {
    return overtake_unvisited + overtake_same + overtake_steal + contracts +
           augments + backtracks;
  }
};

class StructureForest {
 public:
  /// Binds to a graph and the phase-constant matching. Neither is owned; both
  /// must outlive the forest.
  StructureForest(const Graph& g, const Matching& m, const CoreConfig& cfg);

  /// Starts a phase: one structure per free vertex, all labels l_max + 1,
  /// nothing removed (Algorithm 2 lines 1-3).
  void init_phase();

  /// Pass-bundle prologue (Algorithm 2 lines 6-9): recompute on-hold from the
  /// hold limit, clear modified/extended, reset the per-bundle op counter.
  void begin_pass_bundle(std::int64_t hold_limit);

  // ---- basic operations -------------------------------------------------

  /// Structural preconditions of Overtake(g=(u,v), a=(v,mate v), k)
  /// (Section 4.5.3 (P1)-(P3)). Context gating (on-hold / extended) is also
  /// enforced here since Overtake only ever runs inside Extend-Active-Path.
  [[nodiscard]] bool can_overtake(Vertex u, Vertex v, int k) const;
  void overtake(Vertex u, Vertex v, int k);

  /// Structural preconditions of Contract(g=(u,v)) (Section 4.5.2): Omega(u)
  /// is the working vertex of a structure that also contains the outer vertex
  /// Omega(v) != Omega(u). Callers add context gating where required.
  [[nodiscard]] bool can_contract(Vertex u, Vertex v) const;
  void contract(Vertex u, Vertex v);

  /// Structural preconditions of Augment(g=(u,v)) (Section 4.5.1): Omega(u)
  /// and Omega(v) are outer vertices of two different live structures.
  [[nodiscard]] bool can_augment(Vertex u, Vertex v) const;
  void augment(Vertex u, Vertex v);

  /// Backtrack-Stuck-Structures (Section 4.8).
  void backtrack_stuck();

  // ---- vertex/blossom classification ------------------------------------

  [[nodiscard]] BlossomId omega(Vertex v) const { return arena_.omega(v); }
  [[nodiscard]] bool is_removed(Vertex v) const {
    return removed_[static_cast<std::size_t>(v)] != 0;
  }
  [[nodiscard]] StructureId structure_of(Vertex v) const {
    return is_removed(v) ? kNoStructure : vert_struct_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool is_unvisited(Vertex v) const {
    return !is_removed(v) && vert_struct_[static_cast<std::size_t>(v)] == kNoStructure;
  }
  /// v lies in a live structure and its root blossom is outer.
  [[nodiscard]] bool is_outer(Vertex v) const;
  /// v lies in a live structure and its root blossom is inner (hence trivial).
  [[nodiscard]] bool is_inner(Vertex v) const;

  /// Label of the matched arc (v, mate(v)); 0 for free vertices.
  [[nodiscard]] int label(Vertex v) const {
    return lab_[static_cast<std::size_t>(v)];
  }

  /// ell(u') of an outer root blossom: 0 at the structure root, otherwise the
  /// label of the matched arc entering it from its tree parent. This is
  /// distance(u) of Algorithm 3 and the stage index s of Definition 5.8.
  [[nodiscard]] int outer_level(BlossomId b) const;

  // ---- structures --------------------------------------------------------

  [[nodiscard]] StructureId num_structures() const {
    return static_cast<StructureId>(structures_.size());
  }
  [[nodiscard]] const StructureInfo& structure(StructureId s) const {
    return structures_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const BlossomArena& arena() const { return arena_; }
  [[nodiscard]] const Matching& matching() const { return m_; }
  [[nodiscard]] const Graph& graph() const { return g_; }

  /// The root-to-working path of root blossoms (the active path, Def 4.2),
  /// or empty if the structure is inactive.
  [[nodiscard]] std::vector<BlossomId> active_path(StructureId s) const;

  /// True if anc is an ancestor of b in its structure's alternating tree.
  [[nodiscard]] bool is_tree_ancestor(BlossomId anc, BlossomId b) const;

  // ---- phase results and accounting --------------------------------------

  [[nodiscard]] const std::vector<std::vector<Vertex>>& recorded_paths() const {
    return paths_;
  }
  [[nodiscard]] const OpCounts& totals() const { return totals_; }
  [[nodiscard]] std::int64_t ops_this_bundle() const { return bundle_ops_; }
  [[nodiscard]] bool hold_seen() const { return hold_seen_; }

  // ---- change log (see the file comment) ---------------------------------

  /// The vertices logged this phase, in operation order (may repeat).
  [[nodiscard]] const std::vector<Vertex>& change_log() const {
    return change_log_;
  }
  /// change_log().size() when H' was last seen empty, or -1 when unknown
  /// (phase start, or after an augment loop that stopped early).
  [[nodiscard]] std::int64_t empty_structure_graph_mark() const {
    return empty_h_mark_;
  }
  /// Records that H' is empty now.
  void mark_structure_graph_empty() {
    empty_h_mark_ = static_cast<std::int64_t>(change_log_.size());
  }
  /// Forgets the mark: H' may be non-empty.
  void clear_structure_graph_mark() { empty_h_mark_ = -1; }

  /// Heavyweight structural invariant checks (gated by cfg.check_invariants
  /// at call sites; safe to call any time between operations).
  void check_invariants() const;

 private:
  void mark_extended(StructureId s);
  void mark_modified(StructureId s);
  void detach_from_parent(BlossomId b);
  void move_subtree(BlossomId sub_root, StructureId from, StructureId to);
  /// G-vertex path from u back to the structure's free root (u first).
  [[nodiscard]] std::vector<Vertex> path_to_root(Vertex u) const;

  const Graph& g_;
  const Matching& m_;
  const CoreConfig& cfg_;
  int lmax_;

  BlossomArena arena_;
  std::vector<StructureInfo> structures_;
  std::vector<StructureId> vert_struct_;
  std::vector<int> lab_;
  std::vector<std::uint8_t> removed_;
  std::vector<std::vector<Vertex>> paths_;
  std::vector<Vertex> change_log_;
  std::int64_t empty_h_mark_ = -1;

  OpCounts totals_;
  std::int64_t bundle_ops_ = 0;
  bool hold_seen_ = false;
};

}  // namespace bmf
