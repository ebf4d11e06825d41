#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/structures.hpp"
#include "matching/matching.hpp"

namespace bmf {
namespace {

CoreConfig checked_config(double eps = 0.25) {
  CoreConfig cfg;
  cfg.eps = eps;
  cfg.check_invariants = true;
  return cfg;
}

TEST(StructureForest, InitPhaseBuildsOneStructurePerFreeVertex) {
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  Matching m(4);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  ASSERT_EQ(f.num_structures(), 2);  // free vertices 0 and 3
  EXPECT_EQ(f.structure(0).alpha, 0);
  EXPECT_EQ(f.structure(1).alpha, 3);
  EXPECT_TRUE(f.is_outer(0));
  EXPECT_TRUE(f.is_unvisited(1));
  EXPECT_EQ(f.label(1), cfg.ell_max() + 1);
  EXPECT_EQ(f.label(0), 0);
  f.check_invariants();
}

TEST(StructureForest, OvertakeCase1AttachesMatchedArc) {
  // 0 (free) - 1 = 2, with {1,2} matched.
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);

  ASSERT_TRUE(f.can_overtake(0, 1, 1));
  f.overtake(0, 1, 1);
  f.check_invariants();

  EXPECT_EQ(f.structure(0).size, 3);
  EXPECT_EQ(f.label(1), 1);
  EXPECT_TRUE(f.is_inner(1));
  EXPECT_TRUE(f.is_outer(2));
  EXPECT_EQ(f.structure(0).working, f.omega(2));
  EXPECT_EQ(f.outer_level(f.omega(2)), 1);
  EXPECT_TRUE(f.structure(0).extended);
  EXPECT_TRUE(f.structure(0).modified);
  // A second overtake in the same pass-bundle is blocked (extended).
  EXPECT_FALSE(f.can_overtake(2, 1, 1));
}

TEST(StructureForest, OvertakeRejectsBadInputs) {
  const Graph g = make_graph(5, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}});
  Matching m(5);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);

  EXPECT_FALSE(f.can_overtake(0, 3, 1));              // 3 is free (structure root)
  EXPECT_FALSE(f.can_overtake(0, 1, cfg.ell_max() + 1));  // label not smaller
  EXPECT_FALSE(f.can_overtake(1, 0, 1));              // tail not a working vertex
  EXPECT_FALSE(f.can_overtake(0, 1, 0));              // labels start at 1
}

TEST(StructureForest, AugmentLengthOnePath) {
  const Graph g = make_graph(2, std::vector<Edge>{{0, 1}});
  Matching m(2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);

  ASSERT_TRUE(f.can_augment(0, 1));
  f.augment(0, 1);
  ASSERT_EQ(f.recorded_paths().size(), 1u);
  EXPECT_EQ(f.recorded_paths()[0], (std::vector<Vertex>{0, 1}));
  EXPECT_TRUE(f.is_removed(0));
  EXPECT_TRUE(f.is_removed(1));
  EXPECT_TRUE(f.structure(0).removed);
  EXPECT_FALSE(f.can_augment(0, 1));  // both gone
}

TEST(StructureForest, AugmentLongPathThroughStructures) {
  // alpha=0 -u- 1 -m- 2 -u- 3 -m- 4 -u- 5=beta
  const Graph g =
      make_graph(6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(5, 4, 1);  // structure of 5 takes (4,3): arc (5,4), a=(4,3)
  f.check_invariants();

  // Now 2 (outer in S_0) and 3 (outer in S_1) are adjacent.
  ASSERT_TRUE(f.can_augment(2, 3));
  f.augment(2, 3);
  ASSERT_EQ(f.recorded_paths().size(), 1u);
  const auto& p = f.recorded_paths()[0];
  EXPECT_EQ(p, (std::vector<Vertex>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(is_augmenting_path(g, m, p));
}

TEST(StructureForest, ContractBuildsBlossomAndZerosLabels) {
  // Triangle 0-1-2 with {1,2} matched, 0 free; plus tail 1-3, 3 free.
  const Graph g =
      make_graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}, {1, 3}});
  Matching m(4);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  // Working vertex is Omega(2); arc (2,0) connects it to the root: type 1.
  ASSERT_TRUE(f.can_contract(2, 0));
  f.contract(2, 0);
  f.check_invariants();

  const BlossomId b = f.omega(0);
  EXPECT_EQ(b, f.omega(1));
  EXPECT_EQ(b, f.omega(2));
  EXPECT_TRUE(f.arena().node(b).outer);
  EXPECT_EQ(f.arena().base(b), 0);
  EXPECT_EQ(f.structure(0).working, b);
  // Matched arcs inside E_B get label 0.
  EXPECT_EQ(f.label(1), 0);
  EXPECT_EQ(f.label(2), 0);
  // All three vertices are now outer: 1 is reachable for an augment from 3.
  ASSERT_TRUE(f.can_augment(1, 3));
  f.augment(1, 3);
  const auto& p = f.recorded_paths()[0];
  EXPECT_TRUE(is_augmenting_path(g, m, p));
  EXPECT_EQ(p.size(), 4u);  // 0,2,1,3 — through the blossom
}

TEST(StructureForest, BacktrackWalksUpAndDeactivates) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);

  f.begin_pass_bundle(1000);  // resets modified
  f.backtrack_stuck();
  EXPECT_EQ(f.structure(0).working, f.omega(0));  // grandparent = root
  f.begin_pass_bundle(1000);
  f.backtrack_stuck();
  EXPECT_EQ(f.structure(0).working, kNoBlossom);  // root -> inactive
  f.begin_pass_bundle(1000);
  f.backtrack_stuck();  // no-op on inactive structures
  EXPECT_EQ(f.ops_this_bundle(), 0);
}

TEST(StructureForest, BacktrackSkipsModifiedAndOnHold) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);  // marks modified
  f.backtrack_stuck();  // must skip: modified
  EXPECT_EQ(f.structure(0).working, f.omega(2));

  f.begin_pass_bundle(1);  // size 3 >= 1: on hold
  EXPECT_TRUE(f.structure(0).on_hold);
  EXPECT_TRUE(f.hold_seen());
  f.backtrack_stuck();  // must skip: on hold
  EXPECT_EQ(f.structure(0).working, f.omega(2));
}

TEST(StructureForest, OvertakeCase21ReparentsWithinStructure) {
  // Chain 0 -u- 1 -m- 2 -u- 3 -m- 4 -u- 5 -m- 6 and branch 0 -u- 7 -m- 8,
  // with shortcut {8,5}: after the chain backtracks, the branch steals inner 5.
  const Graph g = make_graph(
      9, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                           {0, 7}, {7, 8}, {8, 5}});
  Matching m(9);
  m.add(1, 2);
  m.add(3, 4);
  m.add(5, 6);
  m.add(7, 8);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  f.overtake(4, 5, 3);
  // Backtrack the stuck tip all the way to the root.
  for (int i = 0; i < 3; ++i) {
    f.begin_pass_bundle(1000);
    f.backtrack_stuck();
  }
  ASSERT_EQ(f.structure(0).working, f.omega(0));
  f.begin_pass_bundle(1000);
  f.overtake(0, 7, 1);
  ASSERT_EQ(f.structure(0).working, f.omega(8));

  f.begin_pass_bundle(1000);
  // (8,5): same-structure overtake; 5 is inner with label 3, new label 2.
  ASSERT_TRUE(f.can_overtake(8, 5, 2));
  f.overtake(8, 5, 2);
  f.check_invariants();
  EXPECT_EQ(f.label(5), 2);
  EXPECT_EQ(f.structure(0).working, f.omega(6));
  EXPECT_EQ(f.outer_level(f.omega(6)), 2);
  EXPECT_EQ(f.totals().overtake_same, 1);
  // The active path now runs 0,7,8,5,6.
  const auto path = f.active_path(0);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(f.arena().node(path[1]).vert, 7);
  EXPECT_EQ(f.arena().node(path[3]).vert, 5);
}

TEST(StructureForest, OvertakeCase22StealsSubtreeAndWorkingVertex) {
  // Figure 2 scenario. S_beta (rooted at 10) reaches the matched arc (1,2)
  // through a long route; S_alpha (rooted at 0) steals it with a smaller
  // label, taking the victim's working vertex along.
  const Graph g = make_graph(
      11, std::vector<Edge>{{10, 5}, {5, 6}, {6, 1}, {1, 2}, {0, 1}});
  Matching m(11);
  m.add(5, 6);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s_alpha = f.structure_of(0);
  const StructureId s_beta = f.structure_of(10);

  f.begin_pass_bundle(1000);
  f.overtake(10, 5, 1);
  f.begin_pass_bundle(1000);
  f.overtake(6, 1, 2);
  ASSERT_EQ(f.structure(s_beta).size, 5);
  ASSERT_EQ(f.structure(s_beta).working, f.omega(2));

  f.begin_pass_bundle(1000);
  ASSERT_TRUE(f.can_overtake(0, 1, 1));
  f.overtake(0, 1, 1);
  f.check_invariants();

  EXPECT_EQ(f.totals().overtake_steal, 1);
  EXPECT_EQ(f.structure_of(1), s_alpha);
  EXPECT_EQ(f.structure_of(2), s_alpha);
  EXPECT_EQ(f.structure_of(6), s_beta);
  EXPECT_EQ(f.structure(s_alpha).size, 3);
  EXPECT_EQ(f.structure(s_beta).size, 3);
  EXPECT_EQ(f.label(1), 1);
  // Step 5: the victim's working vertex moved with the subtree, so S_alpha
  // inherits it and S_beta retreats to Omega(p) = Omega(6).
  EXPECT_EQ(f.structure(s_alpha).working, f.omega(2));
  EXPECT_EQ(f.structure(s_beta).working, f.omega(6));
  // Overtaker extended, victim only modified.
  EXPECT_TRUE(f.structure(s_alpha).extended);
  EXPECT_TRUE(f.structure(s_beta).modified);
  EXPECT_FALSE(f.structure(s_beta).extended);
}

TEST(StructureForest, OvertakeCase22VictimWorkingElsewhere) {
  // Variant where the victim's working vertex is NOT under the stolen
  // subtree at steal time (it backtracked above it), so S_alpha's working
  // vertex becomes t' and the victim keeps its own. The overtaker stays
  // level-0 by contracting a triangle blossom, then steals with k = 1.
  const Graph g = make_graph(
      15, std::vector<Edge>{// alpha's triangle + extension + steal edge
                            {0, 11}, {11, 12}, {12, 0}, {12, 13}, {13, 14},
                            {12, 1},
                            // beta's chain
                            {10, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 1}, {1, 2}});
  Matching m(15);
  m.add(11, 12);
  m.add(13, 14);
  m.add(5, 6);
  m.add(7, 8);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  const StructureId s_alpha = f.structure_of(0);
  const StructureId s_beta = f.structure_of(10);

  f.begin_pass_bundle(1000);
  f.overtake(10, 5, 1);
  f.overtake(0, 11, 1);
  f.begin_pass_bundle(1000);
  f.overtake(6, 7, 2);
  ASSERT_TRUE(f.can_contract(12, 0));
  f.contract(12, 0);  // alpha's working is now the root blossom, level 0
  f.begin_pass_bundle(1000);
  f.overtake(8, 1, 3);  // beta reaches (1,2) at label 3
  f.overtake(12, 13, 1);
  f.begin_pass_bundle(1000);
  f.backtrack_stuck();  // beta: Omega(2) -> Omega(8); alpha: Omega(14) -> blossom
  ASSERT_EQ(f.structure(s_beta).working, f.omega(8));
  ASSERT_EQ(f.structure(s_alpha).working, f.omega(0));

  f.begin_pass_bundle(1000);
  ASSERT_TRUE(f.can_overtake(12, 1, 1));
  f.overtake(12, 1, 1);
  f.check_invariants();
  EXPECT_EQ(f.totals().overtake_steal, 1);
  EXPECT_EQ(f.structure_of(1), s_alpha);
  EXPECT_EQ(f.structure_of(2), s_alpha);
  EXPECT_EQ(f.structure(s_alpha).working, f.omega(2));  // t'
  EXPECT_EQ(f.structure(s_beta).working, f.omega(8));   // unchanged
  EXPECT_EQ(f.structure(s_alpha).size, 7);
  EXPECT_EQ(f.structure(s_beta).size, 5);
}

TEST(StructureForest, AncestorOvertakeRejected) {
  const Graph g =
      make_graph(5, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 1}});
  Matching m(5);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  // From working Omega(4), arc (4,1) targets inner ancestor 1: forbidden by
  // (P2) regardless of labels.
  EXPECT_FALSE(f.can_overtake(4, 1, 3));
}

TEST(StructureForest, ContractThenPathThroughNestedBlossom) {
  // Odd cycle of length 5: 0-1-2-3-4-0 with {1,2},{3,4} matched, 0 free,
  // and a free pendant 5 attached to 2.
  const Graph g = make_graph(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {2, 5}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();

  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  // Working is Omega(4); arc (4,0) closes the odd cycle.
  ASSERT_TRUE(f.can_contract(4, 0));
  f.contract(4, 0);
  f.check_invariants();
  const BlossomId b = f.omega(0);
  EXPECT_EQ(f.arena().vertex_count(b), 5);
  EXPECT_EQ(f.structure(0).working, b);

  // 2 is now an outer vertex; augment to the free pendant 5.
  ASSERT_TRUE(f.can_augment(2, 5));
  f.augment(2, 5);
  const auto& p = f.recorded_paths()[0];
  EXPECT_TRUE(is_augmenting_path(g, m, p));
  EXPECT_EQ(p.front(), 0);
  EXPECT_EQ(p.back(), 5);
}

TEST(StructureForest, OpsCountersTrackOperations) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  EXPECT_EQ(f.ops_this_bundle(), 0);
  f.overtake(0, 1, 1);
  EXPECT_EQ(f.ops_this_bundle(), 1);
  f.begin_pass_bundle(1000);
  EXPECT_EQ(f.ops_this_bundle(), 0);
  EXPECT_EQ(f.totals().overtake_unvisited, 1);
}

// ---- change log (the H' frontier gate's input) ---------------------------

/// The log entries appended since `from`, sorted.
std::vector<Vertex> logged_since(const StructureForest& f, std::size_t from) {
  const std::vector<Vertex>& log = f.change_log();
  std::vector<Vertex> out(log.begin() + static_cast<std::ptrdiff_t>(from),
                          log.end());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(StructureForestChangeLog, OvertakeCase1LogsTheNewOuterVertex) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  EXPECT_TRUE(f.change_log().empty());
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  EXPECT_EQ(f.change_log(), (std::vector<Vertex>{2}));  // t, not inner v
}

TEST(StructureForestChangeLog, OvertakeCase21LogsNothing) {
  // Same graph as OvertakeCase21ReparentsWithinStructure: the re-parented
  // subtree keeps its structure and its outer/inner status.
  const Graph g = make_graph(
      9, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6},
                           {0, 7}, {7, 8}, {8, 5}});
  Matching m(9);
  m.add(1, 2);
  m.add(3, 4);
  m.add(5, 6);
  m.add(7, 8);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  f.begin_pass_bundle(1000);
  f.overtake(4, 5, 3);
  for (int i = 0; i < 3; ++i) {
    f.begin_pass_bundle(1000);
    f.backtrack_stuck();
  }
  f.begin_pass_bundle(1000);
  f.overtake(0, 7, 1);
  EXPECT_EQ(f.change_log(), (std::vector<Vertex>{2, 4, 6, 8}));
  f.begin_pass_bundle(1000);
  f.overtake(8, 5, 2);
  ASSERT_EQ(f.totals().overtake_same, 1);
  EXPECT_EQ(f.change_log().size(), 4u);
}

TEST(StructureForestChangeLog, StealLogsTheMovedVertices) {
  // The Figure 2 steal of OvertakeCase22StealsSubtreeAndWorkingVertex: the
  // subtree {1, 2} moves from S_beta to S_alpha.
  const Graph g = make_graph(
      11, std::vector<Edge>{{10, 5}, {5, 6}, {6, 1}, {1, 2}, {0, 1}});
  Matching m(11);
  m.add(5, 6);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(10, 5, 1);
  f.begin_pass_bundle(1000);
  f.overtake(6, 1, 2);
  EXPECT_EQ(f.change_log(), (std::vector<Vertex>{6, 2}));
  const std::size_t before = f.change_log().size();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  ASSERT_EQ(f.totals().overtake_steal, 1);
  EXPECT_EQ(logged_since(f, before), (std::vector<Vertex>{1, 2}));
}

TEST(StructureForestChangeLog, ContractLogsTheAbsorbedInnerVertices) {
  // The 5-cycle of ContractThenPathThroughNestedBlossom: contracting it turns
  // inner 1 and 3 outer; 0, 2 and 4 were outer already.
  const Graph g = make_graph(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {2, 5}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  f.begin_pass_bundle(1000);
  f.overtake(2, 3, 2);
  const std::size_t before = f.change_log().size();
  f.begin_pass_bundle(1000);
  f.contract(4, 0);
  EXPECT_EQ(logged_since(f, before), (std::vector<Vertex>{1, 3}));
}

TEST(StructureForestChangeLog, AugmentBacktrackAndBundleStartLogNothing) {
  const Graph g = make_graph(
      7, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  Matching m(7);
  m.add(1, 2);
  m.add(4, 5);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);  // logs 2
  const std::size_t before = f.change_log().size();
  f.begin_pass_bundle(1000);
  f.backtrack_stuck();
  f.begin_pass_bundle(1);  // puts the size-3 structure on hold
  ASSERT_TRUE(f.can_augment(2, 3));
  f.augment(2, 3);
  f.backtrack_stuck();
  ASSERT_EQ(f.totals().augments, 1);
  ASSERT_GE(f.totals().backtracks, 1);
  EXPECT_EQ(f.change_log().size(), before);
}

TEST(StructureForestChangeLog, MarkTracksTheLogAndInitPhaseClearsBoth) {
  const Graph g = make_graph(3, std::vector<Edge>{{0, 1}, {1, 2}});
  Matching m(3);
  m.add(1, 2);
  const CoreConfig cfg = checked_config();
  StructureForest f(g, m, cfg);
  f.init_phase();
  EXPECT_EQ(f.empty_structure_graph_mark(), -1);
  f.mark_structure_graph_empty();
  EXPECT_EQ(f.empty_structure_graph_mark(), 0);
  f.begin_pass_bundle(1000);
  f.overtake(0, 1, 1);
  EXPECT_EQ(f.empty_structure_graph_mark(), 0);  // the mark stays put
  f.mark_structure_graph_empty();
  EXPECT_EQ(f.empty_structure_graph_mark(), 1);
  f.clear_structure_graph_mark();
  EXPECT_EQ(f.empty_structure_graph_mark(), -1);
  f.mark_structure_graph_empty();
  f.init_phase();
  EXPECT_TRUE(f.change_log().empty());
  EXPECT_EQ(f.empty_structure_graph_mark(), -1);
}

}  // namespace
}  // namespace bmf
