/// The H' frontier gate of FrameworkDriver::run_augment_loop
/// (core/framework.hpp): the augment loop proves the structure graph H'
/// empty from the vertices the forest logged since H' was last empty, and
/// runs the full sweep only when that proof fails.
///
///  * FrontierGate.MatchesUngatedDriver — randomized differential: every
///    case runs twice, once as is and once through a wrapper that forgets
///    the forest's empty-H' mark before each Contract-and-Augment (so every
///    augment loop starts with a full sweep, the driver before the gate).
///    The oracle must see the same derived-graph stream and the runs must
///    agree on matching, iteration counts and outcome. Every run has
///    `check_invariants` on, which makes the driver cross-check each
///    "proved empty" verdict against a full sweep.
///  * FrontierGate.WeakFallbackOnChurnSnapshots — the same cross-check
///    through WeakOracleDriver's exhaustive fallback (the Theorem 6.2
///    rebuild path), bit-identical at 1 and 4 forced threads.
///  * FrontierGate.{OvertakeCase1,Steal,Contract}OpensAnArc — one
///    hand-built forest per logged operation in which that operation alone
///    creates an H' arc after the mark was set: the gate must let the full
///    sweep find it.
///  * FrontierGate.FullSweepsAreBoundedByOracleCalls — the counter
///    `augment_sweeps` pinned against the bound the gate guarantees.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "core/oracle.hpp"
#include "core/phase.hpp"
#include "dynamic/static_weak.hpp"
#include "dynamic/weak_oracle.hpp"
#include "graph/dyn_graph.hpp"
#include "recording_oracle.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/dyn_workload.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

/// The driver without the gate: forgetting the mark before every
/// Contract-and-Augment makes each augment loop open with a full sweep.
class UngatedDriver final : public PassBundleDriver {
 public:
  explicit UngatedDriver(FrameworkDriver& inner) : inner_(inner) {}
  void extend_active_path(StructureForest& forest) override {
    inner_.extend_active_path(forest);
  }
  void contract_and_augment(StructureForest& forest) override {
    forest.clear_structure_graph_mark();
    inner_.contract_and_augment(forest);
  }
  [[nodiscard]] bool exhaustive() const override { return inner_.exhaustive(); }

 private:
  FrameworkDriver& inner_;
};

struct BoostRun {
  std::uint64_t stream = 0;
  std::int64_t calls = 0;
  std::vector<Vertex> mates;
  FrameworkStats stats;
  BoostOutcome outcome;
};

struct RunSetup {
  double eps = 0.25;
  bool stage_split = true;
  IterationMode mode = IterationMode::kUntilEmpty;
  int threads = 1;
  bool force_parallel = false;
};

std::string describe(const RunSetup& s) {
  return "eps=" + std::to_string(s.eps) + " split=" + std::to_string(s.stage_split) +
         " paper=" + std::to_string(s.mode == IterationMode::kPaperBound) +
         " threads=" + std::to_string(s.threads) +
         " forced=" + std::to_string(s.force_parallel);
}

/// Theorem 1.1 end to end (Lemma 5.3 initial matching, then the phase
/// engine), with or without the gate.
BoostRun run_boost(const Graph& g, std::uint64_t seed, const RunSetup& s, bool gated) {
  std::unique_ptr<ForceParallelSmallWork> force_scope;
  if (s.force_parallel) force_scope = std::make_unique<ForceParallelSmallWork>();
  RandomGreedyMatchingOracle inner(seed);
  RecordingOracle oracle(inner);
  CoreConfig cfg;
  cfg.eps = s.eps;
  cfg.seed = seed;
  cfg.threads = s.threads;
  cfg.stage_split = s.stage_split;
  cfg.iteration_mode = s.mode;
  cfg.check_invariants = true;

  Matching m = framework_initial_matching(g, oracle, cfg);
  FrameworkDriver driver(g, oracle, cfg);
  UngatedDriver ungated(driver);
  PassBundleDriver& run_with = gated ? static_cast<PassBundleDriver&>(driver)
                                     : static_cast<PassBundleDriver&>(ungated);
  BoostRun out;
  out.outcome = PhaseEngine(g, cfg).run(m, run_with);
  out.stats = driver.stats();
  out.stream = oracle.digest();
  out.calls = oracle.calls();
  for (Vertex v = 0; v < g.num_vertices(); ++v) out.mates.push_back(m.mate(v));
  return out;
}

/// Snapshots of a dyn_churn_planted stream at evenly spaced checkpoints.
std::vector<Graph> churn_snapshots(Vertex n, std::int64_t count, int checkpoints,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<EdgeUpdate> updates = dyn_churn_planted(n, count, rng);
  DynGraph dg(n);
  std::vector<Graph> out;
  const std::size_t step = updates.size() / static_cast<std::size_t>(checkpoints);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const EdgeUpdate& up = updates[i];
    if (up.insert)
      dg.insert(up.u, up.v);
    else
      dg.erase(up.u, up.v);
    if (step > 0 && (i + 1) % step == 0) out.push_back(dg.snapshot());
  }
  return out;
}

struct GraphCase {
  std::string name;
  Graph g;
  std::uint64_t seed;
};

std::vector<GraphCase> graph_cases() {
  std::vector<GraphCase> out;
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    out.push_back({"bip-" + std::to_string(seed),
                   gen_random_bipartite(140, 140, 420, rng), seed});
    Rng rng2(seed + 100);
    out.push_back({"gen-" + std::to_string(seed),
                   gen_random_graph(160, 420, rng2), seed});
  }
  out.push_back({"odd-cycles-12x7", gen_odd_cycles(12, 7), 7});
  out.push_back({"odd-cycles-20x5", gen_odd_cycles(20, 5), 8});
  out.push_back({"clique-pair-8", gen_clique_pair(8), 9});
  int k = 0;
  for (Graph& g : churn_snapshots(200, 900, 3, 51))
    out.push_back({"churn-" + std::to_string(k++), std::move(g), 51});
  return out;
}

std::vector<RunSetup> run_setups() {
  std::vector<RunSetup> out;
  for (const bool split : {true, false}) {
    out.push_back({0.25, split, IterationMode::kUntilEmpty, 1, false});
    out.push_back({0.25, split, IterationMode::kUntilEmpty, 4, true});
  }
  out.push_back({0.5, true, IterationMode::kPaperBound, 1, false});
  out.push_back({0.5, true, IterationMode::kPaperBound, 4, true});
  return out;
}

/// One hand-built phase on `g` with `m` matched: the augment loop runs once
/// to set the empty-H' mark, `open_arc` then performs the operations that
/// create exactly one H' arc, and the next augment loop must find it (the
/// gate must not prove H' empty). check_invariants stays off so a wrong
/// verdict shows as a missing Augment rather than the driver's own
/// cross-check.
std::int64_t augments_after(const Graph& g, const Matching& m,
                            const std::function<void(StructureForest&)>& build,
                            const std::function<void(StructureForest&)>& open_arc) {
  CoreConfig cfg;
  cfg.eps = 0.25;
  GreedyMatchingOracle oracle;
  FrameworkDriver driver(g, oracle, cfg);
  StructureForest f(g, m, cfg);
  f.init_phase();
  f.begin_pass_bundle(1000);
  build(f);
  driver.run_augment_loop(f);
  EXPECT_EQ(f.totals().augments, 0);
  EXPECT_EQ(f.empty_structure_graph_mark(),
            static_cast<std::int64_t>(f.change_log().size()));
  f.begin_pass_bundle(1000);
  open_arc(f);
  driver.run_augment_loop(f);
  f.check_invariants();
  return f.totals().augments;
}

TEST(FrontierGate, OvertakeCase1OpensAnArc) {
  // 0 -u- 1 =m= 2 -u- 3: t = 2 joins S_0 outer, next to the free root 3.
  const Graph g = make_graph(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  Matching m(4);
  m.add(1, 2);
  EXPECT_EQ(augments_after(
                g, m, [](StructureForest&) {},
                [](StructureForest& f) { f.overtake(0, 1, 1); }),
            1);
}

TEST(FrontierGate, StealOpensAnArc) {
  // The Figure 2 steal plus the edge {2, 6}: inside S_10 the outer vertices
  // 2 and 6 are one structure; the steal moves 2 to S_0, which makes {2, 6}
  // an H' arc although neither endpoint changed its outer status.
  const Graph g = make_graph(
      11, std::vector<Edge>{{10, 5}, {5, 6}, {6, 1}, {1, 2}, {0, 1}, {2, 6}});
  Matching m(11);
  m.add(5, 6);
  m.add(1, 2);
  EXPECT_EQ(augments_after(
                g, m,
                [](StructureForest& f) {
                  f.overtake(10, 5, 1);
                  f.begin_pass_bundle(1000);
                  f.overtake(6, 1, 2);
                },
                [](StructureForest& f) { f.overtake(0, 1, 1); }),
            1);
}

TEST(FrontierGate, ContractOpensAnArc) {
  // The 5-cycle 0..4 with {1,2}, {3,4} matched, plus the free vertex 5 next
  // to 1: contracting the cycle turns inner 1 outer, next to the root 5.
  const Graph g = make_graph(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 1}});
  Matching m(6);
  m.add(1, 2);
  m.add(3, 4);
  EXPECT_EQ(augments_after(
                g, m,
                [](StructureForest& f) {
                  f.overtake(0, 1, 1);
                  f.begin_pass_bundle(1000);
                  f.overtake(2, 3, 2);
                },
                [](StructureForest& f) { f.contract(4, 0); }),
            1);
}

TEST(FrontierGate, MatchesUngatedDriver) {
  std::int64_t gated_sweeps = 0;
  std::int64_t ungated_sweeps = 0;
  for (const GraphCase& c : graph_cases()) {
    for (const RunSetup& s : run_setups()) {
      const BoostRun want = run_boost(c.g, c.seed, s, /*gated=*/false);
      const BoostRun got = run_boost(c.g, c.seed, s, /*gated=*/true);
      const std::string where = c.name + " " + describe(s);
      EXPECT_EQ(got.stream, want.stream) << where;
      EXPECT_EQ(got.calls, want.calls) << where;
      EXPECT_EQ(got.mates, want.mates) << where;
      EXPECT_EQ(got.stats.stage_loops, want.stats.stage_loops) << where;
      EXPECT_EQ(got.stats.stage_iterations, want.stats.stage_iterations) << where;
      EXPECT_EQ(got.stats.ca_iterations, want.stats.ca_iterations) << where;
      EXPECT_EQ(got.stats.truncated_loops, want.stats.truncated_loops) << where;
      EXPECT_EQ(got.outcome.phases, want.outcome.phases) << where;
      EXPECT_EQ(got.outcome.pass_bundles, want.outcome.pass_bundles) << where;
      EXPECT_EQ(got.outcome.ops.total(), want.outcome.ops.total()) << where;
      EXPECT_EQ(got.outcome.certified, want.outcome.certified) << where;
      EXPECT_LE(got.stats.augment_sweeps, want.stats.augment_sweeps) << where;
      gated_sweeps += got.stats.augment_sweeps;
      ungated_sweeps += want.stats.augment_sweeps;
    }
  }
  // The gate must actually fire on these inputs, or the comparison above
  // tests nothing.
  EXPECT_LT(gated_sweeps, ungated_sweeps);
}

TEST(FrontierGate, WeakFallbackOnChurnSnapshots) {
  // WeakOracleDriver's exhaustive fallback runs the gated augment loop after
  // the sampled Augments; check_invariants cross-checks every verdict, and
  // the forced 4-thread run must match the 1-thread run.
  std::vector<Graph> graphs = churn_snapshots(160, 700, 2, 61);
  Rng rng(62);
  graphs.push_back(gen_random_graph(120, 360, rng));
  for (const Graph& g : graphs) {
    std::vector<std::vector<Vertex>> mates;
    std::vector<std::int64_t> calls;
    for (const int threads : {1, 4}) {
      std::unique_ptr<ForceParallelSmallWork> force_scope;
      if (threads > 1) force_scope = std::make_unique<ForceParallelSmallWork>();
      MatrixWeakOracle oracle = MatrixWeakOracle::from_graph(g);
      WeakSimConfig cfg;
      cfg.core.eps = 0.25;
      cfg.core.seed = 61;
      cfg.core.threads = threads;
      cfg.core.check_invariants = true;
      const WeakBoostResult r =
          static_weak_boost(g, Matching(g.num_vertices()), oracle, cfg);
      EXPECT_TRUE(r.outcome.certified);
      std::vector<Vertex> m;
      for (Vertex v = 0; v < g.num_vertices(); ++v) m.push_back(r.matching.mate(v));
      mates.push_back(std::move(m));
      calls.push_back(r.weak_calls);
    }
    EXPECT_EQ(mates[0], mates[1]);
    EXPECT_EQ(calls[0], calls[1]);
  }
}

TEST(FrontierGate, FullSweepsAreBoundedByOracleCalls) {
  // Every full sweep either precedes an oracle call or ends a loop with H'
  // empty. A loop that ends that way after a full opening sweep either made
  // an oracle call (the gate found an arc, so H' was not empty) or opened
  // without a mark: at a phase start or after a truncated loop.
  Rng rng(1);
  const Graph g = gen_random_bipartite(1000, 1000, 3000, rng);
  RandomGreedyMatchingOracle oracle(1);
  CoreConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = 1;
  const BoostResult r = boost_matching(g, oracle, cfg);
  EXPECT_GT(r.stats.augment_sweeps, 0);
  EXPECT_LE(r.stats.augment_sweeps, 2 * r.stats.ca_iterations +
                                        r.outcome.phases +
                                        r.stats.truncated_loops);
  // One augment loop per pass-bundle; most of them never sweep.
  EXPECT_LT(r.stats.augment_sweeps, r.outcome.pass_bundles);
}

}  // namespace
}  // namespace bmf
