/// Regression suite for the derived-graph sweeps of the boosting drivers
/// (FrameworkDriver, WeakOracleDriver):
///
///  * SweepDigest — a recording A_matching decorator hashes every derived
///    graph H' / H'_s the driver hands its oracle (`n` plus the edge sequence)
///    and every answer; a recording A_weak decorator does the same for the
///    sampled query sets of Theorem 6.2. The digests of fixed-seed runs are
///    pinned byte-exactly in tests/golden/sweep_digests.txt and must hold at
///    1 and 4 threads, with the size gates forced open, and through a
///    3-participant RebuildParticipation (whose coordinator ledger is pinned
///    too). A change to sweep internals that alters the oracle's input — vertex
///    numbering, edge order, witness choice — fails here even if the final
///    matching happens to survive. Regenerate with BMF_UPDATE_GOLDEN=1.
///  * SweepOutOfContract — an oracle whose answers carry non-edges,
///    right-right pairs, out-of-range ids and duplicates: the answer lookup
///    must skip every one of them (same matching, same truncated loops as
///    the clean oracle) without touching memory out of bounds.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "core/oracle.hpp"
#include "core/phase.hpp"
#include "dynamic/sharded_matcher.hpp"
#include "dynamic/static_weak.hpp"
#include "dynamic/weak_oracle.hpp"
#include "recording_oracle.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/gen.hpp"

namespace bmf {
namespace {

/// Test-only A_weak decorator: hashes every sampled query set (G[S] and the
/// double cover) and every answer.
class RecordingWeakOracle final : public WeakOracle {
 public:
  explicit RecordingWeakOracle(WeakOracle& inner) : inner_(inner) {}
  [[nodiscard]] double lambda() const override { return inner_.lambda(); }
  void on_insert(Vertex u, Vertex v) override { inner_.on_insert(u, v); }
  void on_erase(Vertex u, Vertex v) override { inner_.on_erase(u, v); }
  [[nodiscard]] std::uint64_t digest() const { return digest_.h; }

 protected:
  WeakQueryResult query_impl(std::span<const Vertex> s, double delta) override {
    digest_.mix(1);
    mix_set(s);
    return record(inner_.query(s, delta));
  }
  WeakQueryResult query_cover_impl(std::span<const Vertex> s_plus,
                                   std::span<const Vertex> s_minus,
                                   double delta) override {
    digest_.mix(2);
    mix_set(s_plus);
    mix_set(s_minus);
    return record(inner_.query_cover(s_plus, s_minus, delta));
  }

 private:
  void mix_set(std::span<const Vertex> s) {
    digest_.mix(s.size());
    for (const Vertex v : s) digest_.mix_signed(v);
  }
  WeakQueryResult record(WeakQueryResult res) {
    digest_.mix(res.bottom ? 1 : 0);
    digest_.mix(res.matching.size());
    for (const Edge& e : res.matching) {
      digest_.mix_signed(e.u);
      digest_.mix_signed(e.v);
    }
    return res;
  }

  WeakOracle& inner_;
  Digest digest_;
};

/// Out-of-contract A_matching decorator. Around every pair of the inner
/// answer it inserts pairs that are not edges of h — left-left / right-right
/// pairs, ids outside [0, h.n), self pairs — and repeats the pair itself in
/// both orientations. With `keep_answer` false only the garbage is returned.
/// The out-of-range ids are negative, h.n itself, or the int32 extremes.
class GarbageOracle final : public MatchingOracle {
 public:
  GarbageOracle(MatchingOracle& inner, bool keep_answer)
      : inner_(inner), keep_answer_(keep_answer) {}
  [[nodiscard]] double approx_factor() const override {
    return inner_.approx_factor();
  }

 protected:
  OracleMatching find_impl(const OracleGraph& h) override {
    const OracleMatching found = inner_.find_matching(h);
    const auto is_edge = [&](std::int32_t a, std::int32_t b) {
      for (const auto& [x, y] : h.edges)
        if ((x == a && y == b) || (x == b && y == a)) return true;
      return false;
    };
    constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
    constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    const std::int32_t n = h.n;
    const std::vector<std::pair<std::int32_t, std::int32_t>> candidates{
        {n - 1, n - 2},  // the two highest ids: right-right in a stage graph
        {0, 1},          // the two lowest: left-left in a stage graph
        {n - 1, n - 1},  // a self pair
        {-1, 0},         // out of range from here on
        {0, n},
        {n, n},
        {-5, -7},
        {kMax, 0},
        {kMin, n - 1},
        {n - 1, kMax},
    };
    OracleMatching garbage;
    for (const auto& [a, b] : candidates)
      if (!is_edge(a, b)) garbage.emplace_back(a, b);

    OracleMatching out;
    std::size_t next = 0;
    const auto junk = [&] {
      if (garbage.empty()) return;
      out.push_back(garbage[next % garbage.size()]);
      ++next;
    };
    if (!keep_answer_) {
      out = garbage;
      return out;
    }
    junk();
    for (const auto& [a, b] : found) {
      junk();
      out.emplace_back(a, b);
      junk();
      out.emplace_back(b, a);  // duplicate, reversed
      out.emplace_back(a, b);  // duplicate
    }
    junk();
    return out;
  }

 private:
  MatchingOracle& inner_;
  bool keep_answer_;
};

// ---------------------------------------------------------------------------
// Golden digest of the derived-graph stream.
// ---------------------------------------------------------------------------

std::uint64_t mates_digest(const Matching& m) {
  Digest d;
  for (Vertex v = 0; v < m.num_vertices(); ++v) d.mix_signed(m.mate(v));
  return d.h;
}

/// How one run of a case is driven.
struct Variant {
  const char* name;
  int threads;
  bool force_parallel;
  int participants;  ///< 0 = no participation object (the default path)
};

constexpr Variant kVariants[] = {
    {"t1", 1, false, 0},
    {"t4", 4, false, 0},
    {"t4-forced", 4, true, 0},
    {"p3-t1", 1, false, 3},
    {"p3-t4-forced", 4, true, 3},
};

/// One run's record: the golden line (identical for every variant) and the
/// coordinator ledger of a 3-participant run (empty otherwise).
struct Record {
  std::string line;
  std::string ledger;
};

std::string ledger_line(const char* name,
                        const ShardedRebuildParticipation& participation) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s ledger rounds=%lld bytes=%lld", name,
                static_cast<long long>(participation.rounds()),
                static_cast<long long>(participation.bytes()));
  return buf;
}

struct BoostCase {
  const char* name;
  std::function<Graph()> graph;
  std::uint64_t oracle_seed;
  double eps;
  bool stage_split;
  IterationMode mode;
};

/// Theorem 1.1 end to end. Without participation this is `boost_matching`
/// itself; with one it is the same pipeline (Lemma 5.3 initial matching,
/// then the phase engine) with the driver built around the participation.
Record run_boost_case(const BoostCase& c, const Variant& v) {
  const Graph g = c.graph();
  std::unique_ptr<ForceParallelSmallWork> force_scope;
  if (v.force_parallel) force_scope = std::make_unique<ForceParallelSmallWork>();
  RandomGreedyMatchingOracle inner(c.oracle_seed);
  RecordingOracle oracle(inner);
  CoreConfig cfg;
  cfg.eps = c.eps;
  cfg.seed = c.oracle_seed;
  cfg.threads = v.threads;
  cfg.stage_split = c.stage_split;
  cfg.iteration_mode = c.mode;

  Matching m(g.num_vertices());
  FrameworkStats stats;
  BoostOutcome outcome;
  Record rec;
  if (v.participants == 0) {
    BoostResult r = boost_matching(g, oracle, cfg);
    m = std::move(r.matching);
    stats = r.stats;
    outcome = r.outcome;
  } else {
    const VertexPartition part(g.num_vertices(), v.participants);
    ShardedRebuildParticipation participation(part);
    m = framework_initial_matching(g, oracle, cfg);
    FrameworkDriver driver(g, oracle, cfg, &participation);
    outcome = PhaseEngine(g, cfg).run(m, driver);
    stats = driver.stats();
    rec.ledger = ledger_line(c.name, participation);
  }
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s stream=%016llx calls=%lld mates=%016llx size=%lld stage_it=%lld "
      "ca_it=%lld stage_loops=%lld truncated=%lld paths=%lld certified=%d",
      c.name, static_cast<unsigned long long>(oracle.digest()),
      static_cast<long long>(oracle.calls()),
      static_cast<unsigned long long>(mates_digest(m)),
      static_cast<long long>(m.size()),
      static_cast<long long>(stats.stage_iterations),
      static_cast<long long>(stats.ca_iterations),
      static_cast<long long>(stats.stage_loops),
      static_cast<long long>(stats.truncated_loops),
      static_cast<long long>(outcome.augmenting_paths),
      outcome.certified ? 1 : 0);
  rec.line = buf;
  return rec;
}

struct WeakCase {
  const char* name;
  std::function<Graph()> graph;
  std::uint64_t seed;
  double eps;
};

/// Theorem 6.2 via `static_weak_boost` from the empty matching.
Record run_weak_case(const WeakCase& c, const Variant& v) {
  const Graph g = c.graph();
  std::unique_ptr<ForceParallelSmallWork> force_scope;
  if (v.force_parallel) force_scope = std::make_unique<ForceParallelSmallWork>();
  MatrixWeakOracle inner = MatrixWeakOracle::from_graph(g);
  RecordingWeakOracle oracle(inner);
  WeakSimConfig cfg;
  cfg.core.eps = c.eps;
  cfg.core.seed = c.seed;
  cfg.core.threads = v.threads;

  Record rec;
  WeakBoostResult r;
  if (v.participants == 0) {
    r = static_weak_boost(g, Matching(g.num_vertices()), oracle, cfg);
  } else {
    const VertexPartition part(g.num_vertices(), v.participants);
    ShardedRebuildParticipation participation(part);
    r = static_weak_boost(g, Matching(g.num_vertices()), oracle, cfg,
                          &participation);
    rec.ledger = ledger_line(c.name, participation);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s queries=%016llx weak_calls=%lld sampled=%lld mates=%016llx "
                "size=%lld paths=%lld certified=%d",
                c.name, static_cast<unsigned long long>(oracle.digest()),
                static_cast<long long>(r.weak_calls),
                static_cast<long long>(r.sampled_iterations),
                static_cast<unsigned long long>(mates_digest(r.matching)),
                static_cast<long long>(r.matching.size()),
                static_cast<long long>(r.outcome.augmenting_paths),
                r.outcome.certified ? 1 : 0);
  rec.line = buf;
  return rec;
}

Graph bipartite(Vertex side, std::int64_t m, std::uint64_t seed) {
  Rng rng(seed);
  return gen_random_bipartite(side, side, m, rng);
}

Graph general(Vertex n, std::int64_t m, std::uint64_t seed) {
  Rng rng(seed);
  return gen_random_graph(n, m, rng);
}

std::vector<BoostCase> boost_cases() {
  const IterationMode until = IterationMode::kUntilEmpty;
  const IterationMode paper = IterationMode::kPaperBound;
  return {
      {"bip-120-s1", [] { return bipartite(120, 360, 1); }, 1, 0.25, true, until},
      {"bip-200-s5", [] { return bipartite(200, 600, 5); }, 5, 0.25, true, until},
      {"bip-120-s1-nosplit", [] { return bipartite(120, 360, 1); }, 1, 0.25,
       false, until},
      {"gen-150-s3", [] { return general(150, 400, 3); }, 3, 0.25, true, until},
      {"gen-150-s3-nosplit", [] { return general(150, 400, 3); }, 3, 0.25,
       false, until},
      {"odd-cycles-15x7", [] { return gen_odd_cycles(15, 7); }, 2, 0.25, true,
       until},
      {"clique-pair-9", [] { return gen_clique_pair(9); }, 4, 0.25, true, until},
      {"near-regular-240-d3",
       [] {
         Rng rng(6);
         return gen_near_regular(240, 3, rng);
       },
       6, 0.2, true, until},
      {"gen-300-s4", [] { return general(300, 700, 4); }, 4, 0.2, true, until},
      {"gen-120-s8-paper", [] { return general(120, 330, 8); }, 8, 0.5, true,
       paper},
      {"bip-120-s9-paper", [] { return bipartite(120, 360, 9); }, 9, 0.5, true,
       paper},
  };
}

std::vector<WeakCase> weak_cases() {
  return {
      {"weak-gen-100-s11", [] { return general(100, 300, 11); }, 11, 0.5},
      {"weak-bip-90-s13", [] { return bipartite(90, 270, 13); }, 13, 0.25},
      {"weak-clique-pair-7", [] { return gen_clique_pair(7); }, 17, 0.5},
  };
}

std::string golden_path() {
  return std::string(BMF_TEST_DATA_DIR) + "/golden/sweep_digests.txt";
}

TEST(SweepDigest, DerivedGraphStreamMatchesGolden) {
  // Every variant of a case must print the same line; the 3-participant
  // variants must also agree on the coordinator ledger.
  std::vector<std::string> lines;
  const auto collect = [&](const char* name, auto&& run) {
    const Record want = run(kVariants[0]);
    std::string ledger;
    for (const Variant& v : kVariants) {
      const Record got = run(v);
      EXPECT_EQ(got.line, want.line) << name << " variant=" << v.name;
      if (v.participants == 0) continue;
      if (ledger.empty()) ledger = got.ledger;
      EXPECT_EQ(got.ledger, ledger) << name << " variant=" << v.name;
    }
    lines.push_back(want.line);
    lines.push_back(ledger);
  };
  for (const BoostCase& c : boost_cases())
    collect(c.name, [&](const Variant& v) { return run_boost_case(c, v); });
  for (const WeakCase& c : weak_cases())
    collect(c.name, [&](const Variant& v) { return run_weak_case(c, v); });

  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read-only env probe; regeneration
  // mode is a single-threaded dev invocation.
  if (std::getenv("BMF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << golden_path();
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.is_open())
      << "missing " << golden_path()
      << " — regenerate with BMF_UPDATE_GOLDEN=1 ./bmf_tests "
         "--gtest_filter='SweepDigest.*'";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) want.push_back(line);
  ASSERT_EQ(want.size(), lines.size()) << "golden file is stale";
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], want[i])
        << "derived-graph stream drifted — the oracle no longer sees the same "
           "H' / H'_s; if intentional, regenerate with BMF_UPDATE_GOLDEN=1 "
           "and justify the diff";
}

// ---------------------------------------------------------------------------
// Out-of-contract oracle answers.
// ---------------------------------------------------------------------------

struct DriverRun {
  std::vector<Vertex> mates;
  FrameworkStats stats;
  std::int64_t driver_calls = 0;
  bool certified = false;
};

/// Lemma 5.3 initial matching with the clean oracle, then the phase engine
/// with `decorate` (if any) wrapped around that oracle for the driver only.
DriverRun run_driver(const Graph& g, std::uint64_t seed, bool stage_split,
                     int threads, int participants,
                     const std::function<std::unique_ptr<MatchingOracle>(
                         MatchingOracle&)>& decorate) {
  RandomGreedyMatchingOracle inner(seed);
  CoreConfig cfg;
  cfg.eps = 0.25;
  cfg.threads = threads;
  cfg.stage_split = stage_split;
  Matching m = framework_initial_matching(g, inner, cfg);
  std::unique_ptr<MatchingOracle> wrapped;
  MatchingOracle* oracle = &inner;
  if (decorate) {
    wrapped = decorate(inner);
    oracle = wrapped.get();
  }
  std::unique_ptr<VertexPartition> part;
  std::unique_ptr<ShardedRebuildParticipation> participation;
  if (participants > 0) {
    part = std::make_unique<VertexPartition>(g.num_vertices(), participants);
    participation = std::make_unique<ShardedRebuildParticipation>(*part);
  }
  const std::int64_t calls_before = oracle->calls();
  FrameworkDriver driver(g, *oracle, cfg, participation.get());
  const BoostOutcome outcome = PhaseEngine(g, cfg).run(m, driver);
  DriverRun out;
  for (Vertex v = 0; v < g.num_vertices(); ++v) out.mates.push_back(m.mate(v));
  out.stats = driver.stats();
  out.driver_calls = oracle->calls() - calls_before;
  out.certified = outcome.certified;
  return out;
}

std::vector<Graph> contract_graphs() {
  return {bipartite(80, 240, 21), general(90, 260, 22), gen_clique_pair(6),
          gen_odd_cycles(8, 5)};
}

TEST(SweepOutOfContract, GarbagePairsAreSkipped) {
  // Interleaving garbage with the real answer changes nothing: every
  // non-edge, out-of-range id and duplicate is skipped by the answer lookup
  // (a duplicate of an applied pair fails the operation's re-validation), so
  // the run equals the clean run — matching, iteration counts, truncation.
  const ForceParallelSmallWork force;
  const auto garbage = [](MatchingOracle& inner) {
    return std::make_unique<GarbageOracle>(inner, /*keep_answer=*/true);
  };
  for (const Graph& g : contract_graphs()) {
    for (const bool split : {true, false}) {
      const DriverRun clean = run_driver(g, 31, split, 1, 0, nullptr);
      for (const int threads : {1, 4}) {
        for (const int participants : {0, 3}) {
          const DriverRun got =
              run_driver(g, 31, split, threads, participants, garbage);
          EXPECT_EQ(got.mates, clean.mates)
              << "n=" << g.num_vertices() << " split=" << split
              << " threads=" << threads << " participants=" << participants;
          EXPECT_EQ(got.stats.stage_iterations, clean.stats.stage_iterations);
          EXPECT_EQ(got.stats.ca_iterations, clean.stats.ca_iterations);
          EXPECT_EQ(got.stats.stage_loops, clean.stats.stage_loops);
          EXPECT_EQ(got.stats.truncated_loops, clean.stats.truncated_loops);
          EXPECT_EQ(got.driver_calls, clean.driver_calls);
          EXPECT_EQ(got.certified, clean.certified);
        }
      }
    }
  }
}

TEST(SweepOutOfContract, AllGarbageTruncatesEveryLoop) {
  // An oracle that answers only garbage applies nothing: every loop stops
  // after its first call and counts as truncated, the matching stays the
  // initial one, and the run is never certified.
  const ForceParallelSmallWork force;
  const auto garbage = [](MatchingOracle& inner) {
    return std::make_unique<GarbageOracle>(inner, /*keep_answer=*/false);
  };
  for (const Graph& g : contract_graphs()) {
    RandomGreedyMatchingOracle inner(31);
    CoreConfig cfg;
    cfg.eps = 0.25;
    const Matching initial = framework_initial_matching(g, inner, cfg);
    std::vector<Vertex> initial_mates;
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      initial_mates.push_back(initial.mate(v));
    for (const int threads : {1, 4}) {
      for (const int participants : {0, 3}) {
        const DriverRun got =
            run_driver(g, 31, true, threads, participants, garbage);
        EXPECT_EQ(got.mates, initial_mates) << "n=" << g.num_vertices();
        EXPECT_GT(got.driver_calls, 0) << "n=" << g.num_vertices();
        EXPECT_EQ(got.stats.truncated_loops, got.driver_calls);
        EXPECT_EQ(got.stats.stage_iterations + got.stats.ca_iterations,
                  got.driver_calls);
        EXPECT_FALSE(got.certified);
      }
    }
  }
}

}  // namespace
}  // namespace bmf
