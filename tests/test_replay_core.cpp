/// Unified suite for the shared dynamic replay core (replay_core.hpp):
///
///  * ReplayCoreDifferential — the cross-engine fuzz/differential harness:
///    one composite update stream per seed (every dyn_* workload shape plus
///    the new mixed-churn shape) driven through the sequential apply loop,
///    `DynamicMatcher::apply_batch` at 1/2/8 threads,
///    `CompressedDynamicMatcher` (CSR + delta buffers, compressed_store.hpp)
///    at 1/2/8 threads, and `ShardedDynamicMatcher` at {1,2,4} shards x
///    {1,2,8} threads in a single loop (tests/differential_util.hpp),
///    asserting matchings, rebuild positions, weak-call counts, and
///    within-family words_touched agree at every grid point (the compressed
///    store shares the flat family's MatrixWeakOracle, so it joins the flat
///    words invariance exactly);
///  * ReplayCoreGoldenTrace — byte-exact golden records (seed, stream
///    digest, rebuild positions, final matching hash) for six canonical
///    workloads, so a silent replay-core behavior change fails even if all
///    engines drift together (regenerate with BMF_UPDATE_GOLDEN=1);
///  * ReplayCoreOverlap — property tests for the light/heavy deletion
///    pre-classifier behind rebuild/update overlap: planted mispredictions
///    proving the post-join fixup restores sequential results, and coverage
///    counters showing deletion windows genuinely overlap;
///  * ReplayCoreConfig — death/invariant tests for the shared
///    `DynamicCoreConfig` (0 shards, shards > n, negative threads, ...).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "differential_util.hpp"
#include "dynamic/dynamic_matcher.hpp"
#include "dynamic/replay_core.hpp"
#include "dynamic/sharded_matcher.hpp"
#include "dynamic/weak_oracle.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/dyn_workload.hpp"

namespace bmf {
namespace {

using testdiff::GridOptions;
using testdiff::RunResult;

// ---------------------------------------------------------------------------
// Cross-engine differential fuzz over one composite stream per seed.
// ---------------------------------------------------------------------------

/// One stream that visits every workload shape back to back. Segments after
/// the first start from a non-empty graph, so duplicate insertions and
/// absent-edge deletions appear naturally — valid no-op updates that the
/// engines must count identically.
std::vector<EdgeUpdate> composite_stream(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeUpdate> ups;
  const auto append = [&](std::vector<EdgeUpdate> seg) {
    ups.insert(ups.end(), seg.begin(), seg.end());
  };
  append(dyn_random_updates(48, 70, 0.7, rng));
  append(dyn_sliding_window(48, 30, 55, rng));
  append(dyn_churn_planted(48, 55, rng));
  append(dyn_planted_teardown(12, 3, rng));  // vertices [0, 27)
  append(dyn_shard_partitioned(48, 4, 60, 0.6, 0.7, rng));
  append(dyn_mixed_churn(48, 70, rng));
  ups.push_back(EdgeUpdate::none());
  return ups;
}

class ReplayCoreDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayCoreDifferential, CompositeStreamAllEnginesAllGridPoints) {
  const auto ups = composite_stream(GetParam());
  DynamicMatcherConfig cfg;
  cfg.eps = 0.5;
  cfg.seed = GetParam();
  GridOptions opt;
  opt.flat_batch_sizes = {7, 64};
  testdiff::expect_all_engines_equal(48, ups, cfg, opt);
}

TEST_P(ReplayCoreDifferential, MixedChurnFixedCadence) {
  // The new shape on its own, with a fixed rebuild cadence so overlap
  // windows (including deletion windows) recur throughout the stream.
  Rng rng(GetParam() + 40);
  const auto ups = dyn_mixed_churn(40, 320, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = GetParam();
  cfg.rebuild_every = 14;
  GridOptions opt;
  opt.min_rebuilds = 5;
  testdiff::expect_all_engines_equal(40, ups, cfg, opt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayCoreDifferential,
                         ::testing::Values(1u, 2u, 3u));

TEST(ReplayCoreStats, RebuildStatsFoldAcrossOverlapAndSerialPaths) {
  // rebuild_stats() folds every boost the core ran — serial rebuilds and
  // overlapped ones alike — and is part of the bit-identity contract, read
  // here through the abstract ReplayEngine surface. The flat engine's comm
  // ledger stays identically zero on every path.
  Rng rng(31);
  const auto ups = dyn_mixed_churn(40, 320, rng);
  RebuildStats want;
  bool first = true;
  for (const bool overlap : {true, false})
    for (const int threads : {1, 8}) {
      const ForceParallelSmallWork force;
      DynamicMatcherConfig cfg;
      cfg.eps = 0.25;
      cfg.seed = 31;
      cfg.rebuild_every = 14;
      cfg.threads = threads;
      cfg.overlap_rebuild = overlap;
      MatrixWeakOracle oracle(40);
      DynamicMatcher dm(40, oracle, cfg);
      for (const auto& batch : slice_updates(ups, 64)) dm.apply_batch(batch);
      const ReplayEngine& engine = dm;
      const RebuildStats got = engine.rebuild_stats();
      EXPECT_EQ(got.rebuilds, engine.rebuilds());
      EXPECT_EQ(got.weak_calls, engine.weak_calls());
      EXPECT_GT(got.rebuilds, 0);
      EXPECT_LE(got.certified, got.rebuilds);
      EXPECT_EQ(engine.comm_stats(), CommStats{})
          << "overlap=" << overlap << " threads=" << threads;
      if (first) {
        want = got;
        first = false;
      }
      EXPECT_EQ(got, want) << "overlap=" << overlap << " threads=" << threads;
    }
}

TEST(ReplayCoreDifferential, MixedChurnStreamIsValid) {
  Rng rng(21);
  const auto ups = dyn_mixed_churn(32, 400, rng);
  ASSERT_EQ(ups.size(), 400u);
  DynGraph g(32);
  std::int64_t inserts = 0, deletions = 0;
  for (const EdgeUpdate& up : ups) {
    if (up.insert) {
      EXPECT_TRUE(g.insert(up.u, up.v));
      ++inserts;
    } else {
      EXPECT_TRUE(g.erase(up.u, up.v));
      ++deletions;
    }
  }
  // All four phases ran: the stream both grows and churns.
  EXPECT_GT(inserts, 100);
  EXPECT_GT(deletions, 100);
}

// ---------------------------------------------------------------------------
// Golden-trace regression: byte-exact records for canonical workloads.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t stream_digest(std::span<const EdgeUpdate> ups) {
  std::uint64_t h = kFnvOffset;
  for (const EdgeUpdate& up : ups) {
    h = fnv1a(h, static_cast<std::uint64_t>(up.u));
    h = fnv1a(h, static_cast<std::uint64_t>(up.v));
    h = fnv1a(h, up.insert ? 1 : 0);
  }
  return h;
}

std::uint64_t int_list_digest(std::span<const std::int64_t> xs) {
  std::uint64_t h = kFnvOffset;
  for (const std::int64_t x : xs) h = fnv1a(h, static_cast<std::uint64_t>(x));
  return h;
}

std::uint64_t mates_digest(std::span<const Vertex> mates) {
  std::uint64_t h = kFnvOffset;
  for (const Vertex m : mates) h = fnv1a(h, static_cast<std::uint64_t>(m));
  return h;
}

struct GoldenCase {
  const char* name;
  std::uint64_t seed;
  Vertex n;
  double eps;
  std::int64_t rebuild_every;
  std::vector<EdgeUpdate> ups;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  {
    Rng rng(11);
    cases.push_back({"random_mixed", 11, 40, 0.5, 0,
                     dyn_random_updates(40, 300, 0.7, rng)});
  }
  {
    Rng rng(12);
    cases.push_back({"deletion_heavy", 12, 40, 1.0, 0,
                     dyn_random_updates(40, 300, 0.45, rng)});
  }
  {
    Rng rng(13);
    cases.push_back({"sliding_window", 13, 40, 0.5, 0,
                     dyn_sliding_window(40, 50, 250, rng)});
  }
  {
    Rng rng(14);
    cases.push_back(
        {"churn_planted", 14, 40, 0.5, 0, dyn_churn_planted(40, 250, rng)});
  }
  {
    Rng rng(15);
    cases.push_back({"planted_teardown", 15, 2 * 14 + 3, 1.0, 0,
                     dyn_planted_teardown(14, 3, rng)});
  }
  {
    Rng rng(16);
    cases.push_back(
        {"mixed_churn", 16, 48, 0.25, 16, dyn_mixed_churn(48, 300, rng)});
  }
  return cases;
}

std::string trace_line(const GoldenCase& c) {
  DynamicMatcherConfig cfg;
  cfg.eps = c.eps;
  cfg.seed = c.seed;
  cfg.rebuild_every = c.rebuild_every;
  const RunResult r = testdiff::run_sequential(c.n, c.ups, cfg);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s seed=%llu stream=%016llx updates=%lld rebuilds=%lld "
                "positions=%016llx matching=%016llx size=%lld weak_calls=%lld",
                c.name, static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(stream_digest(c.ups)),
                static_cast<long long>(r.updates),
                static_cast<long long>(r.rebuilds),
                static_cast<unsigned long long>(
                    int_list_digest(r.rebuild_positions)),
                static_cast<unsigned long long>(mates_digest(r.mates)),
                static_cast<long long>(r.matching_size),
                static_cast<long long>(r.weak_calls));
  return buf;
}

std::string golden_path() {
  return std::string(BMF_TEST_DATA_DIR) + "/golden/dynamic_traces.txt";
}

TEST(ReplayCoreGoldenTrace, CanonicalWorkloadsMatchRecordedTraces) {
  std::vector<std::string> lines;
  for (const GoldenCase& c : golden_cases()) lines.push_back(trace_line(c));

  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read-only env probe before any
  // thread exists; regeneration mode is a single-threaded dev invocation.
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
         "--gtest_filter='*GoldenTrace*'";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) want.push_back(line);
  ASSERT_EQ(want.size(), lines.size()) << "golden file is stale";
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], want[i])
        << "golden trace drifted — if the change is intentional, regenerate "
           "with BMF_UPDATE_GOLDEN=1 and justify the diff in the PR";
}

// ---------------------------------------------------------------------------
// Rebuild-overlap deletion classifier: planted scenarios + coverage.
// ---------------------------------------------------------------------------

struct OverlapRun {
  RunResult result;
  ReplayOverlapStats stats;
};

OverlapRun run_flat_overlap(Vertex n, std::span<const EdgeUpdate> ups,
                            const DynamicMatcherConfig& base, int threads,
                            std::int64_t batch_size) {
  OverlapRun out;
  out.result = testdiff::run_flat_batched(n, ups, base, threads, batch_size,
                                          /*words_out=*/nullptr, &out.stats);
  return out;
}

OverlapRun run_sharded_overlap(Vertex n, std::span<const EdgeUpdate> ups,
                               const DynamicMatcherConfig& base, int shards,
                               int threads, std::int64_t batch_size) {
  OverlapRun out;
  out.result = testdiff::run_sharded(n, ups, base, shards, threads, batch_size,
                                     /*words_out=*/nullptr, &out.stats);
  return out;
}

TEST(ReplayCoreOverlap, PlantedMispredictionTakesSerialFixup) {
  // Path 0-1-2-3 with (1,2) greedily matched; the rebuild at update 5 boosts
  // to {(0,1), (2,3)}, flipping (0,1) from unmatched to matched. The next
  // window's del(0,1) is therefore pre-classified light but proves heavy
  // after the join — the fixup must rewind the overlapped ins(4,5), take the
  // sequential heavy repair, and reapply the suffix, bit-identically.
  const Vertex n = 6;
  std::vector<EdgeUpdate> ups{EdgeUpdate::ins(1, 2), EdgeUpdate::ins(0, 1),
                              EdgeUpdate::ins(2, 3), EdgeUpdate::none(),
                              EdgeUpdate::none(),    EdgeUpdate::del(0, 1),
                              EdgeUpdate::ins(4, 5)};
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.rebuild_every = 5;
  const RunResult want = testdiff::run_sequential(n, ups, cfg);
  ASSERT_EQ(want.rebuilds, 1);
  ASSERT_EQ(want.rebuild_positions, (std::vector<std::int64_t>{5}));
  // The sequential semantics this scenario plants: the boosted (0,1) is torn
  // down again and (4,5) matches.
  EXPECT_EQ(want.mates[2], 3);
  EXPECT_EQ(want.mates[4], 5);
  EXPECT_EQ(want.mates[0], kNoVertex);
  EXPECT_EQ(want.mates[1], kNoVertex);

  for (const int threads : {2, 8}) {
    const OverlapRun got =
        run_flat_overlap(n, ups, cfg, threads, static_cast<std::int64_t>(ups.size()));
    EXPECT_EQ(got.result, want) << "threads=" << threads;
    EXPECT_EQ(got.stats.deletion_mispredictions, 1) << "threads=" << threads;
    EXPECT_EQ(got.stats.overlapped_rebuilds, 1);
    EXPECT_EQ(got.stats.overlap_windows_with_deletions, 1);
  }
  // The sharded facade runs the identical core: same fixup, same counters.
  for (const int shards : {2, 4}) {
    const OverlapRun got = run_sharded_overlap(
        n, ups, cfg, shards, 2, static_cast<std::int64_t>(ups.size()));
    EXPECT_EQ(got.result, want) << "shards=" << shards;
    EXPECT_EQ(got.stats.deletion_mispredictions, 1) << "shards=" << shards;
  }
}

TEST(ReplayCoreOverlap, ValidatedLightDeletionOverlapsWithoutFixup) {
  // Same shape plus a (1,3) chord that stays unmatched across the rebuild:
  // its deletion is pre-classified light, the validation confirms it, and
  // the window keeps going past the deletion (the PR 3 engine would have
  // stopped the overlap there).
  const Vertex n = 8;
  std::vector<EdgeUpdate> ups{EdgeUpdate::ins(1, 2), EdgeUpdate::ins(0, 1),
                              EdgeUpdate::ins(2, 3), EdgeUpdate::ins(1, 3),
                              EdgeUpdate::none(),    EdgeUpdate::del(1, 3),
                              EdgeUpdate::ins(4, 5), EdgeUpdate::ins(6, 7)};
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.rebuild_every = 5;
  const RunResult want = testdiff::run_sequential(n, ups, cfg);
  ASSERT_EQ(want.rebuilds, 1);
  EXPECT_EQ(want.matching_size, 4);  // {01, 23, 45, 67}

  for (const int threads : {2, 8}) {
    const OverlapRun got =
        run_flat_overlap(n, ups, cfg, threads, static_cast<std::int64_t>(ups.size()));
    EXPECT_EQ(got.result, want) << "threads=" << threads;
    EXPECT_EQ(got.stats.deletion_mispredictions, 0) << "threads=" << threads;
    EXPECT_EQ(got.stats.overlap_windows_with_deletions, 1);
    EXPECT_EQ(got.stats.overlapped_deletions, 1);
    // The window consumed updates beyond the deletion.
    EXPECT_EQ(got.stats.overlapped_updates, 3);
  }
}

TEST(ReplayCoreOverlap, DeletionWindowsOverlapOnRandomStreams) {
  // The acceptance gate for the ROADMAP follow-up: under ForceParallelSmallWork
  // overlapped windows containing deletions must actually occur on generated
  // streams, with results bit-identical to the sequential loop throughout —
  // on both engine facades.
  Rng rng(77);
  const auto ups = dyn_random_updates(40, 450, 0.85, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = 77;
  cfg.rebuild_every = 16;
  const RunResult want = testdiff::run_sequential(40, ups, cfg);
  ASSERT_GT(want.rebuilds, 10);

  const OverlapRun flat = run_flat_overlap(40, ups, cfg, 8, 64);
  EXPECT_EQ(flat.result, want);
  EXPECT_GT(flat.stats.overlap_windows, 0);
  EXPECT_GT(flat.stats.overlap_windows_with_deletions, 0);
  EXPECT_GT(flat.stats.overlapped_deletions, 0);

  const OverlapRun sharded = run_sharded_overlap(40, ups, cfg, 4, 8, 64);
  EXPECT_EQ(sharded.result, want);
  EXPECT_GT(sharded.stats.overlap_windows_with_deletions, 0);
  EXPECT_EQ(sharded.stats.overlap_windows, flat.stats.overlap_windows);
  EXPECT_EQ(sharded.stats.deletion_mispredictions,
            flat.stats.deletion_mispredictions);
}

TEST(ReplayCoreOverlap, MispredictionFuzzRestoresSequentialResults) {
  // Churn keeps mu near-perfect while the witness moves, so rebuilds
  // regularly re-match edges that were unmatched before them — planted
  // mispredictions at generated positions. Equality at every point is the
  // fixup proof; the counter shows the path genuinely ran.
  std::int64_t total_mispredictions = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const auto ups = dyn_churn_planted(32, 260, rng);
    DynamicMatcherConfig cfg;
    cfg.eps = 0.25;
    cfg.seed = seed;
    cfg.rebuild_every = 9;
    const RunResult want = testdiff::run_sequential(32, ups, cfg);
    for (const int threads : {2, 8}) {
      const OverlapRun got = run_flat_overlap(32, ups, cfg, threads,
                                              static_cast<std::int64_t>(ups.size()));
      EXPECT_EQ(got.result, want) << "seed=" << seed << " threads=" << threads;
      total_mispredictions += got.stats.deletion_mispredictions;
    }
  }
  EXPECT_GT(total_mispredictions, 0)
      << "streams never exercised the misprediction fixup — retune the fuzz";
}

// ---------------------------------------------------------------------------
// Shared config: one struct, one validation, one death test.
// ---------------------------------------------------------------------------

static_assert(std::is_base_of_v<DynamicCoreConfig, DynamicMatcherConfig> &&
                  std::is_base_of_v<DynamicCoreConfig, ShardedMatcherConfig>,
              "both facades must share the replay-core config");

TEST(ReplayCoreConfig, InvalidKnobsAreRejectedAtConstruction) {
  MatrixWeakOracle oracle(8);
  {
    DynamicMatcherConfig cfg;
    cfg.eps = 0.0;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument);
    cfg.eps = 1.5;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument);
  }
  {
    DynamicMatcherConfig cfg;
    cfg.threads = -1;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument);
  }
  {
    DynamicMatcherConfig cfg;
    cfg.rebuild_every = -5;
    EXPECT_THROW(DynamicMatcher(8, oracle, cfg), std::invalid_argument);
  }
  {
    ShardedMatcherConfig cfg;
    cfg.shards = 0;
    EXPECT_THROW(ShardedDynamicMatcher(8, cfg), std::invalid_argument);
  }
  {
    ShardedMatcherConfig cfg;
    cfg.threads = -2;
    EXPECT_THROW(ShardedDynamicMatcher(8, cfg), std::invalid_argument);
  }
  {
    ShardedMatcherConfig cfg;
    cfg.eps = -0.25;
    EXPECT_THROW(ShardedDynamicMatcher(8, cfg), std::invalid_argument);
  }
}

TEST(ReplayCoreConfig, MoreShardsThanVerticesIsLegalAndBitIdentical) {
  Rng rng(9);
  // Deletion-biased: n = 6 has only 15 possible edges, and the generator
  // spins if the live set saturates.
  const auto ups = dyn_random_updates(6, 120, 0.45, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.5;
  cfg.seed = 9;
  const RunResult want = testdiff::run_sequential(6, ups, cfg);
  for (const int shards : {8, 16}) {
    const RunResult got = testdiff::run_sharded(6, ups, cfg, shards, 2, 32);
    EXPECT_EQ(got, want) << "shards=" << shards;
  }
}

TEST(ReplayCoreConfig, SharedBaseCopiesWholesaleAcrossFacades) {
  // The sharded runner copies the whole DynamicCoreConfig base (no ad-hoc
  // field forwarding); a knob set on the flat config must reach the sharded
  // engine. rebuild_every is observable through rebuild positions.
  Rng rng(31);
  const auto ups = dyn_random_updates(24, 160, 0.8, rng);
  DynamicMatcherConfig cfg;
  cfg.eps = 0.25;
  cfg.seed = 31;
  cfg.rebuild_every = 13;
  cfg.overlap_rebuild = false;
  const RunResult want = testdiff::run_sequential(24, ups, cfg);
  ASSERT_GT(want.rebuilds, 3);
  for (const std::int64_t p : want.rebuild_positions) EXPECT_EQ(p % 13, 0);
  const RunResult got = testdiff::run_sharded(24, ups, cfg, 3, 2, 40);
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// AdjacencyStore contract sufficiency (replay_core.hpp concepts).
// ---------------------------------------------------------------------------

/// Implements exactly the documented AdjacencyStorePolicy surface and nothing
/// else — no graph() accessor, no facade, no extras. If this store drives the
/// core bit-identically to the flat engine, the written contract is
/// *sufficient*; the compile-fail harness (tests/compile_fail/) proves each
/// member is *necessary*. Together they pin the contract from both sides.
class MinimalStore {
 public:
  MinimalStore(Vertex n, WeakOracle& oracle) : g_(n), oracle_(oracle) {}

  [[nodiscard]] Vertex num_vertices() const { return g_.num_vertices(); }
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const { return g_.has_edge(u, v); }
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return g_.neighbors(v);
  }
  [[nodiscard]] Graph snapshot() const { return g_.snapshot(); }
  [[nodiscard]] WeakOracle& oracle() { return oracle_; }
  [[nodiscard]] bool use_batch_engine(int threads) const { return threads > 1; }

  bool toggle(const EdgeUpdate& up) {
    const bool changed = up.insert ? g_.insert(up.u, up.v) : g_.erase(up.u, up.v);
    if (changed) {
      if (up.insert)
        oracle_.on_insert(up.u, up.v);
      else
        oracle_.on_erase(up.u, up.v);
    }
    return changed;
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

  [[nodiscard]] RebuildParticipation& rebuild_participation() {
    return participation_;
  }
  [[nodiscard]] CommStats comm_stats() const { return {}; }

 private:
  DynGraph g_;
  WeakOracle& oracle_;
  FlatRebuildParticipation participation_;
};

static_assert(AdjacencyStorePolicy<MinimalStore>,
              "the documented contract surface must satisfy the concept");

TEST(ReplayCoreContract, MinimalStoreIsSufficientAndBitIdentical) {
  constexpr Vertex n = 40;
  Rng rng(77);
  const auto ups = dyn_mixed_churn(n, 320, rng);

  // Reference: the flat facade on the serial apply loop.
  DynamicMatcherConfig ref_cfg;
  ref_cfg.eps = 0.25;
  ref_cfg.seed = 77;
  ref_cfg.rebuild_every = 14;
  ref_cfg.threads = 1;
  MatrixWeakOracle ref_oracle(n);
  DynamicMatcher ref(n, ref_oracle, ref_cfg);
  for (const auto& up : ups) ref.apply(up);
  ASSERT_GT(ref.rebuilds(), 0);

  for (const int threads : {1, 8}) {
    const ForceParallelSmallWork force;
    DynamicCoreConfig cfg;
    cfg.eps = 0.25;
    cfg.seed = 77;
    cfg.rebuild_every = 14;
    cfg.threads = threads;
    validate_core_config(cfg, /*shards=*/1, "MinimalStore");
    MatrixWeakOracle oracle(n);
    MinimalStore store(n, oracle);
    DynamicReplayCore<MinimalStore> core(store, resolve_core_config(cfg));
    for (const auto& batch : slice_updates(ups, 64)) core.apply_batch(batch);

    EXPECT_EQ(core.rebuild_positions(), ref.rebuild_positions())
        << "threads=" << threads;
    EXPECT_EQ(core.rebuild_stats(), ref.rebuild_stats()) << "threads=" << threads;
    EXPECT_EQ(core.matching().size(), ref.matching().size());
    for (Vertex v = 0; v < n; ++v)
      EXPECT_EQ(core.matching().mate(v), ref.matching().mate(v))
          << "threads=" << threads << " v=" << v;
  }
}

}  // namespace
}  // namespace bmf
