#include "dynamic/static_weak.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bmf {
namespace {

CoreConfig make_fallback_config(const CoreConfig& core) {
  CoreConfig cfg = core;
  cfg.iteration_mode = IterationMode::kUntilEmpty;
  return cfg;
}

/// Drops the candidates that can no longer extend (for the rest of this
/// Extend-Active-Path) and returns whether one of the rest sits at `stage`:
/// an eligible left-hand structure of H'_s (Definition 5.8, sampled per
/// Section 6.6).
bool prune_candidates(const StructureForest& forest,
                      std::vector<StructureId>& candidates, int stage) {
  bool any = false;
  std::size_t kept = 0;
  for (const StructureId sid : candidates) {
    const StructureInfo& si = forest.structure(sid);
    if (!si.can_extend()) continue;
    candidates[kept++] = sid;
    any = any || forest.outer_level(si.working) == stage;
  }
  candidates.resize(kept);
  return any;
}

}  // namespace

WeakOracleDriver::WeakOracleDriver(const Graph& g, WeakOracle& oracle,
                                   const WeakSimConfig& cfg, std::uint64_t seed,
                                   RebuildParticipation* participation)
    : g_(g),
      oracle_(oracle),
      cfg_(cfg),
      rng_(seed),
      fallback_cfg_(make_fallback_config(cfg.core)),
      fallback_(g, fallback_oracle_, fallback_cfg_, participation) {}

bool WeakOracleDriver::exhaustive() const {
  return cfg_.strict && cfg_.exhaustive_fallback && fallback_.exhaustive();
}

void WeakOracleDriver::begin_phase(StructureForest& forest) {
  // Unvisited matched vertices at phase start: every matched vertex (free
  // vertices root their own structures). Filtered lazily as they get visited.
  unvisited_pool_.clear();
  const Matching& m = forest.matching();
  for (Vertex v = 0; v < g_.num_vertices(); ++v)
    if (m.mate(v) != kNoVertex) unvisited_pool_.push_back(v);
}

void WeakOracleDriver::in_structure_sweep(StructureForest& forest, int stage) {
  // Invariant 6.10: no s-feasible arc connects two vertices of the same
  // structure when the sampled iterations begin. Only a stage candidate can
  // be eligible.
  for (const StructureId sid : candidates_) {
    const StructureInfo& si = forest.structure(sid);
    if (!si.can_extend() || forest.outer_level(si.working) != stage) continue;
    blossom_scan_.clear();
    forest.arena().collect_vertices(si.working, blossom_scan_);
    bool done = false;
    for (Vertex w : blossom_scan_) {
      for (Vertex x : g_.neighbors(w)) {
        if (forest.structure_of(x) != sid) continue;
        if (!forest.is_inner(x) || forest.label(x) <= stage + 1) continue;
        if (forest.can_overtake(w, x, stage + 1)) {
          forest.overtake(w, x, stage + 1);
          done = true;  // the structure is extended now
          break;
        }
      }
      if (done) break;
    }
  }
}

void WeakOracleDriver::run_overtake_stage(StructureForest& forest, int stage) {
  in_structure_sweep(forest, stage);

  int stall = 0;
  std::int64_t iterations = 0;
  while (stall < cfg_.sample_patience && iterations < cfg_.max_stage_iterations) {
    // No eligible left-hand structure at this stage: stop before drawing.
    if (!prune_candidates(forest, candidates_, stage)) break;

    // One sample per live structure, in sid order.
    s_plus_.clear();
    s_minus_.clear();
    for (const StructureId sid : live_) {
      const StructureInfo& si = forest.structure(sid);
      const Vertex sample = si.members[static_cast<std::size_t>(
          rng_.next_below(si.members.size()))];
      if (si.can_extend() && forest.outer_level(si.working) == stage &&
          forest.is_outer(sample) && forest.omega(sample) == si.working) {
        s_plus_.push_back(sample);
      } else if (forest.is_inner(sample) && forest.label(sample) > stage + 1) {
        s_minus_.push_back(sample);
      }
    }
    // Unvisited matched vertices join as singleton regions.
    std::erase_if(unvisited_pool_,
                  [&](Vertex v) { return !forest.is_unvisited(v); });
    for (Vertex v : unvisited_pool_)
      if (forest.label(v) > stage + 1) s_minus_.push_back(v);

    if (s_plus_.empty() || s_minus_.empty()) break;
    const WeakQueryResult res =
        oracle_.query_cover(s_plus_, s_minus_, cfg_.delta);
    ++sampled_iterations_;
    ++iterations;
    const bool usable = cfg_.strict || !res.bottom;
    std::int64_t applied = 0;
    if (usable) {
      for (const Edge& e : res.matching) {
        // Re-derive k from the overtaker's current level; can_overtake
        // re-validates everything else.
        if (forest.structure_of(e.u) == kNoStructure) continue;
        const StructureInfo& si =
            forest.structure(forest.structure_of(e.u));
        if (si.working == kNoBlossom || forest.omega(e.u) != si.working) continue;
        const int k = forest.outer_level(si.working) + 1;
        if (forest.can_overtake(e.u, e.v, k)) {
          forest.overtake(e.u, e.v, k);
          ++applied;
        }
      }
    }
    if (applied == 0)
      ++stall;
    else
      stall = 0;
  }
}

void WeakOracleDriver::extend_active_path(StructureForest& forest) {
  // No structure is removed during Extend-Active-Path, so the live list holds
  // for every stage; the stage candidates only shrink (see prune_candidates).
  live_.clear();
  candidates_.clear();
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    const StructureInfo& si = forest.structure(sid);
    if (si.removed) continue;
    live_.push_back(sid);
    if (si.can_extend()) candidates_.push_back(sid);
  }
  const int lmax = cfg_.core.ell_max();
  for (int s = 0; s <= lmax; ++s) run_overtake_stage(forest, s);
  if (cfg_.exhaustive_fallback) fallback_.extend_active_path(forest);
}

void WeakOracleDriver::contract_and_augment(StructureForest& forest) {
  // Step 1 (Section 6.5): exhaust type-1 arcs by scanning in-structure edges;
  // this is O(n * Delta^2) local work, no oracle involved — the framework's
  // local contraction pass, run once here whether or not the exhaustive
  // fallback follows (the sampled Augments below only remove structures, so
  // they leave no type-1 arc for a second pass to find).
  fallback_.run_local_contractions(forest);

  // Step 2: sampled Augment iterations — one uniformly random *outer* vertex
  // per structure, A_weak on G[S] (Figure 4). The outer members of every
  // live structure are collected once: Augment only removes the two
  // structures it joins and leaves every other structure's vertices and
  // blossoms as they are, so the lists stay exact while structures drop out.
  live_.clear();
  outer_.clear();
  outer_begin_.clear();
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    const StructureInfo& si = forest.structure(sid);
    if (si.removed) continue;
    live_.push_back(sid);
    outer_begin_.push_back(static_cast<std::int32_t>(outer_.size()));
    for (Vertex w : si.members)
      if (forest.is_outer(w)) outer_.push_back(w);
    // the root is always outer
    BMF_ASSERT(static_cast<std::int32_t>(outer_.size()) > outer_begin_.back());
  }
  outer_begin_.push_back(static_cast<std::int32_t>(outer_.size()));

  int stall = 0;
  std::int64_t iterations = 0;
  while (stall < cfg_.sample_patience && iterations < cfg_.max_stage_iterations) {
    sample_set_.clear();
    std::int64_t live = 0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (forest.structure(live_[i]).removed) continue;
      ++live;
      const auto begin = static_cast<std::size_t>(outer_begin_[i]);
      const auto count = static_cast<std::size_t>(outer_begin_[i + 1]) - begin;
      sample_set_.push_back(
          outer_[begin + static_cast<std::size_t>(rng_.next_below(count))]);
    }
    if (live < 2) break;
    const WeakQueryResult res = oracle_.query(sample_set_, cfg_.delta);
    ++sampled_iterations_;
    ++iterations;
    const bool usable = cfg_.strict || !res.bottom;
    std::int64_t applied = 0;
    if (usable) {
      for (const Edge& e : res.matching) {
        if (forest.can_augment(e.u, e.v)) {
          forest.augment(e.u, e.v);
          ++applied;
        }
      }
    }
    if (applied == 0)
      ++stall;
    else
      stall = 0;
  }

  if (cfg_.exhaustive_fallback) fallback_.run_augment_loop(forest);
}

Matching weak_initial_matching(Vertex n, WeakOracle& oracle,
                               const WeakSimConfig& cfg) {
  Matching m(n);
  for (;;) {
    const std::vector<Vertex> free = m.free_vertices();
    if (free.size() < 2) break;
    const WeakQueryResult res = oracle.query(free, cfg.delta);
    if (res.matching.empty()) break;
    if (!cfg.strict && res.bottom) break;
    for (const Edge& e : res.matching)
      if (m.is_free(e.u) && m.is_free(e.v)) m.add(e.u, e.v);
  }
  return m;
}

WeakBoostResult static_weak_boost(const Graph& g, Matching m, WeakOracle& oracle,
                                  const WeakSimConfig& cfg,
                                  RebuildParticipation* participation) {
  WeakBoostResult result{std::move(m), {}, 0, 0, 0};
  const std::int64_t calls_before = oracle.calls();
  // The boost begins by distributing the frozen snapshot to the layout's
  // participants; the in-structure sweeps and local contractions below stay
  // serial coordinator reads and are deliberately not charged (the exact-cost
  // accounting caveat, docs/replay_core.md).
  if (participation != nullptr) participation->note_rebuild_begin(g);
  WeakOracleDriver driver(g, oracle, cfg, cfg.core.seed, participation);
  PhaseEngine engine(g, cfg.core);
  result.outcome = engine.run(result.matching, driver);
  result.weak_calls = oracle.calls() - calls_before;
  result.sampled_iterations = driver.sampled_iterations();
  return result;
}

WeakBoostResult static_weak_matching(const Graph& g, WeakOracle& oracle,
                                     const WeakSimConfig& cfg) {
  const std::int64_t calls_before = oracle.calls();
  Matching initial = weak_initial_matching(g.num_vertices(), oracle, cfg);
  const std::int64_t initial_calls = oracle.calls() - calls_before;
  WeakBoostResult result =
      static_weak_boost(g, std::move(initial), oracle, cfg);
  result.initial_weak_calls = initial_calls;
  result.weak_calls += initial_calls;
  return result;
}

}  // namespace bmf
