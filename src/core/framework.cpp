#include "core/framework.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Certificate soundness note: a valid c-approximate oracle returns a
// non-empty matching whenever the derived graph has an edge (mu >= 1 implies
// |M'| >= 1/c > 0). The simulation loops below therefore treat an empty or
// entirely inapplicable answer on a non-empty graph as an out-of-contract
// oracle and count it as a truncated loop, which withholds the Theorem B.4
// certificate instead of issuing it falsely.
//
// Discovery: building H'_s / H' scans the vertices of the structures an
// iteration can use against the graph — pure const reads on the forest
// (operations only happen after the oracle answers). A serial prepass picks
// the eligible structures; discovery fans out over their (participant x
// structure) slots only, each participant scanning the structure vertices
// whose rows it owns into a private buffer, and the buffers merge serially
// in structure-id order through the participation policy's pos-merge,
// reproducing the serial loop's first-encounter index assignment exactly.
// The derived graphs handed to the oracle — and hence matchings, op counts,
// and truncation decisions — are bit-identical at any (participants x
// threads).

namespace bmf {
namespace {

/// Below these sizes the pool round-trip costs more than the scan; the
/// parallel paths degrade to inline serial loops with identical output
/// (merges are in canonical order either way; see gated_threads). Discovery
/// gates on both the eligible slot count (the fan-out width: participants x
/// eligible structures) and the arcs those slots will examine (scanned
/// vertices times the average degree).
constexpr std::int64_t kParallelDiscoveryMinSlots = 16;
constexpr std::int64_t kParallelDiscoveryMinArcs = 2048;
constexpr std::int64_t kParallelEdgeFilterMin = 2048;

int discovery_thread_gate(std::int64_t slots, std::int64_t arcs, int threads) {
  return gated_threads(slots, kParallelDiscoveryMinSlots,
                       gated_threads(arcs, kParallelDiscoveryMinArcs, threads));
}

/// H' edge key of the structure-node pair {a, b}.
std::int64_t pair_key(std::int32_t a, std::int32_t b) {
  return static_cast<std::int64_t>(std::min(a, b)) * (1LL << 31) + std::max(a, b);
}

/// The shared flat policy behind the participation-less constructor; it is
/// stateless (pass-through merge, no-op accounting), so sharing one instance
/// across drivers and threads is safe.
RebuildParticipation& flat_participation() {
  static FlatRebuildParticipation flat;
  return flat;
}

}  // namespace

void RebuildParticipation::merge(
    std::span<const std::vector<SweepArc>> per_participant,
    std::vector<SweepArc>& out) const {
  if (per_participant.size() == 1) {
    out.insert(out.end(), per_participant[0].begin(), per_participant[0].end());
    return;
  }
  // Canonical coordinator splice: each buffer is pos-ascending and the pos
  // sets are pairwise disjoint (every scan position is owned by exactly one
  // participant), so repeatedly taking the buffer with the smallest front pos
  // — and draining all its arcs for that position, i.e. one scanned vertex's
  // neighbor run — reproduces the flat scan order exactly.
  std::size_t total = 0;
  for (const auto& buf : per_participant) total += buf.size();
  out.reserve(out.size() + total);
  std::vector<std::size_t> cursor(per_participant.size(), 0);
  for (;;) {
    std::size_t best = per_participant.size();
    for (std::size_t p = 0; p < per_participant.size(); ++p) {
      if (cursor[p] >= per_participant[p].size()) continue;
      if (best == per_participant.size() ||
          per_participant[p][cursor[p]].pos <
              per_participant[best][cursor[best]].pos)
        best = p;
    }
    if (best == per_participant.size()) break;
    const std::vector<SweepArc>& buf = per_participant[best];
    std::size_t& cur = cursor[best];
    const std::int32_t pos = buf[cur].pos;
    while (cur < buf.size() && buf[cur].pos == pos) out.push_back(buf[cur++]);
  }
}

FrameworkDriver::FrameworkDriver(const Graph& g, MatchingOracle& oracle,
                                 const CoreConfig& cfg,
                                 RebuildParticipation* participation)
    : g_(g),
      oracle_(oracle),
      cfg_(cfg),
      participation_(participation != nullptr ? participation
                                              : &flat_participation()),
      participants_(participation_->participants()),
      avg_degree_(g.num_vertices() > 0
                      ? (2 * g.num_edges() + g.num_vertices() - 1) /
                            g.num_vertices()
                      : 0),
      right_id_(static_cast<std::size_t>(g.num_vertices()), -1),
      last_left_(static_cast<std::size_t>(g.num_vertices()), -1) {}

bool FrameworkDriver::exhaustive() const {
  return cfg_.iteration_mode == IterationMode::kUntilEmpty &&
         stats_.truncated_loops == 0;
}

void FrameworkDriver::extend_active_path(StructureForest& forest) {
  // Stage candidates: the structures that can be eligible at some stage of
  // this pass-bundle. A structure that stops being able to extend stays so
  // for the rest of Extend-Active-Path (StructureInfo::can_extend), so each
  // stage's prepass reads this shrinking list instead of the whole forest.
  candidates_.clear();
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid)
    if (forest.structure(sid).can_extend()) candidates_.push_back(sid);
  if (cfg_.stage_split) {
    // Algorithm 5: stages s = 0 .. l_max; stage s handles s-feasible arcs
    // (Definition 5.7), i.e. type-3 arcs whose overtaker sits at level s.
    const int lmax = cfg_.ell_max();
    for (int s = 0; s <= lmax; ++s) run_stage(forest, s);
  } else {
    // [FMU22]-style ablation: one loop over all type-3 arcs, no stage split.
    run_stage(forest, -1);
  }
  // Per Remark 2 the trailing Contract-and-Augment of Algorithm 5 is skipped;
  // the phase engine invokes contract_and_augment right after this call.
}

void FrameworkDriver::discover(const StructureForest& forest, Sweep kind,
                               std::int64_t scan_vertices) {
  const std::int64_t nslots =
      static_cast<std::int64_t>(eligible_.size()) * participants_;
  if (slots_.size() < static_cast<std::size_t>(nslots))
    slots_.resize(static_cast<std::size_t>(nslots));
  const int threads = discovery_thread_gate(
      nslots, scan_vertices * avg_degree_, cfg_.threads);
  // One reference capture keeps the task inside std::function's small-object
  // buffer: no allocation on the inline path.
  struct Task {
    FrameworkDriver* self;
    const StructureForest* forest;
    Sweep kind;
  };
  const Task task{this, &forest, kind};
  parallel_for_threads(threads, nslots, [&task](std::int64_t slot) {
    task.self->scan_slot(*task.forest, task.kind, slot);
  });
}

void FrameworkDriver::scan_slot(const StructureForest& forest, Sweep kind,
                                std::int64_t slot) {
  const auto e = static_cast<std::size_t>(slot / participants_);
  const int shard = static_cast<int>(slot % participants_);
  const bool partitioned = participants_ > 1;
  std::vector<SweepArc>& arcs = slots_[static_cast<std::size_t>(slot)];
  arcs.clear();
  const Matching& m = forest.matching();
  if (kind == Sweep::kStage) {
    // H'_s (Definition 5.8): type-3 arcs from the working blossom to
    // inner/unvisited matched vertices x with label(x) > level + 1.
    const int level = eligible_level_[e];
    const auto begin = static_cast<std::size_t>(scan_begin_[e]);
    const auto end = static_cast<std::size_t>(scan_begin_[e + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      const Vertex w = scan_[i];
      if (partitioned && participation_->owner(w) != shard) continue;
      const auto wp = static_cast<std::int32_t>(i - begin);
      for (Vertex x : g_.neighbors(w)) {
        if (forest.is_removed(x) || m.mate(x) == kNoVertex) continue;
        if (m.mate(w) == x) continue;  // g must be unmatched
        if (!forest.is_unvisited(x) && !forest.is_inner(x)) continue;
        if (forest.label(x) <= level + 1) continue;
        arcs.push_back({wp, w, x, kNoStructure});
      }
    }
    return;
  }
  // H' (Definition 5.4): outer/outer arcs into other live structures.
  const StructureId sid = eligible_[e];
  const std::vector<Vertex>& members = forest.structure(sid).members;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Vertex w = members[i];
    if (partitioned && participation_->owner(w) != shard) continue;
    if (!forest.is_outer(w)) continue;
    const auto wp = static_cast<std::int32_t>(i);
    for (Vertex x : g_.neighbors(w)) {
      if (forest.is_removed(x)) continue;
      const StructureId sx = forest.structure_of(x);
      if (sx == kNoStructure || sx == sid || !forest.is_outer(x)) continue;
      arcs.push_back({wp, w, x, sx});
    }
  }
}

std::span<const SweepArc> FrameworkDriver::merged_arcs(std::size_t e) {
  const std::size_t base = e * static_cast<std::size_t>(participants_);
  if (participants_ == 1) return slots_[base];
  merged_.clear();
  participation_->merge(
      std::span<const std::vector<SweepArc>>(
          &slots_[base], static_cast<std::size_t>(participants_)),
      merged_);
  return merged_;
}

std::int32_t FrameworkDriver::structure_node(StructureId s) {
  std::int32_t& id = node_of_[static_cast<std::size_t>(s)];
  if (id < 0) {
    id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(s);
  }
  return id;
}

void FrameworkDriver::run_stage(StructureForest& forest, int stage) {
  ++stats_.stage_loops;
  const std::int64_t iteration_bound =
      cfg_.scheduled_iterations(oracle_.approx_factor());
  const BlossomArena& arena = forest.arena();

  std::int64_t iterations = 0;
  for (;;) {
    // Build the bipartite stage graph H'_s (Definition 5.8): left nodes are
    // working vertices of live structures at level `stage` that are neither
    // on hold nor already extended this pass-bundle; right nodes are
    // inner/unvisited matched vertices x with label(x) > level + 1.
    //
    // Serial prepass over the candidates (dropping the ones that left for
    // good): the eligible structures and their working blossoms' flat vertex
    // scans (blossom order, the merge's pos key).
    eligible_.clear();
    eligible_level_.clear();
    scan_.clear();
    scan_begin_.clear();
    std::size_t kept = 0;
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      const StructureId sid = candidates_[c];
      const StructureInfo& si = forest.structure(sid);
      if (!si.can_extend()) continue;
      candidates_[kept++] = sid;
      const int level = forest.outer_level(si.working);
      if (stage >= 0 && level != stage) continue;
      eligible_.push_back(sid);
      eligible_level_.push_back(level);
      scan_begin_.push_back(static_cast<std::int32_t>(scan_.size()));
      arena.collect_vertices(si.working, scan_);
    }
    candidates_.resize(kept);
    if (eligible_.empty()) {
      participation_->note_rebuild_gather(0);
      break;
    }
    scan_begin_.push_back(static_cast<std::int32_t>(scan_.size()));
    discover(forest, Sweep::kStage, static_cast<std::int64_t>(scan_.size()));

    // Serial coordinator merge in structure-id order, participant buffers
    // spliced per structure by scan position (the participation policy's
    // ordering obligation): left ids in sid order, right ids in
    // first-encounter order, and of repeated (left, right) pairs the first
    // witness — the last-left stamp spots a repeat, since one left's arcs
    // are contiguous.
    h_.edges.clear();
    witness_.clear();
    left_begin_.clear();
    left_level_.clear();
    rights_.clear();
    std::int64_t gathered = 0;
    for (std::size_t e = 0; e < eligible_.size(); ++e) {
      const std::span<const SweepArc> arcs = merged_arcs(e);
      if (arcs.empty()) continue;
      gathered += static_cast<std::int64_t>(arcs.size());
      const auto li = static_cast<std::int32_t>(left_begin_.size());
      left_begin_.push_back(static_cast<std::int32_t>(h_.edges.size()));
      left_level_.push_back(eligible_level_[e]);
      for (const SweepArc& a : arcs) {
        const auto xi = static_cast<std::size_t>(a.x);
        std::int32_t& rid = right_id_[xi];
        if (rid < 0) {
          rid = static_cast<std::int32_t>(rights_.size());
          rights_.push_back(a.x);
        } else if (last_left_[xi] == li) {
          continue;  // repeated (left, right) pair: the first witness stays
        }
        last_left_[xi] = li;
        h_.edges.emplace_back(li, rid);
        witness_.emplace_back(a.w, a.x);
      }
    }
    participation_->note_rebuild_gather(
        gathered * static_cast<std::int64_t>(sizeof(SweepArc)));
    for (const Vertex x : rights_) right_id_[static_cast<std::size_t>(x)] = -1;
    if (h_.edges.empty()) break;

    const auto num_left = static_cast<std::int32_t>(left_begin_.size());
    left_begin_.push_back(static_cast<std::int32_t>(h_.edges.size()));
    h_.n = num_left + static_cast<std::int32_t>(rights_.size());
    for (auto& edge : h_.edges) edge.second += num_left;

    const OracleMatching found = oracle_.find_matching(h_);
    ++stats_.stage_iterations;
    ++iterations;
    if (observer_)
      observer_({stage, h_.n, static_cast<std::int64_t>(h_.edges.size()),
                 static_cast<std::int64_t>(found.size())});

    // Map matched H-edges back to witness arcs through the left's edge range
    // and perform Overtake on each (Lemma B.1 guarantees they stay
    // s-feasible as we go; can_overtake re-validates defensively). Pairs that
    // are not edges of H'_s — out-of-contract answers — are skipped.
    std::int64_t applied = 0;
    for (const auto& [a, b] : found) {
      const std::int32_t l = std::min(a, b);
      const std::int32_t r = std::max(a, b);
      if (l < 0 || l >= num_left || r < num_left || r >= h_.n) continue;
      const auto lu = static_cast<std::size_t>(l);
      const auto first = h_.edges.begin() + left_begin_[lu];
      const auto last = h_.edges.begin() + left_begin_[lu + 1];
      const auto it = std::find_if(
          first, last, [r](const auto& edge) { return edge.second == r; });
      if (it == last) continue;  // oracle returned a non-edge
      const auto [w, x] = witness_[static_cast<std::size_t>(it - h_.edges.begin())];
      const int k = left_level_[lu] + 1;
      if (forest.can_overtake(w, x, k)) {
        forest.overtake(w, x, k);
        ++applied;
      }
    }
    if (found.empty() || applied == 0) {
      ++stats_.truncated_loops;
      break;
    }
    if (cfg_.iteration_mode == IterationMode::kPaperBound &&
        iterations >= iteration_bound) {
      ++stats_.truncated_loops;
      break;
    }
  }
}

void FrameworkDriver::run_local_contractions(StructureForest& forest) {
  // Step 1 of Contract-and-Augment: exhaust type-1 arcs. Only arcs incident
  // to a working vertex qualify (Definition 5.2), so it suffices to rescan
  // the (growing) working blossom after each contraction.
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    bool changed = true;
    while (changed) {
      changed = false;
      const StructureInfo& si = forest.structure(sid);
      if (si.removed || si.working == kNoBlossom) break;
      scan_.clear();
      forest.arena().collect_vertices(si.working, scan_);
      for (Vertex w : scan_) {
        for (Vertex x : g_.neighbors(w)) {
          if (forest.can_contract(w, x)) {
            forest.contract(w, x);
            changed = true;
            break;
          }
        }
        if (changed) break;
      }
    }
  }
}

bool FrameworkDriver::frontier_proves_empty(const StructureForest& forest) const {
  const std::int64_t mark = forest.empty_structure_graph_mark();
  if (mark < 0) return false;
  const std::vector<Vertex>& log = forest.change_log();
  for (auto i = static_cast<std::size_t>(mark); i < log.size(); ++i) {
    const Vertex w = log[i];
    if (!forest.is_outer(w)) continue;
    const StructureId sw = forest.structure_of(w);
    for (Vertex x : g_.neighbors(w)) {
      const StructureId sx = forest.structure_of(x);
      if (sx != kNoStructure && sx != sw && forest.is_outer(x)) return false;
    }
  }
  return true;
}

std::int64_t FrameworkDriver::sweep_structure_graph(const StructureForest& forest) {
  // Serial prepass: every live structure scans its members.
  eligible_.clear();
  keyed_.clear();
  std::int64_t scan_vertices = 0;
  for (StructureId sid = 0; sid < forest.num_structures(); ++sid) {
    const StructureInfo& si = forest.structure(sid);
    if (si.removed) continue;
    eligible_.push_back(sid);
    scan_vertices += static_cast<std::int64_t>(si.members.size());
  }
  if (eligible_.empty()) return 0;
  discover(forest, Sweep::kAugment, scan_vertices);

  // Serial coordinator merge in structure-id order (buffers spliced per
  // structure by member position): node ids in first-encounter order, one
  // keyed arc per candidate in emission order.
  nodes_.clear();
  std::int64_t gathered = 0;
  for (std::size_t e = 0; e < eligible_.size(); ++e) {
    const std::span<const SweepArc> arcs = merged_arcs(e);
    gathered += static_cast<std::int64_t>(arcs.size());
    for (const SweepArc& a : arcs) {
      const std::int32_t ia = structure_node(eligible_[e]);
      const std::int32_t ib = structure_node(a.sx);
      keyed_.push_back({pair_key(ia, ib),
                        static_cast<std::int32_t>(keyed_.size()), a.w, a.x});
    }
  }
  for (const StructureId s : nodes_) node_of_[static_cast<std::size_t>(s)] = -1;
  return gathered;
}

void FrameworkDriver::run_augment_loop(StructureForest& forest) {
  // Step 2 of Contract-and-Augment (Algorithm 4): iterate A_matching on the
  // structure graph H' (Definition 5.4) and Augment along each matched pair.
  const std::int64_t iteration_bound =
      cfg_.scheduled_iterations(oracle_.approx_factor());
  const auto ns = static_cast<std::size_t>(forest.num_structures());
  if (node_of_.size() < ns) node_of_.resize(ns, -1);

  // Frontier gate (file comment): H' empty without a full sweep. The ledger
  // sees what the empty full sweep would have charged.
  if (frontier_proves_empty(forest)) {
    if (cfg_.check_invariants)
      BMF_ASSERT_MSG(sweep_structure_graph(forest) == 0,
                     "frontier gate proved a non-empty H' empty");
    forest.mark_structure_graph_empty();
    participation_->note_rebuild_gather(0);
    return;
  }

  std::int64_t iterations = 0;
  for (;;) {
    ++stats_.augment_sweeps;
    const std::int64_t gathered = sweep_structure_graph(forest);
    participation_->note_rebuild_gather(
        gathered * static_cast<std::int64_t>(sizeof(SweepArc)));
    if (keyed_.empty()) {
      forest.mark_structure_graph_empty();
      break;
    }

    // One edge per structure pair, its first arc the witness; edges in key
    // order, so the oracle input is a pure function of the structure graph.
    std::sort(keyed_.begin(), keyed_.end(),
              [](const KeyedArc& x, const KeyedArc& y) {
                return x.key != y.key ? x.key < y.key : x.seq < y.seq;
              });
    keyed_.erase(std::unique(keyed_.begin(), keyed_.end(),
                             [](const KeyedArc& x, const KeyedArc& y) {
                               return x.key == y.key;
                             }),
                 keyed_.end());
    h_.n = static_cast<std::int32_t>(nodes_.size());
    h_.edges.clear();
    for (const KeyedArc& k : keyed_)
      h_.edges.emplace_back(static_cast<std::int32_t>(k.key >> 31),
                            static_cast<std::int32_t>(k.key & ((1LL << 31) - 1)));
    const OracleMatching found = oracle_.find_matching(h_);
    ++stats_.ca_iterations;
    ++iterations;
    if (observer_)
      observer_({-1, h_.n, static_cast<std::int64_t>(h_.edges.size()),
                 static_cast<std::int64_t>(found.size())});

    std::int64_t applied = 0;
    for (const auto& [a, b] : found) {
      const std::int64_t key = pair_key(a, b);
      const auto it = std::lower_bound(
          keyed_.begin(), keyed_.end(), key,
          [](const KeyedArc& k, std::int64_t want) { return k.key < want; });
      if (it == keyed_.end() || it->key != key) continue;  // not an H' edge
      if (forest.can_augment(it->w, it->x)) {
        forest.augment(it->w, it->x);
        ++applied;
      }
    }
    if (found.empty() || applied == 0) {
      ++stats_.truncated_loops;
      forest.clear_structure_graph_mark();
      break;
    }
    if (cfg_.iteration_mode == IterationMode::kPaperBound &&
        iterations >= iteration_bound) {
      ++stats_.truncated_loops;
      forest.clear_structure_graph_mark();
      break;
    }
  }
}

void FrameworkDriver::contract_and_augment(StructureForest& forest) {
  run_local_contractions(forest);
  run_augment_loop(forest);
}

Matching framework_initial_matching(const Graph& g, MatchingOracle& oracle,
                                    const CoreConfig& cfg) {
  Matching m(g.num_vertices());
  const auto bound = static_cast<std::int64_t>(2.0 * oracle.approx_factor()) + 1;
  const std::span<const Edge> edges = g.edges();
  // Chunked parallel filter of the free-free subgraph; chunk buffers merge in
  // chunk order, so the edge sequence equals the serial scan for any chunk
  // count (the chunk count itself never changes the output).
  const int filter_threads = gated_threads(static_cast<std::int64_t>(edges.size()),
                                           kParallelEdgeFilterMin, cfg.threads);
  const std::int64_t nchunks =
      ThreadPool::resolve_threads(filter_threads) > 1
          ? static_cast<std::int64_t>(ThreadPool::resolve_threads(cfg.threads)) * 4
          : 1;
  for (std::int64_t i = 0;; ++i) {
    OracleGraph h;
    h.n = g.num_vertices();
    if (nchunks > 1) {
      std::vector<std::vector<std::pair<std::int32_t, std::int32_t>>> chunks(
          static_cast<std::size_t>(nchunks));
      const auto total = static_cast<std::int64_t>(edges.size());
      // filter_threads, not cfg.threads: nchunks > 1 already implies the gate
      // passed, but the fan-out must route through the gated count so the
      // size-gate discipline is uniform (and machine-checkable).
      parallel_for_threads(filter_threads, nchunks, [&](std::int64_t c) {
        const std::int64_t lo = total * c / nchunks;
        const std::int64_t hi = total * (c + 1) / nchunks;
        auto& out = chunks[static_cast<std::size_t>(c)];
        for (std::int64_t e = lo; e < hi; ++e) {
          const Edge& edge = edges[static_cast<std::size_t>(e)];
          if (m.is_free(edge.u) && m.is_free(edge.v))
            out.emplace_back(edge.u, edge.v);
        }
      });
      for (const auto& chunk : chunks)
        h.edges.insert(h.edges.end(), chunk.begin(), chunk.end());
    } else {
      for (const Edge& e : edges)
        if (m.is_free(e.u) && m.is_free(e.v)) h.edges.emplace_back(e.u, e.v);
    }
    if (h.edges.empty()) break;
    const OracleMatching found = oracle.find_matching(h);
    if (found.empty()) break;
    for (const auto& [u, v] : found)
      if (m.is_free(u) && m.is_free(v)) m.add(u, v);
    if (cfg.iteration_mode == IterationMode::kPaperBound && i + 1 >= bound) break;
  }
  return m;
}

BoostResult boost_matching(const Graph& g, MatchingOracle& oracle,
                           const CoreConfig& cfg) {
  const std::int64_t calls_before = oracle.calls();
  BoostResult result{framework_initial_matching(g, oracle, cfg), {}, {}, 0, 0};
  result.initial_oracle_calls = oracle.calls() - calls_before;

  FrameworkDriver driver(g, oracle, cfg);
  PhaseEngine engine(g, cfg);
  result.outcome = engine.run(result.matching, driver);
  result.stats = driver.stats();
  result.total_oracle_calls = oracle.calls() - calls_before;
  return result;
}

EnsembleResult boost_matching_ensemble(const Graph& g,
                                       const OracleFactory& make_oracle,
                                       const CoreConfig& cfg, int repetitions) {
  BMF_REQUIRE(repetitions >= 1, "boost_matching_ensemble: need >= 1 repetition");
  BMF_REQUIRE(make_oracle != nullptr, "boost_matching_ensemble: null factory");

  // Split per-repetition seeds serially up front; the fan-out below must not
  // touch shared randomness.
  Rng seeder(cfg.seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(repetitions));
  for (auto& s : seeds) s = seeder.next();

  std::vector<BoostResult> slots(static_cast<std::size_t>(repetitions));
  // Each repetition is a full boost run — worth a pool thread whenever there
  // are at least two; slots are per-repetition, so the fan-out is
  // output-invariant.
  const int ensemble_threads =
      gated_threads(static_cast<std::int64_t>(repetitions), 2, cfg.threads);
  parallel_for_threads(ensemble_threads, repetitions, [&](std::int64_t r) {
    CoreConfig local = cfg;
    local.seed = seeds[static_cast<std::size_t>(r)];
    local.threads = 1;  // repetitions already occupy the pool; don't nest
    const std::unique_ptr<MatchingOracle> oracle = make_oracle(local.seed);
    slots[static_cast<std::size_t>(r)] = boost_matching(g, *oracle, local);
  });

  EnsembleResult result;
  result.sizes.reserve(static_cast<std::size_t>(repetitions));
  for (int r = 0; r < repetitions; ++r) {
    const std::int64_t size = slots[static_cast<std::size_t>(r)].matching.size();
    result.sizes.push_back(size);
    if (result.best_repetition < 0 ||
        size > result.sizes[static_cast<std::size_t>(result.best_repetition)])
      result.best_repetition = r;
  }
  result.best = std::move(slots[static_cast<std::size_t>(result.best_repetition)]);
  return result;
}

}  // namespace bmf
