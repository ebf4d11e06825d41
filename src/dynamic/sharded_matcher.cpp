#include "dynamic/sharded_matcher.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace bmf {

// ---------------------------------------------------------- VertexPartition

VertexPartition::VertexPartition(Vertex n, int shards)
    : n_(n),
      k_(shards),
      block_(n == 0 ? 0 : (n + static_cast<Vertex>(shards) - 1) /
                              static_cast<Vertex>(shards)) {
  BMF_REQUIRE(n >= 0, "VertexPartition: negative vertex count");
  BMF_REQUIRE(shards >= 1, "VertexPartition: shards must be >= 1");
}

// ------------------------------------------------------- ShardedMatrixOracle

ShardedMatrixOracle::ShardedMatrixOracle(Vertex n, int shards, int threads)
    : part_(n, shards), threads_(threads) {
  slices_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s)
    slices_.emplace_back(part_.size(s), n);
}

void ShardedMatrixOracle::on_insert(Vertex u, Vertex v) {
  const int su = part_.owner(u), sv = part_.owner(v);
  slices_[static_cast<std::size_t>(su)].set(u - part_.begin(su), v);
  slices_[static_cast<std::size_t>(sv)].set(v - part_.begin(sv), u);
}

void ShardedMatrixOracle::on_erase(Vertex u, Vertex v) {
  const int su = part_.owner(u), sv = part_.owner(v);
  slices_[static_cast<std::size_t>(su)].set(u - part_.begin(su), v, false);
  slices_[static_cast<std::size_t>(sv)].set(v - part_.begin(sv), u, false);
}

bool ShardedMatrixOracle::bit(Vertex u, Vertex v) const {
  const int su = part_.owner(u);
  return slices_[static_cast<std::size_t>(su)].get(u - part_.begin(su), v);
}

RoutedOps route_structural_ops(const VertexPartition& part,
                               std::span<const EdgeUpdate> updates,
                               std::span<const std::uint8_t> structural) {
  BMF_REQUIRE(structural.size() == updates.size(),
              "route_structural_ops: flag span size mismatch");
  // Route both directed copies of every structural update to the shard that
  // owns the row; appending while walking the batch in order leaves each
  // shard's op list sorted by update index, so a per-shard serial replay is
  // exactly the (shard-id, update-index)-ordered merge.
  RoutedOps out;
  out.per_shard.resize(static_cast<std::size_t>(part.shards()));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (!structural[i]) continue;
    const EdgeUpdate& up = updates[i];
    out.edge_delta += up.insert ? 1 : -1;
    out.per_shard[static_cast<std::size_t>(part.owner(up.u))].push_back(
        {up.u, up.v, up.insert});
    out.per_shard[static_cast<std::size_t>(part.owner(up.v))].push_back(
        {up.v, up.u, up.insert});
    out.total_ops += 2;
  }
  return out;
}

void ShardedMatrixOracle::on_batch(std::span<const EdgeUpdate> updates,
                                   std::span<const std::uint8_t> structural,
                                   int /*threads*/) {
  apply_ops(route_structural_ops(part_, updates, structural));
}

void ShardedMatrixOracle::apply_ops(const RoutedOps& ops) {
  for (std::size_t s = 0; s < ops.per_shard.size(); ++s) {
    BitMatrix& slice = slices_[s];
    const Vertex base = part_.begin(static_cast<int>(s));
    for (const ShardOp& op : ops.per_shard[s])
      slice.set(op.vertex - base, op.other, op.insert);
  }
}

std::int64_t ShardedMatrixOracle::probe(Vertex u, const BitVec& mask,
                                        std::int64_t* words) const {
  const int s = part_.owner(u);
  std::int64_t scanned = 0;
  const std::int64_t col = slices_[static_cast<std::size_t>(s)].first_common_in_row(
      u - part_.begin(s), mask, &scanned);
  *words += scanned;
  return col;
}

WeakQueryResult ShardedMatrixOracle::greedy(std::span<const Vertex> rows,
                                            BitVec& avail, bool consume_plus,
                                            double delta) {
  const auto count = static_cast<std::int64_t>(rows.size());
  // Speculative shard-local candidate scan against the pre-commit mask:
  // every row probes concurrently, results land in per-row slots.
  std::vector<std::int64_t> cand(rows.size(), -1), words(rows.size(), 0);
  parallel_for_threads(gated_threads(count, 16, threads_), count,
                       [&](std::int64_t i) {
                         const auto k = static_cast<std::size_t>(i);
                         cand[k] = probe(rows[k], avail, &words[k]);
                       });
  for (const std::int64_t w : words) words_touched_ += w;
  // The speculative per-row probe results travel from their owning shards to
  // the serial commit below: one candidate slot per row, one gather round per
  // query. (Inline re-probes are coordinator-side reads of already-gathered
  // rows and are not recharged.) Nothing crosses at a single shard.
  if (part_.shards() > 1) {
    query_gather_bytes_ +=
        count * static_cast<std::int64_t>(sizeof(std::int64_t));
    ++query_gather_rounds_;
  }

  // Serial greedy commit in row order. The mask only shrinks, so a
  // speculative candidate that is still available equals the live mask's
  // first common neighbor (its scan prefix is unchanged); a stale candidate
  // re-probes inline, which is verbatim the serial greedy's probe at this
  // row's turn. A -1 stays -1 against any smaller mask.
  WeakQueryResult out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Vertex u = rows[i];
    if (consume_plus && !avail.get(u)) continue;
    std::int64_t c = cand[i];
    if (c >= 0 && !avail.get(c)) c = probe(u, avail, &words_touched_);
    if (c < 0) continue;
    out.matching.push_back({u, static_cast<Vertex>(c)});
    if (consume_plus) avail.set(u, false);
    avail.set(c, false);
  }
  const double threshold =
      lambda() * delta * static_cast<double>(part_.num_vertices());
  out.bottom = static_cast<double>(out.matching.size()) < threshold;
  return out;
}

WeakQueryResult ShardedMatrixOracle::query_impl(std::span<const Vertex> s,
                                                double delta) {
  BitVec avail(part_.num_vertices());
  for (Vertex v : s) avail.set(v);
  // The adjacency diagonal is never set, so a probe cannot return its own
  // row even when that row is in the mask.
  return greedy(s, avail, /*consume_plus=*/true, delta);
}

WeakQueryResult ShardedMatrixOracle::query_cover_impl(
    std::span<const Vertex> s_plus, std::span<const Vertex> s_minus,
    double delta) {
  BitVec avail(part_.num_vertices());
  for (Vertex v : s_minus) avail.set(v);
  return greedy(s_plus, avail, /*consume_plus=*/false, delta);
}

// ----------------------------------------------------- ShardedAdjacencyStore

ShardedAdjacencyStore::ShardedAdjacencyStore(const VertexPartition& part,
                                             ShardedMatrixOracle& oracle)
    : part_(part), slices_(static_cast<std::size_t>(part.shards())),
      oracle_(oracle), participation_(part) {
  for (int s = 0; s < part_.shards(); ++s)
    slices_[static_cast<std::size_t>(s)].resize(
        static_cast<std::size_t>(part_.size(s)));
}

std::vector<Vertex>& ShardedAdjacencyStore::row(Vertex v) {
  const int s = part_.owner(v);
  return slices_[static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(v - part_.begin(s))];
}

const std::vector<Vertex>& ShardedAdjacencyStore::row(Vertex v) const {
  const int s = part_.owner(v);
  return slices_[static_cast<std::size_t>(s)]
                [static_cast<std::size_t>(v - part_.begin(s))];
}

void ShardedAdjacencyStore::link(Vertex u, Vertex v) {
  auto& a = row(u);
  a.insert(std::lower_bound(a.begin(), a.end(), v), v);
}

void ShardedAdjacencyStore::unlink(Vertex u, Vertex v) {
  auto& a = row(u);
  const auto it = std::lower_bound(a.begin(), a.end(), v);
  BMF_ASSERT(it != a.end() && *it == v);
  a.erase(it);
}

bool ShardedAdjacencyStore::has_edge(Vertex u, Vertex v) const {
  if (u < 0 || v < 0 || u >= part_.num_vertices() || v >= part_.num_vertices() ||
      u == v)
    return false;
  const auto& a = row(u);
  return std::binary_search(a.begin(), a.end(), v);
}

Graph ShardedAdjacencyStore::snapshot() const {
  GraphBuilder b(part_.num_vertices());
  for (Vertex u = 0; u < part_.num_vertices(); ++u)
    for (Vertex v : row(u))
      if (u < v) b.add_edge(u, v);
  return b.build();
}

bool ShardedAdjacencyStore::toggle(const EdgeUpdate& up) {
  const Vertex n = part_.num_vertices();
  BMF_REQUIRE(up.u >= 0 && up.u < n && up.v >= 0 && up.v < n && up.u != up.v,
              "ShardedDynamicMatcher: invalid edge update");
  if (up.insert) {
    if (has_edge(up.u, up.v)) return false;
    link(up.u, up.v);
    link(up.v, up.u);
    ++m_edges_;
    oracle_.on_insert(up.u, up.v);
  } else {
    if (!has_edge(up.u, up.v)) return false;
    unlink(up.u, up.v);
    unlink(up.v, up.u);
    --m_edges_;
    oracle_.on_erase(up.u, up.v);
  }
  // A serial toggle routes the update's two directed copies like a
  // one-element batch would (no-ops that toggle nothing send nothing).
  charge_route(2);
  return true;
}

void ShardedAdjacencyStore::charge_route(std::int64_t total_ops) {
  if (part_.shards() <= 1 || total_ops == 0) return;
  batch_bytes_ += total_ops * static_cast<std::int64_t>(sizeof(ShardOp));
  ++batch_rounds_;
}

void ShardedAdjacencyStore::apply_graph_ops(const RoutedOps& ops) {
  // Each shard replays the directed copies it owns in update order.
  for (const auto& shard_ops : ops.per_shard)
    for (const ShardOp& op : shard_ops) {
      if (op.insert)
        link(op.vertex, op.other);
      else
        unlink(op.vertex, op.other);
    }
  m_edges_ += ops.edge_delta;
}

void ShardedAdjacencyStore::apply_structural(
    std::span<const EdgeUpdate> updates, std::span<const std::uint8_t> structural) {
  // Route once; the op lists feed both the adjacency slices and the oracle
  // row ranges.
  const RoutedOps ops = route_structural_ops(part_, updates, structural);
  charge_route(ops.total_ops);
  apply_graph_ops(ops);
  oracle_.apply_ops(ops);
}

void ShardedAdjacencyStore::apply_adjacency(
    std::span<const EdgeUpdate> updates, std::span<const std::uint8_t> structural) {
  RoutedOps ops = route_structural_ops(part_, updates, structural);
  charge_route(ops.total_ops);
  apply_graph_ops(ops);
  // Keep the routing for the deferred flush_oracle over the same spans (the
  // rebuild-overlap path), so the common window routes once like
  // apply_structural does.
  pending_oracle_route_ = {updates.data(), structural.data(), updates.size(),
                           std::move(ops)};
}

void ShardedAdjacencyStore::flush_oracle(std::span<const EdgeUpdate> updates,
                                         std::span<const std::uint8_t> structural) {
  CachedRoute cached = std::exchange(pending_oracle_route_, {});
  if (cached.updates == updates.data() && cached.flags == structural.data() &&
      cached.count == updates.size()) {
    // The routed ops already crossed the boundary with apply_adjacency (which
    // charged them); replaying them into the oracle rows sends nothing new.
    oracle_.apply_ops(cached.ops);
    return;
  }
  // Cache miss (the misprediction-rewind suffix): a genuinely new routing
  // round crosses the boundary.
  const RoutedOps ops = route_structural_ops(part_, updates, structural);
  charge_route(ops.total_ops);
  oracle_.apply_ops(ops);
}

// ----------------------------------------------------- ShardedDynamicMatcher

namespace {

const ShardedMatcherConfig& validated(const ShardedMatcherConfig& cfg) {
  validate_core_config(cfg, cfg.shards, "ShardedDynamicMatcher");
  return cfg;
}

}  // namespace

ShardedDynamicMatcher::ShardedDynamicMatcher(Vertex n,
                                             const ShardedMatcherConfig& cfg)
    : part_(n, validated(cfg).shards),
      oracle_(n, cfg.shards, cfg.threads),
      store_(part_, oracle_),
      core_(store_, resolve_core_config(cfg)) {}

}  // namespace bmf
