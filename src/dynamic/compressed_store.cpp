#include "dynamic/compressed_store.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bmf {

namespace {

void insert_sorted(std::vector<Vertex>& xs, Vertex y) {
  const auto it = std::lower_bound(xs.begin(), xs.end(), y);
  BMF_ASSERT(it == xs.end() || *it != y);
  xs.insert(it, y);
}

void erase_sorted(std::vector<Vertex>& xs, Vertex y) {
  const auto it = std::lower_bound(xs.begin(), xs.end(), y);
  BMF_ASSERT(it != xs.end() && *it == y);
  xs.erase(it);
}

}  // namespace

CompressedAdjacencyStore::CompressedAdjacencyStore(Vertex n, WeakOracle& oracle)
    : n_(n),
      oracle_(oracle),
      offsets_(static_cast<std::size_t>(n) + 1, 0),
      delta_(static_cast<std::size_t>(n)),
      dirty_(static_cast<std::size_t>(n), 0) {
  BMF_REQUIRE(n >= 0, "CompressedAdjacencyStore: negative vertex count");
}

std::span<const Vertex> CompressedAdjacencyStore::csr_row(Vertex v) const {
  const auto begin = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v)]);
  const auto end = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(v) + 1]);
  return {csr_.data() + begin, end - begin};
}

bool CompressedAdjacencyStore::csr_contains(Vertex u, Vertex v) const {
  const std::span<const Vertex> row = csr_row(u);
  return std::binary_search(row.begin(), row.end(), v);
}

std::span<const Vertex> CompressedAdjacencyStore::neighbors(Vertex v) const {
  BMF_ASSERT(v >= 0 && v < n_);
  if (dirty_[static_cast<std::size_t>(v)])
    return delta_[static_cast<std::size_t>(v)].merged;
  return csr_row(v);
}

bool CompressedAdjacencyStore::has_edge(Vertex u, Vertex v) const {
  if (u < 0 || v < 0 || u >= n_ || v >= n_ || u == v) return false;
  const std::span<const Vertex> row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

void CompressedAdjacencyStore::materialize(Vertex v) {
  const auto k = static_cast<std::size_t>(v);
  if (dirty_[k]) return;
  const std::span<const Vertex> row = csr_row(v);
  delta_[k].merged.assign(row.begin(), row.end());
  dirty_[k] = 1;
}

void CompressedAdjacencyStore::insert_half(Vertex x, Vertex y) {
  materialize(x);
  DeltaRow& d = delta_[static_cast<std::size_t>(x)];
  insert_sorted(d.merged, y);
  if (csr_contains(x, y))
    erase_sorted(d.dels, y);  // re-insert of a base edge deleted this window
  else
    insert_sorted(d.adds, y);
}

void CompressedAdjacencyStore::erase_half(Vertex x, Vertex y) {
  materialize(x);
  DeltaRow& d = delta_[static_cast<std::size_t>(x)];
  erase_sorted(d.merged, y);
  if (csr_contains(x, y))
    insert_sorted(d.dels, y);
  else
    erase_sorted(d.adds, y);  // erase of an edge added this window
}

void CompressedAdjacencyStore::account_structural(const EdgeUpdate& up) {
  // A structural insert of a base edge shrinks both endpoints' del buffers;
  // a fresh edge grows both add buffers (and symmetrically for erases). The
  // CSR body is symmetric, so one containment probe covers both halves.
  const bool base = csr_contains(up.u, up.v);
  if (up.insert) {
    ++m_;
    ++stats_.delta_inserts;
    delta_entries_ += base ? -2 : 2;
  } else {
    --m_;
    ++stats_.delta_erases;
    delta_entries_ += base ? 2 : -2;
  }
  stats_.peak_delta_entries =
      std::max(stats_.peak_delta_entries, delta_entries_);
}

bool CompressedAdjacencyStore::insert_edge(Vertex u, Vertex v) {
  BMF_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
              "CompressedAdjacencyStore::insert: invalid edge");
  if (has_edge(u, v)) return false;
  account_structural(EdgeUpdate{u, v, true});
  insert_half(u, v);
  insert_half(v, u);
  return true;
}

bool CompressedAdjacencyStore::erase_edge(Vertex u, Vertex v) {
  BMF_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
              "CompressedAdjacencyStore::erase: invalid edge");
  if (!has_edge(u, v)) return false;
  account_structural(EdgeUpdate{u, v, false});
  erase_half(u, v);
  erase_half(v, u);
  return true;
}

bool CompressedAdjacencyStore::toggle(const EdgeUpdate& up) {
  if (up.insert) {
    if (!insert_edge(up.u, up.v)) return false;
    oracle_.on_insert(up.u, up.v);
  } else {
    if (!erase_edge(up.u, up.v)) return false;
    oracle_.on_erase(up.u, up.v);
  }
  return true;
}

void CompressedAdjacencyStore::apply_adjacency(
    std::span<const EdgeUpdate> updates,
    std::span<const std::uint8_t> structural) {
  BMF_REQUIRE(structural.size() == updates.size(),
              "CompressedAdjacencyStore::apply_adjacency: flag span size "
              "mismatch");
  // `csr_contains` is stable during the batch — the body only changes at
  // merge_deltas() — and the core's conflict-free prefix cut gives the
  // structural updates pairwise-disjoint endpoints.
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (!structural[i]) continue;
    const EdgeUpdate& up = updates[i];
    account_structural(up);
    if (up.insert) {
      insert_half(up.u, up.v);
      insert_half(up.v, up.u);
    } else {
      erase_half(up.u, up.v);
      erase_half(up.v, up.u);
    }
  }
}

void CompressedAdjacencyStore::apply_structural(
    std::span<const EdgeUpdate> updates,
    std::span<const std::uint8_t> structural) {
  apply_adjacency(updates, structural);
  oracle_.on_batch(updates, structural, /*threads=*/1);
}

void CompressedAdjacencyStore::flush_oracle(
    std::span<const EdgeUpdate> updates,
    std::span<const std::uint8_t> structural) {
  oracle_.on_batch(updates, structural, /*threads=*/1);
}

void CompressedAdjacencyStore::merge_deltas() {
  bool any_dirty = false;
  for (const std::uint8_t d : dirty_)
    if (d != 0) {
      any_dirty = true;
      break;
    }
  if (!any_dirty) return;

  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (Vertex v = 0; v < n_; ++v)
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[static_cast<std::size_t>(v)] +
        static_cast<std::int64_t>(neighbors(v).size());
  std::vector<Vertex> csr(static_cast<std::size_t>(offsets.back()));
  for (Vertex v = 0; v < n_; ++v) {
    const std::span<const Vertex> row = neighbors(v);
    std::copy(row.begin(), row.end(),
              csr.begin() + offsets[static_cast<std::size_t>(v)]);
  }
  offsets_ = std::move(offsets);
  csr_ = std::move(csr);

  ++stats_.merges;
  stats_.merged_entries += delta_entries_;
  delta_entries_ = 0;
  for (Vertex v = 0; v < n_; ++v) {
    const auto k = static_cast<std::size_t>(v);
    if (!dirty_[k]) continue;
    delta_[k].adds.clear();
    delta_[k].adds.shrink_to_fit();
    delta_[k].dels.clear();
    delta_[k].dels.shrink_to_fit();
    delta_[k].merged.clear();
    delta_[k].merged.shrink_to_fit();
    dirty_[k] = 0;
  }
  BMF_ASSERT(static_cast<std::int64_t>(csr_.size()) == 2 * m_);
}

Graph CompressedAdjacencyStore::snapshot() const {
  // Rebuild boundary: the core snapshots exactly once per Theorem 6.2
  // rebuild, on the caller thread, before the overlapped boost launches —
  // the one point where folding the delta buffers cannot race the overlap
  // window's apply_adjacency. The fold changes row storage, never row
  // content, so extra snapshots (facade accessors, tests) merely merge
  // early.
  const_cast<CompressedAdjacencyStore*>(this)->merge_deltas();
  GraphBuilder b(n_);
  for (Vertex u = 0; u < n_; ++u)
    for (const Vertex v : csr_row(u))
      if (u < v) b.add_edge(u, v);
  return b.build();
}

std::int64_t CompressedAdjacencyStore::csr_bytes() const {
  return static_cast<std::int64_t>(offsets_.size() * sizeof(std::int64_t) +
                                   csr_.size() * sizeof(Vertex));
}

std::int64_t CompressedAdjacencyStore::delta_bytes() const {
  std::int64_t entries = 0;
  for (const DeltaRow& d : delta_)
    entries += static_cast<std::int64_t>(d.adds.size() + d.dels.size() +
                                         d.merged.size());
  return entries * static_cast<std::int64_t>(sizeof(Vertex));
}

CompressedDynamicMatcher::CompressedDynamicMatcher(
    Vertex n, const CompressedMatcherConfig& cfg)
    : oracle_(n), store_(n, oracle_), core_(store_, [&] {
        validate_core_config(cfg, /*shards=*/1, "CompressedDynamicMatcher");
        return resolve_core_config(cfg);
      }()) {}

}  // namespace bmf
