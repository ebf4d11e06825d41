#include "graph/dyn_graph.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace bmf {
namespace {

void require_valid(const EdgeUpdate& up, Vertex n) {
  BMF_REQUIRE(up.u >= 0 && up.u < n && up.v >= 0 && up.v < n && up.u != up.v,
              "DynGraph: invalid edge update");
}

/// Batches below this size replay inline: the pool round-trip costs more
/// than the work, and every parallel site here is output-invariant in the
/// thread count (see gated_threads).
constexpr std::int64_t kSmallBatchMin = 32;

int effective_threads(std::size_t work, int threads) {
  return gated_threads(static_cast<std::int64_t>(work), kSmallBatchMin, threads);
}

}  // namespace

DynGraph::DynGraph(Vertex num_vertices)
    : n_(num_vertices), adj_(static_cast<std::size_t>(num_vertices)) {
  BMF_REQUIRE(num_vertices >= 0, "DynGraph: negative vertex count");
}

void DynGraph::link(Vertex u, Vertex v) {
  auto& a = adj_[static_cast<std::size_t>(u)];
  a.insert(std::lower_bound(a.begin(), a.end(), v), v);
}

void DynGraph::unlink(Vertex u, Vertex v) {
  auto& a = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(a.begin(), a.end(), v);
  BMF_ASSERT(it != a.end() && *it == v);
  a.erase(it);
}

bool DynGraph::insert(Vertex u, Vertex v) {
  BMF_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
              "DynGraph::insert: invalid edge");
  auto& a = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(a.begin(), a.end(), v);
  if (it != a.end() && *it == v) return false;
  a.insert(it, v);
  link(v, u);
  ++m_;
  return true;
}

bool DynGraph::erase(Vertex u, Vertex v) {
  BMF_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_ && u != v,
              "DynGraph::erase: invalid edge");
  auto& a = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(a.begin(), a.end(), v);
  if (it == a.end() || *it != v) return false;
  a.erase(it);
  unlink(v, u);
  --m_;
  return true;
}

bool DynGraph::has_edge(Vertex u, Vertex v) const {
  if (u < 0 || v < 0 || u >= n_ || v >= n_ || u == v) return false;
  const auto& a = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(a.begin(), a.end(), v);
}

Graph DynGraph::snapshot() const {
  GraphBuilder b(n_);
  for (Vertex u = 0; u < n_; ++u)
    for (Vertex v : adj_[static_cast<std::size_t>(u)])
      if (u < v) b.add_edge(u, v);
  return b.build();
}

std::vector<std::uint8_t> DynGraph::resolve_structural(
    std::span<const EdgeUpdate> updates, int threads) const {
  std::vector<std::uint8_t> flags(updates.size(), 0);
  // (canonical edge key, batch index), grouped by key with batch order kept
  // inside each group.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (updates[i].empty()) continue;
    require_valid(updates[i], n_);
    keyed.emplace_back(edge_key(updates[i].u, updates[i].v),
                       static_cast<std::uint32_t>(i));
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::size_t> group_begin;
  for (std::size_t i = 0; i < keyed.size(); ++i)
    if (i == 0 || keyed[i].first != keyed[i - 1].first) group_begin.push_back(i);
  group_begin.push_back(keyed.size());

  parallel_for_threads(
      effective_threads(group_begin.size() - 1, threads),
      static_cast<std::int64_t>(group_begin.size()) - 1,
      [&](std::int64_t g) {
        const std::size_t begin = group_begin[static_cast<std::size_t>(g)];
        const std::size_t end = group_begin[static_cast<std::size_t>(g) + 1];
        const EdgeUpdate& first = updates[keyed[begin].second];
        bool present = has_edge(first.u, first.v);
        for (std::size_t k = begin; k < end; ++k) {
          const std::uint32_t i = keyed[k].second;
          if (updates[i].insert != present) {
            flags[i] = 1;
            present = updates[i].insert;
          }
        }
      });
  return flags;
}

void for_each_incident_by_vertex(
    std::span<const EdgeUpdate> updates, std::span<const std::uint8_t> structural,
    int threads, const std::function<void(Vertex, Vertex, bool)>& fn) {
  BMF_REQUIRE(structural.size() == updates.size(),
              "for_each_incident_by_vertex: flag span size mismatch");
  // Both directed copies of every structural update, grouped by first vertex
  // with batch order kept inside each group.
  std::vector<std::pair<Vertex, std::uint32_t>> ops;
  ops.reserve(2 * updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (!structural[i]) continue;
    ops.emplace_back(updates[i].u, static_cast<std::uint32_t>(i));
    ops.emplace_back(updates[i].v, static_cast<std::uint32_t>(i));
  }
  std::sort(ops.begin(), ops.end());
  std::vector<std::size_t> group_begin;
  for (std::size_t i = 0; i < ops.size(); ++i)
    if (i == 0 || ops[i].first != ops[i - 1].first) group_begin.push_back(i);
  group_begin.push_back(ops.size());

  parallel_for_threads(
      effective_threads(group_begin.size() - 1, threads),
      static_cast<std::int64_t>(group_begin.size()) - 1,
      [&](std::int64_t g) {
        const std::size_t begin = group_begin[static_cast<std::size_t>(g)];
        const std::size_t end = group_begin[static_cast<std::size_t>(g) + 1];
        const Vertex vertex = ops[begin].first;
        for (std::size_t k = begin; k < end; ++k) {
          const EdgeUpdate& up = updates[ops[k].second];
          fn(vertex, up.u == vertex ? up.v : up.u, up.insert);
        }
      });
}

void DynGraph::apply_structural(std::span<const EdgeUpdate> updates,
                                std::span<const std::uint8_t> structural,
                                int threads) {
  BMF_REQUIRE(structural.size() == updates.size(),
              "DynGraph::apply_structural: flag span size mismatch");
  std::int64_t delta = 0;
  for (std::size_t i = 0; i < updates.size(); ++i)
    if (structural[i]) delta += updates[i].insert ? 1 : -1;
  for_each_incident_by_vertex(updates, structural, threads,
                              [this](Vertex vertex, Vertex other, bool ins) {
                                if (ins)
                                  link(vertex, other);
                                else
                                  unlink(vertex, other);
                              });
  m_ += delta;
}

void DynGraph::apply_structural_disjoint(std::span<const EdgeUpdate> updates,
                                         std::span<const std::uint8_t> structural) {
  BMF_REQUIRE(structural.size() == updates.size(),
              "DynGraph::apply_structural_disjoint: flag span size mismatch");
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (!structural[i]) continue;
    const EdgeUpdate& up = updates[i];
    if (up.insert) {
      link(up.u, up.v);
      link(up.v, up.u);
      ++m_;
    } else {
      unlink(up.u, up.v);
      unlink(up.v, up.u);
      --m_;
    }
  }
}

}  // namespace bmf
