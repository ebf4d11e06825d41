#include "core/structures.hpp"

#include <algorithm>
#include <deque>

#include "util/assert.hpp"

namespace bmf {

StructureForest::StructureForest(const Graph& g, const Matching& m,
                                 const CoreConfig& cfg)
    : g_(g), m_(m), cfg_(cfg), lmax_(cfg.ell_max()) {
  BMF_REQUIRE(m.num_vertices() == g.num_vertices(),
              "StructureForest: matching/graph size mismatch");
}

void StructureForest::init_phase() {
  const Vertex n = g_.num_vertices();
  arena_.reset(n);
  structures_.clear();
  paths_.clear();
  change_log_.clear();
  empty_h_mark_ = -1;
  vert_struct_.assign(static_cast<std::size_t>(n), kNoStructure);
  removed_.assign(static_cast<std::size_t>(n), 0);
  lab_.assign(static_cast<std::size_t>(n), 0);
  totals_ = OpCounts{};
  bundle_ops_ = 0;
  hold_seen_ = false;

  for (Vertex v = 0; v < n; ++v)
    if (!m_.is_free(v)) lab_[static_cast<std::size_t>(v)] = lmax_ + 1;

  for (Vertex v = 0; v < n; ++v) {
    if (!m_.is_free(v)) continue;
    const auto sid = static_cast<StructureId>(structures_.size());
    StructureInfo si;
    si.alpha = v;
    si.root = BlossomArena::trivial(v);
    si.working = si.root;
    si.size = 1;
    si.members = {v};
    structures_.push_back(std::move(si));
    BlossomNode& nb = arena_.node(BlossomArena::trivial(v));
    nb.structure = sid;
    nb.outer = true;
    vert_struct_[static_cast<std::size_t>(v)] = sid;
  }
}

void StructureForest::begin_pass_bundle(std::int64_t hold_limit) {
  for (StructureInfo& s : structures_) {
    if (s.removed) continue;
    s.on_hold = s.size >= hold_limit;
    if (s.on_hold) hold_seen_ = true;
    s.modified = false;
    s.extended = false;
  }
  bundle_ops_ = 0;
}

void StructureForest::mark_extended(StructureId s) {
  structures_[static_cast<std::size_t>(s)].extended = true;
  structures_[static_cast<std::size_t>(s)].modified = true;
}

void StructureForest::mark_modified(StructureId s) {
  structures_[static_cast<std::size_t>(s)].modified = true;
}

bool StructureForest::is_outer(Vertex v) const {
  if (structure_of(v) == kNoStructure) return false;
  return arena_.node(arena_.omega(v)).outer;
}

bool StructureForest::is_inner(Vertex v) const {
  if (structure_of(v) == kNoStructure) return false;
  return !arena_.node(arena_.omega(v)).outer;
}

int StructureForest::outer_level(BlossomId b) const {
  const BlossomNode& nb = arena_.node(b);
  BMF_ASSERT(nb.outer && nb.structure != kNoStructure);
  if (nb.tree_parent == kNoBlossom) return 0;
  // The matched arc entering b from its parent is (pe_u, base); its label is
  // stored at its tail pe_u.
  return lab_[static_cast<std::size_t>(nb.pe_u)];
}

std::vector<BlossomId> StructureForest::active_path(StructureId s) const {
  const StructureInfo& si = structures_[static_cast<std::size_t>(s)];
  std::vector<BlossomId> path;
  if (si.removed || si.working == kNoBlossom) return path;
  for (BlossomId b = si.working; b != kNoBlossom; b = arena_.node(b).tree_parent)
    path.push_back(b);
  std::reverse(path.begin(), path.end());
  BMF_ASSERT(path.front() == si.root);
  return path;
}

bool StructureForest::is_tree_ancestor(BlossomId anc, BlossomId b) const {
  for (BlossomId cur = b; cur != kNoBlossom; cur = arena_.node(cur).tree_parent)
    if (cur == anc) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Overtake (Section 4.5.3)
// ---------------------------------------------------------------------------

bool StructureForest::can_overtake(Vertex u, Vertex v, int k) const {
  if (u == v || is_removed(u) || is_removed(v)) return false;
  const StructureId su = structure_of(u);
  if (su == kNoStructure) return false;
  const StructureInfo& a = structures_[static_cast<std::size_t>(su)];
  const BlossomId bu = arena_.omega(u);
  // (P1) Omega(u) is the working vertex; context gating: Overtake only runs
  // inside Extend-Active-Path, which skips on-hold and already-extended
  // structures (Section 4.6 prose).
  if (a.working != bu || a.on_hold || a.extended) return false;
  // g must be an unmatched arc and a = (v, mate(v)) must exist and be
  // non-blossom (v a trivial root, checked below).
  if (m_.mate(u) == v) return false;
  const Vertex t = m_.mate(v);
  if (t == kNoVertex) return false;
  // (P3)
  if (k >= lab_[static_cast<std::size_t>(v)] || k < 1) return false;
  // (P2) Omega(v) is unvisited or an inner vertex.
  const StructureId sv = structure_of(v);
  if (sv == kNoStructure) return !is_removed(t);
  const BlossomId bv = arena_.omega(v);
  if (arena_.node(bv).outer) return false;
  BMF_ASSERT_MSG(bv == BlossomArena::trivial(v), "inner root blossom not trivial");
  // (P2) within the same structure, Omega(v) must not be an ancestor of
  // Omega(u); label monotonicity along the active path makes this redundant
  // for stage-built arcs, but the check keeps the operation safe for any
  // caller.
  if (sv == su && is_tree_ancestor(bv, bu)) return false;
  return true;
}

void StructureForest::overtake(Vertex u, Vertex v, int k) {
  BMF_ASSERT(can_overtake(u, v, k));
  const StructureId su = structure_of(u);
  StructureInfo& a = structures_[static_cast<std::size_t>(su)];
  const BlossomId bu = arena_.omega(u);
  const Vertex t = m_.mate(v);
  const StructureId sv = structure_of(v);

  if (sv == kNoStructure) {
    // Case 1: the matched arc (v, t) is unvisited. Both v and t join S_alpha
    // as fresh trivial blossoms; v becomes inner, t outer and the new working
    // vertex.
    const BlossomId bv = BlossomArena::trivial(v);
    const BlossomId bt = BlossomArena::trivial(t);
    BlossomNode& nv = arena_.node(bv);
    BlossomNode& nt = arena_.node(bt);
    nv.tree_parent = bu;
    nv.pe_u = u;
    nv.pe_v = v;
    nv.structure = su;
    nv.outer = false;
    nv.tree_children = {bt};
    nt.tree_parent = bv;
    nt.pe_u = v;
    nt.pe_v = t;
    nt.structure = su;
    nt.outer = true;
    nt.tree_children.clear();
    arena_.node(bu).tree_children.push_back(bv);
    vert_struct_[static_cast<std::size_t>(v)] = su;
    vert_struct_[static_cast<std::size_t>(t)] = su;
    a.members.push_back(v);
    a.members.push_back(t);
    a.size += 2;
    lab_[static_cast<std::size_t>(v)] = k;
    a.working = bt;
    change_log_.push_back(t);  // the new outer vertex (v joins inner)
    mark_extended(su);
    ++totals_.overtake_unvisited;
    ++bundle_ops_;
    return;
  }

  const BlossomId bv = BlossomArena::trivial(v);
  BlossomNode& nv = arena_.node(bv);
  BMF_ASSERT(nv.tree_children.size() == 1);
  const BlossomId tprime = nv.tree_children.front();

  if (sv == su) {
    // Case 2.1: re-assign the parent of v' as u' within the same structure.
    detach_from_parent(bv);
    nv.tree_parent = bu;
    nv.pe_u = u;
    nv.pe_v = v;
    arena_.node(bu).tree_children.push_back(bv);
    lab_[static_cast<std::size_t>(v)] = k;
    a.working = tprime;
    mark_extended(su);
    ++totals_.overtake_same;
    ++bundle_ops_;
    return;
  }

  // Case 2.2: steal the subtree rooted at v' from S_beta. Following the
  // Section 4.5 preamble and Lemma B.1, the overtaker S_alpha is marked
  // extended and the victim S_beta modified only (the Case 2.2 sentence in
  // the paper swaps them; the rest of the paper relies on this reading).
  StructureInfo& b = structures_[static_cast<std::size_t>(sv)];
  const bool working_moved =
      b.working != kNoBlossom && is_tree_ancestor(bv, b.working);
  const BlossomId old_parent = nv.tree_parent;
  BMF_ASSERT(old_parent != kNoBlossom && arena_.node(old_parent).outer);
  detach_from_parent(bv);
  move_subtree(bv, sv, su);
  nv.tree_parent = bu;
  nv.pe_u = u;
  nv.pe_v = v;
  arena_.node(bu).tree_children.push_back(bv);
  lab_[static_cast<std::size_t>(v)] = k;
  if (working_moved) {
    // Step 5: the victim's working vertex travels with the subtree.
    a.working = b.working;
    b.working = old_parent;
  } else {
    a.working = tprime;
  }
  mark_extended(su);
  mark_modified(sv);
  ++totals_.overtake_steal;
  ++bundle_ops_;
}

void StructureForest::detach_from_parent(BlossomId b) {
  BlossomNode& nb = arena_.node(b);
  if (nb.tree_parent == kNoBlossom) return;
  auto& siblings = arena_.node(nb.tree_parent).tree_children;
  const auto it = std::find(siblings.begin(), siblings.end(), b);
  BMF_ASSERT(it != siblings.end());
  siblings.erase(it);
  nb.tree_parent = kNoBlossom;
}

void StructureForest::move_subtree(BlossomId sub_root, StructureId from,
                                   StructureId to) {
  StructureInfo& src = structures_[static_cast<std::size_t>(from)];
  StructureInfo& dst = structures_[static_cast<std::size_t>(to)];
  std::int64_t moved = 0;
  std::deque<BlossomId> queue{sub_root};
  std::vector<Vertex> verts;
  while (!queue.empty()) {
    const BlossomId b = queue.front();
    queue.pop_front();
    arena_.node(b).structure = to;
    verts.clear();
    arena_.collect_vertices(b, verts);
    for (Vertex w : verts) {
      vert_struct_[static_cast<std::size_t>(w)] = to;
      dst.members.push_back(w);
      change_log_.push_back(w);
      ++moved;
    }
    for (BlossomId c : arena_.node(b).tree_children) queue.push_back(c);
  }
  std::erase_if(src.members, [&](Vertex w) {
    return vert_struct_[static_cast<std::size_t>(w)] != from;
  });
  src.size -= moved;
  dst.size += moved;
  BMF_ASSERT(src.size == static_cast<std::int64_t>(src.members.size()));
}

// ---------------------------------------------------------------------------
// Contract (Section 4.5.2)
// ---------------------------------------------------------------------------

bool StructureForest::can_contract(Vertex u, Vertex v) const {
  if (u == v || is_removed(u) || is_removed(v)) return false;
  const StructureId su = structure_of(u);
  if (su == kNoStructure || structure_of(v) != su) return false;
  const StructureInfo& a = structures_[static_cast<std::size_t>(su)];
  const BlossomId bu = arena_.omega(u);
  if (a.working != bu) return false;
  const BlossomId bv = arena_.omega(v);
  if (bv == bu || !arena_.node(bv).outer) return false;
  if (m_.mate(u) == v) return false;
  return true;
}

void StructureForest::contract(Vertex u, Vertex v) {
  BMF_ASSERT(can_contract(u, v));
  const StructureId su = structure_of(u);
  StructureInfo& a = structures_[static_cast<std::size_t>(su)];
  const BlossomId bu = arena_.omega(u);
  const BlossomId bv = arena_.omega(v);

  // Find the tree LCA of bu and bv (Lemma 3.7: T' + {g'} has a unique
  // blossom, the tree cycle closed by g').
  std::vector<BlossomId> anc_u;
  for (BlossomId b = bu; b != kNoBlossom; b = arena_.node(b).tree_parent)
    anc_u.push_back(b);
  auto on_u_path = [&](BlossomId b) {
    return std::find(anc_u.begin(), anc_u.end(), b) != anc_u.end();
  };
  BlossomId lca = kNoBlossom;
  std::vector<BlossomId> v_side;  // bv, ..., child-of-lca (bottom-up)
  for (BlossomId b = bv; b != kNoBlossom; b = arena_.node(b).tree_parent) {
    if (on_u_path(b)) {
      lca = b;
      break;
    }
    v_side.push_back(b);
  }
  BMF_ASSERT(lca != kNoBlossom);
  std::vector<BlossomId> u_side;  // bu, ..., child-of-lca (bottom-up)
  for (BlossomId b = bu; b != lca; b = arena_.node(b).tree_parent)
    u_side.push_back(b);

  // Assemble the odd cycle A_0 = lca, (lca -> bu), g, (bv -> lca); see
  // Definition 3.4 for the matched/unmatched pattern the edges must follow.
  std::vector<BlossomId> cycle{lca};
  std::vector<Edge> cycle_edges;
  for (auto it = u_side.rbegin(); it != u_side.rend(); ++it) {
    const BlossomNode& nb = arena_.node(*it);
    cycle_edges.push_back({nb.pe_u, nb.pe_v});  // parent-side first
    cycle.push_back(*it);
  }
  cycle_edges.push_back({u, v});  // the contracting arc e_p
  for (BlossomId b : v_side) {
    cycle.push_back(b);
    const BlossomNode& nb = arena_.node(b);
    cycle_edges.push_back({nb.pe_v, nb.pe_u});  // child-side first going up
  }
  BMF_ASSERT(cycle.size() == cycle_edges.size());
  BMF_ASSERT(cycle.size() % 2 == 1 && cycle.size() >= 3);

  // Stash tree linkage of the lca before it stops being a root blossom.
  const BlossomId lca_parent = arena_.node(lca).tree_parent;
  const Vertex lca_pe_u = arena_.node(lca).pe_u;
  const Vertex lca_pe_v = arena_.node(lca).pe_v;

  // The cycle's inner (hence trivial) members turn outer with the blossom.
  for (BlossomId cb : cycle)
    if (!arena_.node(cb).outer) change_log_.push_back(arena_.node(cb).vert);

  // Collect hanging tree children of all cycle members (children that are not
  // themselves on the cycle) before rewiring.
  if (lca_parent != kNoBlossom) detach_from_parent(lca);
  const BlossomId nb_id = arena_.make_composite(cycle, std::move(cycle_edges));
  std::vector<BlossomId> hanging;
  for (BlossomId cb : arena_.node(nb_id).cycle) {
    for (BlossomId ch : arena_.node(cb).tree_children)
      if (arena_.node(ch).parent != nb_id) hanging.push_back(ch);
  }

  BlossomNode& bn = arena_.node(nb_id);
  bn.tree_parent = kNoBlossom;
  bn.pe_u = lca_pe_u;
  bn.pe_v = lca_pe_v;
  bn.structure = su;
  bn.outer = true;
  bn.tree_children = hanging;
  for (BlossomId ch : hanging) arena_.node(ch).tree_parent = nb_id;
  if (lca_parent != kNoBlossom) {
    bn.tree_parent = lca_parent;
    arena_.node(lca_parent).tree_children.push_back(nb_id);
  } else {
    BMF_ASSERT(a.root == lca);
    a.root = nb_id;
  }
  // Retire the tree fields of the absorbed cycle members.
  for (BlossomId cb : bn.cycle) {
    BlossomNode& cn = arena_.node(cb);
    cn.tree_parent = kNoBlossom;
    cn.tree_children.clear();
    cn.pe_u = cn.pe_v = kNoVertex;
  }

  // Matched arcs inside E_B drop to label 0 (Section 4.5.2).
  for (Vertex w : arena_.vertices(nb_id)) {
    const Vertex mw = m_.mate(w);
    if (mw != kNoVertex && arena_.omega(mw) == nb_id)
      lab_[static_cast<std::size_t>(w)] = 0;
  }

  a.working = nb_id;
  mark_extended(su);
  ++totals_.contracts;
  ++bundle_ops_;
}

// ---------------------------------------------------------------------------
// Augment (Section 4.5.1)
// ---------------------------------------------------------------------------

bool StructureForest::can_augment(Vertex u, Vertex v) const {
  if (u == v || is_removed(u) || is_removed(v)) return false;
  const StructureId su = structure_of(u);
  const StructureId sv = structure_of(v);
  if (su == kNoStructure || sv == kNoStructure || su == sv) return false;
  if (!is_outer(u) || !is_outer(v)) return false;
  BMF_ASSERT(m_.mate(u) != v);
  return true;
}

std::vector<Vertex> StructureForest::path_to_root(Vertex u) const {
  std::vector<Vertex> out;
  BlossomId b = arena_.omega(u);
  Vertex target = u;
  for (;;) {
    std::vector<Vertex> seg = arena_.even_path(b, target);
    std::reverse(seg.begin(), seg.end());  // target .. base(b)
    out.insert(out.end(), seg.begin(), seg.end());
    const BlossomNode& nb = arena_.node(b);
    if (nb.tree_parent == kNoBlossom) break;  // reached the root; base == alpha
    // Matched parent edge (p, base(b)); p is the inner parent vertex.
    const Vertex p = nb.pe_u;
    BMF_ASSERT(m_.mate(p) == nb.pe_v && nb.pe_v == arena_.base(b));
    out.push_back(p);
    const BlossomNode& inode = arena_.node(nb.tree_parent);
    BMF_ASSERT(inode.is_trivial() && inode.vert == p);
    BMF_ASSERT(inode.tree_parent != kNoBlossom);
    b = inode.tree_parent;
    target = inode.pe_u;  // unmatched edge (target, p) into the grandparent
  }
  return out;
}

void StructureForest::augment(Vertex u, Vertex v) {
  BMF_ASSERT(can_augment(u, v));
  const StructureId su = structure_of(u);
  const StructureId sv = structure_of(v);

  std::vector<Vertex> path = path_to_root(u);    // u .. alpha_a
  std::reverse(path.begin(), path.end());        // alpha_a .. u
  const std::vector<Vertex> tail = path_to_root(v);  // v .. alpha_b
  path.insert(path.end(), tail.begin(), tail.end());
  if (cfg_.check_invariants)
    BMF_ASSERT_MSG(is_augmenting_path(g_, m_, path), "augment produced bad path");
  paths_.push_back(std::move(path));

  for (StructureId s : {su, sv}) {
    StructureInfo& si = structures_[static_cast<std::size_t>(s)];
    for (Vertex w : si.members) removed_[static_cast<std::size_t>(w)] = 1;
    si.removed = true;
    si.working = kNoBlossom;
  }
  ++totals_.augments;
  ++bundle_ops_;
}

// ---------------------------------------------------------------------------
// Backtrack (Section 4.8)
// ---------------------------------------------------------------------------

void StructureForest::backtrack_stuck() {
  for (StructureInfo& s : structures_) {
    if (s.removed || s.on_hold || s.modified || s.working == kNoBlossom) continue;
    if (s.working == s.root) {
      s.working = kNoBlossom;
    } else {
      const BlossomId inner_parent = arena_.node(s.working).tree_parent;
      BMF_ASSERT(inner_parent != kNoBlossom);
      const BlossomId outer_grandparent = arena_.node(inner_parent).tree_parent;
      BMF_ASSERT(outer_grandparent != kNoBlossom);
      s.working = outer_grandparent;
    }
    ++totals_.backtracks;
    ++bundle_ops_;
  }
}

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

void StructureForest::check_invariants() const {
  const Vertex n = g_.num_vertices();
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);

  for (StructureId sid = 0; sid < num_structures(); ++sid) {
    const StructureInfo& s = structures_[static_cast<std::size_t>(sid)];
    if (s.removed) continue;
    BMF_ASSERT(m_.is_free(s.alpha));
    const BlossomNode& root = arena_.node(s.root);
    BMF_ASSERT(root.tree_parent == kNoBlossom);
    BMF_ASSERT(root.outer && root.structure == sid);
    BMF_ASSERT(root.base == s.alpha);

    std::int64_t count = 0;
    std::deque<BlossomId> queue{s.root};
    while (!queue.empty()) {
      const BlossomId b = queue.front();
      queue.pop_front();
      const BlossomNode& nb = arena_.node(b);
      BMF_ASSERT(nb.parent == kNoBlossom);  // must be a root blossom
      BMF_ASSERT(nb.structure == sid);
      for (Vertex w : arena_.vertices(b)) {
        BMF_ASSERT(!is_removed(w));
        BMF_ASSERT(vert_struct_[static_cast<std::size_t>(w)] == sid);
        BMF_ASSERT(!seen[static_cast<std::size_t>(w)]);
        seen[static_cast<std::size_t>(w)] = 1;
        ++count;
      }
      if (nb.outer) {
        // Children of outer blossoms are inner trivial blossoms attached by
        // unmatched edges.
        for (BlossomId c : nb.tree_children) {
          const BlossomNode& cn = arena_.node(c);
          BMF_ASSERT(!cn.outer && cn.is_trivial());
          BMF_ASSERT(cn.pe_v == cn.vert);
          BMF_ASSERT(m_.mate(cn.pe_u) != cn.pe_v);
          BMF_ASSERT(g_.has_edge(cn.pe_u, cn.pe_v));
          queue.push_back(c);
        }
      } else {
        // Inner vertices have exactly one child: the outer blossom based at
        // their mate, attached by the matched edge.
        BMF_ASSERT(nb.tree_children.size() == 1);
        const BlossomId c = nb.tree_children.front();
        const BlossomNode& cn = arena_.node(c);
        BMF_ASSERT(cn.outer);
        BMF_ASSERT(cn.pe_u == nb.vert);
        BMF_ASSERT(cn.pe_v == cn.base);
        BMF_ASSERT(m_.mate(cn.pe_u) == cn.pe_v);
        BMF_ASSERT(g_.has_edge(cn.pe_u, cn.pe_v));
        queue.push_back(c);
      }
    }
    BMF_ASSERT(count == s.size);
    BMF_ASSERT(static_cast<std::int64_t>(s.members.size()) == s.size);

    if (s.working != kNoBlossom) {
      const BlossomNode& wn = arena_.node(s.working);
      BMF_ASSERT(wn.outer && wn.structure == sid && wn.parent == kNoBlossom);
      // Labels strictly increase along the active path (Section 4.1).
      int prev = -1;
      for (BlossomId b : active_path(sid)) {
        if (!arena_.node(b).outer) continue;
        const int level = outer_level(b);
        BMF_ASSERT_MSG(level > prev, "active-path labels not increasing");
        prev = level;
      }
    }
  }

  for (Vertex v = 0; v < n; ++v) {
    const int l = lab_[static_cast<std::size_t>(v)];
    BMF_ASSERT(l >= 0 && l <= lmax_ + 1);
    if (vert_struct_[static_cast<std::size_t>(v)] != kNoStructure &&
        !is_removed(v)) {
      const StructureId sid = vert_struct_[static_cast<std::size_t>(v)];
      BMF_ASSERT(!structures_[static_cast<std::size_t>(sid)].removed);
      BMF_ASSERT(seen[static_cast<std::size_t>(v)]);
    }
  }
}

}  // namespace bmf
