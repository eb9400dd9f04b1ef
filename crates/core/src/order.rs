//! Matching orders (paper Algorithm 1, `Build_Match_Order`).
//!
//! For every *oriented* query edge `(u_a, u_b)` we precompute, offline, a
//! full matching order that starts with the two seed endpoints and then
//! greedily extends along the query's connectivity (most matched neighbors
//! first, then higher query degree — the classic "connected, selective
//! first" heuristic shared by TurboFlux/Symbi-style systems). For each
//! position we also precompute the *backward neighbors*: the already-matched
//! query neighbors whose data images constrain the candidate set, so the
//! online phase does zero order computation.

use crate::embedding::MAX_PATTERN_VERTICES;
use csm_graph::{ELabel, QVertexId, QueryGraph, VLabel};

/// A matching order rooted at one oriented seed edge (or, for the static
/// matcher, at a single start vertex).
#[derive(Clone, Debug)]
pub struct SeedOrder {
    /// `order[d]` is the query vertex matched at depth `d`.
    pub order: Vec<QVertexId>,
    /// `backward[d]` lists the `(already-matched neighbor, edge label)`
    /// pairs of `order[d]` — every data candidate at depth `d` must be
    /// adjacent (with the right edge label) to the images of all of them.
    pub backward: Vec<Vec<(QVertexId, ELabel)>>,
    /// `target_label[d]` = label of `order[d]`. Together with each backward
    /// edge's elabel this forms the exact partition key the kernel hands to
    /// `DataGraph::neighbors_with` at depth `d` — precomputed so candidate
    /// generation does zero query-side lookups per node.
    pub target_label: Vec<VLabel>,
    /// `target_degree[d]` = query degree of `order[d]` (the degree-prune
    /// threshold at depth `d`).
    pub target_degree: Vec<usize>,
    /// Position of each query vertex in `order`.
    pub pos: [u8; MAX_PATTERN_VERTICES],
    /// `order[n−1]` has no query edge to `order[n−2]`, and both have a
    /// backward neighbour: the last two candidate sets depend only on the
    /// prefix, so a counting search delivers their pairs as one count
    /// (`kernel::finish_last_two_levels`).
    pub independent_tail: bool,
}

impl SeedOrder {
    /// Build an order whose first `seeds.len()` positions are fixed.
    /// `seeds` must be non-empty and, for connected queries, the remaining
    /// order is guaranteed connected to the prefix.
    pub fn build(q: &QueryGraph, seeds: &[QVertexId]) -> SeedOrder {
        let n = q.num_vertices();
        debug_assert!(!seeds.is_empty() && seeds.len() <= n);
        let mut order: Vec<QVertexId> = seeds.to_vec();
        let mut in_order = 0u64;
        for &s in seeds {
            in_order |= 1 << s.index();
        }
        while order.len() < n {
            // Greedy: maximize (#matched neighbors, degree), prefer smaller id.
            let mut best: Option<(usize, usize, QVertexId)> = None;
            for u in q.vertices() {
                if in_order >> u.index() & 1 == 1 {
                    continue;
                }
                let matched_nbrs = (q.neighbor_mask(u) & in_order).count_ones() as usize;
                // Connected queries always have a positive-score pick once
                // the prefix is non-empty; disconnected ones fall back to
                // any remaining vertex (matched_nbrs = 0).
                let key = (matched_nbrs, q.degree(u));
                let better = match best {
                    None => true,
                    Some((mn, d, bu)) => key > (mn, d) || (key == (mn, d) && u < bu),
                };
                if better {
                    best = Some((key.0, key.1, u));
                }
            }
            let (_, _, u) = best.expect("unmatched vertex must exist");
            in_order |= 1 << u.index();
            order.push(u);
        }

        let mut pos = [u8::MAX; MAX_PATTERN_VERTICES];
        for (d, &u) in order.iter().enumerate() {
            pos[u.index()] = d as u8;
        }
        let backward: Vec<Vec<_>> = order
            .iter()
            .enumerate()
            .map(|(d, &u)| {
                q.neighbors(u)
                    .iter()
                    .filter(|&&(nb, _)| (pos[nb.index()] as usize) < d)
                    .map(|&(nb, l)| (nb, l))
                    .collect()
            })
            .collect();
        let target_label = order.iter().map(|&u| q.label(u)).collect();
        let target_degree = order.iter().map(|&u| q.degree(u)).collect();
        let independent_tail = n >= 2
            && !backward[n - 2].is_empty()
            && !backward[n - 1].is_empty()
            && q.neighbor_mask(order[n - 1]) >> order[n - 2].index() & 1 == 0;
        SeedOrder {
            order,
            backward,
            target_label,
            target_degree,
            pos,
            independent_tail,
        }
    }

    /// Number of query vertices (= full-match depth).
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for the zero-vertex degenerate order.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// All matching orders of a query: one per oriented query edge, plus lookup.
#[derive(Clone, Debug)]
pub struct MatchingOrders {
    orders: Vec<SeedOrder>,
    /// `(u_a, u_b) → index into orders`, dense `n × n` table.
    index: Vec<u16>,
    n: usize,
}

impl MatchingOrders {
    /// Precompute orders for every oriented edge of `q` (offline stage).
    pub fn build(q: &QueryGraph) -> MatchingOrders {
        let n = q.num_vertices();
        let mut orders = Vec::with_capacity(q.num_edges() * 2);
        let mut index = vec![u16::MAX; n * n];
        for e in q.edges() {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                index[a.index() * n + b.index()] = orders.len() as u16;
                orders.push(SeedOrder::build(q, &[a, b]));
            }
        }
        MatchingOrders { orders, index, n }
    }

    /// The order seeded at the oriented query edge `(u_a, u_b)`.
    /// Panics if `{u_a, u_b}` is not a query edge.
    #[inline]
    pub fn for_seed(&self, ua: QVertexId, ub: QVertexId) -> &SeedOrder {
        let i = self.index[ua.index() * self.n + ub.index()];
        debug_assert!(i != u16::MAX, "({ua:?},{ub:?}) is not a query edge");
        &self.orders[i as usize]
    }

    /// Index of the order for `(u_a, u_b)` — used to ship compact task
    /// descriptors through the concurrent queue.
    #[inline]
    pub fn seed_index(&self, ua: QVertexId, ub: QVertexId) -> u16 {
        self.index[ua.index() * self.n + ub.index()]
    }

    /// The order at a previously obtained [`Self::seed_index`].
    #[inline]
    pub fn by_index(&self, i: u16) -> &SeedOrder {
        &self.orders[i as usize]
    }

    /// Number of oriented seed orders (`2 |E(Q)|`).
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// True iff the query has no edges.
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_graph::VLabel;

    /// Square with one diagonal: u0-u1, u1-u2, u2-u3, u3-u0, u0-u2.
    fn diamond() -> QueryGraph {
        let mut q = QueryGraph::new();
        let v: Vec<_> = (0..4).map(|i| q.add_vertex(VLabel(i))).collect();
        q.add_edge(v[0], v[1], ELabel(0)).unwrap();
        q.add_edge(v[1], v[2], ELabel(0)).unwrap();
        q.add_edge(v[2], v[3], ELabel(0)).unwrap();
        q.add_edge(v[3], v[0], ELabel(0)).unwrap();
        q.add_edge(v[0], v[2], ELabel(0)).unwrap();
        q
    }

    #[test]
    fn order_covers_all_vertices_connected() {
        let q = diamond();
        let o = SeedOrder::build(&q, &[QVertexId(3), QVertexId(0)]);
        assert_eq!(o.len(), 4);
        assert_eq!(o.order[0], QVertexId(3));
        assert_eq!(o.order[1], QVertexId(0));
        // Every later vertex has at least one backward neighbor.
        for d in 1..o.len() {
            assert!(!o.backward[d].is_empty(), "depth {d} disconnected");
        }
        // pos is the inverse of order.
        for (d, &u) in o.order.iter().enumerate() {
            assert_eq!(o.pos[u.index()] as usize, d);
        }
    }

    #[test]
    fn greedy_prefers_most_constrained() {
        let q = diamond();
        // Seeded at (u0, u1): u2 has two matched neighbors (u0, u1), u3 has
        // one (u0) — u2 must come first.
        let o = SeedOrder::build(&q, &[QVertexId(0), QVertexId(1)]);
        assert_eq!(o.order[2], QVertexId(2));
        assert_eq!(o.order[3], QVertexId(3));
        // u2's backward neighbors at depth 2 are both seeds.
        assert_eq!(o.backward[2].len(), 2);
    }

    #[test]
    fn matching_orders_cover_every_oriented_edge() {
        let q = diamond();
        let mo = MatchingOrders::build(&q);
        assert_eq!(mo.len(), 2 * q.num_edges());
        for e in q.edges() {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                let o = mo.for_seed(a, b);
                assert_eq!(o.order[0], a);
                assert_eq!(o.order[1], b);
                let i = mo.seed_index(a, b);
                assert_eq!(mo.by_index(i).order[0], a);
            }
        }
    }

    /// A query over label 0 with the given edges.
    fn shape(n: u8, edges: &[(u8, u8)]) -> QueryGraph {
        let mut q = QueryGraph::new();
        for _ in 0..n {
            q.add_vertex(VLabel(0));
        }
        for &(a, b) in edges {
            q.add_edge(QVertexId(a), QVertexId(b), ELabel(0)).unwrap();
        }
        q
    }

    #[test]
    fn independent_tail_marks_non_adjacent_last_pair() {
        // Path u0-u1-u2-u3-u4 seeded in the middle ends in its two ends.
        let path = shape(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let o = SeedOrder::build(&path, &[QVertexId(2), QVertexId(3)]);
        assert_eq!(&o.order[3..], &[QVertexId(0), QVertexId(4)]);
        assert!(o.independent_tail);
        // Star: the last two leaves only touch the centre.
        let star = shape(4, &[(0, 1), (0, 2), (0, 3)]);
        assert!(SeedOrder::build(&star, &[QVertexId(0), QVertexId(1)]).independent_tail);
        assert!(SeedOrder::build(&star, &[QVertexId(1), QVertexId(0)]).independent_tail);
        // Triangle and the diamond seeded at (u0, u1): the last two are
        // adjacent.
        let tri = shape(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(!SeedOrder::build(&tri, &[QVertexId(0), QVertexId(1)]).independent_tail);
        let o = SeedOrder::build(&diamond(), &[QVertexId(0), QVertexId(1)]);
        assert!(!o.independent_tail);
        // A tail needs a backward neighbour at both positions.
        let edge = shape(2, &[(0, 1)]);
        assert!(!SeedOrder::build(&edge, &[QVertexId(0), QVertexId(1)]).independent_tail);
    }

    #[test]
    fn single_seed_order_for_static_matching() {
        let q = diamond();
        let o = SeedOrder::build(&q, &[QVertexId(2)]);
        assert_eq!(o.len(), 4);
        assert_eq!(o.order[0], QVertexId(2));
        assert!(o.backward[0].is_empty());
        for d in 1..4 {
            assert!(!o.backward[d].is_empty());
        }
    }
}
