//! **GraphFlow** (Kankanamge et al., SIGMOD '17) — the index-free baseline.
//!
//! GraphFlow maintains no auxiliary structure (`O(1)` index update, paper
//! Table 1) and answers each delta query with a worst-case-optimal join
//! seeded at the updated edge. Both WCO ingredients are modeled:
//!
//! * **attribute-at-a-time evaluation** — a level-synchronous frontier:
//!   all partial embeddings of one level are materialized before the next
//!   query vertex is joined in (paper Table 1 marks GraphFlow join-based,
//!   i.e. BFS-shaped);
//! * **multi-way sorted intersections** — when a level's query vertex has
//!   several matched neighbors, its candidates come from a leapfrog-style
//!   galloping intersection of their adjacency lists
//!   ([`csm_graph::intersect`]), the primitive that yields the worst-case
//!   optimality bound.
//!
//! A pure breadth-first materialization can exhaust memory on dense
//! levels, so the frontier is capped: when a level outgrows
//! [`GraphFlow::frontier_cap`], the remaining expansion of each entry falls
//! back to depth-first enumeration (the same hybrid real join systems use
//! for final, high-multiplicity attributes).

use csm_graph::{EdgeUpdate, GraphShard, QVertexId, QueryGraph, VertexId};
use paracosm_core::kernel::{self, NoFilter, SearchCtx, SearchStats};
use paracosm_core::{AdsChange, CsmAlgorithm, Embedding, MatchSink};

/// Stream the candidates of the order position `depth` the generic-join
/// way. Since the data graph went label-partitioned, the shared kernel's
/// candidate generator *is* the WCO intersection — it gallops over the
/// exact `(vertex label, edge label)` partition slices of every mapped
/// backward neighbor ([`csm_graph::intersect`]) — so GraphFlow reuses it
/// directly; what distinguishes GraphFlow is the level-synchronous
/// (attribute-at-a-time) frontier in [`GraphFlow::search`], not the
/// per-level candidate computation.
fn wco_candidates<G: GraphShard, F>(
    ctx: &SearchCtx<'_, G>,
    emb: Embedding,
    depth: usize,
    f: F,
) -> bool
where
    F: FnMut(VertexId) -> bool,
{
    kernel::for_each_candidate(ctx, &NoFilter, emb, depth, f)
}

/// The GraphFlow algorithm instance. Stateless apart from tuning.
#[derive(Clone, Debug)]
pub struct GraphFlow {
    /// Maximum number of partial embeddings materialized per join level
    /// before falling back to DFS for the remainder.
    pub frontier_cap: usize,
}

impl Default for GraphFlow {
    fn default() -> Self {
        GraphFlow {
            frontier_cap: 1 << 14,
        }
    }
}

impl GraphFlow {
    /// New instance with default frontier cap.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<G: GraphShard> CsmAlgorithm<G> for GraphFlow {
    fn name(&self) -> &'static str {
        "GraphFlow"
    }

    fn rebuild(&mut self, _: &G, _: &QueryGraph) {}

    fn update_ads(&mut self, _: &G, _: &QueryGraph, _: EdgeUpdate, _: bool) -> AdsChange {
        AdsChange::Unchanged
    }

    fn is_candidate(&self, _: &G, _: &QueryGraph, _: QVertexId, _: VertexId) -> bool {
        true
    }

    fn admits_all(&self) -> bool {
        true
    }

    /// Level-synchronous join: materialize each order level breadth-first.
    fn search(
        &self,
        ctx: &SearchCtx<'_, G>,
        emb: &mut Embedding,
        depth: usize,
        sink: &mut dyn MatchSink,
        stats: &mut SearchStats,
    ) -> bool {
        let n = ctx.order.len();
        if depth >= n {
            return sink.report(emb, n);
        }
        let mut frontier = vec![*emb];
        for d in depth..n {
            let u = ctx.order.order[d];
            let last_level = d + 1 == n;
            // A counted independent tail: this level's entries are leaves.
            let tail = d + 2 == n
                && ctx.order.independent_tail
                && kernel::counts_leaves(ctx, &NoFilter, sink);
            let mut next = Vec::new();
            for partial in &mut frontier {
                if !stats.tick(ctx.deadline, d) {
                    return false;
                }
                if last_level {
                    if !kernel::finish_last_level(ctx, &NoFilter, partial, d, sink) {
                        return false;
                    }
                } else if tail {
                    if !kernel::finish_last_two_levels(ctx, partial, d, sink, stats) {
                        return false;
                    }
                } else if next.len() >= self.frontier_cap {
                    // Hybrid fallback: finish this entry depth-first.
                    if !kernel::extend(ctx, &NoFilter, partial, d, sink, stats) {
                        return false;
                    }
                } else {
                    wco_candidates(ctx, *partial, d, |v| {
                        let mut child = *partial;
                        child.set(u, v);
                        next.push(child);
                        true
                    });
                }
            }
            if last_level || tail || next.is_empty() {
                return true;
            }
            frontier = next;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_graph::{DataGraph, ELabel, VLabel};
    use paracosm_core::order::SeedOrder;
    use paracosm_core::BufferSink;

    fn clique(n: usize) -> DataGraph {
        let mut g = DataGraph::new();
        let vs: Vec<_> = (0..n).map(|_| g.add_vertex(VLabel(0))).collect();
        for i in 0..n {
            for j in i + 1..n {
                g.insert_edge(vs[i], vs[j], ELabel(0)).unwrap();
            }
        }
        g
    }

    fn cycle_query(n: usize) -> QueryGraph {
        let mut q = QueryGraph::new();
        let us: Vec<_> = (0..n).map(|_| q.add_vertex(VLabel(0))).collect();
        for i in 0..n {
            q.add_edge(us[i], us[(i + 1) % n], ELabel(0)).unwrap();
        }
        q
    }

    fn count_bfs(gf: &GraphFlow, g: &DataGraph, q: &QueryGraph) -> u64 {
        let order = SeedOrder::build(q, &[QVertexId(0)]);
        let ctx = SearchCtx {
            g,
            q,
            order: &order,
            ignore_elabels: false,
            deadline: None,
            profile: None,
        };
        let mut sink = BufferSink::counting();
        let mut stats = SearchStats::default();
        gf.search(&ctx, &mut Embedding::empty(), 0, &mut sink, &mut stats);
        sink.count
    }

    #[test]
    fn join_search_matches_backtracking_count() {
        let g = clique(6);
        let q = cycle_query(4);
        let expected = paracosm_core::static_match::count_all(&g, &q);
        assert_eq!(count_bfs(&GraphFlow::new(), &g, &q), expected);
    }

    #[test]
    fn frontier_cap_fallback_is_exact() {
        let g = clique(7);
        let q = cycle_query(5);
        let expected = paracosm_core::static_match::count_all(&g, &q);
        // Tiny cap forces the hybrid DFS fallback on every level.
        let gf = GraphFlow { frontier_cap: 2 };
        assert_eq!(count_bfs(&gf, &g, &q), expected);
    }

    #[test]
    fn no_ads_reports_unchanged() {
        let mut gf = GraphFlow::new();
        let g = clique(3);
        let q = cycle_query(3);
        let e = EdgeUpdate::new(VertexId(0), VertexId(1), ELabel(0));
        assert_eq!(gf.update_ads(&g, &q, e, true), AdsChange::Unchanged);
        assert!(gf.is_candidate(&g, &q, QVertexId(0), VertexId(0)));
    }

    #[test]
    fn sink_cap_stops_join_search() {
        let g = clique(8);
        let q = cycle_query(4);
        let order = SeedOrder::build(&q, &[QVertexId(0)]);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: false,
            deadline: None,
            profile: None,
        };
        let mut sink = BufferSink::counting().with_cap(Some(5));
        let mut stats = SearchStats::default();
        let finished =
            GraphFlow::new().search(&ctx, &mut Embedding::empty(), 0, &mut sink, &mut stats);
        assert!(!finished);
        assert_eq!(sink.count, 5);
    }
}
