//! **GraphFlow** (Kankanamge et al., SIGMOD '17) — the index-free baseline.
//!
//! GraphFlow maintains no auxiliary structure (`O(1)` index update, paper
//! Table 1) and answers each delta query with a worst-case-optimal join
//! seeded at the updated edge: its candidates at a query vertex with
//! several matched neighbors come from a leapfrog-style galloping
//! intersection of their adjacency lists ([`csm_graph::intersect`]), the
//! primitive that yields the worst-case optimality bound. Since the data
//! graph went label-partitioned, that intersection over the exact
//! `(vertex label, edge label)` slices *is* the shared kernel's candidate
//! generator, so GraphFlow searches with the trait's default
//! [`CsmAlgorithm::search`] and differs from the kernel only in admitting
//! every vertex ([`CsmAlgorithm::admits_all`]).

use csm_graph::{EdgeUpdate, GraphShard, QVertexId, QueryGraph, VertexId};
use paracosm_core::{AdsChange, CsmAlgorithm};

/// The GraphFlow algorithm instance. Stateless.
#[derive(Clone, Debug, Default)]
pub struct GraphFlow;

impl GraphFlow {
    /// New instance.
    pub fn new() -> Self {
        GraphFlow
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_graph::{DataGraph, ELabel, VLabel};
    use paracosm_core::kernel::{SearchCtx, SearchStats};
    use paracosm_core::order::SeedOrder;
    use paracosm_core::{BufferSink, Embedding};

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
