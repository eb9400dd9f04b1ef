//! Property tests for the enumeration kernel against an *independent*
//! oracle: a naive mapper that tries every injective assignment directly,
//! sharing no code with the kernel (guards against shared-bug blindness in
//! the workspace's other differential tests, which reuse the kernel as
//! their oracle).

use csm_graph::{DataGraph, ELabel, QVertexId, QueryGraph, VLabel, VertexId};
use paracosm_core::static_match;
use proptest::prelude::*;

/// Count matches by brute-force assignment enumeration (no orders, no
/// candidate streaming, no pruning beyond label/edge checks).
fn naive_count(g: &DataGraph, q: &QueryGraph) -> u64 {
    let verts: Vec<VertexId> = g.vertices().collect();
    let n = q.num_vertices();
    let mut assignment: Vec<VertexId> = Vec::with_capacity(n);
    fn rec(
        g: &DataGraph,
        q: &QueryGraph,
        verts: &[VertexId],
        assignment: &mut Vec<VertexId>,
    ) -> u64 {
        let depth = assignment.len();
        if depth == q.num_vertices() {
            return 1;
        }
        let u = QVertexId::from(depth);
        let mut total = 0;
        'cand: for &v in verts {
            if assignment.contains(&v) || g.label(v) != q.label(u) {
                continue;
            }
            for (p, &pv) in assignment.iter().enumerate() {
                let pu = QVertexId::from(p);
                if let Some(l) = q.edge_label(u, pu) {
                    if g.edge_label(v, pv) != Some(l) {
                        continue 'cand;
                    }
                }
            }
            assignment.push(v);
            total += rec(g, q, verts, assignment);
            assignment.pop();
        }
        total
    }
    rec(g, q, &verts, &mut assignment)
}

fn small_graph() -> impl Strategy<Value = (DataGraph, QueryGraph)> {
    (
        3u32..9,
        proptest::collection::vec((0u32..9, 0u32..9, 0u32..2), 2..20),
        2usize..4,
        proptest::collection::vec((0u32..4, 0u32..4, 0u32..2), 1..6),
    )
        .prop_map(|(n, edges, qn, qedges)| {
            let mut g = DataGraph::new();
            for i in 0..n {
                g.add_vertex(VLabel(i % 2));
            }
            for (a, b, l) in edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    let _ = g.insert_edge(VertexId(a), VertexId(b), ELabel(l));
                }
            }
            let qn = qn as u32;
            let mut q = QueryGraph::new();
            for i in 0..qn {
                q.add_vertex(VLabel(i % 2));
            }
            for (a, b, l) in qedges {
                let (a, b) = (a % qn, b % qn);
                if a != b {
                    let _ = q.add_edge(
                        QVertexId::from(a as usize),
                        QVertexId::from(b as usize),
                        ELabel(l),
                    );
                }
            }
            // Guarantee at least one query edge (seeded kernels need one).
            if q.num_edges() == 0 && qn >= 2 {
                let _ = q.add_edge(QVertexId(0), QVertexId(1), ELabel(0));
            }
            (g, q)
        })
        .prop_filter("connected query", |(_, q)| {
            q.num_vertices() > 0 && q.is_connected()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The order-driven kernel equals the independent naive mapper.
    #[test]
    fn kernel_equals_naive_oracle((g, q) in small_graph()) {
        prop_assert_eq!(static_match::count_all(&g, &q), naive_count(&g, &q));
    }
}
