//! Property tests for the enumeration kernel against an *independent*
//! oracle: a naive mapper that tries every injective assignment directly,
//! sharing no code with the kernel (guards against shared-bug blindness in
//! the workspace's other differential tests, which reuse the kernel as
//! their oracle).
//!
//! Three counts must agree: the kernel counting the last order position in
//! bulk (a counting sink), the kernel reporting it one embedding at a time
//! (a collecting sink), and the naive mapper. Data graphs carry a hub
//! adjacent to every vertex, and label alphabets are skewed (often a single
//! label), so last-level slices exceed `PROBE_THRESHOLD` and the last level
//! sees one, two and three or more backward slices on both the probe and
//! the galloping branch. Half the queries are trees (each vertex attaches
//! to a drawn earlier one), whose orders mostly end in an independent
//! tail, often on one label: the counting sink then takes the two-level
//! count, including its `|A′ ∩ B′|` correction.

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

/// A label drawn from `0..4` folded into an alphabet of `size` (1 or 2)
/// labels, skewed 3:1 towards label 0 so partition slices stay long.
fn skewed(x: u32, size: u32) -> u32 {
    u32::from(size > 1 && x == 3)
}

fn small_graph() -> impl Strategy<Value = (DataGraph, QueryGraph)> {
    (
        (6u32..13, 1u32..3, 1u32..3),
        proptest::collection::vec(0u32..4, 12..13),
        proptest::collection::vec(0u32..4, 11..12),
        (0u32..100, proptest::collection::vec(0u32..400, 66..67)),
        (2u8..6, proptest::collection::vec(0u32..4, 5..6)),
        (0u32..100, proptest::collection::vec(0u32..400, 10..11)),
        (any::<bool>(), proptest::collection::vec(0u32..100, 6..7)),
    )
        .prop_map(
            |(
                (n, vl, el),
                labels,
                hub_el,
                (density, pairs),
                (qn, qlabels),
                (qdensity, qpairs),
                (tree, parents),
            )| {
                // Pair `(a, b)`, `a < b`, is an edge iff its draw `d` has
                // `d % 100 < density`; `d / 100` picks the edge label.
                let unordered = |n: u32| (0..n).flat_map(move |b| (0..b).map(move |a| (a, b)));
                let mut g = DataGraph::new();
                for &x in &labels[..n as usize] {
                    g.add_vertex(VLabel(skewed(x, vl)));
                }
                // Vertex 0 is the hub: adjacent to every other vertex.
                for i in 1..n {
                    let l = ELabel(skewed(hub_el[i as usize - 1], el));
                    g.insert_edge(VertexId(0), VertexId(i), l).unwrap();
                }
                for ((a, b), &d) in unordered(n).zip(&pairs) {
                    if a != 0 && d % 100 < density {
                        let l = ELabel(skewed(d / 100, el));
                        g.insert_edge(VertexId(a), VertexId(b), l).unwrap();
                    }
                }
                let mut q = QueryGraph::new();
                for &x in &qlabels[..qn as usize] {
                    q.add_vertex(VLabel(skewed(x, vl)));
                }
                // A path keeps the query connected; dense draws close
                // cycles and raise the last vertex's backward degree. A
                // tree query instead attaches each `b` to one drawn `a < b`.
                for ((a, b), &d) in unordered(u32::from(qn)).zip(&qpairs) {
                    let edge = if tree {
                        a == parents[b as usize] % b
                    } else {
                        b == a + 1 || d % 100 < qdensity
                    };
                    if edge {
                        let l = ELabel(skewed(d / 100, el));
                        q.add_edge(QVertexId(a as u8), QVertexId(b as u8), l)
                            .unwrap();
                    }
                }
                (g, q)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Bulk last-level counting, per-embedding reporting and the
    /// independent naive mapper agree.
    #[test]
    fn kernel_equals_naive_oracle((g, q) in small_graph()) {
        let counted = static_match::count_all(&g, &q);
        let streamed = static_match::enumerate_all(&g, &q, true);
        prop_assert_eq!(streamed.matches.len() as u64, streamed.count);
        prop_assert_eq!(counted, streamed.count);
        prop_assert_eq!(counted, naive_count(&g, &q));
    }
}
