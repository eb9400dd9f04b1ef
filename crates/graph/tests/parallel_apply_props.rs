//! Property tests: the order-preserving batch apply
//! (`Graph::apply_edge_batch_with`) must be observationally identical to
//! serial per-op application — same per-op `changed` flags, same adjacency
//! — for arbitrary batches, on the monolithic graph with several chunk
//! writers and on the sharded graph with one writer per store.

use csm_graph::{
    DataGraph, ELabel, EdgeUpdate, Graph, GraphShard, Route, ShardConfig, ShardedGraph, VLabel,
    VertexId,
};
use proptest::prelude::*;

/// A candidate edge as raw generator output: `(src, dst, elabel)`.
type RawEdge = (u32, u32, u32);

/// Generate a base graph plus a candidate batch of edges.
fn base_and_batch() -> impl Strategy<Value = (u32, Vec<RawEdge>, Vec<RawEdge>)> {
    (24u32..120).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0u32..4);
        (
            Just(n),
            proptest::collection::vec(edge.clone(), 0..160),
            proptest::collection::vec(edge, 0..160),
        )
    })
}

fn build(n: u32, base: &[(u32, u32, u32)]) -> DataGraph {
    let mut g = DataGraph::new();
    for i in 0..n {
        g.add_vertex(VLabel(i % 5));
    }
    for &(a, b, l) in base {
        if a != b {
            let _ = g.insert_edge(VertexId(a), VertexId(b), ELabel(l));
        }
    }
    g
}

/// Deduplicate a candidate batch into a valid insert batch for `g` (no
/// duplicates, no existing edges, no self-loops).
fn valid_inserts(g: &DataGraph, cand: &[(u32, u32, u32)]) -> Vec<(EdgeUpdate, bool)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for &(a, b, l) in cand {
        if a == b {
            continue;
        }
        let (x, y) = (a.min(b), a.max(b));
        if g.has_edge(VertexId(x), VertexId(y)) || !seen.insert((x, y)) {
            continue;
        }
        out.push((EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(l)), true));
    }
    out
}

/// Apply `ops` to a clone of `g0` serially per op and to another clone as
/// one batch with `writers` writers; flags and final adjacency must agree.
/// Returns the flags.
fn batch_equals_serial<R: Route>(
    g0: &Graph<R>,
    ops: &[(EdgeUpdate, bool)],
    writers: usize,
) -> Result<Vec<bool>, TestCaseError> {
    let mut seq = g0.clone();
    let want: Vec<bool> = ops
        .iter()
        .map(|&(e, insert)| {
            if insert {
                seq.insert_edge(e.src, e.dst, e.label).unwrap_or(false)
            } else {
                seq.remove_edge(e.src, e.dst).is_ok_and(|l| l.is_some())
            }
        })
        .collect();
    let mut par = g0.clone();
    let mut got = Vec::new();
    par.apply_edge_batch_with(ops, writers, &mut got);
    prop_assert_eq!(&got, &want);
    prop_assert_eq!(par.num_edges(), seq.num_edges());
    for v in (0..seq.vertex_slots()).map(VertexId::from) {
        prop_assert_eq!(par.neighbors(v), seq.neighbors(v));
    }
    par.check_invariants().unwrap();
    seq.check_invariants().unwrap();
    Ok(got)
}

/// Run [`batch_equals_serial`] on the monolithic graph (3 chunk writers)
/// and on hash- and range-sharded copies (one writer per store); every
/// instance must produce the same flags.
fn on_both_instances(
    g0: &DataGraph,
    ops: &[(EdgeUpdate, bool)],
) -> Result<Vec<bool>, TestCaseError> {
    let flags = batch_equals_serial(g0, ops, 3)?;
    let max_id = g0.vertex_slots() as u32;
    for cfg in [ShardConfig::hash(3), ShardConfig::range_even(2, max_id)] {
        let sg = ShardedGraph::from_graph(cfg, g0).unwrap();
        prop_assert_eq!(&batch_equals_serial(&sg, ops, 1)?, &flags);
    }
    Ok(flags)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn parallel_insert_equals_sequential((n, base, cand) in base_and_batch()) {
        let g0 = build(n, &base);
        let batch = valid_inserts(&g0, &cand);
        let flags = on_both_instances(&g0, &batch)?;
        prop_assert!(flags.iter().all(|&c| c));
    }

    #[test]
    fn parallel_delete_equals_sequential((n, base, _c) in base_and_batch(), pick in any::<u64>()) {
        let g0 = build(n, &base);
        // Choose a pseudo-random subset of existing edges to delete.
        let doomed: Vec<_> = g0
            .edges()
            .enumerate()
            .filter(|(i, _)| (pick >> (i % 64)) & 1 == 1)
            .map(|(_, (a, b, l))| (EdgeUpdate::new(a, b, l), false))
            .collect();
        let flags = on_both_instances(&g0, &doomed)?;
        prop_assert!(flags.iter().all(|&c| c));
    }

    /// Regression: the routed parallel path must not assume dense or
    /// contiguous vertex ids. Vertices live in gapped slots (stride 7 via
    /// `ensure_vertex`) and the batch is large enough to take the parallel
    /// path rather than the small-batch serial fallback.
    #[test]
    fn parallel_insert_handles_sparse_ids(seed in any::<u64>()) {
        let mut g0 = DataGraph::new();
        let ids: Vec<VertexId> = (0..48u32).map(|i| VertexId(3 + i * 7)).collect();
        for (i, &v) in ids.iter().enumerate() {
            g0.ensure_vertex(v, VLabel(i as u32 % 5));
        }
        // 80 distinct pairs over the sparse id set, pseudo-randomly
        // spread so endpoint groups land on many different slots.
        let mut batch = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut x = seed | 1;
        while batch.len() < 80 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = ids[(x >> 33) as usize % ids.len()];
            let b = ids[(x >> 13) as usize % ids.len()];
            let (lo, hi) = (a.0.min(b.0), a.0.max(b.0));
            if a == b || !seen.insert((lo, hi)) {
                continue;
            }
            batch.push((EdgeUpdate::new(a, b, ELabel((x % 4) as u32)), true));
        }
        let flags = on_both_instances(&g0, &batch)?;
        prop_assert!(flags.iter().all(|&c| c));
    }

    /// Mixed insert/delete batches over a small endpoint pool, so the same
    /// edge is inserted, re-inserted under another label, deleted and
    /// revived within one batch, alongside invalid ops (self-loops, dead and
    /// unknown endpoints): per-op flags must equal the serial per-op path.
    #[test]
    fn mixed_batch_with_same_edge_churn_equals_sequential(
        (n, base, _c) in base_and_batch(),
        ops in proptest::collection::vec((0u32..14, 0u32..14, 0u32..3, any::<bool>()), 32..200),
    ) {
        let mut g0 = build(n, &base);
        g0.delete_vertex(VertexId(5), true).unwrap();
        let unknown = VertexId(n + 9);
        let batch: Vec<_> = ops
            .iter()
            .map(|&(a, b, l, insert)| {
                // Endpoint 13 stands for an id no slot was ever made for.
                let pick = |x: u32| if x == 13 { unknown } else { VertexId(x) };
                (EdgeUpdate::new(pick(a), pick(b), ELabel(l)), insert)
            })
            .collect();
        on_both_instances(&g0, &batch)?;
    }

    /// Mixed interleavings of single-edge ops keep every public counter
    /// consistent with a reference recomputation.
    #[test]
    fn counters_stay_consistent(
        n in 4u32..40,
        ops in proptest::collection::vec((0u32..40, 0u32..40, any::<bool>()), 0..120),
    ) {
        let mut g = DataGraph::new();
        for i in 0..n {
            g.add_vertex(VLabel(i % 3));
        }
        for (a, b, ins) in ops {
            let (a, b) = (VertexId(a % n), VertexId(b % n));
            if a == b { continue; }
            if ins {
                let _ = g.insert_edge(a, b, ELabel(0));
            } else {
                let _ = g.remove_edge(a, b);
            }
        }
        let recount = g.edges().count();
        prop_assert_eq!(recount, g.num_edges());
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        // The trait view reports the same single-store occupancy.
        let stats = GraphShard::shard_stats(&g);
        prop_assert_eq!(stats.len(), 1);
        prop_assert_eq!(stats[0].half_edges, 2 * g.num_edges());
        prop_assert_eq!(stats[0].owned_vertices, g.num_vertices());
    }
}
