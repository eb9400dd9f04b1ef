//! The [`GraphShard`] seam and the partitioned route behind
//! [`ShardedGraph`].
//!
//! The trait is the API seam between "something that answers the CSM
//! kernel's graph queries and accepts updates" and the storage behind it.
//! There is one storage implementation, [`Graph`], parameterised by where
//! a vertex's adjacency lives ([`Route`]): [`crate::DataGraph`] puts
//! everything in one store; [`ShardedGraph`] spreads vertices over `K`
//! stores with a [`ShardConfig`]. Vertex metadata (labels, liveness, label
//! buckets) is held once either way, so `vertices_with_label` stays a
//! borrowed slice and edge routing resolves endpoint labels without
//! touching a store.
//!
//! ## Ownership rules
//!
//! Every vertex has exactly one owner store: `shard_index_for(v)`. A store
//! holds the **full adjacency list of each vertex it owns** — including
//! edges whose other endpoint lives elsewhere — so an undirected edge is
//! two half-edges, one per endpoint owner. The half-edge invariant, and
//! why one single-writer job per store can apply a batch without locks,
//! are spelled out in the [`crate::graph`] module docs, next to the code
//! that relies on them.

use crate::error::{GraphError, Result};
use crate::graph::{AdjStore, DataGraph, Graph, Route};
use crate::ids::{ELabel, VLabel, VertexId};
use crate::update::{EdgeUpdate, Update};

/// The graph-access seam the matching kernel, classifier and service are
/// generic over. Implemented by every [`Graph`] — [`DataGraph`]
/// (monolithic) and [`ShardedGraph`] (partitioned) alike.
///
/// Read methods mirror [`Graph`]'s inherent API one-for-one,
/// including the ordering contract: `neighbors_with` slices are id-sorted
/// within one `(vlabel, elabel)` group and therefore mergeable by
/// `crate::intersect`; `neighbors_with_vlabel` slices are not.
pub trait GraphShard: Send + Sync {
    /// Vertex label of `v` (meaningful only for alive vertices).
    fn label(&self, v: VertexId) -> VLabel;
    /// Is slot `v` an alive vertex?
    fn is_alive(&self, v: VertexId) -> bool;
    /// Degree of `v` (0 for dead/unknown vertices).
    fn degree(&self, v: VertexId) -> usize;
    /// Number of vertex slots ever allocated (alive + dead).
    fn vertex_slots(&self) -> usize;
    /// Number of alive vertices.
    fn num_vertices(&self) -> usize;
    /// Number of undirected edges.
    fn num_edges(&self) -> usize;
    /// Number of distinct vertex-label buckets allocated.
    fn num_vertex_label_buckets(&self) -> usize;
    /// Full neighbor list of `v`, sorted by `(L(neighbor), elabel, id)`.
    fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)];
    /// Neighbors of `v` with vertex label `vl` over edge label `el`
    /// (contiguous, id-sorted — the mergeable slices).
    fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)];
    /// Neighbors of `v` with vertex label `vl` under any edge label
    /// (sorted by `(elabel, id)` — probe, don't merge).
    fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)];
    /// Alive vertices carrying `label` (unsorted, never dead).
    fn vertices_with_label(&self, label: VLabel) -> &[VertexId];
    /// Label of edge `{a, b}`, if present.
    fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel>;
    /// Does `{v, n}` exist with elabel exactly `el`?
    fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool;

    /// Count of neighbors of `v` with label `vl` (and elabel `el`, unless
    /// `None`).
    #[inline]
    fn count_neighbors_with(&self, v: VertexId, vl: VLabel, el: Option<ELabel>) -> usize {
        match el {
            Some(el) => self.neighbors_with(v, vl, el).len(),
            None => self.neighbors_with_vlabel(v, vl).len(),
        }
    }

    /// Does the undirected edge `{a, b}` exist?
    #[inline]
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edge_label(a, b).is_some()
    }

    /// Iterator over all alive vertex ids.
    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_slots())
            .map(VertexId::from)
            .filter(move |&v| self.is_alive(v))
    }

    /// Iterator over all undirected edges `(a, b, label)` with `a < b`.
    fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, ELabel)> + '_ {
        self.vertices().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&(b, _)| a < b)
                .map(move |(b, l)| (a, b, l))
        })
    }

    /// Neighbors of `v` with vertex label `vl` and edge label `el`
    /// (`None` matches any edge label).
    fn neighbors_filtered(
        &self,
        v: VertexId,
        vl: VLabel,
        el: Option<ELabel>,
    ) -> impl Iterator<Item = VertexId> + '_ {
        let slice = match el {
            Some(e) => self.neighbors_with(v, vl, e),
            None => self.neighbors_with_vlabel(v, vl),
        };
        slice.iter().map(|&(n, _)| n)
    }

    // --- mutation: the `apply` side of the seam ---

    /// Append a fresh vertex with the given label, returning its id.
    fn add_vertex(&mut self, label: VLabel) -> VertexId;
    /// Ensure slot `id` exists and is alive with `label`.
    fn ensure_vertex(&mut self, id: VertexId, label: VLabel);
    /// Delete a vertex (cascading incident edge removal on request).
    fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> Result<()>;
    /// Insert undirected edge `{a, b}`; `Ok(false)` if it already existed.
    fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool>;
    /// Remove undirected edge `{a, b}`, returning its label if it existed.
    fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>>;

    /// Apply one stream update, returning whether the graph changed.
    fn apply(&mut self, u: &Update) -> Result<bool> {
        match *u {
            Update::InsertEdge(e) => self.insert_edge(e.src, e.dst, e.label),
            Update::DeleteEdge(e) => self.remove_edge(e.src, e.dst).map(|r| r.is_some()),
            Update::InsertVertex { id, label } => {
                let was = self.is_alive(id);
                self.ensure_vertex(id, label);
                Ok(!was)
            }
            Update::DeleteVertex { id } => self.delete_vertex(id, true).map(|_| true),
        }
    }

    /// Apply a FIFO batch of edge updates (`true` = insert), pushing one
    /// per-op `changed` flag: exactly the flags a serial
    /// `insert_edge`/`remove_edge` loop would produce (invalid ops — self-loop,
    /// dead endpoint — come back `false`), with one single-writer job per
    /// store when there is more than one
    /// ([`Graph::apply_edge_batch_with`]).
    fn apply_edge_batch(&mut self, ops: &[(EdgeUpdate, bool)], changed: &mut Vec<bool>);

    // --- shard topology / stats ---

    /// Number of shards behind this graph (1 for monolithic backends).
    fn num_shards(&self) -> usize;
    /// Index of the shard owning `v` (always 0 for monolithic backends).
    fn shard_of(&self, v: VertexId) -> usize;
    /// Per-shard occupancy and applier counters, for telemetry.
    fn shard_stats(&self) -> Vec<ShardStats>;
}

/// Per-shard occupancy and applier counters surfaced in `/metrics` and
/// the service report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Alive vertices owned by this shard.
    pub owned_vertices: usize,
    /// Half-edges stored (each undirected edge contributes one per
    /// endpoint owner).
    pub half_edges: usize,
    /// Total half-edge ops routed through this shard's applier.
    pub applied_ops: u64,
}
/// How vertex ids map to shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Multiplicative hash of the vertex id, modulo the shard count.
    /// Spreads consecutive ids — the default, robust to skewed id ranges.
    Hash,
    /// Explicit per-shard id ranges `[start, end)`, contiguous and
    /// ascending; ids at or beyond the last `end` route to the last
    /// shard. Useful when locality between neighboring ids matters.
    Range(Vec<(u32, u32)>),
}

/// Shard-count and partitioning policy for a [`ShardedGraph`].
///
/// Validated at construction ([`ShardConfig::validate`]); invalid configs
/// (zero shards, non-contiguous or overlapping ranges) surface as
/// [`GraphError::ShardConfig`] naming the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (must be ≥ 1).
    pub shards: usize,
    /// Vertex-to-shard assignment policy.
    pub partition: Partition,
}

impl ShardConfig {
    /// Hash-partitioned config with `shards` shards.
    pub fn hash(shards: usize) -> Self {
        ShardConfig {
            shards,
            partition: Partition::Hash,
        }
    }

    /// Range-partitioned config; one `[start, end)` span per shard.
    pub fn range(bounds: Vec<(u32, u32)>) -> Self {
        ShardConfig {
            shards: bounds.len(),
            partition: Partition::Range(bounds),
        }
    }

    /// Range-partitioned config splitting `0..max_id` evenly.
    pub fn range_even(shards: usize, max_id: u32) -> Self {
        let width = (max_id / shards.max(1) as u32).max(1);
        let bounds = (0..shards)
            .map(|i| {
                let start = i as u32 * width;
                let end = if i + 1 == shards {
                    u32::MAX
                } else {
                    (i as u32 + 1) * width
                };
                (start, end)
            })
            .collect();
        Self::range(bounds)
    }

    /// Check the config: at least one shard; for range partitioning, one
    /// span per shard, each non-empty, starting at 0, contiguous and
    /// ascending (which rules out overlaps and gaps).
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(GraphError::ShardConfig { field: "shards" });
        }
        if let Partition::Range(bounds) = &self.partition {
            if bounds.len() != self.shards {
                return Err(GraphError::ShardConfig { field: "ranges" });
            }
            let mut expect_start = 0u32;
            for &(start, end) in bounds {
                if start != expect_start || start >= end {
                    return Err(GraphError::ShardConfig { field: "ranges" });
                }
                expect_start = end;
            }
        }
        Ok(())
    }

    /// **The partitioner**: map a vertex id to its owning shard index.
    ///
    /// All shard-id arithmetic in the workspace lives in this one
    /// function — the `shard-routing-confined` analyzer rule keeps it
    /// that way. Everything else asks the router via
    /// [`GraphShard::shard_of`].
    #[inline]
    pub fn shard_index_for(&self, v: VertexId) -> usize {
        match &self.partition {
            Partition::Hash => {
                // Fibonacci multiplicative hash: consecutive ids land on
                // different shards, hub-adjacent id clusters spread out.
                let h = (v.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 32) as usize) % self.shards
            }
            Partition::Range(bounds) => bounds
                .partition_point(|&(_, end)| end <= v.0)
                .min(self.shards - 1),
        }
    }
}
/// A [`ShardConfig`] is a route: `shards` stores, picked by
/// [`ShardConfig::shard_index_for`].
impl Route for ShardConfig {
    type Stores = Vec<AdjStore>;
    const ROUTED: bool = true;
    fn new_stores(&self) -> Vec<AdjStore> {
        vec![AdjStore::default(); self.shards]
    }
    #[inline]
    fn store_of(&self, v: VertexId) -> usize {
        self.shard_index_for(v)
    }
}

/// The sharded data graph: [`Graph`] routed by a [`ShardConfig`] over `K`
/// stores, each applied to by its own single-writer job in
/// [`GraphShard::apply_edge_batch`].
pub type ShardedGraph = Graph<ShardConfig>;

impl ShardedGraph {
    /// An empty sharded graph. Fails with [`GraphError::ShardConfig`] on
    /// an invalid config.
    pub fn new(cfg: ShardConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self::with_route(cfg))
    }

    /// Shard an existing monolithic graph: an `O(V + E)` copy. Every
    /// alive vertex keeps its id, its label and its neighbor list, which
    /// is cloned whole into the store `cfg` routes it to; each store's
    /// [`ShardStats`] reads as if its halves had been inserted edge by
    /// edge (`applied_ops` counts the halves routed there). The vertex
    /// metadata is the source's: [`GraphShard::vertex_slots`] keeps its
    /// dead slots, trailing ones included. Fails with
    /// [`GraphError::ShardConfig`] on an invalid config.
    pub fn from_graph(cfg: ShardConfig, g: &DataGraph) -> Result<Self> {
        cfg.validate()?;
        Ok(g.rerouted(cfg))
    }

    /// The partitioning policy in force.
    pub fn config(&self) -> &ShardConfig {
        self.route()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Independent reference: an edge map plus a label table, no adjacency.
    #[derive(Default)]
    struct Model {
        labels: Vec<Option<VLabel>>,
        edges: BTreeMap<(VertexId, VertexId), ELabel>,
        max_elabel: u32,
    }

    impl Model {
        fn label(&self, v: VertexId) -> Option<VLabel> {
            self.labels.get(v.index()).copied().flatten()
        }

        fn endpoints(&self, a: VertexId, b: VertexId) -> Result<(VertexId, VertexId)> {
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
            for v in [a, b] {
                if self.label(v).is_none() {
                    return Err(GraphError::UnknownVertex(v));
                }
            }
            Ok((a.min(b), a.max(b)))
        }

        fn insert(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool> {
            let key = self.endpoints(a, b)?;
            if self.edges.contains_key(&key) {
                return Ok(false);
            }
            self.edges.insert(key, l);
            self.max_elabel = self.max_elabel.max(l.0);
            Ok(true)
        }

        fn remove(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>> {
            let key = self.endpoints(a, b)?;
            Ok(self.edges.remove(&key))
        }

        fn ensure(&mut self, v: VertexId, l: VLabel) {
            if self.labels.len() <= v.index() {
                self.labels.resize(v.index() + 1, None);
            }
            self.labels[v.index()].get_or_insert(l);
        }

        /// `v`'s neighbors in the graph's `(L(n), elabel, id)` order.
        fn neighbors(&self, v: VertexId) -> Vec<(VertexId, ELabel)> {
            let mut out: Vec<_> = (self.edges.iter())
                .filter_map(|(&(a, b), &l)| match v {
                    _ if v == a => Some((b, l)),
                    _ if v == b => Some((a, l)),
                    _ => None,
                })
                .collect();
            out.sort_by_key(|&(n, l)| (self.label(n), l, n));
            out
        }
    }

    /// Full read-side agreement between a graph and the model, plus the
    /// graph's own structural invariants and per-store accounting.
    fn agree<R: Route>(g: &Graph<R>, m: &Model) {
        g.check_invariants().unwrap();
        assert_eq!(GraphShard::vertex_slots(g), m.labels.len());
        assert_eq!(GraphShard::num_edges(g), m.edges.len());
        let alive: Vec<VertexId> = GraphShard::vertices(g).collect();
        assert_eq!(GraphShard::num_vertices(g), alive.len());
        let mut edges: Vec<_> = GraphShard::edges(g).collect();
        edges.sort_unstable();
        let want: Vec<_> = m.edges.iter().map(|(&(a, b), &l)| (a, b, l)).collect();
        assert_eq!(edges, want);
        let nl = GraphShard::num_vertex_label_buckets(g) as u32;
        for v in (0..m.labels.len()).map(VertexId::from) {
            agree_at(g, m, v);
        }
        let buckets: usize = (0..nl)
            .map(|l| GraphShard::vertices_with_label(g, VLabel(l)).len())
            .sum();
        assert_eq!(buckets, alive.len());
        let stats = GraphShard::shard_stats(g);
        assert_eq!(stats.len(), GraphShard::num_shards(g));
        assert_eq!(
            stats.iter().map(|s| s.owned_vertices).sum::<usize>(),
            alive.len()
        );
        assert_eq!(
            stats.iter().map(|s| s.half_edges).sum::<usize>(),
            2 * m.edges.len()
        );
        for (i, s) in stats.iter().enumerate() {
            let mine = |v: &&VertexId| GraphShard::shard_of(g, **v) == i;
            assert_eq!(s.owned_vertices, alive.iter().filter(mine).count());
        }
    }

    /// Read-side agreement at one vertex: liveness, label, its whole list,
    /// every vertex-label block and `(vlabel, elabel)` run, and the edge
    /// probes of each of its edges.
    fn agree_at<R: Route>(g: &Graph<R>, m: &Model, v: VertexId) {
        assert_eq!(GraphShard::is_alive(g, v), m.label(v).is_some());
        let ns = m.neighbors(v);
        assert_eq!(GraphShard::neighbors(g, v), ns);
        assert_eq!(GraphShard::degree(g, v), ns.len());
        let Some(lv) = m.label(v) else { return };
        assert_eq!(GraphShard::label(g, v), lv);
        assert!(GraphShard::vertices_with_label(g, lv).contains(&v));
        let nl = GraphShard::num_vertex_label_buckets(g) as u32;
        for vl in (0..nl).map(VLabel) {
            let of_vl = |&&(n, _): &&(VertexId, ELabel)| m.label(n) == Some(vl);
            let any_el: Vec<_> = ns.iter().filter(of_vl).copied().collect();
            assert_eq!(GraphShard::neighbors_with_vlabel(g, v, vl), any_el);
            for el in (0..=m.max_elabel).map(ELabel) {
                let exact: Vec<_> = any_el.iter().filter(|e| e.1 == el).copied().collect();
                assert_eq!(GraphShard::neighbors_with(g, v, vl, el), exact);
                assert_eq!(
                    GraphShard::count_neighbors_with(g, v, vl, Some(el)),
                    exact.len()
                );
            }
        }
        for &(n, l) in &ns {
            assert_eq!(GraphShard::edge_label(g, n, v), Some(l));
            assert!(GraphShard::has_edge_with(g, v, n, l));
            assert!(!GraphShard::has_edge_with(g, v, n, ELabel(l.0 + 1)));
        }
    }

    fn seeded_ops(n: usize, verts: u32, seed: u64) -> Vec<(EdgeUpdate, bool)> {
        // xorshift stream of inserts/deletes over a skewed endpoint pool:
        // half the ops touch the first 4 "hub" ids; a few are self-loops or
        // name a dead (`verts`) or never-allocated (`verts + 1`) vertex.
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|_| {
                let r = step();
                let a = if r % 2 == 0 {
                    (r >> 8) as u32 % 4
                } else {
                    (r >> 8) as u32 % (verts + 2)
                };
                let b = (step() >> 8) as u32 % verts;
                let el = ELabel((r >> 3) as u32 % 3);
                let insert = r % 16 < 11;
                (EdgeUpdate::new(VertexId(a), VertexId(b), el), insert)
            })
            .collect()
    }

    /// The one behavioural contract every [`GraphShard`] backend meets,
    /// checked against [`Model`] with `check_invariants` after every step:
    /// per-op edge semantics, vertex lifecycle (growth with dead slots,
    /// isolation, cascade, revive under a new label), and batch apply.
    fn conformance<R: Route>(make: impl Fn() -> Graph<R>) {
        const VERTS: u32 = 40;
        let populated = || {
            let (mut g, mut m) = (make(), Model::default());
            for i in 0..VERTS {
                assert_eq!(GraphShard::add_vertex(&mut g, VLabel(i % 5)), VertexId(i));
                m.ensure(VertexId(i), VLabel(i % 5));
            }
            // Slot `VERTS` exists but is dead; `VERTS + 1` was never made.
            GraphShard::ensure_vertex(&mut g, VertexId(VERTS), VLabel(0));
            GraphShard::delete_vertex(&mut g, VertexId(VERTS), false).unwrap();
            m.labels.push(None);
            (g, m)
        };

        // Per-op parity, including every error and no-op case.
        let (mut g, mut m) = populated();
        for (i, &(e, insert)) in seeded_ops(600, VERTS, 7).iter().enumerate() {
            if insert {
                let got = GraphShard::insert_edge(&mut g, e.src, e.dst, e.label);
                assert_eq!(got, m.insert(e.src, e.dst, e.label), "op {i}");
            } else {
                let got = GraphShard::remove_edge(&mut g, e.src, e.dst);
                assert_eq!(got, m.remove(e.src, e.dst), "op {i}");
            }
            if i % 16 == 0 {
                agree(&g, &m);
            }
        }
        agree(&g, &m);

        // Vertex lifecycle on the populated graph.
        let hub = VertexId(0);
        let d = GraphShard::degree(&g, hub);
        assert!(d > 1, "the seeded stream makes vertex 0 a hub");
        assert_eq!(
            GraphShard::delete_vertex(&mut g, hub, false),
            Err(GraphError::VertexNotIsolated(hub, d))
        );
        agree(&g, &m);
        // Cascade removes the mirror halves wherever they live.
        assert_eq!(
            GraphShard::apply(&mut g, &Update::DeleteVertex { id: hub }),
            Ok(true)
        );
        m.edges.retain(|&(a, b), _| a != hub && b != hub);
        m.labels[hub.index()] = None;
        agree(&g, &m);
        assert_eq!(
            GraphShard::delete_vertex(&mut g, hub, true),
            Err(GraphError::UnknownVertex(hub))
        );
        // Revive under a new label: the new bucket only, never twice; a
        // second ensure is a no-op that keeps the first label.
        let revive = Update::InsertVertex {
            id: hub,
            label: VLabel(7),
        };
        assert_eq!(GraphShard::apply(&mut g, &revive), Ok(true));
        assert_eq!(GraphShard::apply(&mut g, &revive), Ok(false));
        GraphShard::ensure_vertex(&mut g, hub, VLabel(2));
        m.ensure(hub, VLabel(7));
        assert_eq!(GraphShard::vertices_with_label(&g, VLabel(7)), &[hub]);
        agree(&g, &m);
        // Repeated churn stays clean: out of the new bucket, back into an
        // old one.
        GraphShard::delete_vertex(&mut g, hub, false).unwrap();
        assert!(GraphShard::vertices_with_label(&g, VLabel(7)).is_empty());
        GraphShard::ensure_vertex(&mut g, hub, VLabel(3));
        m.labels[hub.index()] = Some(VLabel(3));
        agree(&g, &m);
        // Growing past the end creates dead slots in between.
        let far = VertexId(VERTS + 6);
        GraphShard::ensure_vertex(&mut g, far, VLabel(1));
        m.ensure(far, VLabel(1));
        assert_eq!(GraphShard::vertex_slots(&g), far.index() + 1);
        assert!(!GraphShard::is_alive(&g, VertexId(VERTS + 3)));
        assert_eq!(
            GraphShard::insert_edge(&mut g, far, hub, ELabel(2)),
            Ok(true)
        );
        m.insert(far, hub, ELabel(2)).unwrap();
        agree(&g, &m);

        // Batch apply: the flags of the serial per-op path, with same-edge
        // churn (insert → duplicate under another label → delete →
        // reinsert) leading a batch long enough for the parallel path.
        let (mut g, mut m) = populated();
        let e = EdgeUpdate::new(VertexId(0), VertexId(5), ELabel(1));
        let e2 = EdgeUpdate::new(VertexId(5), VertexId(0), ELabel(2));
        let mut ops = vec![(e, true), (e2, true), (e2, false), (e2, true)];
        ops.extend(seeded_ops(800, VERTS, 31));
        let mut run = |batch: &[(EdgeUpdate, bool)]| {
            let want: Vec<bool> = batch
                .iter()
                .map(|&(e, insert)| {
                    if insert {
                        m.insert(e.src, e.dst, e.label).unwrap_or(false)
                    } else {
                        m.remove(e.src, e.dst).is_ok_and(|l| l.is_some())
                    }
                })
                .collect();
            let mut got = vec![true]; // flags are appended, not overwritten
            GraphShard::apply_edge_batch(&mut g, batch, &mut got);
            assert_eq!(got[1..], want);
            agree(&g, &m);
            want
        };
        assert_eq!(run(&ops)[..4], [true, false, true, true]);
        // Below the parallel threshold: the serial fallback, same contract.
        run(&seeded_ops(20, VERTS, 99));
    }

    #[test]
    fn every_backend_conforms() {
        conformance(DataGraph::new);
        for shards in [1usize, 2, 4, 7] {
            conformance(|| ShardedGraph::new(ShardConfig::hash(shards)).unwrap());
            conformance(|| ShardedGraph::new(ShardConfig::range_even(shards, 40)).unwrap());
        }
    }

    /// The adjacency index under the label shapes it must serve, per op
    /// and per 2-writer batch, against [`Model`]: one vertex label × 44
    /// edge labels (LSBench: one block holds the whole list), 20 × 20 with
    /// a hub of degree ≥ 2 000 (Orkut: many short multi-label blocks), and
    /// one edge label (every block is one run). Streams re-insert edges
    /// under another edge label, and a dead slot is revived under a new
    /// vertex label and reconnected.
    #[test]
    fn label_shapes_conform_per_op_and_per_batch() {
        // (vertex labels, edge labels, vertices, hub degree, random ops)
        let shapes = [
            (1, 44, 48, 0, 1000),
            (20, 20, 2048, 2000, 120),
            (5, 1, 48, 0, 1000),
        ];
        for (vls, els, verts, hub, n) in shapes {
            for batched in [false, true] {
                let mut x = 0x9e37_79b9_7f4a_7c15_u64;
                let mut rnd = move |k: u32| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 8) as u32 % k
                };
                let (mut g, mut m) = (DataGraph::new(), Model::default());
                for i in 0..verts {
                    g.add_vertex(VLabel(i % vls));
                    m.ensure(VertexId(i), VLabel(i % vls));
                }
                let edge =
                    |a: u32, b: u32, el: u32| EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(el));
                let build: Vec<_> = (1..=hub).map(|i| (edge(0, i, rnd(els)), true)).collect();
                apply_and_agree(&mut g, &mut m, &build, true);
                assert_eq!(g.degree(VertexId(0)), hub as usize);
                agree(&g, &m);

                // Half the ops touch vertex 0; every 16th becomes an
                // insert → delete → insert under another edge label.
                let mut ops = Vec::new();
                for i in 0..n {
                    let a = if rnd(2) == 0 { 0 } else { rnd(verts) };
                    let (b, el) = (rnd(verts), rnd(els));
                    if i % 16 == 0 {
                        let relabel = (el + 1) % els;
                        ops.extend([(edge(a, b, el), true), (edge(b, a, el), false)]);
                        ops.push((edge(a, b, relabel), true));
                    } else {
                        ops.push((edge(a, b, el), rnd(8) < 5));
                    }
                }
                apply_and_agree(&mut g, &mut m, &ops, batched);

                // Revive vertex 1 under another vertex label and reconnect it.
                let (v, vl) = (VertexId(1), VLabel(vls / 2 + 1));
                g.delete_vertex(v, true).unwrap();
                m.edges.retain(|&(a, b), _| a != v && b != v);
                m.labels[1] = None;
                agree(&g, &m);
                g.ensure_vertex(v, vl);
                m.ensure(v, vl);
                let back: Vec<_> = (0..40).map(|i| (edge(1, i * 2, rnd(els)), true)).collect();
                apply_and_agree(&mut g, &mut m, &back, batched);
                agree(&g, &m);
            }
        }
    }

    /// Apply `ops` to `g` — one op at a time, or in batches of 48 through
    /// two writers — and to the model, checking the `changed` verdicts, the
    /// invariants and every touched endpoint after each op or batch.
    fn apply_and_agree(
        g: &mut DataGraph,
        m: &mut Model,
        ops: &[(EdgeUpdate, bool)],
        batched: bool,
    ) {
        for batch in ops.chunks(if batched { 48 } else { 1 }) {
            let want: Vec<bool> = (batch.iter())
                .map(|&(e, insert)| {
                    if insert {
                        m.insert(e.src, e.dst, e.label).unwrap_or(false)
                    } else {
                        m.remove(e.src, e.dst).is_ok_and(|l| l.is_some())
                    }
                })
                .collect();
            let mut got = Vec::new();
            g.apply_edge_batch_with(batch, 2, &mut got);
            assert_eq!(got, want);
            g.check_invariants().unwrap();
            let mut touched: Vec<VertexId> =
                batch.iter().flat_map(|(e, _)| [e.src, e.dst]).collect();
            touched.sort_unstable();
            touched.dedup();
            for v in touched {
                agree_at(g, m, v);
            }
            for &(e, _) in batch {
                let stored = m.edges.get(&(e.src.min(e.dst), e.src.max(e.dst)));
                assert_eq!(g.edge_label(e.src, e.dst), stored.copied());
                for el in (0..=m.max_elabel).map(ELabel) {
                    assert_eq!(g.has_edge_with(e.src, e.dst, el), stored == Some(&el));
                }
            }
        }
    }

    /// `from_graph` copies lists rather than inserting edges, and must
    /// still equal an edge-by-edge build (`new` + `ensure_vertex` +
    /// `insert_edge`) under both partitioners at 1, 2, 4 and 7 shards:
    /// the same lists, per-store stats, counts and invariants, and a graph
    /// that keeps taking writes. Sources have the label shapes of
    /// [`label_shapes_conform_per_op_and_per_batch`], a hub of degree
    /// 2 000, a dead slot in the middle, a slot revived under a new label
    /// and trailing dead slots. The copy keeps the source's metadata, so
    /// its `vertex_slots()` keeps the trailing dead slots, where the
    /// edge-by-edge build ends at the last alive vertex.
    #[test]
    fn from_graph_equals_an_edge_by_edge_build() {
        // (vertex labels, edge labels, vertices, hub degree, random edges)
        let shapes = [
            (1, 44, 48, 0, 300),
            (20, 20, 2048, 2000, 120),
            (5, 1, 48, 0, 300),
        ];
        for (vls, els, verts, hub, n) in shapes {
            let mut x = 0x2545_f491_4f6c_dd1d_u64;
            let mut rnd = move |k: u32| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 8) as u32 % k
            };
            let mut g = DataGraph::new();
            for i in 0..verts {
                g.add_vertex(VLabel(i % vls));
            }
            let link = |g: &mut DataGraph, a: u32, b: u32, el: u32| {
                let _ = g.insert_edge(VertexId(a), VertexId(b), ELabel(el));
            };
            for i in 1..=hub {
                link(&mut g, 0, i, rnd(els));
            }
            for _ in 0..n {
                let (a, b) = (rnd(verts), rnd(verts));
                link(&mut g, a, b, rnd(els));
            }
            // A dead slot in the middle; slot 1 revived under a new label
            // and reconnected; slots `verts..verts + 6` dead at the end.
            g.delete_vertex(VertexId(3), true).unwrap();
            g.delete_vertex(VertexId(1), true).unwrap();
            g.ensure_vertex(VertexId(1), VLabel(vls / 2 + 1));
            for i in 0..20 {
                link(&mut g, 1, 4 + i * 2, rnd(els));
            }
            g.ensure_vertex(VertexId(verts + 5), VLabel(0));
            g.delete_vertex(VertexId(verts + 5), false).unwrap();
            g.check_invariants().unwrap();

            let slots = g.vertex_slots() as u32;
            for shards in [1usize, 2, 4, 7] {
                for cfg in [
                    ShardConfig::hash(shards),
                    ShardConfig::range_even(shards, slots),
                ] {
                    let mut sg = ShardedGraph::from_graph(cfg.clone(), &g).unwrap();
                    let mut built = ShardedGraph::new(cfg).unwrap();
                    for v in g.vertices() {
                        built.ensure_vertex(v, g.label(v));
                    }
                    for (a, b, l) in g.edges() {
                        assert_eq!(built.insert_edge(a, b, l), Ok(true));
                    }
                    sg.check_invariants().unwrap();
                    assert_eq!(sg.vertex_slots(), g.vertex_slots());
                    assert_eq!(built.vertex_slots(), verts as usize);
                    same_graph(&sg, &built);

                    // Both keep taking writes alike, including a revived
                    // trailing slot and a batch on the parallel path.
                    for h in [&mut sg, &mut built] {
                        h.ensure_vertex(VertexId(verts + 2), VLabel(0));
                        h.insert_edge(VertexId(verts + 2), VertexId(0), ELabel(0))
                            .unwrap();
                    }
                    let ops = seeded_ops(200, verts, 5);
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    GraphShard::apply_edge_batch(&mut sg, &ops, &mut got);
                    GraphShard::apply_edge_batch(&mut built, &ops, &mut want);
                    assert_eq!(got, want);
                    sg.check_invariants().unwrap();
                    same_graph(&sg, &built);
                }
            }
        }
        assert!(ShardedGraph::from_graph(ShardConfig::hash(0), &DataGraph::new()).is_err());
    }

    /// `a` and `b` hold the same vertices, lists and per-store stats.
    fn same_graph(a: &ShardedGraph, b: &ShardedGraph) {
        assert_eq!(a.shard_stats(), b.shard_stats());
        assert_eq!(
            (a.num_vertices(), a.num_edges()),
            (b.num_vertices(), b.num_edges())
        );
        for v in (0..a.vertex_slots().max(b.vertex_slots())).map(VertexId::from) {
            assert_eq!(a.is_alive(v), b.is_alive(v), "{v:?}");
            assert_eq!(a.neighbors(v), b.neighbors(v), "{v:?}");
        }
        for l in (0..a.num_vertex_label_buckets() as u32).map(VLabel) {
            let mut members = a.vertices_with_label(l).to_vec();
            let mut want = b.vertices_with_label(l).to_vec();
            members.sort_unstable();
            want.sort_unstable();
            assert_eq!(members, want);
        }
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        assert_eq!(
            ShardConfig::hash(0).validate(),
            Err(GraphError::ShardConfig { field: "shards" })
        );
        // Overlapping ranges.
        assert_eq!(
            ShardConfig::range(vec![(0, 10), (5, 20)]).validate(),
            Err(GraphError::ShardConfig { field: "ranges" })
        );
        // Gap.
        assert_eq!(
            ShardConfig::range(vec![(0, 10), (12, 20)]).validate(),
            Err(GraphError::ShardConfig { field: "ranges" })
        );
        // Empty span.
        assert_eq!(
            ShardConfig::range(vec![(0, 0)]).validate(),
            Err(GraphError::ShardConfig { field: "ranges" })
        );
        // Not starting at 0.
        assert_eq!(
            ShardConfig::range(vec![(1, 10)]).validate(),
            Err(GraphError::ShardConfig { field: "ranges" })
        );
        assert!(ShardConfig::range(vec![(0, 10), (10, 20)])
            .validate()
            .is_ok());
        assert!(ShardConfig::hash(4).validate().is_ok());
        assert!(ShardConfig::range_even(3, 1000).validate().is_ok());
        assert!(ShardedGraph::new(ShardConfig::hash(0)).is_err());
    }

    #[test]
    fn range_partitioner_routes_by_span() {
        let cfg = ShardConfig::range(vec![(0, 10), (10, 20), (20, 30)]);
        assert_eq!(cfg.shard_index_for(VertexId(0)), 0);
        assert_eq!(cfg.shard_index_for(VertexId(9)), 0);
        assert_eq!(cfg.shard_index_for(VertexId(10)), 1);
        assert_eq!(cfg.shard_index_for(VertexId(29)), 2);
        // Ids beyond the last span route to the last shard.
        assert_eq!(cfg.shard_index_for(VertexId(1_000_000)), 2);
    }

    #[test]
    fn hash_partitioner_spreads_ids() {
        let cfg = ShardConfig::hash(4);
        let mut seen = [0usize; 4];
        for i in 0..1000 {
            seen[cfg.shard_index_for(VertexId(i))] += 1;
        }
        for (s, &c) in seen.iter().enumerate() {
            assert!(c > 100, "shard {s} starved: {c}");
        }
    }

    /// `from_graph` re-routes an existing graph's lists, and the applier
    /// counters record every half it routes — but only behind a router:
    /// the constant route reports 0.
    #[test]
    fn from_graph_reshards_and_counts_routed_ops() {
        let mut g = DataGraph::new();
        for i in 0..32 {
            g.add_vertex(VLabel(i % 5));
        }
        let mut flags = Vec::new();
        g.apply_edge_batch_with(&seeded_ops(200, 32, 99), 2, &mut flags);
        g.check_invariants().unwrap();
        let mono = GraphShard::shard_stats(&g);
        assert_eq!((mono.len(), mono[0].applied_ops), (1, 0));
        assert_eq!(mono[0].half_edges, 2 * g.num_edges());
        for cfg in [ShardConfig::hash(1), ShardConfig::hash(4)] {
            let sg = ShardedGraph::from_graph(cfg.clone(), &g).unwrap();
            sg.check_invariants().unwrap();
            assert_eq!(sg.config(), &cfg);
            for v in g.vertices() {
                assert_eq!(sg.neighbors(v), g.neighbors(v));
            }
            let routed: u64 = sg.shard_stats().iter().map(|s| s.applied_ops).sum();
            assert_eq!(routed, 2 * g.num_edges() as u64);
        }
    }
}
