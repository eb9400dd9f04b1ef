//! The dynamic labeled data graph `G`: one adjacency store type, one
//! vertex-metadata block, and a route between them.
//!
//! [`Graph<R>`] keeps every vertex's label, liveness and label bucket in
//! one place and every vertex's neighbor list in exactly one
//! [`AdjStore`], chosen by the [`Route`] `R`. [`DataGraph`] is the
//! constant-route, one-store instance; [`crate::shard::ShardedGraph`] is
//! the [`crate::shard::ShardConfig`]-routed `K`-store instance. Vertex
//! lifecycle, edge insert/remove, the invariant check and batch apply
//! are written once, against the route.
//!
//! Design notes:
//!
//! * adjacency is **label-partitioned**: each vertex's neighbor list is a
//!   single `Vec<(VertexId, ELabel)>` sorted by `(L(neighbor), elabel,
//!   neighbor id)` plus a small per-vertex partition index mapping each
//!   distinct `(L(neighbor), elabel)` pair to its contiguous run. The
//!   enumeration kernel asks "neighbors of `v` with vertex label `X` over
//!   edge label `y`" — with this layout that is an `O(log #groups)` index
//!   probe returning a contiguous, id-sorted slice, with zero per-neighbor
//!   label branches. CSM spends > 90 % of its time in `Find_Matches`
//!   (paper Table 3), i.e. *reading* the graph, which justifies paying
//!   `O(d)` vector shifts on update;
//! * the search phase only ever holds `&Graph`, so multi-threaded
//!   enumeration is data-race-free by construction (no locks on the hot
//!   path);
//! * [`Mono`] is zero-sized and its store sits inline in the graph, so the
//!   monolithic read path is the plain `adj[v]` slice lookup — no shard
//!   branch, no extra pointer hop.
//!
//! ## The half-edge invariant
//!
//! An undirected edge `{a, b}` with label `l` exists as two *half-edges*:
//!
//! > `(b, l) ∈ adj[a]` in `store(a)`  **and**  `(a, l) ∈ adj[b]` in
//! > `store(b)`.
//!
//! Both halves are present or both are absent — never one. A vertex's
//! whole neighbor list lives in its one store, so every `neighbors_with`
//! slice is a single contiguous, id-sorted borrow, and the kernel's
//! galloping multi-way intersection works unchanged when the slices it
//! intersects come from different stores.
//!
//! ## Why batch apply needs no locks
//!
//! [`Graph::apply_edge_batch_with`] turns each edge op into its two
//! half-ops, routes every half-op to the store (and id-range chunk of that
//! store) holding its endpoint, and hands each chunk to exactly one job as
//! a disjoint `&mut` sub-slice of the store's adjacency table — no two
//! writers ever share a list, so there is nothing to lock. Ops on the same
//! edge reach both endpoint lists in the same relative order (both halves
//! carry the batch sequence tag), and each half's `changed` verdict is a
//! pure function of prior ops on that edge plus the invariant above — so
//! both sides decide identically without coordinating. This one pipeline
//! is the paper's §4.2 safe-update batch executor on the constant route
//! and the multi-writer shard applier on a `K`-store route.
//!
//! **Ordering contract:** `neighbors(v)` is sorted by `(L(neighbor),
//! elabel, id)`, *not* globally by id. Within one `(vlabel, elabel)` group
//! the slice is strictly id-sorted — that is what makes galloping
//! multi-way intersections over [`Graph::neighbors_with`] slices
//! valid. A vlabel-range slice ([`Graph::neighbors_with_vlabel`])
//! spans several elabel groups and is therefore *not* id-sorted; callers
//! that ignore edge labels must probe, not merge.

use crate::error::{GraphError, Result};
use crate::ids::{ELabel, VLabel, VertexId};
use crate::par;
use crate::shard::{GraphShard, ShardStats};
use crate::update::EdgeUpdate;

/// Packed partition key: vertex label in the high 32 bits, edge label in
/// the low 32. Lexicographic `u64` order == `(VLabel, ELabel)` order.
#[inline]
fn group_key(vl: VLabel, el: ELabel) -> u64 {
    ((vl.0 as u64) << 32) | el.0 as u64
}

/// One vertex's label-partitioned neighbor list.
///
/// `entries` is sorted by `(L(neighbor), elabel, neighbor id)`; `groups`
/// holds one `(packed key, start offset)` per distinct `(L(neighbor),
/// elabel)` pair present, sorted by key. A group's run ends where the
/// next group starts (or at `entries.len()` for the last).
///
/// Invariants (checked by [`DataGraph::check_invariants`]):
/// * `groups` keys strictly increase; starts strictly increase from 0;
/// * every entry's `(neighbor label, elabel)` equals its group's key;
/// * within a group, neighbor ids strictly increase;
/// * a neighbor id appears in at most one group (simple graph).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AdjList {
    entries: Vec<(VertexId, ELabel)>,
    groups: Vec<(u64, u32)>,
}

impl AdjList {
    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn as_slice(&self) -> &[(VertexId, ELabel)] {
        &self.entries
    }

    /// End offset (exclusive) of group `gi`.
    #[inline]
    fn group_end(&self, gi: usize) -> usize {
        self.groups
            .get(gi + 1)
            .map_or(self.entries.len(), |&(_, s)| s as usize)
    }

    /// Group-index range `[lo, hi)` covering vertex label `vl`.
    #[inline]
    fn vlabel_bounds(&self, vl: VLabel) -> (usize, usize) {
        let lo = self
            .groups
            .partition_point(|&(k, _)| (k >> 32) < vl.0 as u64);
        let hi = self
            .groups
            .partition_point(|&(k, _)| (k >> 32) <= vl.0 as u64);
        (lo, hi)
    }

    /// The id-sorted run of neighbors with label `vl` over elabel `el`.
    #[inline]
    fn slice(&self, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        match self
            .groups
            .binary_search_by_key(&group_key(vl, el), |&(k, _)| k)
        {
            Ok(gi) => &self.entries[self.groups[gi].1 as usize..self.group_end(gi)],
            Err(_) => &[],
        }
    }

    /// All neighbors with label `vl`, any elabel (sorted by `(elabel, id)`).
    #[inline]
    fn slice_vlabel(&self, vl: VLabel) -> &[(VertexId, ELabel)] {
        let (lo, hi) = self.vlabel_bounds(vl);
        if lo == hi {
            return &[];
        }
        &self.entries[self.groups[lo].1 as usize..self.group_end(hi - 1)]
    }

    /// Elabel of the edge to neighbor `n` (whose label is `nl`), if present.
    fn find(&self, n: VertexId, nl: VLabel) -> Option<ELabel> {
        let (lo, hi) = self.vlabel_bounds(nl);
        for gi in lo..hi {
            let s = self.groups[gi].1 as usize;
            let e = self.group_end(gi);
            if self.entries[s..e]
                .binary_search_by_key(&n, |&(v, _)| v)
                .is_ok()
            {
                return Some(ELabel(self.groups[gi].0 as u32));
            }
        }
        None
    }

    /// Insert neighbor `n` (label `nl`) over elabel `el`. Returns `false`
    /// if an edge to `n` already exists under *any* elabel (simple graph).
    fn insert(&mut self, n: VertexId, el: ELabel, nl: VLabel) -> bool {
        let (lo, hi) = self.vlabel_bounds(nl);
        for gi in lo..hi {
            let s = self.groups[gi].1 as usize;
            let e = self.group_end(gi);
            if self.entries[s..e]
                .binary_search_by_key(&n, |&(v, _)| v)
                .is_ok()
            {
                return false;
            }
        }
        let key = group_key(nl, el);
        match self.groups[lo..hi].binary_search_by_key(&key, |&(k, _)| k) {
            Ok(rel) => {
                let gi = lo + rel;
                let s = self.groups[gi].1 as usize;
                let e = self.group_end(gi);
                let off = self.entries[s..e]
                    .binary_search_by_key(&n, |&(v, _)| v)
                    .expect_err("duplicate neighbor passed the group scan");
                self.entries.insert(s + off, (n, el));
                for g in &mut self.groups[gi + 1..] {
                    g.1 += 1;
                }
            }
            Err(rel) => {
                let gi = lo + rel;
                let pos = if gi == self.groups.len() {
                    self.entries.len()
                } else {
                    self.groups[gi].1 as usize
                };
                self.entries.insert(pos, (n, el));
                self.groups.insert(gi, (key, pos as u32));
                for g in &mut self.groups[gi + 1..] {
                    g.1 += 1;
                }
            }
        }
        true
    }

    /// Apply a FIFO sequence of half-edge operations in one list rebuild.
    ///
    /// Semantically identical to calling [`AdjList::insert`] /
    /// [`AdjList::remove`] per op in sequence — each op's `changed` flag
    /// (appended to `out` with its tag) reflects the list state produced
    /// by the ops before it — but the entry vector is spliced **once**:
    /// `O(len + k log k)` instead of the `O(k · len)` shifts of per-op
    /// application. This is what makes a single-writer shard applier
    /// beat the serial per-op path on dense (hub-heavy) batches.
    fn apply_ops_merged(&mut self, ops: &[(u32, HalfOp)], out: &mut Vec<(u32, bool)>) {
        // Distinct touched neighbors, with their initial edge label. A
        // neighbor's vertex label is stable for the whole batch (vertex
        // updates never share a batch with edge updates).
        let mut touched: Vec<(VertexId, VLabel)> = ops
            .iter()
            .map(|&(_, op)| (op.neighbor(), op.neighbor_label()))
            .collect();
        touched.sort_unstable_by_key(|&(n, _)| n);
        touched.dedup_by_key(|e| e.0);
        let init: Vec<Option<ELabel>> = touched.iter().map(|&(n, nl)| self.find(n, nl)).collect();
        let mut cur = init.clone();

        // Replay the sequence against the touched-set state only.
        for &(tag, op) in ops {
            let i = touched
                .binary_search_by_key(&op.neighbor(), |&(n, _)| n)
                .expect("op neighbor missing from touched set");
            let changed = match op {
                HalfOp::Insert { el, .. } => {
                    if cur[i].is_none() {
                        cur[i] = Some(el);
                        true
                    } else {
                        false
                    }
                }
                HalfOp::Remove { .. } => cur[i].take().is_some(),
            };
            out.push((tag, changed));
        }

        // Net effect per neighbor → one merged rebuild.
        let mut inserts: Vec<(u64, VertexId, ELabel)> = Vec::new();
        let mut removes: Vec<(u64, VertexId)> = Vec::new();
        for (i, &(n, nl)) in touched.iter().enumerate() {
            match (init[i], cur[i]) {
                (None, Some(el)) => inserts.push((group_key(nl, el), n, el)),
                (Some(el0), None) => removes.push((group_key(nl, el0), n)),
                (Some(el0), Some(el1)) if el0 != el1 => {
                    // Removed and re-inserted under a different elabel.
                    removes.push((group_key(nl, el0), n));
                    inserts.push((group_key(nl, el1), n, el1));
                }
                _ => {}
            }
        }
        if inserts.is_empty() && removes.is_empty() {
            return;
        }
        inserts.sort_unstable();
        removes.sort_unstable();
        self.rebuild_merged(&inserts, &removes);
    }

    /// Rebuild `entries`/`groups` in one pass: old entries (minus
    /// `removes`) merged with `inserts`, both sorted by `(group key, id)`.
    fn rebuild_merged(&mut self, inserts: &[(u64, VertexId, ELabel)], removes: &[(u64, VertexId)]) {
        let old_entries = std::mem::take(&mut self.entries);
        let old_groups = std::mem::take(&mut self.groups);
        let mut entries: Vec<(VertexId, ELabel)> =
            Vec::with_capacity(old_entries.len() + inserts.len() - removes.len());
        let mut groups: Vec<(u64, u32)> = Vec::new();
        fn push(
            groups: &mut Vec<(u64, u32)>,
            entries: &mut Vec<(VertexId, ELabel)>,
            key: u64,
            n: VertexId,
            el: ELabel,
        ) {
            if groups.last().map(|&(k, _)| k) != Some(key) {
                groups.push((key, entries.len() as u32));
            }
            entries.push((n, el));
        }
        let mut ins = inserts.iter().peekable();
        let mut rem = removes.iter().peekable();
        for gi in 0..old_groups.len() {
            let (key, s) = old_groups[gi];
            let e = old_groups
                .get(gi + 1)
                .map_or(old_entries.len(), |&(_, s)| s as usize);
            for &(n, el) in &old_entries[s as usize..e] {
                while let Some(&&(ik, inn, iel)) = ins.peek() {
                    if (ik, inn) < (key, n) {
                        push(&mut groups, &mut entries, ik, inn, iel);
                        ins.next();
                    } else {
                        break;
                    }
                }
                if rem.peek() == Some(&&(key, n)) {
                    rem.next();
                    continue;
                }
                push(&mut groups, &mut entries, key, n, el);
            }
        }
        for &(ik, inn, iel) in ins {
            push(&mut groups, &mut entries, ik, inn, iel);
        }
        debug_assert!(rem.peek().is_none(), "remove target missing from list");
        self.entries = entries;
        self.groups = groups;
    }

    /// Remove the edge to neighbor `n` (label `nl`), returning its elabel.
    fn remove(&mut self, n: VertexId, nl: VLabel) -> Option<ELabel> {
        let (lo, hi) = self.vlabel_bounds(nl);
        for gi in lo..hi {
            let s = self.groups[gi].1 as usize;
            let e = self.group_end(gi);
            if let Ok(off) = self.entries[s..e].binary_search_by_key(&n, |&(v, _)| v) {
                let (_, label) = self.entries.remove(s + off);
                if e - s == 1 {
                    self.groups.remove(gi);
                    for g in &mut self.groups[gi..] {
                        g.1 -= 1;
                    }
                } else {
                    for g in &mut self.groups[gi + 1..] {
                        g.1 -= 1;
                    }
                }
                return Some(label);
            }
        }
        None
    }
}

/// One endpoint-local half of an undirected edge operation, as a writer
/// job of [`Graph::apply_edge_batch_with`] applies it to the list of the
/// endpoint it mutates. Carries the *neighbor's* vertex label, which is
/// what the partition index is keyed by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HalfOp {
    /// Add neighbor `n` (labeled `nl`) over edge label `el`.
    Insert {
        /// Neighbor vertex.
        n: VertexId,
        /// Edge label.
        el: ELabel,
        /// Neighbor's vertex label.
        nl: VLabel,
    },
    /// Drop the edge to neighbor `n` (labeled `nl`).
    Remove {
        /// Neighbor vertex.
        n: VertexId,
        /// Neighbor's vertex label.
        nl: VLabel,
    },
}

impl HalfOp {
    #[inline]
    fn neighbor(self) -> VertexId {
        match self {
            HalfOp::Insert { n, .. } | HalfOp::Remove { n, .. } => n,
        }
    }

    #[inline]
    fn neighbor_label(self) -> VLabel {
        match self {
            HalfOp::Insert { nl, .. } | HalfOp::Remove { nl, .. } => nl,
        }
    }
}

/// One adjacency store: the neighbor lists of the vertices routed to it,
/// indexed by global vertex id (slots of vertices routed elsewhere stay
/// empty), plus occupancy and applier counters. Opaque outside this
/// module — it is public only so [`Route::Stores`] can name it.
#[derive(Clone, Debug, Default)]
pub struct AdjStore {
    adj: Vec<AdjList>,
    /// Alive vertices routed here.
    owned: usize,
    /// Half-edges stored here.
    half_edges: usize,
    /// Half-edge ops applied here, successful or not.
    applied_ops: u64,
}

impl AdjStore {
    /// Insert the `v → n` half of an undirected edge. `v` must have a slot
    /// here; `n` (labeled `nl`) may live in any store.
    fn insert_half(&mut self, v: VertexId, n: VertexId, el: ELabel, nl: VLabel) -> bool {
        let did = self.adj[v.index()].insert(n, el, nl);
        self.half_edges += usize::from(did);
        self.applied_ops += 1;
        did
    }

    /// Remove the `v → n` half-edge. See [`AdjStore::insert_half`].
    fn remove_half(&mut self, v: VertexId, n: VertexId, nl: VLabel) -> Option<ELabel> {
        let out = self.adj[v.index()].remove(n, nl);
        self.half_edges -= usize::from(out.is_some());
        self.applied_ops += 1;
        out
    }
}

/// Apply one writer job's half-ops to `lists`, the sub-slice of a store's
/// adjacency table starting at vertex id `base`. `run` names each half-op
/// as `(endpoint, tag)`; the op itself is read back from `ops[tag >> 1]`
/// and the neighbor's label from `labels`. Sort by `(endpoint, tag)` (tags
/// are monotone in op order, so this is per-endpoint FIFO order), then
/// splice each endpoint's run into its list with **one** merged rebuild
/// instead of per-op `O(d)` shifts. Returns `(tag, changed)` per op.
fn apply_run(
    lists: &mut [AdjList],
    base: usize,
    mut run: Vec<(VertexId, u32)>,
    ops: &[(EdgeUpdate, bool)],
    labels: &[VLabel],
) -> Vec<(u32, bool)> {
    run.sort_unstable();
    let mut out = Vec::with_capacity(run.len());
    let mut scratch: Vec<(u32, HalfOp)> = Vec::new();
    for group in run.chunk_by(|a, b| a.0 == b.0) {
        scratch.clear();
        scratch.extend(group.iter().map(|&(_, tag)| {
            let (e, insert) = ops[(tag >> 1) as usize];
            let n = if tag & 1 == 1 { e.dst } else { e.src };
            let nl = labels[n.index()];
            let op = if insert {
                HalfOp::Insert { n, el: e.label, nl }
            } else {
                HalfOp::Remove { n, nl }
            };
            (tag, op)
        }));
        lists[group[0].0.index() - base].apply_ops_merged(&scratch, &mut out);
    }
    out
}

/// Where a vertex's adjacency lives — the one decision [`Graph`] is
/// parameterised by. Implemented by [`Mono`] (everything in one store)
/// and [`crate::shard::ShardConfig`] (hash or range partitioning over `K`
/// stores).
pub trait Route: Clone + std::fmt::Debug + Send + Sync {
    /// The store container: an inline one-element array for the constant
    /// route, a `Vec` for a run-time store count.
    type Stores: AsRef<[AdjStore]> + AsMut<[AdjStore]> + Clone + std::fmt::Debug + Send + Sync;
    /// Whether there is a router in front of the stores. The constant
    /// route has none, so [`ShardStats::applied_ops`] ("ops routed through
    /// this shard's applier") stays 0 for it.
    const ROUTED: bool;
    /// Fresh empty stores, one per route target.
    fn new_stores(&self) -> Self::Stores;
    /// Index of the store holding `v`'s adjacency (always below the
    /// length of [`Route::new_stores`]).
    fn store_of(&self, v: VertexId) -> usize;
}

/// The constant route: every vertex lives in the single inline store.
/// Zero-sized, so `Graph<Mono>` pays nothing for being routable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mono;

impl Route for Mono {
    type Stores = [AdjStore; 1];
    const ROUTED: bool = false;
    fn new_stores(&self) -> [AdjStore; 1] {
        [AdjStore::default()]
    }
    #[inline(always)]
    fn store_of(&self, _v: VertexId) -> usize {
        0
    }
}

/// Edge batches below this many ops take the serial per-op path (spawn and
/// routing overhead beats the merge win). Unverified: no committed
/// measurement set it; 32 is the smaller of the two thresholds the former
/// monolithic (64) and sharded (32) bulk paths used.
const MIN_PARALLEL_BATCH: usize = 32;

/// The dynamic, labeled, undirected data graph `G = (V, E, L)`, with
/// adjacency placed by the route `R` (see the module docs).
///
/// Vertices are dense `u32` ids. Deleted vertices leave a dead slot so that
/// ids in a pre-recorded update stream stay stable.
///
/// ```
/// use csm_graph::{DataGraph, VLabel, ELabel, VertexId};
/// let mut g = DataGraph::new();
/// let a = g.add_vertex(VLabel(0));
/// let b = g.add_vertex(VLabel(1));
/// g.insert_edge(a, b, ELabel(0)).unwrap();
/// assert!(g.has_edge(a, b));
/// assert_eq!(g.degree(a), 1);
/// assert_eq!(g.neighbors_with(a, VLabel(1), ELabel(0)), &[(b, ELabel(0))]);
/// ```
#[derive(Clone, Debug)]
pub struct Graph<R: Route> {
    route: R,
    stores: R::Stores,
    labels: Vec<VLabel>,
    alive: Vec<bool>,
    /// Alive vertices grouped by label; order within a bucket is unspecified.
    by_label: Vec<Vec<VertexId>>,
    n_edges: usize,
    n_alive: usize,
    max_elabel: u32,
}

/// The monolithic in-memory data graph: [`Graph`] on the constant route.
pub type DataGraph = Graph<Mono>;

impl Default for DataGraph {
    fn default() -> Self {
        Self::with_route(Mono)
    }
}

impl DataGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with vertex capacity reserved up front.
    pub fn with_capacity(vertices: usize) -> Self {
        let mut g = Self::default();
        g.labels.reserve(vertices);
        g.alive.reserve(vertices);
        g.stores[0].adj.reserve(vertices);
        g
    }
}

impl<R: Route> Graph<R> {
    /// An empty graph whose adjacency is placed by `route`.
    pub(crate) fn with_route(route: R) -> Self {
        Graph {
            stores: route.new_stores(),
            route,
            labels: Vec::new(),
            alive: Vec::new(),
            by_label: Vec::new(),
            n_edges: 0,
            n_alive: 0,
            max_elabel: 0,
        }
    }

    /// The vertex→store route in force.
    pub(crate) fn route(&self) -> &R {
        &self.route
    }

    /// `v`'s neighbor list in its store, if it has a slot there.
    #[inline]
    fn list(&self, v: VertexId) -> Option<&AdjList> {
        self.stores.as_ref()[self.route.store_of(v)]
            .adj
            .get(v.index())
    }

    /// The store holding `v`'s adjacency.
    #[inline]
    fn store_mut(&mut self, v: VertexId) -> &mut AdjStore {
        &mut self.stores.as_mut()[self.route.store_of(v)]
    }

    /// Number of *alive* vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n_alive
    }

    /// Number of vertex slots ever allocated (alive + dead). Valid ids are
    /// `0..vertex_slots()`.
    #[inline]
    pub fn vertex_slots(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.n_edges
    }

    /// Largest edge label value seen so far (0 if none).
    #[inline]
    pub fn max_edge_label(&self) -> u32 {
        self.max_elabel
    }

    /// Number of distinct vertex-label buckets allocated (an upper bound on
    /// `|Σ_V|` actually in use).
    #[inline]
    pub fn num_vertex_label_buckets(&self) -> usize {
        self.by_label.len()
    }

    /// Append a fresh vertex with the given label, returning its id.
    pub fn add_vertex(&mut self, label: VLabel) -> VertexId {
        let id = VertexId::from(self.labels.len());
        self.ensure_vertex(id, label);
        id
    }

    /// Ensure slot `id` exists and is alive with `label`, growing the slot
    /// table as needed. Used by the text loader, where vertex ids are
    /// explicit. Growing creates intermediate *dead* slots.
    ///
    /// Reviving a dead slot may change its label: that is safe for the
    /// partition index because dead vertices are always isolated
    /// ([`Graph::delete_vertex`] requires isolation or cascades), so no
    /// neighbor list holds an entry keyed by the stale label.
    pub fn ensure_vertex(&mut self, id: VertexId, label: VLabel) {
        let i = id.index();
        if self.labels.len() <= i {
            self.labels.resize(i + 1, VLabel(0));
            self.alive.resize(i + 1, false);
        }
        if !self.alive[i] {
            self.alive[i] = true;
            self.labels[i] = label;
            self.bucket_mut(label).push(id);
            self.n_alive += 1;
            let store = self.store_mut(id);
            if store.adj.len() <= i {
                store.adj.resize_with(i + 1, AdjList::default);
            }
            debug_assert!(store.adj[i].is_empty(), "dead slot with edges");
            store.owned += 1;
        }
    }

    /// Delete a vertex. With `cascade = false` the vertex must be isolated;
    /// with `cascade = true` all incident edges are removed first (this is
    /// how vertex deletions in an update stream decompose into edge
    /// deletions, paper Def. 2.3).
    ///
    /// The dead slot is also removed from its `by_label` bucket, so
    /// [`Graph::vertices_with_label`] never yields dead vertices to
    /// depth-0 candidate scans.
    pub fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> Result<()> {
        self.check_alive(id)?;
        let d = self.degree(id);
        if d > 0 {
            if !cascade {
                return Err(GraphError::VertexNotIsolated(id, d));
            }
            let neighbors: Vec<VertexId> = self.neighbors(id).iter().map(|&(v, _)| v).collect();
            for v in neighbors {
                self.remove_edge(id, v)?;
            }
        }
        self.alive[id.index()] = false;
        let label = self.labels[id.index()];
        let bucket = self.bucket_mut(label);
        let pos = bucket
            .iter()
            .position(|&v| v == id)
            .expect("alive vertex missing from its label bucket");
        bucket.swap_remove(pos);
        self.n_alive -= 1;
        self.store_mut(id).owned -= 1;
        Ok(())
    }

    /// Insert the undirected edge `{a, b}` with label `l`.
    ///
    /// Returns `Ok(true)` if the edge was inserted, `Ok(false)` if an edge
    /// between `a` and `b` already existed (the insert is then a no-op —
    /// this matches the simple-graph model; streams replaying an existing
    /// edge are tolerated rather than corrupting adjacency).
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool> {
        let (la, lb) = self.endpoint_labels(a, b)?;
        if !self.store_mut(a).insert_half(a, b, l, lb) {
            return Ok(false);
        }
        let mirrored = self.store_mut(b).insert_half(b, a, l, la);
        debug_assert!(mirrored, "half-edge invariant violated on insert");
        self.n_edges += 1;
        self.max_elabel = self.max_elabel.max(l.0);
        Ok(true)
    }

    /// Remove the undirected edge `{a, b}`, returning its label, or `None`
    /// if no such edge existed.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>> {
        let (la, lb) = self.endpoint_labels(a, b)?;
        let Some(label) = self.store_mut(a).remove_half(a, b, lb) else {
            return Ok(None);
        };
        let mirrored = self.store_mut(b).remove_half(b, a, la);
        debug_assert_eq!(
            mirrored,
            Some(label),
            "half-edge invariant violated on remove"
        );
        self.n_edges -= 1;
        Ok(Some(label))
    }

    /// Apply a FIFO batch of edge updates (`true` = insert) with up to
    /// `writers` concurrent single-writer jobs (at least one per store),
    /// pushing one per-op `changed` flag.
    ///
    /// The semantics are exactly those of calling
    /// [`Graph::insert_edge`] / [`Graph::remove_edge`] per op in order — an
    /// op sees the graph produced by every op before it; invalid ops
    /// (self-loop, dead endpoint) come back `false` — and batches too small
    /// to pay for a fork-join, or with a single writer, run as that serial
    /// loop. Otherwise: route half-ops to per-store, per-id-range runs →
    /// one job per run over a disjoint `&mut` chunk of the store's
    /// adjacency table ([`par::run_jobs`]) → one merged list rebuild per
    /// touched vertex → merge the `changed` flags and do the edge
    /// accounting serially. See the module docs for why no locks are
    /// needed.
    pub fn apply_edge_batch_with(
        &mut self,
        ops: &[(EdgeUpdate, bool)],
        writers: usize,
        changed: &mut Vec<bool>,
    ) {
        let ns = self.stores.as_ref().len();
        let per_store = writers.div_ceil(ns).max(1);
        if ns * per_store == 1 || ops.len() < MIN_PARALLEL_BATCH {
            for &(e, insert) in ops {
                changed.push(if insert {
                    self.insert_edge(e.src, e.dst, e.label).unwrap_or(false)
                } else {
                    self.remove_edge(e.src, e.dst)
                        .is_ok_and(|label| label.is_some())
                });
            }
            return;
        }

        // Route each op's two halves as `(endpoint, tag)` to store `s`,
        // id-range chunk `v / widths[s]` of that store. Tag = op index << 1
        // | is_src_half: monotone in op order, so the per-endpoint sort in
        // `apply_run` restores FIFO, and the merge knows which half's
        // verdict to keep.
        let widths: Vec<usize> = (self.stores.as_ref().iter())
            .map(|s| s.adj.len().div_ceil(per_store).max(1))
            .collect();
        let mut runs: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); ns * per_store];
        for (i, &(e, _)) in ops.iter().enumerate() {
            if self.endpoint_labels(e.src, e.dst).is_err() {
                continue; // verdict stays `false`, like the serial path
            }
            let tag = (i as u32) << 1;
            for (v, tag) in [(e.src, tag | 1), (e.dst, tag)] {
                let s = self.route.store_of(v);
                self.stores.as_mut()[s].applied_ops += 1;
                runs[s * per_store + v.index() / widths[s]].push((v, tag));
            }
        }

        // One single-writer job per non-empty run; disjoint `&mut` chunks.
        let labels = &self.labels[..];
        let chunks = (self.stores.as_mut().iter_mut().zip(&widths)).flat_map(|(store, &w)| {
            let mut it = store.adj.chunks_mut(w);
            (0..per_store).map(move |_| it.next().unwrap_or_default())
        });
        let jobs: Vec<_> = (chunks.zip(runs).enumerate())
            .filter(|(_, (_, run))| !run.is_empty())
            .map(|(j, (lists, run))| {
                let (s, base) = (j / per_store, (j % per_store) * widths[j / per_store]);
                move || (s, apply_run(lists, base, run, ops, labels))
            })
            .collect();
        let results = par::run_jobs(jobs);

        // Merge: src-half verdicts become the per-op flags; every applied
        // half moves its store's half-edge count. Serial and exact.
        let base = changed.len();
        changed.resize(base + ops.len(), false);
        for &(s, ref flags) in &results {
            for &(tag, _) in flags.iter().filter(|f| f.1) {
                let i = (tag >> 1) as usize;
                let (e, insert) = ops[i];
                let store = &mut self.stores.as_mut()[s];
                if insert {
                    store.half_edges += 1;
                } else {
                    store.half_edges -= 1;
                }
                if tag & 1 == 1 {
                    changed[base + i] = true;
                    if insert {
                        self.n_edges += 1;
                        self.max_elabel = self.max_elabel.max(e.label.0);
                    } else {
                        self.n_edges -= 1;
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        for &(tag, did) in results.iter().flat_map(|(_, flags)| flags) {
            debug_assert_eq!(
                changed[base + (tag >> 1) as usize],
                did,
                "half-edge verdicts diverged between endpoints"
            );
        }
    }

    /// Does the undirected edge `{a, b}` exist?
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edge_label(a, b).is_some()
    }

    /// Label of edge `{a, b}`, if present. `O(#groups + log d)` via the
    /// smaller endpoint's partition index.
    #[inline]
    pub fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel> {
        let (la, lb) = (self.list(a)?, self.list(b)?);
        if !self.is_alive(a) || !self.is_alive(b) {
            return None;
        }
        // Probe the smaller endpoint list: both sides hold the edge.
        if lb.len() < la.len() {
            lb.find(a, self.labels[a.index()])
        } else {
            la.find(b, self.labels[b.index()])
        }
    }

    /// Does `{v, n}` exist with elabel exactly `el`? A targeted `O(log)`
    /// probe of one partition group — the kernel's backward-edge check.
    #[inline]
    pub fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool {
        let Some(list) = self.list(v) else {
            return false;
        };
        let Some(&nl) = self.labels.get(n.index()) else {
            return false;
        };
        list.slice(nl, el)
            .binary_search_by_key(&n, |&(w, _)| w)
            .is_ok()
    }

    /// Neighbor list of `v` (empty for dead/unknown vertices), sorted by
    /// `(L(neighbor), elabel, id)` — see the module-level ordering contract.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)] {
        self.list(v).map(AdjList::as_slice).unwrap_or(&[])
    }

    /// Neighbors of `v` with vertex label `vl` over edge label `el`, as a
    /// contiguous slice sorted by neighbor id. `O(log #groups)`.
    ///
    /// Id-sortedness makes these slices directly mergeable: the kernel's
    /// multi-way galloping intersection operates on them.
    #[inline]
    pub fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        self.list(v).map_or(&[][..], |l| l.slice(vl, el))
    }

    /// Neighbors of `v` with vertex label `vl` under *any* edge label, as a
    /// contiguous slice sorted by `(elabel, id)`. **Not** id-sorted across
    /// elabel groups — callers ignoring edge labels (CaLiG mode) must probe
    /// rather than merge.
    #[inline]
    pub fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)] {
        self.list(v).map_or(&[][..], |l| l.slice_vlabel(vl))
    }

    /// Count of neighbors of `v` with label `vl` (and elabel `el`, unless
    /// `None`). `O(log #groups)` — the NLF filter's building block.
    #[inline]
    pub fn count_neighbors_with(&self, v: VertexId, vl: VLabel, el: Option<ELabel>) -> usize {
        match el {
            Some(el) => self.neighbors_with(v, vl, el).len(),
            None => self.neighbors_with_vlabel(v, vl).len(),
        }
    }

    /// Degree of `v` (0 for dead/unknown vertices).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.list(v).map_or(0, AdjList::len)
    }

    /// Vertex label of `v`. Panics in debug builds on dead vertices.
    #[inline]
    pub fn label(&self, v: VertexId) -> VLabel {
        debug_assert!(self.is_alive(v), "label() on dead vertex {v:?}");
        self.labels[v.index()]
    }

    /// Is slot `v` an alive vertex?
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }

    /// Iterator over all alive vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| VertexId::from(i))
    }

    /// Alive vertices carrying `label` (unsorted). Buckets are maintained
    /// eagerly on vertex deletion, so the slice never contains dead slots.
    #[inline]
    pub fn vertices_with_label(&self, label: VLabel) -> &[VertexId] {
        self.by_label
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterator over all undirected edges `(a, b, label)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, ELabel)> + '_ {
        (0..self.labels.len()).flat_map(move |i| {
            let a = VertexId::from(i);
            self.neighbors(a)
                .iter()
                .filter(move |&&(b, _)| a < b)
                .map(move |&(b, l)| (a, b, l))
        })
    }

    /// Neighbors of `v` whose vertex label is `vl` and connecting edge label
    /// is `el` (`el = None` matches any edge label — CaLiG mode). `O(log)`
    /// partition lookup plus a branch-free slice walk.
    pub fn neighbors_filtered(
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

    #[inline]
    fn check_alive(&self, v: VertexId) -> Result<()> {
        if self.is_alive(v) {
            Ok(())
        } else {
            Err(GraphError::UnknownVertex(v))
        }
    }

    /// Validate the endpoints of an edge op (distinct, both alive) and
    /// return their vertex labels.
    #[inline]
    fn endpoint_labels(&self, a: VertexId, b: VertexId) -> Result<(VLabel, VLabel)> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        self.check_alive(a)?;
        self.check_alive(b)?;
        Ok((self.labels[a.index()], self.labels[b.index()]))
    }

    fn bucket_mut(&mut self, label: VLabel) -> &mut Vec<VertexId> {
        if self.by_label.len() <= label.index() {
            self.by_label.resize_with(label.index() + 1, Vec::new);
        }
        &mut self.by_label[label.index()]
    }

    /// Debug-only structural invariant check: partition-index integrity,
    /// the half-edge invariant (both halves present with equal labels, each
    /// in its endpoint's store and nowhere else), per-store and global
    /// edge/vertex counts, and label-bucket hygiene (alive-only,
    /// label-consistent, duplicate-free). Used by property tests.
    pub fn check_invariants(&self) -> Result<()> {
        let stores = self.stores.as_ref();
        let mut halves = vec![0usize; stores.len()];
        let mut owned = vec![0usize; stores.len()];
        for i in 0..self.labels.len() {
            let a = VertexId::from(i);
            let si = self.route.store_of(a);
            owned[si] += usize::from(self.alive[i]);
            let Some(list) = stores[si].adj.get(i) else {
                if self.alive[i] {
                    return Err(GraphError::Io(format!("{a:?} has no slot in store {si}")));
                }
                continue;
            };
            if !self.alive[i] && !list.is_empty() {
                return Err(GraphError::VertexNotIsolated(a, list.len()));
            }
            // Partition index: keys strictly increasing, starts strictly
            // increasing from 0, all in range, no empty groups.
            for w in list.groups.windows(2) {
                if w[0].0 >= w[1].0 {
                    return Err(GraphError::Io(format!("group keys of {a:?} not sorted")));
                }
                if w[0].1 >= w[1].1 {
                    return Err(GraphError::Io(format!(
                        "group starts of {a:?} not increasing"
                    )));
                }
            }
            match list.groups.first() {
                Some(&(_, s)) if s != 0 => {
                    return Err(GraphError::Io(format!("first group of {a:?} not at 0")));
                }
                None if !list.entries.is_empty() => {
                    return Err(GraphError::Io(format!("entries of {a:?} with no groups")));
                }
                _ => {}
            }
            if let Some(&(_, s)) = list.groups.last() {
                if (s as usize) >= list.entries.len() {
                    return Err(GraphError::Io(format!("empty trailing group on {a:?}")));
                }
            }
            // Entries agree with their group key; ids strictly increase
            // within a group; no neighbor appears twice overall.
            let mut seen: Vec<VertexId> = Vec::with_capacity(list.len());
            for gi in 0..list.groups.len() {
                let (key, s) = list.groups[gi];
                let e = list.group_end(gi);
                let (gvl, gel) = (VLabel((key >> 32) as u32), ELabel(key as u32));
                let run = &list.entries[s as usize..e];
                for w in run.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(GraphError::Io(format!(
                            "group {gvl:?}/{gel:?} of {a:?} not id-sorted"
                        )));
                    }
                }
                for &(b, l) in run {
                    if l != gel {
                        return Err(GraphError::Io(format!(
                            "entry {a:?}->{b:?} elabel {l:?} in group {gel:?}"
                        )));
                    }
                    if !self.is_alive(b) {
                        return Err(GraphError::Io(format!("edge {a:?}-{b:?} to dead vertex")));
                    }
                    if self.labels[b.index()] != gvl {
                        return Err(GraphError::Io(format!(
                            "entry {a:?}->{b:?} labeled {:?} in group {gvl:?}",
                            self.labels[b.index()]
                        )));
                    }
                    seen.push(b);
                }
            }
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return Err(GraphError::Io(format!("duplicate neighbor in {a:?}")));
            }
            // The half-edge invariant: the mirror half sits in `b`'s store.
            for &(b, l) in list.as_slice() {
                let back = self.list(b).and_then(|lb| lb.find(a, self.labels[i]));
                if back != Some(l) {
                    return Err(GraphError::Io(format!(
                        "half-edge {a:?}-{b:?} has no mirror in store {}",
                        self.route.store_of(b)
                    )));
                }
            }
            halves[si] += list.len();
        }
        for (si, store) in stores.iter().enumerate() {
            if (halves[si], owned[si]) != (store.half_edges, store.owned) {
                return Err(GraphError::Io(format!(
                    "store {si}: counted {} half-edges / {} vertices, recorded {} / {}",
                    halves[si], owned[si], store.half_edges, store.owned
                )));
            }
            if store.adj.iter().map(AdjList::len).sum::<usize>() != halves[si] {
                return Err(GraphError::Io(format!(
                    "store {si} holds adjacency of vertices routed elsewhere"
                )));
            }
        }
        let dir_edges: usize = halves.iter().sum();
        if dir_edges != self.n_edges * 2 {
            return Err(GraphError::Io(format!(
                "edge count mismatch: counted {dir_edges} directed, recorded {}",
                self.n_edges
            )));
        }
        // Label buckets: total matches the alive count, and every member is
        // an alive vertex filed under its own label, exactly once.
        let bucket_total: usize = self.by_label.iter().map(Vec::len).sum();
        if bucket_total != self.n_alive {
            return Err(GraphError::Io("label buckets out of sync".into()));
        }
        for (li, bucket) in self.by_label.iter().enumerate() {
            let mut members = bucket.clone();
            members.sort_unstable();
            if members.windows(2).any(|w| w[0] == w[1]) {
                return Err(GraphError::Io(format!("duplicate vertex in bucket {li}")));
            }
            for &v in bucket {
                if !self.is_alive(v) {
                    return Err(GraphError::Io(format!("dead vertex {v:?} in bucket {li}")));
                }
                if self.labels[v.index()].index() != li {
                    return Err(GraphError::Io(format!("vertex {v:?} in wrong bucket {li}")));
                }
            }
        }
        Ok(())
    }
}

/// Every [`Graph`] is a [`GraphShard`]: the read and per-op methods
/// delegate to the inherent method of the same name.
impl<R: Route> GraphShard for Graph<R> {
    #[inline]
    fn label(&self, v: VertexId) -> VLabel {
        Graph::label(self, v)
    }
    #[inline]
    fn is_alive(&self, v: VertexId) -> bool {
        Graph::is_alive(self, v)
    }
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        Graph::degree(self, v)
    }
    #[inline]
    fn vertex_slots(&self) -> usize {
        Graph::vertex_slots(self)
    }
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }
    #[inline]
    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }
    #[inline]
    fn max_edge_label(&self) -> u32 {
        Graph::max_edge_label(self)
    }
    #[inline]
    fn num_vertex_label_buckets(&self) -> usize {
        Graph::num_vertex_label_buckets(self)
    }
    #[inline]
    fn neighbors(&self, v: VertexId) -> &[(VertexId, ELabel)] {
        Graph::neighbors(self, v)
    }
    #[inline]
    fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        Graph::neighbors_with(self, v, vl, el)
    }
    #[inline]
    fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)] {
        Graph::neighbors_with_vlabel(self, v, vl)
    }
    #[inline]
    fn vertices_with_label(&self, label: VLabel) -> &[VertexId] {
        Graph::vertices_with_label(self, label)
    }
    #[inline]
    fn edge_label(&self, a: VertexId, b: VertexId) -> Option<ELabel> {
        Graph::edge_label(self, a, b)
    }
    #[inline]
    fn has_edge_with(&self, v: VertexId, n: VertexId, el: ELabel) -> bool {
        Graph::has_edge_with(self, v, n, el)
    }
    fn add_vertex(&mut self, label: VLabel) -> VertexId {
        Graph::add_vertex(self, label)
    }
    fn ensure_vertex(&mut self, id: VertexId, label: VLabel) {
        Graph::ensure_vertex(self, id, label)
    }
    fn delete_vertex(&mut self, id: VertexId, cascade: bool) -> Result<()> {
        Graph::delete_vertex(self, id, cascade)
    }
    fn insert_edge(&mut self, a: VertexId, b: VertexId, l: ELabel) -> Result<bool> {
        Graph::insert_edge(self, a, b, l)
    }
    fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>> {
        Graph::remove_edge(self, a, b)
    }

    /// One writer per store: a single store has nothing to overlap, so the
    /// constant route (and a 1-store router) keep the serial in-place path.
    fn apply_edge_batch(&mut self, ops: &[(EdgeUpdate, bool)], changed: &mut Vec<bool>) {
        self.apply_edge_batch_with(ops, 1, changed)
    }

    fn num_shards(&self) -> usize {
        self.stores.as_ref().len()
    }

    #[inline]
    fn shard_of(&self, v: VertexId) -> usize {
        self.route.store_of(v)
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        (self.stores.as_ref().iter().enumerate())
            .map(|(shard, s)| ShardStats {
                shard,
                owned_vertices: s.owned,
                half_edges: s.half_edges,
                applied_ops: if R::ROUTED { s.applied_ops } else { 0 },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    //! Examples of the inherent read API and its ordering contract. The
    //! behavioural contract shared by every route (per-op semantics, vertex
    //! lifecycle, batch apply, invariants) is `shard::tests::conformance`.
    use super::*;

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let mut g = DataGraph::with_capacity(5);
        let vs: Vec<_> = (0..5).map(|i| g.add_vertex(VLabel(i % 3))).collect();
        for w in vs.windows(2) {
            g.insert_edge(w[0], w[1], ELabel(0)).unwrap();
        }
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (a, b, _) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn neighbors_filtered_respects_both_labels() {
        let mut g = DataGraph::new();
        let c = g.add_vertex(VLabel(0));
        let x = g.add_vertex(VLabel(1));
        let y = g.add_vertex(VLabel(1));
        let z = g.add_vertex(VLabel(2));
        g.insert_edge(c, x, ELabel(0)).unwrap();
        g.insert_edge(c, y, ELabel(1)).unwrap();
        g.insert_edge(c, z, ELabel(0)).unwrap();
        let hits: Vec<_> = g
            .neighbors_filtered(c, VLabel(1), Some(ELabel(0)))
            .collect();
        assert_eq!(hits, vec![x]);
        let any_elabel: Vec<_> = g.neighbors_filtered(c, VLabel(1), None).collect();
        assert_eq!(any_elabel, vec![x, y]);
    }

    #[test]
    fn neighbors_with_returns_exact_sorted_slices() {
        let mut g = DataGraph::new();
        let c = g.add_vertex(VLabel(0));
        // Neighbors across two vlabels and two elabels, inserted out of
        // order to exercise partition maintenance.
        let n_1_0a = g.add_vertex(VLabel(1));
        let n_1_0b = g.add_vertex(VLabel(1));
        let n_1_1 = g.add_vertex(VLabel(1));
        let n_2_0 = g.add_vertex(VLabel(2));
        g.insert_edge(c, n_2_0, ELabel(0)).unwrap();
        g.insert_edge(c, n_1_1, ELabel(1)).unwrap();
        g.insert_edge(c, n_1_0b, ELabel(0)).unwrap();
        g.insert_edge(c, n_1_0a, ELabel(0)).unwrap();

        assert_eq!(
            g.neighbors_with(c, VLabel(1), ELabel(0)),
            &[(n_1_0a, ELabel(0)), (n_1_0b, ELabel(0))]
        );
        assert_eq!(
            g.neighbors_with(c, VLabel(1), ELabel(1)),
            &[(n_1_1, ELabel(1))]
        );
        assert_eq!(
            g.neighbors_with(c, VLabel(2), ELabel(0)),
            &[(n_2_0, ELabel(0))]
        );
        assert!(g.neighbors_with(c, VLabel(2), ELabel(1)).is_empty());
        assert!(g.neighbors_with(c, VLabel(9), ELabel(0)).is_empty());

        let all_l1 = g.neighbors_with_vlabel(c, VLabel(1));
        assert_eq!(
            all_l1,
            &[(n_1_0a, ELabel(0)), (n_1_0b, ELabel(0)), (n_1_1, ELabel(1))]
        );
        assert_eq!(g.count_neighbors_with(c, VLabel(1), None), 3);
        assert_eq!(g.count_neighbors_with(c, VLabel(1), Some(ELabel(0))), 2);

        // The full list concatenates the groups in key order.
        assert_eq!(g.neighbors(c).len(), 4);
        assert!(g.has_edge_with(c, n_1_1, ELabel(1)));
        assert!(!g.has_edge_with(c, n_1_1, ELabel(0)));
        g.check_invariants().unwrap();

        // Removal keeps partitions tight (empty groups vanish).
        g.remove_edge(c, n_1_1).unwrap();
        assert!(g.neighbors_with(c, VLabel(1), ELabel(1)).is_empty());
        assert_eq!(g.count_neighbors_with(c, VLabel(1), None), 2);
        g.check_invariants().unwrap();
    }

    /// A store never holds adjacency for a vertex routed elsewhere, and
    /// `check_invariants` says so if one does.
    #[test]
    fn check_invariants_flags_a_misplaced_half_edge() {
        use crate::shard::{ShardConfig, ShardedGraph};
        let mut g = ShardedGraph::new(ShardConfig::range(vec![(0, 2), (2, 4)])).unwrap();
        let vs: Vec<_> = (0..4).map(|_| g.add_vertex(VLabel(0))).collect();
        g.insert_edge(vs[0], vs[3], ELabel(0)).unwrap();
        g.check_invariants().unwrap();
        // Plant vertex 3's half in store 0 instead of its owner, store 1.
        let stores: &mut [AdjStore] = g.stores.as_mut();
        let half = stores[1].adj[3].clone();
        stores[0].adj.resize_with(4, AdjList::default);
        stores[0].adj[3] = half;
        assert!(g.check_invariants().is_err());
    }
}
