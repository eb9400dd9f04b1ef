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
//!   neighbor id)` plus a small per-vertex block index holding one start
//!   offset per neighbor vertex label present. The enumeration kernel asks
//!   "neighbors of `v` with vertex label `X` over edge label `y`": that is
//!   an `O(log |Σ_V|)` block probe, and the whole block when it carries one
//!   edge label (every block, on single-edge-label graphs); otherwise a
//!   binary search plus a gallop inside the block. Either way the answer is
//!   a contiguous, id-sorted slice with zero per-neighbor label branches.
//!   An edge update costs one existence probe on the shorter endpoint list
//!   and two `O(d)` splices that shift at most `|Σ_V|` block starts: the
//!   index is kept coarse because a per-`(vlabel, elabel)` index had about
//!   one entry per neighbor on many-label graphs, and maintaining it cost
//!   more than the entry shifts (DESIGN §3.6);
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
//! writers ever share a list, so there is nothing to lock. A job walks its
//! half-ops in op order and applies each with one probe of its own list
//! and at most one `AdjList::splice`, the routine every other write uses
//! too. Ops on the same edge reach both endpoint lists in the same
//! relative order (both halves carry the batch sequence tag), and each
//! half's `changed` verdict is a pure function of prior ops on that edge
//! plus the invariant above — so both sides decide identically without
//! coordinating. This one pipeline is the paper's §4.2 safe-update batch
//! executor on the constant route and the multi-writer shard applier on a
//! `K`-store route.
//!
//! **Ordering contract:** `neighbors(v)` is sorted by `(L(neighbor),
//! elabel, id)`, *not* globally by id. Within one `(vlabel, elabel)` run
//! the slice is strictly id-sorted — that is what makes galloping
//! multi-way intersections over [`Graph::neighbors_with`] slices
//! valid. A vlabel block ([`Graph::neighbors_with_vlabel`])
//! spans several elabel runs and is therefore *not* id-sorted; callers
//! that ignore edge labels must probe, not merge.

use crate::error::{GraphError, Result};
use crate::ids::{ELabel, VLabel, VertexId};
use crate::par;
use crate::shard::{GraphShard, ShardStats};
use crate::update::EdgeUpdate;

/// One vertex's label-partitioned neighbor list.
///
/// `entries` is sorted by `(L(neighbor), elabel, neighbor id)`; `blocks`
/// holds one `(neighbor vertex label, start offset)` per vertex label
/// present, sorted by label. A block ends where the next one starts (or at
/// `entries.len()` for the last). Edge-label runs inside a block are not
/// indexed: [`AdjList::slice`] searches for them.
///
/// Invariants (checked by [`DataGraph::check_invariants`]):
/// * `blocks` labels strictly increase; starts strictly increase from 0
///   and stay below `entries.len()` (no empty block);
/// * every entry's neighbor carries its block's label;
/// * within a block, `(elabel, neighbor id)` strictly increases;
/// * a neighbor id appears at most once (simple graph).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct AdjList {
    entries: Vec<(VertexId, ELabel)>,
    blocks: Vec<(VLabel, u32)>,
}

impl AdjList {
    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn as_slice(&self) -> &[(VertexId, ELabel)] {
        &self.entries
    }

    /// Start offset of block `bi`, or `entries.len()` past the last block.
    #[inline]
    fn block_start(&self, bi: usize) -> usize {
        (self.blocks.get(bi)).map_or(self.entries.len(), |&(_, s)| s as usize)
    }

    /// All neighbors with label `vl`, any elabel (sorted by `(elabel, id)`).
    #[inline]
    fn slice_vlabel(&self, vl: VLabel) -> &[(VertexId, ELabel)] {
        match self.blocks.binary_search_by_key(&vl, |&(l, _)| l) {
            Ok(bi) => &self.entries[self.block_start(bi)..self.block_start(bi + 1)],
            Err(_) => &[],
        }
    }

    /// The id-sorted run of neighbors with label `vl` over elabel `el`: the
    /// whole block when it carries one elabel, else the run whose start a
    /// binary search finds and whose end a gallop from that start finds —
    /// `O(log r)` for a run of `r`, where a second binary search would cost
    /// `O(log b)` over the whole block.
    #[inline]
    fn slice(&self, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        let b = self.slice_vlabel(vl);
        let (Some(first), Some(last)) = (b.first(), b.last()) else {
            return &[];
        };
        if first.1 == last.1 {
            return if first.1 == el { b } else { &[] };
        }
        let lo = b.partition_point(|&(_, l)| l < el);
        if b.get(lo).is_none_or(|&(_, l)| l != el) {
            return &[];
        }
        // `b[lo + step / 2]` carries `el`; stop once `b[lo + step]` does not.
        let mut step = 1;
        while lo + step < b.len() && b[lo + step].1 == el {
            step *= 2;
        }
        let (from, to) = (lo + step / 2 + 1, (lo + step).min(b.len()));
        &b[lo..from + b[from..to].partition_point(|&(_, l)| l == el)]
    }

    /// Elabel of the edge to neighbor `n` (whose label is `nl`), if present:
    /// a binary search by id when `nl`'s block carries one elabel, a linear
    /// scan of the block otherwise.
    fn find(&self, n: VertexId, nl: VLabel) -> Option<ELabel> {
        let b = self.slice_vlabel(nl);
        let (first, last) = (b.first()?, b.last()?);
        if first.1 == last.1 {
            b.binary_search_by_key(&n, |&(v, _)| v)
                .ok()
                .map(|_| first.1)
        } else {
            b.iter().find(|&&(v, _)| v == n).map(|&(_, l)| l)
        }
    }

    /// Splice the entry `(n, el)` of neighbor `n` (labeled `nl`) in
    /// (`insert`) or out at its `(el, id)` position inside `nl`'s block,
    /// shifting the starts of the later blocks. The caller has checked that
    /// no edge to `n` exists (insert) or that this one does (remove).
    fn splice(&mut self, n: VertexId, el: ELabel, nl: VLabel, insert: bool) {
        let found = self.blocks.binary_search_by_key(&nl, |&(l, _)| l);
        let (Ok(bi) | Err(bi)) = found;
        let s = self.block_start(bi);
        let e = if found.is_ok() {
            self.block_start(bi + 1)
        } else {
            s
        };
        let pos = s + self.entries[s..e].partition_point(|&(v, l)| (l, v) < (el, n));
        let next = if insert {
            self.entries.insert(pos, (n, el));
            if found.is_err() {
                self.blocks.insert(bi, (nl, pos as u32));
            }
            bi + 1
        } else {
            let present = self.entries.get(pos) == Some(&(n, el));
            debug_assert!(present, "removed half-edge missing from its list");
            if !present {
                return;
            }
            self.entries.remove(pos);
            if e - s > 1 {
                bi + 1
            } else {
                self.blocks.remove(bi);
                bi
            }
        };
        for b in &mut self.blocks[next..] {
            b.1 = if insert { b.1 + 1 } else { b.1 - 1 };
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
    /// Half-edge ops applied here: every half the per-op path splices,
    /// every half the batch path routes here, whether it changes the list
    /// or not, and every half [`crate::ShardedGraph::from_graph`] copies in.
    applied_ops: u64,
}

impl AdjStore {
    /// Count alive vertex `v` as owned here and return its list, growing
    /// the table to hold `v`'s slot.
    fn own(&mut self, v: VertexId) -> &mut AdjList {
        if self.adj.len() <= v.index() {
            self.adj.resize_with(v.index() + 1, AdjList::default);
        }
        self.owned += 1;
        &mut self.adj[v.index()]
    }
}

/// Apply one writer job's half-ops to `lists`, the sub-slice of a store's
/// adjacency table starting at vertex id `base`. `run` names each half-op
/// by its tag, in push order: tags are monotone in op order, so each
/// endpoint sees its ops first in, first out. The op is read back from
/// `ops[tag >> 1]`, its endpoint and neighbor from the tag's half bit, and
/// the neighbor's label from `labels`. Each half probes its own list once,
/// then splices an absent neighbor in or a present one out (with the label
/// it is stored under). Returns `(tag, changed)` per op.
fn apply_run(
    lists: &mut [AdjList],
    base: usize,
    run: Vec<u32>,
    ops: &[(EdgeUpdate, bool)],
    labels: &[VLabel],
) -> Vec<(u32, bool)> {
    (run.into_iter())
        .map(|tag| {
            let (e, insert) = ops[(tag >> 1) as usize];
            let (v, n) = if tag & 1 == 1 {
                (e.src, e.dst)
            } else {
                (e.dst, e.src)
            };
            let (list, nl) = (&mut lists[v.index() - base], labels[n.index()]);
            let stored = list.find(n, nl);
            let changed = stored.is_some() != insert;
            if changed {
                list.splice(n, stored.unwrap_or(e.label), nl, insert);
            }
            (tag, changed)
        })
        .collect()
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

/// Edge batches below this many ops take the serial per-op path. The
/// constant trades one fork-join (spawn, routing and the serial flag merge)
/// against splitting the batch's per-op splices across writers. Unverified:
/// no committed measurement set it; 32 is the smaller of the two thresholds
/// the former monolithic (64) and sharded (32) bulk paths used.
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

    /// This graph with its adjacency placed by `route`: the vertex metadata
    /// (labels and liveness of every slot, dead ones included; label
    /// buckets; counts) is copied, and each alive vertex's list is cloned
    /// whole into the store `route` names. Each store counts the halves it
    /// receives as applied ops. `O(V + E)`.
    pub(crate) fn rerouted<R: Route>(&self, route: R) -> Graph<R> {
        let mut g = Graph::with_route(route);
        g.labels.clone_from(&self.labels);
        g.alive.clone_from(&self.alive);
        g.by_label.clone_from(&self.by_label);
        (g.n_edges, g.n_alive) = (self.n_edges, self.n_alive);
        for v in self.vertices() {
            let list = self.list(v).cloned().unwrap_or_default();
            let store = g.store_mut(v);
            store.half_edges += list.len();
            store.applied_ops += list.len() as u64;
            *store.own(v) = list;
        }
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
    /// block index because dead vertices are always isolated
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
            let list = self.store_mut(id).own(id);
            debug_assert!(list.entries.is_empty(), "dead slot with edges");
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
        self.check_endpoints(a, b)?;
        if self.edge_label(a, b).is_some() {
            return Ok(false);
        }
        self.splice_edge(a, b, l, true);
        Ok(true)
    }

    /// Remove the undirected edge `{a, b}`, returning its label, or `None`
    /// if no such edge existed.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<Option<ELabel>> {
        self.check_endpoints(a, b)?;
        let Some(l) = self.edge_label(a, b) else {
            return Ok(None);
        };
        self.splice_edge(a, b, l, false);
        Ok(Some(l))
    }

    /// Splice both halves of edge `{a, b}` (label `l`) into or out of their
    /// lists, each in whichever store holds it, and count the op. The
    /// caller has probed the edge: by the half-edge invariant, one probe
    /// answers for both halves.
    fn splice_edge(&mut self, a: VertexId, b: VertexId, l: ELabel, insert: bool) {
        for (v, n) in [(a, b), (b, a)] {
            let nl = self.labels[n.index()];
            let store = self.store_mut(v);
            store.adj[v.index()].splice(n, l, nl, insert);
            store.applied_ops += 1;
        }
        self.count_edge(a, b, insert);
    }

    /// Count an edge op `{a, b}` that changed the graph: one half in each
    /// endpoint's store, one edge overall.
    fn count_edge(&mut self, a: VertexId, b: VertexId, insert: bool) {
        let step = |x: usize| if insert { x + 1 } else { x - 1 };
        for v in [a, b] {
            let store = self.store_mut(v);
            store.half_edges = step(store.half_edges);
        }
        self.n_edges = step(self.n_edges);
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
    /// adjacency table ([`par::run_jobs`]) → one probe and at most one
    /// splice per half, in op order → merge the `changed` flags and do the
    /// edge accounting serially. See the module docs for why no locks are
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

        // Route each op's two halves by tag to store `s`, id-range chunk
        // `v / widths[s]` of that store, where `v` is the half's endpoint.
        // Tag = op index << 1 | is_src_half: monotone in op order, so every
        // run is per-endpoint FIFO as pushed, and the merge knows which
        // half's verdict to keep.
        let widths: Vec<usize> = (self.stores.as_ref().iter())
            .map(|s| s.adj.len().div_ceil(per_store).max(1))
            .collect();
        let mut runs: Vec<Vec<u32>> = vec![Vec::new(); ns * per_store];
        for (i, &(e, _)) in ops.iter().enumerate() {
            if self.check_endpoints(e.src, e.dst).is_err() {
                continue; // verdict stays `false`, like the serial path
            }
            let tag = (i as u32) << 1;
            for (v, tag) in [(e.src, tag | 1), (e.dst, tag)] {
                let s = self.route.store_of(v);
                self.stores.as_mut()[s].applied_ops += 1;
                runs[s * per_store + v.index() / widths[s]].push(tag);
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
                let base = (j % per_store) * widths[j / per_store];
                move || apply_run(lists, base, run, ops, labels)
            })
            .collect();
        let results = par::run_jobs(jobs);

        // Merge: src-half verdicts become the per-op flags, and each changed
        // op is counted once for both halves. Serial and exact.
        let base = changed.len();
        changed.resize(base + ops.len(), false);
        for &(tag, did) in results.iter().flatten() {
            if did && tag & 1 == 1 {
                let i = (tag >> 1) as usize;
                let (e, insert) = ops[i];
                changed[base + i] = true;
                self.count_edge(e.src, e.dst, insert);
            }
        }
        #[cfg(debug_assertions)]
        for &(tag, did) in results.iter().flatten() {
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

    /// Label of edge `{a, b}`, if present. Probes the shorter endpoint list
    /// only: `O(log |Σ_V| + log b)` when the other endpoint's label block
    /// (of size `b`) carries one elabel, `O(log |Σ_V| + b)` otherwise.
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

    /// Does `{v, n}` exist with elabel exactly `el`? A binary search of the
    /// [`Graph::neighbors_with`] run — the kernel's backward-edge check.
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
    /// contiguous slice sorted by neighbor id. `O(log |Σ_V|)` for the block
    /// probe, returning the whole block when it carries one elabel; else
    /// `O(log b + log r)` more for a block of size `b` and a run of size `r`.
    ///
    /// Id-sortedness makes these slices directly mergeable: the kernel's
    /// multi-way galloping intersection operates on them.
    #[inline]
    pub fn neighbors_with(&self, v: VertexId, vl: VLabel, el: ELabel) -> &[(VertexId, ELabel)] {
        self.list(v).map_or(&[][..], |l| l.slice(vl, el))
    }

    /// Neighbors of `v` with vertex label `vl` under *any* edge label, as a
    /// contiguous slice sorted by `(elabel, id)`. **Not** id-sorted across
    /// elabel runs — callers ignoring edge labels (CaLiG mode) must probe
    /// rather than merge.
    #[inline]
    pub fn neighbors_with_vlabel(&self, v: VertexId, vl: VLabel) -> &[(VertexId, ELabel)] {
        self.list(v).map_or(&[][..], |l| l.slice_vlabel(vl))
    }

    /// Count of neighbors of `v` with label `vl` (and elabel `el`, unless
    /// `None`). The cost of [`Graph::neighbors_with`], or `O(log |Σ_V|)`
    /// with `el = None` — the NLF filter's building block.
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
    /// is `el` (`el = None` matches any edge label — CaLiG mode). A
    /// [`Graph::neighbors_with`] (or block) lookup plus a branch-free slice
    /// walk.
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

    /// Validate the endpoints of an edge op: distinct and both alive.
    #[inline]
    fn check_endpoints(&self, a: VertexId, b: VertexId) -> Result<()> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        self.check_alive(a)?;
        self.check_alive(b)
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
            if !self.alive[i] && !list.entries.is_empty() {
                return Err(GraphError::VertexNotIsolated(a, list.len()));
            }
            // Block index: labels strictly increasing, starts strictly
            // increasing from 0, all in range, no empty blocks.
            for w in list.blocks.windows(2) {
                if w[0].0 >= w[1].0 {
                    return Err(GraphError::Io(format!("block labels of {a:?} not sorted")));
                }
                if w[0].1 >= w[1].1 {
                    return Err(GraphError::Io(format!(
                        "block starts of {a:?} not increasing"
                    )));
                }
            }
            match list.blocks.first() {
                Some(&(_, s)) if s != 0 => {
                    return Err(GraphError::Io(format!("first block of {a:?} not at 0")));
                }
                None if !list.entries.is_empty() => {
                    return Err(GraphError::Io(format!("entries of {a:?} with no blocks")));
                }
                _ => {}
            }
            if let Some(&(_, s)) = list.blocks.last() {
                if (s as usize) >= list.entries.len() {
                    return Err(GraphError::Io(format!("empty trailing block on {a:?}")));
                }
            }
            // Entries carry their block's label; `(elabel, id)` strictly
            // increases within a block; no neighbor appears twice overall.
            let mut seen: Vec<VertexId> = Vec::with_capacity(list.len());
            for bi in 0..list.blocks.len() {
                let bvl = list.blocks[bi].0;
                let run = &list.entries[list.block_start(bi)..list.block_start(bi + 1)];
                if run.windows(2).any(|w| (w[0].1, w[0].0) >= (w[1].1, w[1].0)) {
                    return Err(GraphError::Io(format!(
                        "block {bvl:?} of {a:?} not (elabel, id)-sorted"
                    )));
                }
                for &(b, _) in run {
                    if !self.is_alive(b) {
                        return Err(GraphError::Io(format!("edge {a:?}-{b:?} to dead vertex")));
                    }
                    if self.labels[b.index()] != bvl {
                        return Err(GraphError::Io(format!(
                            "entry {a:?}->{b:?} labeled {:?} in block {bvl:?}",
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

        // The full list concatenates the blocks in label order.
        assert_eq!(g.neighbors(c).len(), 4);
        assert!(g.has_edge_with(c, n_1_1, ELabel(1)));
        assert!(!g.has_edge_with(c, n_1_1, ELabel(0)));
        g.check_invariants().unwrap();

        // Removal keeps the runs tight (an emptied run vanishes).
        g.remove_edge(c, n_1_1).unwrap();
        assert!(g.neighbors_with(c, VLabel(1), ELabel(1)).is_empty());
        assert_eq!(g.count_neighbors_with(c, VLabel(1), None), 2);
        g.check_invariants().unwrap();
    }

    /// `neighbors_with` inside one multi-label block: the first, middle and
    /// last edge-label runs, with lengths 1, 2, 4, 5 and 9 on either side of
    /// the gallop's probe points, and absent labels before, between and
    /// after them. Neighbors of other vertex labels flank the block.
    #[test]
    fn neighbors_with_finds_every_run_of_a_multi_label_block() {
        let mut g = DataGraph::new();
        let c = g.add_vertex(VLabel(1));
        let runs = [(1, 2), (3, 1), (4, 9), (6, 5), (7, 4)]; // (elabel, length)
        for (vl, el) in [(0, 5), (2, 0)] {
            let n = g.add_vertex(VLabel(vl));
            g.insert_edge(c, n, ELabel(el)).unwrap();
        }
        for (el, len) in runs {
            for _ in 0..len {
                let n = g.add_vertex(VLabel(1));
                g.insert_edge(n, c, ELabel(el)).unwrap();
            }
        }
        g.check_invariants().unwrap();
        let block = g.neighbors_with_vlabel(c, VLabel(1));
        assert_eq!(block.len(), 21);
        for el in (0..9).map(ELabel) {
            let want: Vec<_> = block.iter().filter(|e| e.1 == el).copied().collect();
            let len = runs.iter().find(|r| r.0 == el.0).map_or(0, |r| r.1);
            assert_eq!(
                (g.neighbors_with(c, VLabel(1), el), want.len()),
                (&want[..], len)
            );
            for &(n, _) in block {
                assert_eq!(g.has_edge_with(c, n, el), want.iter().any(|e| e.0 == n));
            }
        }
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
