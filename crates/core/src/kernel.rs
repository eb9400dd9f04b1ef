//! The generic enumeration kernel: seeded backtracking over compatible sets
//! (paper Algorithm 1, `Find_Matches` / `Traverse`).
//!
//! The kernel is shared by all five baselines; an algorithm customizes it
//! through its [`CandidateFilter`] (ADS candidacy) and, if it wants a
//! different traversal shape entirely (NewSP, CaLiG), by overriding
//! `CsmAlgorithm::search`. The kernel itself performs the universal
//! correctness checks — vertex label, degree prune, backward-edge
//! verification, injectivity — so filters only add pruning, never
//! correctness.
//!
//! The last order position has one routine, [`finish_last_level`], which
//! every traversal calls instead of recursing into leaves. For a counting
//! sink with no ADS filter and exact edge labels ([`counts_leaves`]) it
//! delivers `|C(u, M)|` as one count (paper Algorithm 1 emits
//! `M ∪ {(u, v)}` per `v`; nothing obliges a counting sink to see them one
//! at a time); otherwise it streams full embeddings like any inner level.
//! Under the same gate, an order whose last two positions share no query
//! edge ([`SeedOrder::independent_tail`]) is finished one level earlier by
//! [`finish_last_two_levels`], which counts the pairs of both sets at once.
//!
//! Everything here is allocation-free per search node: candidates are
//! streamed from adjacency slices, and the embedding is a fixed-size inline
//! array mutated in place.

use crate::embedding::{Embedding, MatchSink, MAX_PATTERN_VERTICES};
use crate::order::SeedOrder;
use crate::trace::profile::{ProfileCounter, ProfileFrame};
use csm_graph::{intersect, DataGraph, ELabel, GraphShard, QVertexId, QueryGraph, VertexId};
use std::time::Instant;

/// Pluggable candidate test (the ADS hook). Must be conservative: returning
/// `false` for a vertex that participates in a genuine match loses results;
/// returning `true` only costs search effort.
pub trait CandidateFilter<G: GraphShard = DataGraph>: Sync {
    /// May data vertex `v` be matched to query vertex `u`?
    fn is_candidate(&self, g: &G, q: &QueryGraph, u: QVertexId, v: VertexId) -> bool;

    /// Does [`CandidateFilter::is_candidate`] return `true` for every
    /// input? Lets [`finish_last_level`] count a candidate set without
    /// asking about each member.
    fn admits_all(&self) -> bool {
        false
    }
}

/// The trivial filter: every label/degree-feasible vertex is a candidate.
pub struct NoFilter;

impl<G: GraphShard> CandidateFilter<G> for NoFilter {
    #[inline]
    fn is_candidate(&self, _: &G, _: &QueryGraph, _: QVertexId, _: VertexId) -> bool {
        true
    }

    #[inline]
    fn admits_all(&self) -> bool {
        true
    }
}

/// Immutable context shared by one enumeration (one update × one seed order,
/// or one static run).
pub struct SearchCtx<'a, G: GraphShard = DataGraph> {
    /// The data graph (post-insertion / pre-deletion state).
    pub g: &'a G,
    /// The query pattern.
    pub q: &'a QueryGraph,
    /// The matching order being followed.
    pub order: &'a SeedOrder,
    /// Waive edge-label equality (CaLiG mode).
    pub ignore_elabels: bool,
    /// Cooperative wall-clock deadline; checked every few hundred nodes.
    pub deadline: Option<Instant>,
    /// Worker-local profiler frame; `None` when profiling is off, so every
    /// instrumentation site is one `Option` branch (same discipline as the
    /// inner executor's per-worker counters, folded once per run).
    pub profile: Option<&'a ProfileFrame>,
}

/// Per-enumeration counters; `aborted` is sticky once the deadline passes or
/// a sink stops the search.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// Deadline was exceeded (distinguishes timeout from sink-requested stop).
    pub timed_out: bool,
    /// Deadline-fire transitions observed (0 or 1 per enumeration; summed
    /// across enumerations by [`SearchStats::absorb`] for the tracer's
    /// `deadline_fires` counter).
    pub deadline_hits: u64,
    /// Order depth at which each deadline fire was observed
    /// (`deadline_depth.iter().sum() == deadline_hits` — an invariant
    /// [`SearchStats::absorb`] preserves, which is what lets multi-worker
    /// runs attribute timeout pressure per depth without loss).
    pub deadline_depth: [u64; MAX_PATTERN_VERTICES],
}

const DEADLINE_CHECK_MASK: u64 = 0x1FF;

/// Count `k` search nodes at `depth` and honour the deadline: `false` once
/// it has passed, charging the fire transition to the profile frame.
#[inline]
fn visit<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    stats: &mut SearchStats,
    depth: usize,
    k: u64,
) -> bool {
    let hits_before = stats.deadline_hits;
    if stats.tick_n(k, ctx.deadline, depth) {
        return true;
    }
    if stats.deadline_hits > hits_before {
        if let Some(p) = ctx.profile {
            p.add(
                depth.min(MAX_PATTERN_VERTICES - 1),
                ProfileCounter::DeadlineHits,
                1,
            );
        }
    }
    false
}

impl SearchStats {
    /// Returns `false` (abort) when the deadline has passed. Amortized: only
    /// probes the clock every 512 nodes. `depth` is the order depth being
    /// entered, recorded on the fire transition for per-depth attribution.
    #[inline]
    pub fn tick(&mut self, deadline: Option<Instant>, depth: usize) -> bool {
        self.tick_n(1, deadline, depth)
    }

    /// [`SearchStats::tick`] for `k` nodes at once (a counted level): the
    /// clock is probed iff one of the `k` would have probed it.
    #[inline]
    fn tick_n(&mut self, k: u64, deadline: Option<Instant>, depth: usize) -> bool {
        let before = self.nodes;
        self.nodes += k;
        if (before ^ self.nodes) <= DEADLINE_CHECK_MASK {
            return true;
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                if !self.timed_out {
                    self.deadline_hits += 1;
                    self.deadline_depth[depth.min(MAX_PATTERN_VERTICES - 1)] += 1;
                }
                self.timed_out = true;
                return false;
            }
        }
        true
    }

    /// Fold another enumeration's counters into this one.
    pub fn absorb(&mut self, o: &SearchStats) {
        self.nodes += o.nodes;
        self.timed_out |= o.timed_out;
        self.deadline_hits += o.deadline_hits;
        for (a, b) in self.deadline_depth.iter_mut().zip(o.deadline_depth.iter()) {
            *a += b;
        }
    }
}

/// Below this driver-slice length, per-candidate binary-search probes of
/// the other backward slices beat setting up the galloping merge (the
/// merge's cursor bookkeeping only amortizes once the driver is longer
/// than a cache line or two of entries). Micro-benchmarked on the kernel
/// bench's skewed workload; see DESIGN.md for the measurement.
pub const PROBE_THRESHOLD: usize = 8;

/// Stream the candidate set `C(u, M)` for the query vertex at `depth` given
/// the partial embedding, invoking `f` for each candidate. `f` returns
/// `false` to stop early; the function returns `false` iff stopped.
///
/// Candidate generation (paper `Compatible_Set_Enum` + `Valid`):
/// * depth 0 (static matching): scan the label bucket of `u`;
/// * depth ≥ 1: fetch, for every backward edge `(u', el)`, the exact
///   `(L(u), el)` partition slice of the image of `u'` (`O(log)` each; any
///   empty slice prunes the whole node). One backward edge streams its
///   slice directly — zero per-neighbor label branches, the labels are
///   structural. Several backward edges intersect their id-sorted slices:
///   smallest-first galloping merge ([`csm_graph::intersect`]), or, when
///   the driver slice is at most [`PROBE_THRESHOLD`] long, per-candidate
///   binary-search probes of the remaining slices;
/// * `ignore_elabels` (CaLiG mode): the label-range slices span several
///   elabel groups and are not id-sorted, so the pivot's range slice is
///   streamed and the remaining backward edges verified by adjacency
///   probes.
#[inline]
pub fn for_each_candidate<G: GraphShard, F>(
    ctx: &SearchCtx<'_, G>,
    filter: &(impl CandidateFilter<G> + ?Sized),
    emb: Embedding,
    depth: usize,
    mut f: F,
) -> bool
where
    F: FnMut(VertexId) -> bool,
{
    let u = ctx.order.order[depth];
    let ulabel = ctx.order.target_label[depth];
    let udeg = ctx.order.target_degree[depth];
    let backward = &ctx.order.backward[depth];
    let prof = ctx.profile;
    if let Some(p) = prof {
        p.add(depth, ProfileCounter::Invocations, 1);
    }

    if backward.is_empty() {
        let bucket = ctx.g.vertices_with_label(ulabel);
        if let Some(p) = prof {
            p.add(depth, ProfileCounter::SliceWidth, bucket.len() as u64);
        }
        for &v in bucket {
            if ctx.g.degree(v) < udeg || emb.uses(v) || !filter.is_candidate(ctx.g, ctx.q, u, v) {
                continue;
            }
            if let Some(p) = prof {
                p.add(depth, ProfileCounter::Extensions, 1);
            }
            if !f(v) {
                return false;
            }
        }
        return true;
    }

    if ctx.ignore_elabels {
        // Wildcard edge labels: the vlabel-range slices are (elabel, id)-
        // sorted, not id-sorted, so merging is invalid. Stream the smallest
        // range and verify the rest by `O(log)` adjacency probes.
        let (pivot_idx, _) = backward
            .iter()
            .enumerate()
            .min_by_key(|(_, &(nb, _))| {
                ctx.g
                    .neighbors_with_vlabel(emb.get_unchecked(nb), ulabel)
                    .len()
            })
            .expect("non-empty backward set");
        let pivot_v = emb.get_unchecked(backward[pivot_idx].0);
        let pivot_slice = ctx.g.neighbors_with_vlabel(pivot_v, ulabel);
        if let Some(p) = prof {
            p.add(depth, ProfileCounter::SliceWidth, pivot_slice.len() as u64);
        }
        'wild: for &(v, _) in pivot_slice {
            if ctx.g.degree(v) < udeg || emb.uses(v) {
                continue;
            }
            for (i, &(nb, _)) in backward.iter().enumerate() {
                if i != pivot_idx {
                    if let Some(p) = prof {
                        p.add(depth, ProfileCounter::ProbeSteps, 1);
                    }
                    if ctx.g.edge_label(emb.get_unchecked(nb), v).is_none() {
                        continue 'wild;
                    }
                }
            }
            if !filter.is_candidate(ctx.g, ctx.q, u, v) {
                continue;
            }
            if let Some(p) = prof {
                p.add(depth, ProfileCounter::Extensions, 1);
            }
            if !f(v) {
                return false;
            }
        }
        return true;
    }

    let mut buf = [&[][..]; MAX_PATTERN_VERTICES];
    let Some(slices) = backward_slices(ctx, &emb, depth, &mut buf) else {
        return true;
    };

    if slices.len() == 1 {
        // Branch-free stream: every entry already has the right vertex and
        // edge label by construction.
        if let Some(p) = prof {
            p.add(depth, ProfileCounter::SliceWidth, slices[0].len() as u64);
        }
        for &(v, _) in slices[0] {
            if ctx.g.degree(v) < udeg || emb.uses(v) || !filter.is_candidate(ctx.g, ctx.q, u, v) {
                continue;
            }
            if let Some(p) = prof {
                p.add(depth, ProfileCounter::Extensions, 1);
            }
            if !f(v) {
                return false;
            }
        }
        return true;
    }

    let min_idx = shortest(slices);
    if let Some(p) = prof {
        p.add(
            depth,
            ProfileCounter::SliceWidth,
            slices[min_idx].len() as u64,
        );
    }
    let admit = |v: VertexId| ctx.g.degree(v) >= udeg && !emb.uses(v);
    let mut steps = 0u64;
    if slices[min_idx].len() <= PROBE_THRESHOLD {
        let done = probe_each(slices, min_idx, admit, &mut steps, |v| {
            if !filter.is_candidate(ctx.g, ctx.q, u, v) {
                return true;
            }
            if let Some(p) = prof {
                p.add(depth, ProfileCounter::Extensions, 1);
            }
            f(v)
        });
        if let Some(p) = prof {
            p.add(depth, ProfileCounter::ProbeSteps, steps);
        }
        return done;
    }
    let done = merge_each(ctx, slices, &mut steps, |v| {
        if !admit(v) || !filter.is_candidate(ctx.g, ctx.q, u, v) {
            return true;
        }
        if let Some(p) = prof {
            p.add(depth, ProfileCounter::Extensions, 1);
        }
        f(v)
    });
    if let Some(p) = prof {
        p.add(depth, ProfileCounter::GallopSteps, steps);
    }
    done
}

/// Exact mode: fetch one id-sorted `(L(u), el)` partition slice per
/// backward edge of `depth` into the front of `buf` (at least
/// [`MAX_PATTERN_VERTICES`] long). `None` when some slice is empty: then
/// `C(u, M)` is empty and the node is pruned.
#[inline]
fn backward_slices<'s, 'g, G: GraphShard>(
    ctx: &SearchCtx<'g, G>,
    emb: &Embedding,
    depth: usize,
    buf: &'s mut [&'g [(VertexId, ELabel)]],
) -> Option<&'s [&'g [(VertexId, ELabel)]]> {
    let ulabel = ctx.order.target_label[depth];
    let backward = &ctx.order.backward[depth];
    for (i, &(nb, el)) in backward.iter().enumerate() {
        let s = ctx.g.neighbors_with(emb.get_unchecked(nb), ulabel, el);
        if s.is_empty() {
            return None;
        }
        buf[i] = s;
    }
    Some(&buf[..backward.len()])
}

/// Index of the shortest slice (the first one on ties).
#[inline]
fn shortest(slices: &[&[(VertexId, ELabel)]]) -> usize {
    let mut best = 0;
    for (i, s) in slices.iter().enumerate().skip(1) {
        if s.len() < slices[best].len() {
            best = i;
        }
    }
    best
}

/// Tiny driver (at most [`PROBE_THRESHOLD`] entries): binary-search every
/// other slice per driver entry, which beats the galloping merge's setup.
/// `admit` rejects a driver entry before it is probed; `f` sees every
/// admitted entry present in all slices and returns `false` to stop.
/// `probes` counts the binary searches.
#[inline]
fn probe_each(
    slices: &[&[(VertexId, ELabel)]],
    min_idx: usize,
    admit: impl Fn(VertexId) -> bool,
    probes: &mut u64,
    mut f: impl FnMut(VertexId) -> bool,
) -> bool {
    'probe: for &(v, _) in slices[min_idx] {
        if !admit(v) {
            continue;
        }
        for (j, s) in slices.iter().enumerate() {
            if j != min_idx {
                *probes += 1;
                if s.binary_search_by_key(&v, |&(w, _)| w).is_err() {
                    continue 'probe;
                }
            }
        }
        if !f(v) {
            return false;
        }
    }
    true
}

/// Smallest-first galloping merge of the slices ([`csm_graph::intersect`]).
/// Profiled, the merge is the counted twin: identical traversal plus a
/// gallop-step tally added to `steps`.
#[inline]
fn merge_each<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    slices: &[&[(VertexId, ELabel)]],
    steps: &mut u64,
    f: impl FnMut(VertexId) -> bool,
) -> bool {
    match ctx.profile {
        None => intersect::intersect_foreach(slices, f),
        Some(_) => intersect::intersect_foreach_counted(slices, steps, f),
    }
}

/// May the leaves of this search be counted rather than streamed? Only
/// when the sink only counts, the filter admits every vertex and edge
/// labels are exact: then the size of a last-level candidate set is all
/// the sink needs, and the label and degree tests are implied by the
/// partition slices.
#[inline]
pub(crate) fn counts_leaves<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    filter: &(impl CandidateFilter<G> + ?Sized),
    sink: &dyn MatchSink,
) -> bool {
    sink.counts_only() && filter.admits_all() && !ctx.ignore_elabels
}

/// Finish the last order position (`depth + 1 == |V(Q)|`): deliver every
/// completion `M ∪ {(u, v)}`, `v ∈ C(u, M)`, of `emb` to `sink` — the final
/// step of paper Algorithm 1. Every last-level site (the kernel's
/// recursion, NewSP and, through them, the inner executor) ends
/// here. Returns `false` iff the sink stopped the search; `emb` is left as
/// it came in.
///
/// Under [`counts_leaves`] the candidate set is counted rather than
/// streamed and delivered as one [`MatchSink::report_count`]. Otherwise
/// each candidate is reported as a full embedding, exactly like an inner
/// level.
pub fn finish_last_level<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    filter: &(impl CandidateFilter<G> + ?Sized),
    emb: &mut Embedding,
    depth: usize,
    sink: &mut dyn MatchSink,
) -> bool {
    let n = ctx.order.len();
    debug_assert_eq!(depth + 1, n, "finish_last_level below the last position");
    if counts_leaves(ctx, filter, sink) && !ctx.order.backward[depth].is_empty() {
        let k = count_last_level(ctx, emb, depth);
        return k == 0 || sink.report_count(k);
    }
    let u = ctx.order.order[depth];
    let done = for_each_candidate(ctx, filter, *emb, depth, |v| {
        emb.set(u, v);
        sink.report(emb, n)
    });
    emb.unset(u);
    done
}

/// `|C(u, M)|` at the last order position, with exact edge labels and no
/// ADS filter, without visiting candidates one by one where avoidable.
///
/// At the last position every query neighbour of `u` is already mapped,
/// and mapped injectively, so `u` has exactly `deg_Q(u)` backward edges
/// whose images are distinct data vertices. A vertex present in every
/// backward slice is adjacent to all of them, so its degree is at least
/// `deg_Q(u)`: the degree prune is implied, and the label is implied by the
/// partition. What is left is injectivity ([`count_candidates`]).
///
/// The profile frame sees exactly what the per-candidate path would have
/// recorded: one invocation, the driver's slice width, the same probe and
/// gallop steps, and `k` extensions.
fn count_last_level<G: GraphShard>(ctx: &SearchCtx<'_, G>, emb: &Embedding, depth: usize) -> u64 {
    if let Some(p) = ctx.profile {
        p.add(depth, ProfileCounter::Invocations, 1);
    }
    let mut buf = [&[][..]; MAX_PATTERN_VERTICES];
    let Some(slices) = backward_slices(ctx, emb, depth, &mut buf) else {
        return 0;
    };
    let (k, cost) = count_candidates(ctx, slices, emb, depth);
    if let Some(p) = ctx.profile {
        cost.charge(p, depth, k);
    }
    k
}

/// Finish the last two order positions of an independent tail
/// (`depth + 2 == |V(Q)|` and [`SeedOrder::independent_tail`]) under
/// [`counts_leaves`]: deliver the number of completions of `emb` as one
/// [`MatchSink::report_count`].
///
/// `u_A = order[depth]` and `u_B = order[depth + 1]` share no query edge,
/// so all query neighbours of both are mapped by `emb`: their candidate
/// sets `A` and `B` depend on the prefix alone, and both degree prunes are
/// implied exactly as at the last level. Let `A′` and `B′` be them without
/// the prefix's images. A completion is a pair `(a, b) ∈ A′ × B′` with
/// `a ≠ b` (injectivity, paper Def. 2.2), so there are
/// `|A′|·|B′| − |A′ ∩ B′|`. `A ∩ B` is one intersection of all of A's and
/// B's slices, and it is empty when the two labels differ.
///
/// Counters match the per-candidate path (one node at `depth + 1` and one
/// last-level count per `a ∈ A′`): `|A′|` nodes, and at `depth + 1`
/// `|A′|` invocations, `|A′|` times B's slice width and gallop steps, and
/// `|A′|` times B's probe steps less those of the driver entries that are
/// the `a` being extended. Returns `false` iff the deadline passed or the
/// sink stopped the search.
fn finish_last_two_levels<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    emb: &Embedding,
    depth: usize,
    sink: &mut dyn MatchSink,
    stats: &mut SearchStats,
) -> bool {
    let last = depth + 1;
    debug_assert!(last + 1 == ctx.order.len() && ctx.order.independent_tail);
    let prof = ctx.profile;
    if let Some(p) = prof {
        p.add(depth, ProfileCounter::Invocations, 1);
    }
    let mut buf = [&[][..]; 2 * MAX_PATTERN_VERTICES];
    let Some(na) = backward_slices(ctx, emb, depth, &mut buf).map(<[_]>::len) else {
        return true;
    };
    let (a, a_cost) = count_candidates(ctx, &buf[..na], emb, depth);
    if let Some(p) = prof {
        a_cost.charge(p, depth, a);
    }
    if a == 0 {
        return true;
    }
    if !visit(ctx, stats, last, a) {
        return false;
    }
    if let Some(p) = prof {
        p.add(last, ProfileCounter::Invocations, a);
    }
    let Some(nb) = backward_slices(ctx, emb, last, &mut buf[na..]).map(<[_]>::len) else {
        return true;
    };
    let (a_slices, b_slices) = buf[..na + nb].split_at(na);
    let (b, b_cost) = count_candidates(ctx, b_slices, emb, last);
    let both = if ctx.order.target_label[depth] == ctx.order.target_label[last] {
        count_candidates(ctx, &buf[..na + nb], emb, last).0
    } else {
        0
    };
    let k = a * b - both;
    if let Some(p) = prof {
        // A probed driver entry of B that is itself in A′ is skipped when
        // it is the `a` being extended.
        let mut skipped = 0;
        if b_cost.probes > 0 {
            let udeg = ctx.order.target_degree[last];
            let admit = |v: VertexId| {
                ctx.g.degree(v) >= udeg
                    && !emb.uses(v)
                    && a_slices
                        .iter()
                        .all(|s| s.binary_search_by_key(&v, |&(w, _)| w).is_ok())
            };
            probe_each(b_slices, shortest(b_slices), admit, &mut skipped, |_| true);
        }
        let b_total = SetCost {
            width: a * b_cost.width,
            probes: a * b_cost.probes - skipped,
            gallops: a * b_cost.gallops,
        };
        b_total.charge(p, last, k);
    }
    k == 0 || sink.report_count(k)
}

/// What streaming one candidate set would have cost, in the profile's
/// units: the driver slice's width and the probe or gallop steps.
#[derive(Clone, Copy)]
struct SetCost {
    width: u64,
    probes: u64,
    gallops: u64,
}

impl SetCost {
    /// Record the cost and the `extensions` it yielded at `depth`.
    fn charge(self, p: &ProfileFrame, depth: usize, extensions: u64) {
        p.add(depth, ProfileCounter::SliceWidth, self.width);
        p.add(depth, ProfileCounter::ProbeSteps, self.probes);
        p.add(depth, ProfileCounter::GallopSteps, self.gallops);
        p.add(depth, ProfileCounter::Extensions, extensions);
    }
}

/// `|⋂ slices \ images(emb)|` for slices of an exact-label position whose
/// degree prune is implied, with what streaming them would have cost:
/// * one slice — its length minus the mapped vertices found in it by
///   binary search (≤ `|V(Q)|` probes);
/// * several — the same probe/gallop intersection as
///   [`for_each_candidate`], counting the outputs the mapping does not use.
fn count_candidates<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    slices: &[&[(VertexId, ELabel)]],
    emb: &Embedding,
    depth: usize,
) -> (u64, SetCost) {
    let min_idx = shortest(slices);
    let driver = slices[min_idx];
    let mut cost = SetCost {
        width: driver.len() as u64,
        probes: 0,
        gallops: 0,
    };
    let mut k = 0u64;
    if slices.len() == 1 {
        let used = emb
            .images()
            .filter(|&w| driver.binary_search_by_key(&w, |&(v, _)| v).is_ok())
            .count();
        k = (driver.len() - used) as u64;
    } else if driver.len() <= PROBE_THRESHOLD {
        // The degree test is implied for a vertex in every slice; it stays
        // as the cheap reject before probing so `ProbeSteps` matches the
        // per-candidate path.
        let udeg = ctx.order.target_degree[depth];
        let admit = |v: VertexId| ctx.g.degree(v) >= udeg && !emb.uses(v);
        probe_each(slices, min_idx, admit, &mut cost.probes, |_| {
            k += 1;
            true
        });
    } else {
        merge_each(ctx, slices, &mut cost.gallops, |v| {
            k += u64::from(!emb.uses(v));
            true
        });
    }
    (k, cost)
}

/// The pre-partition-index candidate generator, retained verbatim as the
/// differential-testing and benchmarking reference: pick the backward
/// neighbor with the smallest image degree as pivot, linearly scan its
/// *full* adjacency with per-neighbor label checks, and verify the other
/// backward edges by edge probes. Semantically identical candidate sets to
/// [`for_each_candidate`] (and, in exact-label mode, the same order).
pub fn for_each_candidate_naive<G: GraphShard, F>(
    ctx: &SearchCtx<'_, G>,
    filter: &(impl CandidateFilter<G> + ?Sized),
    emb: Embedding,
    depth: usize,
    mut f: F,
) -> bool
where
    F: FnMut(VertexId) -> bool,
{
    let u = ctx.order.order[depth];
    let ulabel = ctx.q.label(u);
    let udeg = ctx.q.degree(u);
    let backward = &ctx.order.backward[depth];

    if backward.is_empty() {
        for &v in ctx.g.vertices_with_label(ulabel) {
            if ctx.g.degree(v) < udeg || emb.uses(v) || !filter.is_candidate(ctx.g, ctx.q, u, v) {
                continue;
            }
            if !f(v) {
                return false;
            }
        }
        return true;
    }

    // Pivot: matched backward neighbor with the smallest image adjacency.
    let (pivot_idx, _) = backward
        .iter()
        .enumerate()
        .min_by_key(|(_, &(nb, _))| ctx.g.degree(emb.get_unchecked(nb)))
        .expect("non-empty backward set");
    let (pivot_q, pivot_el) = backward[pivot_idx];
    let pivot_v = emb.get_unchecked(pivot_q);

    'cand: for &(v, el) in ctx.g.neighbors(pivot_v) {
        if !ctx.ignore_elabels && el != pivot_el {
            continue;
        }
        if ctx.g.label(v) != ulabel || ctx.g.degree(v) < udeg || emb.uses(v) {
            continue;
        }
        for (i, &(nb, nb_el)) in backward.iter().enumerate() {
            if i == pivot_idx {
                continue;
            }
            match ctx.g.edge_label(emb.get_unchecked(nb), v) {
                Some(l) if ctx.ignore_elabels || l == nb_el => {}
                _ => continue 'cand,
            }
        }
        if !filter.is_candidate(ctx.g, ctx.q, u, v) {
            continue;
        }
        if !f(v) {
            return false;
        }
    }
    true
}

/// Recursive backtracking from `depth` to full matches (paper `Traverse`).
/// Every node above the last order position counts one search node; the
/// last position is finished by [`finish_last_level`], so leaves are not
/// nodes, and a counted independent tail by [`finish_last_two_levels`].
///
/// Returns `false` iff the search was stopped (deadline or sink); a `false`
/// propagates all the way out so callers can distinguish complete from
/// truncated enumerations via [`SearchStats::timed_out`] and the sink state.
pub fn extend<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    filter: &(impl CandidateFilter<G> + ?Sized),
    emb: &mut Embedding,
    depth: usize,
    sink: &mut dyn MatchSink,
    stats: &mut SearchStats,
) -> bool {
    let n = ctx.order.len();
    if depth == n {
        return sink.report(emb, n);
    }
    if !visit(ctx, stats, depth, 1) {
        return false;
    }
    if depth + 1 == n {
        return finish_last_level(ctx, filter, emb, depth, sink);
    }
    if depth + 2 == n && ctx.order.independent_tail && counts_leaves(ctx, filter, sink) {
        return finish_last_two_levels(ctx, emb, depth, sink, stats);
    }
    let u = ctx.order.order[depth];
    let mut keep_going = true;
    for_each_candidate(ctx, filter, *emb, depth, |v| {
        emb.set(u, v);
        keep_going = extend(ctx, filter, emb, depth + 1, sink, stats);
        emb.unset(u);
        keep_going
    }) && keep_going
}

/// Expand a partial embedding by exactly one order level, materializing the
/// child tasks (paper Algorithm 2, `Traverse_Next_Layer`). Used by the
/// inner-update executor's BFS decomposition and adaptive splitting, never
/// at the last order position: its children would be one task per match,
/// and [`finish_last_level`] delivers them instead.
///
/// Counts one node per materialized child and honors the cooperative
/// deadline like [`extend`]: a dense level (a hub image with thousands of
/// neighbors) can no longer stall a timed run inside a single expansion.
/// Returns `false` iff aborted by the deadline; `out` then holds the
/// children materialized so far (fine to discard — the run is over).
#[must_use]
pub fn expand_one_layer<G: GraphShard>(
    ctx: &SearchCtx<'_, G>,
    filter: &(impl CandidateFilter<G> + ?Sized),
    emb: &Embedding,
    depth: usize,
    out: &mut Vec<Embedding>,
    stats: &mut SearchStats,
) -> bool {
    debug_assert!(
        depth + 1 < ctx.order.len(),
        "expand_one_layer at the last position"
    );
    if !visit(ctx, stats, depth, 1) {
        return false;
    }
    let u = ctx.order.order[depth];
    for_each_candidate(ctx, filter, *emb, depth, |v| {
        let mut child = *emb;
        child.set(u, v);
        out.push(child);
        // The only early stop in this closure is the deadline, so the
        // generator's return value is exactly "not timed out".
        visit(ctx, stats, depth, 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::BufferSink;
    use csm_graph::{ELabel, VLabel};

    /// Data: a 4-cycle v0-v1-v2-v3 plus chord v0-v2, all label 0.
    /// Query: triangle, all label 0.
    fn setup() -> (DataGraph, QueryGraph) {
        let mut g = DataGraph::new();
        let v: Vec<_> = (0..4).map(|_| g.add_vertex(VLabel(0))).collect();
        for &(a, b) in &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            g.insert_edge(v[a], v[b], ELabel(0)).unwrap();
        }
        let mut q = QueryGraph::new();
        let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
        q.add_edge(u[0], u[1], ELabel(0)).unwrap();
        q.add_edge(u[1], u[2], ELabel(0)).unwrap();
        q.add_edge(u[0], u[2], ELabel(0)).unwrap();
        (g, q)
    }

    fn run_all(g: &DataGraph, q: &QueryGraph) -> u64 {
        // Enumerate everything from a single-vertex order (static style).
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
        extend(
            &ctx,
            &NoFilter,
            &mut Embedding::empty(),
            0,
            &mut sink,
            &mut stats,
        );
        sink.count
    }

    #[test]
    fn triangle_mappings_counted_with_automorphisms() {
        let (g, q) = setup();
        // Two triangles {v0,v1,v2} and {v0,v2,v3}, × 6 automorphisms each.
        assert_eq!(run_all(&g, &q), 12);
    }

    #[test]
    fn label_mismatch_prunes() {
        let (g, mut_q) = setup();
        let mut q = mut_q.clone();
        drop(mut_q);
        // Query with an impossible vertex label.
        let u3 = q.add_vertex(VLabel(9));
        q.add_edge(QVertexId(0), u3, ELabel(0)).unwrap();
        assert_eq!(run_all(&g, &q), 0);
    }

    #[test]
    fn edge_label_mismatch_prunes_unless_ignored() {
        let (mut g, q) = setup();
        // Relabel one triangle edge: v0-v1 becomes label 5.
        g.remove_edge(VertexId(0), VertexId(1)).unwrap();
        g.insert_edge(VertexId(0), VertexId(1), ELabel(5)).unwrap();
        // Triangle {v0,v1,v2} no longer edge-label-consistent: only
        // {v0,v2,v3} remains → 6 mappings.
        assert_eq!(run_all(&g, &q), 6);

        // Ignoring edge labels restores both triangles.
        let order = SeedOrder::build(&q, &[QVertexId(0)]);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: true,
            deadline: None,
            profile: None,
        };
        let mut sink = BufferSink::counting();
        let mut stats = SearchStats::default();
        extend(
            &ctx,
            &NoFilter,
            &mut Embedding::empty(),
            0,
            &mut sink,
            &mut stats,
        );
        assert_eq!(sink.count, 12);
    }

    #[test]
    fn seeded_extension_from_partial_embedding() {
        let (g, q) = setup();
        let order = SeedOrder::build(&q, &[QVertexId(0), QVertexId(1)]);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: false,
            deadline: None,
            profile: None,
        };
        // Seed u0→v0, u1→v1: completions are u2→v2 only.
        let mut emb = Embedding::empty();
        emb.set(QVertexId(0), VertexId(0));
        emb.set(QVertexId(1), VertexId(1));
        let mut sink = BufferSink::collecting();
        let mut stats = SearchStats::default();
        extend(&ctx, &NoFilter, &mut emb, 2, &mut sink, &mut stats);
        assert_eq!(sink.count, 1);
        assert_eq!(sink.matches[0].get(QVertexId(2)), VertexId(2));
    }

    #[test]
    fn expand_one_layer_produces_children() {
        let (g, q) = setup();
        let order = SeedOrder::build(&q, &[QVertexId(0)]);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: false,
            deadline: None,
            profile: None,
        };
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        assert!(expand_one_layer(
            &ctx,
            &NoFilter,
            &Embedding::empty(),
            0,
            &mut out,
            &mut stats
        ));
        // Depth 0 candidates: all degree-≥2 vertices with label 0 = v0..v3.
        assert_eq!(out.len(), 4);
        for child in &out {
            assert_eq!(child.len(), 1);
        }
        assert!(stats.nodes > 0);
    }

    #[test]
    fn expand_one_layer_honors_deadline() {
        let (g, q) = setup();
        let order = SeedOrder::build(&q, &[QVertexId(0)]);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: false,
            deadline: Some(past),
            profile: None,
        };
        let mut out = Vec::new();
        // Force a deadline probe on the first tick.
        let mut stats = SearchStats {
            nodes: DEADLINE_CHECK_MASK,
            ..SearchStats::default()
        };
        let alive = expand_one_layer(
            &ctx,
            &NoFilter,
            &Embedding::empty(),
            0,
            &mut out,
            &mut stats,
        );
        assert!(!alive);
        assert!(stats.timed_out);
        assert!(out.is_empty());
    }

    #[test]
    fn naive_and_partitioned_candidates_agree() {
        let (g, q) = setup();
        for seed in [&[QVertexId(0)][..], &[QVertexId(0), QVertexId(1)][..]] {
            let order = SeedOrder::build(&q, seed);
            for ignore in [false, true] {
                let ctx = SearchCtx {
                    g: &g,
                    q: &q,
                    order: &order,
                    ignore_elabels: ignore,
                    deadline: None,
                    profile: None,
                };
                let mut emb = Embedding::empty();
                emb.set(QVertexId(0), VertexId(0));
                if seed.len() == 2 {
                    emb.set(QVertexId(1), VertexId(1));
                }
                let depth = seed.len();
                let mut new_c = Vec::new();
                for_each_candidate(&ctx, &NoFilter, emb, depth, |v| {
                    new_c.push(v);
                    true
                });
                let mut old_c = Vec::new();
                for_each_candidate_naive(&ctx, &NoFilter, emb, depth, |v| {
                    old_c.push(v);
                    true
                });
                new_c.sort_unstable();
                old_c.sort_unstable();
                assert_eq!(new_c, old_c, "seed {seed:?} ignore {ignore}");
            }
        }
    }

    /// Counting the last level and streaming it agree on the match count
    /// and on every profile cell, across one-slice, probe and gallop last
    /// levels (two hubs adjacent to everything make slices longer than
    /// [`PROBE_THRESHOLD`]). The star, the path, the tree with sibling
    /// leaves and `K_{2,3}` have orders with independent tails, all on one
    /// label, so the two-level count and its `|A′ ∩ B′|` term are compared
    /// too; `K_{2,3}`'s tail has two slices per position.
    #[test]
    fn last_level_count_matches_streaming_cell_for_cell() {
        use crate::order::MatchingOrders;
        use crate::trace::profile::{ProfileLevel, Profiler};
        let mut g = DataGraph::new();
        let v: Vec<_> = (0..20).map(|_| g.add_vertex(VLabel(0))).collect();
        for i in 0..20 {
            for j in [i + 1, i + 2] {
                let _ = g.insert_edge(v[i], v[j % 20], ELabel(0));
            }
            for hub in [0, 1] {
                if i != hub {
                    let _ = g.insert_edge(v[hub], v[i], ELabel(0));
                }
            }
        }
        let shape = |edges: &[(u8, u8)]| {
            let mut q = QueryGraph::new();
            let n = edges.iter().map(|&(a, b)| a.max(b)).max().unwrap() + 1;
            for _ in 0..n {
                q.add_vertex(VLabel(0));
            }
            for &(a, b) in edges {
                q.add_edge(QVertexId(a), QVertexId(b), ELabel(0)).unwrap();
            }
            q
        };
        let queries = [
            shape(&[(0, 1), (1, 2)]),
            shape(&[(0, 1), (1, 2), (0, 2)]),
            shape(&[(0, 1), (1, 2), (2, 3), (3, 0)]),
            shape(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            shape(&[(0, 1), (0, 2), (0, 3)]),
            shape(&[(0, 1), (1, 2), (2, 3), (3, 4)]),
            shape(&[(0, 1), (0, 2), (1, 3), (1, 4)]),
            shape(&[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        ];
        let (mut probe_steps, mut gallop_steps) = (0, 0);
        let (mut tail_probe_steps, mut tail_gallop_steps) = (0, 0);
        for q in &queries {
            let orders = MatchingOrders::build(q);
            let mut run = |collect: bool| {
                let profiler = Profiler::new(ProfileLevel::Counters, q, &orders);
                let frame = profiler.frame();
                let mut sink = if collect {
                    BufferSink::collecting()
                } else {
                    BufferSink::counting()
                };
                let mut stats = SearchStats::default();
                for i in 0..orders.len() {
                    frame.as_ref().unwrap().set_order(i as u16);
                    let ctx = SearchCtx {
                        g: &g,
                        q,
                        order: orders.by_index(i as u16),
                        ignore_elabels: false,
                        deadline: None,
                        profile: frame.as_ref(),
                    };
                    let mut emb = Embedding::empty();
                    assert!(extend(&ctx, &NoFilter, &mut emb, 0, &mut sink, &mut stats));
                    assert!(emb.is_empty());
                }
                drop(frame);
                let profile = profiler.snapshot().unwrap();
                let cells: Vec<_> = profile
                    .orders
                    .iter()
                    .flat_map(|o| o.depths.iter().map(|d| d.counters))
                    .collect();
                for o in &profile.orders {
                    let last = o.depths.last().unwrap();
                    probe_steps += last.get(ProfileCounter::ProbeSteps);
                    gallop_steps += last.get(ProfileCounter::GallopSteps);
                    if orders.by_index(o.index).independent_tail {
                        tail_probe_steps += last.get(ProfileCounter::ProbeSteps);
                        tail_gallop_steps += last.get(ProfileCounter::GallopSteps);
                    }
                }
                (sink.count, stats.nodes, cells)
            };
            let (counted, streamed) = (run(false), run(true));
            assert!(counted.0 > 0);
            assert_eq!(counted, streamed, "{} query vertices", q.num_vertices());
        }
        assert!(probe_steps > 0 && gallop_steps > 0, "both branches reached");
        assert!(
            tail_probe_steps > 0 && tail_gallop_steps > 0,
            "both branches reached under an independent tail"
        );
    }

    #[test]
    fn filter_can_prune_candidates() {
        struct OnlyEven;
        impl CandidateFilter for OnlyEven {
            fn is_candidate(
                &self,
                _: &DataGraph,
                _: &QueryGraph,
                _: QVertexId,
                v: VertexId,
            ) -> bool {
                v.0.is_multiple_of(2)
            }
        }
        let (g, q) = setup();
        let order = SeedOrder::build(&q, &[QVertexId(0)]);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: false,
            deadline: None,
            profile: None,
        };
        let mut sink = BufferSink::counting();
        let mut stats = SearchStats::default();
        extend(
            &ctx,
            &OnlyEven,
            &mut Embedding::empty(),
            0,
            &mut sink,
            &mut stats,
        );
        // No triangle on only-even vertices exists ({v0,v2} plus nothing).
        assert_eq!(sink.count, 0);
    }

    #[test]
    fn sink_can_stop_enumeration() {
        let (g, q) = setup();
        let order = SeedOrder::build(&q, &[QVertexId(0)]);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: false,
            deadline: None,
            profile: None,
        };
        let mut sink = BufferSink::counting().with_cap(Some(3));
        let mut stats = SearchStats::default();
        let finished = extend(
            &ctx,
            &NoFilter,
            &mut Embedding::empty(),
            0,
            &mut sink,
            &mut stats,
        );
        assert!(!finished);
        assert!(!stats.timed_out);
        assert_eq!(sink.count, 3);
    }

    #[test]
    fn deadline_aborts_search() {
        let (g, q) = setup();
        let order = SeedOrder::build(&q, &[QVertexId(0)]);
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: false,
            deadline: Some(past),
            profile: None,
        };
        let mut sink = BufferSink::counting();
        // Force a deadline probe on the first tick.
        let mut stats = SearchStats {
            nodes: DEADLINE_CHECK_MASK,
            ..SearchStats::default()
        };
        let finished = extend(
            &ctx,
            &NoFilter,
            &mut Embedding::empty(),
            0,
            &mut sink,
            &mut stats,
        );
        assert!(!finished);
        assert!(stats.timed_out);
        // The transition is counted exactly once, even though subsequent
        // enumerations would keep observing the expired deadline.
        assert_eq!(stats.deadline_hits, 1);
        // ...and attributed to the depth that observed it.
        assert_eq!(stats.deadline_depth[0], 1);
        assert_eq!(
            stats.deadline_depth.iter().sum::<u64>(),
            stats.deadline_hits
        );
        let mut total = SearchStats::default();
        total.absorb(&stats);
        total.absorb(&stats);
        assert_eq!(total.deadline_hits, 2);
        assert_eq!(total.deadline_depth[0], 2);
        assert!(total.timed_out);
    }
}
