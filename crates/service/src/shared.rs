//! The cross-session shared-work index (DESIGN.md §3.11): the service's
//! classifier.
//!
//! Fanned out naively, every admitted update costs N independent
//! classifier passes and N independent `Find_Matches` calls — sessions
//! with overlapping queries pay N times for identical work. The
//! [`SharedIndex`] recovers that overlap in three tiers:
//!
//! 1. **Union stage-1 classification** — at registration every query is
//!    decomposed into canonical [`EdgePatternKey`]s (one per distinct
//!    query-edge label triple, endpoint labels sorted; wildcard edge label
//!    for ignore-edge-labels algorithms). The index maps each key to its
//!    subscriber sessions, so classifying an update against *all* standing
//!    queries is two hash lookups (exact + wildcard) instead of N label
//!    scans. The two subscriber lists merge into the ascending *touched*
//!    list; sessions not on it are exactly the label-safe ones —
//!    `query.rs` unit tests pin the equivalence with `matches_any_edge`,
//!    and debug builds re-check the whole list against every session's
//!    own scan. The service visits only touched sessions (plus those that
//!    cannot defer), so an edge costs work in the sessions it can touch;
//!    every other session gets its observer callback alone.
//! 2. **Group-shared verdicts and deltas** — sessions whose `(query
//!    representation, ignore-edge-labels, match_cap)` are identical form a
//!    *share group*: their stage-2 verdicts and their ΔM counts are
//!    provably equal (ΔM is a pure function of `(G, Q, edge)`; the
//!    classifier soundness contract makes it algorithm-independent), so
//!    the degree filter runs once per group and the first group member to
//!    enumerate an unsafe update publishes its count for the rest to
//!    absorb ([`crate::session::Session::absorb_shared`]). Both caches
//!    are group-indexed slots stamped with an edge-phase counter, so a
//!    new edge invalidates them without clearing anything.
//! 3. **Cross-session probe memo** — stage-3's structural endpoint probes
//!    (`does v have an (label, elabel) neighbor?`) depend only on the
//!    graph and the update edge, never on the session, so one
//!    [`ProbeMemo`] serves every session within an update phase. Shared
//!    2-path keys ([`TwoPathKey`]) measure how much wedge structure the
//!    registered queries overlap on and size the `shared_subpatterns`
//!    gauge together with the edge keys.
//!
//! Budgeted sessions opt out of delta exchange entirely (they must run
//! their own enumerations so the degradation ladder sees real timings);
//! every other observable — per-session ΔM, verdict sequences, observer
//! callbacks — is bit-identical to the same session served alone, which
//! `tests/service_sessions.rs` enforces differentially.

use crate::session::{Session, SessionFind};
use csm_graph::{ELabel, EdgePatternKey, EdgeUpdate, GraphShard, QEdge, TwoPathKey, VLabel};
use paracosm_core::{FanKind, ProbeMemo};
use std::collections::HashMap;

/// Share-group identity: two sessions exchange cached ΔM counts only when
/// this whole record matches exactly. The query representation is compared
/// literally (labels plus the sorted edge list) — no isomorphism check, so
/// grouping is conservative: a missed group costs a duplicate enumeration,
/// never a wrong count.
#[derive(Clone, Debug, PartialEq)]
struct GroupKey {
    labels: Vec<VLabel>,
    edges: Vec<QEdge>,
    ignore_elabels: bool,
    match_cap: Option<u64>,
}

/// Per-session registration record, aligned by position with
/// `CsmService::sessions`.
struct Meta {
    edge_keys: Vec<EdgePatternKey>,
    two_paths: Vec<TwoPathKey>,
    group: u32,
    eligible: bool,
}

/// Lifetime effectiveness counters of a [`SharedIndex`], surfaced in the
/// shutdown [`crate::ServiceReport`] and mirrored by the telemetry plane
/// (`/metrics`, `/sessions`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedIndexStats {
    /// Distinct sub-patterns (canonical edge keys plus 2-path keys) across
    /// the currently registered sessions.
    pub subpatterns: u64,
    /// ΔM deltas absorbed from the cache instead of enumerated — equals
    /// the sum of every session's `shared_reuses`.
    pub hits: u64,
    /// ΔM deltas enumerated and published for same-group reuse.
    pub misses: u64,
}

/// The service-owned cross-session index: sub-pattern → subscribers, share
/// groups, and the per-update-edge scratch state (touched list, probe
/// memo, degree and delta caches).
pub(crate) struct SharedIndex {
    subs: HashMap<EdgePatternKey, Vec<usize>>,
    /// 2-path key → how many registered sessions carry it; its length is
    /// the distinct-wedge share of the `subpatterns` gauge.
    wedges: HashMap<TwoPathKey, u32>,
    metas: Vec<Meta>,
    groups: Vec<GroupKey>,
    /// Scratch: ascending, duplicate-free positions of the sessions that
    /// are *not* label-safe for the edge passed to the last
    /// [`SharedIndex::begin_edge`] — its subscribers.
    touched: Vec<usize>,
    /// Edge-phase counter: a cache slot below is valid for the current
    /// edge only while its stamp equals `phase`, so beginning an edge
    /// clears nothing.
    phase: u64,
    /// Scratch, by group: `(phase, degree-safe verdict)`.
    degree_cache: Vec<(u64, bool)>,
    /// Scratch, by group: `(phase, published ΔM count)`.
    delta_cache: Vec<(u64, u64)>,
    memo: ProbeMemo,
    hits: u64,
    misses: u64,
}

impl SharedIndex {
    pub(crate) fn new() -> SharedIndex {
        SharedIndex {
            subs: HashMap::new(),
            wedges: HashMap::new(),
            metas: Vec::new(),
            groups: Vec::new(),
            touched: Vec::new(),
            phase: 0,
            degree_cache: Vec::new(),
            delta_cache: Vec::new(),
            memo: ProbeMemo::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Register the session just pushed onto the service's session vector
    /// (its position is `metas.len()`): decompose its query into canonical
    /// keys, subscribe it, and assign its share group.
    pub(crate) fn register<G: GraphShard>(&mut self, s: &Session<G>) {
        let pos = self.metas.len();
        let q = s.eng.query();
        let ignore = s.eng.ignores_edge_labels();
        let edge_keys = q.edge_pattern_keys(ignore);
        let two_paths = q.two_path_keys(ignore);
        for &k in &edge_keys {
            self.subs.entry(k).or_default().push(pos);
        }
        for &w in &two_paths {
            *self.wedges.entry(w).or_default() += 1;
        }
        let gk = GroupKey {
            labels: q.vertices().map(|u| q.label(u)).collect(),
            edges: {
                let mut es = q.edges().to_vec();
                es.sort_unstable_by_key(|e| (e.u, e.v, e.label));
                es
            },
            ignore_elabels: ignore,
            match_cap: s.eng.config().match_cap,
        };
        let group = match self.groups.iter().position(|g| *g == gk) {
            Some(i) => i as u32,
            None => {
                self.groups.push(gk);
                self.degree_cache.push((0, false));
                self.delta_cache.push((0, 0));
                (self.groups.len() - 1) as u32
            }
        };
        self.metas.push(Meta {
            edge_keys,
            two_paths,
            group,
            eligible: s.shared_eligible(),
        });
    }

    /// Unsubscribe the session at `pos` (positions above shift down by
    /// one, exactly like `Vec::remove` on the session vector) and rebuild
    /// the key → subscriber map. Queries are tiny, so a full rebuild is
    /// cheaper than surgical position fix-ups and cannot leave ghosts.
    pub(crate) fn unregister(&mut self, pos: usize) {
        let gone = self.metas.remove(pos);
        for w in &gone.two_paths {
            let n = self
                .wedges
                .get_mut(w)
                .expect("a registered wedge is counted");
            *n -= 1;
            if *n == 0 {
                self.wedges.remove(w);
            }
        }
        self.subs.clear();
        for (i, m) in self.metas.iter().enumerate() {
            for &k in &m.edge_keys {
                self.subs.entry(k).or_default().push(i);
            }
        }
    }

    /// Number of registered sessions (must track the service's vector).
    pub(crate) fn len(&self) -> usize {
        self.metas.len()
    }

    /// Start a new update-edge phase for an edge with endpoint labels
    /// `(la, lb)` and label `el`: fill the touched list from the exact and
    /// wildcard subscriber lists (two hash probes), and invalidate the
    /// per-phase scratch (probe memo; degree and delta caches by stamp).
    /// Call again for every cascaded edge of a vertex deletion — and
    /// never use the memo across a graph mutation without re-beginning.
    pub(crate) fn begin_edge(&mut self, la: VLabel, lb: VLabel, el: ELabel) {
        let (ka, kb) = if la <= lb { (la, lb) } else { (lb, la) };
        let exact = self.subs.get(&EdgePatternKey::canonical(ka, kb, Some(el)));
        let wild = self.subs.get(&EdgePatternKey::canonical(ka, kb, None));
        self.touched.clear();
        match (exact, wild) {
            (Some(a), Some(b)) => merge_positions(a, b, &mut self.touched, |p, _| p),
            (Some(a), None) | (None, Some(a)) => self.touched.extend_from_slice(a),
            (None, None) => {}
        }
        self.phase += 1;
        self.memo.reset();
    }

    /// The sessions a fan-out of the current edge visits, into `out` as
    /// ascending `(position, label_safe)`: the touched sessions merged
    /// with `eager`, the ascending positions of sessions that cannot
    /// defer label-safe bookkeeping.
    pub(crate) fn visits(&self, eager: &[usize], out: &mut Vec<(usize, bool)>) {
        out.clear();
        merge_positions(&self.touched, eager, out, |p, touched| (p, !touched));
    }

    /// Debug builds: re-check the touched list against every session's
    /// own stage-1 label scan — position `pos` is touched exactly when
    /// session `pos` is not label-safe for `e`.
    pub(crate) fn check_touched<G: GraphShard>(
        &self,
        sessions: &[Session<G>],
        g: &G,
        e: &EdgeUpdate,
    ) {
        if cfg!(debug_assertions) {
            debug_assert!(self.touched.windows(2).all(|w| w[0] < w[1]));
            let scan = (sessions.iter().enumerate())
                .filter(|(_, s)| !s.eng.label_safe(g, e))
                .map(|(pos, _)| pos);
            debug_assert!(scan.eq(self.touched.iter().copied()));
        }
    }

    /// Stage 2 for the session at `pos`, judged once per share group per
    /// edge (the group's first visitor runs the degree filter). Debug
    /// builds re-check it per session.
    pub(crate) fn degree_safe<G: GraphShard>(
        &mut self,
        pos: usize,
        s: &Session<G>,
        g: &G,
        e: &EdgeUpdate,
        is_insert: bool,
    ) -> bool {
        let slot = &mut self.degree_cache[self.metas[pos].group as usize];
        if slot.0 != self.phase {
            *slot = (self.phase, s.eng.degree_safe(g, e, is_insert));
        }
        let safe = slot.1;
        debug_assert_eq!(safe, s.eng.degree_safe(g, e, is_insert));
        safe
    }

    /// The tail of every session that is neither label- nor degree-safe,
    /// on inserts, deletions and cascaded deletions alike: stage 3
    /// through the cross-session probe memo, then the session's ΔM —
    /// absorbed from a same-group session that already enumerated this
    /// edge phase (a hit), or enumerated here and published for the rest
    /// of the group (a miss). Stage 3 only applies while the session's
    /// ADS is unchanged (`ads_unchanged`): always before a removal, and
    /// after an insert's ADS update reported no change.
    ///
    /// Returns `None` when safe at stage 3, else the find and the
    /// fan-out kind the flight recorder logs for it.
    pub(crate) fn find_or_reuse<G: GraphShard>(
        &mut self,
        pos: usize,
        s: &mut Session<G>,
        g: &G,
        e: &EdgeUpdate,
        positive: bool,
        ads_unchanged: bool,
    ) -> Option<(SessionFind, FanKind)> {
        if ads_unchanged {
            let safe = s.eng.candidates_safe_memo(g, e, &mut self.memo);
            debug_assert_eq!(safe, s.eng.candidates_safe(g, e));
            if safe {
                return None;
            }
        }
        let Meta {
            group, eligible, ..
        } = self.metas[pos];
        if !eligible {
            return Some((s.enumerate(g, e, positive), FanKind::Engine));
        }
        let (stamp, count) = self.delta_cache[group as usize];
        if stamp == self.phase {
            self.hits += 1;
            return Some((s.absorb_shared(count, positive), FanKind::SharedHit));
        }
        // Eligible sessions have no budget, so they never degrade and
        // never skip: the count is exact and safe to share.
        let f = s.enumerate(g, e, positive);
        debug_assert!(!f.skipped);
        self.delta_cache[group as usize] = (self.phase, f.count);
        self.misses += 1;
        s.eng.note_shared_publish();
        Some((f, FanKind::SharedMiss))
    }

    /// Lifetime counters plus the current distinct sub-pattern count, kept
    /// by [`SharedIndex::register`] and [`SharedIndex::unregister`].
    pub(crate) fn stats(&self) -> SharedIndexStats {
        SharedIndexStats {
            subpatterns: (self.subs.len() + self.wedges.len()) as u64,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

/// Merge two ascending position lists: push `f(pos, pos ∈ a)` for each
/// position of either, ascending, each position once.
fn merge_positions<T>(a: &[usize], b: &[usize], out: &mut Vec<T>, f: impl Fn(usize, bool) -> T) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let x = a.get(i).copied().unwrap_or(usize::MAX);
        let y = b.get(j).copied().unwrap_or(usize::MAX);
        let pos = x.min(y);
        out.push(f(pos, x == pos));
        i += usize::from(x == pos);
        j += usize::from(y == pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::EdgeTally;
    use csm_graph::{DataGraph, QVertexId, QueryGraph, VertexId};
    use paracosm_core::{AdsChange, CsmAlgorithm, NoopObserver, ParaCosmConfig};
    use std::collections::BTreeSet;

    /// An algorithm with no ADS; `.0` selects wildcard edge labels.
    struct Plain(bool);

    impl CsmAlgorithm for Plain {
        fn name(&self) -> &'static str {
            "plain"
        }
        fn ignore_edge_labels(&self) -> bool {
            self.0
        }
        fn rebuild(&mut self, _: &DataGraph, _: &QueryGraph) {}
        fn update_ads(
            &mut self,
            _: &DataGraph,
            _: &QueryGraph,
            _: EdgeUpdate,
            _: bool,
        ) -> AdsChange {
            AdsChange::Unchanged
        }
        fn is_candidate(&self, _: &DataGraph, _: &QueryGraph, _: QVertexId, _: VertexId) -> bool {
            true
        }
    }

    /// xorshift64: `next(k)` is uniform-ish in `0..k`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self, k: u32) -> u32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            ((self.0 >> 16) % u64::from(k)) as u32
        }
    }

    /// A random connected query of 2–4 vertices over vertex labels 0..4
    /// and edge labels 0..3.
    fn random_query(r: &mut Rng) -> QueryGraph {
        let mut q = QueryGraph::new();
        let n = 2 + r.next(3);
        let u: Vec<_> = (0..n).map(|_| q.add_vertex(VLabel(r.next(4)))).collect();
        for i in 1..n as usize {
            let parent = u[r.next(i as u32) as usize];
            q.add_edge(parent, u[i], ELabel(r.next(3))).unwrap();
        }
        q
    }

    fn session(g: &DataGraph, id: u64, q: QueryGraph, wildcard: bool) -> Session {
        let spec = crate::SessionSpec::new(q, ParaCosmConfig::sequential());
        let (algo, obs) = (Box::new(Plain(wildcard)), Box::new(NoopObserver));
        Session::new(id, spec, algo, obs, g, EdgeTally::default()).unwrap()
    }

    fn graph() -> DataGraph {
        let mut g = DataGraph::new();
        for i in 0..12u32 {
            g.add_vertex(VLabel(i % 4));
        }
        g
    }

    fn register(ix: &mut SharedIndex, sessions: &mut Vec<Session>, s: Session) {
        sessions.push(s);
        ix.register(sessions.last().unwrap());
    }

    /// For random edges, `begin_edge`'s touched list is ascending,
    /// duplicate-free and exactly the sessions whose own label scan says
    /// "not label-safe" — with exact-label and wildcard sessions mixed,
    /// before and after an unregister at a middle position.
    #[test]
    fn touched_list_is_the_label_unsafe_sessions() {
        let g = graph();
        for seed in 1..=20u64 {
            let mut r = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let (mut ix, mut sessions) = (SharedIndex::new(), Vec::new());
            for id in 0..9 {
                let s = session(&g, id, random_query(&mut r), r.next(3) == 0);
                register(&mut ix, &mut sessions, s);
            }
            for round in 0..2 {
                if round == 1 {
                    let mid = 1 + r.next(sessions.len() as u32 - 2) as usize;
                    sessions.remove(mid);
                    ix.unregister(mid);
                }
                for _ in 0..60 {
                    let (a, b) = (VertexId(r.next(12)), VertexId(r.next(12)));
                    let e = EdgeUpdate::new(a, b, ELabel(r.next(4)));
                    ix.begin_edge(g.label(a), g.label(b), e.label);
                    let want: Vec<usize> = (sessions.iter().enumerate())
                        .filter(|(_, s)| !s.eng.label_safe(&g, &e))
                        .map(|(pos, _)| pos)
                        .collect();
                    assert!(ix.touched.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
                    assert_eq!(ix.touched, want, "seed {seed}, edge {e:?}");
                    let mut visits = Vec::new();
                    ix.visits(&[0, 3], &mut visits);
                    let all: BTreeSet<usize> = want.iter().copied().chain([0, 3]).collect();
                    let got: Vec<usize> = visits.iter().map(|v| v.0).collect();
                    assert_eq!(got, all.into_iter().collect::<Vec<_>>());
                    assert!(visits.iter().all(|&(p, safe)| safe != want.contains(&p)));
                }
            }
        }
    }

    /// The distinct sub-pattern count kept by `register`/`unregister`
    /// equals a recount over the live sessions' queries, through adds of
    /// duplicate queries and removals at the front, middle and back.
    #[test]
    fn subpattern_count_tracks_a_recount() {
        let g = graph();
        let recount = |sessions: &[Session]| {
            let mut edges = BTreeSet::new();
            let mut wedges = BTreeSet::new();
            for s in sessions {
                let (q, ignore) = (s.eng.query(), s.eng.ignores_edge_labels());
                edges.extend(q.edge_pattern_keys(ignore));
                wedges.extend(q.two_path_keys(ignore));
            }
            (edges.len() + wedges.len()) as u64
        };
        let mut r = Rng(0x5eed);
        let (mut ix, mut sessions) = (SharedIndex::new(), Vec::new());
        assert_eq!(ix.stats().subpatterns, 0);
        let mut id = 0;
        for step in 0..80 {
            if sessions.len() < 3 || r.next(3) != 0 {
                // Every third add repeats a live session's query.
                let q = match sessions.len() {
                    n if n > 0 && step % 3 == 0 => {
                        let s: &Session = &sessions[r.next(n as u32) as usize];
                        s.eng.query().clone()
                    }
                    _ => random_query(&mut r),
                };
                register(&mut ix, &mut sessions, session(&g, id, q, r.next(4) == 0));
                id += 1;
            } else {
                let pos = match step % 3 {
                    0 => 0,
                    1 => sessions.len() / 2,
                    _ => sessions.len() - 1,
                };
                sessions.remove(pos);
                ix.unregister(pos);
            }
            assert_eq!(ix.stats().subpatterns, recount(&sessions), "step {step}");
        }
        while !sessions.is_empty() {
            sessions.remove(0);
            ix.unregister(0);
            assert_eq!(ix.stats().subpatterns, recount(&sessions));
        }
        assert_eq!(ix.stats().subpatterns, 0);
    }

    #[test]
    fn group_key_literal_compare_is_conservative() {
        let a = GroupKey {
            labels: vec![VLabel(0), VLabel(1)],
            edges: vec![QEdge {
                u: csm_graph::QVertexId(0),
                v: csm_graph::QVertexId(1),
                label: ELabel(0),
            }],
            ignore_elabels: false,
            match_cap: None,
        };
        let mut b = a.clone();
        assert_eq!(a, b);
        b.match_cap = Some(10);
        assert_ne!(a, b, "differing match caps must split groups");
        let mut c = a.clone();
        c.ignore_elabels = true;
        assert_ne!(a, c, "differing label modes must split groups");
    }
}
