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
//!    scans. Sessions not subscribed to the update's triple are exactly
//!    the label-safe ones — `query.rs` unit tests pin the equivalence with
//!    `matches_any_edge`, and debug builds re-check it per session.
//! 2. **Group-shared verdicts and deltas** — sessions whose `(query
//!    representation, ignore-edge-labels, match_cap)` are identical form a
//!    *share group*: their stage-2 verdicts and their ΔM counts are
//!    provably equal (ΔM is a pure function of `(G, Q, edge)`; the
//!    classifier soundness contract makes it algorithm-independent), so
//!    the degree filter runs once per group and the first group member to
//!    enumerate an unsafe update publishes its count for the rest to
//!    absorb ([`crate::session::Session::absorb_shared`]).
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
/// groups, and the per-update-edge scratch state (probe memo, delta
/// cache, stage-1 subscriber flags).
pub(crate) struct SharedIndex {
    subs: HashMap<EdgePatternKey, Vec<usize>>,
    metas: Vec<Meta>,
    groups: Vec<GroupKey>,
    /// Scratch: `involved[pos]` ⇔ session `pos` is *not* label-safe for
    /// the edge passed to the last [`SharedIndex::begin_edge`].
    involved: Vec<bool>,
    /// Scratch: group → degree-safe verdict for the current edge.
    degree_cache: HashMap<u32, bool>,
    /// Scratch: group → published ΔM count for the current edge phase.
    delta_cache: HashMap<u32, u64>,
    memo: ProbeMemo,
    hits: u64,
    misses: u64,
}

impl SharedIndex {
    pub(crate) fn new() -> SharedIndex {
        SharedIndex {
            subs: HashMap::new(),
            metas: Vec::new(),
            groups: Vec::new(),
            involved: Vec::new(),
            degree_cache: HashMap::new(),
            delta_cache: HashMap::new(),
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
        self.metas.remove(pos);
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

    /// Start a new update-edge phase: run the union stage-1 lookup for an
    /// edge with endpoint labels `(la, lb)` and label `el`, and clear the
    /// per-phase scratch (probe memo, degree cache, delta cache). Call
    /// again for every cascaded edge of a vertex deletion — and never use
    /// the memo across a graph mutation without re-beginning.
    pub(crate) fn begin_edge(&mut self, la: VLabel, lb: VLabel, el: ELabel) {
        self.involved.clear();
        self.involved.resize(self.metas.len(), false);
        let (ka, kb) = if la <= lb { (la, lb) } else { (lb, la) };
        for key in [
            EdgePatternKey::canonical(ka, kb, Some(el)),
            EdgePatternKey::canonical(ka, kb, None),
        ] {
            if let Some(positions) = self.subs.get(&key) {
                for &p in positions {
                    self.involved[p] = true;
                }
            }
        }
        self.degree_cache.clear();
        self.delta_cache.clear();
        self.memo.reset();
    }

    /// Stage 1 for the session at `pos`, from the last
    /// [`SharedIndex::begin_edge`]: label-safe ⇔ not subscribed to the
    /// edge's key. Debug builds re-check it against the session's own
    /// label scan.
    pub(crate) fn label_safe<G: GraphShard>(
        &self,
        pos: usize,
        s: &Session<G>,
        g: &G,
        e: &EdgeUpdate,
    ) -> bool {
        let safe = !self.involved[pos];
        debug_assert_eq!(safe, s.eng.label_safe(g, e));
        safe
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
        let group = self.metas[pos].group;
        let safe = *self
            .degree_cache
            .entry(group)
            .or_insert_with(|| s.eng.degree_safe(g, e, is_insert));
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
        if let Some(&count) = self.delta_cache.get(&group) {
            self.hits += 1;
            return Some((s.absorb_shared(count, positive), FanKind::SharedHit));
        }
        // Eligible sessions have no budget, so they never degrade and
        // never skip: the count is exact and safe to share.
        let f = s.enumerate(g, e, positive);
        debug_assert!(!f.skipped);
        self.delta_cache.insert(group, f.count);
        self.misses += 1;
        s.eng.note_shared_publish();
        Some((f, FanKind::SharedMiss))
    }

    /// Lifetime counters plus the current distinct sub-pattern count.
    pub(crate) fn stats(&self) -> SharedIndexStats {
        let mut wedges: Vec<TwoPathKey> = self
            .metas
            .iter()
            .flat_map(|m| m.two_paths.iter().copied())
            .collect();
        wedges.sort_unstable();
        wedges.dedup();
        SharedIndexStats {
            subpatterns: (self.subs.len() + wedges.len()) as u64,
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
