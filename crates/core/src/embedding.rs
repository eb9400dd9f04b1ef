//! Partial and complete embeddings (the mapping `M : V(Q) → V(G)`), plus
//! match sinks.
//!
//! An [`Embedding`] is a fixed-size, `Copy` value: search-tree tasks are
//! embeddings, and the inner-update executor moves millions of them through
//! a concurrent queue — keeping them inline (no heap indirection) is the
//! difference between a work-stealing win and an allocator bottleneck.

use csm_graph::{QVertexId, VertexId};

/// Maximum query-pattern size supported by the matching engine. Bounded by
/// the `u32` assignment mask; the paper's evaluation uses sizes 6–10.
pub const MAX_PATTERN_VERTICES: usize = 32;

/// A (partial) injective mapping from query vertices to data vertices.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Embedding {
    map: [VertexId; MAX_PATTERN_VERTICES],
    mask: u32,
}

impl Embedding {
    /// The empty mapping.
    #[inline]
    pub fn empty() -> Self {
        Embedding {
            map: [VertexId(u32::MAX); MAX_PATTERN_VERTICES],
            mask: 0,
        }
    }

    /// Number of mapped query vertices `|M|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Is the mapping empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// The data vertex assigned to `u`, if any.
    #[inline]
    pub fn get(&self, u: QVertexId) -> Option<VertexId> {
        if self.mask >> u.index() & 1 == 1 {
            Some(self.map[u.index()])
        } else {
            None
        }
    }

    /// The data vertex assigned to `u`; panics in debug builds if unmapped.
    /// Hot-path accessor for positions the matching order guarantees mapped.
    #[inline]
    pub fn get_unchecked(&self, u: QVertexId) -> VertexId {
        debug_assert!(self.mask >> u.index() & 1 == 1, "{u:?} not mapped");
        self.map[u.index()]
    }

    /// Assign `u → v`. Overwrites any previous assignment of `u`.
    #[inline]
    pub fn set(&mut self, u: QVertexId, v: VertexId) {
        self.map[u.index()] = v;
        self.mask |= 1 << u.index();
    }

    /// Remove the assignment of `u` (backtracking).
    #[inline]
    pub fn unset(&mut self, u: QVertexId) {
        self.mask &= !(1 << u.index());
    }

    /// Is the data vertex `v` already used by the mapping? (Injectivity
    /// check — linear scan over ≤ `|V(Q)|` mapped entries, which for CSM
    /// query sizes beats any hash structure.)
    #[inline]
    pub fn uses(&self, v: VertexId) -> bool {
        let mut m = self.mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if self.map[i] == v {
                return true;
            }
            m &= m - 1;
        }
        false
    }

    /// The data vertices the mapping uses (its image), in query-vertex
    /// order.
    #[inline]
    pub fn images(&self) -> impl Iterator<Item = VertexId> + '_ {
        let mut m = self.mask;
        std::iter::from_fn(move || {
            if m == 0 {
                return None;
            }
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(self.map[i])
        })
    }

    /// Mapped (query, data) pairs in query-vertex order.
    pub fn pairs(&self) -> impl Iterator<Item = (QVertexId, VertexId)> + '_ {
        let mask = self.mask;
        (0..MAX_PATTERN_VERTICES).filter_map(move |i| {
            if mask >> i & 1 == 1 {
                Some((QVertexId::from(i), self.map[i]))
            } else {
                None
            }
        })
    }

    /// Freeze a *complete* embedding over `n` query vertices into a compact
    /// match record.
    pub fn to_match(&self, n: usize) -> Match {
        debug_assert_eq!(self.len(), n, "to_match on partial embedding");
        Match {
            map: (0..n).map(|i| self.map[i]).collect(),
        }
    }
}

impl std::fmt::Debug for Embedding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.pairs()).finish()
    }
}

/// A complete match: `map[i]` is the data vertex matched to query vertex `i`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Match {
    map: Box<[VertexId]>,
}

impl Match {
    /// The data vertex matched to query vertex `u`.
    #[inline]
    pub fn get(&self, u: QVertexId) -> VertexId {
        self.map[u.index()]
    }

    /// The full assignment, indexed by query vertex id.
    #[inline]
    pub fn as_slice(&self) -> &[VertexId] {
        &self.map
    }
}

impl From<Vec<VertexId>> for Match {
    fn from(v: Vec<VertexId>) -> Self {
        Match {
            map: v.into_boxed_slice(),
        }
    }
}

/// Receiver of complete embeddings during enumeration.
///
/// `report` and `report_count` return `true` to continue the search and
/// `false` to stop it (match caps). Sinks are thread-local in parallel runs
/// and merged afterwards — implementations need not be `Sync`.
pub trait MatchSink {
    /// Deliver one complete embedding (`n` = `|V(Q)|`).
    fn report(&mut self, emb: &Embedding, n: usize) -> bool;

    /// Does this sink only count? When `true`, the kernel may deliver the
    /// last order position as one [`MatchSink::report_count`] instead of
    /// one [`MatchSink::report`] per match.
    fn counts_only(&self) -> bool {
        false
    }

    /// Deliver `k` complete embeddings by count. Called only on sinks whose
    /// [`MatchSink::counts_only`] is `true`; a cap must grant at most what
    /// is left of it, exactly as `k` calls of `report` would.
    fn report_count(&mut self, k: u64) -> bool;
}

/// Counts matches; optionally collects the embeddings and enforces a cap.
#[derive(Debug, Default)]
pub struct BufferSink {
    /// Number of matches reported.
    pub count: u64,
    /// Collected matches (only if `collect`).
    pub matches: Vec<Match>,
    /// Whether to materialize embeddings.
    pub collect: bool,
    /// Stop after this many matches.
    pub cap: Option<u64>,
}

impl BufferSink {
    /// A counting-only sink.
    pub fn counting() -> Self {
        Self::default()
    }

    /// A sink that materializes every match.
    pub fn collecting() -> Self {
        BufferSink {
            collect: true,
            ..Self::default()
        }
    }

    /// Apply a cap to this sink.
    pub fn with_cap(mut self, cap: Option<u64>) -> Self {
        self.cap = cap;
        self
    }

    /// Fold another sink's results into this one (parallel merge).
    pub fn absorb(&mut self, other: BufferSink) {
        self.count += other.count;
        if self.collect {
            self.matches.extend(other.matches);
        }
    }
}

impl MatchSink for BufferSink {
    #[inline]
    fn report(&mut self, emb: &Embedding, n: usize) -> bool {
        self.count += 1;
        if self.collect {
            self.matches.push(emb.to_match(n));
        }
        match self.cap {
            Some(cap) => self.count < cap,
            None => true,
        }
    }

    #[inline]
    fn counts_only(&self) -> bool {
        !self.collect
    }

    #[inline]
    fn report_count(&mut self, k: u64) -> bool {
        debug_assert!(!self.collect, "report_count on a collecting sink");
        match self.cap {
            Some(cap) => {
                self.count += k.min(cap.saturating_sub(self.count));
                self.count < cap
            }
            None => {
                self.count += k;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset() {
        let mut e = Embedding::empty();
        assert!(e.is_empty());
        e.set(QVertexId(3), VertexId(77));
        assert_eq!(e.get(QVertexId(3)), Some(VertexId(77)));
        assert_eq!(e.get(QVertexId(0)), None);
        assert_eq!(e.len(), 1);
        e.unset(QVertexId(3));
        assert_eq!(e.get(QVertexId(3)), None);
        assert!(e.is_empty());
    }

    #[test]
    fn injectivity_scan() {
        let mut e = Embedding::empty();
        e.set(QVertexId(0), VertexId(5));
        e.set(QVertexId(2), VertexId(9));
        assert!(e.uses(VertexId(5)));
        assert!(e.uses(VertexId(9)));
        assert!(!e.uses(VertexId(7)));
        e.unset(QVertexId(0));
        assert!(!e.uses(VertexId(5)));
    }

    #[test]
    fn pairs_in_query_order() {
        let mut e = Embedding::empty();
        e.set(QVertexId(2), VertexId(20));
        e.set(QVertexId(0), VertexId(10));
        let pairs: Vec<_> = e.pairs().collect();
        assert_eq!(
            pairs,
            vec![(QVertexId(0), VertexId(10)), (QVertexId(2), VertexId(20))]
        );
    }

    #[test]
    fn to_match_freezes_assignment() {
        let mut e = Embedding::empty();
        e.set(QVertexId(0), VertexId(4));
        e.set(QVertexId(1), VertexId(2));
        let m = e.to_match(2);
        assert_eq!(m.get(QVertexId(0)), VertexId(4));
        assert_eq!(m.as_slice(), &[VertexId(4), VertexId(2)]);
    }

    #[test]
    fn buffer_sink_counts_and_caps() {
        let mut e = Embedding::empty();
        e.set(QVertexId(0), VertexId(0));
        let mut s = BufferSink::counting().with_cap(Some(2));
        assert!(s.report(&e, 1));
        assert!(!s.report(&e, 1)); // cap reached
        assert_eq!(s.count, 2);
        assert!(s.matches.is_empty());
    }

    #[test]
    fn buffer_sink_bulk_count_stops_exactly_at_cap() {
        let mut s = BufferSink::counting().with_cap(Some(10));
        assert!(s.counts_only());
        assert!(s.report_count(4));
        assert!(!s.report_count(9)); // only 6 of the 9 fit
        assert_eq!(s.count, 10);
        let mut uncapped = BufferSink::counting();
        assert!(uncapped.report_count(1 << 40));
        assert_eq!(uncapped.count, 1 << 40);
        assert!(!BufferSink::collecting().counts_only());
    }

    #[test]
    fn images_lists_mapped_vertices() {
        let mut e = Embedding::empty();
        e.set(QVertexId(4), VertexId(40));
        e.set(QVertexId(1), VertexId(10));
        assert_eq!(e.images().collect::<Vec<_>>(), [VertexId(10), VertexId(40)]);
        e.unset(QVertexId(1));
        assert_eq!(e.images().collect::<Vec<_>>(), [VertexId(40)]);
        assert_eq!(Embedding::empty().images().count(), 0);
    }

    #[test]
    fn buffer_sink_collects_and_merges() {
        let mut e = Embedding::empty();
        e.set(QVertexId(0), VertexId(1));
        let mut a = BufferSink::collecting();
        a.report(&e, 1);
        let mut b = BufferSink::collecting();
        b.report(&e, 1);
        a.absorb(b);
        assert_eq!(a.count, 2);
        assert_eq!(a.matches.len(), 2);
    }

    #[test]
    fn embedding_is_copy_and_small() {
        // The executor relies on tasks being cheap inline copies.
        assert!(std::mem::size_of::<Embedding>() <= 136);
        let e = Embedding::empty();
        let f = e; // Copy
        assert_eq!(e, f);
    }
}
