//! The algorithm plug-in interface — the paper's "two user functions".
//!
//! ParaCOSM (Fig. 5) parallelizes any CSM algorithm that fits the general
//! two-stage model of §2.2: maintain an auxiliary data structure (ADS) per
//! update, then enumerate incremental matches over a search tree. To plug
//! into the framework an algorithm provides:
//!
//! 1. a **traversal routine** — [`CsmAlgorithm::search`] (defaults to the
//!    shared backtracking kernel driven by the algorithm's candidate test);
//! 2. a **filtering rule** — [`CsmAlgorithm::is_candidate`] plus the ADS
//!    maintenance in [`CsmAlgorithm::update_ads`], whose change-report feeds
//!    the stage-3 candidate filter of the update classifier.
//!
//! # Soundness contract
//!
//! * `is_candidate(u, v) == false` must imply `v` participates in **no**
//!   match at query position `u` in the current graph — filters prune, never
//!   decide.
//! * `update_ads` must return [`AdsChange::Changed`] whenever any internal
//!   state changed; returning `Unchanged` spuriously breaks the safe-update
//!   classifier.
//!
//! Both contracts are enforced by the workspace's differential tests.

use crate::embedding::{Embedding, MatchSink};
use crate::kernel::{self, CandidateFilter, SearchCtx, SearchStats};
use csm_graph::{DataGraph, EdgeUpdate, GraphShard, QVertexId, QueryGraph, VertexId};

/// Did an ADS update mutate any internal state?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdsChange {
    /// No state changed; the update is invisible to the index.
    Unchanged,
    /// At least one state changed.
    Changed,
}

impl AdsChange {
    /// Combine two change reports.
    #[inline]
    pub fn or(self, other: AdsChange) -> AdsChange {
        if self == AdsChange::Changed || other == AdsChange::Changed {
            AdsChange::Changed
        } else {
            AdsChange::Unchanged
        }
    }

    /// Convenience constructor from a boolean "changed" flag.
    #[inline]
    pub fn from_changed(changed: bool) -> AdsChange {
        if changed {
            AdsChange::Changed
        } else {
            AdsChange::Unchanged
        }
    }
}

/// A continuous-subgraph-matching algorithm hosted by ParaCOSM.
///
/// The framework owns the data graph and the processing loop; the algorithm
/// owns its ADS and candidate semantics. See the module docs for the
/// soundness contract.
pub trait CsmAlgorithm<G: GraphShard = DataGraph>: Send + Sync {
    /// Human-readable algorithm name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Does this algorithm ignore edge labels? (CaLiG does, per the paper's
    /// experimental setup §5.1 — edge labels are stripped for it.)
    fn ignore_edge_labels(&self) -> bool {
        false
    }

    /// Rebuild the ADS from scratch for the current graph (offline stage,
    /// and fallback after structural events like vertex-table growth).
    fn rebuild(&mut self, g: &G, q: &QueryGraph);

    /// Maintain the ADS for one edge update (online stage).
    ///
    /// Call convention (mirrors paper Algorithm 1): for an **insertion**,
    /// `g` already contains the edge; for a **deletion**, `g` no longer
    /// contains it. Must report whether any internal state changed.
    fn update_ads(&mut self, g: &G, q: &QueryGraph, e: EdgeUpdate, is_insert: bool) -> AdsChange;

    /// The ADS candidate test: may `v` be matched to `u` given the current
    /// index state? The kernel additionally enforces label equality, the
    /// degree prune, backward-edge checks and injectivity, so this only
    /// needs to express the algorithm's *extra* pruning.
    fn is_candidate(&self, g: &G, q: &QueryGraph, u: QVertexId, v: VertexId) -> bool;

    /// Does [`CsmAlgorithm::is_candidate`] accept every vertex? Then a
    /// counting run with exact edge labels may deliver leaves as counts
    /// ([`kernel::finish_last_level`]), and the inner executor leaves an
    /// independent tail's two levels to `search`, which must then finish
    /// them through the kernel: the default `search` ([`kernel::extend`])
    /// does.
    fn admits_all(&self) -> bool {
        false
    }

    /// The algorithm's sequential enumeration from a partial embedding at
    /// `depth` along `ctx.order`. The default is the shared backtracking
    /// kernel filtered by [`Self::is_candidate`], which GraphFlow and the
    /// ADS algorithms use; algorithms with their own traversal shape
    /// (NewSP's CPT/EXP, CaLiG's kernel-first order) override this —
    /// exactly the "traversal routine" of paper Fig. 5.
    ///
    /// Returns `false` iff enumeration was stopped early (deadline or sink).
    fn search(
        &self,
        ctx: &SearchCtx<'_, G>,
        emb: &mut Embedding,
        depth: usize,
        sink: &mut dyn MatchSink,
        stats: &mut SearchStats,
    ) -> bool {
        kernel::extend(ctx, &AdsCandidates(self), emb, depth, sink, stats)
    }
}

/// Boxed trait objects are algorithms too — the serving layer stores
/// heterogeneous per-session algorithms as `Box<dyn CsmAlgorithm<G>>`.
impl<G: GraphShard> CsmAlgorithm<G> for Box<dyn CsmAlgorithm<G>> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn ignore_edge_labels(&self) -> bool {
        (**self).ignore_edge_labels()
    }
    fn rebuild(&mut self, g: &G, q: &QueryGraph) {
        (**self).rebuild(g, q)
    }
    fn update_ads(&mut self, g: &G, q: &QueryGraph, e: EdgeUpdate, is_insert: bool) -> AdsChange {
        (**self).update_ads(g, q, e, is_insert)
    }
    fn is_candidate(&self, g: &G, q: &QueryGraph, u: QVertexId, v: VertexId) -> bool {
        (**self).is_candidate(g, q, u, v)
    }
    fn admits_all(&self) -> bool {
        (**self).admits_all()
    }
    fn search(
        &self,
        ctx: &SearchCtx<'_, G>,
        emb: &mut Embedding,
        depth: usize,
        sink: &mut dyn MatchSink,
        stats: &mut SearchStats,
    ) -> bool {
        (**self).search(ctx, emb, depth, sink, stats)
    }
}

/// Adapter exposing an algorithm's candidate test as a [`CandidateFilter`].
pub struct AdsCandidates<'a, A: ?Sized>(pub &'a A);

impl<G: GraphShard, A: CsmAlgorithm<G> + ?Sized> CandidateFilter<G> for AdsCandidates<'_, A> {
    #[inline]
    fn is_candidate(&self, g: &G, q: &QueryGraph, u: QVertexId, v: VertexId) -> bool {
        self.0.is_candidate(g, q, u, v)
    }

    #[inline]
    fn admits_all(&self) -> bool {
        self.0.admits_all()
    }
}

/// A factory for algorithm instances, used by harnesses that run the same
/// algorithm over many (graph, query) pairs.
pub trait AlgorithmFactory {
    /// The constructed algorithm type.
    type Algo: CsmAlgorithm;
    /// Build (offline stage) an instance for `(g, q)`.
    fn build(&self, g: &DataGraph, q: &QueryGraph) -> Self::Algo;
    /// The algorithm's display name.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ads_change_combinators() {
        use AdsChange::*;
        assert_eq!(Unchanged.or(Unchanged), Unchanged);
        assert_eq!(Unchanged.or(Changed), Changed);
        assert_eq!(Changed.or(Unchanged), Changed);
        assert_eq!(AdsChange::from_changed(true), Changed);
        assert_eq!(AdsChange::from_changed(false), Unchanged);
    }
}
