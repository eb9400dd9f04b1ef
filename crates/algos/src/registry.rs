//! Uniform access to the five baseline algorithms — used by the benchmark
//! harness, the examples and the integration tests to iterate "for each
//! algorithm" the way the paper's evaluation does.

use crate::{CaLiG, GraphFlow, NewSP, Symbi, TurboFlux};
use csm_graph::{DataGraph, EdgeUpdate, GraphShard, QVertexId, QueryGraph, VertexId};
use paracosm_core::kernel::{SearchCtx, SearchStats};
use paracosm_core::{AdsChange, CsmAlgorithm, Embedding, MatchSink};

/// The five CSM baselines of the paper's evaluation (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// Index-free, join-based search.
    GraphFlow,
    /// Spanning-tree DCG index.
    TurboFlux,
    /// DCS index with bidirectional DP.
    Symbi,
    /// Lighting index with kernel–shell search (edge-label blind).
    CaLiG,
    /// Stateless CPT/EXP search.
    NewSP,
}

impl AlgoKind {
    /// All five, in the paper's reporting order.
    pub const ALL: [AlgoKind; 5] = [
        AlgoKind::CaLiG,
        AlgoKind::GraphFlow,
        AlgoKind::NewSP,
        AlgoKind::Symbi,
        AlgoKind::TurboFlux,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::GraphFlow => "GraphFlow",
            AlgoKind::TurboFlux => "TurboFlux",
            AlgoKind::Symbi => "Symbi",
            AlgoKind::CaLiG => "CaLiG",
            AlgoKind::NewSP => "NewSP",
        }
    }

    /// Parse a case-insensitive name.
    pub fn parse(s: &str) -> Option<AlgoKind> {
        Self::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Build (offline stage) an instance for `(g, q)` — any
    /// [`GraphShard`] backend, monolithic or sharded.
    pub fn build<G: GraphShard>(self, g: &G, q: &QueryGraph) -> AnyAlgorithm {
        let mut a = match self {
            AlgoKind::GraphFlow => AnyAlgorithm::GraphFlow(GraphFlow::new()),
            AlgoKind::TurboFlux => AnyAlgorithm::TurboFlux(TurboFlux::new()),
            AlgoKind::Symbi => AnyAlgorithm::Symbi(Symbi::new()),
            AlgoKind::CaLiG => AnyAlgorithm::CaLiG(CaLiG::new()),
            AlgoKind::NewSP => AnyAlgorithm::NewSP(NewSP::new()),
        };
        a.rebuild(g, q);
        a
    }

    /// Does this algorithm ignore edge labels?
    pub fn ignores_edge_labels(self) -> bool {
        matches!(self, AlgoKind::CaLiG)
    }
}

impl std::fmt::Display for AlgoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Registry-driven construction for harnesses and the serving layer: an
/// [`AlgoKind`] *is* a factory for its baseline.
impl paracosm_core::AlgorithmFactory for AlgoKind {
    type Algo = AnyAlgorithm;

    fn build(&self, g: &DataGraph, q: &QueryGraph) -> AnyAlgorithm {
        AlgoKind::build(*self, g, q)
    }

    fn name(&self) -> &'static str {
        AlgoKind::name(*self)
    }
}

/// A type-erased baseline instance: `ParaCosm<AnyAlgorithm>` lets harnesses
/// loop over algorithms without generics at every call site.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub enum AnyAlgorithm {
    GraphFlow(GraphFlow),
    TurboFlux(TurboFlux),
    Symbi(Symbi),
    CaLiG(CaLiG),
    NewSP(NewSP),
}

macro_rules! dispatch {
    ($self:expr, $a:ident => $body:expr) => {
        match $self {
            AnyAlgorithm::GraphFlow($a) => $body,
            AnyAlgorithm::TurboFlux($a) => $body,
            AnyAlgorithm::Symbi($a) => $body,
            AnyAlgorithm::CaLiG($a) => $body,
            AnyAlgorithm::NewSP($a) => $body,
        }
    };
}

impl<G: GraphShard> CsmAlgorithm<G> for AnyAlgorithm {
    fn name(&self) -> &'static str {
        dispatch!(self, a => CsmAlgorithm::<G>::name(a))
    }

    fn ignore_edge_labels(&self) -> bool {
        dispatch!(self, a => CsmAlgorithm::<G>::ignore_edge_labels(a))
    }

    fn admits_all(&self) -> bool {
        dispatch!(self, a => CsmAlgorithm::<G>::admits_all(a))
    }

    fn rebuild(&mut self, g: &G, q: &QueryGraph) {
        dispatch!(self, a => a.rebuild(g, q))
    }

    fn update_ads(&mut self, g: &G, q: &QueryGraph, e: EdgeUpdate, ins: bool) -> AdsChange {
        dispatch!(self, a => a.update_ads(g, q, e, ins))
    }

    fn is_candidate(&self, g: &G, q: &QueryGraph, u: QVertexId, v: VertexId) -> bool {
        dispatch!(self, a => a.is_candidate(g, q, u, v))
    }

    fn search(
        &self,
        ctx: &SearchCtx<'_, G>,
        emb: &mut Embedding,
        depth: usize,
        sink: &mut dyn MatchSink,
        stats: &mut SearchStats,
    ) -> bool {
        dispatch!(self, a => a.search(ctx, emb, depth, sink, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for k in AlgoKind::ALL {
            assert_eq!(AlgoKind::parse(k.name()), Some(k));
            assert_eq!(AlgoKind::parse(&k.name().to_lowercase()), Some(k));
        }
        assert_eq!(AlgoKind::parse("nope"), None);
    }

    #[test]
    fn build_produces_matching_variant() {
        let g = DataGraph::new();
        let mut q = QueryGraph::new();
        let a = q.add_vertex(csm_graph::VLabel(0));
        let b = q.add_vertex(csm_graph::VLabel(0));
        q.add_edge(a, b, csm_graph::ELabel(0)).unwrap();
        for k in AlgoKind::ALL {
            let alg = k.build(&g, &q);
            let alg = &alg as &dyn CsmAlgorithm<DataGraph>;
            assert_eq!(alg.name(), k.name());
            assert_eq!(alg.ignore_edge_labels(), k.ignores_edge_labels());
        }
    }
}
