//! **NewSP** (Li et al., ICDE '24) — a new search process decoupling
//! compatible-set computation (CPT) from expansion (EXP).
//!
//! NewSP maintains no auxiliary structure (`O(1)` index update, paper
//! Table 1); its contribution is the traversal shape. We reproduce the two
//! signature mechanisms:
//!
//! * **CPT** — compatible sets are computed along the matching order with
//!   DFS-style pruning *before* expanding: at each node the candidate set
//!   of the next query vertex is materialized, and a one-step lookahead
//!   verifies that the following query vertex still has a non-empty
//!   compatible set under each tentative assignment — empty-lookahead
//!   branches are cut without being expanded;
//! * **EXP** — expansion of the final order position is deferred: the last
//!   query vertex's compatible set is streamed straight into the sink with
//!   no recursive call (avoiding the premature Cartesian expansion the
//!   paper's §2.2 discussion attributes to NewSP).
//!
//! Candidate filtering additionally applies the neighborhood-label-
//! frequency profile — computed on the fly from the live graph, so NewSP
//! stays stateless and its `update_ads` is a true no-op.

use crate::common::NlfProfile;
use csm_graph::{EdgeUpdate, GraphShard, QVertexId, QueryGraph, VertexId};
use paracosm_core::kernel::{self, CandidateFilter, SearchCtx, SearchStats};
use paracosm_core::{AdsChange, CsmAlgorithm, Embedding, MatchSink};

/// The NewSP algorithm. Holds only the per-query NLF profiles (pure
/// functions of `Q`, not graph state — rebuilding is cheap and updates are
/// no-ops).
#[derive(Clone, Debug, Default)]
pub struct NewSP {
    profiles: Vec<NlfProfile>,
}

impl NewSP {
    /// Fresh, un-built instance (the framework calls `rebuild`).
    pub fn new() -> Self {
        Self::default()
    }
}

struct NlfFilter<'a>(&'a [NlfProfile]);

impl<G: GraphShard> CandidateFilter<G> for NlfFilter<'_> {
    #[inline]
    fn is_candidate(&self, g: &G, _: &QueryGraph, u: QVertexId, v: VertexId) -> bool {
        self.0[u.index()].feasible(g, v)
    }
}

impl NewSP {
    /// CPT/EXP recursion. Invariant: `depth < n`.
    fn cpt_exp<G: GraphShard>(
        &self,
        ctx: &SearchCtx<'_, G>,
        emb: &mut Embedding,
        depth: usize,
        sink: &mut dyn MatchSink,
        stats: &mut SearchStats,
    ) -> bool {
        if !stats.tick(ctx.deadline, depth) {
            return false;
        }
        let n = ctx.order.len();
        let u = ctx.order.order[depth];
        let filter = NlfFilter(&self.profiles);

        // EXP deferral: the last compatible set goes straight to the sink.
        if depth + 1 == n {
            return kernel::finish_last_level(ctx, &filter, emb, depth, sink);
        }

        // CPT: materialize the compatible set for this position.
        let mut compat: Vec<VertexId> = Vec::new();
        kernel::for_each_candidate(ctx, &filter, *emb, depth, |v| {
            compat.push(v);
            true
        });
        if compat.is_empty() {
            return true;
        }

        for v in compat {
            emb.set(u, v);
            // One-step lookahead: the next position must still be
            // satisfiable under this assignment, otherwise cut the branch
            // before expanding it.
            let mut feasible = false;
            kernel::for_each_candidate(ctx, &filter, *emb, depth + 1, |_| {
                feasible = true;
                false
            });
            let keep = if feasible {
                self.cpt_exp(ctx, emb, depth + 1, sink, stats)
            } else {
                true
            };
            emb.unset(u);
            if !keep {
                return false;
            }
        }
        true
    }
}

impl<G: GraphShard> CsmAlgorithm<G> for NewSP {
    fn name(&self) -> &'static str {
        "NewSP"
    }

    fn rebuild(&mut self, _: &G, q: &QueryGraph) {
        self.profiles = q.vertices().map(|u| NlfProfile::of(q, u, false)).collect();
    }

    fn update_ads(&mut self, _: &G, _: &QueryGraph, _: EdgeUpdate, _: bool) -> AdsChange {
        AdsChange::Unchanged
    }

    fn is_candidate(&self, g: &G, _: &QueryGraph, u: QVertexId, v: VertexId) -> bool {
        self.profiles[u.index()].feasible(g, v)
    }

    fn search(
        &self,
        ctx: &SearchCtx<'_, G>,
        emb: &mut Embedding,
        depth: usize,
        sink: &mut dyn MatchSink,
        stats: &mut SearchStats,
    ) -> bool {
        let n = ctx.order.len();
        if depth >= n {
            return sink.report(emb, n);
        }
        self.cpt_exp(ctx, emb, depth, sink, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_graph::{DataGraph, ELabel, VLabel};
    use paracosm_core::order::SeedOrder;
    use paracosm_core::{static_match, BufferSink};
    use rand::prelude::*;

    fn random_graph(seed: u64, n: u32, edges: usize, labels: u32) -> DataGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DataGraph::new();
        for i in 0..n {
            g.add_vertex(VLabel(i % labels));
        }
        let mut added = 0;
        while added < edges {
            let a = VertexId(rng.gen_range(0..n));
            let b = VertexId(rng.gen_range(0..n));
            if a != b && g.insert_edge(a, b, ELabel(rng.gen_range(0..2))).unwrap() {
                added += 1;
            }
        }
        g
    }

    fn diamond_query() -> QueryGraph {
        let mut q = QueryGraph::new();
        let v: Vec<_> = (0..4).map(|i| q.add_vertex(VLabel(i % 2))).collect();
        q.add_edge(v[0], v[1], ELabel(0)).unwrap();
        q.add_edge(v[1], v[2], ELabel(0)).unwrap();
        q.add_edge(v[2], v[3], ELabel(0)).unwrap();
        q.add_edge(v[3], v[0], ELabel(0)).unwrap();
        q
    }

    fn newsp_count(g: &DataGraph, q: &QueryGraph) -> u64 {
        let mut alg = NewSP::new();
        alg.rebuild(g, q);
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
        alg.search(&ctx, &mut Embedding::empty(), 0, &mut sink, &mut stats);
        sink.count
    }

    #[test]
    fn cpt_exp_matches_oracle_on_random_graphs() {
        let q = diamond_query();
        for seed in 0..6 {
            let g = random_graph(seed, 16, 44, 2);
            assert_eq!(
                newsp_count(&g, &q),
                static_match::count_all(&g, &q),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn nlf_filter_is_sound_not_lossy() {
        // A graph engineered so the NLF profile prunes: u1 needs two L0
        // neighbors; data vertices with only one must be skipped without
        // losing the genuine match.
        let mut q = QueryGraph::new();
        let a = q.add_vertex(VLabel(0));
        let b = q.add_vertex(VLabel(1));
        let c = q.add_vertex(VLabel(0));
        q.add_edge(a, b, ELabel(0)).unwrap();
        q.add_edge(b, c, ELabel(0)).unwrap();
        let mut g = DataGraph::new();
        let x = g.add_vertex(VLabel(0));
        let y = g.add_vertex(VLabel(1)); // hub with two L0 neighbors
        let z = g.add_vertex(VLabel(0));
        let y2 = g.add_vertex(VLabel(1)); // decoy with one L0 neighbor
        g.insert_edge(x, y, ELabel(0)).unwrap();
        g.insert_edge(y, z, ELabel(0)).unwrap();
        g.insert_edge(y2, z, ELabel(0)).unwrap();
        assert_eq!(newsp_count(&g, &q), static_match::count_all(&g, &q));
        assert_eq!(newsp_count(&g, &q), 2); // (x,y,z) and (z,y,x)
    }

    #[test]
    fn stateless_update_ads() {
        let mut alg = NewSP::new();
        let q = diamond_query();
        let g = random_graph(1, 8, 10, 2);
        alg.rebuild(&g, &q);
        let e = EdgeUpdate::new(VertexId(0), VertexId(1), ELabel(0));
        assert_eq!(alg.update_ads(&g, &q, e, true), AdsChange::Unchanged);
        assert_eq!(alg.update_ads(&g, &q, e, false), AdsChange::Unchanged);
    }

    #[test]
    fn sink_stop_propagates_through_cpt() {
        let q = diamond_query();
        let g = random_graph(3, 20, 80, 2);
        let mut alg = NewSP::new();
        alg.rebuild(&g, &q);
        let order = SeedOrder::build(&q, &[QVertexId(0)]);
        let ctx = SearchCtx {
            g: &g,
            q: &q,
            order: &order,
            ignore_elabels: false,
            deadline: None,
            profile: None,
        };
        let mut sink = BufferSink::counting().with_cap(Some(2));
        let mut stats = SearchStats::default();
        let finished = alg.search(&ctx, &mut Embedding::empty(), 0, &mut sink, &mut stats);
        assert!(!finished);
        assert_eq!(sink.count, 2);
    }
}
