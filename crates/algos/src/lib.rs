//! # csm-algos — the five CSM baselines hosted by ParaCOSM
//!
//! Clean-room Rust implementations of the single-threaded continuous
//! subgraph matching algorithms the ParaCOSM paper parallelizes (its
//! evaluation, §5, runs all five):
//!
//! | Algorithm | ADS | Index update | Search |
//! |-----------|-----|--------------|--------|
//! | [`GraphFlow`] | none | `O(1)` | WCO intersections (kernel backtracking) |
//! | [`TurboFlux`] | DCG (spanning-tree states) | `O(\|E(G)\|·\|V(Q)\|)` | backtracking |
//! | [`Symbi`] | DCS (bidirectional DP) | `O(\|E(G)\|·\|E(Q)\|)` | backtracking |
//! | [`CaLiG`] | lighting (1-hop NLF) | `O(d)` relighting | kernel–shell |
//! | [`NewSP`] | none | `O(1)` | CPT/EXP decoupled |
//!
//! Every implementation plugs into `paracosm_core::CsmAlgorithm` and obeys
//! the framework's soundness contract (candidates are supersets; ADS change
//! reports are exact; index states are label-gated). All five therefore
//! produce identical incremental results — a property the workspace's
//! differential tests ([`testing`]) enforce against a brute-force oracle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calig;
pub mod common;
pub mod graphflow;
pub mod newsp;
pub mod registry;
pub mod symbi;
pub mod testing;
pub mod turboflux;

pub use calig::CaLiG;
pub use graphflow::GraphFlow;
pub use newsp::NewSP;
pub use registry::{AlgoKind, AnyAlgorithm};
pub use symbi::Symbi;
pub use turboflux::TurboFlux;

#[cfg(test)]
mod cross_tests {
    use super::testing;
    use super::AlgoKind;
    use paracosm_core::ParaCosmConfig;

    /// Every algorithm, sequentially, against the oracle on a mixed stream.
    #[test]
    fn all_algorithms_match_oracle_sequential() {
        let (g, stream) = testing::random_workload(1, 30, 3, 2, 60, 40, 0.3);
        let q = testing::random_walk_query(&g, 2, 4).expect("query");
        for kind in AlgoKind::ALL {
            testing::check_stream(&g, &q, &stream, kind, ParaCosmConfig::sequential());
        }
    }

    /// Same workload with the parallel inner executor.
    #[test]
    fn all_algorithms_match_oracle_parallel_inner() {
        let (g, stream) = testing::random_workload(3, 30, 3, 2, 60, 30, 0.25);
        let q = testing::random_walk_query(&g, 5, 4).expect("query");
        let mut cfg = ParaCosmConfig::parallel(4);
        cfg.inter_update = false; // exercised per-update here
        for kind in AlgoKind::ALL {
            testing::check_stream(&g, &q, &stream, kind, cfg.clone());
        }
    }

    /// Full two-level parallelism through process_stream (batch executor).
    #[test]
    fn all_algorithms_match_oracle_batch_executor() {
        let (g, stream) = testing::random_workload(7, 40, 4, 2, 80, 60, 0.3);
        let q = testing::random_walk_query(&g, 11, 4).expect("query");
        let cfg = ParaCosmConfig::parallel(4).with_batch_size(8);
        for kind in AlgoKind::ALL {
            testing::check_stream_totals(&g, &q, &stream, kind, cfg.clone());
        }
    }
}
