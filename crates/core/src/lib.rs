//! # paracosm-core — the ParaCOSM parallel CSM framework
//!
//! A from-scratch Rust implementation of *ParaCOSM: A Parallel Framework for
//! Continuous Subgraph Matching* (ICPP '25). The framework hosts any CSM
//! algorithm that fits the general two-stage model (maintain an auxiliary
//! data structure, then enumerate incremental matches) and parallelizes it
//! on two levels:
//!
//! * **inner-update parallelism** ([`inner`]) — fine-grained decomposition
//!   of each update's search tree onto a work-stealing pool with adaptive
//!   task donation (paper §4.1, Algorithm 2);
//! * **inter-update parallelism** ([`inter`], [`ParaCosm::process_stream`])
//!   — a three-stage safe-update classifier plus a batch executor that
//!   applies safe updates in parallel and defers everything after the first
//!   unsafe update in a batch (paper §4.2, Fig. 6).
//!
//! Algorithms plug in through the [`CsmAlgorithm`] trait (the paper's "two
//! user functions": a traversal routine and a filtering rule); the five
//! baselines of the paper's evaluation live in the `csm-algos` crate.
//!
//! ```
//! use csm_graph::{DataGraph, QueryGraph, VLabel, ELabel, EdgeUpdate, Update};
//! use paracosm_core::{ParaCosm, ParaCosmConfig, CsmAlgorithm, AdsChange};
//! # use csm_graph::{QVertexId, VertexId};
//!
//! // A minimal index-free algorithm (GraphFlow-style).
//! struct Direct;
//! impl CsmAlgorithm for Direct {
//!     fn name(&self) -> &'static str { "direct" }
//!     fn rebuild(&mut self, _: &DataGraph, _: &QueryGraph) {}
//!     fn update_ads(&mut self, _: &DataGraph, _: &QueryGraph, _: EdgeUpdate, _: bool)
//!         -> AdsChange { AdsChange::Unchanged }
//!     fn is_candidate(&self, _: &DataGraph, _: &QueryGraph, _: QVertexId, _: VertexId)
//!         -> bool { true }
//! }
//!
//! // Data: path v0-v1; query: triangle; inserting v0-v2 and v1-v2 closes it.
//! let mut g = DataGraph::new();
//! let v: Vec<_> = (0..3).map(|_| g.add_vertex(VLabel(0))).collect();
//! g.insert_edge(v[0], v[1], ELabel(0)).unwrap();
//! let mut q = QueryGraph::new();
//! let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
//! q.add_edge(u[0], u[1], ELabel(0)).unwrap();
//! q.add_edge(u[1], u[2], ELabel(0)).unwrap();
//! q.add_edge(u[0], u[2], ELabel(0)).unwrap();
//!
//! let mut engine = ParaCosm::new(g, q, Direct, ParaCosmConfig::parallel(2));
//! let r1 = engine
//!     .process_update(Update::InsertEdge(EdgeUpdate::new(v[0], v[2], ELabel(0))))
//!     .unwrap();
//! assert_eq!(r1.positives, 0); // no triangle yet
//! let r2 = engine
//!     .process_update(Update::InsertEdge(EdgeUpdate::new(v[1], v[2], ELabel(0))))
//!     .unwrap();
//! assert_eq!(r2.positives, 6); // one triangle × 6 automorphic mappings
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, deny(deprecated))]

pub mod algorithm;
pub mod config;
pub mod embedding;
pub mod engine;
pub mod error;
pub mod framework;
pub mod inner;
pub mod inter;
pub mod kernel;
pub mod metrics;
pub mod model;
pub mod order;
pub mod static_match;
pub mod trace;

pub use algorithm::{AdsCandidates, AdsChange, AlgorithmFactory, CsmAlgorithm};
pub use config::ParaCosmConfig;
pub use embedding::{BufferSink, Embedding, Match, MatchSink, MAX_PATTERN_VERTICES};
pub use engine::{Engine, FindOutcome, RunStats, SlowUpdate, StageSnapshot};
pub use error::{CsmError, CsmResult};
pub use framework::{ParaCosm, StreamOutcome, UpdateOutcome};
pub use inner::{InnerConfig, InnerOutcome, SeedTask, SimOutcome};
pub use inter::{Classified, ClassifierStats, ProbeMemo, SafeStage};
pub use kernel::{CandidateFilter, NoFilter, SearchCtx, SearchStats};
pub use metrics::LatencyHistogram;
pub use order::{MatchingOrders, SeedOrder};
pub use static_match::StaticResult;
pub use trace::flight::cold::{FlightConfig, FlightEvent, FlightSnapshot};
pub use trace::flight::{FanKind, FlightRecorder, FlightStage, SpanId, SESSION_AGGREGATE};
pub use trace::profile::cold::{DepthProfile, OrderProfile, QueryProfile};
pub use trace::profile::{
    profile_counter_from_index, BackwardMeta, ProfileCounter, ProfileLevel, Profiler,
    NUM_PROFILE_COUNTERS, PROFILE_COUNTER_NAMES,
};
pub use trace::window::{
    SharedWindow, WindowConfig, WindowCounter, WindowRing, WindowSnapshot, NUM_WINDOW_COUNTERS,
    WINDOW_COUNTER_NAMES,
};
pub use trace::{
    json_escape, Counter, MetricsRegistry, MetricsSnapshot, NoopObserver, RunReport, SessionDims,
    StreamObserver, TraceLevel, Tracer, UpdateObservation,
};
