//! # paracosm — facade crate for the ParaCOSM reproduction
//!
//! Re-exports the subsystem crates under one roof:
//!
//! * [`graph`] — dynamic labeled graphs, query graphs, update streams, IO;
//! * [`core`] — the ParaCOSM framework (inner-/inter-update executors,
//!   matching kernel, `CsmAlgorithm` plug-in trait);
//! * [`algos`] — the five CSM baselines (GraphFlow, TurboFlux, Symbi,
//!   CaLiG, NewSP);
//! * [`datagen`] — synthetic datasets, query extraction, update streams;
//! * [`service`] — the multi-session serving layer (standing queries over
//!   one shared graph, bounded admission, per-session reports).
//!
//! Most programs only need [`prelude`] — the blessed, stable API surface.
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/multi_tenant.rs` for the serving layer, and the
//! `paracosm-bench` crate for the full paper-evaluation harness.

#![forbid(unsafe_code)]

pub use csm_algos as algos;
pub use csm_datagen as datagen;
pub use csm_graph as graph;
pub use csm_service as service;
pub use paracosm_core as core;

/// The blessed API surface in one import: everything the examples, the
/// CLI, and downstream embedders need, without reaching into deep module
/// paths.
///
/// One-query streaming ([`ParaCosm`](paracosm_core::ParaCosm)):
///
/// ```
/// use paracosm::prelude::*;
///
/// // Data: path v0-v1-v2; query: triangle; one insert closes it.
/// let mut g = DataGraph::new();
/// let v: Vec<_> = (0..3).map(|_| g.add_vertex(VLabel(0))).collect();
/// g.insert_edge(v[0], v[1], ELabel(0)).unwrap();
/// g.insert_edge(v[1], v[2], ELabel(0)).unwrap();
/// let mut q = QueryGraph::new();
/// let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
/// q.add_edge(u[0], u[1], ELabel(0)).unwrap();
/// q.add_edge(u[1], u[2], ELabel(0)).unwrap();
/// q.add_edge(u[0], u[2], ELabel(0)).unwrap();
///
/// let algo = AlgoKind::GraphFlow.build(&g, &q);
/// let mut engine = ParaCosm::new(g, q, algo, ParaCosmConfig::sequential());
/// let stream: UpdateStream =
///     [Update::InsertEdge(EdgeUpdate::new(v[0], v[2], ELabel(0)))].into_iter().collect();
/// let out = engine.process_stream(&stream).unwrap();
/// assert_eq!(out.positives, 6); // one triangle × 6 automorphic mappings
/// ```
///
/// Many standing queries over one graph ([`CsmService`](csm_service::CsmService)):
///
/// ```
/// use paracosm::prelude::*;
///
/// let mut g = DataGraph::new();
/// let v: Vec<_> = (0..3).map(|_| g.add_vertex(VLabel(0))).collect();
/// g.insert_edge(v[0], v[1], ELabel(0)).unwrap();
/// let mut q = QueryGraph::new();
/// let a = q.add_vertex(VLabel(0));
/// let b = q.add_vertex(VLabel(0));
/// q.add_edge(a, b, ELabel(0)).unwrap();
///
/// let mut svc = CsmService::new(g, ServiceConfig::default()).unwrap();
/// let algo = Box::new(GraphFlow::new());
/// let spec = SessionSpec::new(q, ParaCosmConfig::sequential()).with_label("edges");
/// svc.add_session(spec, algo, Box::new(NoopObserver)).unwrap();
///
/// svc.submit(Update::InsertEdge(EdgeUpdate::new(v[1], v[2], ELabel(0)))).unwrap();
/// svc.drain().unwrap();
/// let report = svc.shutdown().unwrap();
/// assert_eq!(report.sessions[0].stats.positives, 2); // one edge, both orientations
/// ```
pub mod prelude {
    pub use csm_algos::{AlgoKind, AnyAlgorithm, CaLiG, GraphFlow, NewSP, Symbi, TurboFlux};
    pub use csm_datagen::{synth, DatasetKind, Scale, StreamConfig, SynthConfig, WorkloadConfig};
    pub use csm_graph::{
        io, DataGraph, ELabel, EdgeUpdate, GraphShard, Partition, QVertexId, QueryGraph,
        ShardConfig, ShardStats, ShardedGraph, Update, UpdateStream, VLabel, VertexId,
    };
    pub use csm_service::{
        AdmissionQueue, Backpressure, CsmService, DegradeLevel, IngestHandle, ServiceConfig,
        ServiceReport, SessionSpec, SharedIndexStats, StallDiagnostic, StallDossier, StallKind,
        TelemetryConfig, TelemetryHandle,
    };
    pub use paracosm_core::{
        AdsChange, AlgorithmFactory, Classified, CsmAlgorithm, CsmError, CsmResult, Embedding,
        Engine, FanKind, FlightConfig, FlightEvent, FlightRecorder, FlightSnapshot, FlightStage,
        LatencyHistogram, Match, MatchSink, NoopObserver, ParaCosm, ParaCosmConfig, ProfileLevel,
        Profiler, QueryProfile, RunReport, RunStats, SearchCtx, SearchStats, SessionDims, SpanId,
        StreamObserver, StreamOutcome, TraceLevel, UpdateObservation, UpdateOutcome, WindowConfig,
        WindowRing, WindowSnapshot, SESSION_AGGREGATE,
    };

    /// The facade's datagen crate under its blessed name (dataset loading
    /// helpers beyond the items re-exported above).
    pub use csm_datagen as datagen;
}
