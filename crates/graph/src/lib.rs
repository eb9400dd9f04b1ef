//! # csm-graph — dynamic labeled graph substrate for continuous subgraph matching
//!
//! This crate provides the graph model underlying the ParaCOSM reproduction:
//!
//! * [`Graph`] — the evolving labeled data graph `G`, tuned for the CSM
//!   access pattern (read-heavy sorted adjacency, `O(log d)` edge probes,
//!   lock-free shared reads during search, parallel bulk application of
//!   update batches), as the monolithic [`DataGraph`] or the partitioned
//!   [`ShardedGraph`] — one implementation, two [`Route`]s;
//! * [`QueryGraph`] — the small immutable query pattern `Q` with `O(1)`
//!   adjacency tests and the label-triple *seed* enumeration that drives both
//!   incremental matching and the safe-update classifier;
//! * [`Update`]/[`UpdateStream`] — the update stream `ΔG`;
//! * [`io`] — readers/writers for the standard CSM benchmark text formats;
//! * [`GraphStats`] — the Table-5 dataset summary.
//!
//! Matching semantics follow the paper (and the CSM literature): non-induced
//! subgraph isomorphism with vertex- and edge-label equality on simple
//! undirected graphs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod graph;
pub mod ids;
pub mod intersect;
pub mod io;
pub mod par;
pub mod query;
pub mod shard;
pub mod stats;
pub mod update;

pub use error::{GraphError, Result};
pub use graph::{DataGraph, Graph, Mono, Route};
pub use ids::{ELabel, QVertexId, VLabel, VertexId};
pub use query::{EdgePatternKey, QEdge, QueryGraph, TwoPathKey, MAX_QUERY_VERTICES};
pub use shard::{GraphShard, Partition, ShardConfig, ShardStats, ShardedGraph};
pub use stats::GraphStats;
pub use update::{EdgeUpdate, Update, UpdateStream};
