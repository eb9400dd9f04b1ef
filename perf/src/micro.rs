//! Two micro-cells the replay cannot resolve: each times one public
//! function over inputs sampled from the workload's own graph.

use crate::metrics::median;
use csm_graph::intersect::intersect_foreach_counted;
use csm_graph::{DataGraph, ELabel, VertexId};
use paracosm_core::{FlightConfig, FlightRecorder, FlightStage, SpanId};
use rand::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 7;
const INTERSECT_TUPLES: usize = 16_384;
const FLIGHT_PAIRS: u64 = 1 << 20;

pub struct IntersectCell {
    pub ns_per_call: f64,
    /// Gallop steps per emitted candidate: the wasted-work ratio.
    pub steps_per_output: f64,
}

/// `csm_graph::intersect` as the kernel drives it: the label-exact
/// neighbour slices of an edge's two endpoints, for the label group of a
/// random neighbour — the candidate set of a query vertex adjacent to
/// both. Median over [`REPS`] passes of the same tuples.
pub fn intersect(g: &DataGraph, seed: u64) -> IntersectCell {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(VertexId, VertexId, ELabel)> = g.edges().collect();
    let tuples: Vec<[&[(VertexId, ELabel)]; 2]> = (0..INTERSECT_TUPLES)
        .map(|_| {
            let (a, b, _) = edges[rng.gen_range(0..edges.len())];
            let nbrs = g.neighbors(a);
            let (c, el) = nbrs[rng.gen_range(0..nbrs.len())];
            let vl = g.label(c);
            [g.neighbors_with(a, vl, el), g.neighbors_with(b, vl, el)]
        })
        .collect();
    let mut per_call = Vec::with_capacity(REPS);
    let (mut steps, mut outputs) = (0u64, 0u64);
    for _ in 0..REPS {
        (steps, outputs) = (0, 0);
        let t = Instant::now();
        for slices in &tuples {
            intersect_foreach_counted(black_box(slices), &mut steps, |v| {
                outputs += 1;
                black_box(v);
                true
            });
        }
        per_call.push(t.elapsed().as_nanos() as f64 / tuples.len() as f64);
    }
    IntersectCell {
        ns_per_call: median(&per_call),
        steps_per_output: steps as f64 / outputs.max(1) as f64,
    }
}

/// Nanoseconds per `FlightRecorder::begin` + `end` pair on the service
/// shard, at the service's ring capacity.
pub fn flight_record_ns(capacity: usize) -> f64 {
    let rec = FlightRecorder::new(FlightConfig::with_capacity(capacity));
    let per_pair: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..FLIGHT_PAIRS {
                let span = SpanId(i + 1);
                rec.begin(0, span, FlightStage::Apply, i);
                rec.end(0, span, FlightStage::Apply, i);
            }
            t.elapsed().as_nanos() as f64 / FLIGHT_PAIRS as f64
        })
        .collect();
    black_box(rec.snapshot().len());
    median(&per_pair)
}
