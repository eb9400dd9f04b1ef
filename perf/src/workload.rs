//! The five workloads: their frozen sizes and how their inputs are made
//! from `--seed`.
//!
//! Every stream is whole *churn passes* over a Table-5 stand-in: a sample
//! of the graph's edges is held out of the initial graph, inserted in
//! shuffled order, then deleted in a different shuffled order, `passes`
//! times. Ingest and deletion, positive and negative ΔM, are both
//! exercised, and the graph ends where it began — which is what the output
//! check relies on.
//!
//! What the seed controls, and what it does not: the dataset stand-in is a
//! fixed artefact (as the paper's datasets are), and so are each workload's
//! standing queries and its held-out edge set; the seed orders the stream
//! (every shuffle of every pass). The number of embeddings a random-walk
//! query has, and the number an edge takes part in, both vary by orders of
//! magnitude — seeding them would make `enum_amazon` measure the seed, not
//! the code. With the edge set frozen every pass does the same work in a
//! different order, so the median pass is a steady measure.

use csm_algos::AlgoKind;
use csm_datagen::{random_walk_query, DatasetKind, Scale};
use csm_graph::{DataGraph, ELabel, EdgeUpdate, QueryGraph, Update, VertexId};
use rand::prelude::*;
use std::time::Instant;

/// One workload's frozen definition. Sizes were calibrated once on the
/// seed commit (2-core host) and are literals: nothing here is tuned at
/// run time.
pub struct WorkloadSpec {
    /// Normative name (later issues cite it).
    pub name: &'static str,
    /// One-line rationale, mirrored in `BENCHMARK.json`.
    pub why: &'static str,
    pub dataset: DatasetKind,
    pub scale: Scale,
    /// Distinct standing queries as `(algorithm, query size)`.
    pub queries: &'static [(AlgoKind, usize)],
    /// Each distinct query is registered this many times (session `i`
    /// runs query `i % queries.len()`).
    pub copies: usize,
    /// Seed of the frozen query set.
    pub query_seed: u64,
    /// Edges held out of the initial graph and churned by every pass
    /// (at most the paper's 10 % of the graph), drawn with `query_seed`.
    pub sample_edges: usize,
    /// Inner-update worker threads per session.
    pub inner_threads: usize,
    /// Graph shards: 1 is the monolithic `DataGraph`, 2 the hash-sharded
    /// `ShardedGraph`.
    pub shards: usize,
    /// Saturated-phase stream length per measured second: the stream
    /// holds `sat_updates_per_s × phase seconds` updates, rounded to whole
    /// churn passes (at least one). About the seed commit's saturated
    /// throughput, so the phase lasts about as long as asked.
    pub sat_updates_per_s: u64,
    /// Open-loop send rate of the paced phase: at most half the seed
    /// commit's saturated throughput, less where service times are
    /// heavy-tailed and the median latency would otherwise track the load.
    pub rate_per_s: u64,
    /// Latency limit of the paced phase, about twice the seed's paced p99.
    pub limit_us: u64,
    /// Set-up repetitions per run (the median is reported).
    pub setup_reps: usize,
}

const GF7: (AlgoKind, usize) = (AlgoKind::GraphFlow, 7);
const GF8: (AlgoKind, usize) = (AlgoKind::GraphFlow, 8);
const GF4: (AlgoKind, usize) = (AlgoKind::GraphFlow, 4);

const ORKUT_WHY: &str = "20x20 labels make >99.9% of updates label-safe with dM~0: time goes to queue, union probe, adjacency splice, flight recorder";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "enum_amazon",
        why: "6 vertex labels send 3 of 4 updates to an engine with huge dM (~10^8 matches a run): >90% of time is Find_Matches (kernel, intersect, inner, order)",
        dataset: DatasetKind::Amazon,
        scale: Scale::M,
        queries: &[GF7; 4],
        copies: 1,
        query_seed: 8,
        sample_edges: 630,
        inner_threads: 2,
        shards: 1,
        sat_updates_per_s: 1_600,
        rate_per_s: 250,
        limit_us: 30_000,
        setup_reps: 31,
    },
    WorkloadSpec {
        name: "ingest_orkut",
        why: ORKUT_WHY,
        dataset: DatasetKind::Orkut,
        scale: Scale::M,
        queries: &[GF8; 8],
        copies: 1,
        query_seed: 0x0A17,
        sample_edges: 19_500,
        inner_threads: 1,
        shards: 1,
        sat_updates_per_s: 420_000,
        rate_per_s: 200_000,
        limit_us: 120,
        setup_reps: 31,
    },
    WorkloadSpec {
        name: "ingest_orkut_sharded",
        why: "same stream and sessions as ingest_orkut on a 2-shard graph: batched per-shard apply versus per-op splices, so a gain for one write path that costs the other shows",
        dataset: DatasetKind::Orkut,
        scale: Scale::M,
        queries: &[GF8; 8],
        copies: 1,
        query_seed: 0x0A17,
        sample_edges: 19_500,
        inner_threads: 1,
        shards: 2,
        sat_updates_per_s: 95_000,
        rate_per_s: 25_000,
        limit_us: 150,
        setup_reps: 5,
    },
    WorkloadSpec {
        name: "ads_lsbench",
        why: "one vertex label lets updates past stage 1: the one workload where classifier stages 2-3 and Symbi/TurboFlux index maintenance do real work, with moderate dM",
        dataset: DatasetKind::LSBench,
        scale: Scale::M,
        queries: &[
            (AlgoKind::Symbi, 8),
            (AlgoKind::Symbi, 9),
            (AlgoKind::Symbi, 10),
            (AlgoKind::Symbi, 8),
            (AlgoKind::TurboFlux, 9),
            (AlgoKind::TurboFlux, 10),
            (AlgoKind::TurboFlux, 8),
            (AlgoKind::TurboFlux, 9),
        ],
        copies: 1,
        query_seed: 4,
        sample_edges: 10_000,
        inner_threads: 1,
        shards: 1,
        sat_updates_per_s: 180_000,
        rate_per_s: 60_000,
        limit_us: 800,
        setup_reps: 5,
    },
    WorkloadSpec {
        name: "tenants_64",
        why: "64 sessions over 32 distinct queries (overlap 0.5): per-update cost is the shared-index probe, share-group dM reuse and the per-session fan-out loop",
        dataset: DatasetKind::LiveJournal,
        scale: Scale::S,
        queries: &[GF4; 32],
        copies: 2,
        query_seed: 2,
        sample_edges: 5_000,
        inner_threads: 1,
        shards: 1,
        sat_updates_per_s: 440_000,
        rate_per_s: 200_000,
        limit_us: 80,
        setup_reps: 31,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadSpec {
    pub fn num_sessions(&self) -> usize {
        self.queries.len() * self.copies
    }
}

/// Everything one run feeds the program: generated here, never read from
/// the program under test.
pub struct Inputs {
    /// The stand-in minus the held-out sample.
    pub initial: DataGraph,
    /// One query per session, in registration order.
    pub queries: Vec<(AlgoKind, QueryGraph)>,
    pub stream: Vec<Update>,
    /// Updates per churn pass: every held-out edge inserted, then deleted.
    pub pass_len: usize,
    pub passes: usize,
    /// FNV-1a over the initial graph's size, every query and every update:
    /// two runs with equal hashes ran identical input.
    pub stream_hash: u64,
    /// Wall time of this function (the benchmark's own cost).
    pub build_s: f64,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The frozen standing queries of a workload: random walks over the full
/// stand-in, so each has at least one embedding.
fn standing_queries(full: &DataGraph, spec: &WorkloadSpec) -> Vec<(AlgoKind, QueryGraph)> {
    let mut rng = StdRng::seed_from_u64(spec.query_seed);
    let distinct: Vec<(AlgoKind, QueryGraph)> = spec
        .queries
        .iter()
        .map(|&(algo, size)| {
            let q = random_walk_query(full, size, &mut rng)
                .expect("the stand-ins are large and connected enough for a random-walk query");
            (algo, q)
        })
        .collect();
    (0..spec.num_sessions())
        .map(|i| distinct[i % distinct.len()].clone())
        .collect()
}

/// Build the inputs of one run: `target_updates` is rounded to whole
/// churn passes, at least one.
pub fn generate(spec: &WorkloadSpec, seed: u64, target_updates: u64) -> Inputs {
    let t0 = Instant::now();
    let full = spec.dataset.generate(spec.scale);
    let queries = standing_queries(&full, spec);

    let edges: Vec<(VertexId, VertexId, ELabel)> = full.edges().collect();
    let pass_len = 2 * spec.sample_edges;
    let passes = ((target_updates as f64) / (pass_len as f64))
        .round()
        .max(1.0) as usize;

    let mut idx: Vec<usize> = (0..edges.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(spec.query_seed));
    idx.truncate(spec.sample_edges);
    // Salted by the dataset, not the workload: the sharded Orkut stream
    // is a prefix of the monolithic one.
    let mut rng = StdRng::seed_from_u64(seed ^ ((spec.dataset as u64 + 1) << 56));

    let mut initial = full;
    for &i in &idx {
        let (a, b, _) = edges[i];
        initial
            .remove_edge(a, b)
            .expect("sampled edge has live endpoints");
    }

    let mut stream = Vec::with_capacity(pass_len * passes);
    for _ in 0..passes {
        idx.shuffle(&mut rng);
        for &i in &idx {
            let (a, b, l) = edges[i];
            stream.push(Update::InsertEdge(EdgeUpdate::new(a, b, l)));
        }
        idx.shuffle(&mut rng);
        for &i in &idx {
            let (a, b, l) = edges[i];
            stream.push(Update::DeleteEdge(EdgeUpdate::new(a, b, l)));
        }
    }

    let mut h = Fnv::new();
    h.word(initial.num_vertices() as u64);
    h.word(initial.num_edges() as u64);
    for (algo, q) in &queries {
        h.word(*algo as u64);
        for u in q.vertices() {
            h.word(q.label(u).0 as u64);
        }
        for e in q.edges() {
            h.word((e.u.0 as u64) << 40 | (e.v.0 as u64) << 32 | e.label.0 as u64);
        }
    }
    for u in &stream {
        let e = u.edge().expect("churn streams hold edge updates only");
        h.word(u.is_insertion() as u64);
        h.word((e.src.0 as u64) << 32 | e.dst.0 as u64);
        h.word(e.label.0 as u64);
    }

    Inputs {
        initial,
        queries,
        stream,
        pass_len,
        passes,
        stream_hash: h.0,
        build_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_input_another_seed_another() {
        let spec = find("tenants_64").unwrap();
        let a = generate(spec, 7, 40_000);
        let b = generate(spec, 7, 40_000);
        let c = generate(spec, 8, 40_000);
        assert_eq!(a.stream_hash, b.stream_hash);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream_hash, c.stream_hash);
        // Whole passes over the same held-out edges, whatever the seed.
        assert_eq!(a.stream.len(), a.passes * a.pass_len);
        assert_eq!(a.stream.len(), c.stream.len());
        assert_eq!(a.initial.num_edges(), c.initial.num_edges());
    }

    #[test]
    fn sharded_orkut_stream_is_a_prefix_of_the_monolithic_one() {
        let mono = generate(find("ingest_orkut").unwrap(), 3, 120_000);
        let sharded = generate(find("ingest_orkut_sharded").unwrap(), 3, 40_000);
        assert!(sharded.stream.len() < mono.stream.len());
        assert_eq!(sharded.stream[..], mono.stream[..sharded.stream.len()]);
    }
}
