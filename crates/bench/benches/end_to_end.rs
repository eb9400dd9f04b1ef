//! End-to-end benchmark: per-update stream processing latency for every
//! algorithm, sequential vs full ParaCOSM (the wall-clock view of the
//! paper's Fig. 7 comparison at this host's scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csm_algos::AlgoKind;
use csm_datagen::{DatasetKind, Scale, WorkloadConfig};
use paracosm_core::{ParaCosm, ParaCosmConfig};

fn workload() -> csm_datagen::Workload {
    let mut cfg = WorkloadConfig::paper_cell(DatasetKind::LiveJournal, Scale::Xs, 5);
    cfg.n_queries = 1;
    cfg.max_stream_len = 120;
    csm_datagen::build_workload(&cfg)
}

fn bench_sequential(c: &mut Criterion) {
    let w = workload();
    let q = &w.queries[0];
    let mut group = c.benchmark_group("stream_sequential");
    group.sample_size(10);
    for kind in AlgoKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let algo = kind.build(&w.initial, q);
                    let mut e = ParaCosm::new(
                        w.initial.clone(),
                        q.clone(),
                        algo,
                        ParaCosmConfig::sequential(),
                    );
                    e.process_stream(&w.stream).unwrap().positives
                })
            },
        );
    }
    group.finish();
}

fn bench_paracosm(c: &mut Criterion) {
    let w = workload();
    let q = &w.queries[0];
    let mut group = c.benchmark_group("stream_paracosm");
    group.sample_size(10);
    for kind in AlgoKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let algo = kind.build(&w.initial, q);
                    let mut e = ParaCosm::new(
                        w.initial.clone(),
                        q.clone(),
                        algo,
                        ParaCosmConfig::parallel(2).with_batch_size(256),
                    );
                    e.process_stream(&w.stream).unwrap().positives
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sequential, bench_paracosm);
criterion_main!(benches);
