//! Model-checking tests: only meaningful when the sync facade is in
//! scheduler mode, i.e. built with `RUSTFLAGS="--cfg paracosm_check"`.
//! (Without the cfg this file compiles to nothing.)
//!
//! Replay a failure with `PARACOSM_CHECK_SEED=<seed>`; shrink or extend the
//! sweep with `PARACOSM_CHECK_ITERS=<n>`.
#![cfg(paracosm_check)]

use csm_check::protocol::{run, ProtocolCfg, TaskForest};
use csm_check::sched;
use paracosm_core::trace::{Counter, TraceLevel, Tracer};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn fixed_cfg() -> ProtocolCfg {
    ProtocolCfg::new(2, TaskForest::small())
}

/// Lazy helper admission on the `chain` forest: worker 0 starts alone and
/// registers, then spawns, its peer after 0, 1 and 3 executed tasks.
fn lazy_cfgs(forest: TaskForest) -> impl Iterator<Item = ProtocolCfg> {
    [0, 1, 3].into_iter().map(move |k| {
        let mut cfg = ProtocolCfg::new(2, forest.clone());
        cfg.lazy_after = Some(k);
        cfg
    })
}

fn iters() -> u64 {
    std::env::var("PARACOSM_CHECK_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000)
}

/// The acceptance-criteria sweep: ≥ 1000 seeded schedules of the
/// inner-executor protocol, asserting exactly-once delivery and quiescence
/// under every one, and checking the schedules really are distinct
/// interleavings rather than 1000 replays of the same order.
#[test]
fn executor_protocol_exactly_once_and_quiescent_over_1000_schedules() {
    let cfg = fixed_cfg();
    let expected = cfg.forest.total();
    let mut distinct = HashSet::new();
    let seeds = iters();
    for seed in 0..seeds {
        let info = sched::model(seed, || {
            let out = run(&cfg);
            assert!(
                out.delivered.iter().all(|&d| d == 1),
                "lost or double delivery: {out:?}"
            );
            assert_eq!(out.executed, expected, "tasks lost: {out:?}");
            assert_eq!(
                out.quiescence_violations, 0,
                "a worker exited while tasks remained"
            );
        })
        .unwrap_or_else(|f| panic!("{f}"));
        let mut h = DefaultHasher::new();
        info.schedule.hash(&mut h);
        distinct.insert(h.finish());
    }
    // With ~hundreds of random scheduling choices per run, collisions
    // should be rare; a low distinct count would mean the seeding is
    // broken and the sweep is exploring far less than it claims.
    assert!(
        distinct.len() as u64 >= seeds * 9 / 10,
        "only {} distinct schedules out of {seeds}",
        distinct.len()
    );
}

/// Lazy helper admission: worker 0 runs alone with `active = 1` and
/// registers its peer *before* spawning it. Under ≥ 1000 seeded schedules
/// for each k, every task is delivered exactly once, no worker exits while
/// work remains, and the helper really ran.
#[test]
fn lazy_admission_exactly_once_and_quiescent_over_1000_schedules() {
    for cfg in lazy_cfgs(TaskForest::chain()) {
        let (k, expected) = (cfg.lazy_after, cfg.forest.total());
        for seed in 0..iters() {
            sched::model(seed, || {
                let out = run(&cfg);
                assert!(
                    out.delivered.iter().all(|&d| d == 1),
                    "k={k:?}: lost or double delivery: {out:?}"
                );
                assert_eq!(out.executed, expected, "k={k:?}: tasks lost: {out:?}");
                assert_eq!(
                    out.quiescence_violations, 0,
                    "k={k:?}: a worker exited while tasks remained"
                );
                assert_eq!(out.workers_run, 2, "k={k:?}: helper never admitted");
            })
            .unwrap_or_else(|f| panic!("{f}"));
        }
    }
}

/// The injector shim itself: concurrent stealers (plus a racing producer)
/// deliver every task exactly once under every explored schedule.
#[test]
fn injector_delivers_exactly_once_under_model() {
    sched::explore(300, || {
        let inj = Arc::new(crossbeam_deque::Injector::new());
        for i in 0..4usize {
            inj.push(i);
        }
        let stealer = |inj: Arc<crossbeam_deque::Injector<usize>>| {
            sched::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match inj.steal() {
                        crossbeam_deque::Steal::Success(t) => got.push(t),
                        crossbeam_deque::Steal::Retry => sched::yield_point(),
                        crossbeam_deque::Steal::Empty => break,
                    }
                }
                got
            })
        };
        let producer = {
            let inj = Arc::clone(&inj);
            sched::spawn(move || {
                for i in 4..6usize {
                    inj.push(i);
                }
            })
        };
        let a = stealer(Arc::clone(&inj));
        let b = stealer(Arc::clone(&inj));
        let mut got = sched::join(a).unwrap();
        got.extend(sched::join(b).unwrap());
        sched::join(producer).unwrap();
        // Stealers may quit on Empty before the producer's late pushes;
        // whatever remains must still be there exactly once.
        while let crossbeam_deque::Steal::Success(t) = inj.steal() {
            got.push(t);
        }
        got.sort_unstable();
        assert_eq!(got, (0..6).collect::<Vec<_>>(), "delivery not exactly-once");
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

/// The inner executor's once-per-run counter fold: two workers fold
/// their per-run totals into shards 1 and 2 while the main thread hammers
/// shard 1 with per-event `count`s. Under every explored schedule no
/// increment is lost and each shard holds exactly what was written to it.
#[test]
fn worker_fold_loses_no_increments_under_model() {
    sched::explore(200, || {
        let tracer = Tracer::new(TraceLevel::Counters, 2);
        let worker = |t: Tracer, shard: usize| {
            sched::spawn(move || {
                t.fold(
                    shard,
                    &[
                        (Counter::TasksPopped, 5),
                        (Counter::Nodes, 5 * shard as u64),
                    ],
                );
            })
        };
        let a = worker(tracer.clone(), 1);
        let b = worker(tracer.clone(), 2);
        for _ in 0..5u64 {
            tracer.count(1, Counter::Nodes, 1);
        }
        sched::join(a).unwrap();
        sched::join(b).unwrap();
        let snap = tracer.metrics();
        assert_eq!(snap.total(Counter::Nodes), 20, "lost counter increments");
        assert_eq!(snap.shard(1, Counter::Nodes), 10);
        assert_eq!(snap.shard(2, Counter::Nodes), 10);
        assert_eq!(snap.total(Counter::TasksPopped), 10);
        assert_eq!(snap.shard(1, Counter::TasksPopped), 5);
        assert_eq!(snap.shard(2, Counter::TasksPopped), 5);
        assert_eq!(snap.shard(0, Counter::TasksPopped), 0);
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

/// The abort-protocol port: once the abort flag is raised, the pool still
/// quiesces (every worker exits) and nothing is delivered twice — with
/// every worker started at once and with lazily admitted helpers.
#[test]
fn abort_protocol_terminates_without_double_delivery() {
    for mut cfg in std::iter::once(fixed_cfg()).chain(lazy_cfgs(TaskForest::chain())) {
        cfg.abort_after = Some(2);
        sched::explore(200, || {
            let out = run(&cfg);
            assert!(out.delivered.iter().all(|&d| d <= 1), "{out:?}");
            assert!(out.executed >= 2, "{out:?}");
        })
        .unwrap_or_else(|f| panic!("{f}"));
    }
}

/// The match-cap reservation port: every task delivers a weighted bulk
/// count that workers reserve against one shared cap exactly as
/// `WorkerSink` does. Under every explored schedule the grants sum to
/// `min(Σ weights, cap)`, no reservation that starts after the abort
/// counts, and nothing is delivered twice — with every worker started at
/// once and with lazily admitted helpers.
#[test]
fn cap_reservation_is_exact_under_model() {
    let weight = |id: usize| 1 + id as u64 % 3;
    let eager = ProtocolCfg::new(2, TaskForest::small().weighted(weight));
    for base in std::iter::once(eager).chain(lazy_cfgs(TaskForest::chain().weighted(weight))) {
        let total: u64 = base.forest.weight.iter().sum();
        for cap in [1, 4, total - 1, total, total + 3] {
            let mut cfg = base.clone();
            cfg.cap = Some(cap);
            sched::explore(300, || {
                let out = run(&cfg);
                assert_eq!(out.granted, total.min(cap), "cap {cap}: {out:?}");
                assert_eq!(out.late_grants, 0, "counted past an abort: {out:?}");
                assert!(out.delivered.iter().all(|&d| d <= 1), "{out:?}");
            })
            .unwrap_or_else(|f| panic!("{f}"));
        }
    }
}

/// The same property against the pre-reservation accounting (count first,
/// bump the shared counter after): the checker must find a schedule where
/// two workers both count the last match below the cap, and the failing
/// seed must replay.
#[test]
fn count_before_reserve_overshoot_is_caught() {
    let mut cfg = ProtocolCfg::new(2, TaskForest::small().weighted(|_| 1));
    cfg.cap = Some(3);
    cfg.count_before_reserve = true;
    let check = |cfg: &ProtocolCfg| {
        let out = run(cfg);
        assert_eq!(out.granted, 3, "cap overshoot: {out:?}");
    };
    let err = sched::explore(1000, || check(&cfg))
        .expect_err("1000 schedules failed to catch the cap overshoot");
    assert!(err.message.contains("cap overshoot"), "{err}");
    assert!(sched::model(err.seed, || check(&cfg)).is_err());
}

/// The replay guarantee on the real protocol: one seed, one schedule.
#[test]
fn same_seed_replays_identical_protocol_schedule() {
    let cfg = fixed_cfg();
    let a = sched::model(42, || {
        run(&cfg);
    })
    .unwrap_or_else(|f| panic!("{f}"));
    let b = sched::model(42, || {
        run(&cfg);
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a.schedule, b.schedule);
    assert!(!a.schedule.is_empty());
}

/// The deliberately-injected lost-wakeup/early-exit bug (the seed
/// revision's idle accounting): the checker must find a schedule that
/// violates quiescence, and the failing seed must replay.
///
/// Run with `cargo test -p csm-check --features lost-wakeup` (plus the
/// `paracosm_check` RUSTFLAGS cfg).
#[cfg(feature = "lost-wakeup")]
#[test]
fn injected_lost_wakeup_bug_is_caught() {
    let mut cfg = ProtocolCfg::new(2, TaskForest::small());
    cfg.lost_wakeup_bug = true;
    let check = |cfg: &ProtocolCfg| {
        let out = run(cfg);
        assert_eq!(
            out.quiescence_violations, 0,
            "quiescence violated: a worker exited while tasks remained"
        );
        assert!(out.delivered.iter().all(|&d| d == 1));
    };
    let err = sched::explore(1000, || check(&cfg))
        .expect_err("1000 schedules failed to catch the injected early-exit bug");
    assert!(
        err.message.contains("quiescence"),
        "caught something, but not the quiescence violation: {err}"
    );
    // Failure-seed replay: the same seed must fail the same way.
    let replay = sched::model(err.seed, || check(&cfg));
    assert!(replay.is_err(), "failing seed {} did not replay", err.seed);
}
