//! Real-thread contention tests (tier-1: run in every build mode, no
//! special cfg). These complement the model tests: the scheduler explores
//! small adversarial interleavings, this file hammers the same structures
//! with genuine preemption and (under the tsan CI job) weak-memory
//! instrumentation.
//!
//! `PARACOSM_STRESS_ITERS` scales the workload (default keeps the suite
//! fast on small hosts).

use crossbeam_deque::{Injector, Steal};
use csm_check::protocol::{run, ProtocolCfg, TaskForest};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn stress_scale() -> usize {
    std::env::var("PARACOSM_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000)
}

/// N producers / M stealers: every pushed task is delivered exactly once,
/// and a `Steal::Retry` is always eventually followed by progress (bounded
/// attempts, no livelock).
#[test]
fn injector_contention_delivers_exactly_once() {
    const PRODUCERS: usize = 2;
    const STEALERS: usize = 3;
    let per_producer = stress_scale();
    let total = PRODUCERS * per_producer;
    // Generous progress bound: a stealer that spins this many times
    // without the run finishing has livelocked.
    let attempt_bound = (total as u64 + 1) * 10_000;

    let inj: Arc<Injector<usize>> = Arc::new(Injector::new());
    let producers_done = Arc::new(AtomicBool::new(false));
    let retries = Arc::new(AtomicU64::new(0));

    let producer_handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let inj = Arc::clone(&inj);
            std::thread::spawn(move || {
                for i in 0..per_producer {
                    inj.push(p * per_producer + i);
                }
            })
        })
        .collect();

    let stealer_handles: Vec<_> = (0..STEALERS)
        .map(|_| {
            let inj = Arc::clone(&inj);
            let done = Arc::clone(&producers_done);
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut attempts = 0u64;
                loop {
                    attempts += 1;
                    assert!(
                        attempts < attempt_bound,
                        "no progress after {attempts} steal attempts \
                         ({} delivered locally)",
                        got.len()
                    );
                    match inj.steal() {
                        Steal::Success(t) => got.push(t),
                        Steal::Retry => {
                            retries.fetch_add(1, Ordering::Relaxed);
                            std::hint::spin_loop();
                        }
                        Steal::Empty => {
                            // Only quit once producers have finished AND
                            // the queue has been observed empty after that.
                            if done.load(Ordering::Acquire) {
                                match inj.steal() {
                                    Steal::Success(t) => got.push(t),
                                    Steal::Retry => {}
                                    Steal::Empty => break,
                                }
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                got
            })
        })
        .collect();

    for h in producer_handles {
        h.join().expect("producer panicked");
    }
    producers_done.store(true, Ordering::Release);

    let mut delivered: Vec<usize> = Vec::with_capacity(total);
    for h in stealer_handles {
        delivered.extend(h.join().expect("stealer panicked"));
    }
    delivered.sort_unstable();
    assert_eq!(
        delivered.len(),
        total,
        "delivery count off (lost or duplicated tasks)"
    );
    assert_eq!(delivered, (0..total).collect::<Vec<_>>());
    // Retries are schedule-dependent (often zero on a single-core host);
    // the assertion that matters is that any retry was followed by enough
    // progress to finish, which reaching this line proves.
}

/// The fixed executor protocol under real threads: exactly-once delivery
/// and quiescence hold across repeated runs.
#[test]
fn fixed_protocol_stress_real_threads() {
    let rounds = (stress_scale() / 500).clamp(1, 8);
    for _ in 0..rounds {
        let cfg = ProtocolCfg::new(4, TaskForest::wide(16, 8));
        let expected = cfg.forest.total();
        let out = run(&cfg);
        assert!(
            out.delivered.iter().all(|&d| d == 1),
            "lost or double delivery: {out:?}"
        );
        assert_eq!(out.executed, expected);
        assert_eq!(out.quiescence_violations, 0);
    }
}

/// Lazy helper admission under real threads: worker 0 runs on the test
/// thread, registers the three helpers after 0, 1 or 3 tasks and then
/// spawns them; delivery stays exactly-once and the pool quiescent.
#[test]
fn lazy_protocol_stress_real_threads() {
    let rounds = (stress_scale() / 500).clamp(1, 8);
    for _ in 0..rounds {
        for k in [0, 1, 3] {
            let mut cfg = ProtocolCfg::new(4, TaskForest::wide(16, 8));
            cfg.lazy_after = Some(k);
            let out = run(&cfg);
            assert!(
                out.delivered.iter().all(|&d| d == 1),
                "k={k}: lost or double delivery: {out:?}"
            );
            assert_eq!(out.executed, cfg.forest.total());
            assert_eq!(out.quiescence_violations, 0);
            assert_eq!(out.workers_run, 4);
        }
    }
}

/// Abort under real threads: the pool always winds down and never
/// delivers a task twice.
#[test]
fn abort_protocol_stress_real_threads() {
    let rounds = (stress_scale() / 500).clamp(1, 8);
    for _ in 0..rounds {
        let mut cfg = ProtocolCfg::new(4, TaskForest::wide(16, 8));
        cfg.abort_after = Some(5);
        let out = run(&cfg);
        assert!(out.delivered.iter().all(|&d| d <= 1), "{out:?}");
        assert!(out.executed >= 5);
    }
}
