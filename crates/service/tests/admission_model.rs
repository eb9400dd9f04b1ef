//! Model-checked admission and shutdown: seeded-scheduler sweeps over the
//! serving layer's concurrent surface (the bounded [`AdmissionQueue`] and
//! the drain/shutdown paths of [`CsmService`]). Only meaningful when the
//! sync facade is in scheduler mode, i.e. built with
//! `RUSTFLAGS="--cfg paracosm_check"`; without the cfg this file compiles
//! to nothing.
//!
//! Replay a failure with `PARACOSM_CHECK_SEED=<seed>`; shrink or extend
//! the sweep with `PARACOSM_CHECK_ITERS=<n>`.
#![cfg(paracosm_check)]

use csm_check::sched;
use csm_check::sync::thread;
use csm_graph::{DataGraph, ELabel, EdgeUpdate, QVertexId, QueryGraph, Update, VLabel, VertexId};
use csm_service::{AdmissionQueue, Backpressure, CsmService, ServiceConfig, SessionSpec};
use paracosm_core::{AdsChange, CsmAlgorithm, CsmError, NoopObserver, ParaCosmConfig};
use std::sync::Arc;

fn iters(default: u64) -> u64 {
    std::env::var("PARACOSM_CHECK_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn upd(i: u32) -> Update {
    Update::InsertEdge(EdgeUpdate::new(VertexId(i), VertexId(i + 1), ELabel(0)))
}

/// Conservation under `ShedOldest`: whatever two racing producers admit is
/// exactly what the consumer pops plus what was shed, on every schedule.
#[test]
fn shed_oldest_conserves_updates_over_schedules() {
    for seed in 0..iters(200) {
        sched::model(seed, || {
            let q = Arc::new(AdmissionQueue::new(2, Backpressure::ShedOldest).unwrap());
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        for i in 0..3 {
                            q.offer(upd(p * 10 + i)).unwrap();
                        }
                    })
                })
                .collect();
            // Consumer races with the producers.
            let mut popped = 0u64;
            for _ in 0..4 {
                if q.pop().is_some() {
                    popped += 1;
                }
                thread::yield_now();
            }
            for h in producers {
                h.join().unwrap();
            }
            while q.pop().is_some() {
                popped += 1;
            }
            assert_eq!(q.admitted(), 6, "shed-oldest admits every offer");
            assert_eq!(q.rejected(), 0);
            assert_eq!(
                popped + q.shed(),
                q.admitted(),
                "updates lost or duplicated: popped={popped} shed={} admitted={}",
                q.shed(),
                q.admitted()
            );
        })
        .unwrap_or_else(|f| panic!("{f}"));
    }
}

/// Accounting under `Reject`: every offer either admits or rejects, never
/// both, never neither — and the consumer sees exactly the admitted ones.
#[test]
fn reject_accounts_for_every_offer_over_schedules() {
    for seed in 0..iters(200) {
        sched::model(seed, || {
            let q = Arc::new(AdmissionQueue::new(1, Backpressure::Reject).unwrap());
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let mut ok = 0u64;
                        for i in 0..2 {
                            match q.offer(upd(p * 10 + i)) {
                                Ok(()) => ok += 1,
                                Err(CsmError::Backpressure { capacity }) => {
                                    assert_eq!(capacity, 1)
                                }
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                        ok
                    })
                })
                .collect();
            let mut popped = 0u64;
            for _ in 0..3 {
                if q.pop().is_some() {
                    popped += 1;
                }
                thread::yield_now();
            }
            let ok: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
            while q.pop().is_some() {
                popped += 1;
            }
            assert_eq!(ok + q.rejected(), 4, "every offer resolves exactly once");
            assert_eq!(q.admitted(), ok);
            assert_eq!(popped, q.admitted(), "admitted updates must all arrive");
            assert_eq!(q.shed(), 0);
        })
        .unwrap_or_else(|f| panic!("{f}"));
    }
}

/// `Block` delivers everything: a blocking producer against a capacity-1
/// queue loses nothing on any schedule, and closing the queue releases a
/// producer blocked at the time.
#[test]
fn block_policy_delivers_everything_over_schedules() {
    for seed in 0..iters(150) {
        sched::model(seed, || {
            let q = Arc::new(AdmissionQueue::new(1, Backpressure::Block).unwrap());
            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..3 {
                        q.send_blocking(upd(i)).unwrap();
                    }
                })
            };
            let mut got = Vec::new();
            while got.len() < 3 {
                match q.pop() {
                    Some(u) => got.push(u),
                    None => thread::yield_now(),
                }
            }
            producer.join().unwrap();
            // FIFO order is preserved end to end.
            assert_eq!(got, (0..3).map(upd).collect::<Vec<_>>());
            assert_eq!(q.admitted(), 3);
            assert_eq!(q.shed() + q.rejected(), 0);

            // A producer blocked on a full queue unblocks on close.
            q.offer(upd(9)).unwrap();
            let blocked = {
                let q = Arc::clone(&q);
                thread::spawn(move || q.send_blocking(upd(10)))
            };
            q.close();
            match blocked.join().unwrap() {
                Err(CsmError::ServiceClosed) => {}
                Ok(()) => {} // raced ahead of close: also fine
                Err(e) => panic!("unexpected error: {e}"),
            }
        })
        .unwrap_or_else(|f| panic!("{f}"));
    }
}

// ------------------------------------------------------------- service

struct Plain;
impl CsmAlgorithm for Plain {
    fn name(&self) -> &'static str {
        "plain"
    }
    fn rebuild(&mut self, _: &DataGraph, _: &QueryGraph) {}
    fn update_ads(&mut self, _: &DataGraph, _: &QueryGraph, _: EdgeUpdate, _: bool) -> AdsChange {
        AdsChange::Unchanged
    }
    fn is_candidate(&self, _: &DataGraph, _: &QueryGraph, _: QVertexId, _: VertexId) -> bool {
        true
    }
}

fn edge_query() -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(0));
    let b = q.add_vertex(VLabel(0));
    q.add_edge(a, b, ELabel(0)).unwrap();
    q
}

/// Concurrent registration vs. update admission: a producer races the
/// owner, who registers a duplicate-query session mid-stream. On every
/// schedule the shared index must absorb the joiner without perturbing
/// the veteran — the veteran observes every processed update, the joiner
/// observes no more than the veteran (only updates processed after it
/// joined), both classifier tallies stay internally consistent, and the
/// index's lifetime hit counter reconciles exactly with the per-session
/// reuse dimensions.
#[test]
fn registration_races_admission_under_schedules() {
    for seed in 0..iters(100) {
        sched::model(seed, || {
            let mut g = DataGraph::new();
            for _ in 0..6 {
                g.add_vertex(VLabel(0));
            }
            let mut svc = CsmService::new(
                g,
                ServiceConfig {
                    queue_capacity: 2,
                    policy: Backpressure::ShedOldest,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let veteran = svc
                .add_session(
                    SessionSpec::new(edge_query(), ParaCosmConfig::sequential()),
                    Box::new(Plain),
                    Box::new(NoopObserver),
                )
                .unwrap();

            let handle = svc.ingest();
            let producer = thread::spawn(move || {
                for i in 0..4u32 {
                    handle.send(upd(i)).unwrap();
                }
            });
            svc.drain().unwrap();
            // Registration races the producer's still-in-flight sends; the
            // index must pick the new share group up exactly here.
            let joiner = svc
                .add_session(
                    SessionSpec::new(edge_query(), ParaCosmConfig::sequential()),
                    Box::new(Plain),
                    Box::new(NoopObserver),
                )
                .unwrap();
            producer.join().unwrap();

            let report = svc.shutdown().unwrap();
            assert_eq!(report.admitted, 4, "shed-oldest admits every send");
            assert_eq!(
                report.processed + report.shed,
                report.admitted,
                "every admitted update processes or sheds"
            );
            let find = |id: u64| {
                report
                    .sessions
                    .iter()
                    .find(|s| s.session.as_ref().unwrap().session_id == id)
                    .unwrap()
            };
            let vet = find(veteran);
            let joined = find(joiner);
            assert_eq!(
                vet.stats.updates, report.processed,
                "the veteran observes every processed update"
            );
            assert!(
                joined.stats.updates <= vet.stats.updates,
                "the joiner observes only updates processed after it joined"
            );
            assert!(vet.stats.classifier.is_consistent());
            assert!(joined.stats.classifier.is_consistent());
            let sh = report.shared.expect("index on");
            let reuses: u64 = report
                .sessions
                .iter()
                .map(|s| s.session.as_ref().unwrap().shared_reuses)
                .sum();
            assert_eq!(sh.hits, reuses, "index hits must equal Σ session reuses");
        })
        .unwrap_or_else(|f| panic!("{f}"));
    }
}

/// Live removal and shutdown drain cleanly while a producer races the
/// owner: on every schedule the service processes exactly the admitted
/// minus shed updates, each live session observes all of them, and the
/// departing session's report covers everything admitted before removal.
#[test]
fn service_remove_and_shutdown_drain_under_schedules() {
    for seed in 0..iters(100) {
        sched::model(seed, || {
            let mut g = DataGraph::new();
            for _ in 0..6 {
                g.add_vertex(VLabel(0));
            }
            let mut svc = CsmService::new(
                g,
                ServiceConfig {
                    queue_capacity: 2,
                    policy: Backpressure::ShedOldest,
                    ..ServiceConfig::default()
                },
            )
            .unwrap();
            let keep = svc
                .add_session(
                    SessionSpec::new(edge_query(), ParaCosmConfig::sequential()),
                    Box::new(Plain),
                    Box::new(NoopObserver),
                )
                .unwrap();
            let leave = svc
                .add_session(
                    SessionSpec::new(edge_query(), ParaCosmConfig::sequential()),
                    Box::new(Plain),
                    Box::new(NoopObserver),
                )
                .unwrap();

            let handle = svc.ingest();
            let producer = thread::spawn(move || {
                for i in 0..4u32 {
                    handle.send(upd(i)).unwrap();
                }
            });
            svc.drain().unwrap();
            let left = svc.remove_session(leave).unwrap();
            producer.join().unwrap();

            let report = svc.shutdown().unwrap();
            assert_eq!(report.admitted, 4, "shed-oldest admits every send");
            assert_eq!(
                report.processed + report.shed,
                report.admitted,
                "drained service must account for every admitted update"
            );
            // The surviving session saw every processed update...
            assert_eq!(report.sessions.len(), 1);
            let kept = &report.sessions[0];
            assert_eq!(kept.session.as_ref().unwrap().session_id, keep);
            assert_eq!(kept.stats.updates, report.processed);
            // ...and the removed one saw every update processed up to its
            // removal (remove_session drains first, so no admitted update
            // from before the removal was lost to it).
            let left_dims = left.session.as_ref().unwrap();
            assert_eq!(left_dims.session_id, leave);
            assert!(left.stats.updates <= report.processed);
        })
        .unwrap_or_else(|f| panic!("{f}"));
    }
}
