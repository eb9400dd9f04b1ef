//! Flight-recorder integration tests: span well-formedness under
//! concurrent writers, tearing bounds across ring wrap, end-to-end span
//! structure for a served stream, and the hot-path record cost the
//! always-on default relies on (EXPERIMENTS.md `flight_record_hot_path`).

use paracosm::algos::testing;
use paracosm::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn triangle() -> QueryGraph {
    let mut q = QueryGraph::new();
    let u: Vec<_> = (0..3).map(|_| q.add_vertex(VLabel(0))).collect();
    q.add_edge(u[0], u[1], ELabel(0)).unwrap();
    q.add_edge(u[1], u[2], ELabel(0)).unwrap();
    q.add_edge(u[0], u[2], ELabel(0)).unwrap();
    q
}

fn path3(l0: u32, l1: u32, l2: u32) -> QueryGraph {
    let mut q = QueryGraph::new();
    let a = q.add_vertex(VLabel(l0));
    let b = q.add_vertex(VLabel(l1));
    let c = q.add_vertex(VLabel(l2));
    q.add_edge(a, b, ELabel(0)).unwrap();
    q.add_edge(b, c, ELabel(0)).unwrap();
    q
}

/// Per-shard invariants every snapshot must satisfy, live or quiescent:
/// sequences strictly ascending, timestamps monotone, spans real.
fn assert_shards_coherent(snap: &FlightSnapshot) {
    for (shard, evs) in snap.shards.iter().enumerate() {
        for w in evs.windows(2) {
            assert!(
                w[0].seq < w[1].seq,
                "shard {shard}: sequences must ascend ({} !< {})",
                w[0].seq,
                w[1].seq
            );
            assert!(
                w[0].ts_ns <= w[1].ts_ns,
                "shard {shard}: single-writer timestamps must be monotone"
            );
        }
        for e in evs {
            assert!(
                e.span.is_some(),
                "shard {shard}: recorded span must be real"
            );
        }
    }
}

/// Four session-shard writers fan out concurrently with a snapshotting
/// reader. Every snapshot taken mid-flight is coherent, and the final
/// snapshot is fully well-formed: every opened span closes, every
/// `fanout` span's parent `admit` exists on the service shard, and
/// per-shard timestamps are monotone.
#[test]
fn concurrent_writers_produce_well_formed_spans() {
    const WRITERS: usize = 4;
    const SPANS: u64 = 256;
    let f = Arc::new(FlightRecorder::new(FlightConfig {
        capacity: 4096,
        session_shards: WRITERS,
    }));

    // Service shard first: one admit-begin per span, written before any
    // fan-out thread starts, so parents always precede children.
    let spans: Vec<SpanId> = (0..SPANS).map(|_| f.begin_span()).collect();
    for (i, &s) in spans.iter().enumerate() {
        f.begin(0, s, FlightStage::Admit, i as u64);
    }

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let f = Arc::clone(&f);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut snaps = 0u64;
            while !done.load(Ordering::Relaxed) {
                let snap = f.snapshot();
                assert_shards_coherent(&snap);
                for e in snap.shards.iter().flatten() {
                    assert!(
                        e.span.0 <= f.spans_minted(),
                        "snapshot observed an unminted span {:?}",
                        e.span
                    );
                }
                snaps += 1;
            }
            snaps
        })
    };

    // One writer per session shard (sessions 0..WRITERS hash onto
    // distinct shards 1..=WRITERS), preserving single-writer-per-shard.
    let writers: Vec<_> = (0..WRITERS as u32)
        .map(|sid| {
            let f = Arc::clone(&f);
            let spans = spans.clone();
            std::thread::spawn(move || {
                for &s in &spans {
                    f.fan_begin(s, FanKind::Engine, sid, 0);
                    f.fan_end(s, FanKind::SharedHit, sid, u64::from(sid));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    for &s in &spans {
        f.end(0, s, FlightStage::Admit, 0);
    }
    done.store(true, Ordering::Relaxed);
    let snaps = reader.join().unwrap();
    assert!(
        snaps > 0,
        "the reader must have raced at least one snapshot"
    );

    let snap = f.snapshot();
    assert_shards_coherent(&snap);
    assert_eq!(snap.shards.len(), WRITERS + 1);
    assert!(snap.dropped.iter().all(|&d| d == 0), "capacity fits all");

    // Every opened span closes: admit pairs on shard 0, fan pairs on
    // each session shard, one per (span, session).
    let admits_open: Vec<SpanId> = snap.shards[0]
        .iter()
        .filter(|e| e.stage == FlightStage::Admit && e.begin)
        .map(|e| e.span)
        .collect();
    assert_eq!(admits_open.len(), SPANS as usize);
    for &s in &spans {
        assert_eq!(
            snap.shards[0]
                .iter()
                .filter(|e| e.span == s && e.stage == FlightStage::Admit && !e.begin)
                .count(),
            1,
            "span {s:?}: admit must close exactly once"
        );
    }
    for shard in &snap.shards[1..] {
        assert_eq!(shard.len(), 2 * SPANS as usize);
        for e in shard {
            assert_eq!(e.stage, FlightStage::Fanout);
            // Every fanout span's parent admit exists.
            assert!(
                admits_open.contains(&e.span),
                "fanout span {:?} has no parent admit",
                e.span
            );
        }
        for &s in &spans {
            let opens = shard.iter().filter(|e| e.span == s && e.begin).count();
            let closes = shard.iter().filter(|e| e.span == s && !e.begin).count();
            assert_eq!((opens, closes), (1, 1), "span {s:?}: unbalanced fanout");
        }
    }
}

/// Tearing is bounded to whole events: writers hammer tiny rings across
/// thousands of wraps while a reader snapshots continuously. Every event
/// a snapshot yields has internally consistent payload words (the writer
/// stamps `span = arg + 1 = seq + 1`), so a torn copy can never survive
/// validation.
///
/// All three threads leave a start barrier together, and the writers keep
/// wrapping until the reader has validated `VALIDATED` events, then write
/// a fixed tail of `TAIL` more — so the reader always overlaps live
/// writers, however the scheduler interleaves them.
#[test]
fn ring_wrap_never_yields_torn_events() {
    const VALIDATED: u64 = 2_000;
    const TAIL: u64 = 10_000;
    let f = Arc::new(FlightRecorder::new(FlightConfig {
        capacity: 8,
        session_shards: 2,
    }));
    let start = Arc::new(Barrier::new(3));
    let validated = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..2u32)
        .map(|sid| {
            let (f, start, validated) = (f.clone(), start.clone(), validated.clone());
            std::thread::spawn(move || {
                let shard = f.session_shard(u64::from(sid));
                start.wait();
                let mut stop_at = u64::MAX;
                let mut j = 0;
                while j < stop_at {
                    // Payload words are all derived from j: a torn event
                    // (words from two different writes) breaks the
                    // relation and the assertions below catch it.
                    f.record(
                        shard,
                        SpanId(j + 1),
                        FlightStage::Apply,
                        j % 2 == 0,
                        FanKind::Engine,
                        sid,
                        j,
                        j,
                    );
                    j += 1;
                    if stop_at == u64::MAX && validated.load(Ordering::Relaxed) {
                        stop_at = j + TAIL;
                    }
                }
                (shard, j)
            })
        })
        .collect();

    let reader = {
        let (f, start, validated) = (f.clone(), start.clone(), validated.clone());
        std::thread::spawn(move || {
            start.wait();
            let mut seen = 0u64;
            while seen < VALIDATED {
                let snap = f.snapshot();
                for evs in &snap.shards[1..] {
                    assert!(evs.len() <= 8, "a shard can never exceed capacity");
                    for e in evs {
                        assert_eq!(e.seq, e.arg, "seq/arg torn: {e:?}");
                        assert_eq!(e.ts_ns, e.arg, "ts/arg torn: {e:?}");
                        assert_eq!(e.span.0, e.arg + 1, "span/arg torn: {e:?}");
                        assert_eq!(e.begin, e.arg % 2 == 0, "meta/arg torn: {e:?}");
                        seen += 1;
                    }
                    for w in evs.windows(2) {
                        assert!(w[0].seq < w[1].seq);
                    }
                }
            }
            validated.store(true, Ordering::Relaxed);
        })
    };

    reader.join().unwrap();
    let totals: Vec<(usize, u64)> = writers.into_iter().map(|w| w.join().unwrap()).collect();

    let snap = f.snapshot();
    for (shard, total) in totals {
        let evs = &snap.shards[shard];
        assert!(
            total > TAIL,
            "shard {shard}: the writer outlived the reader"
        );
        assert_eq!(evs.len(), 8, "shard {shard}: full ring after the storm");
        assert_eq!(snap.dropped[shard], total - 8);
        assert_eq!(evs.last().unwrap().arg, total - 1);
    }
}

/// End-to-end: a served stream leaves a complete causal record. One span
/// per admitted update; each span's admit umbrella opens and closes on
/// the service shard; every session is covered exactly once per span —
/// by its own fanout pair on the engine/shared paths, or by the single
/// aggregate deferred record (whose close arg counts the sessions that
/// took the label-safe fast path); shutdown mints flush spans, one per
/// session.
#[test]
fn served_stream_leaves_complete_span_record() {
    let (g, stream) = testing::random_workload(19, 24, 2, 1, 40, 60, 0.3);
    let mut svc = CsmService::new(
        g.clone(),
        ServiceConfig {
            queue_capacity: 1024,
            policy: Backpressure::Block,
            flight_capacity: 4096,
        },
    )
    .unwrap();
    let tenants: Vec<(QueryGraph, AlgoKind, &str)> = vec![
        (triangle(), AlgoKind::GraphFlow, "triangles"),
        (path3(0, 1, 0), AlgoKind::Symbi, "wedge"),
        (triangle(), AlgoKind::TurboFlux, "triangles-dup"),
    ];
    for (q, kind, label) in &tenants {
        svc.add_session(
            SessionSpec::new(q.clone(), ParaCosmConfig::sequential()).with_label(*label),
            Box::new(kind.build(&g, q)),
            Box::new(NoopObserver),
        )
        .unwrap();
    }
    for &u in stream.updates() {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();

    let flight = Arc::clone(svc.flight());
    let n = stream.len() as u64;
    assert_eq!(
        flight.spans_minted(),
        n,
        "one span per admitted update before shutdown"
    );
    let snap = flight.snapshot();
    assert_shards_coherent(&snap);
    assert!(snap.dropped.iter().all(|&d| d == 0), "capacity fits all");

    for span in (1..=n).map(SpanId) {
        let path = snap.span_path(span);
        assert!(!path.is_empty(), "span {span:?} left no record");
        // The admit umbrella brackets the whole span path.
        let admit_open = path
            .iter()
            .find(|e| e.stage == FlightStage::Admit && e.begin)
            .unwrap_or_else(|| panic!("span {span:?}: no admit begin"));
        let admit_close = path
            .iter()
            .find(|e| e.stage == FlightStage::Admit && !e.begin)
            .unwrap_or_else(|| panic!("span {span:?}: no admit end"));
        assert!(admit_open.ts_ns <= admit_close.ts_ns);
        assert_eq!(admit_open.arg, span.0 - 1, "admit arg is the update index");
        // Every stage opened within the span also closed.
        for e in &path {
            if e.begin {
                assert!(
                    path.iter().any(|c| !c.begin
                        && c.stage == e.stage
                        && c.session == e.session
                        && c.ts_ns >= e.ts_ns),
                    "span {span:?}: {} opened for session {} but never closed",
                    e.stage.name(),
                    e.session
                );
            }
        }
        // Every session's fan-out is accounted for exactly once per
        // update: either its own per-session pair (engine/shared paths)
        // or a share of the single aggregate deferred record, whose
        // close carries the deferred-session count.
        let mut metered = 0u64;
        for sid in 0..tenants.len() as u32 {
            let opens = path
                .iter()
                .filter(|e| e.stage == FlightStage::Fanout && e.session == sid && e.begin)
                .count();
            let closes = path
                .iter()
                .filter(|e| e.stage == FlightStage::Fanout && e.session == sid && !e.begin)
                .count();
            assert_eq!(opens, closes, "span {span:?}: session {sid} fanout pair");
            assert!(opens <= 1, "span {span:?}: session {sid} fanned out twice");
            metered += opens as u64;
        }
        let agg_opens = path
            .iter()
            .filter(|e| e.stage == FlightStage::Fanout && e.session == SESSION_AGGREGATE && e.begin)
            .count();
        assert!(
            agg_opens <= 1,
            "span {span:?}: one aggregate record at most"
        );
        let deferred: u64 = path
            .iter()
            .filter(|e| {
                e.stage == FlightStage::Fanout && e.session == SESSION_AGGREGATE && !e.begin
            })
            .map(|e| {
                assert_eq!(e.kind, FanKind::Deferred);
                e.arg
            })
            .sum();
        assert_eq!(
            metered + deferred,
            tenants.len() as u64,
            "span {span:?}: per-session pairs + aggregate deferred count \
             must cover every session exactly once"
        );
    }

    // The shared-index duplicate must have produced at least one
    // hit-kind fanout close somewhere in the record.
    let any_hit = snap
        .shards
        .iter()
        .flatten()
        .any(|e| e.stage == FlightStage::Fanout && !e.begin && e.kind == FanKind::SharedHit);
    assert!(any_hit, "duplicate query must absorb at least one delta");

    let report = svc.shutdown().unwrap();
    assert_eq!(report.processed, n);
    // Shutdown minted one flush span per session, each a closed pair.
    assert_eq!(flight.spans_minted(), n + tenants.len() as u64);
    let snap = flight.snapshot();
    let flushes: Vec<&FlightEvent> = snap
        .shards
        .iter()
        .flatten()
        .filter(|e| e.stage == FlightStage::Flush)
        .collect();
    assert_eq!(flushes.len(), 2 * tenants.len());
    assert!(flushes.iter().all(|e| e.span.0 > n));
    assert_eq!(
        flushes.iter().filter(|e| e.begin).count(),
        tenants.len(),
        "one flush open per session"
    );

    // The whole record exports as structurally balanced Perfetto JSON
    // with one named track per session plus the service track.
    let json = flight.perfetto_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    for sid in 0..tenants.len() {
        assert!(json.contains(&format!("session-{sid}")));
    }
    assert!(json.contains("\"service\""));
    assert!(json.contains("\"name\":\"admit\""));
    assert!(json.contains("\"name\":\"fanout\""));
}

/// The always-on default is only tenable if recording one span edge
/// costs on the order of nanoseconds. This prints the measured cost
/// (EXPERIMENTS.md quotes it) and asserts a generous ceiling: an order
/// of magnitude above the ~100 ns target, so CI noise cannot flake it
/// while a lock or allocation sneaking into the path still fails.
#[test]
fn hot_path_record_cost_is_nanoscale() {
    const N: u64 = 200_000;
    let f = FlightRecorder::new(FlightConfig::default());
    let span = f.begin_span();
    // Warm the ring (first wrap touches every slot).
    for i in 0..4096u64 {
        f.begin(0, span, FlightStage::Apply, i);
    }
    let t0 = Instant::now();
    for i in 0..N {
        f.begin(0, span, FlightStage::Apply, i);
    }
    let per_event = t0.elapsed().as_nanos() as f64 / N as f64;
    println!("flight_record_hot_path: {per_event:.1} ns/event over {N} events");
    assert!(
        per_event < 1000.0,
        "span-record cost {per_event:.1} ns/event — the always-on default \
         assumes order-100ns; something slow entered the hot path"
    );
}

/// The service reads the clock once per stage boundary, and every
/// service-shard event at that boundary carries the one stamp: the
/// classify and shared-probe opens share a stamp with the admit open,
/// the classify close with the apply open, and the deferred aggregate
/// pair with the admit close. So an edge update whose sessions all took
/// the deferred label-safe path reads the clock at most five times. Each
/// session's apply time is the sum of the apply spans' widths, exactly,
/// because both come from the same stamps. The ring capacity is the
/// requested one rounded up to a power of two.
#[test]
fn stage_boundaries_share_one_clock_read() {
    for (requested, rounded) in [(0, 2), (3, 4), (8, 8), (1000, 1024), (1025, 2048)] {
        let f = FlightRecorder::new(FlightConfig::with_capacity(requested));
        assert_eq!(f.capacity(), rounded, "capacity {requested}");
    }

    let (g, stream) = testing::random_workload(23, 24, 2, 1, 40, 80, 0.4);
    let mut svc = CsmService::new(
        g.clone(),
        ServiceConfig {
            flight_capacity: 1 << 14,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    // Two sessions that search, and two whose labels never occur in the
    // graph, so that every edge update is label-safe (and deferred) for
    // them and some updates are for all four.
    let queries = [
        (triangle(), AlgoKind::GraphFlow),
        (path3(0, 1, 0), AlgoKind::Symbi),
        (path3(7, 7, 7), AlgoKind::GraphFlow),
        (path3(8, 9, 8), AlgoKind::TurboFlux),
    ];
    for (q, kind) in &queries {
        svc.add_session(
            SessionSpec::new(q.clone(), ParaCosmConfig::sequential()),
            Box::new(kind.build(&g, q)),
            Box::new(NoopObserver),
        )
        .unwrap();
    }
    let fresh = VertexId(g.vertex_slots() as u32);
    let mut updates: Vec<Update> = stream.updates().to_vec();
    updates.extend([
        Update::InsertVertex {
            id: fresh,
            label: VLabel(0),
        },
        Update::InsertEdge(EdgeUpdate::new(fresh, VertexId(0), ELabel(0))),
        Update::InsertEdge(EdgeUpdate::new(VertexId(1), VertexId(1), ELabel(0))),
        Update::DeleteVertex { id: VertexId(0) },
        Update::DeleteVertex { id: VertexId(0) },
    ]);
    for &u in &updates {
        svc.submit(u).unwrap();
    }
    svc.drain().unwrap();
    let flight = Arc::clone(svc.flight());
    let report = svc.shutdown().unwrap();
    let snap = flight.snapshot();
    assert!(snap.dropped.iter().all(|&d| d == 0), "capacity fits all");

    let mut apply_ns = 0u64;
    let mut all_deferred_edges = 0;
    for (i, u) in updates.iter().enumerate() {
        let span = SpanId(i as u64 + 1);
        let path: Vec<FlightEvent> = snap
            .span_path(span)
            .into_iter()
            .filter(|e| e.shard == 0)
            .collect();
        let ts = |stage: FlightStage, begin: bool, session: u32| {
            path.iter()
                .find(|e| e.stage == stage && e.begin == begin && e.session == session)
                .map(|e| e.ts_ns)
        };
        let admit = (
            ts(FlightStage::Admit, true, 0).unwrap(),
            ts(FlightStage::Admit, false, 0).unwrap(),
        );
        if let Some(open) = ts(FlightStage::Classify, true, 0) {
            assert_eq!(open, admit.0, "span {span:?}: classify opens at admit");
        }
        if let Some(open) = ts(FlightStage::SharedProbe, true, 0) {
            assert_eq!(
                Some(open),
                ts(FlightStage::Classify, true, 0),
                "span {span:?}: shared probe opens with classify"
            );
        }
        if let Some(close) = ts(FlightStage::Classify, false, 0) {
            assert_eq!(
                Some(close),
                ts(FlightStage::Apply, true, 0),
                "span {span:?}: classify closes as apply opens"
            );
        }
        if let Some(close) = ts(FlightStage::Fanout, false, SESSION_AGGREGATE) {
            assert_eq!(close, admit.1, "span {span:?}: aggregate closes with admit");
            assert_eq!(
                ts(FlightStage::Fanout, true, SESSION_AGGREGATE),
                Some(close)
            );
        }
        if let (Some(open), Some(close)) = (
            ts(FlightStage::Apply, true, 0),
            ts(FlightStage::Apply, false, 0),
        ) {
            apply_ns += close - open;
        }
        let sessions_fanned = snap
            .span_path(span)
            .iter()
            .any(|e| e.stage == FlightStage::Fanout && e.session != SESSION_AGGREGATE);
        let edge = matches!(u, Update::InsertEdge(_) | Update::DeleteEdge(_));
        if edge && !sessions_fanned && ts(FlightStage::Apply, true, 0).is_some() {
            all_deferred_edges += 1;
            let mut stamps: Vec<u64> = path.iter().map(|e| e.ts_ns).collect();
            stamps.dedup();
            assert!(
                stamps.len() <= 5,
                "span {span:?}: an all-deferred edge update read the clock {} times",
                stamps.len()
            );
        }
    }
    assert!(
        all_deferred_edges > 0,
        "some edge update was label-safe for all"
    );
    assert!(apply_ns > 0);
    for s in &report.sessions {
        assert_eq!(
            s.stats.apply_time,
            Duration::from_nanos(apply_ns),
            "session apply time is the sum of the apply spans"
        );
    }
}
