//! Flight recorder cold paths: construction, snapshotting, span-path
//! extraction and the Perfetto exporter. Split out of
//! [`super`](crate::trace::flight) so the `flight-hot-path` lint rule
//! can deny allocation and `Instant`-construction in the record path
//! file outright.

use super::{unpack_meta, FanKind, FlightRecorder, FlightShard, FlightSlot, FlightStage, SpanId};
use csm_check::sync::atomic::{AtomicU64, Ordering};
use std::collections::BTreeMap;
use std::time::Instant;

/// Flight recorder sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightConfig {
    /// Slots per shard (events retained per ring; older events are
    /// overwritten). Rounded up to a power of two, at least 2.
    pub capacity: usize,
    /// Session shards (sessions hash onto these; one extra shard is
    /// always added for service-level stages).
    pub session_shards: usize,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            capacity: 1024,
            session_shards: 8,
        }
    }
}

impl FlightConfig {
    /// Default sizing with an explicit per-shard capacity.
    pub fn with_capacity(capacity: usize) -> FlightConfig {
        FlightConfig {
            capacity,
            ..FlightConfig::default()
        }
    }
}

/// One decoded flight event (a begin or end edge of a stage span).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Absolute per-shard write sequence of this event.
    pub seq: u64,
    /// Shard the event was recorded on.
    pub shard: usize,
    /// The owning update's span.
    pub span: SpanId,
    /// Pipeline stage.
    pub stage: FlightStage,
    /// `true` = span opened, `false` = span closed.
    pub begin: bool,
    /// Fan-out kind (meaningful for `fanout`/`flush` stages).
    pub kind: FanKind,
    /// Session id (0 for service-level stages).
    pub session: u32,
    /// Nanoseconds since recorder creation.
    pub ts_ns: u64,
    /// Stage-specific payload (queue depth, ΔM, flushed count, …).
    pub arg: u64,
}

/// A coherent copy of every shard's retained events, oldest first.
#[derive(Clone, Debug, Default)]
pub struct FlightSnapshot {
    /// Decoded events per shard, sequence-ascending.
    pub shards: Vec<Vec<FlightEvent>>,
    /// Events overwritten per shard before this snapshot.
    pub dropped: Vec<u64>,
}

impl FlightSnapshot {
    /// All events across shards, filtered to one span, timestamp-ascending.
    pub fn span_path(&self, span: SpanId) -> Vec<FlightEvent> {
        let mut path: Vec<FlightEvent> = self
            .shards
            .iter()
            .flatten()
            .filter(|e| e.span == span)
            .copied()
            .collect();
        path.sort_by_key(|e| (e.ts_ns, e.seq));
        path
    }

    /// Total retained events.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FlightRecorder {
    /// A recorder with `cfg.session_shards + 1` single-writer rings of
    /// `cfg.capacity` slots each, rounded up to a power of two so the
    /// record path indexes with a mask (capacities below 2 are clamped).
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        let cap = cfg.capacity.max(2).next_power_of_two();
        let shards = (0..cfg.session_shards.max(1) + 1)
            .map(|_| FlightShard {
                seq: AtomicU64::new(0),
                slots: (0..cap)
                    .map(|_| FlightSlot {
                        tag: AtomicU64::new(0),
                        span: AtomicU64::new(0),
                        meta: AtomicU64::new(0),
                        ts: AtomicU64::new(0),
                        arg: AtomicU64::new(0),
                    })
                    .collect(),
            })
            .collect();
        FlightRecorder {
            epoch: Instant::now(),
            next_span: AtomicU64::new(0),
            shards,
        }
    }

    /// Copy every shard's retained events, oldest first. Runs while
    /// writers are live: a slot whose tag changes mid-copy (or that was
    /// overwritten between cursor read and copy) is dropped whole, so
    /// the result never contains a torn event.
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut out = FlightSnapshot::default();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let seq = shard.seq.load(Ordering::Acquire);
            let cap = shard.slots.len() as u64;
            let lo = seq.saturating_sub(cap);
            let mut evs = Vec::with_capacity((seq - lo) as usize);
            for i in lo..seq {
                let slot = &shard.slots[(i % cap) as usize];
                let t1 = slot.tag.load(Ordering::Acquire);
                if t1 != i + 1 {
                    continue; // mid-write, overwritten, or not yet visible
                }
                let span = slot.span.load(Ordering::Relaxed);
                let meta = slot.meta.load(Ordering::Relaxed);
                let ts = slot.ts.load(Ordering::Relaxed);
                let arg = slot.arg.load(Ordering::Relaxed);
                if slot.tag.load(Ordering::Acquire) != t1 {
                    continue; // overwritten mid-copy: drop the whole event
                }
                let Some((stage, begin, kind, session)) = unpack_meta(meta) else {
                    continue;
                };
                evs.push(FlightEvent {
                    seq: i,
                    shard: shard_idx,
                    span: SpanId(span),
                    stage,
                    begin,
                    kind,
                    session,
                    ts_ns: ts,
                    arg,
                });
            }
            out.dropped.push(lo);
            out.shards.push(evs);
        }
        out
    }

    /// Convenience: snapshot and extract one span's full path.
    pub fn span_path(&self, span: SpanId) -> Vec<FlightEvent> {
        self.snapshot().span_path(span)
    }

    /// Chrome/Perfetto `trace_event` JSON of the retained events: one
    /// track (`tid`) per session (`session-N`) plus a `service` track
    /// for service-level stages. Begin/end pairs become complete
    /// (`"ph":"X"`) slices carrying the span id; an unpaired begin (its
    /// end not yet written, or overwritten) degrades to an instant
    /// event. Timestamps are microseconds since recorder creation.
    pub fn perfetto_json(&self) -> String {
        let snap = self.snapshot();
        let mut events: Vec<&FlightEvent> = snap.shards.iter().flatten().collect();
        events.sort_by_key(|e| (e.ts_ns, e.shard, e.seq));

        let track = |e: &FlightEvent| -> u64 {
            match e.stage {
                // Aggregate deferred fan-outs carry the sentinel session
                // and belong on the service track with the other
                // whole-update stages.
                FlightStage::Fanout | FlightStage::Flush
                    if e.session != super::SESSION_AGGREGATE =>
                {
                    1 + e.session as u64
                }
                _ => 0,
            }
        };
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);

        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, s: String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&s);
        };

        let mut tracks: Vec<u64> = events.iter().map(|e| track(e)).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for tid in &tracks {
            let name = if *tid == 0 {
                "service".to_string()
            } else {
                format!("session-{}", tid - 1)
            };
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
            );
        }

        // Pair begin/end per (track, span, stage); the fan kind is left out
        // of the key on purpose — the engine fan-out path opens with the
        // default kind and closes with the resolved one (hit/miss). Stages
        // do not self-nest within one span, so a single open slot suffices.
        let mut open: BTreeMap<(u64, u64, u8), (u64, u64)> = BTreeMap::new();
        for e in &events {
            let tid = track(e);
            let key = (tid, e.span.0, e.stage as u8);
            if e.begin {
                open.insert(key, (e.ts_ns, e.arg));
            } else if let Some((t0, arg0)) = open.remove(&key) {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\
                         \"dur\":{},\"args\":{{\"span\":{},\"kind\":\"{}\",\"session\":{},\
                         \"arg_begin\":{arg0},\"arg_end\":{}}}}}",
                        e.stage.name(),
                        us(t0),
                        us(e.ts_ns.saturating_sub(t0)),
                        e.span.0,
                        e.kind.name(),
                        e.session,
                        e.arg
                    ),
                );
            } else {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}_end\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
                         \"ts\":{},\"args\":{{\"span\":{},\"arg\":{}}}}}",
                        e.stage.name(),
                        us(e.ts_ns),
                        e.span.0,
                        e.arg
                    ),
                );
            }
        }
        // Still-open begins (in-flight or torn) surface as instants so a
        // stalled update's last stage is visible in the trace.
        for ((tid, span, stage), (ts, arg)) in open {
            // Decode through the one authoritative map so a new stage
            // can never silently alias another exporter's hardcoded arm.
            let stage = FlightStage::from_code(u64::from(stage)).unwrap_or(FlightStage::Flush);
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}_open\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{},\"args\":{{\"span\":{span},\"arg\":{arg}}}}}",
                    stage.name(),
                    us(ts),
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        let f = FlightRecorder::new(FlightConfig {
            capacity: 8,
            session_shards: 2,
        });
        let span = f.begin_span();
        assert_eq!(span, SpanId(1));
        f.begin(0, span, FlightStage::Admit, 7);
        f.fan_begin(span, FanKind::SharedHit, 3, 0);
        f.fan_end(span, FanKind::SharedHit, 3, 42);
        f.end(0, span, FlightStage::Admit, 7);

        let snap = f.snapshot();
        assert_eq!(snap.shards.len(), 3);
        assert_eq!(snap.len(), 4);
        let path = snap.span_path(span);
        assert_eq!(path.len(), 4);
        assert_eq!(path[0].stage, FlightStage::Admit);
        assert!(path[0].begin);
        assert_eq!(path[1].stage, FlightStage::Fanout);
        assert_eq!(path[1].kind, FanKind::SharedHit);
        assert_eq!(path[1].session, 3);
        assert_eq!(path[2].arg, 42);
        assert!(!path[3].begin);
        // Timestamps are monotone within the path (single writer).
        assert!(path.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_drops() {
        let f = FlightRecorder::new(FlightConfig {
            capacity: 4,
            session_shards: 1,
        });
        for i in 0..10u64 {
            let s = f.begin_span();
            f.begin(0, s, FlightStage::Apply, i);
        }
        let snap = f.snapshot();
        assert_eq!(snap.shards[0].len(), 4);
        assert_eq!(snap.dropped[0], 6);
        // The retained events are the newest four, sequence-ascending.
        let args: Vec<u64> = snap.shards[0].iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9]);
    }

    #[test]
    fn session_shards_partition_sessions() {
        let f = FlightRecorder::new(FlightConfig {
            capacity: 4,
            session_shards: 4,
        });
        for sid in 0..16u64 {
            let shard = f.session_shard(sid);
            assert!((1..=4).contains(&shard));
            assert_eq!(shard, f.session_shard(sid + 4 * 7));
        }
    }

    #[test]
    fn aggregate_deferred_records_one_pair_on_the_service_shard() {
        let f = FlightRecorder::new(FlightConfig {
            capacity: 8,
            session_shards: 2,
        });
        let span = f.begin_span();
        f.begin(0, span, FlightStage::Admit, 3);
        f.fan_aggregate(span, FanKind::Deferred, 0, 3); // zero sessions: no record
        f.fan_aggregate(span, FanKind::Deferred, 64, 3);
        f.end(0, span, FlightStage::Admit, 0);

        let snap = f.snapshot();
        assert_eq!(snap.shards[0].len(), 4, "one aggregate pair, no more");
        assert!(snap.shards[1..].iter().all(Vec::is_empty));
        let pair: Vec<&FlightEvent> = snap.shards[0]
            .iter()
            .filter(|e| e.stage == FlightStage::Fanout)
            .collect();
        assert_eq!(pair.len(), 2);
        assert!(pair[0].begin && !pair[1].begin);
        assert_eq!(
            pair[0].ts_ns, pair[1].ts_ns,
            "the pair shares one clock read"
        );
        assert_eq!(pair[0].arg, 3, "open arg is the update index");
        assert_eq!(pair[1].arg, 64, "close arg is the deferred count");
        assert!(pair
            .iter()
            .all(|e| e.kind == FanKind::Deferred
                && e.session == crate::trace::flight::SESSION_AGGREGATE));

        // The exporter keeps the aggregate on the service track.
        let json = f.perfetto_json();
        assert!(!json.contains("session-4294967295"));
        assert!(json.contains("\"kind\":\"deferred\""));
    }

    #[test]
    fn perfetto_export_pairs_and_balances() {
        let f = FlightRecorder::new(FlightConfig::default());
        let span = f.begin_span();
        f.begin(0, span, FlightStage::Admit, 0);
        f.begin(0, span, FlightStage::Apply, 0);
        f.end(0, span, FlightStage::Apply, 0);
        f.fan_begin(span, FanKind::Engine, 0, 0);
        f.fan_end(span, FanKind::Engine, 0, 5);
        // Admit left open deliberately: must surface as an instant.
        let json = f.perfetto_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"apply\""));
        assert!(json.contains("\"name\":\"fanout\""));
        assert!(json.contains("admit_open"));
        assert!(json.contains("session-0"));
        assert!(json.contains("\"service\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
