//! Flight recorder — the always-on causal span layer (hot path).
//!
//! Every admitted update in the serving layer gets a [`SpanId`] and a
//! trail of typed stage spans (`admit`, `apply`, `classify`,
//! `shared_probe`, `fanout`, `flush`) recorded as begin/end event pairs
//! into fixed-capacity per-shard rings. It is the workspace's only event
//! ring, meant to be left on in production `serve`: the record path is
//! allocation-free, lock-free, and writes a handful of atomic words per
//! event (see the `flight_record_hot_path` micro-bench row in
//! EXPERIMENTS.md). [`FlightRecorder::record`] takes its timestamp from
//! the caller, so the serving layer reads [`FlightRecorder::now_ns`] once
//! per stage boundary and writes every event at that boundary (a close
//! and the next open, say) with the same stamp.
//!
//! # Protocol
//!
//! Each shard is a single-writer ring of [`FlightSlot`]s, its capacity a
//! power of two so a sequence maps to its slot with a mask, guarded by the
//! same seqlock-lite epoch-tag discipline as
//! [`super::window::WindowRing`]: the writer publishes a slot by storing
//! tag `0` (mid-write marker, `Release`), the payload words (`Relaxed`),
//! then the slot's absolute sequence + 1 (`Release`). Readers
//! (in [`cold`]) `Acquire`-load the tag, copy the payload, and re-load
//! the tag — a changed or zero tag means the slot was overwritten
//! mid-copy and is dropped. Tearing is therefore bounded to whole
//! events: a snapshot never observes half an event, only a missing one.
//!
//! Shard 0 carries service-level stages; sessions hash onto shards
//! `1..` ([`FlightRecorder::session_shard`]) so per-session fan-out
//! recording from a single orchestrator thread keeps each shard
//! single-writer by construction. Multi-writer hosts must provide the
//! same guarantee per shard (as with `WindowRing`).
//!
//! Construction, snapshotting and export are deliberately *not* in this
//! file: the `flight-hot-path` lint rule (LINT.md) denies allocation
//! and `Instant`-construction patterns here, so everything cold lives
//! in the [`cold`] submodule.

use csm_check::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub mod cold;

/// Sentinel session id carried by aggregate fan-out events
/// ([`FlightRecorder::fan_aggregate`]): the event covers a *count* of
/// sessions (in `arg`), not any single one. Real session ids never
/// reach `u32::MAX` (the serving layer's id space is far smaller).
pub const SESSION_AGGREGATE: u32 = u32::MAX;

/// Identity of one admitted update's causal span: a monotonic `u64`
/// minted by [`FlightRecorder::begin_span`]. `SpanId(0)` is reserved to
/// mean "no span".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved "no span" value.
    pub const NONE: SpanId = SpanId(0);

    /// Is this a real span (non-zero)?
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Typed pipeline stage of a flight span event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightStage {
    /// Whole-update umbrella: begins when the update is popped from the
    /// admission queue (arg = update index), ends when every session has
    /// been fanned out.
    Admit,
    /// Applying the update to the shared data graph.
    Apply,
    /// Per-session classifier staging (the serving layer's stage-1..3
    /// verdict computation).
    Classify,
    /// Shared-index union probe + subscriber-set computation
    /// (arg on end = subscriber count).
    SharedProbe,
    /// One session's share of the fan-out (kind says how the session
    /// got its ΔM; arg on end = ΔM when known).
    Fanout,
    /// Folding a session's deferred label-safe bookkeeping back into
    /// its engine (arg = updates flushed).
    Flush,
}

impl FlightStage {
    /// Stable wire/export name.
    pub fn name(self) -> &'static str {
        match self {
            FlightStage::Admit => "admit",
            FlightStage::Apply => "apply",
            FlightStage::Classify => "classify",
            FlightStage::SharedProbe => "shared_probe",
            FlightStage::Fanout => "fanout",
            FlightStage::Flush => "flush",
        }
    }

    #[inline]
    fn code(self) -> u64 {
        self as u64
    }

    fn from_code(c: u64) -> Option<FlightStage> {
        match c {
            0 => Some(FlightStage::Admit),
            1 => Some(FlightStage::Apply),
            2 => Some(FlightStage::Classify),
            3 => Some(FlightStage::SharedProbe),
            4 => Some(FlightStage::Fanout),
            5 => Some(FlightStage::Flush),
            _ => None,
        }
    }
}

/// How a `fanout` span's session obtained its ΔM (ignored for other
/// stages).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum FanKind {
    /// The session's own engine enumerated (or classified) the update.
    #[default]
    Engine,
    /// The session absorbed a cached delta from the shared index.
    SharedHit,
    /// The session enumerated and published its delta for the group.
    SharedMiss,
    /// Label-safe deferred-bookkeeping fast path (no engine round-trip).
    Deferred,
}

impl FanKind {
    /// Stable wire/export name.
    pub fn name(self) -> &'static str {
        match self {
            FanKind::Engine => "engine",
            FanKind::SharedHit => "shared_hit",
            FanKind::SharedMiss => "shared_miss",
            FanKind::Deferred => "deferred",
        }
    }

    #[inline]
    fn code(self) -> u64 {
        self as u64
    }

    fn from_code(c: u64) -> FanKind {
        match c {
            1 => FanKind::SharedHit,
            2 => FanKind::SharedMiss,
            3 => FanKind::Deferred,
            _ => FanKind::Engine,
        }
    }
}

// Meta-word packing: stage in bits 0..8, begin flag in bit 8, fan kind
// in bits 16..24, session id in bits 32..64.
const META_BEGIN: u64 = 1 << 8;
const META_KIND_SHIFT: u64 = 16;
const META_SESSION_SHIFT: u64 = 32;

#[inline]
fn pack_meta(stage: FlightStage, begin: bool, kind: FanKind, session: u32) -> u64 {
    stage.code()
        | if begin { META_BEGIN } else { 0 }
        | (kind.code() << META_KIND_SHIFT)
        | ((session as u64) << META_SESSION_SHIFT)
}

#[inline]
fn unpack_meta(meta: u64) -> Option<(FlightStage, bool, FanKind, u32)> {
    let stage = FlightStage::from_code(meta & 0xff)?;
    let begin = meta & META_BEGIN != 0;
    let kind = FanKind::from_code((meta >> META_KIND_SHIFT) & 0xff);
    let session = (meta >> META_SESSION_SHIFT) as u32;
    Some((stage, begin, kind, session))
}

/// One ring slot: tag + four payload words. The tag holds the slot's
/// absolute write sequence + 1; `0` marks mid-write (and unused slots).
struct FlightSlot {
    // @protocol: seqlock-tag
    tag: AtomicU64,
    span: AtomicU64,
    meta: AtomicU64,
    ts: AtomicU64,
    arg: AtomicU64,
}

/// One single-writer ring. Cache-line-aligned so neighboring shards'
/// write cursors never share a line.
#[repr(align(128))]
struct FlightShard {
    /// Events ever written to this shard (the next slot's sequence).
    // @protocol: seqlock-guard
    seq: AtomicU64,
    slots: Box<[FlightSlot]>,
}

impl FlightShard {
    /// Publish one event. Single-writer per shard: the caller must
    /// guarantee no concurrent `write` on the same shard.
    #[inline]
    fn write(&self, span: u64, meta: u64, ts: u64, arg: u64) {
        let seq = self.seq.load(Ordering::Relaxed);
        // The capacity is a power of two (`FlightRecorder::new`).
        let slot = &self.slots[(seq & (self.slots.len() as u64 - 1)) as usize];
        // Same rotation discipline as WindowRing::bucket_now: invalidate,
        // mutate relaxed, re-tag. Readers validate tag == seq + 1 before
        // and after copying, so they only ever drop whole events.
        slot.tag.store(0, Ordering::Release);
        slot.span.store(span, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.tag.store(seq + 1, Ordering::Release);
        self.seq.store(seq + 1, Ordering::Release);
    }
}

/// The always-on flight recorder: a span-id mint plus `1 + N` fixed
/// capacity single-writer event rings (shard 0 = service stages, shards
/// `1..` = session fan-out). Construct via
/// [`FlightRecorder::new`] (defined in [`cold`]); record with
/// [`FlightRecorder::begin`] / [`FlightRecorder::end`] /
/// [`FlightRecorder::fan_begin`] / [`FlightRecorder::fan_end`].
pub struct FlightRecorder {
    epoch: Instant,
    next_span: AtomicU64,
    shards: Box<[FlightShard]>,
}

impl FlightRecorder {
    /// Mint the next span id (monotonic, starts at 1).
    #[inline]
    pub fn begin_span(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Span ids minted so far.
    #[inline]
    pub fn spans_minted(&self) -> u64 {
        self.next_span.load(Ordering::Relaxed)
    }

    /// Nanoseconds since recorder creation — the recorder's only clock.
    /// Span-record paths read this instead of constructing instants.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Number of shards (1 service shard + N session shards).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard slot capacity: the configured one, rounded up to a power
    /// of two.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.shards[0].slots.len()
    }

    /// The shard a session's fan-out events are recorded on. Sessions
    /// hash onto shards `1..`, keeping shard 0 for service stages.
    #[inline]
    pub fn session_shard(&self, session: u64) -> usize {
        1 + (session as usize % (self.shards.len() - 1))
    }

    /// Record one raw event with an explicit timestamp. Single-writer
    /// per shard (out-of-range shards clamp to the last). The arity is
    /// the event's full payload, deliberately flat: this is the raw
    /// primitive the typed helpers below wrap.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        shard: usize,
        span: SpanId,
        stage: FlightStage,
        begin: bool,
        kind: FanKind,
        session: u32,
        ts_ns: u64,
        arg: u64,
    ) {
        let idx = shard.min(self.shards.len() - 1);
        self.shards[idx].write(span.0, pack_meta(stage, begin, kind, session), ts_ns, arg);
    }

    /// Open a service-level stage span on `shard` at the current time.
    #[inline]
    pub fn begin(&self, shard: usize, span: SpanId, stage: FlightStage, arg: u64) {
        self.record(
            shard,
            span,
            stage,
            true,
            FanKind::Engine,
            0,
            self.now_ns(),
            arg,
        );
    }

    /// Close a service-level stage span on `shard` at the current time.
    #[inline]
    pub fn end(&self, shard: usize, span: SpanId, stage: FlightStage, arg: u64) {
        self.record(
            shard,
            span,
            stage,
            false,
            FanKind::Engine,
            0,
            self.now_ns(),
            arg,
        );
    }

    /// Open a `fanout` span for `session` (recorded on its shard).
    #[inline]
    pub fn fan_begin(&self, span: SpanId, kind: FanKind, session: u32, arg: u64) {
        let shard = self.session_shard(session as u64);
        self.record(
            shard,
            span,
            FlightStage::Fanout,
            true,
            kind,
            session,
            self.now_ns(),
            arg,
        );
    }

    /// Close a `fanout` span for `session`.
    #[inline]
    pub fn fan_end(&self, span: SpanId, kind: FanKind, session: u32, arg: u64) {
        let shard = self.session_shard(session as u64);
        self.record(
            shard,
            span,
            FlightStage::Fanout,
            false,
            kind,
            session,
            self.now_ns(),
            arg,
        );
    }

    /// Record one update's label-safe fan-out as a single aggregate
    /// begin/end pair on the service shard: `count` sessions took a
    /// label-safe path while deferring their bookkeeping — no rolling
    /// window or tracer consumes their per-update state, so there is
    /// nothing per-session to attribute. Metering those sessions
    /// individually would reintroduce exactly the per-session cost the
    /// deferred fast path exists to avoid (DESIGN.md §3.11), so the
    /// pair shares one clock read and carries [`SESSION_AGGREGATE`] as
    /// its session id; the close's `arg` is the aggregated session
    /// count, the open's is the update index. `kind` says how those
    /// sessions ran: [`FanKind::Deferred`] when the shared index let
    /// them skip the engine entirely, [`FanKind::Engine`] when each
    /// still folded the update into its engine. No-op when `count` is
    /// zero.
    #[inline]
    pub fn fan_aggregate(&self, span: SpanId, kind: FanKind, count: u64, idx: u64) {
        if count == 0 {
            return;
        }
        let ts = self.now_ns();
        self.record(
            0,
            span,
            FlightStage::Fanout,
            true,
            kind,
            SESSION_AGGREGATE,
            ts,
            idx,
        );
        self.record(
            0,
            span,
            FlightStage::Fanout,
            false,
            kind,
            SESSION_AGGREGATE,
            ts,
            count,
        );
    }

    /// Open/close a `flush` span for `session` in one call pair.
    #[inline]
    pub fn flush_begin(&self, span: SpanId, session: u32, arg: u64) {
        let shard = self.session_shard(session as u64);
        self.record(
            shard,
            span,
            FlightStage::Flush,
            true,
            FanKind::Deferred,
            session,
            self.now_ns(),
            arg,
        );
    }

    /// Close a `flush` span for `session` (arg = updates flushed).
    #[inline]
    pub fn flush_end(&self, span: SpanId, session: u32, arg: u64) {
        let shard = self.session_shard(session as u64);
        self.record(
            shard,
            span,
            FlightStage::Flush,
            false,
            FanKind::Deferred,
            session,
            self.now_ns(),
            arg,
        );
    }
}
