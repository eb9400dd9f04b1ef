//! The traced pass: a layer replay.
//!
//! Tracing inside the program is a later change, so the per-layer numbers
//! come from a loop owned by the benchmark that makes the same public
//! calls the service makes, in service order, with a span around each
//! layer boundary: `AdmissionQueue::offer`/`pop` → `FlightRecorder` span
//! records → graph apply → per session `Engine::label_safe` →
//! `degree_safe` → `candidates_safe` → `ads_update` → `find_matches`.
//!
//! The replay is *naive*: every session classifies and enumerates for
//! itself (no shared index), so `service wall ÷ replay wall` says what the
//! service layer's sharing saves or its orchestration costs. Its
//! per-session ΔM totals and verdict counts must equal the service's — a
//! second, independent output check.

use crate::serve::{session_config, Backend};
use crate::workload::Inputs;
use csm_graph::{EdgeUpdate, GraphShard, Update, VertexId};
use csm_service::{AdmissionQueue, Backpressure, ServiceConfig};
use paracosm_core::{
    AdsChange, Classified, ClassifierStats, CsmAlgorithm, Engine, FanKind, FlightConfig,
    FlightRecorder, FlightStage, RunStats, SafeStage, SpanId,
};
use std::collections::HashSet;
use std::time::Instant;

/// Layer boundaries the replay puts spans around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One update, pop to last fan-out: parent of everything but `Offer`.
    Update,
    /// `AdmissionQueue::offer`, one span per queue-capacity chunk.
    Offer,
    Pop,
    /// `insert_edge` / `remove_edge`, or one `apply_edge_batch` run.
    Apply,
    /// Stage 1 over all sessions of one update.
    Label,
    /// Stage 2 over the sessions stage 1 did not clear.
    Degree,
    /// Stage 3, one span per session reaching it.
    Ads,
    /// `Engine::ads_update`, one span per call.
    AdsUpdate,
    /// `Engine::find_matches`, one span per call.
    Find,
}

pub const LAYERS: usize = 9;

impl Layer {
    pub fn name(self) -> &'static str {
        [
            "update",
            "queue.offer",
            "queue.pop",
            "graph.apply",
            "classify.label",
            "classify.degree",
            "classify.ads",
            "algos.update_ads",
            "find",
        ][self as usize]
    }
}

/// One recorded span. Times are nanoseconds since the replay began.
#[derive(Clone, Copy)]
pub struct Span {
    /// Spans are numbered as they open; they are listed as they close.
    pub id: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `id` of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Stream index of the update (first of the chunk for `Offer`).
    pub update: u32,
}

/// Where the replay reports its layer boundaries. The untraced replay
/// uses [`NoTrace`], which compiles to nothing.
pub trait Trace {
    fn begin(&mut self, layer: Layer, update: u32);
    /// Close the innermost open span, crediting it `ops` operations.
    fn end(&mut self, ops: u64);
}

pub struct NoTrace;

impl Trace for NoTrace {
    #[inline(always)]
    fn begin(&mut self, _: Layer, _: u32) {}
    #[inline(always)]
    fn end(&mut self, _: u64) {}
}

struct Open {
    layer: Layer,
    start_ns: u64,
    /// Time of this span covered by child spans, their own cost included.
    child_ns: u64,
    id: u32,
    update: u32,
}

/// Spans kept for writing out; later ones are still aggregated.
const SPAN_KEEP: usize = 1 << 20;

/// In-memory span recorder. Self time per layer is aggregated as spans
/// close (a layer's self time is its span minus its children); the first
/// [`SPAN_KEEP`] spans are kept verbatim for `--spans`.
pub struct Spans {
    t0: Instant,
    stack: Vec<Open>,
    next_id: u32,
    pub kept: Vec<Span>,
    pub self_ns: [u64; LAYERS],
    pub spans: [u64; LAYERS],
    pub ops: [u64; LAYERS],
    /// What an empty span measures: one clock read.
    inner_cost_ns: u64,
    /// What an empty span costs its parent.
    outer_cost_ns: u64,
}

impl Spans {
    fn with_costs(inner_cost_ns: u64, outer_cost_ns: u64) -> Spans {
        Spans {
            t0: Instant::now(),
            stack: Vec::with_capacity(8),
            next_id: 0,
            kept: Vec::new(),
            self_ns: [0; LAYERS],
            spans: [0; LAYERS],
            ops: [0; LAYERS],
            inner_cost_ns,
            outer_cost_ns,
        }
    }

    /// A recorder calibrated on empty spans, so that what spans cost is
    /// taken out of the self times they report.
    pub fn new() -> Spans {
        const N: u64 = 200_000;
        let mut probe = Spans::with_costs(0, 0);
        let t = Instant::now();
        for _ in 0..N {
            probe.begin(Layer::Pop, 0);
            probe.end(0);
        }
        let outer = t.elapsed().as_nanos() as u64 / N;
        let inner = probe.self_ns[Layer::Pop as usize] / N;
        Spans::with_costs(inner, outer.max(inner))
    }

    pub fn span_cost_ns(&self) -> u64 {
        self.outer_cost_ns
    }

    #[inline]
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

impl Trace for Spans {
    #[inline]
    fn begin(&mut self, layer: Layer, update: u32) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start_ns = self.now();
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            id,
            update,
        });
    }

    #[inline]
    fn end(&mut self, ops: u64) {
        let end_ns = self.now();
        let open = self.stack.pop().expect("end() pairs with a begin()");
        let dur = end_ns - open.start_ns;
        let l = open.layer as usize;
        self.self_ns[l] += dur
            .saturating_sub(open.child_ns)
            .saturating_sub(self.inner_cost_ns);
        self.spans[l] += 1;
        self.ops[l] += ops;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur + (self.outer_cost_ns - self.inner_cost_ns);
                p.id
            }
            None => u32::MAX,
        };
        if self.kept.len() < SPAN_KEEP {
            self.kept.push(Span {
                id: open.id,
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns,
                parent,
                update: open.update,
            });
        }
    }
}

type Eng<G> = Engine<Box<dyn CsmAlgorithm<G>>, G>;

/// Counts taken at the same boundaries as the spans.
#[derive(Clone, Copy, Default)]
pub struct Counts {
    pub ads_calls: u64,
    pub ads_changed: u64,
    pub find_calls: u64,
    /// Half-edge operations that changed the graph (two per edge update).
    pub half_edge_ops: u64,
    /// `apply_edge_batch` calls (batched backend only).
    pub batch_runs: u64,
    pub batch_ops: u64,
    /// Updates that were label-safe for every session: no engine ran.
    pub all_label_safe: u64,
}

/// What one replay leaves behind.
pub struct Replayed {
    pub wall_s: f64,
    /// Wall time of each churn pass.
    pub pass_s: Vec<f64>,
    /// Per session `(positives, negatives)`.
    pub totals: Vec<(u64, u64)>,
    pub verdicts: Vec<ClassifierStats>,
    pub stats: Vec<RunStats>,
    pub counts: Counts,
    pub final_edges: usize,
}

struct Replay<'a, G: GraphShard, T: Trace> {
    g: G,
    engines: Vec<Eng<G>>,
    totals: Vec<(u64, u64)>,
    /// Label-safe fan-outs not yet folded into each engine, as the
    /// service's deferred path keeps them.
    pending: Vec<u64>,
    flight: FlightRecorder,
    counts: Counts,
    idx: u64,
    tr: &'a mut T,
}

/// Per-session stage of one deletion, judged before the edge goes.
#[derive(Clone, Copy, PartialEq)]
enum Pre {
    LabelSafe,
    Maintain(SafeStage),
    Found(u64),
}

impl<G: GraphShard, T: Trace> Replay<'_, G, T> {
    #[inline]
    fn flight_pair(&mut self, span: SpanId, stage: FlightStage) {
        self.flight.begin(0, span, stage, self.idx);
        self.flight.end(0, span, stage, 0);
    }

    fn find(&mut self, s: usize, e: &EdgeUpdate, positive: bool, span: SpanId) -> u64 {
        self.flight
            .fan_begin(span, FanKind::Engine, s as u32, self.idx);
        self.tr.begin(Layer::Find, self.idx as u32);
        let n = self.engines[s].find_matches(&self.g, e, false).count;
        self.tr.end(1);
        self.flight.fan_end(span, FanKind::Engine, s as u32, n);
        self.counts.find_calls += 1;
        if positive {
            self.totals[s].0 += n;
        } else {
            self.totals[s].1 += n;
        }
        n
    }

    fn ads_update(&mut self, s: usize, e: EdgeUpdate, insert: bool) -> AdsChange {
        self.tr.begin(Layer::AdsUpdate, self.idx as u32);
        let change = self.engines[s].ads_update(&self.g, e, insert);
        self.tr.end(1);
        self.counts.ads_calls += 1;
        self.counts.ads_changed += (change != AdsChange::Unchanged) as u64;
        change
    }

    fn noop(&mut self) {
        let idx = self.idx;
        for eng in &mut self.engines {
            eng.record_noop(idx);
        }
    }

    /// One update on the serial path, in the service's order: inserts
    /// classify stages 1–2 on the old graph, apply, then maintain and
    /// enumerate; deletions classify and enumerate first, then remove,
    /// then maintain.
    fn process_one(&mut self, u: Update) {
        let span = self.flight.begin_span();
        self.flight.begin(0, span, FlightStage::Admit, self.idx);
        match u {
            Update::InsertEdge(e) => self.process_edge(e, true, span),
            Update::DeleteEdge(e) => self.process_edge(e, false, span),
            _ => unreachable!("churn streams hold edge updates only"),
        }
        self.flight.end(0, span, FlightStage::Admit, self.idx);
        self.idx += 1;
    }

    fn process_edge(&mut self, e: EdgeUpdate, insert: bool, span: SpanId) {
        let idx32 = self.idx as u32;
        let g = &self.g;
        let valid = g.is_alive(e.src) && g.is_alive(e.dst) && e.src != e.dst;
        if !valid || insert == g.has_edge(e.src, e.dst) {
            return self.noop();
        }
        let n = self.engines.len();
        if insert {
            self.flight.begin(0, span, FlightStage::Classify, self.idx);
            self.tr.begin(Layer::Label, idx32);
            let mut stage: Vec<Option<SafeStage>> = self
                .engines
                .iter()
                .map(|eng| eng.label_safe(&self.g, &e).then_some(SafeStage::Label))
                .collect();
            self.tr.end(n as u64);
            self.flight_pair(span, FlightStage::SharedProbe);
            if stage.iter().any(Option::is_none) {
                self.tr.begin(Layer::Degree, idx32);
                let mut calls = 0;
                for (s, eng) in self.engines.iter().enumerate() {
                    if stage[s].is_none() {
                        calls += 1;
                        if eng.degree_safe(&self.g, &e, true) {
                            stage[s] = Some(SafeStage::Degree);
                        }
                    }
                }
                self.tr.end(calls);
            }
            self.flight.end(0, span, FlightStage::Classify, 0);

            self.flight.begin(0, span, FlightStage::Apply, 0);
            self.tr.begin(Layer::Apply, idx32);
            self.g
                .insert_edge(e.src, e.dst, e.label)
                .expect("endpoints checked alive");
            self.tr.end(1);
            self.flight.end(0, span, FlightStage::Apply, 0);
            self.counts.half_edge_ops += 2;

            let mut deferred = 0u64;
            for (s, st) in stage.into_iter().enumerate() {
                let verdict = match st {
                    Some(SafeStage::Label) => {
                        self.pending[s] += 1;
                        deferred += 1;
                        continue;
                    }
                    Some(st) => {
                        self.ads_update(s, e, true);
                        Classified::Safe(st)
                    }
                    None => {
                        let change = self.ads_update(s, e, true);
                        let safe3 = change == AdsChange::Unchanged && {
                            self.tr.begin(Layer::Ads, idx32);
                            let v = self.engines[s].candidates_safe(&self.g, &e);
                            self.tr.end(1);
                            v
                        };
                        if safe3 {
                            Classified::Safe(SafeStage::Ads)
                        } else {
                            self.find(s, &e, true, span);
                            Classified::Unsafe
                        }
                    }
                };
                self.engines[s].record_verdict(verdict, self.idx);
            }
            self.fan_aggregate(span, deferred);
        } else {
            let e = EdgeUpdate::new(
                e.src,
                e.dst,
                self.g
                    .edge_label(e.src, e.dst)
                    .expect("edge checked present"),
            );
            self.flight_pair(span, FlightStage::SharedProbe);
            self.flight.begin(0, span, FlightStage::Classify, self.idx);
            self.tr.begin(Layer::Label, idx32);
            let mut pre: Vec<Option<Pre>> = self
                .engines
                .iter()
                .map(|eng| eng.label_safe(&self.g, &e).then_some(Pre::LabelSafe))
                .collect();
            self.tr.end(n as u64);
            if pre.iter().any(Option::is_none) {
                self.tr.begin(Layer::Degree, idx32);
                let mut calls = 0;
                for (s, eng) in self.engines.iter().enumerate() {
                    if pre[s].is_none() {
                        calls += 1;
                        if eng.degree_safe(&self.g, &e, false) {
                            pre[s] = Some(Pre::Maintain(SafeStage::Degree));
                        }
                    }
                }
                self.tr.end(calls);
            }
            for (s, p) in pre.iter_mut().enumerate() {
                if p.is_some() {
                    continue;
                }
                self.tr.begin(Layer::Ads, idx32);
                let safe3 = self.engines[s].candidates_safe(&self.g, &e);
                self.tr.end(1);
                *p = Some(if safe3 {
                    Pre::Maintain(SafeStage::Ads)
                } else {
                    Pre::Found(self.find(s, &e, false, span))
                });
            }
            self.flight.end(0, span, FlightStage::Classify, 0);

            self.flight.begin(0, span, FlightStage::Apply, 0);
            self.tr.begin(Layer::Apply, idx32);
            self.g
                .remove_edge(e.src, e.dst)
                .expect("endpoints checked alive");
            self.tr.end(1);
            self.flight.end(0, span, FlightStage::Apply, 0);
            self.counts.half_edge_ops += 2;

            let mut deferred = 0u64;
            for (s, p) in pre.into_iter().enumerate() {
                let verdict = match p.expect("every session was staged") {
                    Pre::LabelSafe => {
                        self.pending[s] += 1;
                        deferred += 1;
                        continue;
                    }
                    Pre::Maintain(st) => Classified::Safe(st),
                    Pre::Found(_) => Classified::Unsafe,
                };
                self.ads_update(s, e, false);
                self.engines[s].record_verdict(verdict, self.idx);
            }
            self.fan_aggregate(span, deferred);
        }
    }

    fn fan_aggregate(&mut self, span: SpanId, count: u64) {
        self.counts.all_label_safe += (count == self.engines.len() as u64) as u64;
        self.flight
            .fan_aggregate(span, FanKind::Deferred, count, self.idx);
    }

    /// May `u` join the current batched run? Mirrors the service's
    /// sharded drain: edge updates that are label-safe for every session,
    /// deletions only on pairs the run has not touched.
    fn admit_to_run(
        &mut self,
        u: &Update,
        touched: &HashSet<(VertexId, VertexId)>,
    ) -> Option<(EdgeUpdate, bool)> {
        let (e, insert) = match *u {
            Update::InsertEdge(e) => (e, true),
            Update::DeleteEdge(e) => (e, false),
            _ => return None,
        };
        let e = if insert {
            e
        } else {
            if touched.contains(&(e.src.min(e.dst), e.src.max(e.dst))) {
                return None;
            }
            EdgeUpdate::new(e.src, e.dst, self.g.edge_label(e.src, e.dst)?)
        };
        self.tr.begin(Layer::Label, self.idx as u32);
        let all = self.engines.iter().all(|eng| eng.label_safe(&self.g, &e));
        self.tr.end(self.engines.len() as u64);
        all.then_some((e, insert))
    }

    /// Apply the collected run as one `apply_edge_batch` and fan out.
    fn flush_run(
        &mut self,
        ops: &mut Vec<(EdgeUpdate, bool)>,
        touched: &mut HashSet<(VertexId, VertexId)>,
    ) {
        touched.clear();
        if ops.is_empty() {
            return;
        }
        let mut changed = Vec::with_capacity(ops.len());
        let bspan = self.flight.begin_span();
        self.flight
            .begin(0, bspan, FlightStage::Apply, ops.len() as u64);
        self.tr.begin(Layer::Apply, self.idx as u32);
        self.g.apply_edge_batch(ops, &mut changed);
        self.tr.end(ops.len() as u64);
        self.flight
            .end(0, bspan, FlightStage::Apply, ops.len() as u64);
        // One zero-width tag pair per shard, as the service records.
        for shard in 0..self.g.num_shards() {
            self.flight
                .begin(0, bspan, FlightStage::Apply, shard as u64);
            self.flight.end(0, bspan, FlightStage::Apply, 0);
        }
        self.counts.batch_runs += 1;
        self.counts.batch_ops += ops.len() as u64;
        let sessions = self.engines.len() as u64;
        for did in changed {
            let span = self.flight.begin_span();
            self.flight.begin(0, span, FlightStage::Admit, self.idx);
            if did {
                self.counts.half_edge_ops += 2;
                for p in &mut self.pending {
                    *p += 1;
                }
                self.fan_aggregate(span, sessions);
            } else {
                self.noop();
            }
            self.flight.end(0, span, FlightStage::Admit, self.idx);
            self.idx += 1;
        }
        ops.clear();
    }
}

/// Replay `stream` through the layers; `threads` is each engine's inner
/// width. A backend with more than one shard gets the sharded drain's run
/// batching, as in the service.
pub fn replay<G: Backend, T: Trace>(
    inputs: &Inputs,
    threads: usize,
    stream: &[Update],
    tr: &mut T,
) -> Replayed {
    let (g, _) = G::build(&inputs.initial);
    let cfg = ServiceConfig::default();
    let engines: Vec<Eng<G>> = inputs
        .queries
        .iter()
        .map(|(algo, q)| {
            let a: Box<dyn CsmAlgorithm<G>> = Box::new(algo.build(&g, q));
            Engine::new(&g, q.clone(), a, session_config(threads))
                .expect("generated queries are valid")
        })
        .collect();
    let queue = AdmissionQueue::new(cfg.queue_capacity, Backpressure::Block)
        .expect("default capacity is positive");
    let n = engines.len();
    let batched = g.num_shards() > 1;
    let mut r = Replay {
        g,
        engines,
        totals: vec![(0, 0); n],
        pending: vec![0; n],
        flight: FlightRecorder::new(FlightConfig::with_capacity(cfg.flight_capacity)),
        counts: Counts::default(),
        idx: 0,
        tr,
    };
    let mut ops: Vec<(EdgeUpdate, bool)> = Vec::new();
    let mut touched: HashSet<(VertexId, VertexId)> = HashSet::new();

    let mut pass_s = Vec::with_capacity(stream.len() / inputs.pass_len + 1);
    let t0 = Instant::now();
    let mut last = t0;
    for pass in stream.chunks(inputs.pass_len) {
        for chunk in pass.chunks(cfg.queue_capacity) {
            r.tr.begin(Layer::Offer, r.idx as u32);
            for &u in chunk {
                queue.offer(u).expect("chunk fits the queue");
            }
            r.tr.end(chunk.len() as u64);
            loop {
                // In a batched run the update's index is not known until the
                // run flushes; spans carry the index of the run's first update.
                r.tr.begin(Layer::Update, r.idx as u32);
                r.tr.begin(Layer::Pop, r.idx as u32);
                let popped = queue.pop();
                r.tr.end(1);
                let Some(u) = popped else {
                    r.tr.end(0);
                    break;
                };
                if batched {
                    match r.admit_to_run(&u, &touched) {
                        Some((e, insert)) => {
                            touched.insert((e.src.min(e.dst), e.src.max(e.dst)));
                            ops.push((e, insert));
                        }
                        None => {
                            r.flush_run(&mut ops, &mut touched);
                            r.process_one(u);
                        }
                    }
                } else {
                    r.process_one(u);
                }
                r.tr.end(1);
            }
            if batched {
                r.tr.begin(Layer::Update, r.idx as u32);
                r.flush_run(&mut ops, &mut touched);
                r.tr.end(0);
            }
        }
        let now = Instant::now();
        pass_s.push((now - last).as_secs_f64());
        last = now;
    }
    let wall = last - t0;

    for (eng, &p) in r.engines.iter_mut().zip(&r.pending) {
        eng.flush_label_safe(p, std::time::Duration::ZERO);
    }
    Replayed {
        wall_s: wall.as_secs_f64(),
        pass_s,
        totals: r.totals,
        verdicts: r.engines.iter().map(|e| e.stats.classifier).collect(),
        stats: r.engines.iter().map(|e| e.stats.clone()).collect(),
        counts: r.counts,
        final_edges: r.g.num_edges(),
    }
}
