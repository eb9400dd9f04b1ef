//! One workload, one run: generate the inputs, run the phases, check
//! the outputs, name the metrics.
//!
//! `--trace 0` takes the end-to-end numbers with nothing traced: set-up
//! (repeated, median), the saturated closed-loop phase, the paced
//! open-loop phase. `--trace 1` is the separate traced pass: the same
//! service run for the counts it exposes, the layer replay with and
//! without spans, both graph backends over one prefix, the inner-executor
//! baseline, a short paced phase for the queue, and two micro-cells.
//! Stream sizes are `frozen rate × --seconds`, so a run lasts about as
//! long as asked and does a fixed amount of work.

use crate::json::Json;
use crate::metrics::{median, percentile, Measured};
use crate::replay::{self, Layer, NoTrace, Replayed, Spans};
use crate::serve::{self, Backend, Paced, Served, SetupTimes};
use crate::workload::{self, Inputs, WorkloadSpec};
use crate::{micro, EXPECTED};
use csm_graph::{DataGraph, ShardedGraph, Update};
use csm_service::ServiceConfig;
use paracosm_core::ClassifierStats;
use std::path::PathBuf;

/// Shares of `--seconds` each phase's stream is sized for.
const SATURATED_SHARE: f64 = 0.45;
const PACED_SHARE: f64 = 0.45;
const TRACED_STREAM_SHARE: f64 = 0.20;
const TRACED_PACED_SHARE: f64 = 0.10;
const BACKEND_PREFIX_SHARE: f64 = 0.05;
const INNER_PREFIX_SHARE: f64 = 0.03;
/// Consecutive paced samples per window of the windowed percentiles.
const WINDOW: usize = 1000;
/// With fewer windows than this the percentiles are over all samples: at
/// a few hundred updates a second a stall's shadow is a sample or two, and
/// a median of three windows is worse than none.
const MIN_WINDOWS: usize = 5;

pub struct RunArgs {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Widest any phase may go: the host's core count unless `--threads`.
    pub max_threads: usize,
    pub nproc: usize,
    pub spans_out: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Measured,
    /// Sizes, sample counts, totals and failed checks, for the result file.
    pub detail: Json,
}

/// Output checks that did not hold, and how many were made.
#[derive(Default)]
struct Checks {
    made: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn updates_for(rate: u64, share: f64, seconds: f64) -> u64 {
    ((rate as f64) * share * seconds).round() as u64
}

/// The whole-pass prefix of the stream closest to `updates` long.
fn pass_prefix(inputs: &Inputs, updates: u64) -> &[Update] {
    let passes = (updates as f64 / inputs.pass_len as f64).round() as usize;
    &inputs.stream[..passes.clamp(1, inputs.passes) * inputs.pass_len]
}

/// Total wall time with slow passes taken out: every pass does the same
/// work, so the median pass times the pass count is what the run takes
/// when the host does not interfere.
fn steady_wall_s(pass_s: &[f64]) -> f64 {
    median(pass_s) * pass_s.len() as f64
}

fn sum_verdicts<'a>(stats: impl Iterator<Item = &'a ClassifierStats>) -> ClassifierStats {
    let mut total = ClassifierStats::default();
    for s in stats {
        total.merge(s);
    }
    total
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// The totals a run must reproduce exactly for a given seed and length.
fn golden(inputs: &Inputs, served: &Served) -> Json {
    let v = sum_verdicts(served.report.sessions.iter().map(|r| &r.stats.classifier));
    Json::obj([
        ("stream_hash", Json::str(hex(inputs.stream_hash))),
        ("stream_len", Json::num(inputs.stream.len() as f64)),
        (
            "sessions",
            Json::Arr(
                served
                    .report
                    .sessions
                    .iter()
                    .map(|r| {
                        Json::Arr(vec![
                            Json::num(r.stats.positives as f64),
                            Json::num(r.stats.negatives as f64),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "verdicts",
            Json::Arr(
                [
                    v.safe_label,
                    v.safe_degree,
                    v.safe_ads,
                    v.unsafe_count,
                    v.noops,
                ]
                .iter()
                .map(|&x| Json::num(x as f64))
                .collect(),
            ),
        ),
    ])
}

/// Checks every saturated service run must pass: nothing refused, whole
/// churn passes cancel out, the graph is back where it began, observers
/// and the shutdown report agree, and — for the seed and length the
/// golden file was written for — the totals match it exactly.
fn check_served(c: &mut Checks, args: &RunArgs, inputs: &Inputs, served: &Served) -> Json {
    c.check(served.errors == 0, || {
        format!("{} updates refused or failed", served.errors)
    });
    c.check(
        served.report.shed == 0 && served.report.rejected == 0,
        || "the queue shed or rejected updates".to_string(),
    );
    c.check(
        served.report.processed == inputs.stream.len() as u64,
        || {
            format!(
                "processed {} of {} updates",
                served.report.processed,
                inputs.stream.len()
            )
        },
    );
    c.check(served.final_edges == inputs.initial.num_edges(), || {
        format!(
            "graph ends with {} edges, began with {}",
            served.final_edges,
            inputs.initial.num_edges()
        )
    });
    for (i, (r, t)) in served
        .report
        .sessions
        .iter()
        .zip(&served.tallies)
        .enumerate()
    {
        c.check(r.stats.positives == r.stats.negatives, || {
            format!(
                "session {i}: +{} != -{} over whole churn passes",
                r.stats.positives, r.stats.negatives
            )
        });
        c.check((r.stats.positives, r.stats.negatives) == t.all, || {
            format!("session {i}: observer and shutdown report disagree")
        });
    }
    let got = golden(inputs, served);
    let key = format!("{}/t{}", args.spec.name, args.trace as u8);
    let expected = Json::parse(EXPECTED).expect("expected.json is valid JSON");
    let applies = expected.get("seed").and_then(Json::as_f64) == Some(args.seed as f64)
        && expected.get("seconds").and_then(Json::as_f64) == Some(args.seconds);
    if let (true, Some(want)) = (applies, expected.get("workloads").and_then(|w| w.get(&key))) {
        c.check(*want == got, || {
            format!("golden totals differ: expected {want}, got {got}")
        });
    }
    got
}

fn setup_medians(reps: &[SetupTimes]) -> SetupTimes {
    let med = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    SetupTimes {
        graph_s: med(|s| s.graph_s),
        service_new_s: med(|s| s.service_new_s),
        add_session_s: med(|s| s.add_session_s),
        rebuild_s: med(|s| s.rebuild_s),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency of the paced phase, in microseconds.
///
/// `p50_us` and `p99_us` are medians over windows of [`WINDOW`]
/// consecutive updates of each window's percentile (one window holds
/// everything when there would be fewer than [`MIN_WINDOWS`]). The host takes a core
/// away for milliseconds several times a second; at 10⁵ updates/s the
/// shadow of those stalls is about a hundredth of all samples, so a plain
/// p99 measures the host. A window's percentile is unaffected unless a
/// stall falls in it, and most windows have none. `p999_us` and
/// `over_limit` are over all samples, stalls included.
struct Latency {
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    over_limit: u64,
}

fn latency(paced: &Paced, limit_us: u64) -> Latency {
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let window = if paced.latency_ns.len() < MIN_WINDOWS * WINDOW {
        paced.latency_ns.len().max(1)
    } else {
        WINDOW
    };
    for w in paced.latency_ns.chunks(window) {
        let mut w = w.to_vec();
        w.sort_unstable();
        p50s.push(percentile(&w, 50.0) as f64 / 1e3);
        p99s.push(percentile(&w, 99.0) as f64 / 1e3);
    }
    let mut all = paced.latency_ns.clone();
    all.sort_unstable();
    Latency {
        p50_us: median(&p50s),
        p99_us: median(&p99s),
        p999_us: percentile(&all, 99.9) as f64 / 1e3,
        over_limit: all.iter().filter(|&&ns| ns > limit_us * 1000).count() as u64,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.spec.shards > 1 {
        run_on::<ShardedGraph, DataGraph>(args)
    } else {
        run_on::<DataGraph, ShardedGraph>(args)
    }
}

/// `G` is the workload's backend, `Other` the one it is compared with.
fn run_on<G: Backend, Other: Backend>(args: &RunArgs) -> Outcome {
    let spec = args.spec;
    let threads = spec.inner_threads.min(args.max_threads);
    let (stream_share, paced_share) = if args.trace {
        (TRACED_STREAM_SHARE, TRACED_PACED_SHARE)
    } else {
        (SATURATED_SHARE, PACED_SHARE)
    };
    let inputs = workload::generate(
        spec,
        args.seed,
        updates_for(spec.sat_updates_per_s, stream_share, args.seconds),
    );
    let stream = &inputs.stream[..];
    let paced_stream = pass_prefix(
        &inputs,
        updates_for(spec.rate_per_s, paced_share, args.seconds),
    );
    let paced_len = paced_stream.len();

    let mut c = Checks::default();
    let served = serve::saturated::<G>(&inputs, threads, stream, paced_len as u64 - 1);
    // Read before the paced phase and the repeated set-ups: each stands
    // up another service on what the allocator kept of the last, and how
    // much it kept differs from run to run.
    let peak_rss = peak_rss_mb();
    let totals = check_served(&mut c, args, &inputs, &served);
    let paced = serve::paced::<G>(&inputs, spec.rate_per_s, threads, paced_stream);
    c.check(paced.served.errors == 0, || {
        format!(
            "paced phase: {} updates refused or failed",
            paced.served.errors
        )
    });
    c.check(paced.latency_ns.len() == paced_len, || {
        format!(
            "paced phase delivered {} of {paced_len} updates",
            paced.latency_ns.len()
        )
    });
    for (i, (p, s)) in paced.served.tallies.iter().zip(&served.tallies).enumerate() {
        c.check(p.all == s.at_mark, || {
            format!("session {i}: paced ΔM differs from the saturated phase's over the same prefix")
        });
    }
    let phases = Phases {
        inputs: &inputs,
        threads,
        served: &served,
        setup: setup_medians(&serve::time_setup::<G>(&inputs, spec.setup_reps, threads)),
        paced: &paced,
        lat: latency(&paced, spec.limit_us),
    };
    let errors = served.errors + paced.served.errors;
    let attempted = (stream.len() + paced_len) as u64;

    let mut detail = vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::num(args.seed as f64)),
        ("seconds", Json::num(args.seconds)),
        ("trace", Json::num(args.trace as u8 as f64)),
        ("threads", Json::num(threads as f64)),
        ("shards", Json::num(spec.shards as f64)),
        ("sessions", Json::num(inputs.queries.len() as f64)),
        ("sample_edges", Json::num(spec.sample_edges as f64)),
        ("passes", Json::num(inputs.passes as f64)),
        ("stream_len", Json::num(stream.len() as f64)),
        (
            "sat_updates_per_s",
            Json::num(spec.sat_updates_per_s as f64),
        ),
        ("rate_per_s", Json::num(spec.rate_per_s as f64)),
        ("limit_us", Json::num(spec.limit_us as f64)),
        ("paced_samples", Json::num(paced_len as f64)),
        ("setup_reps", Json::num(spec.setup_reps as f64)),
        ("totals", totals),
    ];

    let metrics = if args.trace {
        traced::<G, Other>(args, &phases, &mut c, &mut detail)
    } else {
        vec![
            (
                "updates_per_s",
                inputs.pass_len as f64 / median(&served.pass_s),
            ),
            ("latency_p50_us", phases.lat.p50_us),
            ("setup_s", phases.setup.total_s()),
            ("peak_rss_mb", peak_rss),
        ]
    };

    let failed = errors + c.failures.len() as u64;
    detail.push((
        "failed_checks",
        Json::Arr(c.failures.iter().map(Json::str).collect()),
    ));
    Outcome {
        correct: failed == 0,
        attempted: attempted + c.made,
        failed,
        metrics,
        detail: Json::obj(detail),
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn write_spans(path: &PathBuf, spans: &Spans) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tupdate")?;
    for s in &spans.kept {
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{parent}\t{}",
            s.id,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.update
        )?;
    }
    out.flush()
}

/// What the phases every run has in common produced.
struct Phases<'a> {
    inputs: &'a Inputs,
    threads: usize,
    served: &'a Served,
    setup: SetupTimes,
    paced: &'a Paced,
    lat: Latency,
}

/// The traced pass, after the service run it is checked against.
fn traced<G: Backend, Other: Backend>(
    args: &RunArgs,
    phases: &Phases,
    c: &mut Checks,
    detail: &mut Vec<(&'static str, Json)>,
) -> Measured {
    let &Phases {
        inputs,
        threads,
        served,
        ref setup,
        paced,
        ref lat,
    } = phases;
    let spec = args.spec;
    let stream = &inputs.stream[..];

    let mut spans = Spans::new();
    let traced = replay::replay::<G, _>(inputs, threads, stream, &mut spans);
    let plain = replay::replay::<G, _>(inputs, threads, stream, &mut NoTrace);
    check_replay(c, inputs, served, &traced, "traced replay");
    check_replay(c, inputs, served, &plain, "untraced replay");
    if let Some(path) = &args.spans_out {
        if let Err(e) = write_spans(path, &spans) {
            c.check(false, || format!("writing {}: {e}", path.display()));
        }
    }

    // Both backends over one prefix: the same `graph` layer used two ways.
    let prefix = |share: f64| {
        pass_prefix(
            inputs,
            updates_for(spec.sat_updates_per_s, share, args.seconds),
        )
    };
    let backend_prefix = prefix(BACKEND_PREFIX_SHARE);
    let own = serve::saturated::<G>(inputs, threads, backend_prefix, u64::MAX);
    let other = serve::saturated::<Other>(inputs, threads, backend_prefix, u64::MAX);
    for (i, (a, b)) in own.tallies.iter().zip(&other.tallies).enumerate() {
        c.check(a.all == b.all, || {
            format!("session {i}: monolithic and sharded ΔM differ")
        });
    }
    let (mono_s, sharded_s) = if spec.shards > 1 {
        (other.wall_s, own.wall_s)
    } else {
        (own.wall_s, other.wall_s)
    };

    // The single-threaded baseline of the inner executor (paper Fig. 7).
    let inner_prefix = prefix(INNER_PREFIX_SHARE);
    let wide = replay::replay::<G, _>(inputs, args.max_threads.min(2), inner_prefix, &mut NoTrace);
    let narrow = replay::replay::<G, _>(inputs, 1, inner_prefix, &mut NoTrace);
    c.check(wide.totals == narrow.totals, || {
        "parallel and sequential enumeration disagree".to_string()
    });
    let busy: Vec<f64> = {
        let width = wide
            .stats
            .iter()
            .map(|s| s.thread_busy.len())
            .max()
            .unwrap_or(0);
        (0..width)
            .map(|t| {
                wide.stats
                    .iter()
                    .filter_map(|s| s.thread_busy.get(t))
                    .map(|d| d.as_secs_f64())
                    .sum()
            })
            .collect()
    };
    let busy_mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let busy_skew = if busy_mean > 0.0 {
        busy.iter().copied().fold(0.0, f64::max) / busy_mean
    } else {
        1.0
    };

    let intersect = micro::intersect(&inputs.initial, args.seed);
    let flight_ns = micro::flight_record_ns(ServiceConfig::default().flight_capacity);

    let updates = stream.len() as u64;
    let service_s = steady_wall_s(&served.pass_s);
    let replay_s = steady_wall_s(&plain.pass_s);
    let v = sum_verdicts(served.report.sessions.iter().map(|r| &r.stats.classifier));
    let shared = served.report.shared.unwrap_or_default();
    let self_s = |l: Layer| secs(spans.self_ns[l as usize]);
    let self_per_op = |l: Layer| per(spans.self_ns[l as usize] as f64, spans.ops[l as usize]);
    let classify_s = self_s(Layer::Label) + self_s(Layer::Degree) + self_s(Layer::Ads);
    let queue_s = self_s(Layer::Offer) + self_s(Layer::Pop);
    let flight_s = served.flight_events as f64 * flight_ns / 2.0 / 1e9;
    let layers_s = queue_s
        + self_s(Layer::Apply)
        + classify_s
        + self_s(Layer::AdsUpdate)
        + self_s(Layer::Find)
        + flight_s;
    let matches: u64 = plain.totals.iter().map(|t| t.0 + t.1).sum();
    let nodes: u64 = plain.stats.iter().map(|s| s.nodes).sum();
    let engine_fanouts = v.total - v.safe_label - v.noops;
    let mut gen_lag = paced.gen_lag_ns.clone();
    gen_lag.sort_unstable();
    let paced_n = paced.gen_lag_ns.len() as u64;

    detail.push((
        "layer_self_s",
        Json::obj(
            [
                Layer::Update,
                Layer::Offer,
                Layer::Pop,
                Layer::Apply,
                Layer::Label,
                Layer::Degree,
                Layer::Ads,
                Layer::AdsUpdate,
                Layer::Find,
            ]
            .map(|l| (l.name(), Json::num(self_s(l)))),
        ),
    ));
    detail.push((
        "spans_recorded",
        Json::num(spans.spans.iter().sum::<u64>() as f64),
    ));

    vec![
        ("datagen.build_s", inputs.build_s),
        ("datagen.stream_len", updates as f64),
        // The top 48 bits: exact in a double.
        ("datagen.stream_hash", (inputs.stream_hash >> 16) as f64),
        ("queue.offer_ns", self_per_op(Layer::Offer)),
        ("queue.pop_ns", self_per_op(Layer::Pop)),
        ("queue.depth_max", paced.depth_max as f64),
        ("queue.depth_end", paced.depth_end as f64),
        (
            "queue.shed",
            (served.report.shed + paced.served.report.shed) as f64,
        ),
        (
            "queue.rejected",
            (served.report.rejected + paced.served.report.rejected) as f64,
        ),
        ("graph.apply_busy_s", self_s(Layer::Apply)),
        ("graph.apply_ns_per_update", self_per_op(Layer::Apply)),
        ("graph.half_edge_ops", traced.counts.half_edge_ops as f64),
        ("graph.batch_runs", traced.counts.batch_runs as f64),
        (
            "graph.ops_per_batch",
            per(traced.counts.batch_ops as f64, traced.counts.batch_runs),
        ),
        ("graph.sharded_vs_mono_ratio", mono_s / sharded_s),
        ("intersect.ns_per_call", intersect.ns_per_call),
        ("intersect.steps_per_output", intersect.steps_per_output),
        ("classify.label_ns", self_per_op(Layer::Label)),
        ("classify.degree_ns", self_per_op(Layer::Degree)),
        ("classify.ads_ns", self_per_op(Layer::Ads)),
        ("classify.busy_s", classify_s),
        ("classify.safe_label", v.safe_label as f64),
        ("classify.safe_degree", v.safe_degree as f64),
        ("classify.safe_ads", v.safe_ads as f64),
        ("classify.unsafe", v.unsafe_count as f64),
        ("classify.noop", v.noops as f64),
        ("classify.unsafe_ratio", per(v.unsafe_count as f64, v.total)),
        ("algos.update_ads_busy_s", self_s(Layer::AdsUpdate)),
        (
            "algos.update_ads_ns_per_call",
            self_per_op(Layer::AdsUpdate),
        ),
        ("algos.update_ads_calls", traced.counts.ads_calls as f64),
        (
            "algos.ads_changed_ratio",
            per(traced.counts.ads_changed as f64, traced.counts.ads_calls),
        ),
        ("algos.rebuild_s", setup.rebuild_s),
        ("find.busy_s", self_s(Layer::Find)),
        ("find.calls", traced.counts.find_calls as f64),
        ("find.matches", matches as f64),
        ("find.nodes", nodes as f64),
        ("find.nodes_per_match", per(nodes as f64, matches)),
        (
            "find.ns_per_node",
            per(spans.self_ns[Layer::Find as usize] as f64, nodes),
        ),
        ("find.share_pct", 100.0 * self_s(Layer::Find) / replay_s),
        ("inner.parallel_speedup", narrow.wall_s / wide.wall_s),
        (
            "inner.tasks_executed",
            wide.stats.iter().map(|s| s.tasks_executed).sum::<u64>() as f64,
        ),
        (
            "inner.tasks_split",
            wide.stats.iter().map(|s| s.tasks_split).sum::<u64>() as f64,
        ),
        ("inner.busy_skew", busy_skew),
        ("flight.record_ns", flight_ns),
        (
            "flight.events_per_update",
            per(served.flight_events as f64, updates),
        ),
        ("flight.spans_minted", served.flight_spans as f64),
        ("service.wall_s", service_s),
        ("service.replay_wall_s", replay_s),
        ("service.replay_ratio", service_s / replay_s),
        (
            "service.unattributed_pct",
            100.0 * (service_s - layers_s) / service_s,
        ),
        ("shared.hits", shared.hits as f64),
        ("shared.misses", shared.misses as f64),
        ("shared.subpatterns", shared.subpatterns as f64),
        (
            "shared.hit_ratio",
            per(shared.hits as f64, shared.hits + shared.misses),
        ),
        (
            "sessions.fanout_per_update",
            per(engine_fanouts as f64, updates),
        ),
        (
            "sessions.all_label_safe_ratio",
            per(traced.counts.all_label_safe as f64, updates),
        ),
        ("setup.service_new_s", setup.service_new_s),
        ("setup.add_session_s", setup.add_session_s),
        ("paced.latency_p99_us", lat.p99_us),
        ("paced.latency_p999_us", lat.p999_us),
        (
            "paced.over_limit_fraction",
            per((lat.over_limit + paced.served.errors) as f64, paced_n),
        ),
        (
            "paced.failed_fraction",
            per(
                (served.errors + paced.served.errors + c.failures.len() as u64) as f64,
                updates + paced_n,
            ),
        ),
        (
            "harness.gen_lag_p50_us",
            percentile(&gen_lag, 50.0) as f64 / 1e3,
        ),
        (
            "harness.gen_lag_p99_us",
            percentile(&gen_lag, 99.0) as f64 / 1e3,
        ),
        ("harness.paced_samples", paced_n as f64),
        (
            "harness.trace_overhead_pct",
            100.0 * (steady_wall_s(&traced.pass_s) - replay_s) / replay_s,
        ),
        ("harness.span_cost_ns", spans.span_cost_ns() as f64),
        ("harness.nproc", args.nproc as f64),
        ("harness.threads", threads as f64),
    ]
}

/// The replay is an independent implementation of the same pipeline: its
/// per-session ΔM and verdict counts must equal the service's exactly.
fn check_replay(c: &mut Checks, inputs: &Inputs, served: &Served, r: &Replayed, what: &str) {
    c.check(r.final_edges == inputs.initial.num_edges(), || {
        format!("{what}: graph does not end where it began")
    });
    for (i, (rep, t)) in served.report.sessions.iter().zip(&r.totals).enumerate() {
        c.check((rep.stats.positives, rep.stats.negatives) == *t, || {
            format!(
                "{what}: session {i} ΔM +{}/-{} differs from the service's +{}/-{}",
                t.0, t.1, rep.stats.positives, rep.stats.negatives
            )
        });
        c.check(rep.stats.classifier == r.verdicts[i], || {
            format!(
                "{what}: session {i} verdicts {:?} differ from the service's {:?}",
                r.verdicts[i], rep.stats.classifier
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_run(seed: u64) -> Outcome {
        run(&RunArgs {
            spec: workload::find("tenants_64").unwrap(),
            seed,
            seconds: 0.25,
            trace: true,
            max_threads: 1,
            nproc: 1,
            spans_out: None,
        })
    }

    /// Metrics that are counts made by the program: they must repeat
    /// exactly, or a later claim could not rest on them.
    const COUNTS: &[&str] = &[
        "datagen.stream_len",
        "datagen.stream_hash",
        "graph.half_edge_ops",
        "classify.safe_label",
        "classify.safe_degree",
        "classify.safe_ads",
        "classify.unsafe",
        "classify.noop",
        "algos.update_ads_calls",
        "find.calls",
        "find.matches",
        "find.nodes",
        "flight.spans_minted",
        "shared.hits",
        "shared.misses",
        "shared.subpatterns",
    ];

    #[test]
    fn counts_repeat_exactly_and_outputs_check_out() {
        let (a, b) = (traced_run(5), traced_run(5));
        assert!(a.correct && b.correct, "{} / {}", a.detail, b.detail);
        let value = |o: &Outcome, name: &str| {
            o.metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} not reported"))
                .1
        };
        for name in COUNTS {
            assert_eq!(value(&a, name), value(&b, name), "{name}");
        }
        let other = traced_run(6);
        assert_ne!(
            value(&a, "datagen.stream_hash"),
            value(&other, "datagen.stream_hash")
        );
    }

    #[test]
    fn every_catalogue_metric_is_reported_once_per_mode() {
        let names = |o: &Outcome| o.metrics.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        let traced = traced_run(5);
        assert_eq!(
            names(&traced),
            crate::metrics::PER_LAYER
                .iter()
                .map(|m| m.name)
                .collect::<Vec<_>>()
        );
        let untraced = run(&RunArgs {
            spec: workload::find("tenants_64").unwrap(),
            seed: 5,
            seconds: 0.25,
            trace: false,
            max_threads: 1,
            nproc: 1,
            spans_out: None,
        });
        assert!(untraced.correct, "{}", untraced.detail);
        assert_eq!(
            names(&untraced),
            crate::metrics::END_TO_END
                .iter()
                .map(|m| m.name)
                .collect::<Vec<_>>()
        );
    }
}
