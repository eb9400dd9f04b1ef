//! `paracosm-cli` — run continuous subgraph matching from files, the way the
//! original CSM benchmark suites are driven.
//!
//! ```text
//! paracosm-cli --graph G.txt --query Q.txt --stream S.txt [options]
//!
//!   --algo NAME        graphflow|turboflux|symbi|calig|newsp   (default: symbi)
//!   --threads N        worker threads (1 = sequential)         (default: all cores)
//!   --batch N          inter-update batch size                 (default: 1024)
//!   --no-inter         disable inter-update parallelism
//!   --timeout-ms N     per-run time limit
//!   --initial          also count initial matches before streaming
//!   --per-update       print a line per update with its ΔM
//!   --trace LEVEL      off|counters                            (default: off)
//!   --report-json PATH write a machine-readable run report (implies counters)
//!   --slow-k N         capture the N slowest updates in the report
//!   --profile LEVEL    off|counters — per-(order, depth) enumeration
//!                      profiler (the report's "profile" block)
//!   --quiet            suppress the end-of-run latency/verdict summary
//!
//! paracosm-cli explain --graph G.txt --query Q.txt --stream S.txt [options]
//!
//!   Replays the stream with the profiler at level `counters` and prints
//!   the query's oriented seed edges ranked by attributed enumeration
//!   cost — each depth showing its observed candidate cardinality.
//!
//!   --algo NAME        graphflow|turboflux|symbi|calig|newsp   (default: symbi)
//!   --threads N        worker threads (1 = sequential)         (default: all cores)
//!   --top N            print at most N edges                   (default: all)
//!   --json PATH        also write the EXPLAIN document as JSON
//!
//! paracosm-cli serve --graph G.txt --stream S.txt --session Q.txt[:algo[:label]] ...
//!
//!   --session SPEC     standing query: path[:algo[:label]] (repeatable)
//!   --threads N        worker threads per session              (default: 1)
//!   --queue N          admission queue capacity                (default: 1024)
//!   --policy P         block|shed-oldest|reject                (default: block)
//!   --budget-ms N      per-update Find_Matches budget (degradation ladder)
//!   --report-json PATH write the multi-session service report
//!   --quiet            suppress the per-session summary
//!   --telemetry-addr A serve GET /metrics, /healthz, /readyz, /sessions on
//!                      A (e.g. 127.0.0.1:9184; port 0 picks a free port —
//!                      the bound address is printed on startup)
//!   --stall-deadline-ms N  watchdog no-progress deadline  (default: 5000)
//!   --linger-ms N      after draining the stream, keep serving (and the
//!                      telemetry endpoint up) for N ms before shutdown
//!   --shards N         partition the data graph into N hash shards
//!                      (default: 1 = monolithic; per-session ΔM is
//!                      identical; 0 is rejected)
//!   --profile LEVEL    off|counters — per-session enumeration profiler;
//!                      `counters` also serves GET /profile and
//!                      GET /debug/explain/<session>      (default: off)
//!   --flight-capacity N  flight-recorder events retained per shard
//!                      (default: 1024; the recorder is always on)
//!   --dump-flight-on-stall PATH  if any stall was flagged, write the
//!                      flight recorder as Perfetto trace JSON at shutdown
//!   --wedge-ms N       after submitting the stream, hold the queue
//!                      unprocessed for N ms (forces a wedged-queue stall
//!                      when N exceeds the stall deadline; CI/forensics)
//! ```

use paracosm::prelude::*;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: paracosm-cli --graph G.txt --query Q.txt --stream S.txt \
         [--algo name] [--threads N] [--batch N] [--no-inter] \
         [--timeout-ms N] [--initial] [--per-update] [--trace off|counters] \
         [--report-json PATH] [--slow-k N] \
         [--profile off|counters] [--quiet]\n\
         \x20      paracosm-cli explain --graph G.txt --query Q.txt --stream S.txt \
         [--algo name] [--threads N] [--top N] [--json PATH]\n\
         \x20      paracosm-cli serve --graph G.txt --stream S.txt \
         --session Q.txt[:algo[:label]] [--session ...] [--threads N] \
         [--queue N] [--policy block|shed-oldest|reject] [--budget-ms N] \
         [--report-json PATH] [--quiet] [--telemetry-addr ADDR] \
         [--stall-deadline-ms N] [--linger-ms N] [--shards N] \
         [--profile off|counters] [--flight-capacity N] \
         [--dump-flight-on-stall PATH] [--wedge-ms N]"
    );
    std::process::exit(2);
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {what} {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("{what} written to {path}");
}

/// One `--session` argument of the `serve` subcommand:
/// `path[:algo[:label]]`.
struct ServeSession {
    query_path: String,
    kind: AlgoKind,
    label: String,
}

fn parse_session(spec: &str) -> Option<ServeSession> {
    let mut parts = spec.splitn(3, ':');
    let query_path = parts.next()?.to_string();
    let kind = match parts.next() {
        Some(name) => AlgoKind::parse(name)?,
        None => AlgoKind::Symbi,
    };
    let label = parts
        .next()
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}@{query_path}", kind.name()));
    Some(ServeSession {
        query_path,
        kind,
        label,
    })
}

/// Parsed `serve` options that survive past graph loading (everything the
/// graph-generic runner [`serve_with`] needs).
struct ServeOpts {
    sessions: Vec<ServeSession>,
    threads: usize,
    queue: usize,
    policy: Backpressure,
    budget: Option<Duration>,
    report_json: Option<String>,
    quiet: bool,
    telemetry_addr: Option<String>,
    stall_deadline: Duration,
    linger: Duration,
    flight_capacity: usize,
    dump_flight: Option<String>,
    wedge: Duration,
    profile: ProfileLevel,
}

fn serve_main(args: Vec<String>) {
    let (mut graph, mut stream) = (None, None);
    let mut sessions: Vec<ServeSession> = Vec::new();
    let mut threads = 1usize;
    let mut queue = 1024usize;
    let mut policy = Backpressure::Block;
    let mut budget = None;
    let mut report_json: Option<String> = None;
    let mut quiet = false;
    let mut telemetry_addr: Option<String> = None;
    let mut stall_deadline = Duration::from_secs(5);
    let mut linger = Duration::ZERO;
    let mut shards = 1usize;
    let mut flight_capacity = 1024usize;
    let mut dump_flight: Option<String> = None;
    let mut wedge = Duration::ZERO;
    let mut profile = ProfileLevel::Off;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--graph" => graph = Some(val()),
            "--stream" => stream = Some(val()),
            "--session" => {
                sessions.push(parse_session(&val()).unwrap_or_else(|| usage()));
            }
            "--threads" => threads = val().parse().unwrap_or_else(|_| usage()),
            "--queue" => queue = val().parse().unwrap_or_else(|_| usage()),
            "--policy" => policy = Backpressure::parse(&val()).unwrap_or_else(|| usage()),
            "--budget-ms" => {
                budget = Some(Duration::from_millis(
                    val().parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--report-json" => report_json = Some(val()),
            "--quiet" => quiet = true,
            "--telemetry-addr" => telemetry_addr = Some(val()),
            "--stall-deadline-ms" => {
                stall_deadline = Duration::from_millis(val().parse().unwrap_or_else(|_| usage()))
            }
            "--linger-ms" => {
                linger = Duration::from_millis(val().parse().unwrap_or_else(|_| usage()))
            }
            "--shards" => shards = val().parse().unwrap_or_else(|_| usage()),
            "--flight-capacity" => flight_capacity = val().parse().unwrap_or_else(|_| usage()),
            "--dump-flight-on-stall" => dump_flight = Some(val()),
            "--wedge-ms" => {
                wedge = Duration::from_millis(val().parse().unwrap_or_else(|_| usage()))
            }
            "--profile" => profile = ProfileLevel::parse(&val()).unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let (Some(gp), Some(sp)) = (graph, stream) else {
        usage()
    };
    if sessions.is_empty() {
        eprintln!("serve: at least one --session is required");
        usage();
    }

    let g = io::load_data_graph(&gp).unwrap_or_else(|e| {
        eprintln!("failed to load graph {gp}: {e}");
        std::process::exit(1);
    });
    let s = io::load_update_stream(&sp).unwrap_or_else(|e| {
        eprintln!("failed to load stream {sp}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "paracosm-cli serve: |V|={} |E|={} stream={} sessions={} policy={} queue={queue} shards={shards}",
        g.num_vertices(),
        g.num_edges(),
        s.len(),
        sessions.len(),
        policy.name(),
    );
    let opts = ServeOpts {
        sessions,
        threads,
        queue,
        policy,
        budget,
        report_json,
        quiet,
        telemetry_addr,
        stall_deadline,
        linger,
        flight_capacity,
        dump_flight,
        wedge,
        profile,
    };
    // Only an explicit 1 is monolithic: 0 must fail shard-config
    // validation rather than silently serve the monolith.
    if shards != 1 {
        let sg = ShardedGraph::from_graph(ShardConfig::hash(shards), &g).unwrap_or_else(|e| {
            eprintln!("serve: invalid shard config: {e}");
            std::process::exit(1);
        });
        serve_with(sg, &s, opts)
    } else {
        serve_with(g, &s, opts)
    }
}

/// The graph-generic tail of `serve`: identical over a monolithic
/// [`DataGraph`] and a [`ShardedGraph`].
fn serve_with<G: GraphShard>(g: G, s: &UpdateStream, opts: ServeOpts) {
    let mut svc = CsmService::new(
        g,
        ServiceConfig {
            queue_capacity: opts.queue,
            policy: opts.policy,
            flight_capacity: opts.flight_capacity,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1);
    });
    for sess in opts.sessions {
        let q = io::load_query_graph(&sess.query_path).unwrap_or_else(|e| {
            eprintln!("failed to load query {}: {e}", sess.query_path);
            std::process::exit(1);
        });
        let algo = Box::new(sess.kind.build(svc.graph(), &q));
        let mut spec = SessionSpec::new(
            q,
            ParaCosmConfig::parallel(opts.threads).profiled(opts.profile),
        )
        .with_label(sess.label.clone());
        if let Some(b) = opts.budget {
            spec = spec.with_budget(b);
        }
        match svc.add_session(spec, algo, Box::new(NoopObserver)) {
            Ok(id) => eprintln!("session {id}: {} ({})", sess.label, sess.kind.name()),
            Err(e) => {
                eprintln!("failed to register session {}: {e}", sess.label);
                std::process::exit(1);
            }
        }
    }

    if let Some(addr) = &opts.telemetry_addr {
        let cfg = TelemetryConfig::new(addr.clone()).with_stall_deadline(opts.stall_deadline);
        match svc.start_telemetry(cfg) {
            Ok(h) => eprintln!("telemetry: listening on http://{}", h.local_addr()),
            Err(e) => {
                eprintln!("telemetry failed to start: {e}");
                std::process::exit(1);
            }
        }
    }

    // Clone before shutdown so the recorder outlives the service for the
    // optional post-mortem dump.
    let flight = std::sync::Arc::clone(svc.flight());
    for &u in s.updates() {
        match svc.submit(u) {
            Ok(()) => {}
            // Reject policy: the queue counts the refusal; keep serving.
            Err(CsmError::Backpressure { .. }) => {}
            Err(e) => {
                eprintln!("submit failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if opts.wedge > Duration::ZERO {
        // Artificial wedge (CI / stall-forensics demos): hold the admitted
        // updates unprocessed long enough for the watchdog to flag a
        // wedged-queue stall, then drain normally.
        eprintln!("wedging queue for {:?} before draining", opts.wedge);
        std::thread::sleep(opts.wedge);
    }
    if opts.linger > Duration::ZERO {
        // Process everything, then hold the telemetry endpoint open for
        // scrapers (CI curls the endpoints during this window).
        if let Err(e) = svc.drain() {
            eprintln!("drain failed: {e}");
            std::process::exit(1);
        }
        std::thread::sleep(opts.linger);
    }
    let report = svc.shutdown().unwrap_or_else(|e| {
        eprintln!("shutdown failed: {e}");
        std::process::exit(1);
    });

    println!(
        "admitted={} processed={} shed={} rejected={} noops={} invalid={} stalls={} elapsed={:?}",
        report.admitted,
        report.processed,
        report.shed,
        report.rejected,
        report.noops,
        report.invalid,
        report.stalls,
        report.elapsed
    );
    if !opts.quiet {
        for r in &report.sessions {
            let dims = r.session.as_ref().expect("service reports are tagged");
            println!(
                "session {} [{}] algo={}: +{} -{} updates={} overruns={} degraded={} skipped={}",
                dims.session_id,
                dims.label,
                r.algo,
                r.stats.positives,
                r.stats.negatives,
                r.stats.updates,
                dims.budget_overruns,
                dims.degraded,
                dims.skipped
            );
        }
    }
    if let Some(path) = &opts.report_json {
        write_or_die(path, &report.to_json(), "service report");
    }
    if let Some(path) = &opts.dump_flight {
        if report.stalls > 0 {
            write_or_die(path, &flight.perfetto_json(), "flight trace");
        } else {
            eprintln!("no stalls flagged; flight trace not written to {path}");
        }
    }
}

/// `paracosm-cli explain`: replay the stream with the profiler on and
/// print the oriented query edges ranked by attributed enumeration cost.
fn explain_main(args: Vec<String>) {
    let (mut graph, mut query, mut stream) = (None, None, None);
    let mut kind = AlgoKind::Symbi;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut top = usize::MAX;
    let mut json_out: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--graph" => graph = Some(val()),
            "--query" => query = Some(val()),
            "--stream" => stream = Some(val()),
            "--algo" => kind = AlgoKind::parse(&val()).unwrap_or_else(|| usage()),
            "--threads" => threads = val().parse().unwrap_or_else(|_| usage()),
            "--top" => top = val().parse().unwrap_or_else(|_| usage()),
            "--json" => json_out = Some(val()),
            _ => usage(),
        }
    }
    let (Some(gp), Some(qp), Some(sp)) = (graph, query, stream) else {
        usage()
    };
    let g = io::load_data_graph(&gp).unwrap_or_else(|e| {
        eprintln!("failed to load graph {gp}: {e}");
        std::process::exit(1);
    });
    let q = io::load_query_graph(&qp).unwrap_or_else(|e| {
        eprintln!("failed to load query {qp}: {e}");
        std::process::exit(1);
    });
    let s = io::load_update_stream(&sp).unwrap_or_else(|e| {
        eprintln!("failed to load stream {sp}: {e}");
        std::process::exit(1);
    });

    let cfg = ParaCosmConfig::parallel(threads).profiled(ProfileLevel::Counters);
    let algo = kind.build(&g, &q);
    let mut engine: ParaCosm<AnyAlgorithm> = ParaCosm::new(g, q, algo, cfg);
    let out = engine.process_stream(&s).unwrap_or_else(|e| {
        eprintln!("stream failed: {e}");
        std::process::exit(1);
    });

    let report = engine.run_report(Some(out));
    let Some(profile) = report.profile else {
        eprintln!("explain: profiler produced no profile (internal error)");
        std::process::exit(1);
    };

    let total = profile.total_cost();
    println!(
        "explain: algo={} orders={} total_cost={total}",
        kind.name(),
        profile.orders.len()
    );
    for (rank, o) in profile.ranked().iter().take(top).enumerate() {
        println!(
            "rank {rank}: order {} seed ({}-{}) elabel {} cost {} ({:.1}%) deadline_hits={}",
            o.index,
            o.seed.0,
            o.seed.1,
            o.seed_elabel,
            o.cost(),
            100.0 * o.cost() as f64 / total.max(1) as f64,
            o.deadline_hits()
        );
        for d in &o.depths {
            let obs = d
                .observed_card()
                .map(|c| format!("{c:.2}"))
                .unwrap_or_else(|| "-".to_string());
            println!(
                "  depth {}: q{} (vlabel {}) arms={} observed={obs} cost={}",
                d.depth,
                d.qvertex,
                d.vlabel,
                d.backward.len(),
                d.cost()
            );
        }
    }
    if let Some(path) = &json_out {
        let doc = format!(
            "{{\"schema_version\":1,\"source\":\"cli\",\"algo\":\"{}\",\"explain\":{}}}",
            kind.name(),
            profile.explain_json()
        );
        write_or_die(path, &doc, "explain document");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        return serve_main(args);
    }
    if args.first().map(String::as_str) == Some("explain") {
        args.remove(0);
        return explain_main(args);
    }
    let (mut graph, mut query, mut stream) = (None, None, None);
    let mut kind = AlgoKind::Symbi;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut batch = 1024usize;
    let mut inter = true;
    let mut timeout = None;
    let mut initial = false;
    let mut per_update = false;
    let mut trace = TraceLevel::Off;
    let mut report_json: Option<String> = None;
    let mut slow_k = 0usize;
    let mut quiet = false;
    let mut profile = ProfileLevel::Off;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--graph" => graph = Some(val()),
            "--query" => query = Some(val()),
            "--stream" => stream = Some(val()),
            "--algo" => kind = AlgoKind::parse(&val()).unwrap_or_else(|| usage()),
            "--threads" => threads = val().parse().unwrap_or_else(|_| usage()),
            "--batch" => batch = val().parse().unwrap_or_else(|_| usage()),
            "--no-inter" => inter = false,
            "--profile" => profile = ProfileLevel::parse(&val()).unwrap_or_else(|| usage()),
            "--timeout-ms" => {
                timeout = Some(Duration::from_millis(
                    val().parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--initial" => initial = true,
            "--per-update" => per_update = true,
            "--trace" => trace = TraceLevel::parse(&val()).unwrap_or_else(|| usage()),
            "--report-json" => report_json = Some(val()),
            "--slow-k" => slow_k = val().parse().unwrap_or_else(|_| usage()),
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    let (Some(gp), Some(qp), Some(sp)) = (graph, query, stream) else {
        usage()
    };
    // A report's counter block needs the registry; upgrade quietly rather
    // than emitting `"metrics":null`.
    if report_json.is_some() {
        trace = TraceLevel::Counters;
    }

    let g = io::load_data_graph(&gp).unwrap_or_else(|e| {
        eprintln!("failed to load graph {gp}: {e}");
        std::process::exit(1);
    });
    let q = io::load_query_graph(&qp).unwrap_or_else(|e| {
        eprintln!("failed to load query {qp}: {e}");
        std::process::exit(1);
    });
    let s = io::load_update_stream(&sp).unwrap_or_else(|e| {
        eprintln!("failed to load stream {sp}: {e}");
        std::process::exit(1);
    });

    let mut cfg = ParaCosmConfig::parallel(threads)
        .with_batch_size(batch)
        .tracing(trace)
        .with_slow_k(slow_k)
        .profiled(profile);
    cfg.inter_update = inter && threads > 1;
    cfg.track_latency = !quiet;
    if let Some(t) = timeout {
        cfg = cfg.with_time_limit(t);
    }
    eprintln!(
        "paracosm-cli: algo={} |V|={} |E|={} |V(Q)|={} stream={} threads={threads} inter={}",
        kind.name(),
        g.num_vertices(),
        g.num_edges(),
        q.num_vertices(),
        s.len(),
        cfg.inter_update,
    );

    let algo = kind.build(&g, &q);
    let mut engine: ParaCosm<AnyAlgorithm> = ParaCosm::new(g, q, algo, cfg);

    if initial {
        let t0 = std::time::Instant::now();
        let r = engine.initial_matches(false);
        println!("initial matches: {} ({:?})", r.count, t0.elapsed());
    }

    let mut outcome = None;
    if per_update {
        let (mut tp, mut tn) = (0u64, 0u64);
        for (i, &u) in s.updates().iter().enumerate() {
            match engine.process_update(u) {
                Ok(out) => {
                    tp += out.positives;
                    tn += out.negatives;
                    if out.positives + out.negatives > 0 {
                        println!("update {i}: +{} -{}", out.positives, out.negatives);
                    }
                }
                Err(e) => {
                    eprintln!("update {i} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        println!("total: +{tp} -{tn}");
    } else {
        let out = engine.process_stream(&s).unwrap_or_else(|e| {
            eprintln!("stream failed: {e}");
            std::process::exit(1);
        });
        println!(
            "positives={} negatives={} applied={} timed_out={} elapsed={:?}",
            out.positives, out.negatives, out.updates_applied, out.timed_out, out.elapsed
        );
        outcome = Some(out);
    }

    if !quiet {
        let st = engine.stats();
        eprintln!(
            "stats: ads={:?} find={:?} apply={:?} nodes={}",
            st.ads_time, st.find_time, st.apply_time, st.nodes,
        );
        eprintln!("latency: {}", st.latency.summary());
        eprintln!("verdicts: {}", st.classifier.verdict_mix());
        for su in &st.slowest {
            eprintln!(
                "slow #{}: {} latency={:?} (ads={:?} apply={:?} find={:?} nodes={})",
                su.index,
                su.describe(),
                su.latency,
                su.ads,
                su.apply,
                su.find,
                su.nodes
            );
        }
    }
    if let Some(path) = &report_json {
        write_or_die(path, &engine.run_report(outcome).to_json(), "report");
    }
}
