//! The service path, timed from outside: set-up, the saturated closed-loop
//! phase and the paced open-loop phase. Tracing is off here; the only
//! clock read inside a timed loop is the paced phase's one stamping
//! observer.

use crate::workload::Inputs;
use csm_graph::{DataGraph, GraphShard, ShardConfig, ShardedGraph, Update};
use csm_service::{CsmService, ServiceConfig, ServiceReport, SessionSpec};
use paracosm_core::{CsmAlgorithm, ParaCosmConfig, StreamObserver, UpdateObservation};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A graph backend the benchmark can stand a service on.
pub trait Backend: GraphShard + Sized + 'static {
    /// Build the serving graph from the initial graph. The returned
    /// duration is the part a user pays at set-up (`ShardedGraph` bulk
    /// load); cloning the benchmark's own copy is not.
    fn build(initial: &DataGraph) -> (Self, Duration);
}

impl Backend for DataGraph {
    fn build(initial: &DataGraph) -> (DataGraph, Duration) {
        (initial.clone(), Duration::ZERO)
    }
}

/// Shards of the sharded backend: one per core of the calibration host.
pub const SHARDS: usize = 2;

impl Backend for ShardedGraph {
    fn build(initial: &DataGraph) -> (ShardedGraph, Duration) {
        let t = Instant::now();
        let g = ShardedGraph::from_graph(ShardConfig::hash(SHARDS), initial)
            .expect("a positive shard count is a valid hash partition");
        (g, t.elapsed())
    }
}

/// Where set-up time went, in seconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// `ShardedGraph::from_graph` (zero on the monolithic backend).
    pub graph_s: f64,
    pub service_new_s: f64,
    /// Algorithm construction plus `add_session`, all sessions.
    pub add_session_s: f64,
    /// The `AlgoKind::build` share of `add_session_s` (ADS construction).
    pub rebuild_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.graph_s + self.service_new_s + self.add_session_s
    }
}

/// Per-session ΔM totals as its observer saw them.
#[derive(Default)]
pub struct Tally {
    pub pos: Cell<u64>,
    pub neg: Cell<u64>,
    /// `(pos, neg)` once the update with index `mark_at` was observed.
    pub at_mark: Cell<(u64, u64)>,
}

struct TallyObserver {
    tally: Rc<Tally>,
    mark_at: u64,
}

impl StreamObserver for TallyObserver {
    fn on_update(&mut self, obs: &UpdateObservation) {
        let t = &self.tally;
        t.pos.set(t.pos.get() + obs.positives);
        t.neg.set(t.neg.get() + obs.negatives);
        if obs.index == self.mark_at {
            t.at_mark.set((t.pos.get(), t.neg.get()));
        }
    }
}

/// The paced phase's one clock-reading observer: the last-registered
/// session's, so its return means every session has its ΔM.
struct StampObserver {
    inner: TallyObserver,
    clock: Stamps,
}

/// The stamping observer's shared state: delivery times for the owner
/// thread, and a running count the generator reads to sample the backlog.
#[derive(Clone)]
struct Stamps {
    t0: Instant,
    at_ns: Rc<RefCell<Vec<u64>>>,
    delivered: Arc<AtomicU64>,
}

impl StreamObserver for StampObserver {
    fn on_update(&mut self, obs: &UpdateObservation) {
        self.inner.on_update(obs);
        let mut at = self.clock.at_ns.borrow_mut();
        at.push(self.clock.t0.elapsed().as_nanos() as u64);
        self.clock
            .delivered
            .store(at.len() as u64, Ordering::Relaxed);
    }
}

pub fn session_config(threads: usize) -> ParaCosmConfig {
    ParaCosmConfig::sequential().with_threads(threads)
}

/// Stand up a service on a fresh copy of the initial graph and register
/// every standing query. `stamps` arms the last session's observer with
/// the clock.
fn set_up<G: Backend>(
    inputs: &Inputs,
    threads: usize,
    mark_at: u64,
    stamps: Option<&Stamps>,
) -> (CsmService<G>, Vec<Rc<Tally>>, SetupTimes) {
    let (g, graph_time) = G::build(&inputs.initial);
    let t = Instant::now();
    let mut svc = CsmService::new(g, ServiceConfig::default()).expect("default config is valid");
    let service_new = t.elapsed();
    let mut tallies = Vec::with_capacity(inputs.queries.len());
    let mut rebuild = Duration::ZERO;
    let t = Instant::now();
    for (i, (algo, q)) in inputs.queries.iter().enumerate() {
        let tr = Instant::now();
        let a: Box<dyn CsmAlgorithm<G>> = Box::new(algo.build(svc.graph(), q));
        rebuild += tr.elapsed();
        let tally = Rc::new(Tally::default());
        let counting = TallyObserver {
            tally: Rc::clone(&tally),
            mark_at,
        };
        let last = i + 1 == inputs.queries.len();
        let observer: Box<dyn StreamObserver> = match stamps {
            Some(clock) if last => Box::new(StampObserver {
                inner: counting,
                clock: clock.clone(),
            }),
            _ => Box::new(counting),
        };
        svc.add_session(
            SessionSpec::new(q.clone(), session_config(threads)),
            a,
            observer,
        )
        .expect("generated queries are valid session specs");
        tallies.push(tally);
    }
    let times = SetupTimes {
        graph_s: graph_time.as_secs_f64(),
        service_new_s: service_new.as_secs_f64(),
        add_session_s: t.elapsed().as_secs_f64(),
        rebuild_s: rebuild.as_secs_f64(),
    };
    (svc, tallies, times)
}

/// Set up `reps` times and return every repetition's times.
pub fn time_setup<G: Backend>(inputs: &Inputs, reps: usize, threads: usize) -> Vec<SetupTimes> {
    (0..reps)
        .map(|_| set_up::<G>(inputs, threads, u64::MAX, None).2)
        .collect()
}

/// One session's `(positives, negatives)`: over the whole run, and once
/// the update with index `mark_at` had been observed.
#[derive(Clone, Copy)]
pub struct SessionTotals {
    pub all: (u64, u64),
    pub at_mark: (u64, u64),
}

/// What a finished service run leaves behind.
pub struct Served {
    pub wall_s: f64,
    /// Wall time of each churn pass (saturated phase only).
    pub pass_s: Vec<f64>,
    pub report: ServiceReport,
    /// Edges in the serving graph after the last update.
    pub final_edges: usize,
    /// Per session, as its observer counted.
    pub tallies: Vec<SessionTotals>,
    /// Updates the service refused or failed on.
    pub errors: u64,
    pub flight_spans: u64,
    pub flight_events: u64,
}

fn finish<G: Backend>(
    svc: CsmService<G>,
    tallies: Vec<Rc<Tally>>,
    wall: Duration,
    pass_s: Vec<f64>,
    errors: u64,
) -> Served {
    let final_edges = svc.graph().num_edges();
    let flight = Arc::clone(svc.flight());
    let report = svc.shutdown().expect("shutdown of a drained service");
    let snap = flight.snapshot();
    let flight_events = snap
        .shards
        .iter()
        .zip(&snap.dropped)
        .map(|(evs, dropped)| evs.len() as u64 + dropped)
        .sum();
    Served {
        wall_s: wall.as_secs_f64(),
        pass_s,
        report,
        final_edges,
        tallies: tallies
            .iter()
            .map(|t| SessionTotals {
                all: (t.pos.get(), t.neg.get()),
                at_mark: t.at_mark.get(),
            })
            .collect(),
        errors,
        flight_spans: flight.spans_minted(),
        flight_events,
    }
}

/// Saturated phase: closed loop, one client. The owner thread submits
/// the stream (a full queue drains inline, so work arrives in
/// queue-capacity chunks) and drains at the end of every churn pass, where
/// the clock is read — nowhere else. A pass's wall time runs from its
/// first `submit` to its `drain` returning, all ΔM delivered.
pub fn saturated<G: Backend>(
    inputs: &Inputs,
    threads: usize,
    stream: &[Update],
    mark_at: u64,
) -> Served {
    let (mut svc, tallies, _) = set_up::<G>(inputs, threads, mark_at, None);
    let mut errors = 0u64;
    let mut pass_s = Vec::with_capacity(stream.len() / inputs.pass_len + 1);
    let t0 = Instant::now();
    let mut last = t0;
    for pass in stream.chunks(inputs.pass_len) {
        for &u in pass {
            if svc.submit(u).is_err() {
                errors += 1;
            }
        }
        if svc.drain().is_err() {
            errors += 1;
        }
        let now = Instant::now();
        pass_s.push((now - last).as_secs_f64());
        last = now;
    }
    finish(svc, tallies, last - t0, pass_s, errors)
}

/// What the paced phase measured, times in nanoseconds.
pub struct Paced {
    pub served: Served,
    /// Per update: ΔM delivered to the last session − time it was due.
    pub latency_ns: Vec<u64>,
    /// Per update: time it was sent − time it was due.
    pub gen_lag_ns: Vec<u64>,
    pub depth_max: u64,
    /// Smallest backlog sampled in the final fifth of the phase: a backlog
    /// that grows keeps this high.
    pub depth_end: u64,
}

/// How far ahead of a due time the generator stops sleeping and spins.
const SPIN_WINDOW: Duration = Duration::from_micros(150);
/// The generator samples the backlog (updates sent − updates delivered,
/// so it counts the one in service) every this many sends.
const DEPTH_EVERY: usize = 16;

/// Paced phase: open loop. One generator thread sends `stream` through
/// an `IngestHandle` on a fixed schedule while the owner thread loops
/// `drain()`. Latency counts from the due time, so a stall charges the
/// updates queued behind it.
pub fn paced<G: Backend>(
    inputs: &Inputs,
    rate_per_s: u64,
    threads: usize,
    stream: &[Update],
) -> Paced {
    let n = stream.len();
    let t0 = Instant::now();
    let clock = Stamps {
        t0,
        at_ns: Rc::new(RefCell::new(Vec::with_capacity(n))),
        delivered: Arc::new(AtomicU64::new(0)),
    };
    let (mut svc, tallies, _) = set_up::<G>(inputs, threads, u64::MAX, Some(&clock));
    let handle = svc.ingest();
    let delivered = &*clock.delivered;
    let interval_ns = 1_000_000_000u64 / rate_per_s;
    // Set-up ran after `t0`; the schedule starts once the service is up.
    let start_ns = t0.elapsed().as_nanos() as u64 + 1_000_000;
    let send_errors = AtomicU64::new(0);
    let sent = AtomicU64::new(0);
    let mut drain_errors = 0u64;

    let (gen_lag_ns, depths) = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let mut lag = Vec::with_capacity(n);
            let mut depths = Vec::with_capacity(n / DEPTH_EVERY + 1);
            for (i, &u) in stream.iter().enumerate() {
                let due = start_ns + i as u64 * interval_ns;
                loop {
                    let now = t0.elapsed().as_nanos() as u64;
                    if now >= due {
                        lag.push(now - due);
                        break;
                    }
                    let wait = Duration::from_nanos(due - now);
                    if wait > SPIN_WINDOW {
                        std::thread::sleep(wait - SPIN_WINDOW);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                if i % DEPTH_EVERY == 0 {
                    depths.push((i as u64).saturating_sub(delivered.load(Ordering::Relaxed)));
                }
                if handle.send(u).is_err() {
                    send_errors.fetch_add(1, Ordering::Relaxed);
                }
                sent.fetch_add(1, Ordering::Release);
            }
            (lag, depths)
        });
        // The owner is the only consumer: poll until everything sent has
        // been delivered to the last session.
        loop {
            match svc.drain() {
                Ok(0) => {
                    // A refused or failed update never reaches the observer.
                    let done = delivered.load(Ordering::Relaxed)
                        + send_errors.load(Ordering::Relaxed)
                        + drain_errors;
                    if sent.load(Ordering::Acquire) == n as u64 && done >= n as u64 {
                        break;
                    }
                    std::hint::spin_loop();
                }
                Ok(_) => {}
                Err(_) => drain_errors += 1,
            }
        }
        generator.join().expect("generator thread does not panic")
    });
    let wall = t0.elapsed();

    let latency_ns = clock
        .at_ns
        .borrow()
        .iter()
        .enumerate()
        .map(|(i, &t)| t.saturating_sub(start_ns + i as u64 * interval_ns))
        .collect();
    let tail = &depths[depths.len() - (depths.len() / 5).max(1)..];
    Paced {
        served: finish(
            svc,
            tallies,
            wall,
            Vec::new(),
            send_errors.load(Ordering::Relaxed) + drain_errors,
        ),
        latency_ns,
        gen_lag_ns,
        depth_max: depths.iter().copied().max().unwrap_or(0),
        depth_end: tail.iter().copied().min().unwrap_or(0),
    }
}
