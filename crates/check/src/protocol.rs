//! A faithful port of the inner-update executor's coordination protocol
//! (paper §4.1, Algorithm 2; `paracosm_core::inner`) onto the
//! [`sync`] facade, stripped of the search itself: tasks are
//! just node ids in a precomputed forest, and "executing" a task bumps
//! counters and either donates or inlines its children exactly the way
//! `parallel_find_matches` does.
//!
//! Two worker revisions are provided:
//!
//! * `worker_fixed` — the shipped protocol: `active` starts at the
//!   worker count and a worker deregisters only while demonstrably idle,
//!   re-registering *before* it steals again. A worker can only observe
//!   `Empty && active == 0` when every task has been executed (quiescence).
//! * `worker_buggy` — the seed revision's accounting, kept behind
//!   [`ProtocolCfg::lost_wakeup_bug`]: `active` counts *currently
//!   executing* workers, incremented only after a successful steal. In the
//!   window between a peer's `Steal::Success` and its `fetch_add`, an idle
//!   worker observes `Empty && active == 0` and exits while work remains —
//!   the lost-wakeup/early-exit bug the model tests must catch.
//!
//! [`ProtocolCfg::lazy_after`] ports the executor's helper admission: the
//! caller is worker 0 and starts alone with `active = 1`; once it has
//! executed `k` tasks and still sees work queued, it registers the other
//! workers in one `fetch_add` and only then spawns them.
//!
//! Every worker runs a god-view check at its exit point: leaving the pool
//! while undelivered tasks remain is recorded as a quiescence violation in
//! [`Outcome::quiescence_violations`].
//!
//! Tasks may also carry a match weight ([`TaskForest::weight`]), the bulk
//! count a last-level search hands `WorkerSink::report_count`. Workers
//! reserve it against a shared cap ([`ProtocolCfg::cap`]) exactly as
//! `WorkerSink` does — `prev = reported.fetch_add(k)` grants
//! `min(k, cap − prev)` — and tally the grant locally; the sum of the
//! tallies is [`Outcome::granted`]. [`ProtocolCfg::count_before_reserve`]
//! keeps the pre-reservation accounting (count one match locally, then bump
//! the shared counter), which overshoots the cap under some schedules.

use crate::sync;
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crossbeam_deque::{Injector, Steal};
use std::sync::Arc;

/// A static forest of task ids: roots are injected up front, children are
/// produced by executing their parent (donated to the queue or inlined,
/// mirroring the executor's adaptive splitting).
#[derive(Clone, Debug)]
pub struct TaskForest {
    pub roots: Vec<usize>,
    /// `children[id]` lists the tasks produced by executing `id`.
    pub children: Vec<Vec<usize>>,
    /// `weight[id]` matches are delivered by executing `id` (0: none).
    pub weight: Vec<u64>,
}

impl TaskForest {
    /// The shape used by the model tests: three roots, one of which fans
    /// out two levels, so schedules mix donation, inlining, and idling.
    pub fn small() -> TaskForest {
        TaskForest {
            roots: vec![0, 1, 2],
            children: vec![vec![3, 4], vec![], vec![], vec![5], vec![], vec![]],
            weight: vec![0; 6],
        }
    }

    /// The same forest with `weight(id)` matches on task `id`.
    pub fn weighted(mut self, weight: impl Fn(usize) -> u64) -> TaskForest {
        self.weight = (0..self.children.len()).map(weight).collect();
        self
    }

    /// A chain of fan-outs: working alone, worker 0 donates the first
    /// child of each task it runs (the queue is empty, a peer looks idle)
    /// and inlines the second, so work is still queued for lazily
    /// admitted helpers after 0, 1, 2 or 3 executed tasks.
    pub fn chain() -> TaskForest {
        let mut children = vec![Vec::new(); 9];
        for (parent, kids) in [(0, [1, 2]), (1, [3, 4]), (3, [5, 6]), (5, [7, 8])] {
            children[parent] = kids.to_vec();
        }
        TaskForest {
            roots: vec![0],
            children,
            weight: vec![0; 9],
        }
    }

    /// A wider forest for the real-thread stress test.
    pub fn wide(roots: usize, fanout: usize) -> TaskForest {
        let mut children = vec![Vec::new(); roots];
        for r in 0..roots {
            let mut kids = Vec::new();
            for _ in 0..fanout {
                kids.push(children.len());
                children.push(Vec::new());
            }
            children[r] = kids;
        }
        TaskForest {
            roots: (0..roots).collect(),
            weight: vec![0; children.len()],
            children,
        }
    }

    /// Total task count (every node in `children` is reachable).
    pub fn total(&self) -> u64 {
        self.children.len() as u64
    }
}

/// One protocol run's configuration.
#[derive(Clone, Debug)]
pub struct ProtocolCfg {
    pub workers: usize,
    pub forest: TaskForest,
    /// Run the seed revision's idle accounting instead of the fix.
    pub lost_wakeup_bug: bool,
    /// Port of the abort protocol: after this many tasks have executed,
    /// set the shared abort flag; later deliveries skip execution. The
    /// quiescence check is disabled (expected counts are schedule-
    /// dependent under abort) — the asserted property becomes "all
    /// workers exit and nothing is delivered twice".
    pub abort_after: Option<u64>,
    /// Shared match cap the task weights are reserved against; reaching
    /// it raises the abort flag, like `InnerConfig::cap`.
    pub cap: Option<u64>,
    /// Run the pre-reservation cap accounting instead of the fix.
    pub count_before_reserve: bool,
    /// Port of helper admission: the caller runs worker 0 alone and,
    /// at the first task boundary after `k` executed tasks with work
    /// still queued, registers then spawns the other workers. `None`:
    /// every worker starts at once.
    pub lazy_after: Option<u64>,
}

impl ProtocolCfg {
    pub fn new(workers: usize, forest: TaskForest) -> ProtocolCfg {
        ProtocolCfg {
            workers,
            forest,
            lost_wakeup_bug: false,
            abort_after: None,
            cap: None,
            count_before_reserve: false,
            lazy_after: None,
        }
    }
}

/// What a run observed, read back after every worker has exited.
#[derive(Debug)]
pub struct Outcome {
    /// Per-task delivery count. Exactly-once delivery ⇔ every entry is 1
    /// (without abort; with abort, entries are 0 or 1).
    pub delivered: Vec<u64>,
    /// Tasks whose body actually ran (≤ delivered under abort).
    pub executed: u64,
    /// Times a worker exited the pool while undelivered tasks remained.
    pub quiescence_violations: u64,
    /// Matches counted, summed over the workers' local tallies.
    pub granted: u64,
    /// Reservations that began after the abort flag was raised (god view)
    /// and still counted matches.
    pub late_grants: u64,
    /// Workers that ran, the caller's worker 0 included.
    pub workers_run: usize,
}

struct Shared {
    injector: Injector<usize>,
    /// Fixed protocol: workers not (yet) proven idle, starts at `workers`
    /// (at 1 under lazy admission). Buggy protocol: workers currently
    /// executing a task, starts at 0.
    active: AtomicUsize,
    aborted: AtomicBool,
    /// Matches reserved against `cap` (`RunCtx::reported`).
    reported: AtomicU64,
    delivered: Vec<AtomicU64>,
    executed_total: AtomicU64,
    violations: AtomicU64,
    late_grants: AtomicU64,
    forest: TaskForest,
    workers: usize,
    expected: u64,
    abort_after: Option<u64>,
    cap: Option<u64>,
    count_before_reserve: bool,
}

impl Shared {
    /// God-view check at a worker's exit point: the protocol promises no
    /// worker leaves while tasks remain (quiescence). Schedule-dependent
    /// execution counts under abort make the check meaningless there.
    fn note_exit(&self) {
        if self.abort_after.is_none()
            && self.executed_total.load(Ordering::Acquire) != self.expected
        {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn has_idle_workers(&self) -> bool {
        self.active.load(Ordering::Acquire) < self.workers
    }
}

/// Execute task `id`: count it, deliver its matches into the worker's
/// `local` tally, then donate or inline each child exactly like
/// `parallel_find_matches` (donate only when the queue looks empty and a
/// peer looks idle). A sink that says stop ends the task.
fn exec_task(sh: &Shared, id: usize, local: &mut u64) {
    sh.delivered[id].fetch_add(1, Ordering::Relaxed);
    if sh.aborted.load(Ordering::Relaxed) {
        return;
    }
    let done = sh.executed_total.fetch_add(1, Ordering::AcqRel) + 1;
    if let Some(k) = sh.abort_after {
        if done >= k {
            sh.aborted.store(true, Ordering::Relaxed);
        }
    }
    let w = sh.forest.weight[id];
    if w > 0 && !deliver(sh, w, local) {
        return;
    }
    for i in 0..sh.forest.children[id].len() {
        let child = sh.forest.children[id][i];
        if sh.injector.is_empty() && sh.has_idle_workers() {
            sh.injector.push(child);
        } else {
            exec_task(sh, child, local);
        }
    }
}

/// `WorkerSink::report_count(k)`: reserve, then count the grant. The god
/// view notes a reservation that starts after the abort is up and still
/// counts.
fn deliver(sh: &Shared, k: u64, local: &mut u64) -> bool {
    let abort_seen = sh.aborted.load(Ordering::Acquire);
    let (granted, keep) = if sh.count_before_reserve {
        count_then_check(sh, k, local)
    } else {
        let (granted, keep) = reserve(sh, k);
        *local += granted;
        (granted, keep)
    };
    if abort_seen && granted > 0 {
        sh.late_grants.fetch_add(1, Ordering::Relaxed);
    }
    keep
}

/// The shipped reservation (mirrors `paracosm_core::inner::WorkerSink`).
fn reserve(sh: &Shared, k: u64) -> (u64, bool) {
    if sh.aborted.load(Ordering::Relaxed) {
        return (0, false);
    }
    let Some(cap) = sh.cap else {
        return (k, true);
    };
    let prev = sh.reported.fetch_add(k, Ordering::Relaxed);
    let granted = k.min(cap.saturating_sub(prev));
    if prev + k >= cap {
        sh.aborted.store(true, Ordering::Relaxed);
        return (granted, false);
    }
    (granted, true)
}

/// The pre-reservation accounting: each match is counted locally *before*
/// the shared counter is bumped, so workers racing past the abort check
/// together all count.
fn count_then_check(sh: &Shared, k: u64, local: &mut u64) -> (u64, bool) {
    for i in 0..k {
        if sh.aborted.load(Ordering::Relaxed) {
            return (i, false);
        }
        *local += 1;
        if let Some(cap) = sh.cap {
            if sh.reported.fetch_add(1, Ordering::Relaxed) + 1 >= cap {
                sh.aborted.store(true, Ordering::Relaxed);
                return (i + 1, false);
            }
        }
    }
    (k, true)
}

/// The shipped protocol (mirrors `paracosm_core::inner::worker_loop`).
/// `admit` runs at every task boundary with the count of tasks this
/// worker has executed: the caller's helper admission, a no-op otherwise.
fn worker_fixed(sh: &Shared, mut admit: impl FnMut(u64)) -> u64 {
    let (mut local, mut executed) = (0, 0);
    loop {
        admit(executed);
        match sh.injector.steal() {
            Steal::Success(id) => {
                exec_task(sh, id, &mut local);
                executed += 1;
            }
            Steal::Retry => sync::thread::yield_now(),
            Steal::Empty => {
                // Deregister while idle; re-register *before* stealing
                // again so a task is never in flight uncounted.
                sh.active.fetch_sub(1, Ordering::AcqRel);
                loop {
                    if !sh.injector.is_empty() {
                        sh.active.fetch_add(1, Ordering::AcqRel);
                        break;
                    }
                    if sh.active.load(Ordering::Acquire) == 0 {
                        sh.note_exit();
                        return local;
                    }
                    sync::thread::yield_now();
                }
            }
        }
    }
}

/// The seed revision's accounting: `active` tracks executing workers only,
/// so a stolen-but-not-yet-counted task opens an early-exit window.
fn worker_buggy(sh: &Shared) -> u64 {
    let mut local = 0;
    loop {
        match sh.injector.steal() {
            Steal::Success(id) => {
                sh.active.fetch_add(1, Ordering::AcqRel);
                exec_task(sh, id, &mut local);
                sh.active.fetch_sub(1, Ordering::AcqRel);
            }
            Steal::Retry => sync::thread::yield_now(),
            Steal::Empty => {
                if sh.active.load(Ordering::Acquire) == 0 {
                    sh.note_exit();
                    return local;
                }
                sync::thread::yield_now();
            }
        }
    }
}

/// Run the protocol to completion under the ambient scheduler (the model
/// scheduler inside a `sched::model` run, plain OS threads otherwise) and
/// return the god-view observations.
pub fn run(cfg: &ProtocolCfg) -> Outcome {
    let total = cfg.forest.total() as usize;
    let active = match (cfg.lost_wakeup_bug, cfg.lazy_after) {
        (true, _) => 0,
        (false, Some(_)) => 1,
        (false, None) => cfg.workers,
    };
    let shared = Arc::new(Shared {
        injector: Injector::new(),
        active: AtomicUsize::new(active),
        aborted: AtomicBool::new(false),
        reported: AtomicU64::new(0),
        delivered: (0..total).map(|_| AtomicU64::new(0)).collect(),
        executed_total: AtomicU64::new(0),
        violations: AtomicU64::new(0),
        late_grants: AtomicU64::new(0),
        forest: cfg.forest.clone(),
        workers: cfg.workers,
        expected: cfg.forest.total(),
        abort_after: cfg.abort_after,
        cap: cfg.cap,
        count_before_reserve: cfg.count_before_reserve,
    });
    for &r in &shared.forest.roots {
        shared.injector.push(r);
    }
    let spawn = |n: usize| -> Vec<_> {
        (0..n)
            .map(|_| {
                let sh = Arc::clone(&shared);
                let buggy = cfg.lost_wakeup_bug;
                sync::thread::spawn(move || {
                    if buggy {
                        worker_buggy(&sh)
                    } else {
                        worker_fixed(&sh, |_| {})
                    }
                })
            })
            .collect()
    };
    let (mut handles, mut granted) = (Vec::new(), 0);
    match cfg.lazy_after {
        None => handles = spawn(cfg.workers),
        Some(k) => {
            // Worker 0 is this thread; register the helpers *before*
            // spawning them, as `inner::run` does.
            granted = worker_fixed(&shared, |executed| {
                if handles.is_empty()
                    && cfg.workers > 1
                    && executed >= k
                    && !shared.injector.is_empty()
                {
                    shared.active.fetch_add(cfg.workers - 1, Ordering::AcqRel);
                    handles = spawn(cfg.workers - 1);
                }
            });
        }
    }
    let workers_run = handles.len() + cfg.lazy_after.is_some() as usize;
    granted += handles
        .into_iter()
        .map(|h| h.join().expect("protocol worker panicked"))
        .sum::<u64>();
    Outcome {
        delivered: shared
            .delivered
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .collect(),
        executed: shared.executed_total.load(Ordering::Acquire),
        quiescence_violations: shared.violations.load(Ordering::Acquire),
        granted,
        late_grants: shared.late_grants.load(Ordering::Acquire),
        workers_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_protocol_delivers_exactly_once_single_worker() {
        let out = run(&ProtocolCfg::new(1, TaskForest::small()));
        assert!(out.delivered.iter().all(|&d| d == 1), "{out:?}");
        assert_eq!(out.executed, TaskForest::small().total());
        assert_eq!(out.quiescence_violations, 0);
    }

    #[test]
    fn lazy_admission_delivers_exactly_once_single_worker() {
        let mut cfg = ProtocolCfg::new(1, TaskForest::chain());
        cfg.lazy_after = Some(0);
        let out = run(&cfg);
        assert!(out.delivered.iter().all(|&d| d == 1), "{out:?}");
        assert_eq!(out.quiescence_violations, 0);
        assert_eq!(out.workers_run, 1);
    }

    #[test]
    fn abort_stops_execution_without_double_delivery() {
        let mut cfg = ProtocolCfg::new(2, TaskForest::wide(8, 4));
        cfg.abort_after = Some(3);
        let out = run(&cfg);
        assert!(out.delivered.iter().all(|&d| d <= 1), "{out:?}");
        assert!(out.executed >= 3.min(cfg.forest.total()));
    }

    #[test]
    fn cap_reservation_grants_min_of_weights_and_cap() {
        let forest = TaskForest::wide(8, 4).weighted(|id| 1 + id as u64 % 5);
        let total: u64 = forest.weight.iter().sum();
        for cap in [None, Some(1), Some(total / 2), Some(total), Some(total + 1)] {
            let mut cfg = ProtocolCfg::new(2, forest.clone());
            cfg.cap = cap;
            let out = run(&cfg);
            assert_eq!(out.granted, cap.map_or(total, |c| c.min(total)), "{out:?}");
            assert_eq!(out.late_grants, 0, "{out:?}");
        }
    }
}
