//! Runtime configuration of the ParaCOSM framework.

use crate::error::{CsmError, CsmResult};
use crate::trace::profile::ProfileLevel;
use crate::trace::window::WindowConfig;
use crate::trace::TraceLevel;
use std::time::Duration;

/// Tunables for a ParaCOSM run (paper §4; Algorithm 2 globals).
///
/// The struct is `#[non_exhaustive]`: construct it through the presets
/// ([`ParaCosmConfig::sequential`], [`ParaCosmConfig::parallel`],
/// [`ParaCosmConfig::simulated`]) plus the builder-style setters, then
/// adjust individual fields as needed. Builder output is always valid
/// (setters clamp instead of storing zeros); direct field writes are
/// checked by [`ParaCosmConfig::validate`] when an engine is built, so a
/// zero thread count or batch size surfaces as
/// [`CsmError::ConfigInvalid`] instead of a hang or a panic downstream.
///
/// # Examples
///
/// ```
/// use paracosm_core::ParaCosmConfig;
/// use std::time::Duration;
///
/// let cfg = ParaCosmConfig::parallel(4)
///     .with_batch_size(256)
///     .with_time_limit(Duration::from_secs(60));
/// assert!(cfg.validate().is_ok());
///
/// let mut bad = ParaCosmConfig::sequential();
/// bad.batch_size = 0; // raw field write: caught by validate()
/// assert!(bad.validate().is_err());
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ParaCosmConfig {
    /// Worker threads for the inner-update executor. `1` selects the pure
    /// sequential path (the single-threaded baseline of the paper's
    /// experiments).
    pub num_threads: usize,
    /// `SPLIT_DEPTH` from Algorithm 2: search-tree levels (counted from the
    /// root) within which a worker may donate subtrees to the concurrent
    /// queue when idle threads are observed.
    pub split_depth: usize,
    /// Adaptive task-sharing on/off. Disabling reproduces the "unbalanced"
    /// condition of paper Fig. 10: the initial BFS decomposition is still
    /// performed, but workers never re-split afterwards.
    pub load_balance: bool,
    /// Inter-update parallelism (safe-update batching, paper §4.2) on/off.
    pub inter_update: bool,
    /// Batch size `k` for the batch executor.
    pub batch_size: usize,
    /// Stop enumerating after this many matches per update (guards against
    /// combinatorial blow-ups in stress tests; `None` = unbounded, as in the
    /// paper).
    pub match_cap: Option<u64>,
    /// Wall-clock budget for one query run; exceeding it marks the run as a
    /// timeout (the paper's one-hour success-rate criterion, scaled).
    pub time_limit: Option<Duration>,
    /// Collect full embeddings (tests / applications) instead of counting
    /// only (benchmarks).
    pub collect_matches: bool,
    /// The BFS initialization phase keeps decomposing until the task queue
    /// holds at least `seed_task_factor × num_threads` subtrees.
    pub seed_task_factor: usize,
    /// Record per-update latency into `RunStats::latency` (adds one clock
    /// read per update; off by default for benchmark purity).
    pub track_latency: bool,
    /// Observability level (see [`crate::trace`]): `Off` costs one branch
    /// per instrumentation site, `Counters` keeps the sharded registry
    /// live.
    pub trace: TraceLevel,
    /// Capture the `k` slowest updates (with stage breakdown and nodes
    /// visited) into `RunStats::slowest`. `0` disables the capture.
    pub slow_k: usize,
    /// Virtual-scheduler mode: when `Some(n)`, `Find_Matches` runs through
    /// `inner::run_simulated` with `n` virtual workers instead of real
    /// threads, and [`crate::RunStats::find_span`] accumulates the simulated
    /// parallel makespan. Used for thread-scaling experiments on hosts with
    /// fewer cores than the paper's testbed (see DESIGN.md substitutions).
    pub sim_threads: Option<usize>,
    /// Rolling-window telemetry (see [`crate::trace::window`]): when
    /// `Some`, the engine feeds every update observation into a
    /// [`crate::WindowRing`] for live scraping. `None` (the default) costs
    /// a single branch per update, like [`TraceLevel::Off`].
    pub window: Option<WindowConfig>,
    /// Query-profiler level (see [`crate::trace::profile`]): `Off` (the
    /// default) costs one branch per instrumentation site; `Counters`
    /// attributes enumeration cost per (query edge, order depth).
    pub profile: ProfileLevel,
}

impl Default for ParaCosmConfig {
    fn default() -> Self {
        ParaCosmConfig {
            num_threads: 1,
            split_depth: 4,
            load_balance: true,
            inter_update: false,
            batch_size: 1024,
            match_cap: None,
            time_limit: None,
            collect_matches: false,
            seed_task_factor: 4,
            track_latency: false,
            trace: TraceLevel::Off,
            slow_k: 0,
            sim_threads: None,
            window: None,
            profile: ProfileLevel::Off,
        }
    }
}

impl ParaCosmConfig {
    /// The single-threaded baseline configuration.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// The full ParaCOSM configuration with `n` threads: inner-update
    /// parallelism with load balancing plus inter-update batching.
    pub fn parallel(n: usize) -> Self {
        ParaCosmConfig {
            num_threads: n.max(1),
            inter_update: n > 1,
            ..Self::default()
        }
    }

    /// Builder-style setter for the time limit.
    pub fn with_time_limit(mut self, d: Duration) -> Self {
        self.time_limit = Some(d);
        self
    }

    /// Builder-style setter for match collection.
    pub fn collecting(mut self) -> Self {
        self.collect_matches = true;
        self
    }

    /// Builder-style setter for the batch size.
    pub fn with_batch_size(mut self, k: usize) -> Self {
        self.batch_size = k.max(1);
        self
    }

    /// Builder-style setter for the observability level.
    pub fn tracing(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Builder-style setter for the slowest-updates capture depth.
    pub fn with_slow_k(mut self, k: usize) -> Self {
        self.slow_k = k;
        self
    }

    /// Builder-style setter for rolling-window telemetry.
    pub fn windowed(mut self, w: WindowConfig) -> Self {
        self.window = Some(w);
        self
    }

    /// Builder-style setter for the query-profiler level.
    pub fn profiled(mut self, level: ProfileLevel) -> Self {
        self.profile = level;
        self
    }

    /// Is the inner-update executor in play?
    pub fn is_parallel(&self) -> bool {
        self.num_threads > 1
    }

    /// Should `process_stream` route through the batch executor?
    /// True when inter-update parallelism is enabled and the run is
    /// parallel — with real threads or virtual (simulated) workers.
    pub fn use_batch_executor(&self) -> bool {
        self.inter_update && (self.is_parallel() || self.sim_threads.is_some_and(|n| n > 1))
    }

    /// Virtual-scheduler preset: `n` simulated workers, single real thread,
    /// inter-update batching enabled (its wins are classifier-driven and
    /// host-independent).
    pub fn simulated(n: usize) -> Self {
        ParaCosmConfig {
            num_threads: 1,
            sim_threads: Some(n.max(1)),
            inter_update: n > 1,
            ..Self::default()
        }
    }

    /// Builder-style setter for the worker-thread count (clamped to ≥ 1;
    /// use [`ParaCosmConfig::parallel`] to also enable inter-update
    /// batching).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.num_threads = n.max(1);
        self
    }

    /// Check the configuration for values that would misbehave downstream:
    /// zero thread counts (the executor would have no workers), zero batch
    /// sizes (the batch loop would never advance), zero time limits or
    /// simulated-worker counts. Engine constructors
    /// ([`crate::ParaCosm::try_new`], [`crate::Engine::new`]) call this, so
    /// raw field writes are caught at build time with
    /// [`CsmError::ConfigInvalid`] rather than hanging a run.
    pub fn validate(&self) -> CsmResult<()> {
        let invalid = |field: &'static str, reason: &str| {
            Err(CsmError::ConfigInvalid {
                field,
                reason: reason.to_string(),
            })
        };
        if self.num_threads == 0 {
            return invalid(
                "num_threads",
                "must be >= 1 (1 selects the sequential path)",
            );
        }
        if self.batch_size == 0 {
            return invalid("batch_size", "must be >= 1 (the batch loop cannot advance)");
        }
        if self.time_limit == Some(Duration::ZERO) {
            return invalid(
                "time_limit",
                "a zero budget times out before any work; use None",
            );
        }
        if self.sim_threads == Some(0) {
            return invalid(
                "sim_threads",
                "must be >= 1 virtual workers; use None to disable",
            );
        }
        if self.seed_task_factor == 0 {
            return invalid("seed_task_factor", "must be >= 1 (BFS init needs a target)");
        }
        if let Some(w) = self.window {
            if w.epoch_width == Duration::ZERO {
                return invalid("window", "epoch_width must be non-zero");
            }
            if w.num_epochs == 0 {
                return invalid("window", "num_epochs must be >= 1");
            }
        }
        Ok(())
    }

    /// Consume and return the configuration if valid ([`Self::validate`]).
    pub fn validated(self) -> CsmResult<Self> {
        self.validate().map(|()| self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_preset_enables_both_levels() {
        let c = ParaCosmConfig::parallel(8);
        assert_eq!(c.num_threads, 8);
        assert!(c.inter_update);
        assert!(c.load_balance);
        assert!(c.is_parallel());
    }

    #[test]
    fn parallel_of_one_is_sequential() {
        let c = ParaCosmConfig::parallel(1);
        assert!(!c.inter_update);
        assert!(!c.is_parallel());
    }

    #[test]
    fn builders_compose() {
        let c = ParaCosmConfig::sequential()
            .with_time_limit(Duration::from_millis(5))
            .with_batch_size(0)
            .collecting();
        assert_eq!(c.time_limit, Some(Duration::from_millis(5)));
        assert_eq!(c.batch_size, 1); // clamped
        assert!(c.collect_matches);
    }

    #[test]
    fn validate_rejects_zeros_with_field_context() {
        use crate::error::CsmError;
        let mut c = ParaCosmConfig::sequential();
        assert!(c.validate().is_ok());
        c.num_threads = 0;
        match c.validate() {
            Err(CsmError::ConfigInvalid { field, .. }) => assert_eq!(field, "num_threads"),
            other => panic!("expected ConfigInvalid, got {other:?}"),
        }
        c.num_threads = 1;
        c.batch_size = 0;
        assert!(c.validate().is_err());
        c.batch_size = 1;
        c.time_limit = Some(Duration::ZERO);
        assert!(c.validate().is_err());
        c.time_limit = None;
        c.sim_threads = Some(0);
        assert!(c.validate().is_err());
        c.sim_threads = None;
        c.seed_task_factor = 0;
        assert!(c.validate().is_err());
        c.seed_task_factor = 4;
        assert!(c.validated().is_ok());
    }

    #[test]
    fn builders_always_produce_valid_configs() {
        for n in [0usize, 1, 2, 64] {
            assert!(ParaCosmConfig::parallel(n).validate().is_ok());
            assert!(ParaCosmConfig::simulated(n).validate().is_ok());
            assert!(ParaCosmConfig::sequential()
                .with_threads(n)
                .with_batch_size(n)
                .validate()
                .is_ok());
        }
    }

    #[test]
    fn tracing_builder_sets_level() {
        let c = ParaCosmConfig::parallel(4)
            .tracing(TraceLevel::Counters)
            .with_slow_k(5);
        assert_eq!(c.trace, TraceLevel::Counters);
        assert_eq!(c.slow_k, 5);
        assert_eq!(ParaCosmConfig::default().trace, TraceLevel::Off);
    }

    #[test]
    fn profile_builder_sets_level_and_defaults_off() {
        let c = ParaCosmConfig::parallel(2).profiled(ProfileLevel::Counters);
        assert_eq!(c.profile, ProfileLevel::Counters);
        assert!(c.validate().is_ok());
        assert_eq!(ParaCosmConfig::default().profile, ProfileLevel::Off);
    }
}
