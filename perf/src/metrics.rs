//! The metric catalogue — every name, unit and direction the benchmark
//! prints, and the end-to-end regression bounds — plus the order
//! statistics the reports use. `BENCHMARK.json` is generated from here
//! (`perf manifest`) and a test keeps the two equal.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// What a user of the service sees. `--trace 0` prints exactly these.
pub const END_TO_END: &[MetricDef] = &[
    e2e("updates_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
];

/// One layer each. `--trace 1` prints exactly these.
pub const PER_LAYER: &[MetricDef] = &[
    lo("datagen.build_s", "s"),
    hi("datagen.stream_len", "count"),
    hi("datagen.stream_hash", "count"),
    lo("queue.offer_ns", "ns"),
    lo("queue.pop_ns", "ns"),
    lo("queue.depth_max", "count"),
    lo("queue.depth_end", "count"),
    lo("queue.shed", "count"),
    lo("queue.rejected", "count"),
    lo("graph.apply_busy_s", "s"),
    lo("graph.apply_ns_per_update", "ns"),
    lo("graph.half_edge_ops", "count"),
    lo("graph.batch_runs", "count"),
    hi("graph.ops_per_batch", "count"),
    hi("graph.sharded_vs_mono_ratio", "ratio"),
    lo("intersect.ns_per_call", "ns"),
    lo("intersect.steps_per_output", "ratio"),
    lo("classify.label_ns", "ns"),
    lo("classify.degree_ns", "ns"),
    lo("classify.ads_ns", "ns"),
    lo("classify.busy_s", "s"),
    hi("classify.safe_label", "count"),
    hi("classify.safe_degree", "count"),
    hi("classify.safe_ads", "count"),
    lo("classify.unsafe", "count"),
    lo("classify.noop", "count"),
    lo("classify.unsafe_ratio", "ratio"),
    lo("algos.update_ads_busy_s", "s"),
    lo("algos.update_ads_ns_per_call", "ns"),
    lo("algos.update_ads_calls", "count"),
    lo("algos.ads_changed_ratio", "ratio"),
    lo("algos.rebuild_s", "s"),
    lo("find.busy_s", "s"),
    lo("find.calls", "count"),
    hi("find.matches", "count"),
    lo("find.nodes", "count"),
    lo("find.nodes_per_match", "ratio"),
    lo("find.ns_per_node", "ns"),
    lo("find.share_pct", "%"),
    hi("inner.parallel_speedup", "ratio"),
    lo("inner.tasks_executed", "count"),
    lo("inner.tasks_split", "count"),
    lo("inner.busy_skew", "ratio"),
    lo("flight.record_ns", "ns"),
    lo("flight.events_per_update", "ratio"),
    lo("flight.spans_minted", "count"),
    lo("service.wall_s", "s"),
    lo("service.replay_wall_s", "s"),
    lo("service.replay_ratio", "ratio"),
    lo("service.unattributed_pct", "%"),
    hi("shared.hits", "count"),
    lo("shared.misses", "count"),
    lo("shared.subpatterns", "count"),
    hi("shared.hit_ratio", "ratio"),
    lo("sessions.fanout_per_update", "ratio"),
    hi("sessions.all_label_safe_ratio", "ratio"),
    lo("setup.service_new_s", "s"),
    lo("setup.add_session_s", "s"),
    lo("paced.latency_p99_us", "us"),
    lo("paced.latency_p999_us", "us"),
    lo("paced.over_limit_fraction", "ratio"),
    lo("paced.failed_fraction", "ratio"),
    lo("harness.gen_lag_p50_us", "us"),
    lo("harness.gen_lag_p99_us", "us"),
    hi("harness.paced_samples", "count"),
    lo("harness.trace_overhead_pct", "%"),
    lo("harness.span_cost_ns", "ns"),
    hi("harness.nproc", "count"),
    hi("harness.threads", "count"),
];

/// One measured value, by catalogue name.
pub type Measured = Vec<(&'static str, f64)>;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method) — the driver's spread is their
/// distance over the median, so `noise` and `compare` use the same.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of sorted samples, `p` in 0..=100.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.9), 7);
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
