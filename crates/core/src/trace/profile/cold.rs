//! Cold half of the query profiler: construction, snapshotting, and the
//! JSON / Prometheus / EXPLAIN exporters.
//!
//! Everything here runs off the enumeration path — at engine build time,
//! on a telemetry scrape, or when a report is rendered — so it is free
//! to allocate. The hot half (`profile.rs`) is lint-locked against
//! allocation; keep any new convenience that needs `Vec`/`String`/
//! `format!` on this side of the split.

use super::{
    BackwardMeta, DepthMeta, OrderMeta, ProfileCounter, ProfileLevel, ProfileShared, Profiler,
    NUM_PROFILE_COUNTERS, PROFILE_COUNTER_NAMES,
};
use crate::embedding::MAX_PATTERN_VERTICES;
use crate::order::MatchingOrders;
use csm_check::sync::atomic::AtomicU64;
use csm_graph::QueryGraph;
use std::sync::Arc;

impl Profiler {
    /// Build a profiler for `q`'s matching orders at `level`.
    /// `ProfileLevel::Off` returns the no-op handle — no grid is
    /// allocated and [`Profiler::frame`] yields `None`.
    pub fn new(level: ProfileLevel, q: &QueryGraph, orders: &MatchingOrders) -> Profiler {
        if level == ProfileLevel::Off {
            return Profiler::off();
        }
        let metas: Vec<OrderMeta> = (0..orders.len())
            .map(|i| {
                let o = orders.by_index(i as u16);
                let depths = (0..o.len())
                    .map(|d| DepthMeta {
                        qvertex: o.order[d].index() as u32,
                        vlabel: o.target_label[d].0,
                        backward: o.backward[d]
                            .iter()
                            .map(|&(src, el)| BackwardMeta {
                                src_qvertex: src.index() as u32,
                                src_vlabel: q.label(src).0,
                                elabel: el.0,
                            })
                            .collect(),
                    })
                    .collect();
                let seed = (o.order[0], o.order[1]);
                OrderMeta {
                    seed: (seed.0.index() as u32, seed.1.index() as u32),
                    seed_elabel: q.edge_label(seed.0, seed.1).map_or(0, |l| l.0),
                    depths,
                }
            })
            .collect();
        let n_cells = metas.len() * MAX_PATTERN_VERTICES * NUM_PROFILE_COUNTERS;
        let cells: Box<[AtomicU64]> = (0..n_cells).map(|_| AtomicU64::new(0)).collect();
        Profiler {
            shared: Some(Arc::new(ProfileShared {
                level,
                orders: metas,
                cells,
            })),
        }
    }

    /// Snapshot the attribution grid, or `None` when off.
    pub fn snapshot(&self) -> Option<QueryProfile> {
        self.shared.as_ref().map(|s| s.snapshot())
    }
}

impl ProfileShared {
    /// A consistent-enough point-in-time copy of the grid (relaxed
    /// loads; frames flush whole blocks, so per-order numbers are
    /// coherent between updates).
    pub fn snapshot(&self) -> QueryProfile {
        let orders = (0..self.orders.len())
            .map(|i| {
                let m = self.meta(i);
                let depths = (0..m.depths.len())
                    .map(|d| {
                        let mut counters = [0u64; NUM_PROFILE_COUNTERS];
                        for (ci, c) in counters.iter_mut().enumerate() {
                            *c = self.get(i, d, super::profile_counter_from_index(ci));
                        }
                        DepthProfile {
                            depth: d,
                            qvertex: m.depths[d].qvertex,
                            vlabel: m.depths[d].vlabel,
                            backward: m.depths[d].backward.clone(),
                            counters,
                        }
                    })
                    .collect();
                OrderProfile {
                    index: i as u16,
                    seed: m.seed,
                    seed_elabel: m.seed_elabel,
                    depths,
                }
            })
            .collect();
        QueryProfile {
            level: self.level(),
            orders,
        }
    }
}

/// Point-in-time profile of one depth of one matching order.
#[derive(Clone, Debug)]
pub struct DepthProfile {
    /// Order depth (0 = first seed endpoint).
    pub depth: usize,
    /// Query vertex matched at this depth.
    pub qvertex: u32,
    /// Its vertex label.
    pub vlabel: u32,
    /// Backward constraints of this depth (static metadata, carried so
    /// an EXPLAIN reads which mapped neighbors constrain the depth
    /// without the query graph).
    pub backward: Vec<BackwardMeta>,
    /// Counter values, indexed by [`ProfileCounter`] discriminant.
    pub counters: [u64; NUM_PROFILE_COUNTERS],
}

impl DepthProfile {
    /// One counter by id.
    #[inline]
    pub fn get(&self, c: ProfileCounter) -> u64 {
        self.counters[c as usize]
    }

    /// Mean candidates emitted per invocation — the observed
    /// cardinality of this depth. `None` before the depth has ever been
    /// entered.
    pub fn observed_card(&self) -> Option<f64> {
        let inv = self.get(ProfileCounter::Invocations);
        if inv == 0 {
            None
        } else {
            Some(self.get(ProfileCounter::Extensions) as f64 / inv as f64)
        }
    }

    /// Attributed enumeration cost of this depth: work actually done by
    /// the candidate generator (slice streaming + probes + gallop
    /// steps) plus the extensions it emitted.
    pub fn cost(&self) -> u64 {
        self.get(ProfileCounter::SliceWidth)
            + self.get(ProfileCounter::ProbeSteps)
            + self.get(ProfileCounter::GallopSteps)
            + self.get(ProfileCounter::Extensions)
    }
}

/// Point-in-time profile of one matching order (= one oriented query
/// edge, the order's seed).
#[derive(Clone, Debug)]
pub struct OrderProfile {
    /// Order index (stable task-descriptor identity).
    pub index: u16,
    /// Oriented seed edge `(u_a, u_b)`.
    pub seed: (u32, u32),
    /// Seed edge label.
    pub seed_elabel: u32,
    /// Per-depth breakdown.
    pub depths: Vec<DepthProfile>,
}

impl OrderProfile {
    /// Total attributed cost across depths.
    pub fn cost(&self) -> u64 {
        self.depths.iter().map(DepthProfile::cost).sum()
    }

    /// Deadline fires attributed to this order.
    pub fn deadline_hits(&self) -> u64 {
        self.depths
            .iter()
            .map(|d| d.get(ProfileCounter::DeadlineHits))
            .sum()
    }
}

/// Aggregate per-query profile: every matching order's attribution
/// grid, ready for ranking, reconciliation, and export.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// Level the grid was recorded at.
    pub level: ProfileLevel,
    /// One entry per oriented seed order.
    pub orders: Vec<OrderProfile>,
}

impl QueryProfile {
    /// Column sums across every order and depth, indexed by
    /// [`ProfileCounter`] discriminant. `/profile` reconciliation
    /// compares these against the engine's `SearchStats`-derived
    /// totals.
    pub fn totals(&self) -> [u64; NUM_PROFILE_COUNTERS] {
        let mut t = [0u64; NUM_PROFILE_COUNTERS];
        for o in &self.orders {
            for d in &o.depths {
                for (ti, v) in t.iter_mut().zip(d.counters.iter()) {
                    *ti += v;
                }
            }
        }
        t
    }

    /// Total attributed cost.
    pub fn total_cost(&self) -> u64 {
        self.orders.iter().map(OrderProfile::cost).sum()
    }

    /// Orders ranked by attributed cost, most expensive first (ties
    /// break on order index for determinism).
    pub fn ranked(&self) -> Vec<&OrderProfile> {
        let mut v: Vec<&OrderProfile> = self.orders.iter().collect();
        v.sort_by(|a, b| b.cost().cmp(&a.cost()).then(a.index.cmp(&b.index)));
        v
    }

    /// The most expensive order, if any cost was recorded.
    pub fn top_order(&self) -> Option<&OrderProfile> {
        self.ranked().into_iter().find(|o| o.cost() > 0)
    }

    /// Full profile as JSON (the `/profile` document body per session).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!("{{\"level\":\"{}\"", self.level.name()));
        s.push_str(&format!(",\"total_cost\":{}", self.total_cost()));
        s.push_str(",\"totals\":{");
        let totals = self.totals();
        for (i, name) in PROFILE_COUNTER_NAMES.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", name, totals[i]));
        }
        s.push_str("},\"orders\":[");
        for (i, o) in self.orders.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_order_json(&mut s, o);
        }
        s.push_str("]}");
        s
    }

    /// EXPLAIN document: oriented query edges ranked by attributed
    /// cost, each with its per-depth counter and observed-cardinality
    /// table. Used
    /// by `/debug/explain/<session>` and `paracosm-cli explain`.
    pub fn explain_json(&self) -> String {
        let total = self.total_cost().max(1);
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"level\":\"{}\",\"total_cost\":{},\"edges\":[",
            self.level.name(),
            self.total_cost()
        ));
        for (i, o) in self.ranked().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rank\":{},\"order\":{},\"seed\":[{},{}],\"elabel\":{},\"cost\":{},\"cost_share\":{:.4},\"deadline_hits\":{}",
                i,
                o.index,
                o.seed.0,
                o.seed.1,
                o.seed_elabel,
                o.cost(),
                o.cost() as f64 / total as f64,
                o.deadline_hits()
            ));
            s.push_str(",\"depths\":[");
            for (j, d) in o.depths.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                push_depth_json(&mut s, d);
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Prometheus text-format families (`paracosm_profile_*`), labelled
    /// by order index, seed edge, and depth. Zero cells are skipped to
    /// keep scrapes proportional to actual work done.
    pub fn prometheus_text(&self, out: &mut String) {
        for (ci, name) in PROFILE_COUNTER_NAMES.iter().enumerate() {
            out.push_str(&format!("# TYPE paracosm_profile_{name} counter\n"));
            for o in &self.orders {
                for d in &o.depths {
                    let v = d.counters[ci];
                    if v == 0 {
                        continue;
                    }
                    out.push_str(&format!(
                        "paracosm_profile_{name}{{order=\"{}\",seed=\"{}-{}\",depth=\"{}\"}} {v}\n",
                        o.index, o.seed.0, o.seed.1, d.depth
                    ));
                }
            }
        }
    }
}

fn push_depth_json(s: &mut String, d: &DepthProfile) {
    s.push_str(&format!(
        "{{\"depth\":{},\"qvertex\":{},\"vlabel\":{}",
        d.depth, d.qvertex, d.vlabel
    ));
    s.push_str(",\"backward\":[");
    for (i, b) in d.backward.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"src\":{},\"src_vlabel\":{},\"elabel\":{}}}",
            b.src_qvertex, b.src_vlabel, b.elabel
        ));
    }
    s.push(']');
    for (ci, name) in PROFILE_COUNTER_NAMES.iter().enumerate() {
        s.push_str(&format!(",\"{}\":{}", name, d.counters[ci]));
    }
    s.push_str(&format!(",\"cost\":{}", d.cost()));
    match d.observed_card() {
        Some(c) if c.is_finite() => s.push_str(&format!(",\"observed_card\":{c:.4}")),
        _ => s.push_str(",\"observed_card\":null"),
    }
    s.push('}');
}

fn push_order_json(s: &mut String, o: &OrderProfile) {
    s.push_str(&format!(
        "{{\"index\":{},\"seed\":[{},{}],\"elabel\":{},\"cost\":{},\"depths\":[",
        o.index,
        o.seed.0,
        o.seed.1,
        o.seed_elabel,
        o.cost()
    ));
    for (j, d) in o.depths.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        push_depth_json(s, d);
    }
    s.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::MatchingOrders;
    use csm_graph::{ELabel, VLabel};

    fn path_profiler() -> Profiler {
        // u0 -a- u1 -b- u2, distinct labels.
        let mut q = QueryGraph::new();
        let u: Vec<_> = (0..3).map(|i| q.add_vertex(VLabel(i))).collect();
        q.add_edge(u[0], u[1], ELabel(1)).unwrap();
        q.add_edge(u[1], u[2], ELabel(2)).unwrap();
        let orders = MatchingOrders::build(&q);
        Profiler::new(ProfileLevel::Counters, &q, &orders)
    }

    #[test]
    fn snapshot_reflects_flushed_frames_and_ranks_by_cost() {
        let p = path_profiler();
        let f = p.frame().unwrap();
        f.set_order(1);
        f.add(0, ProfileCounter::SliceWidth, 100);
        f.add(1, ProfileCounter::Extensions, 40);
        f.add(1, ProfileCounter::Invocations, 10);
        f.set_order(0);
        f.add(0, ProfileCounter::SliceWidth, 5);
        drop(f);

        let snap = p.snapshot().unwrap();
        assert_eq!(snap.level, ProfileLevel::Counters);
        assert_eq!(snap.orders.len(), 4);
        assert_eq!(snap.total_cost(), 145);
        let top = snap.top_order().unwrap();
        assert_eq!(top.index, 1);
        assert_eq!(top.cost(), 140);
        // Ranked is deterministic and descending.
        let ranked = snap.ranked();
        assert_eq!(ranked[0].index, 1);
        assert_eq!(ranked[1].index, 0);
        // Observed cardinality = extensions / invocations.
        let d1 = &snap.orders[1].depths[1];
        assert_eq!(d1.observed_card(), Some(4.0));
        assert_eq!(snap.orders[0].depths[0].observed_card(), None);
        // Totals reconcile with the per-depth grid.
        let t = snap.totals();
        assert_eq!(t[ProfileCounter::SliceWidth as usize], 105);
        assert_eq!(t[ProfileCounter::Extensions as usize], 40);
        assert_eq!(t[ProfileCounter::Invocations as usize], 10);
    }

    #[test]
    fn json_exports_are_well_formed() {
        let p = path_profiler();
        let f = p.frame().unwrap();
        f.set_order(2);
        f.add(1, ProfileCounter::GallopSteps, 9);
        f.add(1, ProfileCounter::Invocations, 3);
        drop(f);
        let snap = p.snapshot().unwrap();

        let full = snap.to_json();
        assert!(full.starts_with("{\"level\":\"counters\""));
        assert!(full.contains("\"totals\":{\"slice_width\":0"));
        assert!(full.contains("\"gallop_steps\":9"));
        assert_eq!(
            full.matches("{\"index\":").count(),
            snap.orders.len(),
            "one object per order"
        );

        let explain = snap.explain_json();
        assert!(explain.contains("\"edges\":["));
        assert!(explain.contains("\"rank\":0,\"order\":2"));
        assert!(explain.contains("\"cost_share\":1.0000"));
        assert!(explain.contains("\"observed_card\":0.0000"));

        let mut prom = String::new();
        snap.prometheus_text(&mut prom);
        assert!(prom.contains("# TYPE paracosm_profile_gallop_steps counter"));
        assert!(prom.contains("paracosm_profile_gallop_steps{order=\"2\","));
        // Zero cells are suppressed.
        assert!(!prom.contains("} 0\n"));
    }
}
