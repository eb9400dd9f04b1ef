//! Query profiler — per-(order, depth) enumeration cost attribution
//! (hot path).
//!
//! `SearchStats` tells you *how much* enumeration happened; this module
//! tells you *where it went*: which oriented query edge's matching order
//! burned the nodes, at which order depth the candidate sets blew up,
//! whether the kernel galloped or probed, and where the cooperative
//! deadline fired. The attribution unit is `(seed order, depth)` — the
//! seed order index doubles as the identity of the oriented query edge
//! it is rooted at, so ranking orders by attributed cost *is* the
//! per-query-edge EXPLAIN.
//!
//! # Protocol (same discipline as the inner executor's per-worker counters)
//!
//! Workers never touch shared state per search node. Each worker owns a
//! stack-resident [`ProfileFrame`]: a fixed `depth × counter` block of
//! plain [`Cell`]s plus the order index the block currently belongs to.
//! The kernel adds into the frame through `SearchCtx::profile`
//! (`Option<&ProfileFrame>` — the Off arm is the `None` branch and
//! nothing else). When a worker switches seed orders
//! ([`ProfileFrame::set_order`]) or finishes its run
//! ([`ProfileFrame::flush`], also invoked on drop), the block is folded
//! into the engine-wide [`ProfileShared`] grid with one relaxed
//! `fetch_add` per *nonzero* cell — at most `32 × 6` adds per order
//! switch, zero per node.
//!
//! Construction, snapshotting and the JSON/explain exporters live in
//! [`cold`]: the `profile-hot-path` lint rule (LINT.md) denies
//! allocation and `Instant`-construction patterns in this file, exactly
//! like `flight.rs`.

use crate::embedding::MAX_PATTERN_VERTICES;
use csm_check::sync::atomic::{AtomicU64, Ordering};
use std::cell::Cell;
use std::sync::Arc;

pub mod cold;

/// How much profiling the engine records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProfileLevel {
    /// No profiler is allocated; every instrumentation site reduces to
    /// one branch on an `Option` that is always `None`.
    #[default]
    Off,
    /// Per-(order, depth) frame counters are live.
    Counters,
}

impl ProfileLevel {
    /// Parse `off|counters` (CLI surface).
    pub fn parse(s: &str) -> Option<ProfileLevel> {
        match s {
            "off" => Some(ProfileLevel::Off),
            "counters" => Some(ProfileLevel::Counters),
            _ => None,
        }
    }

    /// Stable wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ProfileLevel::Off => "off",
            ProfileLevel::Counters => "counters",
        }
    }
}

/// Per-depth profile counter identifiers. The discriminant is the slot
/// index inside a frame block, so adding is a single indexed `Cell`
/// bump — no name lookup on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfileCounter {
    /// Total width of the driver candidate slices streamed at this
    /// depth (label-bucket length at depth 0, smallest backward slice
    /// otherwise).
    SliceWidth,
    /// Binary-search / adjacency probes of non-driver backward slices.
    ProbeSteps,
    /// Exponential-search steps taken by the galloping merge.
    GallopSteps,
    /// Candidates that survived every check and were handed to the
    /// continuation (extensions emitted).
    Extensions,
    /// Cooperative deadline fires attributed to this depth.
    DeadlineHits,
    /// `for_each_candidate` invocations at this depth.
    Invocations,
}

/// Number of per-depth profile counters (keep in sync with
/// [`ProfileCounter`]).
pub const NUM_PROFILE_COUNTERS: usize = 6;

/// Snapshot/exporter names, indexed by [`ProfileCounter`] discriminant.
pub const PROFILE_COUNTER_NAMES: [&str; NUM_PROFILE_COUNTERS] = [
    "slice_width",
    "probe_steps",
    "gallop_steps",
    "extensions",
    "deadline_hits",
    "invocations",
];

/// The [`ProfileCounter`] at a table index (inverse of the
/// discriminant-as-index encoding).
pub fn profile_counter_from_index(i: usize) -> ProfileCounter {
    use ProfileCounter::*;
    const ALL: [ProfileCounter; NUM_PROFILE_COUNTERS] = [
        SliceWidth,
        ProbeSteps,
        GallopSteps,
        Extensions,
        DeadlineHits,
        Invocations,
    ];
    ALL[i]
}

/// One backward constraint of an order position: `(source query vertex,
/// source vertex label, edge label)` — enough for an EXPLAIN reader to
/// see which mapped neighbors constrain a depth without the query graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackwardMeta {
    /// Already-matched query vertex whose image constrains this depth.
    pub src_qvertex: u32,
    /// Vertex label of that source query vertex.
    pub src_vlabel: u32,
    /// Edge label of the backward query edge.
    pub elabel: u32,
}

/// Static metadata of one order depth (built offline in [`cold`]).
#[derive(Clone, Debug)]
pub struct DepthMeta {
    /// Query vertex matched at this depth.
    pub qvertex: u32,
    /// Its vertex label.
    pub vlabel: u32,
    /// Backward constraints of this depth.
    pub backward: Vec<BackwardMeta>,
}

/// Static metadata of one seed order: the oriented query edge it is
/// rooted at plus per-depth constraint structure.
#[derive(Clone, Debug)]
pub struct OrderMeta {
    /// Oriented seed edge `(u_a, u_b)` as query-vertex ids.
    pub seed: (u32, u32),
    /// Edge label of the seed edge.
    pub seed_elabel: u32,
    /// Per-depth metadata (`depths.len()` = order length).
    pub depths: Vec<DepthMeta>,
}

/// Sentinel "no order selected yet" value for a frame.
const NO_ORDER: u16 = u16::MAX;

/// The engine-wide attribution grid: one atomic cell per
/// `(order, depth, counter)`, plus the static order metadata needed to
/// render an EXPLAIN without re-deriving anything from the query.
/// Constructed in [`cold`]; written only through [`ProfileFrame`]
/// flushes (relaxed adds), read by snapshots at any time.
pub struct ProfileShared {
    level: ProfileLevel,
    orders: Vec<OrderMeta>,
    /// `orders.len() × MAX_PATTERN_VERTICES × NUM_PROFILE_COUNTERS`
    /// relaxed counters, row-major.
    cells: Box<[AtomicU64]>,
}

impl ProfileShared {
    /// The profiling level this grid was built for.
    #[inline]
    pub fn level(&self) -> ProfileLevel {
        self.level
    }

    /// Number of seed orders tracked.
    #[inline]
    pub fn num_orders(&self) -> usize {
        self.orders.len()
    }

    /// Static metadata of order `i`.
    #[inline]
    pub fn meta(&self, i: usize) -> &OrderMeta {
        &self.orders[i]
    }

    #[inline]
    fn slot(&self, order: usize, depth: usize, c: usize) -> &AtomicU64 {
        &self.cells[(order * MAX_PATTERN_VERTICES + depth) * NUM_PROFILE_COUNTERS + c]
    }

    /// Fold `n` into one grid cell (relaxed; frames are the only
    /// writers and every write is a commutative add).
    #[inline]
    pub fn add(&self, order: u16, depth: usize, c: ProfileCounter, n: u64) {
        if (order as usize) < self.orders.len() && depth < MAX_PATTERN_VERTICES {
            self.slot(order as usize, depth, c as usize)
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Read one grid cell.
    #[inline]
    pub fn get(&self, order: usize, depth: usize, c: ProfileCounter) -> u64 {
        self.slot(order, depth, c as usize).load(Ordering::Relaxed)
    }
}

/// Handle to one engine's profiler. Cheap to clone (an `Arc`); `Off`
/// holds nothing and [`Profiler::frame`] returns `None`, so disabled
/// runs never even zero a frame block.
#[derive(Clone, Default)]
pub struct Profiler {
    shared: Option<Arc<ProfileShared>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("level", &self.level())
            .finish()
    }
}

impl Profiler {
    /// The disabled profiler.
    pub fn off() -> Profiler {
        Profiler { shared: None }
    }

    /// The active level.
    pub fn level(&self) -> ProfileLevel {
        self.shared.as_ref().map_or(ProfileLevel::Off, |s| s.level)
    }

    /// Is the profiler live?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The shared attribution grid, when live (snapshot/export surface).
    pub fn shared(&self) -> Option<&Arc<ProfileShared>> {
        self.shared.as_ref()
    }

    /// A worker-local frame, or `None` when profiling is off. The frame
    /// flushes itself on drop, so callers only need [`ProfileFrame::
    /// set_order`] at task boundaries.
    #[inline]
    pub fn frame(&self) -> Option<ProfileFrame> {
        self.shared.as_ref().map(|s| ProfileFrame {
            shared: Arc::clone(s),
            cur_order: Cell::new(NO_ORDER),
            cells: std::array::from_fn(|_| std::array::from_fn(|_| Cell::new(0))),
        })
    }
}

/// One worker's stack-resident attribution block: plain `Cell`
/// counters for the seed order currently being enumerated. Created via
/// [`Profiler::frame`] (only when profiling is on, so `add` needs no
/// guard of its own — the single Off branch lives at the
/// `SearchCtx::profile` call sites).
pub struct ProfileFrame {
    shared: Arc<ProfileShared>,
    cur_order: Cell<u16>,
    cells: [[Cell<u64>; NUM_PROFILE_COUNTERS]; MAX_PATTERN_VERTICES],
}

impl ProfileFrame {
    /// Switch the frame to `order`, folding the previous order's block
    /// into the shared grid first. Idempotent for repeated tasks on the
    /// same order — the common case under task batching — where it is
    /// a single compare.
    #[inline]
    pub fn set_order(&self, order: u16) {
        if self.cur_order.get() != order {
            self.flush();
            self.cur_order.set(order);
        }
    }

    /// Add `n` to one `(current order, depth)` counter. A `Cell`
    /// get/add/set — no atomics, no branches.
    #[inline]
    pub fn add(&self, depth: usize, c: ProfileCounter, n: u64) {
        let cell = &self.cells[depth][c as usize];
        cell.set(cell.get() + n);
    }

    /// Fold the current block into the shared grid (one relaxed add
    /// per nonzero cell) and zero it. Idempotent; also runs on drop.
    pub fn flush(&self) {
        let order = self.cur_order.get();
        if order == NO_ORDER {
            return;
        }
        for (d, row) in self.cells.iter().enumerate() {
            for (ci, cell) in row.iter().enumerate() {
                let v = cell.take();
                if v != 0 {
                    self.shared
                        .slot(order as usize, d, ci)
                        .fetch_add(v, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for ProfileFrame {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::MatchingOrders;
    use csm_graph::{ELabel, QueryGraph, VLabel};

    fn triangle_profiler(level: ProfileLevel) -> Profiler {
        let mut q = QueryGraph::new();
        let u: Vec<_> = (0..3).map(|i| q.add_vertex(VLabel(i))).collect();
        q.add_edge(u[0], u[1], ELabel(7)).unwrap();
        q.add_edge(u[1], u[2], ELabel(8)).unwrap();
        q.add_edge(u[0], u[2], ELabel(9)).unwrap();
        let orders = MatchingOrders::build(&q);
        Profiler::new(level, &q, &orders)
    }

    #[test]
    fn off_profiler_mints_no_frames() {
        let p = Profiler::off();
        assert!(!p.enabled());
        assert_eq!(p.level(), ProfileLevel::Off);
        assert!(p.frame().is_none());
        assert!(p.shared().is_none());
        // Off via the constructor too.
        let p2 = triangle_profiler(ProfileLevel::Off);
        assert!(!p2.enabled());
    }

    #[test]
    fn frame_attributes_to_the_current_order() {
        let p = triangle_profiler(ProfileLevel::Counters);
        let shared = p.shared().unwrap();
        assert_eq!(shared.num_orders(), 6);

        let f = p.frame().unwrap();
        f.set_order(2);
        f.add(0, ProfileCounter::SliceWidth, 10);
        f.add(1, ProfileCounter::Extensions, 3);
        // Nothing shared until an order switch or flush.
        assert_eq!(shared.get(2, 0, ProfileCounter::SliceWidth), 0);
        f.set_order(4);
        assert_eq!(shared.get(2, 0, ProfileCounter::SliceWidth), 10);
        assert_eq!(shared.get(2, 1, ProfileCounter::Extensions), 3);
        f.add(2, ProfileCounter::GallopSteps, 5);
        drop(f); // drop flushes the tail block
        assert_eq!(shared.get(4, 2, ProfileCounter::GallopSteps), 5);
        // The earlier block was not double-flushed.
        assert_eq!(shared.get(2, 1, ProfileCounter::Extensions), 3);
    }

    #[test]
    fn two_frames_merge_like_local_traces() {
        let p = triangle_profiler(ProfileLevel::Counters);
        let a = p.frame().unwrap();
        let b = p.frame().unwrap();
        a.set_order(0);
        b.set_order(0);
        a.add(1, ProfileCounter::Invocations, 2);
        b.add(1, ProfileCounter::Invocations, 3);
        drop(a);
        drop(b);
        let s = p.shared().unwrap();
        assert_eq!(s.get(0, 1, ProfileCounter::Invocations), 5);
    }

    #[test]
    fn metadata_names_the_seed_edge_and_backward_structure() {
        let p = triangle_profiler(ProfileLevel::Counters);
        let s = p.shared().unwrap();
        for i in 0..s.num_orders() {
            let m = s.meta(i);
            assert_eq!(m.depths.len(), 3);
            // Depth 0/1 are the seed endpoints in order.
            assert_eq!(m.depths[0].qvertex, m.seed.0);
            assert_eq!(m.depths[1].qvertex, m.seed.1);
            // Depth 1 is constrained by the seed edge itself.
            assert_eq!(m.depths[1].backward.len(), 1);
            assert_eq!(m.depths[1].backward[0].src_qvertex, m.seed.0);
            assert_eq!(m.depths[1].backward[0].elabel, m.seed_elabel);
            // The triangle's last vertex is doubly constrained.
            assert_eq!(m.depths[2].backward.len(), 2);
        }
    }

    #[test]
    fn level_parse_round_trips() {
        assert_eq!(ProfileLevel::parse("off"), Some(ProfileLevel::Off));
        assert_eq!(
            ProfileLevel::parse("counters"),
            Some(ProfileLevel::Counters)
        );
        // Retired spellings fail loudly rather than change meaning.
        assert_eq!(ProfileLevel::parse("on"), None);
        assert_eq!(ProfileLevel::parse("full"), None);
        assert_eq!(ProfileLevel::parse("bogus"), None);
        for l in [ProfileLevel::Off, ProfileLevel::Counters] {
            assert_eq!(ProfileLevel::parse(l.name()), Some(l));
        }
    }
}
