//! The service's per-update path allocates nothing once warm: label-safe
//! edge inserts and deletes, structural no-ops and invalid updates go
//! through `submit` + `drain` without a heap allocation after one
//! warm-up pass over the same updates. A thread-local counting global
//! allocator measures the calling thread only, so tests running in
//! parallel cannot disturb one another's counts.
//!
//! Updates that are unsafe for some session (ADS maintenance, search)
//! are out of scope: they allocate today.

use paracosm::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; the count itself is a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Vertices 0..16 carry labels 0 and 1 (the updated edges' endpoints);
/// vertices 16..24 carry labels 2 and 3 (the queries' labels).
fn base_graph() -> DataGraph {
    let mut g = DataGraph::new();
    for i in 0..24u32 {
        g.add_vertex(VLabel(if i < 16 { i % 2 } else { 2 + i % 2 }));
    }
    for i in 0..8u32 {
        g.insert_edge(VertexId(i), VertexId(i + 8), ELabel(0))
            .unwrap();
        g.insert_edge(VertexId(16 + i), VertexId(16 + (i + 1) % 8), ELabel(0))
            .unwrap();
    }
    g
}

/// A query over labels 2 and 3 only: every update between vertices
/// labelled 0 and 1 is label-safe for it.
fn query(shape: u32) -> QueryGraph {
    let mut q = QueryGraph::new();
    let u: Vec<_> = (0..3)
        .map(|i| q.add_vertex(VLabel(2 + (i + shape) % 2)))
        .collect();
    q.add_edge(u[0], u[1], ELabel(0)).unwrap();
    q.add_edge(u[1], u[2], ELabel(0)).unwrap();
    if shape.is_multiple_of(3) {
        q.add_edge(u[0], u[2], ELabel(0)).unwrap();
    }
    q
}

/// One pass: label-safe inserts, duplicate inserts (no-ops), label-safe
/// deletes, deletes of absent edges (no-ops), and invalid updates
/// (self-loops, an unknown endpoint). Every pass leaves the graph as it
/// found it.
fn pass() -> Vec<Update> {
    let edge = |a: u32, b: u32| EdgeUpdate::new(VertexId(a), VertexId(b), ELabel(0));
    let fresh: Vec<EdgeUpdate> = (0..8u32)
        .flat_map(|i| [edge(i, (i + 3) % 16), edge(i, (i + 5) % 16)])
        .filter(|e| e.src != e.dst)
        .collect();
    let mut ups = Vec::new();
    ups.extend(fresh.iter().map(|&e| Update::InsertEdge(e)));
    ups.extend(fresh.iter().map(|&e| Update::InsertEdge(e)));
    ups.extend(fresh.iter().map(|&e| Update::DeleteEdge(e)));
    ups.extend(fresh.iter().map(|&e| Update::DeleteEdge(e)));
    ups.push(Update::InsertEdge(edge(3, 3)));
    ups.push(Update::DeleteEdge(edge(4, 4)));
    ups.push(Update::InsertEdge(edge(2, 99)));
    ups.push(Update::DeleteEdge(edge(99, 5)));
    ups
}

fn served(sessions: u32) -> CsmService {
    let g = base_graph();
    let mut svc = CsmService::new(g.clone(), ServiceConfig::default()).unwrap();
    for i in 0..sessions {
        let q = query(i);
        let algo = AlgoKind::GraphFlow.build(&g, &q);
        svc.add_session(
            SessionSpec::new(q, ParaCosmConfig::sequential()),
            Box::new(algo),
            Box::new(NoopObserver),
        )
        .unwrap();
    }
    svc
}

fn run_pass(svc: &mut CsmService, ups: &[Update]) {
    for &u in ups {
        svc.submit(u).unwrap();
    }
    assert_eq!(svc.drain().unwrap(), ups.len() as u64);
}

fn assert_warm_pass_allocates_nothing(sessions: u32) {
    let ups = pass();
    let mut svc = served(sessions);
    let edges = svc.graph().num_edges();
    run_pass(&mut svc, &ups);
    let before = allocations();
    run_pass(&mut svc, &ups);
    let made = allocations() - before;
    assert_eq!(svc.graph().num_edges(), edges, "a pass restores the graph");
    assert_eq!(
        made,
        0,
        "{sessions} session(s): {} updates made {made} heap allocations after warm-up",
        ups.len()
    );

    let report = svc.shutdown().unwrap();
    let n = 2 * ups.len() as u64;
    assert_eq!(report.processed, n);
    assert_eq!(report.invalid, 2 * 4);
    assert_eq!(report.noops, 2 * 2 * 16);
    for s in &report.sessions {
        let c = &s.stats.classifier;
        assert_eq!(s.stats.updates, n);
        assert_eq!(c.safe_label, 2 * 2 * 16, "every edge update is label-safe");
        assert_eq!(s.stats.positives + s.stats.negatives, 0);
    }
}

#[test]
fn warm_update_path_allocates_nothing_with_one_session() {
    assert_warm_pass_allocates_nothing(1);
}

#[test]
fn warm_update_path_allocates_nothing_with_64_sessions() {
    assert_warm_pass_allocates_nothing(64);
}
