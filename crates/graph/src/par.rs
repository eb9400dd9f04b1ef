//! Scoped-thread data-parallel helpers.
//!
//! The workspace previously delegated its two data-parallel loops (bulk
//! adjacency application, batch stage-1 classification) to rayon; with
//! the build offline, this module provides the same fork-join shape on
//! `std::thread::scope`. Both helpers split the input into one
//! contiguous chunk per thread — the workloads are per-item uniform
//! enough that static partitioning matches a work-stealing pool, and a
//! contiguous split preserves output ordering for free.

/// Default worker count for data-parallel loops (≥ 1): the
/// `PARACOSM_THREADS` environment variable when set (cached after the
/// first read), else `available_parallelism`. Callers that know the
/// configured engine width should pass it explicitly to the `_with`
/// variants instead — this is only the fallback for entry points with no
/// config in scope.
pub fn threads() -> usize {
    static OVERRIDE: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    let env = *OVERRIDE.get_or_init(|| {
        std::env::var("PARACOSM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .filter(|&n: &usize| n >= 1)
    });
    env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Inputs per thread below which spawning costs more than it saves.
const MIN_CHUNK: usize = 16;

/// Parallel ordered map over [`threads`] workers — see
/// [`map_slice_with`] for the explicit-width variant engines should use.
pub fn map_slice<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    map_slice_with(items, threads(), f)
}

/// Parallel ordered map: `items.iter().map(f).collect()`, fanned out over
/// at most `nthreads` contiguous chunks through [`run_jobs`] (order
/// preserved; the first chunk runs on the calling thread). Falls back to
/// the sequential loop for small inputs or `nthreads <= 1`.
pub fn map_slice_with<T: Sync, R: Send>(
    items: &[T],
    nthreads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let nthreads = nthreads.max(1).min(items.len().div_ceil(MIN_CHUNK));
    if nthreads <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let jobs: Vec<_> = items
        .chunks(items.len().div_ceil(nthreads))
        .map(|c| move || c.iter().map(f).collect::<Vec<R>>())
        .collect();
    run_jobs(jobs).into_iter().flatten().collect()
}

/// Fork-join a set of prepared jobs and return their results in job
/// order. Job 0 runs on the calling thread and each other job on a scoped
/// thread of its own, so `n` jobs cost `n − 1` spawns. This is the only
/// spawning primitive callers outside this module and the inner executor
/// should use — the project linter (`csm-analyze`) confines raw
/// `std::thread::{spawn, scope}` to `par.rs`/`inner.rs` so every
/// fork-join site stays auditable.
///
/// Jobs may borrow from the caller's stack (including disjoint `&mut`
/// sub-slices carved with `split_at_mut`).
pub fn run_jobs<R: Send, J: FnOnce() -> R + Send>(jobs: Vec<J>) -> Vec<R> {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.map(|j| s.spawn(j)).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(first());
        for h in handles {
            out.push(h.join().expect("fork-join worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_slice_preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let out = map_slice(&input, |&x| x * 3);
        assert_eq!(out, input.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_slice_small_input() {
        let out = map_slice(&[1u32, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn map_slice_empty() {
        let out: Vec<u32> = map_slice(&[], |x: &u32| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn map_slice_with_explicit_width() {
        let input: Vec<u64> = (0..1000).collect();
        for nthreads in [0, 1, 2, 7] {
            let out = map_slice_with(&input, nthreads, |&x| x + 1);
            assert_eq!(out, input.iter().map(|&x| x + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_jobs_returns_in_job_order() {
        let data = [10u64, 20, 30];
        let jobs: Vec<_> = data.iter().map(|&x| move || x * 2).collect();
        assert_eq!(run_jobs(jobs), vec![20, 40, 60]);
        assert_eq!(run_jobs(Vec::<fn() -> u8>::new()), Vec::<u8>::new());
    }

    /// Job 0 runs on the caller; every other job gets a thread of its own.
    #[test]
    fn run_jobs_runs_the_first_job_on_the_caller() {
        let caller = std::thread::current().id();
        let jobs: Vec<_> = (0..3).map(|_| || std::thread::current().id()).collect();
        let ids = run_jobs(jobs);
        assert_eq!(ids[0], caller);
        assert!(ids[1..].iter().all(|&id| id != caller), "{ids:?}");
        assert_ne!(ids[1], ids[2]);
        let ids = map_slice_with(&[(); 64], 4, |_| std::thread::current().id());
        assert!(ids[..16].iter().all(|&id| id == caller));
        assert!(ids[16..].iter().all(|&id| id != caller));
    }

    #[test]
    fn run_jobs_disjoint_mut_borrows() {
        let mut buf = [0u32; 8];
        let (a, b) = buf.split_at_mut(4);
        let jobs: Vec<Box<dyn FnOnce() + Send>> =
            vec![Box::new(move || a.fill(1)), Box::new(move || b.fill(2))];
        run_jobs(jobs);
        assert_eq!(buf, [1, 1, 1, 1, 2, 2, 2, 2]);
    }
}
