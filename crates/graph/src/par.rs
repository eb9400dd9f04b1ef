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
/// at most `nthreads` scoped threads in contiguous chunks (order
/// preserved). Falls back to the sequential loop for small inputs or
/// `nthreads <= 1`.
pub fn map_slice_with<T: Sync, R: Send>(
    items: &[T],
    nthreads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let nthreads = nthreads.max(1).min(items.len().div_ceil(MIN_CHUNK));
    if nthreads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(nthreads);
    let mut out: Vec<R> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel map worker panicked"));
        }
    });
    out
}

/// Fork-join a set of prepared jobs (one scoped thread each) and return
/// their results in job order. This is the only spawning primitive
/// callers outside this module and the inner executor should use — the
/// project linter (`csm-analyze`) confines raw `std::thread::{spawn, scope}`
/// to `par.rs`/`inner.rs` so every fork-join site stays auditable.
///
/// Jobs may borrow from the caller's stack (including disjoint `&mut`
/// sub-slices carved with `split_at_mut`); a single job runs inline
/// without spawning.
pub fn run_jobs<R: Send, J: FnOnce() -> R + Send>(jobs: Vec<J>) -> Vec<R> {
    if jobs.len() <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let mut out = Vec::with_capacity(jobs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.into_iter().map(|j| s.spawn(j)).collect();
        for h in handles {
            out.push(h.join().expect("fork-join worker panicked"));
        }
    });
    out
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
