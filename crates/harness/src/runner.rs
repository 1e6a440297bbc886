//! The shared scoped-thread cell runner behind every fan-out in the
//! workspace: [`crate::ExperimentMatrix`], the schedule matrix, and the
//! `smart-server` worker pool all pull cells from one atomic counter on
//! scoped worker threads. Each cell must be a pure function of its
//! index, so a parallel run is bit-identical to a serial one — the
//! determinism guarantee every consumer advertises.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run cells `0..n` on up to `threads` scoped worker threads, returning
/// results in index order plus the number of workers the runner
/// started, `threads.min(n).max(1)`. With one worker the cells run
/// serially on the caller's thread.
///
/// # Panics
///
/// Panics if any cell panics (the panic is propagated when its worker
/// is joined).
pub fn run_cells<T, F>(n: usize, threads: usize, cell: F) -> (Vec<T>, usize)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (slots, workers) = run_cells_observed(n, threads, None, cell, |_, _| {});
    let results = slots
        .into_iter()
        .map(|r| r.expect("no cancel flag, so every cell ran"))
        .collect();
    (results, workers)
}

/// The full-control runner: like [`run_cells`], but `observe(i, &r)`
/// fires on the worker thread the moment cell `i` finishes (cells
/// finish in any order — observers that stream results must carry the
/// index), and a shared `cancel` flag stops workers from *starting*
/// further cells (in-flight cells complete). Cells skipped after
/// cancellation come back as `None`.
///
/// Observation order is nondeterministic under threads; the returned
/// slot vector is always in index order and — absent cancellation —
/// bit-identical to a serial run.
pub fn run_cells_observed<T, F, O>(
    n: usize,
    threads: usize,
    cancel: Option<&AtomicBool>,
    cell: F,
    observe: O,
) -> (Vec<Option<T>>, usize)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: Fn(usize, &T) + Sync,
{
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let workers = threads.min(n).max(1);
    if workers == 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if cancelled() {
                out.push(None);
                continue;
            }
            let result = cell(i);
            observe(i, &result);
            out.push(Some(result));
        }
        return (out, 1);
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while !cancelled() {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = cell(i);
                    observe(i, &result);
                    slots.lock().expect("no poisoned slot")[i] = Some(result);
                }
            });
        }
    });
    (slots.into_inner().expect("no poisoned slot"), workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let (serial, w1) = run_cells(16, 1, |i| i * i);
        let (parallel, wn) = run_cells(16, 4, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!((w1, wn), (1, 4));
    }

    /// The first `k` cells each wait until `k` distinct threads have
    /// entered a cell: they return only if `k` workers run at once.
    #[test]
    fn every_started_worker_runs_at_once() {
        let k = 3;
        let entered = Mutex::new(std::collections::HashSet::new());
        let (out, workers) = run_cells(8, k, |i| {
            entered
                .lock()
                .expect("unpoisoned")
                .insert(std::thread::current().id());
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while i < k && entered.lock().expect("unpoisoned").len() < k {
                assert!(
                    std::time::Instant::now() < deadline,
                    "{k} workers never met"
                );
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(workers, k);
    }

    #[test]
    fn empty_input_runs_no_cells() {
        let (out, workers) = run_cells(0, 8, |i| i);
        assert!(out.is_empty());
        assert_eq!(workers, 1);
    }

    #[test]
    fn observer_sees_every_cell_exactly_once() {
        let seen = Mutex::new(vec![0u32; 12]);
        let (out, _) = run_cells_observed(
            12,
            3,
            None,
            |i| i + 1,
            |i, r| {
                assert_eq!(*r, i + 1);
                seen.lock().expect("unpoisoned")[i] += 1;
            },
        );
        assert!(out.iter().all(Option::is_some));
        assert!(seen
            .into_inner()
            .expect("unpoisoned")
            .iter()
            .all(|c| *c == 1));
    }

    #[test]
    fn cancellation_skips_remaining_cells() {
        let cancel = AtomicBool::new(false);
        let (out, _) = run_cells_observed(
            64,
            1,
            Some(&cancel),
            |i| i,
            |i, _| {
                if i == 4 {
                    cancel.store(true, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 5);
        assert!(out[5..].iter().all(Option::is_none));
    }

    #[test]
    fn pre_cancelled_run_does_nothing() {
        let cancel = AtomicBool::new(true);
        let (out, _) = run_cells_observed(8, 4, Some(&cancel), |i| i, |_, _| {});
        assert!(out.iter().all(Option::is_none));
    }
}
