//! Parallel sweep engine: fan independent simulation cells across cores.
//!
//! Every `tmc paper` figure evaluates a grid of independent cells —
//! (write fraction × system) for fig. 8, (sharing set size × scheme) for
//! fig. 5, and so on. Each cell seeds its own [`tmc_simcore::SimRng`] and
//! builds its own [`tmc_core::System`], so cells share no state and can run
//! on any thread in any order. This module provides the one primitive they
//! all need: [`map`], a deterministic parallel map.
//!
//! Results are returned **in cell order** regardless of which thread ran
//! which cell or when it finished, so a parallel sweep's output is
//! bit-for-bit identical to the serial one (`tests/sweep_determinism.rs`
//! checks exactly that). Scheduling is a chunked atomic cursor: cells are
//! pre-split into contiguous chunks (a few per worker) and idle workers
//! claim the next chunk with one `fetch_add` — no per-cell locking, no
//! steal scans, and the tail chunks still rebalance long cells (high write
//! fractions, big caches) across whichever workers finish early.
//!
//! Built entirely on `std::thread::scope` — no external crates, so the
//! hermetic offline build keeps working.
//!
//! # Example
//!
//! ```
//! let squares = tmc_bench::sweep::map(2, (0..8u64).collect(), |x| x * x);
//! assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::args::{Args, CliError};

/// Claims `--threads N` (N ≥ 1): the worker count a sweep uses. Without
/// the flag, one worker per available core.
///
/// # Errors
///
/// A usage error for a missing, unparsable or zero count.
pub fn threads(args: &mut Args) -> Result<usize, CliError> {
    match args.value("--threads")? {
        Some(0) => Err(CliError::Usage("--threads must be at least 1".into())),
        Some(n) => Ok(n),
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

/// Maps `worker` over `cells` on `threads` workers, returning results in
/// cell order.
///
/// The worker function must be `Sync` (shared by reference across
/// threads) and is called exactly once per cell. Equivalent to
/// `cells.into_iter().map(worker).collect()` — only faster. `threads <= 1`
/// runs serially on the calling thread (no pool, no locks), which is also
/// the reference behavior the parallel path must reproduce.
///
/// # Panics
///
/// Propagates a panic from any worker invocation.
pub fn map<I, R, F>(threads: usize, cells: Vec<I>, worker: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = cells.len();
    if threads <= 1 || n <= 1 {
        return cells.into_iter().map(worker).collect();
    }
    let threads = threads.min(n);

    // Pre-split the cells into contiguous chunks — about four per worker,
    // so the shared cursor is touched rarely while the tail still
    // rebalances across workers that finish early. Each chunk is claimed
    // exactly once via `fetch_add`; the `Mutex` exists only to move the
    // owned cells out (this crate forbids `unsafe`), so every lock
    // acquisition is uncontended and happens once per chunk, not per cell.
    // A chunk of indexed cells, `take`n by exactly one worker.
    type Chunk<I> = Mutex<Option<Vec<(usize, I)>>>;
    let chunk_len = n.div_ceil(threads * 4).max(1);
    let mut chunks: Vec<Chunk<I>> = Vec::new();
    let mut buf: Vec<(usize, I)> = Vec::with_capacity(chunk_len);
    for (idx, cell) in cells.into_iter().enumerate() {
        buf.push((idx, cell));
        if buf.len() == chunk_len {
            let full = std::mem::replace(&mut buf, Vec::with_capacity(chunk_len));
            chunks.push(Mutex::new(Some(full)));
        }
    }
    if !buf.is_empty() {
        chunks.push(Mutex::new(Some(buf)));
    }
    let cursor = AtomicUsize::new(0);

    let chunks = &chunks;
    let cursor = &cursor;
    let worker = &worker;
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let claim = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(claim) else {
                            break;
                        };
                        let batch = chunk
                            .lock()
                            .expect("chunk poisoned")
                            .take()
                            .expect("chunk claimed twice");
                        for (idx, cell) in batch {
                            done.push((idx, worker(cell)));
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    tagged.sort_unstable_by_key(|&(idx, _)| idx);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8, 200] {
            let got = map(threads, cells.clone(), |x| x * 3);
            let want: Vec<usize> = cells.iter().map(|x| x * 3).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_cell_costs_still_merge_in_order() {
        // Make early cells slow so stealing actually reorders execution.
        let cells: Vec<u64> = (0..40).collect();
        let got = map(4, cells, |x| {
            let spin = if x < 4 { 200_000 } else { 100 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x * x
        });
        assert_eq!(got, (0..40).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let empty: Vec<u32> = map(8, Vec::new(), |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(map(8, vec![7u32], |x| x + 1), [8]);
    }

    #[test]
    fn thread_override_parsing() {
        let parse = |argv: &[&str]| threads(&mut Args::new(argv.iter().map(|s| s.to_string())));
        assert_eq!(parse(&["--threads", "4"]), Ok(4));
        assert!(parse(&[]).unwrap() >= 1);
        for bad in [
            &["--threads", "0"][..],
            &["--threads", "lots"],
            &["--threads"],
        ] {
            assert!(matches!(parse(bad), Err(CliError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn parallel_matches_serial_for_stateful_cells() {
        use tmc_simcore::SimRng;
        let cells: Vec<u64> = (0..24).collect();
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            (0..100)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        let serial = map(1, cells.clone(), run);
        let parallel = map(4, cells, run);
        assert_eq!(serial, parallel);
    }
}
