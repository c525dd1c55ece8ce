//! Chunked parallel-for helpers built on crossbeam scoped threads.
//!
//! The ShadowTutor client device in the paper (Jetson Nano) has a quad-core
//! CPU; the server has eight cores. These helpers let the compute kernels use
//! whatever cores the host machine offers without pulling in a full work-
//! stealing scheduler: work is split into contiguous chunks, one scoped
//! thread per chunk. When only one core is available (or the work is below
//! the parallel threshold) everything degrades to a plain serial loop, which
//! keeps single-core CI deterministic and overhead-free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Minimum number of items before a parallel split is worthwhile.
pub const PARALLEL_THRESHOLD: usize = 4096;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Worker count requested via the `ST_THREADS` environment variable
/// (0 when unset or unparseable). Read once per process.
fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("ST_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// Number of worker threads the helpers will use.
///
/// Resolution order: [`set_threads`] override (useful in code that models a
/// specific device), then the `ST_THREADS` environment variable (useful to
/// pin a whole benchmark run, e.g. `ST_THREADS=1` for single-core numbers),
/// then [`std::thread::available_parallelism`].
pub fn threads() -> usize {
    // ORDER: Relaxed — an isolated tuning knob; no other memory is published
    // through it, and a momentarily stale read only changes a split factor.
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    let env = env_threads();
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pin the number of worker threads (0 restores the automatic default).
pub fn set_threads(n: usize) {
    // ORDER: Relaxed — see `threads()`: a tuning knob, not a publication.
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Apply `f` to every element of `data` in place, splitting the slice across
/// worker threads when it is large enough.
pub fn par_map_in_place<F>(data: &mut [f32], f: F)
where
    F: Fn(f32) -> f32 + Sync,
{
    let n_threads = threads();
    if n_threads <= 1 || data.len() < PARALLEL_THRESHOLD {
        for x in data.iter_mut() {
            *x = f(*x);
        }
        return;
    }
    let chunk = data.len().div_ceil(n_threads);
    crossbeam::scope(|s| {
        for piece in data.chunks_mut(chunk) {
            s.spawn(|_| {
                for x in piece.iter_mut() {
                    *x = f(*x);
                }
            });
        }
    })
    .expect("scoped worker panicked");
}

/// Run `f(chunk_index, chunk)` over contiguous chunks of `data`, in parallel
/// when the slice is large enough. Chunks are the same size except possibly
/// the last one.
pub fn par_chunks_mut<F>(data: &mut [f32], chunk_size: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be non-zero");
    let n_threads = threads();
    if n_threads <= 1 || data.len() < PARALLEL_THRESHOLD {
        for (i, piece) in data.chunks_mut(chunk_size).enumerate() {
            f(i, piece);
        }
        return;
    }
    crossbeam::scope(|s| {
        for (i, piece) in data.chunks_mut(chunk_size).enumerate() {
            let f = &f;
            s.spawn(move |_| f(i, piece));
        }
    })
    .expect("scoped worker panicked");
}

/// Split `[0, total)` into one contiguous range per worker thread — each
/// range a multiple of `granularity` except possibly the last — and run
/// `f(start, end)` on every non-empty range, in parallel when there is more
/// than one range. `f` is called serially as `f(0, total)` when only one
/// worker is available or `total <= granularity`.
///
/// This is the split the packed GEMM uses to hand disjoint column stripes to
/// workers: the callback owns its index range, not a slice, so kernels whose
/// per-range output is strided (e.g. a column block of a row-major matrix)
/// can do their own addressing.
pub fn par_ranges<F>(total: usize, granularity: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    assert!(granularity > 0, "granularity must be non-zero");
    let n_threads = threads();
    if n_threads <= 1 || total <= granularity {
        if total > 0 {
            f(0, total);
        }
        return;
    }
    let units = total.div_ceil(granularity);
    let per_worker = units.div_ceil(n_threads) * granularity;
    crossbeam::scope(|s| {
        let mut start = 0usize;
        while start < total {
            let end = (start + per_worker).min(total);
            let f = &f;
            s.spawn(move |_| f(start, end));
            start = end;
        }
    })
    .expect("scoped worker panicked");
}

/// Reduce `data` with `map` and a commutative/associative `combine`, in
/// parallel when the slice is large enough.
pub fn par_reduce<F, G>(data: &[f32], identity: f32, map: F, combine: G) -> f32
where
    F: Fn(f32) -> f32 + Sync,
    G: Fn(f32, f32) -> f32 + Sync,
{
    let n_threads = threads();
    if n_threads <= 1 || data.len() < PARALLEL_THRESHOLD {
        return data.iter().fold(identity, |acc, &x| combine(acc, map(x)));
    }
    let chunk = data.len().div_ceil(n_threads);
    let partials: Vec<f32> = crossbeam::scope(|s| {
        let handles: Vec<_> = data
            .chunks(chunk)
            .map(|piece| {
                let map = &map;
                let combine = &combine;
                s.spawn(move |_| piece.iter().fold(identity, |acc, &x| combine(acc, map(x))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scoped worker panicked");
    partials.into_iter().fold(identity, combine)
}

/// Serializes the unit tests that change the process-wide thread override,
/// so one cannot observe (or clobber) another's setting mid-run. Every
/// holder restores the override before releasing it.
#[cfg(test)]
pub(crate) fn test_thread_knob() -> std::sync::MutexGuard<'static, ()> {
    static THREAD_KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());
    THREAD_KNOB
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_in_place_small_and_large() {
        let mut small = vec![1.0f32; 10];
        par_map_in_place(&mut small, |x| x * 2.0);
        assert!(small.iter().all(|&x| x == 2.0));

        let mut large = vec![1.0f32; PARALLEL_THRESHOLD * 2];
        par_map_in_place(&mut large, |x| x + 1.0);
        assert!(large.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn chunks_mut_covers_everything() {
        let mut data = vec![0.0f32; 1000];
        par_chunks_mut(&mut data, 64, |i, chunk| {
            for x in chunk.iter_mut() {
                *x = i as f32;
            }
        });
        // Element 0 belongs to chunk 0, element 999 to chunk 15.
        assert_eq!(data[0], 0.0);
        assert_eq!(data[999], 15.0);
        assert_eq!(data[64], 1.0);
    }

    #[test]
    fn reduce_matches_serial() {
        let _knob = test_thread_knob();
        let saved = THREAD_OVERRIDE.load(Ordering::Relaxed);
        // Integer data whose every partial sum stays below 2^24 is exact in
        // f32, so the reference is exact however the chunks fall.
        let data: Vec<f32> = (0..10_000).map(|i| (i % 100) as f32).collect();
        let expected = (0..10_000u64).map(|i| i % 100).sum::<u64>() as f32;
        for n in [1, 2, 3, 4] {
            set_threads(n);
            let sum = par_reduce(&data, 0.0, |x| x, |a, b| a + b);
            assert!(
                (sum - expected).abs() / expected < 1e-5,
                "{n} threads: {sum} vs {expected}"
            );
            let maxv = par_reduce(&data, f32::NEG_INFINITY, |x| x, f32::max);
            assert_eq!(maxv, 99.0);
        }
        set_threads(saved);
    }

    #[test]
    fn thread_override_round_trip() {
        let _knob = test_thread_knob();
        let saved = THREAD_OVERRIDE.load(Ordering::Relaxed);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
        set_threads(saved);
    }

    #[test]
    #[should_panic(expected = "chunk_size")]
    fn zero_chunk_size_panics() {
        let mut data = vec![0.0f32; 4];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn par_ranges_covers_exactly_once() {
        use std::sync::Mutex;
        for total in [0usize, 1, 7, 16, 100, 4097] {
            for granularity in [1usize, 8, 16] {
                let hits = Mutex::new(vec![0u32; total]);
                par_ranges(total, granularity, |start, end| {
                    assert!(start < end || total == 0);
                    let mut hits = hits.lock().unwrap();
                    for h in &mut hits[start..end] {
                        *h += 1;
                    }
                });
                assert!(
                    hits.into_inner().unwrap().iter().all(|&h| h == 1),
                    "total {total} granularity {granularity} not covered exactly once"
                );
            }
        }
    }

    #[test]
    fn par_ranges_respects_granularity_boundaries() {
        use std::sync::Mutex;
        let starts = Mutex::new(Vec::new());
        par_ranges(100, 16, |start, _end| {
            starts.lock().unwrap().push(start);
        });
        for s in starts.into_inner().unwrap() {
            assert_eq!(s % 16, 0, "range start {s} not aligned to granularity");
        }
    }
}
