//! Minimal data-parallel utilities on top of the worker [`Pool`].
//!
//! The paper's evaluation runs every algorithm on 8 hardware threads. These
//! helpers give the KNN algorithms the same structure without pulling in a
//! full task runtime: per-region atomic cursors with a stealing path for
//! irregular work ([`par_fold_dynamic`]) and ordered collectors
//! ([`par_map_indexed`], [`par_map_chunks`]).
//!
//! Every helper dispatches through [`Pool::scope`], on one of two pools:
//!
//! - the **installed** pool ([`Pool::install`]) when it has more than one
//!   thread — the hot path for the iterative builders, which dispatch once
//!   or twice per join window and would otherwise pay a full OS spawn/join
//!   round-trip each time;
//! - otherwise a **call-scoped** pool of the requested size, built for the
//!   one call and dropped after it, so callers that install nothing still
//!   run in parallel.
//!
//! A helper called from inside a pool body runs serially on the calling
//! thread and builds no pool.
//!
//! Determinism: helpers that return ordered data collect into slot-indexed
//! storage and stitch in slot order; fold states come back indexed by slot
//! so reducers can merge in a fixed order. Which OS thread runs a slot is
//! scheduler-dependent, but the output never is.

use crate::pool::{Pool, StealRegions};
use std::sync::Mutex;

/// Effective thread count: `requested` capped to at least 1.
///
/// `requested = 0` means "use the default parallelism" — the `GF_THREADS`
/// environment variable when set, the machine's available parallelism
/// otherwise (see [`crate::pool::default_threads`]).
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        crate::pool::default_threads()
    } else {
        requested
    }
}

/// Slots a helper over `n` items splits into: the effective `threads`
/// capped to `n`, or 1 inside a pool body, where nested work runs inline.
fn slot_count(n: usize, threads: usize) -> usize {
    if Pool::in_body() {
        1
    } else {
        effective_threads(threads).min(n.max(1))
    }
}

/// Runs `body(pool, slot)` for every `slot in 0..slots` on the installed
/// pool when it has more than one thread, else on a pool of `slots` threads
/// built for this call.
fn dispatch<F>(slots: usize, body: F)
where
    F: Fn(&Pool, usize) + Sync,
{
    let run = |pool: &Pool| pool.scope(slots, |t| body(pool, t));
    match Pool::current().filter(|p| p.threads() > 1) {
        Some(pool) => run(&pool),
        None => run(&Pool::new(slots)),
    }
}

/// Maps `f` over `0..n` in parallel and collects results in index order.
///
/// Results are produced chunk-wise into slot-indexed storage and stitched
/// back together; `O(n)` memory, no locks on the hot path.
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots = slot_count(n, threads);
    if slots <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(slots);
    let parts: Vec<Mutex<Vec<T>>> = (0..slots).map(|_| Mutex::new(Vec::new())).collect();
    dispatch(slots, |_, t| {
        let part: Vec<T> = (t * chunk..((t + 1) * chunk).min(n)).map(&f).collect();
        *parts[t].lock().unwrap() = part;
    });
    parts
        .into_iter()
        .flat_map(|p| p.into_inner().unwrap())
        .collect()
}

/// Folds indices `0..n` into per-slot accumulators with dynamic
/// (work-stealing) scheduling, returning the accumulators in slot order.
///
/// Each slot builds its state with `init(slot_index)`, then claims
/// `grain`-sized blocks — its own region first, then steals — and folds
/// them in with `fold(&mut state, index)`. The states come back indexed by
/// slot, so deterministic reducers can merge them in a fixed order.
///
/// This is the engine behind the Brute Force and Cluster scans: each slot
/// keeps private top-k partials (no locks on the hot path) that the caller
/// merges afterwards.
pub fn par_fold_dynamic<T, I, F>(n: usize, threads: usize, grain: usize, init: I, fold: F) -> Vec<T>
where
    T: Send,
    I: Fn(usize) -> T + Sync,
    F: Fn(&mut T, usize) + Sync,
{
    let slots = slot_count(n, threads);
    if slots <= 1 {
        let mut state = init(0);
        for i in 0..n {
            fold(&mut state, i);
        }
        return vec![state];
    }
    let regions = StealRegions::new(n, slots, grain);
    let states: Vec<Mutex<Option<T>>> = (0..slots).map(|_| Mutex::new(None)).collect();
    dispatch(slots, |pool, t| {
        let mut state = init(t);
        let steals = regions.drain(t, |lo, hi| {
            for i in lo..hi {
                fold(&mut state, i);
            }
        });
        pool.record_steals(steals);
        *states[t].lock().unwrap() = Some(state);
    });
    states
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every slot ran"))
        .collect()
}

/// Maps `f` over mutable, disjoint chunks of `data` in parallel.
///
/// `f` receives `(chunk_index, first_element_index, chunk)`. Chunks are
/// `ceil(len / threads)` elements each, so only the **final** chunk can be
/// short — `first_element_index` is therefore exactly
/// `chunk_index * ceil(len / threads)` for every chunk, including a final
/// short one when `len % threads != 0` (pinned by regression tests).
pub fn par_map_chunks<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let n = data.len();
    let slots = slot_count(n, threads);
    if slots <= 1 {
        f(0, 0, data);
        return;
    }
    let chunk = n.div_ceil(slots);
    let pieces: Vec<Mutex<Option<&mut [T]>>> = data
        .chunks_mut(chunk)
        .map(|piece| Mutex::new(Some(piece)))
        .collect();
    dispatch(pieces.len(), |_, t| {
        let piece = pieces[t].lock().unwrap().take().expect("chunk taken once");
        f(t, t * chunk, piece);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;

    /// Runs `check` twice: with no pool installed (a call-scoped pool per
    /// helper call) and under an installed 4-thread pool.
    fn on_both_paths(check: impl Fn()) {
        check();
        Pool::new(4).install(&check);
    }

    #[test]
    fn effective_threads_floor_is_one() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn map_indexed_preserves_order() {
        on_both_paths(|| {
            for threads in [1usize, 2, 3, 7, 16] {
                for n in [0usize, 1, 5, 64, 1000] {
                    let out = par_map_indexed(n, threads, |i| i * i);
                    let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                    assert_eq!(out, want, "threads={threads} n={n}");
                }
            }
        });
    }

    #[test]
    fn fold_dynamic_partitions_all_indices() {
        on_both_paths(|| {
            for threads in [1usize, 2, 4, 7] {
                for grain in [1usize, 3, 64] {
                    let states = par_fold_dynamic(
                        500,
                        threads,
                        grain,
                        |_| Vec::new(),
                        |state: &mut Vec<usize>, i| state.push(i),
                    );
                    assert!(states.len() <= threads);
                    let mut all: Vec<usize> = states.into_iter().flatten().collect();
                    all.sort_unstable();
                    assert_eq!(
                        all,
                        (0..500).collect::<Vec<_>>(),
                        "threads={threads} grain={grain}"
                    );
                }
            }
        });
    }

    #[test]
    fn map_chunks_mutates_disjointly() {
        on_both_paths(|| {
            let mut data = vec![0u64; 103];
            par_map_chunks(&mut data, 4, |_, base, chunk| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v = (base + off) as u64;
                }
            });
            assert_eq!(data, (0..103).collect::<Vec<u64>>());
        });
    }

    /// Regression: when `n % chunk != 0`, the final chunk produced by
    /// `chunks_mut` is short, and its `first_element_index` must still be
    /// the true offset of its first element — `chunk_index * ceil(n /
    /// threads)` — with and without an installed pool, at several thread
    /// counts. A base derived from the short chunk's own length would be
    /// wrong exactly here.
    #[test]
    fn map_chunks_base_is_exact_for_short_final_chunk() {
        on_both_paths(|| {
            for threads in [2usize, 3, 4, 5, 8, 13] {
                for n in [7usize, 10, 97, 103, 256, 1000] {
                    let chunk = n.div_ceil(threads);
                    let mut data: Vec<u64> = (0..n as u64).collect();
                    par_map_chunks(&mut data, threads, |t, base, piece| {
                        assert_eq!(base, t * chunk, "threads={threads} n={n}");
                        for (off, v) in piece.iter_mut().enumerate() {
                            // Each element must see its true global index.
                            assert_eq!(*v, (base + off) as u64);
                            *v += 1;
                        }
                    });
                    assert_eq!(data, (1..=n as u64).collect::<Vec<u64>>());
                }
            }
        });
    }

    /// A helper called from inside a pool body — installed or call-scoped —
    /// runs on the calling thread, builds no pool, and returns the serial
    /// result (one fold state).
    #[test]
    fn helpers_inside_a_pool_body_run_inline_and_serially() {
        let nested = || {
            let here = std::thread::current().id();
            let squares = par_map_indexed(100, 4, |i| {
                assert_eq!(std::thread::current().id(), here);
                i * i
            });
            assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
            let states = par_fold_dynamic(
                100,
                4,
                1,
                |_| Vec::new(),
                |state: &mut Vec<usize>, i| {
                    assert_eq!(std::thread::current().id(), here);
                    state.push(i);
                },
            );
            assert_eq!(states, vec![(0..100).collect::<Vec<_>>()]);
        };
        let pool = Pool::new(4);
        pool.install(|| pool.scope(4, |_| nested()));
        assert_eq!(pool.stats().dispatches, 1, "nested calls dispatched");
        par_map_indexed(4, 4, |_| nested());
    }

    #[test]
    fn pooled_helpers_count_steals_and_avoid_spawns() {
        let pool = Pool::new(4);
        pool.install(|| {
            let _ = par_map_indexed(1000, 4, |i| i);
            let _ = par_fold_dynamic(1000, 4, 1, |_| 0u64, |s, _| *s += 1);
        });
        let stats = pool.stats();
        assert_eq!(stats.dispatches, 2);
        assert_eq!(stats.spawns_avoided, 8);
        assert_eq!(stats.tasks_run, 8);
    }
}
