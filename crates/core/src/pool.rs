//! A persistent, dependency-free worker pool with a scoped dispatch API.
//!
//! The paper's headline numbers are end-to-end wall-clock speedups on 8
//! hardware threads, and the iterative builders (NNDescent, Hyrec) call the
//! [`crate::parallel`] helpers once or twice **per join window**. Spawning
//! and joining fresh OS threads on every helper call costs tens of
//! microseconds per dispatch and dominates exactly in the
//! small-per-iteration-work regime the paper's convergence figures study.
//! This module fixes that the way real runtimes (rayon, Cilk-style
//! schedulers) do: spawn the workers **once**, park them on a condvar when
//! idle, and feed them work through a shared slot.
//!
//! ## Model
//!
//! - [`Pool::new(threads)`](Pool::new) spawns `threads − 1` background
//!   workers; the thread that dispatches work always participates, so a
//!   1-thread pool has no workers at all and runs everything inline.
//! - [`Pool::scope(slots, body)`](Pool::scope) is the scoped broadcast
//!   primitive: it runs `body(slot)` for every `slot in 0..slots`, spread
//!   across the workers and the calling thread, and **blocks until every
//!   slot has finished** — which is what makes it safe to capture borrowed
//!   (non-`'static`) data in `body`, exactly like `std::thread::scope`.
//! - [`Pool::install(f)`](Pool::install) makes the pool the *current* pool
//!   for the duration of `f` (a thread-local stack, so installs nest). The
//!   [`crate::parallel`] helpers consult [`Pool::current`] and dispatch on
//!   the installed pool; with none installed (or a 1-thread one) they build
//!   a pool for the one call, so every parallel helper call goes through
//!   [`Pool::scope`].
//!
//! ## Work stealing
//!
//! The pool distributes *slots* dynamically (an atomic cursor over
//! `0..slots`), and the index-driven helper (`par_fold_dynamic`) layers
//! per-worker chunked ranges on top: each slot owns a contiguous region of
//! the index space and claims `grain`-sized blocks from its own region
//! first, then steals blocks from other regions once its own runs dry (see
//! [`StealRegions`]). Steals are counted in the pool's [`PoolStats`].
//!
//! ## Determinism
//!
//! The pool never changes *what* is computed, only *which thread* computes
//! it. Helpers that must produce ordered output collect into slot-indexed
//! storage and stitch in slot order, so results are bit-identical on any
//! pool, installed or call-scoped (property-tested in `goldfinger-knn`).

use goldfinger_obs::trace;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

thread_local! {
    /// Stack of installed pools (innermost last).
    static CURRENT: RefCell<Vec<Arc<Pool>>> = const { RefCell::new(Vec::new()) };
    /// Set while this thread is a pool worker executing a job; dispatching
    /// from inside a body must run inline instead of re-entering the slot
    /// (the worker would wait for a job it is itself part of).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Point-in-time snapshot of a pool's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total parallelism of the pool (background workers + the caller).
    pub threads: u64,
    /// Scoped dispatches served ([`Pool::scope`] calls that went parallel).
    pub dispatches: u64,
    /// Slot bodies executed, caller participation included.
    pub tasks_run: u64,
    /// Grain-sized blocks claimed from another slot's region by the
    /// work-stealing helpers.
    pub steals: u64,
    /// Times a worker went to sleep waiting for work.
    pub parks: u64,
    /// Times a sleeping worker was woken by a dispatch (or shutdown).
    pub unparks: u64,
    /// OS thread spawns a persistent pool saves over spawning one thread per
    /// slot of every parallel dispatch.
    pub spawns_avoided: u64,
}

impl PoolStats {
    /// Counter-wise difference `self − earlier` (for per-run deltas).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            threads: self.threads,
            dispatches: self.dispatches - earlier.dispatches,
            tasks_run: self.tasks_run - earlier.tasks_run,
            steals: self.steals - earlier.steals,
            parks: self.parks - earlier.parks,
            unparks: self.unparks - earlier.unparks,
            spawns_avoided: self.spawns_avoided - earlier.spawns_avoided,
        }
    }
}

#[derive(Default)]
struct Counters {
    dispatches: AtomicU64,
    tasks_run: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    spawns_avoided: AtomicU64,
}

/// The job currently offered to the workers. Points at a [`JobCore`] on the
/// dispatching thread's stack; validity is guaranteed by the hand-off
/// protocol (see the safety argument on [`Pool::scope_erased`]).
#[derive(Clone, Copy)]
struct JobRef(*const JobCore<'static>);

// SAFETY: the pointee is only dereferenced by workers between taking a
// reference under the slot lock (which proves the dispatcher has not
// reclaimed it) and dropping that reference; the dispatcher blocks until
// `refs == 0` before its stack frame dies.
unsafe impl Send for JobRef {}

struct JobCore<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    /// Next unclaimed slot index.
    next: AtomicUsize,
    /// Total number of slots.
    slots: usize,
    /// Slots not yet finished executing.
    pending: AtomicUsize,
    /// Workers currently holding a [`JobRef`] to this core.
    refs: AtomicUsize,
    /// First panic payload raised by a slot body, rethrown by the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl JobCore<'_> {
    /// Claims and runs slots until none remain; returns how many ran.
    fn drain(&self) -> u64 {
        let mut ran = 0u64;
        loop {
            let slot = self.next.fetch_add(1, Ordering::Relaxed);
            if slot >= self.slots {
                return ran;
            }
            let _task = trace::span_arg("pool", "task", slot as u64);
            let result = catch_unwind(AssertUnwindSafe(|| (self.body)(slot)));
            if let Err(payload) = result {
                let mut first = self.panic.lock().unwrap();
                if first.is_none() {
                    *first = Some(payload);
                }
            }
            // Release: pairs with the dispatcher's Acquire load so every
            // slot's writes are visible once `pending` reads zero.
            self.pending.fetch_sub(1, Ordering::Release);
            ran += 1;
        }
    }
}

struct Slot {
    /// Bumped on every publication; lets a worker distinguish a job it has
    /// already served from a fresh one.
    epoch: u64,
    job: Option<JobRef>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers park here waiting for a publication.
    work_cv: Condvar,
    /// Dispatchers park here waiting for completion (or for the slot).
    done_cv: Condvar,
    counters: Counters,
}

/// A persistent pool of parked worker threads (see the module docs).
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Creates a pool with `threads` total parallelism: `threads − 1`
    /// background workers are spawned immediately (and parked); the
    /// dispatching thread is the remaining worker. `threads = 0` means
    /// [`default_threads`].
    pub fn new(threads: usize) -> Arc<Pool> {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            counters: Counters::default(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gf-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(Pool {
            shared,
            workers,
            threads,
        })
    }

    /// Total parallelism (background workers + the dispatching thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lifetime counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            threads: self.threads as u64,
            dispatches: c.dispatches.load(Ordering::Relaxed),
            tasks_run: c.tasks_run.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            unparks: c.unparks.load(Ordering::Relaxed),
            spawns_avoided: c.spawns_avoided.load(Ordering::Relaxed),
        }
    }

    /// Records `n` stolen blocks (used by the work-stealing helpers).
    #[inline]
    pub fn record_steals(&self, n: u64) {
        if n > 0 {
            self.shared.counters.steals.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Makes this pool the current pool for the duration of `f` (nestable;
    /// restored on unwind). The [`crate::parallel`] helpers pick it up via
    /// [`Pool::current`].
    pub fn install<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        struct Uninstall;
        impl Drop for Uninstall {
            fn drop(&mut self) {
                CURRENT.with(|c| c.borrow_mut().pop());
            }
        }
        CURRENT.with(|c| c.borrow_mut().push(Arc::clone(self)));
        let _guard = Uninstall;
        f()
    }

    /// The innermost pool installed on this thread, if any.
    pub fn current() -> Option<Arc<Pool>> {
        CURRENT.with(|c| c.borrow().last().cloned())
    }

    /// Whether this thread is running a pool body, as a worker or as the
    /// participating dispatcher: a dispatch from here runs inline.
    pub(crate) fn in_body() -> bool {
        IN_WORKER.with(Cell::get)
    }

    /// Runs `body(slot)` for every `slot in 0..slots` across the pool's
    /// workers and the calling thread, blocking until all slots complete.
    ///
    /// Because the call does not return before every body has finished,
    /// `body` may freely capture borrowed data — the same guarantee
    /// `std::thread::scope` gives, without the per-call spawn/join.
    ///
    /// Slots are claimed dynamically, so a slow slot does not leave the
    /// other threads idle. A dispatch from inside a pool worker (nested
    /// parallelism) runs inline on that worker instead of deadlocking on
    /// the job slot.
    ///
    /// # Panics
    /// If a body panics, the panic is captured, every remaining slot still
    /// runs to completion, and the first payload is rethrown on the calling
    /// thread (mirroring `std::thread::scope`).
    pub fn scope<F>(&self, slots: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.scope_erased(slots, &body)
    }

    fn scope_erased(&self, slots: usize, body: &(dyn Fn(usize) + Sync)) {
        if slots == 0 {
            return;
        }
        // Inline paths: nothing to parallelise, no workers to hand off to,
        // or we *are* a worker (re-entering the slot would deadlock).
        if slots == 1 || self.workers.is_empty() || Pool::in_body() {
            let core = JobCore {
                body,
                next: AtomicUsize::new(0),
                slots,
                pending: AtomicUsize::new(slots),
                refs: AtomicUsize::new(0),
                panic: Mutex::new(None),
            };
            let ran = core.drain();
            self.shared
                .counters
                .tasks_run
                .fetch_add(ran, Ordering::Relaxed);
            if let Some(payload) = core.panic.lock().unwrap().take() {
                resume_unwind(payload);
            }
            return;
        }

        let _dispatch = trace::span_arg("pool", "dispatch", slots as u64);
        let core = JobCore {
            body,
            next: AtomicUsize::new(0),
            slots,
            pending: AtomicUsize::new(slots),
            refs: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        // SAFETY (lifetime erasure): `core` outlives the publication window.
        // Workers obtain the pointer only under `shared.slot`'s lock while
        // `slot.job` is `Some`, incrementing `core.refs` before releasing
        // the lock; below we (a) wait until `pending == 0 && refs == 0`
        // while holding that same lock and (b) clear `slot.job` before
        // returning, so no worker can observe the pointer after this frame
        // is gone.
        let job = JobRef((&core as *const JobCore<'_>).cast::<JobCore<'static>>());
        {
            let mut slot = self.shared.slot.lock().unwrap();
            // Serialise dispatchers: wait until the slot is free.
            while slot.job.is_some() {
                slot = self.shared.done_cv.wait(slot).unwrap();
            }
            slot.epoch += 1;
            slot.job = Some(job);
            self.shared.work_cv.notify_all();
        }
        let c = &self.shared.counters;
        c.dispatches.fetch_add(1, Ordering::Relaxed);
        // Spawning per dispatch would have cost one OS thread per slot.
        c.spawns_avoided.fetch_add(slots as u64, Ordering::Relaxed);

        // Participate: the dispatching thread is a worker too. Mark it as
        // one for the duration, so a nested `scope` from inside a body
        // drains inline instead of queueing behind this very job.
        let prev = IN_WORKER.with(|w| w.replace(true));
        let ran = core.drain();
        IN_WORKER.with(|w| w.set(prev));
        c.tasks_run.fetch_add(ran, Ordering::Relaxed);

        // Wait for every slot to finish *and* every worker to drop its
        // reference, then retire the job — all under the lock, so no new
        // reference can appear after the final check.
        let mut slot = self.shared.slot.lock().unwrap();
        while core.pending.load(Ordering::Acquire) != 0 || core.refs.load(Ordering::Acquire) != 0 {
            slot = self.shared.done_cv.wait(slot).unwrap();
        }
        slot.job = None;
        drop(slot);
        // Wake any dispatcher queued on the slot.
        self.shared.done_cv.notify_all();

        let payload = core.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|w| w.set(true));
    let mut last_epoch = 0u64;
    loop {
        // Park until a job newer than the last one served appears.
        let job = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != last_epoch {
                    last_epoch = slot.epoch;
                    if let Some(job) = slot.job {
                        // Register interest while the lock proves the
                        // dispatcher is still pinned.
                        // SAFETY: `slot.job` is `Some`, so the dispatcher
                        // is blocked in `scope_erased` and the core alive.
                        unsafe { &(*job.0).refs }.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                    // Epoch moved but the job was already retired: rescan.
                    continue;
                }
                shared.counters.parks.fetch_add(1, Ordering::Relaxed);
                // Instants, not a span: a worker still blocked in `wait`
                // when the trace drains would leave the span unclosed.
                trace::instant("pool", "park", 0);
                slot = shared.work_cv.wait(slot).unwrap();
                trace::instant("pool", "unpark", 0);
                shared.counters.unparks.fetch_add(1, Ordering::Relaxed);
            }
        };
        // SAFETY: `refs` was incremented under the lock above; the
        // dispatcher cannot retire the core until we decrement it.
        let core = unsafe { &*job.0 };
        let ran = core.drain();
        shared.counters.tasks_run.fetch_add(ran, Ordering::Relaxed);
        // Release the core, then wake the dispatcher. Taking the lock
        // before notifying closes the missed-wakeup window against the
        // dispatcher's check-then-wait.
        core.refs.fetch_sub(1, Ordering::Release);
        let _guard = shared.slot.lock().unwrap();
        shared.done_cv.notify_all();
    }
}

/// Default pool parallelism: the `GF_THREADS` environment variable when set
/// to a positive integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    match std::env::var("GF_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => available_parallelism(),
        },
        Err(_) => available_parallelism(),
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Contiguous per-slot index regions with an atomic-cursor stealing path:
/// the scheduling structure behind the dynamic helpers.
///
/// `0..n` is split into one near-equal contiguous region per slot. A slot
/// first claims `grain`-sized blocks from its **own** region (good
/// locality, zero contention while every region has work), then sweeps the
/// other regions in cyclic order and claims their leftover blocks — the
/// stealing path that keeps threads busy when per-index cost is skewed.
/// Every index in `0..n` is claimed exactly once across all slots.
pub struct StealRegions {
    cursors: Vec<AtomicUsize>,
    bounds: Vec<(usize, usize)>,
    grain: usize,
}

impl StealRegions {
    /// Splits `0..n` into `slots` regions claimed in `grain`-sized blocks.
    pub fn new(n: usize, slots: usize, grain: usize) -> StealRegions {
        let slots = slots.max(1);
        let grain = grain.max(1);
        let chunk = n.div_ceil(slots);
        let bounds: Vec<(usize, usize)> = (0..slots)
            .map(|s| ((s * chunk).min(n), ((s + 1) * chunk).min(n)))
            .collect();
        let cursors = bounds.iter().map(|&(lo, _)| AtomicUsize::new(lo)).collect();
        StealRegions {
            cursors,
            bounds,
            grain,
        }
    }

    /// Drives `f` over every block slot `slot` manages to claim — its own
    /// region first, then steals. Returns the number of stolen blocks.
    pub fn drain<F: FnMut(usize, usize)>(&self, slot: usize, mut f: F) -> u64 {
        let slots = self.bounds.len();
        let mut steals = 0u64;
        for turn in 0..slots {
            let victim = (slot + turn) % slots;
            let (_, hi) = self.bounds[victim];
            loop {
                let start = self.cursors[victim].fetch_add(self.grain, Ordering::Relaxed);
                if start >= hi {
                    break;
                }
                f(start, (start + self.grain).min(hi));
                if turn > 0 {
                    steals += 1;
                    trace::instant("pool", "steal", victim as u64);
                }
            }
        }
        steals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_slot_exactly_once() {
        let pool = Pool::new(4);
        for slots in [0usize, 1, 3, 4, 17, 100] {
            let hits: Vec<AtomicU64> = (0..slots).map(|_| AtomicU64::new(0)).collect();
            pool.scope(slots, |s| {
                hits[s].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "slots={slots}"
            );
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        pool.scope(5, |_| assert_eq!(std::thread::current().id(), caller));
        assert_eq!(pool.stats().dispatches, 0);
        assert_eq!(pool.stats().tasks_run, 5);
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..200 {
            pool.scope(8, |s| {
                total.fetch_add(s as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * (1..=8).sum::<u64>());
        let stats = pool.stats();
        assert_eq!(stats.dispatches, 200);
        assert_eq!(stats.tasks_run, 200 * 8);
        assert_eq!(stats.spawns_avoided, 200 * 8);
    }

    #[test]
    fn borrowed_data_is_safe_to_capture() {
        let pool = Pool::new(4);
        let mut data = vec![0u64; 64];
        let slices: Vec<Mutex<Option<&mut [u64]>>> =
            data.chunks_mut(16).map(|c| Mutex::new(Some(c))).collect();
        pool.scope(slices.len(), |s| {
            let mut guard = slices[s].lock().unwrap();
            for v in guard.take().unwrap() {
                *v = s as u64;
            }
        });
        drop(slices);
        assert_eq!(data[0], 0);
        assert_eq!(data[63], 3);
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(Pool::current().is_none());
        let outer = Pool::new(2);
        let inner = Pool::new(3);
        outer.install(|| {
            assert_eq!(Pool::current().unwrap().threads(), 2);
            inner.install(|| {
                assert_eq!(Pool::current().unwrap().threads(), 3);
            });
            assert_eq!(Pool::current().unwrap().threads(), 2);
        });
        assert!(Pool::current().is_none());
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(16, |s| {
                if s == 7 {
                    panic!("slot seven misbehaves");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "slot seven misbehaves");
        // The pool is still serviceable afterwards.
        let count = AtomicU64::new(0);
        pool.scope(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_scope_from_a_body_runs_inline() {
        // `scope` from within a body (worker- or caller-side) must drain
        // inline rather than deadlock on the single job slot.
        let pool = Pool::new(2);
        let ran = AtomicU64::new(0);
        pool.scope(4, |_| {
            pool.scope(3, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4 * 3);
    }

    #[test]
    fn workers_park_when_idle() {
        let pool = Pool::new(4);
        pool.scope(8, |_| {});
        // Give the workers a moment to go back to sleep, then check the
        // park counter moved (each worker parks at least once at startup).
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(pool.stats().parks >= 3, "stats: {:?}", pool.stats());
    }

    #[test]
    fn steal_regions_cover_everything_exactly_once() {
        for n in [0usize, 1, 7, 100, 257] {
            for slots in [1usize, 2, 3, 8] {
                for grain in [1usize, 4, 64] {
                    let regions = StealRegions::new(n, slots, grain);
                    let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                    std::thread::scope(|scope| {
                        for s in 0..slots {
                            let regions = &regions;
                            let hits = &hits;
                            scope.spawn(move || {
                                regions.drain(s, |lo, hi| {
                                    for h in &hits[lo..hi] {
                                        h.fetch_add(1, Ordering::Relaxed);
                                    }
                                });
                            });
                        }
                    });
                    assert!(
                        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                        "n={n} slots={slots} grain={grain}"
                    );
                }
            }
        }
    }

    #[test]
    fn stealing_happens_when_other_slots_never_show_up() {
        // Slot 0 drains everything alone: its own region [0, 25) yields 3
        // owned blocks (grain 10), then 3 blocks from each of the 3 other
        // regions — 9 steals, full coverage.
        let regions = StealRegions::new(100, 4, 10);
        let mut covered = 0usize;
        let steals = regions.drain(0, |lo, hi| covered += hi - lo);
        assert_eq!(covered, 100);
        assert_eq!(steals, 9);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
