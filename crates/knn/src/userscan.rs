//! The per-user scan shared by LSH, KIFF and the out-of-core build: the
//! counterpart of [`crate::partials`] for builders whose scan is one
//! self-contained pass per user rather than a fold of pair offers.
//!
//! A builder supplies one closure that writes a user's candidates, using
//! a per-worker scratch of its own (a visit stamp for the LSH bucket
//! scans, co-rating counts for KIFF). The driver does the rest, the same
//! way for all three: users are claimed dynamically in grains of
//! [`GRAIN`] (bucket and co-rater counts are skewed, which is what
//! stealing smooths out), each user's candidates are scored through one
//! [`Similarity::similarity_batch`] call (the gather kernel for
//! fingerprint providers) into a [`TopK`], and the lists come back in
//! user order with the evaluation count, one per candidate.
//!
//! Every user's scan depends only on the user and the read-only inputs,
//! so lists and counter are bit-identical at any thread count. A
//! [`UserScan`] keeps each worker's O(n) scratch between runs: a builder
//! that scans in blocks (the out-of-core shards) allocates it once per
//! build. DESIGN.md §11.

use crate::graph::{KnnGraph, KnnResult};
use crate::partials::one_pass;
use goldfinger_core::parallel::{effective_threads, par_fold_dynamic};
use goldfinger_core::similarity::Similarity;
use goldfinger_core::topk::{Scored, TopK};
use goldfinger_obs::{BuildObserver, Phase, PhaseTimer};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// Users per claimed unit of work.
const GRAIN: usize = 32;

/// One worker's scratch: the builder's own plus the candidate and
/// similarity buffers.
struct Worker<W> {
    scratch: W,
    candidates: Vec<u32>,
    sims: Vec<f64>,
}

/// Per-user scan driver over `threads` workers whose scratch outlives
/// one [`UserScan::run`].
pub(crate) struct UserScan<W, I> {
    k: usize,
    threads: usize,
    init: I,
    /// Each worker slot's scratch between runs, allocated by `init` the
    /// first time the slot runs.
    parked: Vec<Mutex<Option<Worker<W>>>>,
}

impl<W: Send, I: Fn() -> W + Sync> UserScan<W, I> {
    /// A driver keeping top-`k` lists on `threads` workers (`0` = default
    /// parallelism), each with scratch built by `init`.
    pub(crate) fn new(k: usize, threads: usize, init: I) -> Self {
        UserScan {
            k,
            threads,
            init,
            parked: (0..effective_threads(threads))
                .map(|_| Mutex::new(None))
                .collect(),
        }
    }

    /// Scans `users`: `candidates(scratch, u, out)` appends `u`'s
    /// candidates to the empty `out`, and the driver scores and ranks
    /// them. Returns the top-k lists in user order and the evaluation
    /// count.
    pub(crate) fn run<C>(
        &self,
        users: Range<u32>,
        sim: &dyn Similarity,
        candidates: C,
    ) -> (Vec<Vec<Scored>>, u64)
    where
        C: Fn(&mut W, u32, &mut Vec<u32>) + Sync,
    {
        let lo = users.start;
        let len = users.len();
        let states = par_fold_dynamic(
            len,
            self.threads,
            GRAIN,
            |slot| {
                let parked = self.parked[slot].lock().expect("no worker panics").take();
                let worker = parked.unwrap_or_else(|| Worker {
                    scratch: (self.init)(),
                    candidates: Vec::new(),
                    sims: Vec::new(),
                });
                (worker, 0u64, Vec::new())
            },
            |(w, evals, out), i| {
                let u = lo + i as u32;
                w.candidates.clear();
                candidates(&mut w.scratch, u, &mut w.candidates);
                *evals += w.candidates.len() as u64;
                w.sims.clear();
                w.sims.resize(w.candidates.len(), 0.0);
                sim.similarity_batch(u, &w.candidates, &mut w.sims);
                let mut top = TopK::new(self.k);
                for (&v, &s) in w.candidates.iter().zip(&w.sims) {
                    top.offer(s, v);
                }
                out.push((i, top.into_sorted()));
            },
        );
        let mut lists = vec![Vec::new(); len];
        let mut evals = 0;
        for (slot, (worker, slot_evals, out)) in states.into_iter().enumerate() {
            evals += slot_evals;
            for (i, list) in out {
                lists[i] = list;
            }
            *self.parked[slot].lock().expect("no worker panics") = Some(worker);
        }
        (lists, evals)
    }
}

/// The join of a one-pass builder (LSH, KIFF) over every user of `sim`:
/// one [`UserScan`] run under a [`Phase::Join`] span, then the shared
/// one-pass tail. `start` is when the build began.
pub(crate) fn scan_all_users<W, I, C>(
    sim: &dyn Similarity,
    k: usize,
    threads: usize,
    obs: &dyn BuildObserver,
    start: Instant,
    init: I,
    candidates: C,
) -> KnnResult
where
    W: Send,
    I: Fn() -> W + Sync,
    C: Fn(&mut W, u32, &mut Vec<u32>) + Sync,
{
    let join = PhaseTimer::start(obs, Phase::Join);
    let n = sim.n_users() as u32;
    let (lists, evals) = UserScan::new(k, threads, init).run(0..n, sim, candidates);
    let graph = KnnGraph::from_lists(k, lists);
    drop(join);
    one_pass(obs, start, graph, evals)
}
