//! The shared iterative-refinement engine behind NNDescent and Hyrec.
//!
//! Both algorithms follow the same skeleton — seed a random graph, then
//! repeat *generate candidates → join candidate pairs → test convergence*
//! until fewer than `δ·k·n` neighbour-list updates happen in an iteration.
//! [`RefineEngine`] owns that skeleton exactly once: parameter asserts, the
//! seeded [`random_lists`] init and its iteration-0 event, per-iteration
//! [`IterationEvent`]s with the `δ·k·n` threshold, phase spans, the join
//! itself, the `NeighborList → KnnGraph` finalize and the [`BuildStats`]
//! assembly. What varies per algorithm is expressed as a [`JoinStrategy`]:
//! how candidates are planned from the current lists, and which pairs are
//! joined for a given user.
//!
//! # Joins: plan → score → apply
//!
//! One path serves every thread count. The join phase walks the users in
//! windows of `WINDOW` consecutive join users; within a window:
//!
//! 1. **Score.** Workers take contiguous user ranges (slot order = user
//!    order) and score each user's candidate batches through
//!    [`Similarity::similarity_batch`]. Every pair is offered to both
//!    endpoints, but an offer is kept only when it beats the target's
//!    *floor*: the list's worst entry `(sim, user)` as the window began, or
//!    below everything while the list still has room. Kept offers go into
//!    per-worker buffers as `(target, source, sim)` proposals, bucketed by
//!    the apply shard that owns the target.
//! 2. **Apply.** Each apply worker owns a disjoint range of targets and
//!    feeds them their proposals, worker buffer by worker buffer in slot
//!    order, through [`NeighborList::insert`]. An insert into a full list
//!    compares the offer with the list's cached worst entry, then tests
//!    membership with one branch-free compare over the list's contiguous
//!    ids; only an accepted offer writes a slot and rescans the
//!    similarities for the next worst. The worker counts accepted inserts
//!    and copies each changed list's O(1) `NeighborList::floor` into the
//!    floors the next window scores against.
//!
//! # Determinism contract
//!
//! The output — graph, eval and update counters, iteration count — is
//! bit-identical for every `threads` value, with or without an installed
//! pool, and equal to the plain serial loop that joins users in order and
//! inserts every offer straight into the lists (pinned by
//! `tests/golden_seed.rs` and the `refine_is_bit_identical` property test).
//! Candidate planning is sequential and is the only consumer of the RNG.
//!
//! Why dropping offers is exact. First, the join never reads the lists:
//! NNDescent's join reads only its plan and Hyrec's only its snapshot, so
//! scoring can run ahead of the inserts. Second, order entries by goodness
//! (`sim`, then lower user id): a full list's worst entry can only get
//! better, because an insert into a full list replaces the worst entry with
//! a better one. So an offer that does not beat its target's floor as the
//! window began would be a duplicate or rejected by the serial insert too,
//! and dropping it changes nothing. The kept offers reach each target in
//! serial generation order — windows in order, within a window worker
//! buffers in slot order, each buffer in generation order — so they build
//! exactly the serial lists and the serial `updates` count. None of this
//! depends on the window size: windows only bound the buffer memory and
//! let the floors tighten as the lists improve.

use crate::graph::{BuildStats, KnnGraph, KnnResult};
use crate::neighborlist::{outranks, random_lists, NeighborList};
use goldfinger_core::parallel::par_map_chunks;
use goldfinger_core::similarity::Similarity;
use goldfinger_obs::trace;
use goldfinger_obs::{BuildObserver, IterationEvent, Phase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Join users per score/apply window. Windows bound the proposal buffers
/// (16 bytes a proposal): in the first iteration nearly every offer beats
/// a random graph's floors — NNDescent keeps about 3 Ki proposals per user
/// on ml1M-like data at k = 30 — so a window keeps under 2 MiB; later
/// iterations keep far fewer.
const WINDOW: usize = 32;

/// Consumes candidate pairs during the join phase.
pub trait Joiner {
    /// Scores `a` against every candidate in `bs`, in order, and offers
    /// each similarity to both `a`'s and the candidate's neighbour list.
    fn join_batch(&mut self, a: u32, bs: &[u32]);
}

/// An algorithm's contribution to one refinement iteration: plan candidates
/// from the current graph, then join pairs per user. Implemented by
/// [`NNDescent`](crate::nndescent::NNDescent) and
/// [`Hyrec`](crate::hyrec::Hyrec); the engine supplies everything else.
pub trait JoinStrategy: Sync {
    /// Per-iteration candidate plan, computed sequentially and then read by
    /// every join worker.
    type Plan: Sync;
    /// Per-worker mutable scratch (e.g. a visited stamp), created once per
    /// worker per build.
    type Scratch: Send;

    /// Validates strategy-specific parameters; panics on invalid ones.
    fn validate(&self) {}

    /// Plans this iteration's candidates from the current lists. May flip
    /// entry flags (NNDescent clears `is_new`) and draw from `rng` — this
    /// is the only place refinement consumes randomness.
    fn candidates(&self, k: usize, lists: &mut [NeighborList], rng: &mut StdRng) -> Self::Plan;

    /// Creates the scratch for a worker over a population of `n` users.
    fn scratch(&self, n: usize) -> Self::Scratch;

    /// Feeds user `u`'s candidate pairs to the joiner. Must read only
    /// `plan`, never the lists, so users can be joined in any interleaving.
    fn join_user<J: Joiner>(
        &self,
        plan: &Self::Plan,
        u: usize,
        scratch: &mut Self::Scratch,
        joiner: &mut J,
    );
}

/// The goodness an offer must beat to change a list: its worst entry once
/// full, below every offer while it has room.
#[derive(Debug, Clone, Copy)]
struct Floor {
    sim: f64,
    user: u32,
}

impl Floor {
    fn of(list: &NeighborList) -> Floor {
        list.floor().map_or(
            Floor {
                sim: f64::NEG_INFINITY,
                user: u32::MAX,
            },
            |w| Floor {
                sim: w.sim,
                user: w.user,
            },
        )
    }

    #[inline]
    fn admits(self, sim: f64, user: u32) -> bool {
        outranks(sim, user, self.sim, self.user)
    }
}

/// A kept offer: `source` at similarity `sim` for `target`'s list.
#[derive(Debug, Clone, Copy)]
struct Proposal {
    target: u32,
    source: u32,
    sim: f64,
}

/// What a scoring worker emits, reused across windows and iterations.
struct Proposals {
    /// Similarities of the batch being joined.
    sims: Vec<f64>,
    /// Kept offers, one bucket per apply shard, in generation order.
    buckets: Vec<Vec<Proposal>>,
    /// Pairs scored this iteration.
    evals: u64,
}

/// A scoring worker: its strategy scratch and what it emits.
struct Worker<Sc> {
    scratch: Sc,
    out: Proposals,
}

/// The [`Joiner`] a scoring worker hands to its strategy.
struct Scorer<'a, S: ?Sized> {
    sim: &'a S,
    floors: &'a [Floor],
    shard_len: usize,
    out: &'a mut Proposals,
}

impl<S: Similarity + ?Sized> Joiner for Scorer<'_, S> {
    fn join_batch(&mut self, a: u32, bs: &[u32]) {
        let out = &mut *self.out;
        out.sims.clear();
        match bs {
            [] => return,
            // Nothing to amortise: skip the gather.
            [b] => out.sims.push(self.sim.similarity(a, *b)),
            _ => {
                out.sims.resize(bs.len(), 0.0);
                self.sim.similarity_batch(a, bs, &mut out.sims);
            }
        }
        out.evals += bs.len() as u64;
        let floor_a = self.floors[a as usize];
        for (&b, &sim) in bs.iter().zip(&out.sims) {
            if floor_a.admits(sim, b) {
                out.buckets[a as usize / self.shard_len].push(Proposal {
                    target: a,
                    source: b,
                    sim,
                });
            }
            if self.floors[b as usize].admits(sim, a) {
                out.buckets[b as usize / self.shard_len].push(Proposal {
                    target: b,
                    source: a,
                    sim,
                });
            }
        }
    }
}

/// An apply worker's disjoint range of targets.
struct Shard<'a> {
    index: usize,
    base: usize,
    lists: &'a mut [NeighborList],
    floors: &'a mut [Floor],
    updates: u64,
}

impl Shard<'_> {
    /// Applies every worker's proposals for this shard, in slot order.
    fn apply(&mut self, outs: &[&Proposals]) {
        for out in outs {
            for p in &out.buckets[self.index] {
                let t = p.target as usize - self.base;
                if self.lists[t].insert(p.source, p.sim) {
                    self.updates += 1;
                    self.floors[t] = Floor::of(&self.lists[t]);
                }
            }
        }
    }
}

/// The refinement-loop scaffolding shared by greedy KNN builders.
///
/// Owns everything around the per-algorithm [`JoinStrategy`]: the seeded
/// random-graph init, the iterate/join/converge/finalize loop, observer
/// events and spans, and the final [`BuildStats`].
#[derive(Debug, Clone, Copy)]
pub struct RefineEngine {
    /// Termination threshold: stop when an iteration performs fewer than
    /// `delta · k · n` list updates.
    pub delta: f64,
    /// Hard cap on refinement iterations.
    pub max_iterations: u32,
    /// RNG seed for the initial random graph and candidate sampling.
    pub seed: u64,
    /// Worker threads for the join phase (0 and 1 both mean one). The
    /// output does not depend on it.
    pub threads: usize,
}

impl RefineEngine {
    /// Runs the full refinement: init, iterate until convergence or the
    /// iteration cap, finalize.
    ///
    /// # Panics
    /// Panics if `k == 0`, `delta` is negative, or
    /// [`JoinStrategy::validate`] rejects the strategy's parameters.
    pub fn run<S, St, O>(&self, sim: &S, k: usize, strategy: &St, obs: &O) -> KnnResult
    where
        S: Similarity + ?Sized,
        St: JoinStrategy,
        O: BuildObserver,
    {
        assert!(k > 0, "k must be positive");
        assert!(self.delta >= 0.0, "delta must be non-negative");
        strategy.validate();
        let n = sim.n_users();
        let threads = self.threads.max(1);
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut evals = 0u64;
        let mut lists = random_lists(sim, k, &mut rng, &mut evals);
        if O::ENABLED {
            obs.on_iteration(IterationEvent {
                iteration: 0,
                similarity_evals: evals,
                pruned_evals: 0,
                updates: 0,
                threshold: 0.0,
                wall: start.elapsed(),
            });
        }
        let threshold = self.delta * k as f64 * n as f64;
        // Apply shards: one contiguous target range per thread.
        let shard_len = n.div_ceil(threads).max(1);
        let mut workers: Vec<Worker<St::Scratch>> = (0..threads)
            .map(|_| Worker {
                scratch: strategy.scratch(n),
                out: Proposals {
                    sims: Vec::new(),
                    buckets: vec![Vec::new(); n.div_ceil(shard_len)],
                    evals: 0,
                },
            })
            .collect();
        let mut iterations = 0u32;

        while iterations < self.max_iterations {
            iterations += 1;
            let _iter = trace::span_arg("engine", "iteration", iterations as u64);
            let iter_start = O::ENABLED.then(Instant::now);

            let plan = {
                let _t = trace::span("phase", "candidate_generation");
                strategy.candidates(k, &mut lists, &mut rng)
            };
            if let Some(t) = iter_start {
                obs.on_span(Phase::CandidateGeneration, t.elapsed());
            }

            let join_start = O::ENABLED.then(Instant::now);
            let join_trace = trace::span("phase", "join");
            let mut floors: Vec<Floor> = lists.iter().map(Floor::of).collect();
            let mut updates = 0u64;
            for lo in (0..n).step_by(WINDOW) {
                let hi = (lo + WINDOW).min(n);
                let span = (hi - lo).div_ceil(threads);
                par_map_chunks(&mut workers, threads, |_, first, chunk| {
                    for (slot, w) in (first..).zip(chunk) {
                        w.out.buckets.iter_mut().for_each(Vec::clear);
                        let mut scorer = Scorer {
                            sim,
                            floors: &floors,
                            shard_len,
                            out: &mut w.out,
                        };
                        for u in (lo + slot * span).min(hi)..(lo + (slot + 1) * span).min(hi) {
                            strategy.join_user(&plan, u, &mut w.scratch, &mut scorer);
                        }
                    }
                });

                let outs: Vec<&Proposals> = workers.iter().map(|w| &w.out).collect();
                let mut shards: Vec<Shard> = lists
                    .chunks_mut(shard_len)
                    .zip(floors.chunks_mut(shard_len))
                    .enumerate()
                    .map(|(index, (lists, floors))| Shard {
                        index,
                        base: index * shard_len,
                        lists,
                        floors,
                        updates: 0,
                    })
                    .collect();
                par_map_chunks(&mut shards, threads, |_, _, chunk| {
                    chunk.iter_mut().for_each(|shard| shard.apply(&outs));
                });
                updates += shards.iter().map(|s| s.updates).sum::<u64>();
            }
            let iter_evals: u64 = workers
                .iter_mut()
                .map(|w| std::mem::take(&mut w.out.evals))
                .sum();
            evals += iter_evals;
            drop(join_trace);

            if O::ENABLED {
                if let Some(t) = join_start {
                    obs.on_span(Phase::Join, t.elapsed());
                }
                obs.on_iteration(IterationEvent {
                    iteration: iterations,
                    similarity_evals: iter_evals,
                    pruned_evals: 0,
                    updates,
                    threshold,
                    wall: iter_start.map_or(Duration::ZERO, |t| t.elapsed()),
                });
            }
            if (updates as f64) < threshold {
                break;
            }
        }

        let merge_start = O::ENABLED.then(Instant::now);
        let merge_trace = trace::span("phase", "merge");
        let neighbors = lists.iter().map(NeighborList::to_sorted).collect();
        drop(merge_trace);
        if let Some(t) = merge_start {
            obs.on_span(Phase::Merge, t.elapsed());
        }
        KnnResult {
            graph: KnnGraph::from_lists(k, neighbors),
            stats: BuildStats {
                similarity_evals: evals,
                pruned_evals: 0,
                iterations,
                wall: start.elapsed(),
                prep_wall: Duration::ZERO,
            },
        }
    }
}
