//! Online KNN serving: one repairable graph, epoch snapshots, batched
//! repairs.
//!
//! [`KnnService`] is the long-running serving layer of the paper's §1.2
//! "web real-time" motivation, built on the local repairs of a
//! [`RepairGraph`] (one graph over one fingerprint arena); profile
//! updates are queued and drained in deterministic batches; top-k lookups
//! read an immutable [`ServiceSnapshot`] behind one atomic pointer swap,
//! so they never wait on repair work.
//!
//! A drain runs five phases under the writer lock:
//!
//! 1. **Apply updates** — the queued item additions are folded into the
//!    arena in op order ([`RepairGraph::apply_updates`] →
//!    `ShfStore::apply_deltas`).
//! 2. **Bump counters** — each distinct dirty user gets one repair whose
//!    probe stream is selected by its per-user counter.
//! 3. **Plan repairs** — read-only [`RepairGraph::plan_repair`] fan-out
//!    over the frozen graph via the work-stealing pool; every plan depends
//!    only on the pre-drain state, never on sibling plans.
//! 4. **Apply plans** — serial, in ascending user order: `O(k)` list
//!    surgery per plan, marking every list it mutates dirty.
//! 5. **Publish: dirty pages, incremental digest** — a snapshot is a
//!    vector of `Arc` pages of 64 users each (`PAGE`). Only the pages that
//!    hold a dirty list are rebuilt (in parallel); inside one, unchanged
//!    lists are copied from the previous page and only the dirty ones are
//!    sorted. Every other page is shared with the previous epoch. The
//!    digest moves by two terms per dirty user, and one `RwLock` write
//!    swaps in the new epoch.
//!
//! A drain therefore costs `O(batch)` list work plus one `Arc` clone per
//! page, not a rebuild of all `n` lists.
//!
//! Because phase 3 is the only parallel phase that feeds graph state and
//! it is read-only with a fixed output order, the final graph digest is
//! **identical for any thread count** — replaying one op log at
//! `GF_THREADS=1` and `GF_THREADS=4` must (and does, see the tests)
//! produce the same epoch, digest, and lookup results.

use crate::graph::KnnGraph;
use crate::repair::{Repair, RepairGraph};
use goldfinger_core::hash::{splitmix64_mix, DynHasher};
use goldfinger_core::parallel::par_map_indexed;
use goldfinger_core::shf::ShfStore;
use goldfinger_core::topk::Scored;
use goldfinger_obs::trace;
use goldfinger_obs::{Counter, Gauge, Histogram, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Users per snapshot page — the copy-on-write unit of a drain.
const PAGE: usize = 64;

/// FNV-1a hash of one served list's `(neighbour, similarity)` pairs.
fn list_hash(list: &[Scored]) -> u64 {
    list.iter().fold(FNV_OFFSET, |h, s| {
        fnv(fnv(h, s.user as u64), s.sim.to_bits())
    })
}

/// User `u`'s term of the snapshot digest: its list hash keyed by the
/// user id through a splitmix64 finalizer, so the wrapping sum of all
/// terms depends on which user holds which list but not on any order.
fn digest_term(u: usize, hash: u64) -> u64 {
    splitmix64_mix(hash ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Has no effect: the service holds one graph over one fingerprint
    /// arena. Kept only because the pinned benchmark still sets it; it is
    /// retired with the benchmark's next change.
    pub shards: usize,
    /// Queued profile updates that trigger a repair drain.
    pub batch: usize,
    /// Random probes added to every repair's candidate set.
    pub probes: usize,
    /// Seed for the per-`(user, repair)` probe streams.
    pub seed: u64,
    /// Worker threads for the parallel drain phases: 0 = default
    /// parallelism, 1 = serial (uses the installed
    /// [`goldfinger_core::pool::Pool`] when one is present).
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            batch: 64,
            probes: 4,
            seed: 42,
            threads: 1,
        }
    }
}

/// One operation of a replayable traffic log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Add `items` to `user`'s profile (fingerprint bits are folded in;
    /// the user is queued for repair at the next drain).
    Update {
        /// Target user (global id).
        user: u32,
        /// Item ids to fold into the profile.
        items: Vec<u32>,
    },
    /// Read `user`'s current top-k from the published snapshot.
    Lookup {
        /// Target user (global id).
        user: u32,
    },
}

/// One immutable page of a snapshot: the sorted top-k lists of users
/// `PAGE·p ..` as one CSR slab, plus each list's hash.
#[derive(Debug)]
struct Page {
    /// `offsets[l] .. offsets[l + 1]` is local user `l`'s slice of
    /// `entries`.
    offsets: Vec<u32>,
    entries: Vec<Scored>,
    hashes: Vec<u64>,
}

impl Page {
    fn list(&self, l: usize) -> &[Scored] {
        &self.entries[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }

    /// Builds page `p` of `graph`. With a previous version of the page,
    /// only the users in `dirty` (ascending global ids inside the page)
    /// are sorted afresh; every other list and hash is copied. Without
    /// one, every list is built. Returns the page and the wrapping change
    /// of the digest: new terms minus the previous page's.
    fn build(graph: &RepairGraph, p: usize, prev: Option<&Page>, dirty: &[u32]) -> (Page, u64) {
        let lo = p * PAGE;
        let hi = (lo + PAGE).min(graph.n_users());
        let mut page = Page {
            offsets: Vec::with_capacity(hi - lo + 1),
            entries: Vec::with_capacity((hi - lo) * graph.k()),
            hashes: Vec::with_capacity(hi - lo),
        };
        page.offsets.push(0);
        let mut dirty = dirty.iter().map(|&u| u as usize).peekable();
        let mut delta = 0u64;
        for u in lo..hi {
            let l = u - lo;
            match prev {
                Some(prev) if dirty.next_if_eq(&u).is_none() => {
                    page.entries.extend_from_slice(prev.list(l));
                    page.hashes.push(prev.hashes[l]);
                }
                _ => {
                    let start = page.entries.len();
                    page.entries.extend(graph.list(u as u32).scored());
                    let list = &mut page.entries[start..];
                    // Jaccard values lie in [0, 1], where the bit pattern
                    // orders like the value: a total-order key.
                    debug_assert!(list.iter().all(|s| (0.0..=1.0).contains(&s.sim)));
                    list.sort_unstable_by_key(|s| (Reverse(s.sim.to_bits()), s.user));
                    let hash = list_hash(list);
                    if let Some(prev) = prev {
                        delta = delta.wrapping_sub(digest_term(u, prev.hashes[l]));
                    }
                    delta = delta.wrapping_add(digest_term(u, hash));
                    page.hashes.push(hash);
                }
            }
            page.offsets.push(page.entries.len() as u32);
        }
        (page, delta)
    }
}

/// A consistent, immutable cut of the whole graph: one epoch. Produced
/// by a drain, published with a single pointer swap, shared by readers
/// via `Arc` — a reader holding a snapshot observes exactly one epoch no
/// matter how many drains run meanwhile. Its pages are shared with the
/// neighbouring epochs wherever no list changed between them.
#[derive(Debug)]
pub struct ServiceSnapshot {
    epoch: u64,
    n: usize,
    pages: Vec<Arc<Page>>,
    digest: u64,
}

impl ServiceSnapshot {
    /// Epoch number (0 = the initial graph, +1 per drain).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Population size.
    pub fn n_users(&self) -> usize {
        self.n
    }

    /// Order-independent digest of the served graph: the wrapping sum
    /// over users `u` of a splitmix64 mix of `u` and the FNV-1a hash of
    /// `u`'s list. It is a pure function of the graph — not of page
    /// bounds — so the determinism tests can compare it across thread
    /// counts, and a drain updates it with two terms per changed list.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// `u`'s published top-k (descending similarity), or `None` when `u`
    /// is out of range.
    pub fn top_k(&self, u: u32) -> Option<&[Scored]> {
        let u = u as usize;
        (u < self.n).then(|| self.pages[u / PAGE].list(u % PAGE))
    }

    /// Recomputes every list hash and the digest sum from the snapshot's
    /// own lists and checks them against the values stored when the
    /// lists were built and published. A torn or mutated-after-publish
    /// snapshot fails this; the seeded-interleaving tests hammer it from
    /// reader threads.
    pub fn verify(&self) -> bool {
        let mut digest = 0u64;
        for (p, page) in self.pages.iter().enumerate() {
            for (l, &stored) in page.hashes.iter().enumerate() {
                let hash = list_hash(page.list(l));
                if hash != stored {
                    return false;
                }
                digest = digest.wrapping_add(digest_term(p * PAGE + l, hash));
            }
        }
        digest == self.digest
    }
}

/// Writer-side state, guarded by one mutex: the graph and the update
/// queue. Readers never touch this — they go through the snapshot.
struct Writer {
    graph: RepairGraph,
    /// Queued `(user, items)` profile updates, in op order.
    queue: Vec<(u32, Vec<u32>)>,
    /// Each queued update's enqueue time (for update latency: enqueue →
    /// publish of the epoch that includes it).
    enqueued: Vec<Instant>,
}

/// Instruments registered once at construction; all relaxed atomics, so
/// the hot paths never contend on the registry.
struct Instruments {
    lookup_latency: Arc<Histogram>,
    update_latency: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    epoch: Arc<Gauge>,
    lookups: Arc<Counter>,
    updates: Arc<Counter>,
    repairs: Arc<Counter>,
    repair_evals: Arc<Counter>,
    drains: Arc<Counter>,
}

impl Instruments {
    fn register(reg: &Registry) -> Instruments {
        Instruments {
            lookup_latency: reg.histogram("serve.lookup_latency"),
            update_latency: reg.histogram("serve.update_latency"),
            queue_depth: reg.gauge("serve.queue_depth"),
            epoch: reg.gauge("serve.epoch"),
            lookups: reg.counter("serve.lookups"),
            updates: reg.counter("serve.updates"),
            repairs: reg.counter("serve.repairs"),
            repair_evals: reg.counter("serve.repair_evals"),
            drains: reg.counter("serve.drains"),
        }
    }
}

/// The online serving layer: concurrent lookups against epoch
/// snapshots, batched repair drains behind a writer lock.
///
/// ```
/// use goldfinger_core::hash::DynHasher;
/// use goldfinger_core::profile::ProfileStore;
/// use goldfinger_core::shf::ShfParams;
/// use goldfinger_core::similarity::ShfJaccard;
/// use goldfinger_knn::brute::BruteForce;
/// use goldfinger_knn::serve::{KnnService, ServeConfig};
/// use goldfinger_obs::Registry;
///
/// let profiles = ProfileStore::from_item_lists(vec![
///     (0..20).collect(), (5..25).collect(), (10..30).collect(),
/// ]);
/// let params = ShfParams::new(256, DynHasher::default());
/// let store = params.fingerprint_store(&profiles);
/// let graph = BruteForce::default().build(&ShfJaccard::new(&store), 2).graph;
///
/// let reg = Registry::new();
/// let svc = KnnService::new(&graph, &store, *params.hasher(),
///                           ServeConfig { batch: 1, ..Default::default() }, &reg);
/// let before = svc.lookup(2).unwrap();
/// svc.update(2, vec![0, 1, 2, 3, 4]);            // batch=1: drains at once
/// assert_eq!(svc.snapshot().epoch(), 1);
/// assert_ne!(svc.lookup(2).unwrap(), before);    // rescored neighbourhood
/// ```
pub struct KnnService {
    cfg: ServeConfig,
    writer: Mutex<Writer>,
    snapshot: RwLock<Arc<ServiceSnapshot>>,
    /// Published epoch, readable without the snapshot lock.
    epoch: AtomicU64,
    metrics: Instruments,
}

impl KnnService {
    /// Builds the service from an initial graph and its fingerprint
    /// store, which it copies once (see [`RepairGraph::new`]), and
    /// publishes epoch 0. Updates are folded with the store's own hasher;
    /// `hasher` must be that hasher. Metrics are registered under
    /// `serve.*` in `registry`.
    ///
    /// # Panics
    /// Panics if `hasher` is not the store's, or as [`RepairGraph::new`]
    /// does.
    pub fn new(
        graph: &KnnGraph,
        store: &ShfStore,
        hasher: DynHasher,
        cfg: ServeConfig,
        registry: &Registry,
    ) -> Self {
        assert_eq!(
            &hasher,
            store.params().hasher(),
            "the service hasher differs from the store's"
        );
        let graph = RepairGraph::new(graph, store);
        let n = graph.n_users();
        let built = par_map_indexed(n.div_ceil(PAGE), cfg.threads, |p| {
            Page::build(&graph, p, None, &[])
        });
        let digest = built.iter().fold(0u64, |d, b| d.wrapping_add(b.1));
        let pages = built.into_iter().map(|b| Arc::new(b.0)).collect();
        let snap = Arc::new(ServiceSnapshot {
            epoch: 0,
            n,
            pages,
            digest,
        });
        let metrics = Instruments::register(registry);
        metrics.epoch.set(0);
        KnnService {
            cfg,
            writer: Mutex::new(Writer {
                graph,
                queue: Vec::new(),
                enqueued: Vec::new(),
            }),
            snapshot: RwLock::new(snap),
            epoch: AtomicU64::new(0),
            metrics,
        }
    }

    /// The current published snapshot (one `Arc` clone; the caller can
    /// hold it across any number of drains and keep seeing its epoch).
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        self.snapshot.read().expect("snapshot lock").clone()
    }

    /// Last published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// `u`'s current top-k from the published snapshot — never blocks on
    /// repair work (writers hold the snapshot lock only for the O(1)
    /// pointer swap). `None` when `u` is out of range.
    pub fn lookup(&self, u: u32) -> Option<Vec<Scored>> {
        let t0 = Instant::now();
        let snap = self.snapshot();
        let out = snap.top_k(u).map(<[Scored]>::to_vec);
        self.metrics.lookup_latency.observe(t0.elapsed());
        self.metrics.lookups.inc();
        out
    }

    /// Queues a profile update (items added to `u`'s profile). When the
    /// queue reaches `cfg.batch` the calling thread drains it: updates
    /// are folded into the fingerprints, each dirty user is repaired, and
    /// a new epoch is published.
    ///
    /// # Panics
    /// Panics when `u` is out of range.
    pub fn update(&self, u: u32, items: Vec<u32>) {
        let mut w = self.writer.lock().expect("writer lock");
        assert!(
            (u as usize) < w.graph.n_users(),
            "update for unknown user {u}"
        );
        w.queue.push((u, items));
        w.enqueued.push(Instant::now());
        self.metrics.updates.inc();
        self.metrics.queue_depth.set(w.queue.len() as i64);
        if w.queue.len() >= self.cfg.batch.max(1) {
            self.drain(&mut w);
        }
    }

    /// Drains any queued updates immediately (end-of-replay, shutdown).
    pub fn flush(&self) {
        let mut w = self.writer.lock().expect("writer lock");
        if !w.queue.is_empty() {
            self.drain(&mut w);
        }
    }

    /// The five-phase batched drain. Runs under the writer lock; only
    /// phase 5's pointer swap touches the reader path.
    fn drain(&self, w: &mut Writer) {
        let _drain = trace::span_arg("serve", "drain", w.queue.len() as u64);
        let threads = self.cfg.threads;
        let queue = std::mem::take(&mut w.queue);
        let enqueued = std::mem::take(&mut w.enqueued);
        let Writer { graph, .. } = w;
        let mut dirty_users: Vec<u32> = queue.iter().map(|&(u, _)| u).collect();
        dirty_users.sort_unstable();
        dirty_users.dedup();

        // Phase 1: fold the batch into the arena in op order (delta
        // fingerprinting; no whole-user refingerprint ever happens here).
        let apply_trace = trace::span_arg("serve", "apply_updates", queue.len() as u64);
        graph.apply_updates(&queue);
        drop(apply_trace);

        // Phase 2: one repair per dirty user; the counter selects this
        // repair's probe stream.
        let bump_trace = trace::span_arg("serve", "bump_counters", dirty_users.len() as u64);
        let counters: Vec<u64> = dirty_users.iter().map(|&u| graph.bump_repair(u)).collect();
        drop(bump_trace);

        // Phase 3: read-only planning fan-out over the frozen graph. Plans
        // land in ascending-user order regardless of thread count.
        let plan_trace = trace::span_arg("serve", "plan_repairs", dirty_users.len() as u64);
        let frozen: &RepairGraph = graph;
        let plans: Vec<Repair> = par_map_indexed(dirty_users.len(), threads, |i| {
            frozen.plan_repair(dirty_users[i], counters[i], self.cfg.probes, self.cfg.seed)
        });
        drop(plan_trace);

        // Phase 4: serial application in plan order — O(k) list surgery
        // per plan, deterministic by construction.
        let apply_repairs_trace = trace::span_arg("serve", "apply_repairs", plans.len() as u64);
        let mut evals = 0u64;
        for plan in &plans {
            evals += plan.evals;
            graph.apply_repair(plan);
        }
        drop(apply_repairs_trace);

        // Phase 5: rebuild only the pages holding a dirty list (parallel),
        // sharing every other page with the previous epoch, and move the
        // digest by the rebuilt lists' terms.
        let rebuild_trace = trace::span("serve", "rebuild_snapshots");
        let dirty = graph.take_dirty();
        let runs: Vec<&[u32]> = dirty
            .chunk_by(|a, b| *a as usize / PAGE == *b as usize / PAGE)
            .collect();
        let previous = self.snapshot();
        let frozen: &RepairGraph = graph;
        let rebuilt = par_map_indexed(runs.len(), threads, |i| {
            let p = runs[i][0] as usize / PAGE;
            Page::build(frozen, p, Some(&previous.pages[p]), runs[i])
        });
        let mut pages = previous.pages.clone();
        let mut digest = previous.digest;
        for (run, (page, delta)) in runs.iter().zip(rebuilt) {
            pages[run[0] as usize / PAGE] = Arc::new(page);
            digest = digest.wrapping_add(delta);
        }
        drop(rebuild_trace);
        let epoch = previous.epoch + 1;
        let publish_trace = trace::span_arg("serve", "publish", epoch);
        let snap = Arc::new(ServiceSnapshot {
            epoch,
            n: previous.n,
            pages,
            digest,
        });
        *self.snapshot.write().expect("snapshot lock") = snap;
        self.epoch.store(epoch, Ordering::Release);
        drop(publish_trace);

        let published = Instant::now();
        for &t in &enqueued {
            self.metrics
                .update_latency
                .observe(published.saturating_duration_since(t));
        }
        self.metrics.queue_depth.set(0);
        self.metrics.epoch.set(epoch as i64);
        self.metrics.drains.inc();
        self.metrics.repairs.add(plans.len() as u64);
        self.metrics.repair_evals.add(evals);
    }
}

/// Lazily generates the deterministic interleaved traffic log of
/// [`synth_ops`] one op at a time: `n_ops` operations, `update_pct`%
/// profile updates (1–3 random items each, drawn from `0..n_items`) and
/// the rest top-k lookups, over uniformly random users. Drivers feed this
/// straight into [`replay_stream`] so the log is never materialized.
pub fn synth_op_stream(
    n_users: usize,
    n_items: u32,
    n_ops: usize,
    update_pct: u32,
    seed: u64,
) -> impl Iterator<Item = Op> {
    assert!(n_users > 0 && n_items > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_ops).map(move |_| {
        let user = rng.gen_range(0..n_users) as u32;
        if rng.gen_range(0..100u32) < update_pct {
            let count = rng.gen_range(1..4usize);
            let items = (0..count).map(|_| rng.gen_range(0..n_items)).collect();
            Op::Update { user, items }
        } else {
            Op::Lookup { user }
        }
    })
}

/// Collects [`synth_op_stream`] into a vector (tests and small replays).
pub fn synth_ops(
    n_users: usize,
    n_items: u32,
    n_ops: usize,
    update_pct: u32,
    seed: u64,
) -> Vec<Op> {
    synth_op_stream(n_users, n_items, n_ops, update_pct, seed).collect()
}

/// What a replay saw: op counts plus digests that must be identical for
/// identical op logs, independent of the drain thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Lookups performed.
    pub lookups: u64,
    /// Updates performed.
    pub updates: u64,
    /// FNV-1a digest folded over every lookup's `(user, neighbour,
    /// similarity)` triples, in op order.
    pub lookup_digest: u64,
    /// Final published graph digest (after a trailing flush; see
    /// [`ServiceSnapshot::digest`]): equal for equal graphs, so replays
    /// of one op log at any thread count agree on it.
    pub final_digest: u64,
    /// Final epoch.
    pub final_epoch: u64,
}

/// Replays an op *stream* against the service serially (the service
/// itself parallelises drains), flushing the queue at the end. Ops are
/// consumed one at a time, so callers can feed a lazy generator
/// ([`synth_op_stream`]) or a file reader ([`crate::oplog::OpLogReader`])
/// without ever materializing the log.
pub fn replay_stream(svc: &KnnService, ops: impl IntoIterator<Item = Op>) -> ReplayOutcome {
    let mut lookup_digest = FNV_OFFSET;
    let (mut lookups, mut updates) = (0u64, 0u64);
    for op in ops {
        match op {
            Op::Update { user, items } => {
                svc.update(user, items);
                updates += 1;
            }
            Op::Lookup { user } => {
                lookups += 1;
                if let Some(list) = svc.lookup(user) {
                    lookup_digest = fnv(lookup_digest, user as u64);
                    for s in &list {
                        lookup_digest = fnv(lookup_digest, s.user as u64);
                        lookup_digest = fnv(lookup_digest, s.sim.to_bits());
                    }
                }
            }
        }
    }
    svc.flush();
    let snap = svc.snapshot();
    ReplayOutcome {
        lookups,
        updates,
        lookup_digest,
        final_digest: snap.digest(),
        final_epoch: snap.epoch(),
    }
}

/// Replays a materialized op log (clones each op into [`replay_stream`]).
pub fn replay(svc: &KnnService, ops: &[Op]) -> ReplayOutcome {
    replay_stream(svc, ops.iter().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use goldfinger_core::hash::DynHasher;
    use goldfinger_core::pool::Pool;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;
    use goldfinger_core::similarity::ShfJaccard;
    use proptest::prelude::*;

    fn service(batch: usize, threads: usize) -> KnnService {
        let cfg = ServeConfig {
            batch,
            probes: 3,
            seed: 11,
            threads,
            ..ServeConfig::default()
        };
        clustered_service(40, cfg)
    }

    /// A service over `users` users in clusters of 8 (a cluster shares
    /// 12 items, each user adds one private item), k = 4.
    fn clustered_service(users: u32, cfg: ServeConfig) -> KnnService {
        let lists: Vec<Vec<u32>> = (0..users)
            .map(|u| {
                let base = (u / 8) * 500;
                let mut items: Vec<u32> = (base..base + 12).collect();
                items.push(base + 100 + u);
                items
            })
            .collect();
        let params = ShfParams::new(512, DynHasher::default());
        let store = params.fingerprint_store(&ProfileStore::from_item_lists(lists));
        let graph = BruteForce::default()
            .build(&ShfJaccard::new(&store), 4)
            .graph;
        KnnService::new(&graph, &store, *params.hasher(), cfg, &Registry::new())
    }

    #[test]
    fn epoch_advances_once_per_drain_and_snapshots_verify() {
        let svc = service(4, 1);
        assert_eq!(svc.epoch(), 0);
        assert!(svc.snapshot().verify());
        for i in 0..7u32 {
            svc.update(i, vec![9000 + i]);
        }
        // 7 updates, batch 4 → exactly one drain; 3 still queued.
        assert_eq!(svc.epoch(), 1);
        svc.flush();
        assert_eq!(svc.epoch(), 2);
        svc.flush(); // empty queue: no-op
        assert_eq!(svc.epoch(), 2);
        assert!(svc.snapshot().verify());
    }

    #[test]
    fn held_snapshots_keep_their_epoch_while_the_service_moves_on() {
        let svc = service(1, 1);
        let held = svc.snapshot();
        let before = held.top_k(0).unwrap().to_vec();
        svc.update(0, (2000..2040).collect());
        assert_eq!(svc.epoch(), 1);
        // The held cut is immutable: same epoch, same lists, verifies.
        assert_eq!(held.epoch(), 0);
        assert_eq!(held.top_k(0).unwrap(), &before[..]);
        assert!(held.verify());
        assert_ne!(svc.snapshot().digest(), held.digest());
    }

    #[test]
    fn a_drain_republishes_only_the_pages_it_changed() {
        // 320 users, 5 pages. Without probes, user 3's repair reaches
        // only its cluster (users 0..8), so every list it can change lies
        // in page 0.
        let cfg = ServeConfig {
            batch: 1,
            probes: 0,
            seed: 11,
            threads: 1,
            ..ServeConfig::default()
        };
        let svc = clustered_service(320, cfg);
        let held = svc.snapshot();
        let lists: Vec<Vec<Scored>> = (0..320).map(|u| held.top_k(u).unwrap().to_vec()).collect();
        svc.update(3, (9000..9040).collect());
        let next = svc.snapshot();
        assert_eq!((held.pages.len(), next.pages.len()), (5, 5));
        assert_ne!(next.top_k(3), held.top_k(3), "user 3 was not rescored");
        assert!(!Arc::ptr_eq(&next.pages[0], &held.pages[0]));
        for p in 1..5 {
            assert!(
                Arc::ptr_eq(&next.pages[p], &held.pages[p]),
                "page {p} holds no changed list but was rebuilt"
            );
        }
        // Hundreds of drains later the held epoch-0 cut still verifies and
        // still serves its own lists.
        for op in synth_ops(320, 4000, 600, 100, 8) {
            if let Op::Update { user, items } = op {
                svc.update(user, items);
            }
        }
        assert_eq!(svc.epoch(), 601);
        assert!(svc.snapshot().verify());
        assert!(held.verify());
        for (u, list) in lists.iter().enumerate() {
            assert_eq!(held.top_k(u as u32).unwrap(), &list[..], "user {u}");
        }
    }

    /// After a drain: the snapshot verifies, serves exactly the writer's
    /// lists, and its incrementally kept digest equals a from-scratch sum
    /// over those lists.
    fn check_published(svc: &KnnService) {
        let snap = svc.snapshot();
        prop_assert!(snap.verify());
        let w = svc.writer.lock().unwrap();
        let mut digest = 0u64;
        for u in 0..snap.n_users() {
            let list = w.graph.neighbors(u as u32);
            prop_assert_eq!(snap.top_k(u as u32).unwrap(), &list[..], "user {}", u);
            digest = digest.wrapping_add(digest_term(u, list_hash(&list)));
        }
        prop_assert_eq!(snap.digest(), digest);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random op streams × batch sizes × threads: the paged,
        /// incrementally digested snapshot never drifts from the graph it
        /// publishes.
        #[test]
        fn serve_digest_is_incremental(
            users in 1u32..300,
            batch in 1usize..24,
            threads in prop_oneof![Just(1usize), Just(4)],
            update_pct in 20u32..100,
            seed in 0u64..1000,
        ) {
            let cfg = ServeConfig { batch, probes: 2, seed, threads, ..ServeConfig::default() };
            let svc = clustered_service(users, cfg);
            check_published(&svc);
            let ops = synth_ops(users as usize, 3000, 300, update_pct, seed);
            let run = || {
                for op in ops {
                    let epoch = svc.epoch();
                    match op {
                        Op::Update { user, items } => svc.update(user, items),
                        Op::Lookup { user } => prop_assert!(svc.lookup(user).is_some()),
                    }
                    if svc.epoch() != epoch {
                        check_published(&svc);
                    }
                }
                svc.flush();
                check_published(&svc);
            };
            if threads > 1 {
                Pool::new(threads).install(run);
            } else {
                run();
            }
        }
    }

    #[test]
    fn lookup_reflects_updates_after_the_drain() {
        let svc = service(1, 2);
        // User 39's profile grows by alien items: every stored similarity
        // involving 39 shrinks, and the drain must rescore them.
        let before = svc.lookup(39).unwrap();
        svc.update(39, (9000..9040).collect());
        let after = svc.lookup(39).unwrap();
        assert!(
            after[0].sim < before[0].sim,
            "drain did not rescore the grown profile: {before:?} -> {after:?}"
        );
        assert!(svc.lookup(40).is_none(), "out-of-range lookup must miss");
    }

    #[test]
    fn repeated_repairs_eventually_rewire_via_fresh_probe_streams() {
        // User 39 adopts cluster 0's full item set (base + privates), so
        // every cluster-0 user strictly beats its stale cluster-4
        // neighbours. Discovery can only come from random probes; because
        // each drain mixes the bumped repair counter into the probe seed,
        // consecutive repairs draw *fresh* streams and must find cluster
        // 0 within a few drains — under the old `seed ^ u` scheme every
        // drain would retry the same probes forever.
        let svc = service(1, 1);
        let mut items: Vec<u32> = (0..12).collect();
        items.extend(100..108); // cluster 0's private items
        svc.update(39, items);
        let mut drains = 1;
        while !svc.lookup(39).unwrap().iter().any(|s| s.user < 8) {
            assert!(drains < 16, "16 repair drains never probed cluster 0");
            svc.update(39, vec![0]); // no new bits; schedules a repair
            drains += 1;
        }
        assert!(svc.snapshot().verify());
    }

    #[test]
    fn replay_digest_is_stable_for_a_fixed_op_log() {
        let ops = synth_ops(40, 4000, 300, 50, 3);
        let a = replay(&service(8, 1), &ops);
        let b = replay(&service(8, 1), &ops);
        assert_eq!(a, b, "same log, same config: outcomes must be equal");
        assert!(a.final_epoch > 0);
        assert!(a.lookups > 0 && a.updates > 0);
    }

    #[test]
    fn drain_thread_count_does_not_change_the_graph() {
        let ops = synth_ops(40, 4000, 400, 60, 5);
        let serial = replay(&service(16, 1), &ops);
        let pooled = replay(&service(16, 4), &ops);
        assert_eq!(serial, pooled, "thread count leaked into the graph");
    }

    #[test]
    #[should_panic(expected = "the service hasher differs from the store's")]
    fn a_hasher_other_than_the_stores_is_refused() {
        use goldfinger_core::hash::HasherKind;
        let lists: Vec<Vec<u32>> = (0..6u32).map(|u| vec![u, u + 1]).collect();
        let store = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 1))
            .fingerprint_store(&ProfileStore::from_item_lists(lists));
        let graph = BruteForce::default()
            .build(&ShfJaccard::new(&store), 2)
            .graph;
        // Same kind, other seed: the bits an update would set differ.
        let other = DynHasher::new(HasherKind::Jenkins, 2);
        KnnService::new(
            &graph,
            &store,
            other,
            ServeConfig::default(),
            &Registry::new(),
        );
    }

    #[test]
    fn instruments_record_the_traffic() {
        let reg = Registry::new();
        let lists: Vec<Vec<u32>> = (0..10u32).map(|u| vec![u, u + 1, u + 2]).collect();
        let params = ShfParams::new(256, DynHasher::default());
        let store = params.fingerprint_store(&ProfileStore::from_item_lists(lists));
        let graph = BruteForce::default()
            .build(&ShfJaccard::new(&store), 3)
            .graph;
        let svc = KnnService::new(
            &graph,
            &store,
            *params.hasher(),
            ServeConfig {
                batch: 2,
                ..Default::default()
            },
            &reg,
        );
        svc.update(0, vec![77]);
        assert_eq!(reg.gauge("serve.queue_depth").get(), 1);
        svc.update(1, vec![78]);
        svc.lookup(0).unwrap();
        assert_eq!(reg.counter("serve.updates").get(), 2);
        assert_eq!(reg.counter("serve.lookups").get(), 1);
        assert_eq!(reg.counter("serve.drains").get(), 1);
        assert_eq!(reg.counter("serve.repairs").get(), 2);
        assert!(reg.counter("serve.repair_evals").get() > 0);
        assert_eq!(reg.gauge("serve.queue_depth").get(), 0);
        assert_eq!(reg.gauge("serve.epoch").get(), 1);
        assert_eq!(reg.histogram("serve.lookup_latency").count(), 1);
        assert_eq!(reg.histogram("serve.update_latency").count(), 2);
    }
}
