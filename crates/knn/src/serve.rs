//! Online KNN serving: sharded graph, epoch snapshots, batched repairs.
//!
//! [`KnnService`] is the long-running serving layer of the paper's §1.2
//! "web real-time" motivation, built on the local repairs of
//! [`crate::shard`]. The population is partitioned into a [`ShardSet`]
//! (one shard is the plain, unpartitioned graph); profile
//! updates are queued and drained in deterministic batches; top-k lookups
//! read an immutable [`ServiceSnapshot`] behind one atomic pointer swap,
//! so they never wait on repair work.
//!
//! A drain runs five phases under the writer lock:
//!
//! 1. **Apply updates** — queued item additions are routed to their owner
//!    shard and folded into that shard's arena slice, in parallel across
//!    shards (`ShfStore::insert_items` on the slice).
//! 2. **Bump counters** — each distinct dirty user gets one repair whose
//!    probe stream is selected by its per-user counter.
//! 3. **Plan repairs** — read-only [`ShardSet::plan_repair`] fan-out over
//!    the frozen shards via the work-stealing pool; every plan depends
//!    only on the pre-drain state, never on sibling plans.
//! 4. **Apply plans** — serial, in ascending user order: `O(k)` list
//!    surgery per plan.
//! 5. **Publish** — only dirty shards rebuild their snapshot (in
//!    parallel); one `RwLock` write swaps in the new epoch.
//!
//! Because phase 3 is the only parallel phase that feeds graph state and
//! it is read-only with a fixed output order, the final graph digest is
//! **identical for any thread count** — replaying one op log at
//! `GF_THREADS=1` and `GF_THREADS=4` must (and does, see the tests)
//! produce the same epoch, digest, and lookup results.

use crate::graph::KnnGraph;
use crate::shard::{Repair, Shard, ShardSet};
use goldfinger_core::hash::ItemHasher;
use goldfinger_core::parallel::{par_map_chunks, par_map_indexed};
use goldfinger_core::shf::ShfStore;
use goldfinger_core::topk::Scored;
use goldfinger_obs::trace;
use goldfinger_obs::{Counter, Gauge, Histogram, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of user-id-range shards (clamped to the population).
    pub shards: usize,
    /// Queued profile updates that trigger a repair drain.
    pub batch: usize,
    /// Random probes added to every repair's candidate set.
    pub probes: usize,
    /// Seed for the per-`(user, repair)` probe streams.
    pub seed: u64,
    /// Worker threads for the parallel drain phases (uses the installed
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

/// Immutable published top-k lists of one shard.
#[derive(Debug)]
pub struct ShardSnapshot {
    lo: u32,
    lists: Vec<Vec<Scored>>,
    digest: u64,
}

impl ShardSnapshot {
    fn build(shard: &Shard) -> ShardSnapshot {
        let lists: Vec<Vec<Scored>> = (0..shard.len())
            .map(|l| shard.list(l).to_sorted())
            .collect();
        let digest = Self::digest_lists(shard.lo(), &lists);
        ShardSnapshot {
            lo: shard.lo(),
            lists,
            digest,
        }
    }

    fn digest_lists(lo: u32, lists: &[Vec<Scored>]) -> u64 {
        Self::fold_lists(FNV_OFFSET, lo, lists)
    }

    fn fold_lists(mut h: u64, lo: u32, lists: &[Vec<Scored>]) -> u64 {
        for (l, list) in lists.iter().enumerate() {
            for s in list {
                h = fnv(h, lo as u64 + l as u64);
                h = fnv(h, s.user as u64);
                h = fnv(h, s.sim.to_bits());
            }
        }
        h
    }

    /// FNV-1a digest of the shard's `(user, neighbour, similarity)`
    /// triples, computed at publish time.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// A consistent, immutable cut of the whole graph: one epoch. Produced
/// by a drain, published with a single pointer swap, shared by readers
/// via `Arc` — a reader holding a snapshot observes exactly one epoch no
/// matter how many drains run meanwhile.
#[derive(Debug)]
pub struct ServiceSnapshot {
    epoch: u64,
    per: usize,
    n: usize,
    shards: Vec<Arc<ShardSnapshot>>,
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

    /// FNV-1a digest over every `(user, neighbour, similarity)` triple in
    /// global user order — a pure function of the served graph, so the
    /// determinism tests can compare it across thread *and* shard counts.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// `u`'s published top-k (descending similarity), or `None` when `u`
    /// is out of range.
    pub fn top_k(&self, u: u32) -> Option<&[Scored]> {
        if (u as usize) >= self.n {
            return None;
        }
        let shard = &self.shards[u as usize / self.per];
        Some(&shard.lists[u as usize - shard.lo as usize])
    }

    /// Recomputes every shard digest and the combined digest from the
    /// snapshot's own lists and checks them against the values stored at
    /// publish time. A torn or mutated-after-publish snapshot fails this;
    /// the seeded-interleaving tests hammer it from reader threads.
    pub fn verify(&self) -> bool {
        let mut combined = FNV_OFFSET;
        for s in &self.shards {
            if ShardSnapshot::digest_lists(s.lo, &s.lists) != s.digest {
                return false;
            }
            combined = ShardSnapshot::fold_lists(combined, s.lo, &s.lists);
        }
        combined == self.digest
    }

    fn publish(epoch: u64, per: usize, n: usize, shards: Vec<Arc<ShardSnapshot>>) -> Arc<Self> {
        // Chained across shards (not folded over per-shard digests) so the
        // value does not depend on where the shard boundaries fall.
        let digest = shards.iter().fold(FNV_OFFSET, |h, s| {
            ShardSnapshot::fold_lists(h, s.lo, &s.lists)
        });
        Arc::new(ServiceSnapshot {
            epoch,
            per,
            n,
            shards,
            digest,
        })
    }
}

/// A pending profile update with its enqueue time (for update latency:
/// enqueue → publish of the epoch that includes it).
struct Pending {
    user: u32,
    items: Vec<u32>,
    enqueued: Instant,
}

/// Writer-side state, guarded by one mutex: the shards and the update
/// queue. Readers never touch this — they go through the snapshot.
struct Writer<H> {
    set: ShardSet,
    hasher: H,
    queue: Vec<Pending>,
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

/// The sharded online serving layer: concurrent lookups against epoch
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
pub struct KnnService<H: ItemHasher> {
    cfg: ServeConfig,
    writer: Mutex<Writer<H>>,
    snapshot: RwLock<Arc<ServiceSnapshot>>,
    /// Published epoch, readable without the snapshot lock.
    epoch: AtomicU64,
    metrics: Instruments,
}

impl<H: ItemHasher> KnnService<H> {
    /// Builds the service from an initial graph and its fingerprint
    /// store, slicing the arena across shards and publishing epoch 0.
    /// Metrics are registered under `serve.*` in `registry`.
    pub fn new(
        graph: &KnnGraph,
        store: &ShfStore,
        hasher: H,
        cfg: ServeConfig,
        registry: &Registry,
    ) -> Self {
        let set = ShardSet::partition(graph, store, cfg.shards);
        let per = set.shards()[0].len();
        let n = set.n_users();
        let shards: Vec<Arc<ShardSnapshot>> = set
            .shards()
            .iter()
            .map(|s| Arc::new(ShardSnapshot::build(s)))
            .collect();
        let snap = ServiceSnapshot::publish(0, per, n, shards);
        let metrics = Instruments::register(registry);
        metrics.epoch.set(0);
        KnnService {
            cfg,
            writer: Mutex::new(Writer {
                set,
                hasher,
                queue: Vec::new(),
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
    /// are applied to the owner shards, each dirty user is repaired, and
    /// a new epoch is published.
    ///
    /// # Panics
    /// Panics when `u` is out of range.
    pub fn update(&self, u: u32, items: Vec<u32>) {
        let mut w = self.writer.lock().expect("writer lock");
        assert!(
            (u as usize) < w.set.n_users(),
            "update for unknown user {u}"
        );
        w.queue.push(Pending {
            user: u,
            items,
            enqueued: Instant::now(),
        });
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
    fn drain(&self, w: &mut Writer<H>) {
        let _drain = trace::span_arg("serve", "drain", w.queue.len() as u64);
        let threads = self.cfg.threads.max(1);
        let queue = std::mem::take(&mut w.queue);
        let Writer { set, hasher, .. } = w;

        // Route updates to their owner shards, preserving op order.
        let mut by_shard: Vec<Vec<(u32, Vec<u32>)>> = vec![Vec::new(); set.n_shards()];
        let mut dirty_users: Vec<u32> = Vec::with_capacity(queue.len());
        for p in &queue {
            by_shard[set.owner(p.user)].push((set.local(p.user) as u32, p.items.clone()));
            dirty_users.push(p.user);
        }
        dirty_users.sort_unstable();
        dirty_users.dedup();

        // Phase 1: fold each shard's delta batch into its arena slice, in
        // parallel — each worker writes only its own shards, and within a
        // shard the batch is applied in op order (delta fingerprinting;
        // no whole-user refingerprint ever happens here).
        let apply_trace = trace::span_arg("serve", "apply_updates", queue.len() as u64);
        par_map_chunks(set.shards_mut(), threads, |_, base, chunk| {
            for (i, shard) in chunk.iter_mut().enumerate() {
                shard.apply_updates(&by_shard[base + i], hasher);
            }
        });

        drop(apply_trace);

        // Phase 2: one repair per dirty user; the counter selects this
        // repair's probe stream.
        let bump_trace = trace::span_arg("serve", "bump_counters", dirty_users.len() as u64);
        let counters: Vec<u64> = dirty_users
            .iter()
            .map(|&u| {
                let (s, l) = (set.owner(u), set.local(u));
                set.shards_mut()[s].bump_repair(l)
            })
            .collect();

        drop(bump_trace);

        // Phase 3: read-only planning fan-out over the frozen set. Plans
        // land in ascending-user order regardless of thread count.
        let plan_trace = trace::span_arg("serve", "plan_repairs", dirty_users.len() as u64);
        let frozen: &ShardSet = set;
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
            set.apply_repair(plan);
        }
        drop(apply_repairs_trace);

        // Phase 5: rebuild only the dirty shards' snapshots (parallel),
        // publish the new epoch with a single pointer swap.
        let rebuild_trace = trace::span("serve", "rebuild_snapshots");
        let dirty_shards = set.take_dirty();
        let previous = self.snapshot();
        let frozen: &ShardSet = set;
        let rebuilt: Vec<Option<Arc<ShardSnapshot>>> =
            par_map_indexed(frozen.n_shards(), threads, |s| {
                dirty_shards[s].then(|| Arc::new(ShardSnapshot::build(&frozen.shards()[s])))
            });
        let shards: Vec<Arc<ShardSnapshot>> = rebuilt
            .into_iter()
            .enumerate()
            .map(|(s, fresh)| fresh.unwrap_or_else(|| previous.shards[s].clone()))
            .collect();
        drop(rebuild_trace);
        let epoch = previous.epoch + 1;
        let publish_trace = trace::span_arg("serve", "publish", epoch);
        let snap = ServiceSnapshot::publish(epoch, previous.per, previous.n, shards);
        *self.snapshot.write().expect("snapshot lock") = snap;
        self.epoch.store(epoch, Ordering::Release);
        drop(publish_trace);

        let published = Instant::now();
        for p in &queue {
            self.metrics
                .update_latency
                .observe(published.saturating_duration_since(p.enqueued));
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
    /// Final published graph digest (after a trailing flush).
    pub final_digest: u64,
    /// Final epoch.
    pub final_epoch: u64,
}

/// Replays an op *stream* against the service serially (the service
/// itself parallelises drains), flushing the queue at the end. Ops are
/// consumed one at a time, so callers can feed a lazy generator
/// ([`synth_op_stream`]) or a file reader ([`crate::oplog::OpLogReader`])
/// without ever materializing the log.
pub fn replay_stream<H: ItemHasher>(
    svc: &KnnService<H>,
    ops: impl IntoIterator<Item = Op>,
) -> ReplayOutcome {
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
pub fn replay<H: ItemHasher>(svc: &KnnService<H>, ops: &[Op]) -> ReplayOutcome {
    replay_stream(svc, ops.iter().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use goldfinger_core::hash::DynHasher;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;
    use goldfinger_core::similarity::ShfJaccard;

    fn service(batch: usize, threads: usize) -> KnnService<DynHasher> {
        let lists: Vec<Vec<u32>> = (0..40u32)
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
        KnnService::new(
            &graph,
            &store,
            *params.hasher(),
            ServeConfig {
                shards: 3,
                batch,
                probes: 3,
                seed: 11,
                threads,
            },
            &Registry::new(),
        )
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
