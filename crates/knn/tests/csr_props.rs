//! CSR graph properties: the flat-array `KnnGraph` and its `GFCS` file
//! form must be loss-free for every builder in the registry, and the
//! sharded out-of-core pipeline must reproduce the in-RAM LSH build
//! bit-for-bit at any shard count and any pool size.

use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::ShfParams;
use goldfinger_core::similarity::ShfJaccard;
use goldfinger_knn::builder::BuildInput;
use goldfinger_knn::builders::{self, BuilderConfig};
use goldfinger_knn::csr::{read_knn_graph, read_segment, write_graph_segment, write_knn_graph};
use goldfinger_knn::graph::{CsrBuilder, KnnGraph};
use goldfinger_knn::lsh::Lsh;
use goldfinger_knn::oocbuild::{self, OocConfig};
use goldfinger_knn::NoopObserver;
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::{Arc, OnceLock};

const K: usize = 6;

fn fixture() -> ProfileStore {
    // Two planted clusters plus ragged tails and an empty profile, sized
    // so every builder produces non-trivial neighbourhoods.
    let mut lists: Vec<Vec<u32>> = Vec::new();
    for u in 0..12u32 {
        let mut items: Vec<u32> = (0..30).collect();
        items.push(500 + u);
        lists.push(items);
    }
    for u in 0..12u32 {
        let mut items: Vec<u32> = (200..230).collect();
        items.push(600 + u);
        lists.push(items);
    }
    for u in 0..8u32 {
        lists.push(((u * 11)..(u * 11 + 5 + u)).collect());
    }
    lists.push(vec![]);
    ProfileStore::from_item_lists(lists)
}

fn graphs_equal(a: &KnnGraph, b: &KnnGraph) -> bool {
    a.n_users() == b.n_users() && (0..a.n_users() as u32).all(|u| a.neighbors(u) == b.neighbors(u))
}

/// Every registry builder's graph survives a GFCS round-trip
/// bit-identically: as a graph file, as one segment, and cut into ragged
/// segments.
#[test]
fn every_builder_graph_round_trips_through_exact_segments() {
    let profiles = fixture();
    let store =
        ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 11)).fingerprint_store(&profiles);
    let sim = ShfJaccard::new(&store);
    let n = profiles.n_users() as u32;
    for spec in builders::all() {
        let builder = spec.instantiate(&BuilderConfig {
            seed: 99,
            threads: 1,
        });
        let result =
            builder.build_erased(BuildInput::with_profiles(&sim, &profiles), K, &NoopObserver);
        let graph = &result.graph;

        // Graph file.
        let mut buf = Vec::new();
        write_knn_graph(graph, &mut buf).unwrap();
        assert!(
            graphs_equal(graph, &read_knn_graph(&mut Cursor::new(&buf)).unwrap()),
            "{}: graph file round-trip diverged",
            spec.name
        );

        // Whole-graph segment.
        let mut buf = Vec::new();
        write_graph_segment(graph, 0, n, &mut buf).unwrap();
        let seg = read_segment(&mut Cursor::new(&buf), u64::from(n)).unwrap();
        let mut rebuilt = CsrBuilder::with_capacity(K, n as usize);
        seg.append_into(&mut rebuilt);
        assert!(
            graphs_equal(graph, &rebuilt.finish()),
            "{}: whole-graph segment round-trip diverged",
            spec.name
        );

        // Ragged three-way cut, stitched in order.
        let cuts = [0u32, n / 3, n / 3 + 1, n];
        let mut rebuilt = CsrBuilder::with_capacity(K, n as usize);
        for w in cuts.windows(2) {
            let mut buf = Vec::new();
            write_graph_segment(graph, w[0], w[1], &mut buf).unwrap();
            let seg = read_segment(&mut Cursor::new(&buf), u64::from(n)).unwrap();
            seg.append_into(&mut rebuilt);
        }
        assert!(
            graphs_equal(graph, &rebuilt.finish()),
            "{}: stitched segment round-trip diverged",
            spec.name
        );
    }
}

/// The out-of-core pipeline equals `Lsh::build` for every shard count,
/// with and without spilling, through the public registry-visible
/// configuration.
#[test]
fn ooc_build_equals_in_ram_lsh_for_every_shard_count() {
    let profiles = fixture();
    let params = ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 11));
    let store = params.fingerprint_store(&profiles);
    let expected = Lsh {
        tables: 5,
        seed: 404,
        threads: 1,
    }
    .build(&profiles, &ShfJaccard::new(&store), K);

    for shards in [1usize, 3, 7, 33] {
        for spill in [false, cfg!(target_os = "linux")] {
            let dir = std::env::temp_dir().join(format!(
                "gf-csrprops-{shards}-{spill}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = OocConfig::new(K, 5, 404, &dir);
            cfg.shards = shards;
            cfg.spill = spill;
            let (graph, stats) = oocbuild::build(&profiles, &params, &cfg).unwrap();
            assert!(
                graphs_equal(&graph, &expected.graph),
                "ooc(shards={shards}, spill={spill}) diverged from Lsh::build"
            );
            assert_eq!(
                stats.similarity_evals, expected.stats.similarity_evals,
                "eval counts diverged (shards={shards}, spill={spill})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Auto-sharding under a budget still yields the identical graph — the
/// shard count is a residency knob, never an output knob.
#[test]
fn budget_derived_sharding_is_output_invariant() {
    let profiles = fixture();
    let params = ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 11));
    let dir = std::env::temp_dir().join(format!("gf-csrprops-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut unbounded = OocConfig::new(K, 3, 7, dir.join("a"));
    unbounded.spill = false;
    let (reference, ref_stats) = oocbuild::build(&profiles, &params, &unbounded).unwrap();
    assert_eq!(ref_stats.shards, 1);

    let mut budgeted = OocConfig::new(K, 3, 7, dir.join("b"));
    budgeted.spill = false;
    budgeted.mem_budget = 1 << 10; // absurdly small: forces many shards
    let (graph, stats) = oocbuild::build(&profiles, &params, &budgeted).unwrap();
    assert!(stats.shards > 1, "tiny budget must force sharding");
    assert!(graphs_equal(&graph, &reference));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Installed pools of 1 to 4 threads, built once for the whole suite.
fn pools() -> &'static [Arc<Pool>] {
    static POOLS: OnceLock<Vec<Arc<Pool>>> = OnceLock::new();
    POOLS.get_or_init(|| (1..=4).map(Pool::new).collect())
}

/// What an out-of-core build must reproduce: the graph file's bytes,
/// the similarity-evaluation count and the association count.
type OocOutcome = (Vec<u8>, u64, u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The out-of-core build takes its threads from the installed pool.
    /// Its graph file and counters must equal the serial run's (no pool)
    /// at every pool size, for every shard count, with and without
    /// spilling, with and without a bucket cap. Every population holds an
    /// empty profile, and populations reach past one 1,024-user
    /// fingerprint unit.
    #[test]
    fn ooc_is_byte_identical_at_any_thread_count(
        lists in proptest::collection::vec(proptest::collection::vec(0u32..2000, 0..12), 3..2200),
        cap in 2usize..8,
    ) {
        let mut lists = lists;
        lists.push(Vec::new());
        let profiles = ProfileStore::from_item_lists(lists);
        let params = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 5));
        let dir = std::env::temp_dir().join(format!("gf-csrprops-threads-{}", std::process::id()));
        let run = |cfg: &OocConfig| -> OocOutcome {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let out = dir.join("graph.gfg");
            let stats = oocbuild::build_to_disk(&profiles, &params, cfg, &out).unwrap();
            let bytes = std::fs::read(&out).unwrap();
            (bytes, stats.similarity_evals, stats.associations)
        };
        for shards in [1usize, 3, 7] {
            for spill in [false, cfg!(target_os = "linux")] {
                for max_bucket in [0, cap] {
                    let mut cfg = OocConfig::new(4, 3, 21, dir.join("spill"));
                    cfg.shards = shards;
                    cfg.spill = spill;
                    cfg.max_bucket = max_bucket;
                    let serial = run(&cfg);
                    for pool in pools() {
                        let got = pool.install(|| run(&cfg));
                        prop_assert!(
                            got == serial,
                            "shards={} spill={} max_bucket={} threads={}",
                            shards, spill, max_bucket, pool.threads()
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
