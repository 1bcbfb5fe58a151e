//! Set-up: everything a run needs before its first timed round, timed
//! phase by phase. `setup_s` is the median total over several set-ups.

use crate::builds::build_with;
use crate::input::{write_packed, PackedProfiles};
use crate::serve::{make_ops, ServeOps};
use crate::spec::Workload;
use goldfinger_core::hash::DynHasher;
use goldfinger_core::shf::{ShfParams, ShfStore};
use goldfinger_core::similarity::{ExplicitJaccard, ShfJaccard};
use goldfinger_datasets::model::BinaryDataset;
use goldfinger_datasets::synth::StreamProfiles;
use goldfinger_knn::KnnGraph;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Wall times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Synthetic ratings generation.
    pub generate_s: f64,
    /// The paper's preparation (min-ratings filter, binarisation).
    pub prepare_s: f64,
    /// `ShfParams::fingerprint_store` over the prepared profiles.
    pub fingerprint_s: f64,
    /// The whole set-up: the above, the initial served graph, the serving
    /// traffic and the packed out-of-core input.
    pub total_s: f64,
}

/// What the timed rounds run on.
pub struct Setup {
    /// Prepared in-RAM dataset.
    pub data: BinaryDataset,
    /// Fingerprinting parameters of `store`.
    pub params: ShfParams<DynHasher>,
    /// GoldFinger store every build and the service run on.
    pub store: ShfStore,
    /// Initial served graph.
    pub initial: KnnGraph,
    /// Pre-generated serving traffic.
    pub ops: ServeOps,
    /// Out-of-core input.
    pub input: PackedProfiles,
    /// Phase times of this set-up.
    pub times: SetupTimes,
}

/// Runs one set-up for `w` with input seed `seed`, writing the packed
/// out-of-core input under `dir`. Expects the worker pool installed.
pub fn setup(w: &Workload, seed: u64, dir: &Path) -> io::Result<Setup> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut lap = Instant::now();
    let mut split = |slot: &mut f64| {
        *slot = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };

    let ratings = (w.preset)().scaled(w.scale).with_seed(seed).generate();
    split(&mut times.generate_s);
    let data = ratings.prepare();
    drop(ratings);
    split(&mut times.prepare_s);
    let params = ShfParams::new(w.bits, DynHasher::default());
    let store = params.fingerprint_store(data.profiles());
    split(&mut times.fingerprint_s);
    let initial = build_with("brute", &ShfJaccard::new(&store), &data, w.k).graph;
    let ops = make_ops(&w.serve, data.n_users(), data.n_items() as u32, seed);
    let mut population = (w.preset)().with_seed(seed);
    population.n_users = w.ooc.users;
    let path = dir.join("ooc-input.gfbp");
    write_packed(&path, &StreamProfiles::new(&population))?;
    let input = PackedProfiles::open(&path)?;
    times.total_s = start.elapsed().as_secs_f64();
    Ok(Setup {
        data,
        params,
        store,
        initial,
        ops,
        input,
        times,
    })
}

/// The exact native graph recall is measured against: brute force over
/// explicit Jaccard. Verification only, so never part of `setup_s`.
pub fn exact_graph(setup: &Setup, k: usize) -> KnnGraph {
    build_with(
        "brute",
        &ExplicitJaccard::new(setup.data.profiles()),
        &setup.data,
        k,
    )
    .graph
}
