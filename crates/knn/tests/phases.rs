//! Both phase recorders see the same phases: for every builder of the
//! [`goldfinger_knn::builders`] registry, the phases a [`RecordingObserver`]
//! receives (names and entry counts) equal the `"phase"` spans of the
//! flight-recorder timeline, and both name the builder's expected phases.
//!
//! The flight recorder is process-global, so this suite lives in its own
//! test binary and runs every build from one test function: no other test
//! can record into, or drain, the session.

use goldfinger_core::profile::ProfileStore;
use goldfinger_core::similarity::ExplicitJaccard;
use goldfinger_knn::builder::BuildInput;
use goldfinger_knn::builders::{self, BuilderConfig};
use goldfinger_obs::trace::{self, TraceKind};
use goldfinger_obs::{Phase, RecordingObserver};
use std::collections::BTreeMap;

/// Events per thread ring: far above what one small build records.
const RING_CAPACITY: usize = 1 << 16;

/// Four clusters of users sharing most of their items, plus one private
/// item each, so the iterative builders refine for a few rounds.
fn clustered() -> ProfileStore {
    let lists = (0..4u32)
        .flat_map(|c| {
            (0..15u32).map(move |u| {
                let mut items: Vec<u32> = (c * 50..c * 50 + 30).collect();
                items.push(1000 + c * 15 + u);
                items
            })
        })
        .collect();
    ProfileStore::from_item_lists(lists)
}

/// The phases each registry builder reports, in pipeline order.
fn expected(name: &str) -> &'static [Phase] {
    use Phase::{CandidateGeneration as Cand, Join, Merge};
    match name {
        "Brute Force" => &[Join, Merge],
        "LSH" | "KIFF" => &[Cand, Join],
        "NNDescent" | "Hyrec" | "Cluster" => &[Cand, Join, Merge],
        other => panic!("no expected phases for builder {other}"),
    }
}

#[test]
fn observer_and_flight_recorder_see_the_same_phases() {
    let profiles = clustered();
    let sim = ExplicitJaccard::new(&profiles);
    for spec in builders::all() {
        for threads in [1, 2] {
            let builder = spec.instantiate(&BuilderConfig { seed: 7, threads });
            let label = format!("{} at {threads} thread(s)", spec.name);
            let rec = RecordingObserver::new();
            trace::enable(RING_CAPACITY);
            builder.build_erased(BuildInput::with_profiles(&sim, &profiles), 5, &rec);
            let timeline = trace::disable_and_drain();
            assert_eq!(timeline.dropped, 0, "{label}: events dropped");
            timeline.validate_nesting().unwrap();

            let observed: BTreeMap<&str, u64> = rec
                .phases()
                .iter()
                .map(|p| (p.phase.name(), p.entries))
                .collect();
            let mut traced: BTreeMap<&str, u64> = BTreeMap::new();
            for e in &timeline.events {
                if e.cat == "phase" && e.kind == TraceKind::Begin {
                    *traced.entry(e.name).or_default() += 1;
                }
            }
            assert_eq!(observed, traced, "{label}: observer vs timeline");

            let names: Vec<Phase> = rec.phases().iter().map(|p| p.phase).collect();
            assert_eq!(names, expected(builder.name()), "{label}: phase list");
        }
    }
}
