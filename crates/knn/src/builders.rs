//! The builder registry: every construction algorithm, enumerable by name.
//!
//! Harnesses that want to run "all algorithms" — the bench workloads, the
//! CLI, the comparison example — iterate [`all`] (or look one up with
//! [`get`]) and instantiate through [`BuilderSpec::instantiate`], which
//! applies the paper's evaluation parameters (§3.3: `δ = 0.001`, at most 30
//! refinement iterations, 10 LSH tables) with the caller's seed and thread
//! count. No caller needs a per-algorithm match arm; adding a builder means
//! implementing [`ErasedBuilder`] and appending a [`BuilderSpec`] here.

use crate::brute::BruteForce;
use crate::builder::ErasedBuilder;
use crate::cluster::Cluster;
use crate::hyrec::Hyrec;
use crate::kiff::Kiff;
use crate::lsh::Lsh;
use crate::nndescent::NNDescent;

/// Caller-chosen knobs applied at instantiation; everything else is fixed
/// to the paper's parameters by the registry entries.
#[derive(Debug, Clone, Copy)]
pub struct BuilderConfig {
    /// RNG seed for builders that draw randomness (random-graph init,
    /// sampling, LSH permutations).
    pub seed: u64,
    /// Worker threads (0 = default parallelism, 1 = serial).
    pub threads: usize,
}

impl Default for BuilderConfig {
    fn default() -> Self {
        BuilderConfig {
            seed: 42,
            threads: 1,
        }
    }
}

/// One registered construction algorithm.
pub struct BuilderSpec {
    /// Display name, as printed in the paper's tables.
    pub name: &'static str,
    /// Whether the algorithm is part of the paper's Table 4 evaluation
    /// (KIFF is related work, available for extended comparisons).
    pub in_paper: bool,
    make: fn(&BuilderConfig) -> Box<dyn ErasedBuilder>,
}

impl BuilderSpec {
    /// Creates the builder with the paper's parameters and `cfg`'s seed and
    /// thread count.
    pub fn instantiate(&self, cfg: &BuilderConfig) -> Box<dyn ErasedBuilder> {
        (self.make)(cfg)
    }
}

static REGISTRY: [BuilderSpec; 6] = [
    BuilderSpec {
        name: "Brute Force",
        in_paper: true,
        make: |cfg| {
            Box::new(BruteForce {
                threads: cfg.threads,
                ..BruteForce::default()
            })
        },
    },
    BuilderSpec {
        name: "Hyrec",
        in_paper: true,
        make: |cfg| {
            Box::new(Hyrec {
                delta: 0.001,
                max_iterations: 30,
                seed: cfg.seed,
                threads: cfg.threads,
            })
        },
    },
    BuilderSpec {
        name: "NNDescent",
        in_paper: true,
        make: |cfg| {
            Box::new(NNDescent {
                delta: 0.001,
                max_iterations: 30,
                sample_rate: 1.0,
                seed: cfg.seed,
                threads: cfg.threads,
            })
        },
    },
    BuilderSpec {
        name: "LSH",
        in_paper: true,
        make: |cfg| {
            Box::new(Lsh {
                tables: 10,
                seed: cfg.seed,
                threads: cfg.threads,
            })
        },
    },
    BuilderSpec {
        name: "KIFF",
        in_paper: false,
        make: |cfg| {
            Box::new(Kiff {
                threads: cfg.threads,
                ..Kiff::default()
            })
        },
    },
    BuilderSpec {
        name: "Cluster",
        in_paper: false,
        // Everything but seed and threads comes from `Cluster::default()`,
        // so harnesses (exp_table4's layout extra, the sweep bench) can
        // reconstruct the registry configuration from the same source.
        make: |cfg| {
            Box::new(Cluster {
                seed: cfg.seed,
                threads: cfg.threads,
                ..Cluster::default()
            })
        },
    },
];

/// Every registered builder, in the paper's table order (KIFF last).
pub fn all() -> &'static [BuilderSpec] {
    &REGISTRY
}

/// Looks a builder up by name, case-insensitively and ignoring spaces,
/// dashes and underscores; `"brute"` is accepted as a shorthand for
/// `"Brute Force"`.
///
/// An unknown name comes back as an error listing every registered
/// spelling, so CLI typos are self-diagnosing instead of forcing a source
/// dive.
pub fn get(name: &str) -> Result<&'static BuilderSpec, String> {
    let needle: String = name
        .chars()
        .filter(|c| !matches!(c, ' ' | '-' | '_'))
        .flat_map(char::to_lowercase)
        .collect();
    let found = if needle.is_empty() {
        None
    } else {
        REGISTRY.iter().find(|spec| {
            let canon: String = spec
                .name
                .chars()
                .filter(|c| *c != ' ')
                .flat_map(char::to_lowercase)
                .collect();
            canon == needle || (needle == "brute" && spec.name == "Brute Force")
        })
    };
    found.ok_or_else(|| {
        let names: Vec<&str> = REGISTRY.iter().map(|s| s.name).collect();
        format!(
            "unknown builder {name:?}; registered: {} \
             (case, spaces, dashes and underscores are ignored; \
             \"brute\" works for \"Brute Force\")",
            names.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_accepts_cli_spellings() {
        for (spelling, expected) in [
            ("brute", "Brute Force"),
            ("bruteforce", "Brute Force"),
            ("Brute Force", "Brute Force"),
            ("brute-force", "Brute Force"),
            ("hyrec", "Hyrec"),
            ("NNDescent", "NNDescent"),
            ("nn_descent", "NNDescent"),
            ("lsh", "LSH"),
            ("kiff", "KIFF"),
            ("cluster", "Cluster"),
            ("Cluster", "Cluster"),
        ] {
            let spec = get(spelling).unwrap_or_else(|e| panic!("{spelling}: {e}"));
            assert_eq!(spec.name, expected, "{spelling}");
        }
    }

    #[test]
    fn unknown_names_list_the_registered_spellings() {
        for bogus in ["louvain", ""] {
            let err = match get(bogus) {
                Ok(spec) => panic!("{bogus:?} resolved to {}", spec.name),
                Err(e) => e,
            };
            assert!(err.contains("unknown builder"), "{err}");
            for name in [
                "Brute Force",
                "Hyrec",
                "NNDescent",
                "LSH",
                "KIFF",
                "Cluster",
            ] {
                assert!(err.contains(name), "{bogus:?}: error omits {name}: {err}");
            }
        }
    }

    #[test]
    fn registry_lists_the_paper_algorithms_first() {
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "Brute Force",
                "Hyrec",
                "NNDescent",
                "LSH",
                "KIFF",
                "Cluster"
            ]
        );
        assert!(all()[..4].iter().all(|s| s.in_paper));
        assert!(all()[4..].iter().all(|s| !s.in_paper));
    }

    #[test]
    fn instantiation_applies_seed_and_threads() {
        let cfg = BuilderConfig {
            seed: 7,
            threads: 3,
        };
        for spec in all() {
            let b = spec.instantiate(&cfg);
            assert_eq!(b.name(), spec.name);
            // The greedy refiners report determinism only at one thread
            // (their parallel output is pinned by the golden-seed suite);
            // the rest report it for any thread count.
            let greedy = spec.name == "Hyrec" || spec.name == "NNDescent";
            assert_eq!(b.deterministic(), !greedy);
            let wants_profiles =
                spec.name == "LSH" || spec.name == "KIFF" || spec.name == "Cluster";
            assert_eq!(b.needs_profiles(), wants_profiles);
        }
    }
}
