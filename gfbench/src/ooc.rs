//! The out-of-core layer: one `oocbuild::build_to_disk` over the packed
//! input file, with its resident-memory peak measured against the budget.

use crate::input::PackedProfiles;
use crate::spec::{OocSpec, SYSTEM_SEED};
use crate::timed::TimedSource;
use goldfinger_core::hash::DynHasher;
use goldfinger_core::shf::ShfParams;
use goldfinger_knn::oocbuild::{self, OocConfig, OocStats};
use goldfinger_obs::{mem, trace};
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

/// Peak resident growth allowed over the budget before a round fails.
pub const BUDGET_SLACK: f64 = 1.25;

/// One measured out-of-core build.
#[derive(Debug, Clone)]
pub struct OocRun {
    /// The build's own counters and phase times.
    pub stats: OocStats,
    /// Size of the graph file.
    pub graph_bytes: u64,
    /// Digest of the graph file.
    pub digest: u64,
    /// Resident-set growth over the build, MiB.
    pub peak_growth_mib: f64,
    /// Time spent reading the input file (traced builds only).
    pub read_s: Option<f64>,
}

impl OocRun {
    /// Whether the peak stayed within [`BUDGET_SLACK`] × the budget.
    pub fn within_budget(&self, spec: &OocSpec) -> bool {
        self.peak_growth_mib <= BUDGET_SLACK * spec.budget_mib as f64
    }
}

/// Builds the input's graph under `dir` and removes every file it wrote.
pub fn run_ooc(
    spec: &OocSpec,
    input: &PackedProfiles,
    dir: &Path,
    traced: bool,
) -> io::Result<OocRun> {
    let spill = dir.join("ooc-spill");
    let out = dir.join("ooc-graph.gfg");
    let mut cfg = OocConfig::new(spec.k, spec.tables, SYSTEM_SEED, &spill);
    cfg.mem_budget = spec.budget_mib << 20;
    cfg.max_bucket = spec.max_bucket;
    let params = ShfParams::new(spec.bits, DynHasher::default());

    let _span = trace::span("gfbench", "ooc");
    mem::reset_rss_peak();
    let floor_kb = mem::snapshot().map_or(0, |s| s.rss_kb);
    let (stats, read_s) = if traced {
        let source = TimedSource::new(input);
        let stats = oocbuild::build_to_disk(&source, &params, &cfg, &out)?;
        (stats, Some(source.read_s()))
    } else {
        (oocbuild::build_to_disk(input, &params, &cfg, &out)?, None)
    };
    let peak_kb = mem::snapshot().map_or(0, |s| s.peak_kb);
    drop(_span);
    let run = OocRun {
        stats,
        graph_bytes: std::fs::metadata(&out)?.len(),
        digest: file_digest(&out)?,
        peak_growth_mib: peak_kb.saturating_sub(floor_kb) as f64 / 1024.0,
        read_s,
    };
    std::fs::remove_dir_all(&spill)?;
    std::fs::remove_file(&out)?;
    Ok(run)
}

/// FNV-1a over a file's bytes.
pub fn file_digest(path: &Path) -> io::Result<u64> {
    let mut r = BufReader::with_capacity(1 << 20, File::open(path)?);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = r.read(&mut buf)?;
        if n == 0 {
            return Ok(h);
        }
        for &b in &buf[..n] {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
