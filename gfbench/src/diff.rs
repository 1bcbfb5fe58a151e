//! `gfbench diff`: compares two sets of result files (a base and a
//! change), keyed on (workload, metric).
//!
//! Each side is a set of runs, one result file each, ideally alternated
//! with the other side's so drift on the machine hits both equally. Per
//! key the comparator prints both sides' median and quartiles, the share
//! of (base, change) run pairs the change wins, and a verdict:
//!
//! - `unresolved` — either side's interquartile spread is wider than the
//!   metric's bound, so no verdict is safe;
//! - `improved` — the change wins at least 9 of 10 pairs and its median
//!   moved by more than the base's interquartile range;
//! - `regressed` — the mirror image, or a median worse by more than the
//!   bound;
//! - `unchanged` — anything else.
//!
//! It exits non-zero on any regressed end-to-end metric or when the
//! change fails a larger share of its operations than the base.

use crate::stats::Summary;
use goldfinger_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Share of paired runs that must go one way for a verdict.
pub const DECISIVE: f64 = 0.9;

/// Outcome of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the noise.
    Improved,
    /// Worse beyond the noise or the bound.
    Regressed,
    /// Within the noise.
    Unchanged,
    /// Too noisy to judge against the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares paired samples; returns the verdict and the change's win
/// share over the pairs `(base[i], change[i])`.
pub fn verdict(
    base: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> (Verdict, f64) {
    let pairs = base.len().min(change.len()).max(1);
    let better = |b: f64, c: f64| if higher_is_better { c > b } else { c < b };
    let wins = base
        .iter()
        .zip(change)
        .filter(|(&b, &c)| better(b, c))
        .count();
    let losses = base
        .iter()
        .zip(change)
        .filter(|(&b, &c)| better(c, b))
        .count();
    let (win, loss) = (wins as f64 / pairs as f64, losses as f64 / pairs as f64);
    let (b, c) = (Summary::of(base), Summary::of(change));
    if bound.is_some_and(|bound| b.spread() > bound || c.spread() > bound) {
        return (Verdict::Unresolved, win);
    }
    let gain = if higher_is_better {
        c.median - b.median
    } else {
        b.median - c.median
    };
    let noise = b.q3 - b.q1;
    let v = if win >= DECISIVE && gain > noise {
        Verdict::Improved
    } else if (loss >= DECISIVE && -gain > noise)
        || bound.is_some_and(|bound| -gain > bound * b.median.abs())
    {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    (v, win)
}

/// One result file, as written by `--out`.
#[derive(Debug, Clone)]
pub struct ResultFile {
    /// Workload the run measured.
    pub workload: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl ResultFile {
    /// Parses a result file.
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let field = |k: &str| json.get(k).ok_or(format!("missing {k:?}"));
        let Json::Obj(metrics) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        Ok(ResultFile {
            workload: field("workload")?.as_str().ok_or("workload")?.to_string(),
            attempted: field("attempted")?.as_u64().ok_or("attempted")?,
            failed: field("failed")?.as_u64().ok_or("failed")?,
            values: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        })
    }
}

/// Bound and direction of each metric, from `BENCHMARK.json`.
pub struct Bounds(BTreeMap<String, (Option<f64>, bool)>);

impl Bounds {
    /// Parses the `end_to_end` and `per_layer` lists.
    pub fn parse(text: &str) -> Result<Bounds, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let mut map = BTreeMap::new();
        for list in ["end_to_end", "per_layer"] {
            for m in json.get(list).and_then(Json::as_array).unwrap_or(&[]) {
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?;
                let higher = m.get("better").and_then(Json::as_str) == Some("higher");
                map.insert(
                    name.to_string(),
                    (m.get("bound").and_then(Json::as_f64), higher),
                );
            }
        }
        Ok(Bounds(map))
    }
}

fn read_all(paths: &[String]) -> Result<Vec<ResultFile>, String> {
    paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map_err(|e| e.to_string())
                .and_then(|t| ResultFile::parse(&t))
                .map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// Runs the comparison and prints it; returns whether it passes (no
/// end-to-end regression, no higher failed-op share).
pub fn diff(bench: &Path, base: &[String], change: &[String]) -> Result<bool, String> {
    let bench_text =
        std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let bounds = Bounds::parse(&bench_text)?;
    let (base, change) = (read_all(base)?, read_all(change)?);
    type Sides = (Vec<f64>, Vec<f64>);
    let mut keys: BTreeMap<(String, String), Sides> = BTreeMap::new();
    for (is_change, files) in [(false, &base), (true, &change)] {
        for f in files {
            for (name, &v) in &f.values {
                let (b, c) = keys.entry((f.workload.clone(), name.clone())).or_default();
                if is_change { c } else { b }.push(v);
            }
        }
    }
    println!(
        "{:<8} {:<30} {:>12} {:>25} {:>12} {:>25} {:>5}  verdict",
        "workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]", "wins"
    );
    let mut pass = true;
    for ((workload, metric), (b, c)) in &keys {
        let Some(&(bound, higher)) = bounds.0.get(metric) else {
            continue;
        };
        if b.is_empty() || c.is_empty() {
            println!("{workload:<8} {metric:<30} missing on one side");
            continue;
        }
        let (v, win) = verdict(b, c, higher, bound);
        let (sb, sc) = (Summary::of(b), Summary::of(c));
        println!(
            "{workload:<8} {metric:<30} {:>12.6} [{:>11.6}, {:>11.6}] {:>12.6} [{:>11.6}, {:>11.6}] {:>5.2}  {}",
            sb.median, sb.q1, sb.q3, sc.median, sc.q1, sc.q3, win, v.label()
        );
        if v == Verdict::Regressed && bound.is_some() {
            pass = false;
        }
    }
    let share = |files: &[ResultFile]| {
        let attempted: u64 = files.iter().map(|f| f.attempted).sum();
        let failed: u64 = files.iter().map(|f| f.failed).sum();
        (failed, attempted, failed as f64 / attempted.max(1) as f64)
    };
    let (bf, ba, bs) = share(&base);
    let (cf, ca, cs) = share(&change);
    println!("ops_failed/ops_attempted base {bf}/{ba}, change {cf}/{ca}");
    if cs > bs {
        println!("change fails a larger share of its operations");
        pass = false;
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| center * (1.0 + j)).collect()
    }

    const JITTER: [f64; 10] = [
        0.01, -0.01, 0.005, -0.005, 0.0, 0.008, -0.008, 0.003, -0.003, 0.002,
    ];

    #[test]
    fn same_distribution_is_unchanged() {
        let base = around(1.0, &JITTER);
        let mut change = base.clone();
        change.reverse();
        assert_eq!(
            verdict(&base, &change, false, Some(0.1)).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn consistent_speedup_is_improved_and_slowdown_regressed() {
        let base = around(1.0, &JITTER);
        let faster = around(0.9, &JITTER);
        let (v, win) = verdict(&base, &faster, false, Some(0.1));
        assert_eq!((v, win), (Verdict::Improved, 1.0));
        let (v, win) = verdict(&faster, &base, false, Some(0.1));
        assert_eq!((v, win), (Verdict::Regressed, 0.0));
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&base, &faster, true, Some(0.1)).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_median_past_the_bound_regresses_even_without_decisive_pairs() {
        let base = around(1.0, &JITTER);
        // Worse by 12% on the median, but two lucky pairs still win.
        let mut change = around(1.12, &JITTER);
        change[0] = 0.99; // base[0] = 1.01
        change[1] = 0.98; // base[1] = 0.99
        let (v, win) = verdict(&base, &change, false, Some(0.1));
        assert_eq!((v, win), (Verdict::Regressed, 0.2));
        // Without a bound the same data only counts as noise.
        assert_eq!(verdict(&base, &change, false, None).0, Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = around(
            1.0,
            &[0.3, -0.3, 0.2, -0.2, 0.1, -0.1, 0.25, -0.25, 0.0, 0.05],
        );
        let change = around(0.5, &JITTER);
        assert_eq!(
            verdict(&base, &change, false, Some(0.1)).0,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &change, false, Some(0.5)).0,
            Verdict::Improved
        );
    }

    #[test]
    fn result_files_and_bounds_parse() {
        let r = ResultFile::parse(
            r#"{"workload":"dense","seed":1,"trace":false,"correct":true,"attempted":10,"failed":0,
                "metrics":{"setup_s":{"value":1.5,"unit":"s","q1":1.4,"q3":1.6,"n":3}}}"#,
        )
        .unwrap();
        assert_eq!(
            (r.workload.as_str(), r.attempted, r.failed),
            ("dense", 10, 0)
        );
        assert_eq!(r.values["setup_s"], 1.5);
        let b = Bounds::parse(
            r#"{"end_to_end":[{"name":"recall.lsh","unit":"fraction","better":"higher","bound":0.02}],
                "per_layer":[{"name":"ooc.evals","unit":"count","better":"lower"}]}"#,
        )
        .unwrap();
        assert_eq!(b.0["recall.lsh"], (Some(0.02), true));
        assert_eq!(b.0["ooc.evals"], (None, false));
    }
}
