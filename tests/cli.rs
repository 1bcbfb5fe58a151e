//! Integration tests for the `goldfinger` CLI binary.

use std::process::Command;

fn goldfinger(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_goldfinger"))
        .args(args)
        .output()
        .expect("spawn goldfinger binary")
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = goldfinger(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = goldfinger(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage"));
}

#[test]
fn stats_prints_a_table2_row() {
    let out = goldfinger(&["stats", "--synth", "ml1m", "--scale", "0.02"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("movielens1M"));
    assert!(stdout.contains("density"));
}

#[test]
fn knn_builds_and_persists_a_graph() {
    let dir = std::env::temp_dir().join("goldfinger-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("graph.gfg");
    let out = goldfinger(&[
        "knn",
        "--synth",
        "ml1m",
        "--scale",
        "0.02",
        "--algo",
        "hyrec",
        "--k",
        "5",
        "--goldfinger",
        "--out",
        graph_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("GoldFinger"));
    // The persisted graph is a valid GFCS file and loads back.
    let bytes = std::fs::read(&graph_path).unwrap();
    let graph = goldfinger::knn::read_knn_graph(&mut bytes.as_slice()).unwrap();
    assert!(graph.n_users() > 50);
    assert_eq!(graph.k(), 5);
}

#[test]
fn zero_k_is_a_usage_error() {
    for command in ["knn", "recommend", "build"] {
        let out = goldfinger(&[command, "--scale", "0.02", "--k", "0"]);
        assert!(!out.status.success(), "{command} accepted --k 0");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--k"), "{command}: {err}");
        assert!(!err.contains("panicked"), "{command}: {err}");
    }
}

#[test]
fn zero_tables_is_a_usage_error() {
    let out = goldfinger(&["build", "--users", "200", "--tables", "0"]);
    assert!(!out.status.success(), "build accepted --tables 0");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--tables"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn zero_bits_is_a_usage_error() {
    for command in ["fingerprint", "knn", "build", "serve", "privacy"] {
        let out = goldfinger(&[command, "--scale", "0.02", "--bits", "0"]);
        assert!(!out.status.success(), "{command} accepted --bits 0");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--bits"), "{command}: {err}");
        assert!(!err.contains("panicked"), "{command}: {err}");
    }
}

#[test]
fn build_out_writes_a_loadable_graph() {
    let dir = std::env::temp_dir().join(format!("goldfinger-cli-build-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("graph.gfg");
    let out = goldfinger(&[
        "build",
        "--users",
        "2000",
        "--spill",
        dir.join("spill").to_str().unwrap(),
        "--out",
        graph_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&graph_path).unwrap();
    let graph = goldfinger::knn::read_knn_graph(&mut bytes.as_slice()).unwrap();
    assert_eq!(graph.n_users(), 2000);
    assert_eq!(graph.k(), 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fingerprint_writes_a_valid_store() {
    let dir = std::env::temp_dir().join("goldfinger-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fp.gfs");
    let out = goldfinger(&[
        "fingerprint",
        "--synth",
        "dblp",
        "--scale",
        "0.01",
        "--bits",
        "256",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).unwrap();
    let store = goldfinger::core::serial::read_shf_store(&mut bytes.as_slice()).unwrap();
    assert_eq!(store.width(), 256);
    assert!(store.len() > 10);
}

#[test]
fn recommend_emits_items() {
    let out = goldfinger(&[
        "recommend",
        "--synth",
        "ml1m",
        "--scale",
        "0.02",
        "--algo",
        "brute",
        "--k",
        "10",
        "--user",
        "1",
        "--n",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("score"), "{stdout}");
}

#[test]
fn recommend_rejects_out_of_range_user() {
    let out = goldfinger(&[
        "recommend",
        "--synth",
        "ml1m",
        "--scale",
        "0.02",
        "--user",
        "99999",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}

#[test]
fn privacy_reports_the_paper_numbers() {
    let out = goldfinger(&[
        "privacy",
        "--items",
        "171356",
        "--bits",
        "1024",
        "--cardinality",
        "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2^167"), "{stdout}");
    assert!(stdout.contains("l-diversity: 167"), "{stdout}");
}

#[test]
fn generate_then_reload_roundtrips() {
    let dir = std::env::temp_dir().join("goldfinger-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("generated.dat");
    let out = goldfinger(&[
        "generate",
        "--synth",
        "ml1m",
        "--scale",
        "0.02",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The generated file loads back through the stats subcommand.
    let out = goldfinger(&[
        "stats",
        "--ratings",
        path.to_str().unwrap(),
        "--format",
        "dat",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("density"));
}

#[test]
fn generate_requires_out() {
    let out = goldfinger(&["generate", "--synth", "ml1m", "--scale", "0.02"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn bad_format_flag_fails_cleanly() {
    let out = goldfinger(&["stats", "--ratings", "/nonexistent", "--format", "xml"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --format"));
}
