//! End-to-end exposition: a real `MetricsServer` on an ephemeral loopback
//! port is scraped with hand-written HTTP GETs while a replay hammers the
//! serving layer, then the final `/metrics` body is parsed as Prometheus
//! text and checked for live `serve.*` series with a well-formed
//! cumulative bucket ladder.

use goldfinger_core::hash::DynHasher;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{ShfParams, ShfStore};
use goldfinger_core::similarity::ShfJaccard;
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::graph::KnnGraph;
use goldfinger_knn::serve::{replay, synth_ops, KnnService, ServeConfig};
use goldfinger_obs::{Json, MetricsServer, Registry, StatusFn};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn fixture(users: u32) -> (KnnGraph, ShfStore, ShfParams<DynHasher>) {
    let lists: Vec<Vec<u32>> = (0..users)
        .map(|u| {
            let base = (u / 10) * 400;
            let mut items: Vec<u32> = (base..base + 10).collect();
            items.push(base + 200 + u);
            items
        })
        .collect();
    let params = ShfParams::new(512, DynHasher::default());
    let store = params.fingerprint_store(&ProfileStore::from_item_lists(lists));
    let graph = BruteForce::default()
        .build(&ShfJaccard::new(&store), 5)
        .graph;
    (graph, store, params)
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("no header/body split");
    (head.to_string(), body.to_string())
}

/// Splits `serve_lookup_latency_seconds_bucket{le="0.001"} 42` into the
/// `le` bound and the cumulative count.
fn parse_bucket_line(line: &str) -> (f64, u64) {
    let le = line
        .split("le=\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("bucket line without le label");
    let count = line.rsplit(' ').next().unwrap().parse().unwrap();
    let bound = if le == "+Inf" {
        f64::INFINITY
    } else {
        le.parse().unwrap()
    };
    (bound, count)
}

#[test]
fn metrics_endpoint_serves_live_series_during_a_replay() {
    let (graph, store, params) = fixture(60);
    let registry = Arc::new(Registry::new());
    let cfg = ServeConfig {
        batch: 16,
        probes: 3,
        seed: 11,
        threads: 1,
        ..ServeConfig::default()
    };
    let svc = Arc::new(KnnService::new(
        &graph,
        &store,
        *params.hasher(),
        cfg,
        &registry,
    ));

    let status_svc = svc.clone();
    let status: StatusFn = Box::new(move || {
        let snap = status_svc.snapshot();
        Json::obj(vec![
            ("epoch", Json::Num(snap.epoch() as f64)),
            ("digest", Json::Str(format!("{:016x}", snap.digest()))),
        ])
    });
    let server = MetricsServer::start("127.0.0.1:0", registry.clone(), Some(status)).unwrap();
    let addr = server.local_addr();

    // Scrape continuously while the replay runs: every response must be a
    // complete 200 with parseable content, no matter where the drain is.
    // The replay starts only once the scraper has finished one full scrape,
    // so a replay that ends before the scraper thread is scheduled cannot
    // leave the scrape count at zero.
    let done = AtomicBool::new(false);
    let scraped_once = AtomicBool::new(false);
    let outcome = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut scrapes = 0usize;
            while !done.load(Ordering::Relaxed) {
                let (head, _) = get(addr, "/healthz");
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                let (head, body) = get(addr, "/metrics");
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                for line in body.lines() {
                    assert!(
                        line.starts_with('#') || line.rsplit(' ').next().is_some(),
                        "unparseable metrics line: {line}"
                    );
                }
                scrapes += 1;
                scraped_once.store(true, Ordering::Release);
            }
            scrapes
        });
        // A scraper that panics before its first scrape ends the wait too;
        // the join below then reports its panic.
        while !scraped_once.load(Ordering::Acquire) && !scraper.is_finished() {
            std::thread::yield_now();
        }
        let ops = synth_ops(60, 5000, 4000, 40, 33);
        let outcome = replay(&svc, &ops);
        done.store(true, Ordering::Relaxed);
        assert!(scraper.join().unwrap() > 0, "scraper never ran");
        outcome
    });

    // Final scrape: the replay's histograms and counters must be visible
    // as sanitized Prometheus series.
    let (_, body) = get(addr, "/metrics");
    assert!(body.contains("# TYPE serve_lookup_latency_seconds histogram"));
    assert!(body.contains("# TYPE serve_update_latency_seconds histogram"));
    assert!(
        body.lines()
            .any(|l| l.starts_with("serve_repairs ") || l.starts_with("serve_repairs\t")),
        "serve.repairs counter missing:\n{body}"
    );
    let count_line = body
        .lines()
        .find(|l| l.starts_with("serve_lookup_latency_seconds_count"))
        .expect("lookup count series missing");
    let scraped: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(scraped, outcome.lookups, "count series != replay outcome");

    // The bucket ladder must be cumulative: counts non-decreasing as the
    // le bound increases, ending at the +Inf bucket == _count.
    let buckets: Vec<(f64, u64)> = body
        .lines()
        .filter(|l| l.starts_with("serve_lookup_latency_seconds_bucket"))
        .map(parse_bucket_line)
        .collect();
    assert!(buckets.len() >= 2, "no bucket ladder:\n{body}");
    for pair in buckets.windows(2) {
        assert!(pair[0].0 < pair[1].0, "le bounds not increasing: {pair:?}");
        assert!(pair[0].1 <= pair[1].1, "buckets not cumulative: {pair:?}");
    }
    assert_eq!(buckets.last().unwrap().1, scraped);

    // /epoch reports the published epoch + digest of the final snapshot.
    let (head, body) = get(addr, "/epoch");
    assert!(head.starts_with("HTTP/1.1 200"));
    let status = Json::parse(&body).unwrap();
    assert_eq!(
        status.get("epoch").and_then(Json::as_u64),
        Some(outcome.final_epoch)
    );
    assert_eq!(
        status.get("digest").and_then(Json::as_str),
        Some(format!("{:016x}", outcome.final_digest).as_str())
    );

    server.stop();
}
