//! The benchmark's instruments must observe without steering: a short run
//! gives identical outputs and allocation counts with and without the
//! wrappers and sinks, and the metrics it prints are the ones
//! `BENCHMARK.json` declares.

use lion_obs::json::{parse, JsonValue};
use lion_perfbench::alloc::Counting;
use lion_perfbench::rep::{self, Rep};
use lion_perfbench::seams::{LatencyCounts, SEAMS};
use lion_perfbench::summary::{self, end_to_end, per_layer, result_json, Metric};
use lion_perfbench::workloads::{Kind, Spec, DEFAULT_SEED};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

#[global_allocator]
static ALLOC: Counting = Counting;

/// The allocation counters are process-wide, and the test harness runs
/// tests on parallel threads: every test that runs the engine holds this.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Long enough for every workload to commit, short enough for a debug build.
const HORIZON_US: u64 = 30_000;

fn short(kind: Kind) -> Spec {
    Spec::new(kind, DEFAULT_SEED).with_horizon(HORIZON_US)
}

fn outputs(r: &Rep) -> (u64, u64, u64, [u64; 3], Vec<String>) {
    (
        r.report.digest(),
        r.report.events,
        r.report.commits,
        [
            r.commit_p[0].to_bits(),
            r.commit_p[1].to_bits(),
            r.ack_p99.to_bits(),
        ],
        r.failures.clone(),
    )
}

#[test]
fn wrappers_and_sinks_are_pure_observers() {
    let _serial = serial();
    for kind in Kind::ALL {
        let spec = short(kind);
        rep::run(&spec, false); // process-wide lazy set-up happens here
        let plain = rep::run(&spec, false);
        let traced = rep::run(&spec, true);
        assert!(plain.report.commits > 0, "{}: no commits", kind.name());
        assert_eq!(outputs(&plain), outputs(&traced), "{}", kind.name());
        assert_eq!(
            plain.alloc.total_count(),
            traced.alloc.total_count(),
            "{}: the instruments allocated during the run",
            kind.name()
        );
        let times = traced.seams.expect("traced");
        let wrapped: u64 = times.self_ns.iter().sum();
        assert!(wrapped as f64 <= traced.run_s * 1e9, "{}", kind.name());
        assert!(times.calls[1..].iter().any(|&c| c > 0), "{}", kind.name());
    }
}

#[test]
fn allocation_counts_repeat_and_are_attributed() {
    let _serial = serial();
    let spec = short(Kind::YcsbSteady);
    rep::run(&spec, true);
    let a = rep::run(&spec, true);
    let b = rep::run(&spec, true);
    assert_eq!(a.alloc, b.alloc);
    // Closed-loop clients draw each transaction from the generator, which
    // builds its request on the heap.
    let calls = a.seams.expect("traced").calls;
    assert!(a.alloc.count[1] >= calls[1]);
    assert_eq!(a.alloc.count.len(), SEAMS);
}

#[test]
fn quantile_places_ties_inside_their_microsecond() {
    let counts = |vs: &[u64]| {
        let mut c = LatencyCounts::default();
        vs.iter().for_each(|&v| c.record(v));
        c
    };
    // Position 2.5 falls in the class of the three 2s, after one sample below.
    assert_eq!(counts(&[3, 2, 1, 2, 2]).quantile(0.5), (2, 2.5));
    let all: Vec<u64> = (1..=100).collect();
    assert_eq!(counts(&all).quantile(0.99), (99, 100.0));
    assert_eq!(LatencyCounts::default().quantile(0.5), (0, 0.0));
    let mut merged = counts(&all[..30]);
    merged.merge(&counts(&all[30..]));
    assert_eq!(merged, counts(&all));
}

fn declared(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let list = doc
        .get(kind)
        .and_then(JsonValue::as_arr)
        .expect("metric list");
    list.iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn a_short_run_is_correct_and_prints_the_declared_metrics() {
    let _serial = serial();
    let spec = short(Kind::YcsbSteady);
    let names = |m: Vec<Metric>| {
        m.into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect::<Vec<_>>()
    };
    let out = summary::run(&spec, Duration::ZERO, false);
    assert_eq!(out.failures, Vec::<String>::new());
    assert_eq!(out.reference.len(), summary::INSTANCES);
    let e2e = end_to_end(&out, 1.0);
    assert_eq!(names(e2e.clone()), declared("end_to_end"));
    assert!(e2e.iter().all(|m| m.value > 0.0), "{e2e:?}");

    let line = result_json(&out, &e2e);
    let doc = parse(&line).expect("result line parses");
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        doc.get("attempted").and_then(JsonValue::as_num),
        Some(out.attempted as f64)
    );

    let traced = summary::run(&spec, Duration::ZERO, true);
    assert_eq!(traced.failures, Vec::<String>::new());
    assert_eq!(traced.traced.len(), summary::INSTANCES);
    assert_eq!(names(per_layer(&traced)), declared("per_layer"));
}

#[test]
fn workload_names_round_trip() {
    for kind in Kind::ALL {
        assert_eq!(Kind::parse(kind.name()), Some(kind));
    }
    assert_eq!(Kind::parse("nope"), None);
}
