//! `lion-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--rev <revision>]`
//!
//! Runs one workload for about `s` host seconds and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! lines before it are for people: a record stamped with the host and the
//! revision, each metric, and any failed check.

use lion_perfbench::alloc::Counting;
use lion_perfbench::calib::REF_NS;
use lion_perfbench::rep::Rep;
use lion_perfbench::summary::{self, Metric};
use lion_perfbench::workloads::{Kind, Spec, DEFAULT_SEED, HELD_OUT_SEED};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: Counting = Counting;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::YcsbSteady,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        rev: "unknown".into(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value == "1",
            "--rev" => args.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.kind = Kind::parse(&name).ok_or(format!("unknown workload {name}"))?;
    Ok(args)
}

/// A `/proc` field of this process or host, as text.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lion-perfbench --workload <ycsb-steady|tpcc-2pc|hotspot-crash> \
                 --seed <n> --seconds <s> --trace <0|1> [--rev <revision>]\n\
                 default seed {DEFAULT_SEED}; seed {HELD_OUT_SEED} is held out for confirming claims"
            );
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.kind, args.seed);
    let out = summary::run(&spec, Duration::from_secs(args.seconds), args.trace);
    let metrics = if args.trace {
        summary::per_layer(&out)
    } else {
        summary::end_to_end(&out, peak_rss_mib())
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let digests: Vec<String> = out
        .reference
        .iter()
        .map(|r| format!("{:#018x}", r.report.digest()))
        .collect();
    let events: u64 = out.reference.iter().map(|r| r.report.events).sum();
    println!(
        "record workload={} seed={} trace={} horizon_us={} instances={} nproc={nproc} \
         cpu=\"{cpu}\" rev={} profile={profile} digests={} events={events} \
         commit_samples={} reps={}+{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        spec.horizon,
        summary::INSTANCES,
        args.rev,
        digests.join(","),
        summary::commit_samples(&out),
        out.plain.len(),
        out.traced.len(),
    );
    let raw = |f: fn(&Rep) -> f64| summary::median(out.plain.iter().map(f).collect());
    println!(
        "host calib_ns_per_iter={:.1} raw_commits_per_s={:.1} raw_events_per_s={:.1} \
         (host-time metrics below are scaled to {REF_NS} ns per calibration iteration)",
        raw(|r| r.setup.calib_ns),
        raw(Rep::raw_commits_per_s),
        raw(Rep::raw_events_per_s),
    );
    print_metrics(&metrics);
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    println!("{}", summary::result_json(&out, &metrics));
    ExitCode::SUCCESS
}
