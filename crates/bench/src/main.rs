//! `lion-bench`: regenerates the paper's tables and figures.
//!
//! ```text
//! lion-bench [table1|table2|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13a|fig13b|fig14|figf1|figf2|fige|all] [--full] [--export=runs.jsonl]
//! lion-bench obsgate
//! ```
//!
//! `figf1` is the fault-injection experiment: throughput under a node crash
//! and recovery, Lion vs 2PC/Star/Calvin/Hermes.
//!
//! `figf2` is the failure-domain experiment: LocalityFirst vs RackSafe
//! replica placement under the loss of a whole rack, measuring the
//! throughput cost of anti-affinity against the stalled partitions it
//! prevents.
//!
//! `fige` is the durability experiment: client-visible ack latency vs
//! epoch-commit length for Lion/2PC/Star/Calvin, steady state and under the
//! figf1 crash script — ack-at-commit leaks `acked_then_lost` commits at a
//! crash, epoch group commit holds it at zero.
//!
//! `figsb` is the honest split-brain experiment: quorum fencing vs the
//! crash approximation vs optimistic minority acks under a network
//! cut that both sides survive — availability kept on the minority side
//! against the divergent work the heal must abort and retry.
//!
//! `--full` lengthens the runs (5 s steady-state, 15 s hotspot periods);
//! the default quick scale finishes the whole suite in a few minutes.
//!
//! `obsgate` is the observability-overhead gate: the same job under
//! `ObsMode::Null` and `ObsMode::Full`, failing CI if the full metrics
//! pipeline costs more than 3% in events/sec (`OBS_GATE_TOLERANCE`
//! overrides).
//!
//! `--export=PATH` writes every run the selected experiments performed as
//! JSON Lines — one `RunReport::to_json` object per line — so plots and
//! regression tooling can consume the numbers without scraping the tables.

use lion_bench::figures;
use lion_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let export_path = args
        .iter()
        .find_map(|a| a.strip_prefix("--export="))
        .map(String::from);

    if which == "obsgate" {
        match lion_bench::obsgate::run() {
            Ok(()) => std::process::exit(0),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }

    let out = match which.as_str() {
        "table1" => figures::table1(),
        "table2" => figures::table2(),
        "fig6" => figures::fig6(scale),
        "fig7" => figures::fig7(scale),
        "fig8" => figures::fig8(scale),
        "fig9" => figures::fig9(scale),
        "fig10" => figures::fig10(scale),
        "fig11" => figures::fig11(scale),
        "fig12" => figures::fig12(scale),
        "fig13a" => figures::fig13a(scale),
        "fig13b" => figures::fig13b(scale),
        "fig14" => figures::fig14(scale),
        "figf1" => figures::fig_f1(scale),
        "figf2" => figures::fig_f2(scale),
        "fige" => figures::fig_e(scale),
        "figsb" => figures::fig_sb(scale),
        "all" => figures::all(scale),
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: lion-bench [table1|table2|fig6..fig14|figf1|figf2|fige|figsb|all|obsgate] [--full] [--export=runs.jsonl]"
            );
            std::process::exit(2);
        }
    };
    println!("{out}");

    if let Some(path) = export_path {
        let doc = lion_bench::export::drain_jsonl();
        let runs = doc.lines().count();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write export to {path}: {e}");
            std::process::exit(1);
        }
        println!("exported {runs} runs to {path}");
    }
}
