//! E5 — state-space growth and timing (paper §8: sequential checking
//! takes "minutes", exhaustive concurrent checking "hours"; the
//! combinatorial challenge is intrinsic).
//!
//! Prints, for a ladder of tests of growing size, the number of distinct
//! states, transitions, final states and wall-clock time of exhaustive
//! exploration — on one thread and on a pool of `--threads N` (default
//! 4) depth-first frontiers over one store (`--max-resident N` bounds
//! the in-memory frontier, spilling overflow to disk through the
//! canonical state codec) — cross-checking that both pool sizes produce
//! identical verdicts. `--reduced` turns on the eager-`Finish` reduction
//! (identical finals, about 10× fewer states; its choice reads only the
//! state, so the cross-check still compares finals and state counts);
//! `--context-bound N` caps context switches per execution
//! (an approximation: the engines may legitimately disagree, so the
//! cross-check is skipped and rows are labelled). For contrast it also
//! shows the per-test cost of a sequential run.
//!
//! `--distributed N` swaps the in-process parallel engine for the
//! multi-process distributed oracle (N forked workers, each owning a
//! digest-prefix shard of the visited set; `crates/model/src/distrib/`),
//! cross-checked against the sequential engine under the same rules;
//! each row then ends with the frame records the coordinator relayed
//! (the engine's codec-and-socket traffic, to set against `states`).
//! Under `--max-resident N` the run ends with one `codec memo:` line —
//! the canonical codec's component-memo counters
//! (`ppc_model::MemoStats`), summed over the spill stores of every
//! exploration this process ran. A `--distributed N` column adds
//! nothing to it: its memos live in the worker processes, and nothing
//! about them travels in a message.
//! Every run closes with one `succ memo:` line — the successor memo's
//! hits over fired transitions per footprint class
//! (`ppc_model::SuccMemoStats`), summed over the in-process explorations
//! (distributed columns again add nothing).
//! `--checkpoint PATH` makes each distributed exploration resumable:
//! a budget/deadline pause writes `PATH.<test>`, and a rerun picks up
//! where it stopped (the file is deleted on completion).
//!
//! `--cache DIR` serves the *sequential* (t1) column through the oracle
//! service's content-addressed result store (`crates/service`): a warm
//! run re-serves the stored record instead of re-exploring, and cached
//! rows are marked `*` (their t1 time is the cache-probe time, so the
//! speedup column is not meaningful for them). The cross-check still
//! holds — a cached record was produced under identical model
//! parameters, so its counts must agree with the freshly-run parallel
//! engine.
//!
//! The distributed workers are copies of this binary dialling a
//! loopback port. For a multi-machine run the coordinator takes
//! `--listen ADDR` and spawns nothing, while each worker machine runs
//! `statespace --connect HOST:PORT` — a long-lived worker loop that
//! serves one exploration per connection and reconnects (with
//! bounded-retry backoff) for the next ladder test. Liveness tunables: `PPCMEM_DISTRIB_HEARTBEAT_MS`,
//! `PPCMEM_DISTRIB_PEER_TIMEOUT_MS`, `PPCMEM_DISTRIB_ACCEPT_SECS`.

use bench::args::{arg_value, check_flags, parse_arg, parse_nonzero_arg};
use ppc_litmus::distrib::{run_source_distributed, DistribConfig};
use ppc_litmus::harness::{HarnessConfig, Job};
use ppc_litmus::{library, parse, run_limited};
use ppc_model::{
    resolve_threads, run_sequential, ExploreLimits, MemoStats, ModelParams, SuccMemoStats,
};
use ppc_service::{Budget, Oracle};
use std::time::Instant;

/// Flags taking a value (the next argument is consumed).
const VALUE_FLAGS: &[&str] = &[
    "--threads",
    "--max-resident",
    "--context-bound",
    "--distributed",
    "--checkpoint",
    "--listen",
    "--connect",
    "--cache",
];
/// Boolean flags.
const BOOL_FLAGS: &[&str] = &["--reduced"];

const USAGE: &str = "statespace [--threads N] [--max-resident N] [--context-bound N] \
     [--reduced] [--distributed N] [--checkpoint PATH] [--listen ADDR] \
     [--connect HOST:PORT] [--cache DIR]";

/// The ladder of representative tests, roughly by state-space size.
pub const LADDER: &[&str] = &[
    "CoRR",
    "CoWW",
    "SB",
    "MP",
    "LB",
    "MP+syncs",
    "SB+syncs",
    "MP+sync+addr",
    "MP+sync+ctrl",
    "2+2W",
    "WRC+pos",
    "WRC+sync+addr",
    "PPOCA",
];

fn main() {
    // Under --distributed this binary re-executes itself as the worker
    // processes; a worker never returns from here.
    ppc_litmus::maybe_run_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags("statespace", &args, VALUE_FLAGS, BOOL_FLAGS, USAGE);
    // `--connect` makes this process a multi-machine worker: it serves
    // distributed explorations for a remote coordinator until the
    // coordinator goes away for good, then exits.
    if let Some(addr) = arg_value(&args, "--connect") {
        match ppc_litmus::run_remote_worker(&addr) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("statespace --connect {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    // The default worker count is clamped to the machine (matching
    // `HarnessConfig::inner_threads_for`): 4 time-sliced workers on a
    // 1-CPU host only measure scheduler churn. An explicit --threads is
    // honoured as requested.
    let threads: usize = parse_arg("statespace", &args, "--threads", 4.min(resolve_threads(0)));
    let max_resident: usize = parse_arg("statespace", &args, "--max-resident", 0);
    let context_bound: usize = parse_nonzero_arg("statespace", &args, "--context-bound", 0);
    let distributed: usize = parse_arg("statespace", &args, "--distributed", 0);
    let checkpoint = arg_value(&args, "--checkpoint");
    let cache = arg_value(&args, "--cache");
    let reduced = args.iter().any(|a| a == "--reduced");
    let listen = arg_value(&args, "--listen");
    if listen.is_some() && distributed == 0 {
        eprintln!("statespace: --listen requires --distributed N (the worker count to wait for)");
        std::process::exit(2);
    }

    let params = ModelParams {
        max_resident_states: max_resident,
        reduced,
        max_context_switches: context_bound,
        ..ModelParams::default()
    };
    // With --cache the t1 column is served through the oracle service
    // (threads pinned to 1 so the record matches the sequential run).
    let oracle = cache.as_deref().map(|dir| {
        let cfg = HarnessConfig {
            params: ModelParams {
                threads: 1,
                ..params.clone()
            },
            ..HarnessConfig::default()
        };
        let oracle = Oracle::with_cache(cfg, std::path::Path::new(dir)).unwrap_or_else(|e| {
            eprintln!("statespace: cannot open cache {dir}: {e}");
            std::process::exit(1);
        });
        println!("t1 column served via oracle cache at {dir} (cached rows marked *)");
        oracle
    });
    if distributed != 0 {
        let transport = listen
            .as_deref()
            .map(|addr| format!(" listening on {addr} (external workers)"))
            .unwrap_or_default();
        println!(
            "distributed engine: {distributed} worker processes{transport}, \
             digest-prefix sharded visited set{}",
            checkpoint
                .as_deref()
                .map(|p| format!(", checkpointing to {p}.<test>"))
                .unwrap_or_default()
        );
    }
    println!(
        "parallel engine: {threads}-worker pool{}{}{}",
        if max_resident == 0 {
            String::new()
        } else {
            format!(", {max_resident} resident states (spill-to-disk)")
        },
        if reduced { ", eager Finish" } else { "" },
        if context_bound == 0 {
            String::new()
        } else {
            format!(", context bound {context_bound} (approximate)")
        }
    );
    let rule = "-".repeat(if distributed != 0 { 94 } else { 84 });
    println!(
        "{:<22} {:>9} {:>12} {:>8} {:>9} {:>9} {:>8}{}",
        "test",
        "states",
        "transitions",
        "finals",
        "t1(s)",
        if distributed != 0 {
            format!("d{distributed}(s)")
        } else {
            format!("t{threads}(s)")
        },
        "speedup",
        if distributed != 0 { "   relayed" } else { "" }
    );
    println!("{rule}");
    let mut codec_memo = MemoStats::default();
    let mut succ_memo = SuccMemoStats::default();
    for name in LADDER {
        let Some(e) = library().into_iter().find(|e| e.name == *name) else {
            continue;
        };
        let test = parse(e.source).expect("library parses");
        let seq = ExploreLimits {
            threads: 1,
            ..ExploreLimits::default()
        };
        let par = ExploreLimits {
            threads,
            ..ExploreLimits::default()
        };
        let t0 = Instant::now();
        // (finals, witnessed, states, transitions) for the t1 column —
        // from the oracle service when --cache is set, else a direct
        // sequential run.
        let (s1, was_cached) = if let Some(oracle) = &oracle {
            let out = oracle.query(&Job::from_entry(&e), &Budget::default());
            let r = &out.report;
            (
                (r.finals, r.model_allows, r.states, r.transitions),
                out.cached,
            )
        } else {
            let r1 = run_limited(&test, &params, &seq);
            codec_memo += r1.codec_memo;
            succ_memo += r1.succ_memo;
            (
                (
                    r1.finals,
                    r1.witnessed,
                    r1.stats.states,
                    r1.stats.transitions,
                ),
                false,
            )
        };
        let dt1 = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let rn = if distributed != 0 {
            let dcfg = DistribConfig {
                workers: distributed,
                checkpoint: checkpoint
                    .as_deref()
                    .map(|p| std::path::PathBuf::from(format!("{p}.{name}"))),
                listen: listen.clone(),
                ..DistribConfig::default()
            };
            let r = run_source_distributed(e.source, &params, &par, &dcfg);
            if let Some(err) = &r.stats.store_error {
                eprintln!("{name}: distributed run degraded: {err}");
            }
            r
        } else {
            run_limited(&test, &params, &par)
        };
        let dtn = t0.elapsed().as_secs_f64();
        codec_memo += rn.codec_memo;
        succ_memo += rn.succ_memo;
        if context_bound != 0 {
            // Bounded exploration is order-dependent (which path first
            // reaches a state fixes its switch budget), so the engines
            // may legitimately disagree — no cross-check.
        } else if rn.stats.truncated {
            // A truncated run (budget/deadline pause or a degraded
            // distributed run) legitimately saw a prefix; the row is
            // still printed but cannot be cross-checked.
            eprintln!("{name}: truncated — cross-check skipped");
        } else {
            assert_eq!(
                (s1.0, s1.1, s1.2),
                (rn.finals, rn.witnessed, rn.stats.states),
                "{name}: parallel exploration diverged from sequential"
            );
        }
        println!(
            "{:<22} {:>9} {:>12} {:>8} {:>9.2} {:>9.2} {:>7.2}x{}",
            format!("{name}{}", if was_cached { "*" } else { "" }),
            s1.2,
            s1.3,
            s1.0,
            dt1,
            dtn,
            dt1 / dtn,
            if distributed != 0 {
                format!(" {:>9}", rn.relayed_frames)
            } else {
                String::new()
            }
        );
    }
    println!("{rule}");

    // Sequential contrast: a straight-line program, per-instruction cost.
    let test = parse(
        r"POWER SEQ
{
0:r1=x;
x=0;
}
 P0           ;
 li r5,1      ;
 stw r5,0(r1) ;
 lwz r6,0(r1) ;
 addi r6,r6,1 ;
 stw r6,0(r1) ;
exists (0:r6=2)
",
    )
    .expect("parses");
    let sys = ppc_litmus::build_system(&test, &params);
    let t0 = Instant::now();
    let (_fin, steps) = run_sequential(&sys, 10_000);
    let dt = t0.elapsed().as_secs_f64();
    println!("sequential mode: {steps} transitions in {dt:.4}s");
    println!();
    println!(
        "shape check (paper §8): sequential runs are orders of magnitude \
         cheaper than exhaustive concurrent exploration of the same-size programs"
    );
    if max_resident != 0 {
        println!("codec memo (this process's spill stores): {codec_memo}");
    }
    println!("succ memo (this process's explorations): {succ_memo}");
}
