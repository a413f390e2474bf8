//! The repo's benchmark. One run is one workload:
//!
//! ```text
//! ppcmem-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` runs timed passes with tracing off, checks every verdict
//! and prints every end-to-end metric; `--trace 1` records spans around
//! the calls into each layer and prints every per-layer metric. The
//! last line of standard output is the result as one JSON object. See
//! README.md.

mod host;
mod layers;
mod replay;
mod report;
mod stats;
mod suites;
mod svc;
mod sweep;
mod trace;

use ppcmem::bits::Prng;
use ppcmem::litmus::{run_job, Job};
use ppcmem::model::store::create_unique_temp_dir;
use report::{Gate, Metrics, Outcome, Pass};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use suites::Counts;
use sweep::Engine;
use trace::Tracer;

/// A directory under the run's temp root, removed when dropped — on
/// every exit path, since `main` returns instead of calling `exit`.
pub struct TempDir {
    pub path: PathBuf,
}

impl TempDir {
    pub fn new(prefix: &str) -> TempDir {
        TempDir {
            path: create_unique_temp_dir(prefix).expect("create a temp dir"),
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One warm-up, one timed pass, a small store: a quick local check
    /// that prints the same metric names.
    smoke: bool,
}

const USAGE: &str =
    "usage: ppcmem-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       ppcmem-benchmark --print-manifest | --print-counts
workloads: sweep_seq sweep_threads2 sweep_spill sweep_distrib2 svc_mixed";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !report::WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The benchmark's output directory, `benchmark/out`. Relative when run
/// from the repo root, which keeps the distributed engine's Unix socket
/// paths short however deep the checkout is.
fn out_dir() -> PathBuf {
    let dir = if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(dir.join("tmp")).expect("create benchmark/out/tmp");
    dir
}

/// Run timed passes until `seconds` of pass wall have been measured,
/// and at least three passes: no end-to-end number is a statistic over
/// fewer.
fn timed_passes(args: &Args, mut one_pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let mut passes = Vec::new();
    let mut measured = 0.0;
    loop {
        let pass = one_pass();
        eprintln!(
            "pass: wall_s={} p50_us={} slowest_ms={} small_tier_ms={}",
            pass.wall_s, pass.p50_us, pass.slowest_ms, pass.small_tier_ms
        );
        measured += pass.wall_s;
        passes.push(pass);
        if args.smoke || (passes.len() >= 3 && measured >= args.seconds) {
            return passes;
        }
    }
}

fn warmups(engine: Engine, args: &Args) -> usize {
    if args.smoke {
        1
    } else {
        engine.warmups()
    }
}

fn sweep_untraced(engine: Engine, args: &Args, started: Instant) -> Outcome {
    let suite = engine.suite();
    let mut rng = Prng::seed_from_u64(args.seed);
    let mut gate = Gate::default();
    let (reference, _) = sweep::set_up(engine, &suite, warmups(engine, args), &mut rng, &mut gate);
    let setup_s = started.elapsed().as_secs_f64();
    let cfg = engine.config();
    let passes = timed_passes(args, || {
        sweep::run_pass(engine, &suite, &cfg, &mut rng, &reference, &mut gate, None).pass
    });
    eprintln!(
        "{}: {} timed passes of {} ({} states per pass)",
        args.workload,
        passes.len(),
        suite.name,
        suite.states_per_pass()
    );
    Outcome {
        gate,
        metrics: report::end_to_end(setup_s, &passes),
    }
}

fn svc_sizes(args: &Args) -> (u32, usize) {
    if args.smoke {
        (5_000, 20_000)
    } else {
        (svc::PRELOAD, svc::PASS_REQUESTS)
    }
}

fn svc_untraced(args: &Args, started: Instant) -> Outcome {
    let (preload, pass_requests) = svc_sizes(args);
    let mut service = svc::Service::preloaded(args.seed, preload);
    let mut stream = svc::Stream::new(args.seed, preload);
    let setup_s = started.elapsed().as_secs_f64();
    let (mut hits, mut misses) = (0, u64::from(preload));
    let mut splits = Vec::new();
    let passes = timed_passes(args, || {
        let (pass, split) = service.pass(&mut stream, pass_requests);
        hits += split.hits;
        misses += split.misses;
        splits.push(split);
        pass
    });
    service.check_stats(hits, misses);
    let med = |f: fn(&svc::Split) -> f64| stats::median(&splits.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "svc_mixed: {} timed passes of {pass_requests} requests, {hits} hits; hit p50 {:.2} us, hit p90 {:.2} us, miss p50 {:.2} us",
        passes.len(),
        med(|s| s.hit_p50_us),
        med(|s| s.hit_p90_us),
        med(|s| s.miss_p50_us),
    );
    Outcome {
        gate: service.gate,
        metrics: report::end_to_end(setup_s, &passes),
    }
}

/// The traced pass of any workload, beside the same pass untraced.
struct TracedPass {
    wall_s: f64,
    /// Median wall of the same pass run untraced, in this process.
    untraced_wall_s: f64,
    /// CPU seconds (user, system) at the start and end of the pass.
    cpu: [(f64, f64); 2],
}

impl TracedPass {
    fn metrics(&self) -> Metrics {
        let [cpu0, cpu1] = self.cpu;
        vec![
            ("host.cpu_user_s", cpu1.0 - cpu0.0),
            ("host.cpu_sys_s", cpu1.1 - cpu0.1),
            ("host.peak_rss_kb", host::peak_rss_kb()),
            ("bench.traced_pass_wall_s", self.wall_s),
            ("bench.untraced_pass_wall_s", self.untraced_wall_s),
            (
                "bench.trace_overhead_frac",
                self.wall_s / self.untraced_wall_s - 1.0,
            ),
        ]
    }
}

fn sweep_traced(engine: Engine, args: &Args, tracer: &mut Tracer, root: u32) -> Outcome {
    let suite = engine.suite();
    let mut rng = Prng::seed_from_u64(args.seed);
    let mut gate = Gate::default();
    let (reference, warm_walls) =
        sweep::set_up(engine, &suite, warmups(engine, args), &mut rng, &mut gate);

    let span = tracer.open("pass:traced", Some(root));
    let cpu0 = host::cpu_s();
    let traced = sweep::run_pass(
        engine,
        &suite,
        &engine.config(),
        &mut rng,
        &reference,
        &mut gate,
        Some((tracer, span)),
    );
    let cpu1 = host::cpu_s();
    tracer.close(span);
    let pass = TracedPass {
        wall_s: traced.pass.wall_s,
        untraced_wall_s: stats::median(&warm_walls),
        cpu: [cpu0, cpu1],
    };
    let explore_s = traced.explore_ns as f64 / 1e9;
    let mut m = pass.metrics();
    m.extend([
        ("model.oracle.explore_s", explore_s),
        (
            "model.oracle.states_per_s",
            suite.states_per_pass() as f64 / pass.wall_s,
        ),
        ("model.store.spilled_states", traced.spilled as f64),
    ]);
    // The replay visits every test once, as the pass did.
    let replayed = layers::replay_suite(&suite.jobs, &reference, tracer, root, &mut gate, &mut m);
    let system_s = replayed.system_ns() as f64 / 1e9;
    m.push(("model.system.accounted_frac", system_s / explore_s));
    m.push(("model.oracle.self_s", explore_s - system_s));

    let t0 = Instant::now();
    let span = tracer.open("probes", Some(root));
    match engine {
        Engine::Seq => {}
        Engine::Threads2 => m.push((
            "model.oracle.threads2_speedup",
            layers::threads2_speedup(&suite.jobs, &mut gate),
        )),
        Engine::Spill => m.push(("litmus.harness.mid_tier_s", layers::mid_tier_s(&suite.jobs))),
        Engine::Distrib2 => {
            m.push(("litmus.harness.mid_tier_s", layers::mid_tier_s(&suite.jobs)));
            layers::distrib_probes(&suite.jobs[0], &mut gate, &mut m);
        }
    }
    tracer.close(span);
    m.push(("bench.probes_wall_s", t0.elapsed().as_secs_f64()));
    Outcome { gate, metrics: m }
}

fn svc_traced(args: &Args, tracer: &mut Tracer, root: u32) -> Outcome {
    let (preload, pass_requests) = svc_sizes(args);
    let mut service = svc::Service::preloaded(args.seed, preload);
    let mut stream = svc::Stream::new(args.seed, preload);
    let (untraced, warm) = service.pass(&mut stream, pass_requests);

    let span = tracer.open("pass:traced", Some(root));
    let cpu0 = host::cpu_s();
    let (traced, split) = service.pass(&mut stream, pass_requests);
    let cpu1 = host::cpu_s();
    tracer.close(span);
    svc::trace_split(tracer, span, &split);
    service.check_stats(
        warm.hits + split.hits,
        u64::from(preload) + warm.misses + split.misses,
    );
    let pass = TracedPass {
        wall_s: traced.wall_s,
        untraced_wall_s: untraced.wall_s,
        cpu: [cpu0, cpu1],
    };
    let mut m = pass.metrics();

    let t0 = Instant::now();
    let span = tracer.open("probes", Some(root));
    layers::service_probes(&mut service, preload, &split, &mut m);
    tracer.close(span);
    m.push(("bench.probes_wall_s", t0.elapsed().as_secs_f64()));
    Outcome {
        gate: service.gate,
        metrics: m,
    }
}

/// Run every library test once on the sequential engine and print the
/// counts in the format of `expected_counts.json`.
fn print_counts() {
    let cfg = Engine::Seq.config();
    let rows: Vec<(String, Counts)> = ppcmem::litmus::library()
        .iter()
        .map(|e| {
            let r = run_job(&Job::from_entry(e), &cfg);
            (r.name.clone(), Counts::of(&r))
        })
        .collect();
    print!("{}", suites::render_counts(&rows));
}

fn run(args: &Args, started: Instant) -> Outcome {
    let out = out_dir();
    // Spill, distributed and result-store directories all come from
    // `create_unique_temp_dir`; keep them inside the checkout. Set before
    // any thread starts; worker processes inherit it.
    std::env::set_var("TMPDIR", out.join("tmp"));
    let engine = Engine::of(&args.workload);
    if !args.trace {
        return match engine {
            Some(engine) => sweep_untraced(engine, args, started),
            None => svc_untraced(args, started),
        };
    }
    let mut tracer = Tracer::new();
    let root = tracer.open(&format!("workload:{}", args.workload), None);
    let outcome = match engine {
        Some(engine) => sweep_traced(engine, args, &mut tracer, root),
        None => svc_traced(args, &mut tracer, root),
    };
    tracer.close(root);
    let path = out.join(format!("trace.{}.jsonl", args.workload));
    tracer.write_jsonl(&path).expect("write the trace");
    eprintln!(
        "{}: trace in {}; root self time {:.3} s of {:.3} s",
        args.workload,
        path.display(),
        tracer.self_ns(root) as f64 / 1e9,
        tracer.duration_ns(root) as f64 / 1e9
    );
    outcome
}

fn main() -> ExitCode {
    // `cfg.distributed` re-executes this binary as its workers.
    ppcmem::litmus::maybe_run_worker();
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--print-manifest") => {
            print!("{}", report::manifest());
            return ExitCode::SUCCESS;
        }
        Some("--print-counts") => {
            print_counts();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&args, started);
    let table = if args.trace {
        // The driver's contract wants every per-layer name from every
        // traced run. A probe that is not on the workload's path (the
        // "on" column of the README's table) is not run and reads 0.
        for m in &report::PER_LAYER {
            if !outcome.metrics.iter().any(|(name, _)| *name == m.name) {
                outcome.metrics.push((m.name, 0.0));
            }
        }
        report::per_layer_table()
    } else {
        report::end_to_end_table()
    };
    for (name, value) in &outcome.metrics {
        eprintln!("{name:40} {value}");
    }
    println!("{}", report::result_line(&outcome, &table));
    if outcome.gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
