//! The four `sweep_*` workloads: closed loop, one driver thread. A pass
//! runs the suite's tests one after another through `run_job`, in an
//! order shuffled by the seed; the program under test only ever sees
//! the `Job`s.

use crate::report::{Gate, Pass};
use crate::suites::{pass_order, Counts, Suite};
use crate::trace::Tracer;
use ppcmem::bits::Prng;
use ppcmem::litmus::{run_job, HarnessConfig, TestReport};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Seq,
    Threads2,
    Spill,
    Distrib2,
}

/// 64, the CI value, almost never spills the sequential frontier (33
/// states in the whole library); 16 drives ~27k states per `mid8` pass
/// through the codec and segment files and pushes the visited set to
/// cold runs.
const SPILL_RESIDENT: usize = 16;
/// A `sweep_spill` pass that spills fewer states than this is not
/// testing the store.
const MIN_SPILLED_PER_PASS: usize = 20_000;

impl Engine {
    pub fn of(workload: &str) -> Option<Engine> {
        match workload {
            "sweep_seq" => Some(Engine::Seq),
            "sweep_threads2" => Some(Engine::Threads2),
            "sweep_spill" => Some(Engine::Spill),
            "sweep_distrib2" => Some(Engine::Distrib2),
            _ => None,
        }
    }

    pub fn suite(self) -> Suite {
        match self {
            Engine::Seq | Engine::Threads2 => Suite::library30(),
            Engine::Spill | Engine::Distrib2 => Suite::mid8(),
        }
    }

    /// Every configuration runs one test at a time (`jobs = 1`), so all
    /// load comes from one driver thread plus what the engine itself
    /// starts: at most two busy threads or processes.
    pub fn config(self) -> HarnessConfig {
        let mut cfg = HarnessConfig {
            jobs: 1,
            ..HarnessConfig::default()
        };
        match self {
            Engine::Seq => {}
            Engine::Threads2 => cfg.params.threads = 2,
            Engine::Spill => cfg.params.max_resident_states = SPILL_RESIDENT,
            Engine::Distrib2 => cfg.distributed = 2,
        }
        cfg
    }

    /// Untimed passes before the first timed one.
    pub fn warmups(self) -> usize {
        match self {
            Engine::Spill => 2,
            _ => 1,
        }
    }
}

/// The result of one pass over a suite.
pub struct SuitePass {
    pub pass: Pass,
    /// What the engine reported per test, in suite order.
    pub counts: Vec<Counts>,
    pub spilled: usize,
    /// Summed `run_job` wall.
    pub explore_ns: u64,
}

/// One verdict: it must match its library expectation, be
/// conclusive, and report the sequential engine's counts.
fn check_verdict(gate: &mut Gate, engine: Engine, report: &TestReport, expect: &Counts) {
    gate.attempted += 1;
    let got = Counts::of(report);
    // The work-stealing and distributed engines fire the same
    // transitions too, but only states and finals are their contract.
    let counts_ok = got.states == expect.states
        && got.finals == expect.finals
        && (got.transitions == expect.transitions
            || matches!(engine, Engine::Threads2 | Engine::Distrib2));
    if !report.matches || report.truncated || !report.conclusive() || !counts_ok {
        gate.fail(format_args!(
            "{engine:?} {}: {} expected {expect:?}",
            report.name,
            report.to_json()
        ));
    }
}

/// Run one pass. `tracer` records a `verdict:<test>` span per `run_job`.
pub fn run_pass(
    engine: Engine,
    suite: &Suite,
    cfg: &HarnessConfig,
    rng: &mut Prng,
    expect: &[Counts],
    gate: &mut Gate,
    mut tracer: Option<(&mut Tracer, u32)>,
) -> SuitePass {
    let order = pass_order(rng, suite.jobs.len());
    let mut latencies = vec![0u64; suite.jobs.len()];
    let mut counts = suite.expected.clone();
    let mut spilled = 0;
    let t_pass = Instant::now();
    for &i in &order {
        let job = &suite.jobs[i];
        let span = tracer
            .as_mut()
            .map(|(t, parent)| t.open(&format!("verdict:{}", job.name), Some(*parent)));
        let t0 = Instant::now();
        let report = run_job(job, cfg);
        latencies[i] = t0.elapsed().as_nanos() as u64;
        if let (Some((t, _)), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
        check_verdict(gate, engine, &report, &expect[i]);
        counts[i] = Counts::of(&report);
        spilled += report.spilled;
    }
    let wall_s = t_pass.elapsed().as_secs_f64();
    match engine {
        Engine::Spill if spilled < MIN_SPILLED_PER_PASS => gate.fail(format_args!(
            "sweep_spill spilled {spilled} states in a pass, fewer than {MIN_SPILLED_PER_PASS}"
        )),
        Engine::Seq if spilled != 0 => gate.fail(format_args!(
            "sweep_seq spilled {spilled} states; the store must be bypassed"
        )),
        _ => {}
    }
    let small_tier_ns = (0..latencies.len())
        .filter(|&i| suite.is_small(i))
        .map(|i| latencies[i])
        .sum();
    let explore_ns = latencies.iter().sum();
    SuitePass {
        pass: Pass::from_latencies(wall_s, &mut latencies, small_tier_ns),
        counts,
        spilled,
        explore_ns,
    }
}

/// Set-up common to traced and untraced runs: the sequential in-memory
/// reference (checked against the committed counts; on `sweep_seq` it
/// doubles as the first warm-up) and the warm-up passes. Returns the
/// reference counts and the walls of the warm-up passes.
pub fn set_up(
    engine: Engine,
    suite: &Suite,
    warmups: usize,
    rng: &mut Prng,
    gate: &mut Gate,
) -> (Vec<Counts>, Vec<f64>) {
    let reference = run_pass(
        Engine::Seq,
        suite,
        &Engine::Seq.config(),
        rng,
        &suite.expected,
        gate,
        None,
    );
    let mut warm_walls = Vec::new();
    let mut warmups = warmups;
    if engine == Engine::Seq {
        warm_walls.push(reference.pass.wall_s);
        warmups -= 1;
    }
    for _ in 0..warmups {
        let p = run_pass(
            engine,
            suite,
            &engine.config(),
            rng,
            &reference.counts,
            gate,
            None,
        );
        warm_walls.push(p.pass.wall_s);
    }
    (reference.counts, warm_walls)
}
