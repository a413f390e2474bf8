//! Equivalence ladder and fuzz rounds pinning the disk-spilling
//! exploration store against the in-memory one.
//!
//! Spilling is a memory strategy, never a semantics: with a tiny
//! `ModelParams::max_resident_states` forcing frontier segments and
//! visited-set runs onto disk even for small tests, both engines
//! (one depth-first frontier, and a pool of them) must reproduce
//! the in-memory exploration **byte for byte** — identical
//! `Outcomes::finals` sets, identical visited-state / transition /
//! final-hit counts. The ladder covers the barrier/dependency test
//! families; the fuzz rounds draw random programs from the shared
//! generator (`tests/common`) with spilling randomly enabled on one of
//! the two compared configurations.
//!
//! Environment knobs: `SPILL_FUZZ_PROGRAMS` (default 40),
//! `SPILL_FUZZ_SEED`, `SPILL_FUZZ_BUDGET` (as in `oracle_fuzz`).

mod common;

use common::{env_u64, gen_program};
use ppcmem::bits::Prng;
use ppcmem::idl::Reg;
use ppcmem::litmus::{build_system, library, parse, LitmusTest};
use ppcmem::model::{explore_limited, ExploreLimits, ModelParams, Outcomes};

/// Representative small/medium library tests (the spill thresholds below
/// force disk traffic even on the smallest).
const LADDER: &[&str] = &[
    "CoRR", "SB", "MP", "LB+addrs", "MP+syncs", "2+2W", "WRC+pos", "PPOCA",
];

/// Register observations: `(thread, register)` pairs.
type RegObs = Vec<(usize, Reg)>;
/// Memory observations: `(address, size)` pairs.
type MemObs = Vec<(u64, usize)>;

/// The observation footprint of a parsed test: every register in the
/// final condition, every declared location.
fn observations(test: &LitmusTest) -> (RegObs, MemObs) {
    let mut reg_atoms = Vec::new();
    test.cond.expr.reg_atoms(&mut reg_atoms);
    reg_atoms.sort_unstable();
    reg_atoms.dedup();
    let reg_obs = reg_atoms
        .into_iter()
        .map(|(t, g)| (t, Reg::Gpr(g)))
        .collect();
    let mem_obs = test.locations.values().map(|&a| (a, 4)).collect();
    (reg_obs, mem_obs)
}

fn explore_with(
    test: &LitmusTest,
    reg_obs: &[(usize, Reg)],
    mem_obs: &[(u64, usize)],
    threads: usize,
    max_resident: usize,
    max_states: usize,
) -> Outcomes {
    let params = ModelParams {
        threads,
        max_resident_states: max_resident,
        ..ModelParams::default()
    };
    let state = build_system(test, &params);
    explore_limited(
        &state,
        reg_obs,
        mem_obs,
        &ExploreLimits {
            threads,
            max_states,
            deadline: None,
        },
    )
}

/// Assert two explorations are observably identical: byte-identical
/// final-state sets and identical statistics.
fn assert_equivalent(name: &str, mode: &str, reference: &Outcomes, got: &Outcomes) {
    assert!(!got.stats.truncated, "{name} [{mode}]: truncated");
    assert_eq!(
        reference.stats.states, got.stats.states,
        "{name} [{mode}]: visited-state count diverged"
    );
    assert_eq!(
        reference.stats.transitions, got.stats.transitions,
        "{name} [{mode}]: transition count diverged"
    );
    assert_eq!(
        reference.stats.final_hits, got.stats.final_hits,
        "{name} [{mode}]: final-hit count diverged"
    );
    assert!(
        reference.finals == got.finals,
        "{name} [{mode}]: final states diverged ({} vs {})",
        reference.finals.len(),
        got.finals.len()
    );
}

/// The ladder: every test explored in-memory (the reference), then with
/// spilling forced by tiny resident budgets, on one worker and on a
/// pool of them.
#[test]
fn spill_mode_matches_in_memory_on_ladder() {
    // Disk traffic across all parallel spill runs of the ladder; the
    // parallel frontier trajectory is schedule-dependent, so engagement
    // is asserted in aggregate rather than per test.
    let mut par_spilled_total = 0usize;
    for name in LADDER {
        let entry = library()
            .into_iter()
            .find(|e| e.name == *name)
            .unwrap_or_else(|| panic!("{name} in library"));
        let test = parse(entry.source).expect("library parses");
        let (reg_obs, mem_obs) = observations(&test);
        let budget = ModelParams::DEFAULT_MAX_STATES;

        let reference = explore_with(&test, &reg_obs, &mem_obs, 1, 0, budget);
        assert!(!reference.stats.truncated, "{name}: reference truncated");

        // Sequential + spill at two thresholds (64 = a few segments;
        // 7 = pathological thrashing, maximal disk traffic).
        for max_resident in [64, 7] {
            let spilled = explore_with(&test, &reg_obs, &mem_obs, 1, max_resident, budget);
            assert_equivalent(
                name,
                &format!("seq, resident {max_resident}"),
                &reference,
                &spilled,
            );
            assert!(
                spilled.stats.resident_peak <= 2 * max_resident.max(16) + 64,
                "{name}: resident peak {} far exceeds budget {max_resident}",
                spilled.stats.resident_peak
            );
            // The point of the tiny budgets is to *engage* the spill
            // path — otherwise the equivalence ladder is vacuous. The
            // sequential engine is deterministic: its frontier follows
            // the in-memory trajectory until the first budget crossing,
            // so it must spill exactly when the unbudgeted run's
            // resident peak exceeds the budget. (DFS frontiers are much
            // smaller than state spaces — these tests peak at ~10–60
            // resident states — which is why the 7-state budget leg
            // exists.)
            if reference.stats.resident_peak > max_resident {
                assert!(
                    spilled.stats.spilled_states > 0,
                    "{name}: in-memory frontier peaks at {} under a \
                     {max_resident}-state budget, yet nothing spilled — \
                     the spill path did not engage",
                    reference.stats.resident_peak
                );
            }
        }
        // A multi-worker pool + spill, at the CI sweep's threshold and at
        // a thrashing one.
        for threads in [2, 4] {
            for max_resident in [64, 7] {
                let spilled =
                    explore_with(&test, &reg_obs, &mem_obs, threads, max_resident, budget);
                assert_equivalent(
                    name,
                    &format!("{threads} workers, resident {max_resident}"),
                    &reference,
                    &spilled,
                );
                par_spilled_total += spilled.stats.spilled_states;
            }
        }
        // And unlimited parallel, as a sanity anchor for the two knobs
        // composing.
        let par = explore_with(&test, &reg_obs, &mem_obs, 4, 0, budget);
        assert_equivalent(name, "4 workers, in-memory", &reference, &par);
    }
    assert!(
        par_spilled_total > 0,
        "no parallel ladder run spilled a single state — the parallel \
         spill path did not engage anywhere"
    );
}

/// Randomized rounds: generated programs compared between an in-memory
/// sequential reference and a configuration with spilling randomly
/// enabled (random tiny budget, random engine).
#[test]
fn spill_fuzz_matches_in_memory() {
    let programs = env_u64("SPILL_FUZZ_PROGRAMS", 40) as usize;
    let base = env_u64("SPILL_FUZZ_SEED", 0x5011_1DEA_D000_0000);
    let budget = env_u64("SPILL_FUZZ_BUDGET", 10_000) as usize;

    let mut checked = 0usize;
    let mut skipped = 0usize;
    for i in 0..programs {
        let seed = base.wrapping_add(i as u64);
        let prog = gen_program(seed);
        let test = parse(&prog.source).unwrap_or_else(|e| {
            panic!("spill fuzz seed {seed:#018x}: generated source failed to parse: {e}")
        });
        let mem_obs: Vec<(u64, usize)> = test.locations.values().map(|&a| (a, 4)).collect();

        let mut cfg_rng = Prng::seed_from_u64(seed ^ 0x5011_1CF6_A55A_0001);
        let reference = explore_with(&test, &prog.reg_obs, &mem_obs, 1, 0, budget);
        if reference.stats.truncated {
            skipped += 1;
            continue;
        }
        let threads: usize = [1, 2, 4][cfg_rng.gen_range(0..3usize)];
        let max_resident: usize = [7, 16, 64, 256][cfg_rng.gen_range(0..4usize)];
        let spilled = explore_with(
            &test,
            &prog.reg_obs,
            &mem_obs,
            threads,
            max_resident,
            budget,
        );
        let mode = format!(
            "seed {seed:#018x}, {threads} workers, resident {max_resident}\n\
             replay: SPILL_FUZZ_SEED={seed:#x} SPILL_FUZZ_PROGRAMS=1 \
             cargo test --release --test spill_oracle\n{}",
            prog.source
        );
        assert_equivalent("spill-fuzz", &mode, &reference, &spilled);
        checked += 1;
    }
    println!("spill fuzz: {checked} programs checked, {skipped} skipped (base seed {base:#x})");
    // The generator's RMW pairs make some programs blow the budget; a
    // quarter of the sweep surviving still gives real differential
    // coverage, while a collapse below that means the generator and the
    // budget have drifted apart. (The floor is deliberately looser than
    // `oracle_fuzz`'s: small `SPILL_FUZZ_PROGRAMS` soaks hit noisy
    // skip-rate samples.)
    assert!(
        checked >= programs.div_ceil(4),
        "only {checked}/{programs} spill-fuzz programs fit the {budget}-state budget"
    );
}
