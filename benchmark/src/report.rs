//! The metric tables (the single source `BENCHMARK.json` is printed
//! from), the per-pass sample every workload produces, and the result
//! line.

use crate::stats::percentile_sorted;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sweep_seq",
        why: "library30 on the sequential in-memory engine: model.system enumerate/apply/digest and the visited set do the work; codec, store files, sockets and service are bypassed",
    },
    Workload {
        name: "sweep_threads2",
        why: "the same states through the work-stealing engine at threads=2: the only workload where StealPool, shard locks and Arc traffic matter",
    },
    Workload {
        name: "sweep_spill",
        why: "mid8 with max_resident_states=16: about 27k states per pass go through state_codec and segment files and the visited set goes to cold runs",
    },
    Workload {
        name: "sweep_distrib2",
        why: "mid8 through 2 worker processes on Unix sockets: codec frames, envelopes, relay, quiescence probes and a process launch per verdict",
    },
    Workload {
        name: "svc_mixed",
        why: "in-process Oracle with a 120k-record store: 95% cached requests (parse, key, hot/cold probe) beside 5% that explore, put and rebuild the index",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The bound of every metric taken from timed passes, and of the
/// set-up time, which is one measurement a run and so gets the larger
/// one. Each is the next step of 5 % above the widest spread of a round,
/// and shift between two rounds, that the same code showed over seven
/// rounds of ten seeds on a two-core shared host (12.9 % and 11.4 %;
/// README.md, *Repeatability*). 10 % holds on `sweep_seq` and
/// `svc_mixed` only, and a metric has one bound for all workloads.
const PASS_BOUND: f64 = 0.15;
const SETUP_BOUND: f64 = 0.20;

/// An *operation* is one verdict: one `run_job` in a sweep, one
/// request in `svc_mixed`. A *pass* is one run over the suite, or one
/// block of [`crate::svc::PASS_REQUESTS`] requests.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: SETUP_BOUND,
    },
    EndToEnd {
        name: "pass_wall_s",
        unit: "s",
        better: "lower",
        bound: PASS_BOUND,
    },
    EndToEnd {
        name: "verdict_p50_us",
        unit: "us",
        better: "lower",
        bound: PASS_BOUND,
    },
    EndToEnd {
        name: "slowest_verdict_ms",
        unit: "ms",
        better: "lower",
        bound: PASS_BOUND,
    },
    EndToEnd {
        name: "small_tier_ms",
        unit: "ms",
        better: "lower",
        bound: PASS_BOUND,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 52] = [
    layer("litmus.parser.parse_us", "us", "lower"),
    layer("litmus.run.build_system_us", "us", "lower"),
    layer("litmus.harness.build_jobs_ms", "ms", "lower"),
    layer("litmus.harness.run_job_tiny_us", "us", "lower"),
    layer("litmus.harness.mid_tier_s", "s", "lower"),
    layer("litmus.distrib.launch_ms", "ms", "lower"),
    layer("model.system.enumerate_ns", "ns", "lower"),
    layer("model.system.enumerate_calls", "count", "lower"),
    layer("model.system.apply_ns", "ns", "lower"),
    layer("model.system.apply_calls", "count", "lower"),
    layer("model.system.digest_ns", "ns", "lower"),
    layer("model.system.digest_calls", "count", "lower"),
    layer("model.system.replay_states", "count", "lower"),
    layer("model.system.replay_transitions", "count", "lower"),
    layer("model.system.accounted_frac", "frac", "higher"),
    layer("model.oracle.explore_s", "s", "lower"),
    layer("model.oracle.self_s", "s", "lower"),
    layer("model.oracle.states_per_s", "1/s", "higher"),
    layer("model.oracle.threads2_speedup", "x", "higher"),
    layer("model.state_codec.encode_ns", "ns", "lower"),
    layer("model.state_codec.decode_ns", "ns", "lower"),
    layer("model.state_codec.bytes_per_state", "bytes", "lower"),
    layer("model.store.insert_hot_ns", "ns", "lower"),
    layer("model.store.insert_cold_ns", "ns", "lower"),
    layer("model.store.spill_frame_us", "us", "lower"),
    layer("model.store.unspill_frame_us", "us", "lower"),
    layer("model.store.spilled_states", "count", "lower"),
    layer("model.distrib.blob_rt_ns", "ns", "lower"),
    layer("service.query.key_us", "us", "lower"),
    layer("service.store.get_hot_ns", "ns", "lower"),
    layer("service.store.get_cold_ns", "ns", "lower"),
    layer("service.store.put_us", "us", "lower"),
    layer("service.store.put_rebuild_ms", "ms", "lower"),
    layer("service.store.reopen_ms", "ms", "lower"),
    layer("service.proto.query_codec_ns", "ns", "lower"),
    layer("service.proto.frame_rt_ns", "ns", "lower"),
    layer("service.server.rtt_p50_us", "us", "lower"),
    layer("service.oracle.hits", "count", "higher"),
    layer("service.oracle.misses", "count", "lower"),
    layer("service.oracle.explorations", "count", "lower"),
    layer("service.oracle.coalesced", "count", "lower"),
    layer("service.oracle.hit_p50_us", "us", "lower"),
    layer("service.oracle.hit_p90_us", "us", "lower"),
    layer("service.oracle.miss_p50_us", "us", "lower"),
    layer("host.cpu_user_s", "s", "lower"),
    layer("host.cpu_sys_s", "s", "lower"),
    layer("host.peak_rss_kb", "kB", "lower"),
    layer("bench.traced_pass_wall_s", "s", "lower"),
    layer("bench.untraced_pass_wall_s", "s", "lower"),
    layer("bench.trace_overhead_frac", "frac", "lower"),
    layer("bench.replay_wall_s", "s", "lower"),
    layer("bench.probes_wall_s", "s", "lower"),
];

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

/// What one timed pass contributes to the end-to-end metrics.
pub struct Pass {
    pub wall_s: f64,
    pub p50_us: f64,
    pub slowest_ms: f64,
    pub small_tier_ms: f64,
}

impl Pass {
    /// Summarise one pass from its per-operation latencies (ns, any
    /// order) and the summed latency of its small tier.
    pub fn from_latencies(wall_s: f64, latencies_ns: &mut [u64], small_tier_ns: u64) -> Pass {
        latencies_ns.sort_unstable();
        Pass {
            wall_s,
            p50_us: percentile_sorted(latencies_ns, 50.0) as f64 / 1e3,
            slowest_ms: percentile_sorted(latencies_ns, 100.0) as f64 / 1e6,
            small_tier_ms: small_tier_ns as f64 / 1e6,
        }
    }
}

pub type Metrics = Vec<(&'static str, f64)>;

/// The end-to-end metrics of one untraced run. Each per-pass metric is
/// its own best (lowest) value over the run's whole passes, which are
/// all the same work. Interference on a shared host only ever adds
/// time, in bursts of seconds, so the lowest value is the steadiest
/// estimate of what the code costs: over ten seeds of `sweep_spill`,
/// `pass_wall_s` spread 7.8 % as the best pass against 11.4 % as the
/// median pass, and `verdict_p50_us` 6.2 % as its own best against
/// 13.8 % read from the pass with the best wall (README.md has the
/// table).
pub fn end_to_end(setup_s: f64, passes: &[Pass]) -> Metrics {
    let best = |f: fn(&Pass) -> f64| passes.iter().map(f).fold(f64::INFINITY, f64::min);
    vec![
        ("setup_s", setup_s),
        ("pass_wall_s", best(|p| p.wall_s)),
        ("verdict_p50_us", best(|p| p.p50_us)),
        ("slowest_verdict_ms", best(|p| p.slowest_ms)),
        ("small_tier_ms", best(|p| p.small_tier_ms)),
    ]
}

/// Counts operations and failures across a run and says why each
/// failure failed (the first few, on standard error).
#[derive(Default)]
pub struct Gate {
    pub attempted: usize,
    pub failed: usize,
}

impl Gate {
    pub fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("FAILED: {what}");
        }
    }
}

/// The result of one run.
pub struct Outcome {
    pub gate: Gate,
    pub metrics: Metrics,
}

/// The last line of standard output. `table` gives each metric's unit
/// and fixes which metrics must be present.
pub fn result_line(out: &Outcome, table: &[(&'static str, &'static str)]) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = out
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            assert!(value.is_finite(), "metric {name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    assert_eq!(
        body.len(),
        out.metrics.len(),
        "a measured metric is not in the table"
    );
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.gate.failed == 0,
        out.gate.attempted,
        out.gate.failed,
        body.join(", ")
    )
}

pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// `BENCHMARK.json`, printed from the tables above (`--print-manifest`).
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_matches_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with --print-manifest");
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        assert!(manifest().len() < 64 * 1024);
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['"', '\n']),
                "{}",
                w.name
            );
        }
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        // The contract's limit, and its rule that the set-up time, one
        // measurement a run, has the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[test]
    fn pass_summary_uses_nearest_rank() {
        let mut lat: Vec<u64> = (1..=10).map(|i| i * 1_000).collect();
        lat.reverse();
        let p = Pass::from_latencies(1.0, &mut lat, 3_000_000);
        assert_eq!(p.p50_us, 5.0);
        assert_eq!(p.slowest_ms, 0.01);
        assert_eq!(p.small_tier_ms, 3.0);
    }

    #[test]
    fn end_to_end_takes_each_metric_at_its_best_pass() {
        let pass = |wall_s: f64, p50_us: f64| Pass {
            wall_s,
            p50_us,
            slowest_ms: 2.0 * p50_us,
            small_tier_ms: 1.0,
        };
        let m = end_to_end(0.5, &[pass(2.0, 7.0), pass(1.0, 9.0), pass(3.0, 8.0)]);
        let get = |name: &str| m.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("setup_s"), 0.5);
        assert_eq!(get("pass_wall_s"), 1.0);
        assert_eq!(get("verdict_p50_us"), 7.0);
        assert_eq!(get("slowest_verdict_ms"), 14.0);
        assert_eq!(m.len(), END_TO_END.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            gate: Gate {
                attempted: 9,
                failed: 0,
            },
            metrics: vec![("a", 1.5), ("b", 0.25)],
        };
        assert_eq!(
            result_line(&out, &[("a", "s"), ("b", "ms")]),
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
    }
}
