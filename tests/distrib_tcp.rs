//! Privacy of the self-spawned fleet's loopback-TCP link
//! (`crates/litmus/src/distrib.rs`'s secret handshake).
//!
//! A loopback port accepts any local process, so the coordinator
//! counts a link as a worker only once it has presented the run's
//! per-run secret, read under a short deadline. A stranger that sends a
//! wrong secret, or nothing at all, is closed uncounted: the run must
//! still end untruncated and byte-identical to the sequential engine.
//! Equivalence, fault-injection and checkpoint/resume pinning of the
//! same transport live in `tests/distrib_oracle.rs`.
//!
//! Worker processes are this test binary re-executed with
//! `["distrib_worker_shim", "--exact"]`.

use ppcmem::litmus::distrib::{outcomes_distributed, send_secret, DistribConfig, TCP_ENV};
use ppcmem::litmus::{build_system, library, observations, parse};
use ppcmem::model::net::connect_backoff;
use ppcmem::model::{explore_limited, ExploreLimits, ModelParams};

/// Worker re-exec entry point: in a normal test run the env var is
/// absent and this is an instant pass. In a spawned worker it first
/// opens two strangers' links to the coordinator's loopback port — one
/// presenting a wrong secret through the engine's own handshake, one
/// that connects and says nothing — then runs the shard to completion
/// while holding both open.
#[test]
fn distrib_worker_shim() {
    let Ok(endpoint) = std::env::var(TCP_ENV) else {
        return;
    };
    let (secret, addr) = endpoint
        .split_once('@')
        .expect("a self-spawned worker's endpoint carries the run's secret");
    let mut wrong = connect_backoff(addr).expect("stranger connects");
    send_secret(&mut wrong, &"0".repeat(secret.len())).expect("stranger writes");
    let silent = connect_backoff(addr).expect("stranger connects");
    ppcmem::litmus::maybe_run_worker();
    drop((wrong, silent));
}

/// Every worker process connects a wrong-secret stranger and a silent
/// one before dialling in: both must be closed uncounted — a counted
/// stranger would take a shard's job and never answer — and MP must end
/// untruncated with finals and counts identical to the sequential
/// engine.
#[test]
fn stranger_links_are_refused_and_not_counted() {
    let source = library()
        .into_iter()
        .find(|e| e.name == "MP")
        .expect("MP in library")
        .source;
    let params = ModelParams::default();
    let limits = ExploreLimits::default();
    let test = parse(source).expect("source parses");
    let (reg_obs, mem_obs) = observations(&test);
    let reference = explore_limited(
        &build_system(&test, &params),
        &reg_obs,
        &mem_obs,
        &ExploreLimits {
            threads: 1,
            ..limits.clone()
        },
    );
    let cfg = DistribConfig {
        workers: 2,
        worker_args: vec!["distrib_worker_shim".to_owned(), "--exact".to_owned()],
        ..DistribConfig::default()
    };
    let got = outcomes_distributed(source, &params, &limits, &cfg);
    assert!(
        !got.stats.truncated,
        "MP [strangers first]: truncated ({:?})",
        got.stats.store_error
    );
    assert_eq!(reference.stats.states, got.stats.states);
    assert_eq!(reference.stats.transitions, got.stats.transitions);
    assert_eq!(reference.stats.final_hits, got.stats.final_hits);
    assert!(
        reference.finals == got.finals,
        "MP [strangers first]: final states diverged ({} vs {})",
        reference.finals.len(),
        got.finals.len()
    );
}
