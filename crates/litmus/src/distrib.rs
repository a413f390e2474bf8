//! Running litmus tests on the multi-process distributed oracle
//! ([`ppc_model::distrib`]): job shipping, worker spawning/launch, and
//! the error folding that turns any infrastructure failure into a
//! *truncated* (inconclusive) result instead of a panic or a silent
//! partial pass.
//!
//! Every link is TCP ([`ppc_model::net`]), and workers come to exist
//! in one of two ways ([`DistribConfig::listen`]):
//!
//! - **Self-spawned** (the default): the coordinator binds a loopback
//!   listener on an OS-assigned port and re-executes its own binary N
//!   times with [`TCP_ENV`] set to `SECRET@127.0.0.1:PORT`. The secret
//!   is fresh per run and travels only in the workers' environments,
//!   which only their owner can read. Each worker sends it as its first
//!   blob ([`send_secret`]), and the coordinator closes, uncounted, any
//!   connection whose first blob is not the secret within a short
//!   deadline — so another local user who finds the port can neither
//!   take a shard's job nor return a forged result.
//! - **Listen**: multi-machine. The coordinator binds the given address
//!   and spawns nothing; externally launched workers (`--connect
//!   HOST:PORT`, see [`run_remote_worker`]) dial in with bounded-retry
//!   exponential backoff. These links are not authenticated.
//!
//! Each accepted connection gets a job frame: shard index, shard count,
//! the encoded [`ModelParams`], the litmus source text, and the
//! link-liveness tunables ([`ppc_model::net::NetParams`]). Each worker
//! re-parses and rebuilds the test locally — the canonical codec's
//! digests are rebuild-stable, so independently rebuilt workers agree
//! on frame bytes and shard ownership — and enters
//! [`ppc_model::distrib::run_worker`].
//!
//! Binaries that can be distributed coordinators call
//! [`maybe_run_worker`] first thing in `main`; test binaries expose a
//! `distrib_worker_shim` test and spawn themselves with
//! `["distrib_worker_shim", "--exact"]` as the worker args. Either
//! way, a process with [`TCP_ENV`] set never returns from
//! [`maybe_run_worker`].

use crate::library::LitmusEntry;
use crate::run::{build_system, observations, result_from_outcomes, CheckReport, RunResult};
use crate::test::{Expectation, LitmusTest};
use ppc_bits::{Reader, Writer};
use ppc_model::distrib::{
    self, load_checkpoint, read_blob, write_blob, Checkpoint, CoordinatorConfig, DistribOutcome,
    WorkerEnv,
};
use ppc_model::net::{apply_net, bind_retrying, connect_backoff, NetParams};
use ppc_model::store::create_unique_temp_dir;
use ppc_model::{
    CodecCtx, ExplorationStats, ExploreLimits, Frame, MemoStats, ModelParams, Outcomes,
    SuccMemoStats,
};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variable carrying `SECRET@HOST:PORT` — the run's secret
/// and the coordinator's loopback address — to the workers a
/// coordinator spawns; its presence turns a process into a distributed
/// worker (see [`maybe_run_worker`]).
pub const TCP_ENV: &str = "PPCMEM_DISTRIB_TCP";

/// Override (seconds) for how long the coordinator waits for workers to
/// connect. Mostly useful with [`DistribConfig::listen`], where humans
/// and orchestration scripts are in the loop.
pub const ACCEPT_SECS_ENV: &str = "PPCMEM_DISTRIB_ACCEPT_SECS";

/// How long the coordinator waits for self-spawned workers to connect.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(10);

/// How long the coordinator waits for externally launched workers
/// ([`DistribConfig::listen`]) — machines boot, images pull.
const EXTERNAL_ACCEPT_DEADLINE: Duration = Duration::from_secs(120);

/// First and longest sleep between polls of the non-blocking `accept`
/// (doubling from one to the other). A self-spawned worker connects a
/// few milliseconds after its `exec`, and every verdict pays the poll's
/// overshoot once, so the cap stays under a millisecond.
const ACCEPT_POLL_MIN: Duration = Duration::from_micros(50);
const ACCEPT_POLL_MAX: Duration = Duration::from_micros(800);

/// Read deadline on a worker's socket before the job frame arrives
/// (after it, [`NetParams::peer_timeout`] governs).
const PRE_JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a self-spawned worker's link may take to present the run's
/// secret. A real worker sends it right after connecting, so only a
/// stranger that connects and stays silent ever waits this out.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Configuration for one distributed exploration.
#[derive(Clone, Debug, Default)]
pub struct DistribConfig {
    /// Worker processes (each owns one digest-prefix shard); `0` is
    /// treated as `1`.
    pub workers: usize,
    /// Checkpoint path: resumed from when it exists, written on a
    /// graceful budget/deadline stop *and* attempted on worker death
    /// (via the coordinator's relay journals), deleted on untruncated
    /// completion.
    pub checkpoint: Option<PathBuf>,
    /// Extra argv for the re-executed worker processes (empty for
    /// binaries that call [`maybe_run_worker`] in `main`; test binaries
    /// pass `["distrib_worker_shim", "--exact"]`).
    pub worker_args: Vec<String>,
    /// Extra environment for the workers — fault injection
    /// ([`ppc_model::net::FAULT_ENV`]) goes here, per-command, never via
    /// global `set_var`.
    pub worker_env: Vec<(String, String)>,
    /// `None`: spawn the workers as copies of this binary over loopback.
    /// `Some(addr)`: bind `addr` and wait for `workers` externally
    /// launched workers (`--connect`, see [`run_remote_worker`]) instead
    /// of spawning any.
    pub listen: Option<String>,
    /// Heartbeat period override in milliseconds (else
    /// [`ppc_model::net::HEARTBEAT_ENV`] or the default).
    pub heartbeat_ms: Option<u64>,
    /// Dead-peer timeout override in milliseconds (else
    /// [`ppc_model::net::PEER_TIMEOUT_ENV`] or the default).
    pub peer_timeout_ms: Option<u64>,
}

impl DistribConfig {
    /// The link-liveness parameters this run will use (and ship to its
    /// workers): explicit overrides beat env vars beat defaults.
    #[must_use]
    pub fn net(&self) -> NetParams {
        let base = NetParams::from_env();
        NetParams {
            heartbeat: self
                .heartbeat_ms
                .map_or(base.heartbeat, Duration::from_millis),
            peer_timeout: self
                .peer_timeout_ms
                .map_or(base.peer_timeout, Duration::from_millis),
        }
        .normalised()
    }
}

/// If [`TCP_ENV`] is set, run this process as a distributed worker and
/// **exit** (status 0 after a clean Result handoff, 1 on a
/// transport/parse failure — the coordinator sees the vanished link and
/// degrades gracefully either way). A no-op when the variable is
/// absent.
pub fn maybe_run_worker() {
    let Ok(endpoint) = std::env::var(TCP_ENV) else {
        return;
    };
    let served = match endpoint.split_once('@') {
        Some((secret, addr)) => connect_backoff(addr).and_then(|mut sock| {
            send_secret(&mut sock, secret)?;
            serve_one_job(sock)
        }),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{TCP_ENV} is not SECRET@HOST:PORT"),
        )),
    };
    match served {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("ppcmem distributed worker: {e}");
            std::process::exit(1);
        }
    }
}

/// A long-lived multi-machine worker: connect to `addr` (bounded retry
/// with exponential backoff), serve one exploration, reconnect for the
/// next — a sequential test ladder on the coordinator side reuses the
/// same worker fleet. Returns `Ok` when the coordinator is gone for
/// good (the reconnect budget expires after at least one served job);
/// the first connection failing is an error.
///
/// # Errors
///
/// The initial connection failing its entire backoff budget.
pub fn run_remote_worker(addr: &str) -> io::Result<()> {
    let mut served = 0u64;
    loop {
        let conn = match connect_backoff(addr) {
            Ok(c) => c,
            Err(e) if served > 0 => {
                eprintln!("ppcmem worker: coordinator gone after {served} jobs ({e}); exiting");
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        match serve_one_job(conn) {
            Ok(()) => served += 1,
            Err(e) => {
                // A failed serve (coordinator crashed mid-run, corrupt
                // job) must not strand the fleet for the *next* test:
                // log, breathe, reconnect.
                eprintln!("ppcmem worker: serve failed: {e}");
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
}

/// Receive the job over an established connection, rebuild the test
/// locally, and run the worker loop to completion.
fn serve_one_job(mut sock: TcpStream) -> io::Result<()> {
    // Bound the wait for the job frame; the real liveness deadlines
    // arrive *in* the job frame.
    sock.set_read_timeout(Some(PRE_JOB_TIMEOUT))?;
    let job = read_blob(&mut sock)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut r = Reader::new(&job);
    type Job = (usize, usize, ModelParams, Vec<u8>, NetParams);
    let parse_job = |r: &mut Reader<'_>| -> Result<Job, ppc_bits::DecodeError> {
        let shard = r.usizev()?;
        let n_shards = r.usizev()?;
        let params = distrib::decode_params(r)?;
        let n = r.usizev()?;
        let source = r.bytes(n)?.to_vec();
        let heartbeat_ms = r.u64v()?;
        let peer_timeout_ms = r.u64v()?;
        Ok((
            shard,
            n_shards,
            params,
            source,
            NetParams::from_millis(heartbeat_ms, peer_timeout_ms),
        ))
    };
    let (shard, n_shards, params, source, net) =
        parse_job(&mut r).map_err(|e| bad(&format!("corrupt job frame: {e}")))?;
    let source = String::from_utf8(source).map_err(|_| bad("job source is not UTF-8"))?;
    let test = crate::parse(&source).map_err(|e| bad(&format!("job source: {e}")))?;
    let initial = build_system(&test, &params);
    let (reg_obs, mem_obs) = observations(&test);
    apply_net(&sock, &net)?;
    distrib::run_worker(
        sock,
        &WorkerEnv {
            shard,
            n_shards,
            initial: &initial,
            reg_obs: &reg_obs,
            mem_obs: &mem_obs,
        },
        &net,
    )
}

/// A fresh per-run secret: two SipHash outputs under std's randomly
/// keyed [`RandomState`] (its keys come from the OS's randomness),
/// hex-encoded so it can travel in [`TCP_ENV`].
fn run_secret() -> String {
    (0..2u64)
        .map(|i| {
            let mut h = RandomState::new().build_hasher();
            h.write_u64(i);
            format!("{:016x}", h.finish())
        })
        .collect()
}

/// The worker's half of the self-spawned handshake: present the run's
/// secret as the link's first blob.
///
/// # Errors
///
/// Propagates the write error.
pub fn send_secret(sock: &mut TcpStream, secret: &str) -> io::Result<()> {
    write_blob(sock, secret.as_bytes())
}

/// The coordinator's half: whether the link's first blob, read within
/// [`HANDSHAKE_TIMEOUT`] and no longer than the secret, is the secret.
/// The comparison does not stop at the first differing byte.
pub(crate) fn check_secret(sock: &mut TcpStream, secret: &str) -> bool {
    let first = sock
        .set_nonblocking(false)
        .and_then(|()| sock.set_read_timeout(Some(HANDSHAKE_TIMEOUT)))
        .and_then(|()| ppc_bits::framed::read_blob(sock, secret.len(), |_| false));
    matches!(first, Ok(Some(got)) if got.len() == secret.len()
        && got.iter().zip(secret.bytes()).fold(0, |acc, (a, b)| acc | (a ^ b)) == 0)
}

/// FNV-1a over the job identity (source text + encoded params): the
/// checkpoint fingerprint that stops a resume from silently mixing two
/// different explorations. Liveness tunables are deliberately excluded
/// — a resume may use different timeouts.
pub(crate) fn job_digest(source: &str, params: &ModelParams) -> u64 {
    let mut w = Writer::new();
    w.bytes(source.as_bytes());
    distrib::encode_params(&mut w, params);
    ppc_bits::fnv1a64(&w.into_bytes())
}

/// Spawn/await the workers, ship the job, and coordinate the
/// exploration.
///
/// # Errors
///
/// Infrastructure failures only — socket setup, spawn, worker
/// connection timeout, or a checkpoint that belongs to a different job.
/// Exploration-level failures (worker death, network faults, store
/// errors) do *not* error: they come back as a truncated
/// [`DistribOutcome`].
pub fn explore_distributed(
    source: &str,
    test: &LitmusTest,
    params: &ModelParams,
    limits: &ExploreLimits,
    cfg: &DistribConfig,
) -> io::Result<DistribOutcome> {
    let n = cfg.workers.max(1);
    let digest = job_digest(source, params);
    let net = cfg.net();

    // Resume first: refuse a mismatched checkpoint before any spawn.
    let resume: Option<Checkpoint> = match &cfg.checkpoint {
        Some(path) if path.exists() => {
            let ck = load_checkpoint(path)?;
            if ck.job_digest != digest {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "checkpoint belongs to a different test/params combination",
                ));
            }
            Some(ck)
        }
        _ => None,
    };

    // The per-shard relay journals make a worker-death checkpoint
    // possible; without a checkpoint nothing would read them.
    let journal_dir = match cfg.checkpoint {
        Some(_) => Some(create_unique_temp_dir("ppcmem-distrib")?),
        None => None,
    };
    let cleanup = |children: &mut Vec<Child>| {
        for c in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
        if let Some(dir) = &journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    };

    // Bind the listener: a loopback port guarded by a fresh secret for
    // self-spawned workers, or the given address for a `--connect`
    // fleet.
    let (listener, secret) = match &cfg.listen {
        Some(addr) => (bind_retrying(addr.as_str())?, None),
        None => (bind_retrying("127.0.0.1:0")?, Some(run_secret())),
    };
    listener.set_nonblocking(true)?;

    let mut children: Vec<Child> = Vec::new();
    if let Some(secret) = &secret {
        let endpoint = format!("{secret}@{}", listener.local_addr()?);
        let exe = std::env::current_exe()?;
        for _ in 0..n {
            let mut cmd = Command::new(&exe);
            cmd.args(&cfg.worker_args)
                .env(TCP_ENV, &endpoint)
                .stdin(Stdio::null())
                // Workers re-execute this binary; its normal stdout
                // (test-harness chatter, report tables) would corrupt
                // nothing — the protocol runs on the socket — but it
                // would interleave garbage into the coordinator's own
                // output.
                .stdout(Stdio::null());
            for (k, v) in &cfg.worker_env {
                cmd.env(k, v);
            }
            match cmd.spawn() {
                Ok(c) => children.push(c),
                Err(e) => {
                    cleanup(&mut children);
                    return Err(e);
                }
            }
        }
    }

    // The coordinator's own copy of the system (for the root frame and
    // the codec context) is built here, while the workers are still
    // starting up, not after the last of them has connected.
    let initial = build_system(test, params);
    let ctx = CodecCtx::new(initial.program.clone(), params.clone());

    // Accept exactly n connections, watching (when self-spawned) for
    // workers that die before connecting, and counting a self-spawned
    // fleet's link only once it has presented the secret.
    let accept_deadline = std::env::var(ACCEPT_SECS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_secs)
        .unwrap_or(if children.is_empty() {
            EXTERNAL_ACCEPT_DEADLINE
        } else {
            ACCEPT_DEADLINE
        });
    let mut conns: Vec<TcpStream> = Vec::with_capacity(n);
    let t0 = Instant::now();
    let mut poll = ACCEPT_POLL_MIN;
    let accept_err = loop {
        match listener.accept() {
            Ok((mut s, _)) => {
                if secret.as_ref().is_none_or(|k| check_secret(&mut s, k)) {
                    conns.push(s);
                    if conns.len() == n {
                        break None;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if t0.elapsed() > accept_deadline {
                    break Some(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "distributed workers failed to connect",
                    ));
                }
                if !children.is_empty()
                    && children
                        .iter_mut()
                        .any(|c| c.try_wait().map(|st| st.is_some()).unwrap_or(true))
                {
                    break Some(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "a distributed worker died before connecting",
                    ));
                }
                std::thread::sleep(poll);
                poll = (poll * 2).min(ACCEPT_POLL_MAX);
            }
            Err(e) => break Some(e),
        }
    };
    if let Some(e) = accept_err {
        cleanup(&mut children);
        return Err(e);
    }

    // Ship the job: shard identity + params + source + liveness
    // tunables, then arm the read/write deadlines.
    let mut job_err = None;
    for (shard, conn) in conns.iter_mut().enumerate() {
        let mut ship = || -> io::Result<()> {
            conn.set_nonblocking(false)?;
            apply_net(conn, &net)?;
            let mut w = Writer::new();
            w.usizev(shard);
            w.usizev(n);
            distrib::encode_params(&mut w, params);
            let src = source.as_bytes();
            w.usizev(src.len());
            w.bytes(src);
            w.u64v(net.heartbeat.as_millis() as u64);
            w.u64v(net.peer_timeout.as_millis() as u64);
            write_blob(conn, &w.into_bytes())
        };
        if let Err(e) = ship() {
            job_err = Some(e);
            break;
        }
    }
    if let Some(e) = job_err {
        cleanup(&mut children);
        return Err(e);
    }

    let root = Frame::root(initial);
    let outcome = distrib::coordinate(
        conns,
        children,
        root,
        &ctx,
        CoordinatorConfig {
            limits,
            checkpoint: cfg.checkpoint.as_deref(),
            job_digest: digest,
            resume,
            net,
            journal_dir: journal_dir.clone(),
        },
    );
    if let Some(dir) = &journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(outcome)
}

/// Run a litmus source on the distributed oracle and evaluate its final
/// condition. Infrastructure failures fold into a truncated
/// (inconclusive) [`RunResult`] carrying the error in
/// [`ExplorationStats::store_error`] — callers report them exactly like
/// a budget truncation, never as a verdict.
///
/// # Panics
///
/// Panics if `source` fails to parse (callers ship fixed library or
/// generated sources that already parsed once).
#[must_use]
pub fn run_source_distributed(
    source: &str,
    params: &ModelParams,
    limits: &ExploreLimits,
    cfg: &DistribConfig,
) -> RunResult {
    let test = crate::parse(source).expect("distributed source parses");
    match explore_distributed(source, &test, params, limits, cfg) {
        Ok(out) => RunResult {
            relayed_frames: out.relayed_frames,
            ..result_from_outcomes(&test, &out.outcomes)
        },
        Err(e) => RunResult {
            name: test.name.clone(),
            finals: 0,
            witnessed: false,
            holds: false,
            stats: ExplorationStats {
                truncated: true,
                store_error: Some(format!("distributed setup failed: {e}")),
                ..ExplorationStats::default()
            },
            relayed_frames: 0,
            codec_memo: MemoStats::default(),
            succ_memo: SuccMemoStats::default(),
        },
    }
}

/// [`crate::run_entry_limited`] on the distributed oracle: run a
/// library entry across worker processes and compare against its
/// expectation.
///
/// # Panics
///
/// Panics if the entry's source fails to parse (library sources are
/// fixed).
#[must_use]
pub fn run_entry_distributed(
    entry: &LitmusEntry,
    params: &ModelParams,
    limits: &ExploreLimits,
    cfg: &DistribConfig,
) -> CheckReport {
    let result = run_source_distributed(entry.source, params, limits, cfg);
    let model_allows = result.witnessed;
    let matches = match entry.expect {
        Expectation::Allowed => model_allows,
        Expectation::Forbidden => !model_allows,
    };
    CheckReport {
        result,
        expect: entry.expect,
        matches,
    }
}

/// Raw distributed exploration of a source: the merged [`Outcomes`]
/// (for byte-identical differential comparison against the in-process
/// engines), with infrastructure failures folded to a truncated
/// outcome.
///
/// # Panics
///
/// Panics if `source` fails to parse.
#[must_use]
pub fn outcomes_distributed(
    source: &str,
    params: &ModelParams,
    limits: &ExploreLimits,
    cfg: &DistribConfig,
) -> Outcomes {
    let test = crate::parse(source).expect("distributed source parses");
    match explore_distributed(source, &test, params, limits, cfg) {
        Ok(out) => out.outcomes,
        Err(e) => Outcomes {
            finals: std::collections::BTreeSet::new(),
            stats: ExplorationStats {
                truncated: true,
                store_error: Some(format!("distributed setup failed: {e}")),
                ..ExplorationStats::default()
            },
            codec_memo: MemoStats::default(),
            succ_memo: SuccMemoStats::default(),
        },
    }
}
