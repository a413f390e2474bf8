//! Running litmus tests on the multi-process distributed oracle
//! ([`ppc_model::distrib`]): job shipping, worker spawning/launch, and
//! the error folding that turns any infrastructure failure into a
//! *truncated* (inconclusive) result instead of a panic or a silent
//! partial pass.
//!
//! Three launch modes ([`WorkerLaunch`]):
//!
//! - **Unix** (default): the coordinator binds a Unix socket in a fresh
//!   collision-safe temp directory and re-executes its own binary N
//!   times with [`SOCKET_ENV`] pointing at the socket.
//! - **TcpLoopback**: identical lifecycle, but the socket is a loopback
//!   TCP listener on an OS-assigned port and workers get [`TCP_ENV`] —
//!   the wire bytes are the same, which is what the TCP differential
//!   suite pins.
//! - **TcpListen(addr)**: multi-machine. The coordinator binds `addr`
//!   and spawns nothing; externally launched workers (`--connect
//!   HOST:PORT`, see [`run_remote_worker`]) dial in with bounded-retry
//!   exponential backoff.
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
//! way, a process with [`SOCKET_ENV`] or [`TCP_ENV`] set never returns
//! from [`maybe_run_worker`].

use crate::library::LitmusEntry;
use crate::run::{build_system, observations, result_from_outcomes, CheckReport, RunResult};
use crate::test::{Expectation, LitmusTest};
use ppc_bits::{Reader, Writer};
use ppc_model::distrib::{
    self, load_checkpoint, read_blob, write_blob, Checkpoint, CoordinatorConfig, DistribOutcome,
    WorkerEnv,
};
use ppc_model::net::{Conn, Listener, NetParams};
use ppc_model::store::create_unique_temp_dir;
use ppc_model::{
    CodecCtx, ExplorationStats, ExploreLimits, Frame, MemoStats, ModelParams, Outcomes,
    SuccMemoStats,
};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variable carrying the coordinator's Unix socket path;
/// its presence turns a process into a distributed worker (see
/// [`maybe_run_worker`]).
pub const SOCKET_ENV: &str = "PPCMEM_DISTRIB_SOCKET";

/// Environment variable carrying the coordinator's TCP `host:port`;
/// its presence turns a process into a distributed worker connecting
/// over loopback/LAN TCP.
pub const TCP_ENV: &str = "PPCMEM_DISTRIB_TCP";

/// Override (seconds) for how long the coordinator waits for workers to
/// connect. Mostly useful with [`WorkerLaunch::TcpListen`], where
/// humans and orchestration scripts are in the loop.
pub const ACCEPT_SECS_ENV: &str = "PPCMEM_DISTRIB_ACCEPT_SECS";

/// How long the coordinator waits for self-spawned workers to connect.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(10);

/// How long the coordinator waits for externally launched workers
/// ([`WorkerLaunch::TcpListen`]) — machines boot, images pull.
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

/// How worker processes come to exist and connect.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum WorkerLaunch {
    /// Re-exec self over a Unix socket (single machine; PR 8's mode).
    #[default]
    Unix,
    /// Re-exec self over loopback TCP (single machine, TCP wire path —
    /// the differential-testing mode for the multi-machine transport).
    TcpLoopback,
    /// Bind this TCP address and wait for externally launched workers
    /// (`--connect`) instead of spawning any.
    TcpListen(String),
}

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
    /// Transport / launch mode.
    pub launch: WorkerLaunch,
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

/// If [`SOCKET_ENV`] or [`TCP_ENV`] is set, run this process as a
/// distributed worker and **exit** (status 0 after a clean Result
/// handoff, 1 on a transport/parse failure — the coordinator sees the
/// vanished link and degrades gracefully either way). A no-op when
/// neither variable is present.
pub fn maybe_run_worker() {
    let conn = if let Ok(path) = std::env::var(SOCKET_ENV) {
        Conn::connect_unix(std::path::Path::new(&path))
    } else if let Ok(addr) = std::env::var(TCP_ENV) {
        Conn::connect_tcp_backoff(&addr)
    } else {
        return;
    };
    match conn.and_then(serve_one_job) {
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
        let conn = match Conn::connect_tcp_backoff(addr) {
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
fn serve_one_job(mut sock: Conn) -> io::Result<()> {
    // Bound the wait for the job frame; the real liveness deadlines
    // arrive *in* the job frame.
    sock.apply_net(&NetParams {
        heartbeat: PRE_JOB_TIMEOUT,
        peer_timeout: PRE_JOB_TIMEOUT,
    })?;
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
    sock.apply_net(&net)?;
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

    // The temp dir holds the Unix socket (when used) and the per-shard
    // relay journals that make worker-death checkpoints possible.
    let dir = create_unique_temp_dir("ppcmem-distrib")?;
    let cleanup = |children: &mut Vec<Child>| {
        for c in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = std::fs::remove_dir_all(&dir);
    };

    // Bind the listener and decide how workers appear.
    let (listener, worker_endpoint): (Listener, Option<(&str, String)>) = match &cfg.launch {
        WorkerLaunch::Unix => {
            let sock_path = dir.join("coord.sock");
            let l = Listener::bind_unix(&sock_path)?;
            let path = sock_path.to_string_lossy().into_owned();
            (l, Some((SOCKET_ENV, path)))
        }
        WorkerLaunch::TcpLoopback => {
            let l = Listener::bind_tcp("127.0.0.1:0")?;
            let port = l.tcp_port().expect("tcp listener has a port");
            (l, Some((TCP_ENV, format!("127.0.0.1:{port}"))))
        }
        WorkerLaunch::TcpListen(addr) => (Listener::bind_tcp(addr.as_str())?, None),
    };
    listener.set_nonblocking(true)?;

    let mut children: Vec<Child> = Vec::new();
    if let Some((env_key, endpoint)) = &worker_endpoint {
        let exe = std::env::current_exe()?;
        for _ in 0..n {
            let mut cmd = Command::new(&exe);
            cmd.args(&cfg.worker_args)
                .env(env_key, endpoint)
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
    // workers that die before connecting.
    let accept_deadline = std::env::var(ACCEPT_SECS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_secs)
        .unwrap_or(if children.is_empty() {
            EXTERNAL_ACCEPT_DEADLINE
        } else {
            ACCEPT_DEADLINE
        });
    let mut conns: Vec<Conn> = Vec::with_capacity(n);
    let t0 = Instant::now();
    let mut poll = ACCEPT_POLL_MIN;
    let accept_err = loop {
        match listener.accept() {
            Ok(s) => {
                conns.push(s);
                if conns.len() == n {
                    break None;
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
            conn.apply_net(&net)?;
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
            journal_dir: cfg.checkpoint.is_some().then(|| dir.clone()),
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
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
