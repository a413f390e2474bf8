//! Link plumbing for distributed exploration and the oracle service:
//! every link is a std [`TcpStream`] — loopback for self-spawned
//! workers, LAN for `--connect` fleets and `oracled` clients — and this
//! module holds the robustness knobs each one gets: connect retry with
//! exponential backoff ([`connect_backoff`]), a bind that rides out
//! `TIME_WAIT` ([`bind_retrying`]), per-socket read/write deadlines
//! with `TCP_NODELAY` ([`apply_net`]), heartbeat pacing, and the
//! deterministic network-fault injection used by the degradation tests.
//!
//! Everything here is plumbing, not protocol ([`crate::distrib`] owns
//! the wire format). The read deadline doubles as the dead-peer
//! detector: a healthy peer sends *something* (work traffic or a
//! heartbeat) at least every [`NetParams::heartbeat`], so a read that
//! sits silent for [`NetParams::peer_timeout`] means the peer is gone
//! or hung — which, unlike an EOF, a crashed-but-connected or frozen
//! peer never turns into an error on its own.

use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Heartbeat period override, in milliseconds
/// (see [`NetParams::from_env`]).
pub const HEARTBEAT_ENV: &str = "PPCMEM_DISTRIB_HEARTBEAT_MS";
/// Dead-peer timeout override, in milliseconds
/// (see [`NetParams::from_env`]).
pub const PEER_TIMEOUT_ENV: &str = "PPCMEM_DISTRIB_PEER_TIMEOUT_MS";

/// Default heartbeat period: each side sends a heartbeat when it has
/// written nothing else for this long.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(500);
/// Default dead-peer timeout: a link silent for this long is declared
/// dead. Generous relative to the heartbeat so a GC-less Rust process
/// only trips it when genuinely hung or partitioned.
pub const DEFAULT_PEER_TIMEOUT: Duration = Duration::from_secs(10);

/// Bounded-retry connect parameters: attempts, initial backoff, cap.
/// Total worst-case wait ≈ 50+100+...+2000*k ≈ 8 s.
const CONNECT_ATTEMPTS: u32 = 10;
const CONNECT_BACKOFF_BASE: Duration = Duration::from_millis(50);
const CONNECT_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Link-liveness tunables, shipped to workers in the job frame so both
/// ends of every connection agree on the pacing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetParams {
    /// Send a heartbeat after this much write silence.
    pub heartbeat: Duration,
    /// Declare the peer dead after this much read silence.
    pub peer_timeout: Duration,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            heartbeat: DEFAULT_HEARTBEAT,
            peer_timeout: DEFAULT_PEER_TIMEOUT,
        }
    }
}

impl NetParams {
    /// Defaults overridden by [`HEARTBEAT_ENV`] / [`PEER_TIMEOUT_ENV`]
    /// (milliseconds). The peer timeout is clamped to at least twice
    /// the heartbeat period — a timeout that fires between two healthy
    /// heartbeats would declare live peers dead.
    #[must_use]
    pub fn from_env() -> Self {
        let ms = |key: &str| -> Option<u64> { std::env::var(key).ok()?.parse().ok() };
        let base = NetParams::default();
        NetParams {
            heartbeat: ms(HEARTBEAT_ENV).map_or(base.heartbeat, Duration::from_millis),
            peer_timeout: ms(PEER_TIMEOUT_ENV).map_or(base.peer_timeout, Duration::from_millis),
        }
        .normalised()
    }

    /// Construct from raw millisecond values (the job-frame encoding).
    #[must_use]
    pub fn from_millis(heartbeat_ms: u64, peer_timeout_ms: u64) -> Self {
        NetParams {
            heartbeat: Duration::from_millis(heartbeat_ms.max(1)),
            peer_timeout: Duration::from_millis(peer_timeout_ms.max(1)),
        }
        .normalised()
    }

    /// Enforce `peer_timeout >= 2 * heartbeat`.
    #[must_use]
    pub fn normalised(self) -> Self {
        NetParams {
            heartbeat: self.heartbeat.max(Duration::from_millis(1)),
            peer_timeout: self.peer_timeout.max(self.heartbeat * 2),
        }
    }
}

/// Connect to `addr` with bounded retry and exponential backoff — a
/// worker may legitimately start before the coordinator binds its port
/// (multi-machine launch order is not controlled), and a client before
/// its server. The stream has `TCP_NODELAY` set.
///
/// # Errors
///
/// The last connect error once the attempts are exhausted.
pub fn connect_backoff(addr: &str) -> io::Result<TcpStream> {
    let mut delay = CONNECT_BACKOFF_BASE;
    let mut last = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay = (delay * 2).min(CONNECT_BACKOFF_CAP);
        }
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::ConnectionRefused, "no connect attempts made")
    }))
}

/// Bind `addr`, retrying briefly on `EADDRINUSE`: back-to-back runs (a
/// sequential test ladder) reuse the same explicit port while the
/// previous socket lingers in `TIME_WAIT`, and std exposes no
/// `SO_REUSEADDR`.
///
/// # Errors
///
/// Any bind error other than `EADDRINUSE`, or `EADDRINUSE` once the
/// retries are exhausted.
pub fn bind_retrying(addr: impl ToSocketAddrs + Copy) -> io::Result<TcpListener> {
    let mut last = None;
    for attempt in 0..40 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(250));
        }
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retried only on AddrInUse"))
}

/// Arm a link's liveness deadlines: reads fail after
/// [`NetParams::peer_timeout`] of silence (dead-peer detection), writes
/// fail after the same bound (a peer that stops draining has
/// effectively hung). Also sets `TCP_NODELAY`: the protocols are
/// request/reply-ish and latency-bound, not throughput-bound.
///
/// # Errors
///
/// Propagates the socket-option errors.
pub fn apply_net(s: &TcpStream, net: &NetParams) -> io::Result<()> {
    let t = Some(net.peer_timeout);
    s.set_nodelay(true)?;
    s.set_read_timeout(t)?;
    s.set_write_timeout(t)
}

/// Two connected ends of one loopback link, for tests that drive a
/// protocol by hand.
#[cfg(test)]
pub(crate) fn loopback_pair() -> io::Result<(TcpStream, TcpStream)> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    let ours = TcpStream::connect(l.local_addr()?)?;
    let (theirs, _) = l.accept()?;
    Ok((ours, theirs))
}

/// `true` for the error kinds a timed-out socket read surfaces — the
/// dead-peer signal, as opposed to EOF or reset.
pub use ppc_bits::framed::is_timeout;

// ---- deterministic network-fault injection -----------------------------

/// Fault-injection env var: a fault spec applied by shard 0's worker
/// (see [`FaultPlan`] for the grammar). Tests only; unset in
/// production.
pub const FAULT_ENV: &str = "PPCMEM_DISTRIB_FAULT";

/// One injected fault. Counters are 1-based over the worker's outgoing
/// messages of the relevant kind (expansions, for [`FaultKind::Die`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `drop-route:N` — silently discard the Nth Route (the frame's
    /// sequence number is still consumed, so the receiver detects the
    /// gap on the next message).
    DropRoute(u64),
    /// `delay-route:N:MS` — sleep before sending the Nth Route.
    DelayRoute(u64, Duration),
    /// `truncate-route:N` — write a partial frame for the Nth Route,
    /// then abort the process (a crash mid-write).
    TruncateRoute(u64),
    /// `delay-probe:N:MS` — sleep before the Nth ProbeReply (stale-idle
    /// latency robustness).
    DelayProbe(u64, Duration),
    /// `mute:N` — after N outgoing messages, swallow *every* write
    /// (heartbeats included) while staying alive and reading: a hung
    /// peer only the dead-peer timeout can catch.
    Mute(u64),
    /// `die:N` — abort the process at its Nth expansion, the way a
    /// SIGKILL or OOM kill would: no unwind, no Result message.
    Die(u64),
}

/// What the send funnel should do with the current outgoing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Send normally.
    Pass,
    /// Discard (consume the sequence number, write nothing).
    Drop,
    /// Sleep this long, then send normally.
    Delay(Duration),
    /// Write a partial frame and abort the process.
    Truncate,
    /// Swallow silently (do not consume a sequence number; the peer
    /// sees pure silence).
    Mute,
}

/// The kind of outgoing message, for fault matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendKind {
    Route,
    ProbeReply,
    Other,
}

/// A parsed fault spec plus its counters.
#[derive(Debug)]
pub struct FaultPlan {
    kind: FaultKind,
    routes: u64,
    probes: u64,
    messages: u64,
    muted: bool,
}

impl FaultPlan {
    /// Parse a spec string (the [`FAULT_ENV`] grammar). Returns `None`
    /// on an empty spec; panics on a malformed one — a fault test with
    /// a typo must fail loudly, not silently pass faultless.
    ///
    /// # Panics
    ///
    /// Panics when `spec` is non-empty but malformed.
    #[must_use]
    pub fn parse(spec: &str) -> Option<FaultPlan> {
        if spec.is_empty() {
            return None;
        }
        let parts: Vec<&str> = spec.split(':').collect();
        let n = |s: &str| -> u64 {
            s.parse()
                .unwrap_or_else(|_| panic!("bad fault count in {FAULT_ENV}: {spec}"))
        };
        let ms = |s: &str| Duration::from_millis(n(s));
        let kind = match (parts.as_slice(), parts.first().copied()) {
            ([_, k], Some("drop-route")) => FaultKind::DropRoute(n(k)),
            ([_, k, d], Some("delay-route")) => FaultKind::DelayRoute(n(k), ms(d)),
            ([_, k], Some("truncate-route")) => FaultKind::TruncateRoute(n(k)),
            ([_, k, d], Some("delay-probe")) => FaultKind::DelayProbe(n(k), ms(d)),
            ([_, k], Some("mute")) => FaultKind::Mute(n(k)),
            ([_, k], Some("die")) => FaultKind::Die(n(k)),
            _ => panic!("unknown fault spec in {FAULT_ENV}: {spec}"),
        };
        Some(FaultPlan {
            kind,
            routes: 0,
            probes: 0,
            messages: 0,
            muted: false,
        })
    }

    /// Read [`FAULT_ENV`]; the plan applies to shard 0 only.
    #[must_use]
    pub fn from_env(shard: usize) -> Option<FaultPlan> {
        let spec = std::env::var(FAULT_ENV).ok()?;
        (shard == 0).then(|| FaultPlan::parse(&spec))?
    }

    /// Whether a [`FaultKind::Die`] plan kills the worker now that it
    /// has expanded `expanded` states.
    #[must_use]
    pub fn dies_at(&self, expanded: u64) -> bool {
        matches!(self.kind, FaultKind::Die(n) if expanded >= n)
    }

    /// Account one outgoing message and decide its fate.
    pub fn action(&mut self, kind: SendKind) -> FaultAction {
        if self.muted {
            return FaultAction::Mute;
        }
        self.messages += 1;
        if let FaultKind::Mute(after) = self.kind {
            if self.messages > after {
                self.muted = true;
                return FaultAction::Mute;
            }
        }
        match (kind, self.kind) {
            (SendKind::Route, k) => {
                self.routes += 1;
                match k {
                    FaultKind::DropRoute(n) if self.routes == n => FaultAction::Drop,
                    FaultKind::DelayRoute(n, d) if self.routes == n => FaultAction::Delay(d),
                    FaultKind::TruncateRoute(n) if self.routes == n => FaultAction::Truncate,
                    _ => FaultAction::Pass,
                }
            }
            (SendKind::ProbeReply, FaultKind::DelayProbe(n, d)) => {
                self.probes += 1;
                if self.probes == n {
                    FaultAction::Delay(d)
                } else {
                    FaultAction::Pass
                }
            }
            (SendKind::ProbeReply, _) => {
                self.probes += 1;
                FaultAction::Pass
            }
            (SendKind::Other, _) => FaultAction::Pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_params_normalise_and_clamp() {
        let p = NetParams::from_millis(500, 100);
        assert_eq!(p.heartbeat, Duration::from_millis(500));
        assert_eq!(p.peer_timeout, Duration::from_millis(1000), "clamped to 2x");
        let p = NetParams::from_millis(0, 0);
        assert!(p.heartbeat >= Duration::from_millis(1));
        assert!(p.peer_timeout >= p.heartbeat * 2);
    }

    #[test]
    fn fault_grammar_parses() {
        assert_eq!(
            FaultPlan::parse("drop-route:3").unwrap().kind,
            FaultKind::DropRoute(3)
        );
        assert_eq!(
            FaultPlan::parse("delay-route:2:150").unwrap().kind,
            FaultKind::DelayRoute(2, Duration::from_millis(150))
        );
        assert_eq!(
            FaultPlan::parse("truncate-route:1").unwrap().kind,
            FaultKind::TruncateRoute(1)
        );
        assert_eq!(
            FaultPlan::parse("delay-probe:1:800").unwrap().kind,
            FaultKind::DelayProbe(1, Duration::from_millis(800))
        );
        assert_eq!(FaultPlan::parse("mute:5").unwrap().kind, FaultKind::Mute(5));
        let die = FaultPlan::parse("die:40").unwrap();
        assert_eq!(die.kind, FaultKind::Die(40));
        assert!(!die.dies_at(39) && die.dies_at(40));
        assert!(FaultPlan::parse("").is_none());
    }

    #[test]
    #[should_panic(expected = "unknown fault spec")]
    fn malformed_fault_spec_fails_loudly() {
        let _ = FaultPlan::parse("drop-everything");
    }

    #[test]
    fn drop_route_fires_on_exact_route_not_other_traffic() {
        let mut p = FaultPlan::parse("drop-route:2").unwrap();
        assert_eq!(p.action(SendKind::Other), FaultAction::Pass);
        assert_eq!(p.action(SendKind::Route), FaultAction::Pass);
        assert_eq!(p.action(SendKind::ProbeReply), FaultAction::Pass);
        assert_eq!(p.action(SendKind::Route), FaultAction::Drop);
        assert_eq!(p.action(SendKind::Route), FaultAction::Pass);
    }

    #[test]
    fn mute_swallows_everything_after_threshold() {
        let mut p = FaultPlan::parse("mute:2").unwrap();
        assert_eq!(p.action(SendKind::Route), FaultAction::Pass);
        assert_eq!(p.action(SendKind::Other), FaultAction::Pass);
        assert_eq!(p.action(SendKind::Other), FaultAction::Mute);
        assert_eq!(p.action(SendKind::Route), FaultAction::Mute);
        assert_eq!(p.action(SendKind::ProbeReply), FaultAction::Mute);
    }

    #[test]
    fn delay_probe_counts_probe_replies_only() {
        let mut p = FaultPlan::parse("delay-probe:2:50").unwrap();
        assert_eq!(p.action(SendKind::Route), FaultAction::Pass);
        assert_eq!(p.action(SendKind::ProbeReply), FaultAction::Pass);
        assert_eq!(
            p.action(SendKind::ProbeReply),
            FaultAction::Delay(Duration::from_millis(50))
        );
        assert_eq!(p.action(SendKind::ProbeReply), FaultAction::Pass);
    }
}
