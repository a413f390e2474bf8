//! Termination-probe epochs, the clean-round streak and the adaptive
//! probe pace ([`ProbeTracker`]).

use std::time::Duration;

/// Initial channel-silence pacing between termination probes; doubles
/// after each non-clean round (see [`ProbeTracker`]) up to
/// [`PROBE_PACE_CAP`], and resets whenever a relay shows work moving.
pub(super) const PROBE_PACE: Duration = Duration::from_millis(5);

/// Upper bound on the adaptive probe pace.
pub(super) const PROBE_PACE_CAP: Duration = Duration::from_millis(100);

/// An in-flight termination probe round.
struct ProbeRound {
    round: u64,
    /// Per-worker `(idle, received)` replies.
    replies: Vec<Option<(bool, u64)>>,
    /// A relay happened during the round — the round cannot be clean.
    dirty: bool,
}

/// What [`ProbeTracker::on_reply`] concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum ProbeVerdict {
    /// Round still incomplete (or the reply was stale — a round number
    /// from an earlier epoch never advances the current round).
    Pending,
    /// Round completed non-clean: work is still moving.
    NotClean,
    /// Round completed clean, but quiescence needs a second consecutive
    /// clean round — start another probe.
    CleanUnconfirmed,
    /// Two consecutive clean rounds: the exploration is quiescent.
    Quiesced,
}

/// Termination-probe bookkeeping, factored out of the coordinator so
/// the latency-robustness properties are unit-testable without sockets:
/// every probe round carries a fresh epoch number, and a reply tagged
/// with any other round — say an "idle" reply that sat in a slow pipe
/// while new work was relayed — is ignored outright, so a stale idle
/// reply can never complete (let alone terminate) the current round.
pub(super) struct ProbeTracker {
    next_round: u64,
    current: Option<ProbeRound>,
    clean_rounds: u32,
    /// Adaptive probe pacing: doubles after each non-clean round (up to
    /// [`PROBE_PACE_CAP`]) so a busy-but-quiet fleet is not pelted with
    /// probes, and resets to [`PROBE_PACE`] whenever a relay shows work
    /// moving.
    pub(super) pace: Duration,
}

impl ProbeTracker {
    pub(super) fn new() -> Self {
        ProbeTracker {
            next_round: 0,
            current: None,
            clean_rounds: 0,
            pace: PROBE_PACE,
        }
    }

    /// Begin a new round for `n` workers; returns its epoch number.
    pub(super) fn start(&mut self, n: usize) -> u64 {
        self.next_round += 1;
        self.current = Some(ProbeRound {
            round: self.next_round,
            replies: (0..n).map(|_| None).collect(),
            dirty: false,
        });
        self.next_round
    }

    pub(super) fn active(&self) -> bool {
        self.current.is_some()
    }

    /// Abandon any in-flight round (the run is stopping or finishing).
    pub(super) fn cancel(&mut self) {
        self.current = None;
    }

    /// A relay happened: any in-flight round is dirty, the clean streak
    /// is broken, and probing may speed back up.
    pub(super) fn on_relay(&mut self) {
        if let Some(p) = &mut self.current {
            p.dirty = true;
        }
        self.clean_rounds = 0;
        self.pace = PROBE_PACE;
    }

    /// Record worker `w`'s reply to `round`. `r_out[i]` is the frame
    /// count the coordinator has forwarded to worker `i` — a clean
    /// round requires every reply to match it (nothing in flight).
    pub(super) fn on_reply(
        &mut self,
        w: usize,
        round: u64,
        idle: bool,
        received: u64,
        r_out: &[u64],
    ) -> ProbeVerdict {
        let complete = match &mut self.current {
            Some(p) if p.round == round => {
                p.replies[w] = Some((idle, received));
                p.replies.iter().all(Option::is_some)
            }
            // Stale epoch (or no round in flight): ignore entirely.
            _ => false,
        };
        if !complete {
            return ProbeVerdict::Pending;
        }
        let p = self.current.take().expect("probe is present");
        let clean = !p.dirty
            && p.replies.iter().enumerate().all(|(i, r)| {
                let (idle, received) = r.expect("all replies present");
                idle && received == r_out[i]
            });
        if clean {
            self.clean_rounds += 1;
            if self.clean_rounds >= 2 {
                ProbeVerdict::Quiesced
            } else {
                ProbeVerdict::CleanUnconfirmed
            }
        } else {
            self.clean_rounds = 0;
            self.pace = (self.pace * 2).min(PROBE_PACE_CAP);
            ProbeVerdict::NotClean
        }
    }
}
