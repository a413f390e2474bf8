//! The replay driver: a plain sequential depth-first search written
//! against the public `SystemState` API. It must visit exactly the
//! states and fire exactly the transitions the engine reports for the
//! same test, which is what lets the benchmark put a clock around each
//! call class (enumerate, apply, digest) from outside the engine.

use ppcmem::model::{CodecCtx, Frame, SystemState, ThreadTransition, Transition};
use std::collections::HashSet;
use std::time::Instant;

/// Busy time and call count of one call class.
#[derive(Clone, Copy, Debug, Default)]
pub struct Class {
    pub ns: u64,
    pub calls: u64,
}

impl Class {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.calls += 1;
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        out
    }

    pub fn add(&mut self, other: Class) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean nanoseconds per call.
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Every `CODEC_SAMPLE`th visited state, starting with the first, goes
/// through the codec.
const CODEC_SAMPLE: usize = 16;
/// Successor digests kept (in admission order) for the store probes.
const DIGEST_CAP: usize = 50_000;
/// Sampled states kept as frames for the spill probes.
const FRAME_CAP: usize = 64;

#[derive(Default)]
pub struct Replay {
    pub states: usize,
    pub transitions: usize,
    pub enumerate: Class,
    pub apply: Class,
    pub digest: Class,
    pub encode: Class,
    pub decode: Class,
    pub encoded_bytes: u64,
    /// The first [`DIGEST_CAP`] digests offered to the visited set,
    /// duplicates included.
    pub digests: Vec<u64>,
    /// Up to [`FRAME_CAP`] sampled states.
    pub frames: Vec<Frame>,
}

impl Replay {
    /// Fold another test's replay into a suite total (the per-test
    /// digest and frame samples are not carried over).
    pub fn absorb(&mut self, other: &Replay) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.enumerate.add(other.enumerate);
        self.apply.add(other.apply);
        self.digest.add(other.digest);
        self.encode.add(other.encode);
        self.decode.add(other.decode);
        self.encoded_bytes += other.encoded_bytes;
    }

    /// Time inside the three `SystemState` call classes.
    pub fn system_ns(&self) -> u64 {
        self.enumerate.ns + self.apply.ns + self.digest.ns
    }
}

/// Explore every state reachable from `initial`, with a clock around
/// each call class.
pub fn replay(initial: &SystemState) -> Replay {
    let mut r = Replay::default();
    let ctx = CodecCtx::for_state(initial);
    let mut visited: HashSet<u64> = HashSet::new();
    let mut scratch: Vec<Transition> = Vec::new();
    let mut stack = vec![initial.clone()];
    visited.insert(r.digest.time(|| initial.digest()));
    while let Some(state) = stack.pop() {
        r.states += 1;
        if r.states % CODEC_SAMPLE == 1 {
            let bytes = r.encode.time(|| ctx.encode(&state));
            r.encoded_bytes += bytes.len() as u64;
            let back = r.decode.time(|| ctx.decode(&bytes));
            assert!(back.is_ok(), "codec round trip failed");
            if r.frames.len() < FRAME_CAP {
                r.frames.push(Frame::root(state.clone()));
            }
        }
        r.enumerate
            .time(|| state.enumerate_transitions_into(&mut scratch));
        // A state is final when every thread has finished and nothing
        // more can be fetched (the engine's own test).
        let fetchable = scratch
            .iter()
            .any(|t| matches!(t, Transition::Thread(ThreadTransition::Fetch { .. })));
        if !fetchable && state.threads.iter().all(|th| th.all_finished()) {
            continue;
        }
        for t in &scratch {
            let next = r.apply.time(|| state.apply(t));
            r.transitions += 1;
            let d = r.digest.time(|| next.digest());
            if r.digests.len() < DIGEST_CAP {
                r.digests.push(d);
            }
            if visited.insert(d) {
                stack.push(next);
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppcmem::litmus::{build_system, library, run_job, Job};

    #[test]
    fn replay_visits_exactly_what_the_engine_reports() {
        let cfg = crate::sweep::Engine::Seq.config();
        for name in ["MP", "SB", "CoRR"] {
            let entry = library().into_iter().find(|e| e.name == name).unwrap();
            let job = Job::from_entry(&entry);
            let report = run_job(&job, &cfg);
            let initial = build_system(&job.test, &cfg.params);
            let r = replay(&initial);
            assert_eq!(r.states, report.states, "{name} states");
            assert_eq!(r.transitions, report.transitions, "{name} transitions");
            assert_eq!(r.apply.calls as usize, report.transitions);
            assert_eq!(r.enumerate.calls as usize, report.states);
        }
    }
}
