//! The `svc_mixed` workload: the service layer used two ways at once.
//! Each request is what an `oracled` connection thread does per frame,
//! `Job::from_source` then `Oracle::query`, against an in-process
//! `Oracle::with_cache`. Loopback TCP was measured and rejected as the
//! end-to-end path (see README.md); it stays as a report-only probe.

use crate::report::{Gate, Pass};
use crate::stats::{fnv1a64, percentile_sorted, Fnv};
use crate::sweep::Engine;
use crate::trace::Tracer;
use crate::TempDir;
use ppcmem::bits::Prng;
use ppcmem::litmus::{Expectation, Job};
use ppcmem::service::{Budget, Oracle};
use std::sync::Arc;
use std::time::Instant;

/// Distinct keys stored before the first timed request.
pub const PRELOAD: u32 = 120_000;
/// Requests in one pass of the request stream.
pub const PASS_REQUESTS: usize = 100_000;
/// One request in every window of this many names a never-seen key, at
/// a seeded position: 5 % misses, and the same number in every pass, so
/// that passes of one run are the same work.
const MISS_WINDOW: u32 = 20;

/// The cheapest exploration there is (11 states): a `CoWW`-shaped
/// one-thread test whose constants are derived from the key id, so
/// every id is its own content key.
pub fn source(base: u32, id: u32) -> String {
    let a = base + 2 * id;
    let b = a + 1;
    format!(
        "POWER CoWWk\n{{\n0:r1=x; 0:r7={a}; 0:r8={b};\nx=0;\n}}\n P0           ;\n stw r7,0(r1) ;\n stw r8,0(r1) ;\nexists (x={a})\n"
    )
}

/// Where the constants of a run's keys start.
pub fn base_of(seed: u64) -> u32 {
    1 + Prng::seed_from_u64(seed ^ 0x5eed_ba5e).gen_range(0..1u32 << 20)
}

pub fn job_of(source: &str) -> Job {
    Job::from_source(source, Expectation::Forbidden, "benchmark")
        .expect("the generated source parses")
}

/// One generated request: the key it names and whether that key is
/// already stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub id: u32,
    pub hit: bool,
}

/// The seeded request stream over a store of `preload` keys: hits are
/// drawn uniformly from the stored keys, misses take the next unused id.
pub struct Stream {
    rng: Prng,
    preload: u32,
    next_fresh: u32,
    /// Position in the current window, and the position of its miss.
    window_pos: u32,
    miss_at: u32,
    /// FNV-1a 64 over every request generated so far.
    pub hash: Fnv,
}

impl Stream {
    pub fn new(seed: u64, preload: u32) -> Stream {
        Stream {
            rng: Prng::seed_from_u64(seed),
            preload,
            next_fresh: preload,
            window_pos: 0,
            miss_at: 0,
            hash: Fnv::default(),
        }
    }

    pub fn next(&mut self) -> Request {
        if self.window_pos == 0 {
            self.miss_at = self.rng.gen_range(0..MISS_WINDOW);
        }
        let hit = self.window_pos != self.miss_at;
        self.window_pos = (self.window_pos + 1) % MISS_WINDOW;
        let id = if hit {
            self.rng.gen_range(0..self.preload)
        } else {
            self.next_fresh += 1;
            self.next_fresh - 1
        };
        self.hash.write(&id.to_le_bytes());
        self.hash.write(&[u8::from(hit)]);
        Request { id, hit }
    }
}

/// Busy time and count of one request class in a pass.
#[derive(Clone, Copy, Default)]
pub struct Split {
    pub parse_ns: u64,
    pub hit_query_ns: u64,
    pub hits: u64,
    pub miss_query_ns: u64,
    pub misses: u64,
    /// Whole-request latency (parse and query) by class.
    pub hit_p50_us: f64,
    pub hit_p90_us: f64,
    pub miss_p50_us: f64,
}

/// An in-process cached oracle over the generated keys, with what the
/// generator knows about every stored key.
pub struct Service {
    pub oracle: Arc<Oracle>,
    pub dir: TempDir,
    pub base: u32,
    /// FNV-1a 64 of the line returned when key `id` was first explored.
    line_hash: Vec<u64>,
    pub gate: Gate,
}

impl Service {
    /// Open an empty store and explore keys `0..preload` into it.
    pub fn preloaded(seed: u64, preload: u32) -> Service {
        let dir = TempDir::new("bench-svc");
        let oracle =
            Oracle::with_cache(Engine::Seq.config(), &dir.path).expect("open the result store");
        let mut svc = Service {
            oracle: Arc::new(oracle),
            dir,
            base: base_of(seed),
            line_hash: Vec::with_capacity(preload as usize),
            gate: Gate::default(),
        };
        for id in 0..preload {
            let out = svc
                .oracle
                .query(&job_of(&source(svc.base, id)), &Budget::default());
            svc.gate.attempted += 1;
            if out.cached || !out.report.matches || !out.report.conclusive() {
                svc.gate
                    .fail(format_args!("preload of key {id}: {}", out.line));
            }
            svc.line_hash.push(fnv1a64(out.line.as_bytes()));
        }
        svc
    }

    /// Serve one pass of the stream, checking every response against
    /// what the generator knows. Sources are generated before the clock
    /// starts; the pass wall is the requests alone.
    pub fn pass(&mut self, stream: &mut Stream, requests: usize) -> (Pass, Split) {
        let reqs: Vec<Request> = (0..requests).map(|_| stream.next()).collect();
        let sources: Vec<String> = reqs.iter().map(|r| source(self.base, r.id)).collect();
        let mut latencies: Vec<u64> = Vec::with_capacity(requests);
        let mut split = Split::default();
        let budget = Budget::default();
        let t_pass = Instant::now();
        for (req, src) in reqs.iter().zip(&sources) {
            let t0 = Instant::now();
            let job = job_of(src);
            let t1 = Instant::now();
            let out = self.oracle.query(&job, &budget);
            let t2 = Instant::now();
            latencies.push((t2 - t0).as_nanos() as u64);
            split.parse_ns += (t1 - t0).as_nanos() as u64;
            let query_ns = (t2 - t1).as_nanos() as u64;
            if req.hit {
                split.hit_query_ns += query_ns;
                split.hits += 1;
            } else {
                split.miss_query_ns += query_ns;
                split.misses += 1;
            }
            let line_ok =
                !req.hit || fnv1a64(out.line.as_bytes()) == self.line_hash[req.id as usize];
            if out.cached != req.hit || !out.report.matches || !line_ok {
                self.gate.fail(format_args!(
                    "key {} (stored: {}): cached={} line={}",
                    req.id, req.hit, out.cached, out.line
                ));
            }
        }
        let wall_s = t_pass.elapsed().as_secs_f64();
        self.gate.attempted += requests;
        let by_class = |hit: bool| -> Vec<u64> {
            let mut v: Vec<u64> = reqs
                .iter()
                .zip(&latencies)
                .filter(|(r, _)| r.hit == hit)
                .map(|(_, &l)| l)
                .collect();
            v.sort_unstable();
            v
        };
        let (hits, misses) = (by_class(true), by_class(false));
        let pct = |v: &[u64], p: f64| {
            if v.is_empty() {
                0.0
            } else {
                percentile_sorted(v, p) as f64 / 1e3
            }
        };
        split.hit_p50_us = pct(&hits, 50.0);
        split.hit_p90_us = pct(&hits, 90.0);
        split.miss_p50_us = pct(&misses, 50.0);
        let small_tier_ns = misses.iter().sum();
        (
            Pass::from_latencies(wall_s, &mut latencies, small_tier_ns),
            split,
        )
    }

    /// The counters must account for exactly the requests generated:
    /// every miss explored once, nothing coalesced, nothing dropped.
    pub fn check_stats(&mut self, hits: u64, misses: u64) {
        let s = self.oracle.stats();
        if (
            s.hits,
            s.misses,
            s.explorations,
            s.coalesced,
            s.corrupt_dropped,
        ) != (hits, misses, misses, 0, 0)
        {
            self.gate.fail(format_args!(
                "oracle stats {s:?}, generated {hits} hits and {misses} misses"
            ));
        }
    }
}

/// Record one traced pass as aggregate spans under `parent`.
pub fn trace_split(tracer: &mut Tracer, parent: u32, split: &Split) {
    tracer.aggregates(
        parent,
        &[
            (
                "litmus.parser:Job::from_source",
                split.parse_ns,
                split.hits + split.misses,
            ),
            ("service.oracle:query(hit)", split.hit_query_ns, split.hits),
            (
                "service.oracle:query(miss)",
                split.miss_query_ns,
                split.misses,
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_hash(seed: u64) -> u64 {
        let mut s = Stream::new(seed, 1_000);
        for _ in 0..5_000 {
            s.next();
        }
        s.hash.0
    }

    #[test]
    fn the_same_seed_gives_the_same_request_stream() {
        assert_eq!(stream_hash(3), stream_hash(3));
        assert_ne!(stream_hash(3), stream_hash(4));
        assert_eq!(base_of(3), base_of(3));
    }

    #[test]
    fn misses_are_fresh_and_hits_are_stored() {
        let mut s = Stream::new(11, 500);
        let mut fresh = 500;
        let mut misses = 0;
        for _ in 0..20_000 {
            let r = s.next();
            if r.hit {
                assert!(r.id < 500);
            } else {
                assert_eq!(r.id, fresh);
                fresh += 1;
                misses += 1;
            }
        }
        assert_eq!(misses, 20_000 / MISS_WINDOW);
    }

    #[test]
    fn distinct_ids_are_distinct_sources_with_the_same_verdict() {
        assert_ne!(source(5, 0), source(5, 1));
        let mut svc = Service::preloaded(1, 3);
        let mut stream = Stream::new(1, 3);
        let (_, split) = svc.pass(&mut stream, 200);
        assert_eq!(split.hits + split.misses, 200);
        svc.check_stats(split.hits, 3 + split.misses);
        assert_eq!(svc.gate.failed, 0);
        assert_eq!(svc.gate.attempted, 203);
    }
}
