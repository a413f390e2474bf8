//! Per-layer probes of a traced run: the replay over the workload's
//! suite, and clocks around each layer's public functions on inputs
//! taken from that suite. Everything here is measured from outside the
//! program, by the benchmark's own calls. `main.rs` runs a probe only in
//! the traced run of a workload whose path goes through its layer.

use crate::replay::{replay, Class, Replay};
use crate::report::{Gate, Metrics};
use crate::stats::{median, percentile_sorted};
use crate::suites::{Counts, MID_TESTS};
use crate::svc::{job_of, source, Service, Split};
use crate::sweep::Engine;
use crate::trace::Tracer;
use crate::TempDir;
use ppcmem::litmus::{build_system, library, parse, run_job, Expectation, Job};
use ppcmem::model::distrib::{read_blob, write_blob};
use ppcmem::model::{CodecCtx, ModelParams, StateStore, SystemState};
use ppcmem::service::proto::{
    decode_query, encode_query, read_frame, write_frame, QueryRequest, REQ_QUERY,
};
use ppcmem::service::store::{Probe, IDX_NAME, LOG_NAME};
use ppcmem::service::{
    serve, Budget, Client, Query, QueryKey, Response, ResultStore, ServerConfig,
};
use std::time::Instant;

/// Time `f` once.
fn clock<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_nanos() as u64)
}

/// Mean nanoseconds per call of `f` over `calls` calls.
fn mean_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// The visited-set and frontier-spill probes over one test's replay.
#[derive(Default)]
struct StoreProbe {
    insert_hot: Class,
    insert_cold: Class,
    spill: Class,
    unspill: Class,
}

/// `StateStore::insert_visited` over the replay's digests with an
/// unlimited budget (hot set only) and with the spill workload's budget
/// (hot set, then cold sorted runs); `spill_batch`/`unspill` on the
/// replay's sampled frames.
fn probe_store(initial: &SystemState, r: &Replay, into: &mut StoreProbe) {
    for (budget, class) in [(0, &mut into.insert_hot), (16, &mut into.insert_cold)] {
        let params = ModelParams {
            max_resident_states: budget,
            ..initial.params.clone()
        };
        let store = StateStore::new(initial.program.clone(), &params, 1);
        let ((), ns) = clock(|| {
            for &d in &r.digests {
                store.insert_visited(d).expect("visited-set probe");
            }
        });
        class.ns += ns;
        class.calls += r.digests.len() as u64;
    }
    if r.frames.is_empty() {
        return;
    }
    let params = ModelParams {
        max_resident_states: 16,
        ..initial.params.clone()
    };
    let store = StateStore::new(initial.program.clone(), &params, 1);
    // The first spill builds the store's codec context; keep that out.
    store.spill_batch(&r.frames[..1]).expect("spill probe");
    store.unspill().expect("spill probe");
    let ((), ns) = clock(|| store.spill_batch(&r.frames).expect("spill probe"));
    into.spill.ns += ns;
    into.spill.calls += r.frames.len() as u64;
    let (back, ns) = clock(|| {
        let mut n = 0;
        while let Some(seg) = store.unspill().expect("spill probe") {
            n += seg.len();
        }
        n
    });
    assert_eq!(back, r.frames.len(), "unspill returned every spilled frame");
    into.unspill.ns += ns;
    into.unspill.calls += back as u64;
}

/// Replay every test of the suite with a clock around each call class,
/// check the replay against the engine's counts, and run the codec and
/// store probes on what the replay visits.
pub fn replay_suite(
    jobs: &[Job],
    reference: &[Counts],
    tracer: &mut Tracer,
    root: u32,
    gate: &mut Gate,
    out: &mut Metrics,
) -> Replay {
    let t0 = Instant::now();
    let span = tracer.open("replay", Some(root));
    let params = ModelParams::default();
    let mut total = Replay::default();
    let mut store = StoreProbe::default();
    for (job, expect) in jobs.iter().zip(reference) {
        let initial = build_system(&job.test, &params);
        let test_span = tracer.open(&format!("replay:{}", job.name), Some(span));
        let r = replay(&initial);
        tracer.close(test_span);
        tracer.aggregates(
            test_span,
            &[
                ("model.system:enumerate", r.enumerate.ns, r.enumerate.calls),
                ("model.system:apply", r.apply.ns, r.apply.calls),
                ("model.system:digest", r.digest.ns, r.digest.calls),
                ("model.state_codec:encode", r.encode.ns, r.encode.calls),
                ("model.state_codec:decode", r.decode.ns, r.decode.calls),
            ],
        );
        gate.attempted += 1;
        if (r.states, r.transitions) != (expect.states, expect.transitions) {
            gate.fail(format_args!(
                "replay of {} visited {} states and {} transitions, the engine {expect:?}",
                job.name, r.states, r.transitions
            ));
        }
        probe_store(&initial, &r, &mut store);
        total.absorb(&r);
    }
    tracer.close(span);
    out.extend([
        ("model.system.enumerate_ns", total.enumerate.mean_ns()),
        ("model.system.enumerate_calls", total.enumerate.calls as f64),
        ("model.system.apply_ns", total.apply.mean_ns()),
        ("model.system.apply_calls", total.apply.calls as f64),
        ("model.system.digest_ns", total.digest.mean_ns()),
        ("model.system.digest_calls", total.digest.calls as f64),
        ("model.system.replay_states", total.states as f64),
        ("model.system.replay_transitions", total.transitions as f64),
        ("model.state_codec.encode_ns", total.encode.mean_ns()),
        ("model.state_codec.decode_ns", total.decode.mean_ns()),
        (
            "model.state_codec.bytes_per_state",
            total.encoded_bytes as f64 / total.encode.calls.max(1) as f64,
        ),
        ("model.store.insert_hot_ns", store.insert_hot.mean_ns()),
        ("model.store.insert_cold_ns", store.insert_cold.mean_ns()),
        ("model.store.spill_frame_us", store.spill.mean_ns() / 1e3),
        (
            "model.store.unspill_frame_us",
            store.unspill.mean_ns() / 1e3,
        ),
        ("bench.replay_wall_s", t0.elapsed().as_secs_f64()),
    ]);
    total
}

/// Interleaved sequential / `threads = 2` passes over the same jobs in
/// one process: the median of the per-pair wall ratios, base sequential.
pub fn threads2_speedup(jobs: &[Job], gate: &mut Gate) -> f64 {
    let mut pass = |engine: Engine| -> f64 {
        let cfg = engine.config();
        let t0 = Instant::now();
        for job in jobs {
            let r = run_job(job, &cfg);
            gate.attempted += 1;
            if !r.matches || !r.conclusive() {
                gate.fail(format_args!("speedup pair: {}", r.to_json()));
            }
        }
        t0.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..3)
        .map(|_| pass(Engine::Seq) / pass(Engine::Threads2))
        .collect();
    median(&ratios)
}

/// The in-memory sequential cost of the suite's four mid tests: the base
/// the spill and distributed walls are ratios of.
pub fn mid_tier_s(jobs: &[Job]) -> f64 {
    let seq = Engine::Seq.config();
    MID_TESTS
        .iter()
        .map(|name| {
            let job = jobs.iter().find(|j| j.name == *name).expect("mid test");
            let walls: Vec<f64> = (0..3)
                .map(|_| clock(|| run_job(job, &seq)).1 as f64 / 1e9)
                .collect();
            median(&walls)
        })
        .sum()
}

/// What the distributed engine adds around the exploration: the launch
/// of a verdict, and the blob framing of one encoded state of `job`.
pub fn distrib_probes(job: &Job, gate: &mut Gate, out: &mut Metrics) {
    // Pure launch, handshake and quiescence cost: 9 states on 2 workers.
    let entry = library()
        .into_iter()
        .find(|e| e.name == "CoRW1")
        .expect("library has CoRW1");
    let corw1 = Job::from_entry(&entry);
    let distrib = Engine::Distrib2.config();
    let launch_ms: Vec<f64> = (0..5)
        .map(|_| {
            let (r, ns) = clock(|| run_job(&corw1, &distrib));
            gate.attempted += 1;
            if !r.matches || !r.conclusive() {
                gate.fail(format_args!("launch probe: {}", r.to_json()));
            }
            ns as f64 / 1e6
        })
        .collect();

    let initial = build_system(&job.test, &ModelParams::default());
    let payload = CodecCtx::for_state(&initial).encode(&initial);
    let mut wire = Vec::with_capacity(payload.len() + 4);
    let blob_ns = mean_ns(20_000, |_| {
        wire.clear();
        write_blob(&mut wire, &payload).expect("write to a Vec");
        std::hint::black_box(read_blob(&mut wire.as_slice()).expect("read back"));
    });
    out.extend([
        ("litmus.distrib.launch_ms", median(&launch_ms)),
        ("model.distrib.blob_rt_ns", blob_ns),
    ]);
}

/// Clocks around the litmus front end and the harness on the service's
/// own sources: what every request (parse) and every miss (the 11-state
/// `run_job`) pays before the service layer.
fn front_end_probes(jobs: &[Job], out: &mut Metrics) {
    let params = ModelParams::default();
    let parse_ns = mean_ns(jobs.len(), |i| {
        std::hint::black_box(parse(&jobs[i].source).expect("generated source parses"));
    });
    let build_ns = mean_ns(jobs.len(), |i| {
        std::hint::black_box(build_system(&jobs[i].test, &params));
    });
    let build_jobs_ms: Vec<f64> = (0..5)
        .map(|_| {
            clock(|| {
                jobs.iter()
                    .map(|j| Job::from_source(&j.source, j.expect, &j.pinned_by))
                    .collect::<Result<Vec<Job>, _>>()
                    .expect("generated source parses")
            })
            .1 as f64
                / 1e6
        })
        .collect();
    let seq = Engine::Seq.config();
    let tiny_ns = mean_ns(jobs.len(), |i| {
        std::hint::black_box(run_job(&jobs[i], &seq));
    });
    out.extend([
        ("litmus.parser.parse_us", parse_ns / 1e3),
        ("litmus.run.build_system_us", build_ns / 1e3),
        ("litmus.harness.build_jobs_ms", median(&build_jobs_ms)),
        ("litmus.harness.run_job_tiny_us", tiny_ns / 1e3),
    ]);
}

/// A fresh key and record line for the store probes.
fn synthetic_record(i: usize) -> (QueryKey, String) {
    let key = QueryKey::from_bytes(format!("benchmark-probe-key-{i:012}").into_bytes());
    (key, format!("{{\"probe\":{i}}}"))
}

/// Clocks around the front end and the service layer's public functions,
/// on a copy of the service's store and on the service itself. `split`
/// is the pass whose hit and miss latencies are reported.
pub fn service_probes(svc: &mut Service, preload: u32, split: &Split, out: &mut Metrics) {
    // Before the loopback probe adds its own hits.
    let stats = svc.oracle.stats();
    let cfg = Engine::Seq.config();
    // Up to 2,000 stored keys, spread evenly over the store.
    let sample = preload.min(2_000);
    let jobs: Vec<Job> = (0..sample)
        .map(|i| job_of(&source(svc.base, i * (preload / sample))))
        .collect();
    front_end_probes(&jobs, out);
    let key_ns = mean_ns(jobs.len(), |i| {
        std::hint::black_box(Query::from_harness(&jobs[i], &cfg).key());
    });
    let keys: Vec<QueryKey> = jobs
        .iter()
        .map(|j| Query::from_harness(j, &cfg).key())
        .collect();

    let copy = TempDir::new("bench-store-probe");
    for name in [LOG_NAME, IDX_NAME] {
        // The index only exists once the store has rebuilt it.
        if svc.dir.path.join(name).exists() {
            std::fs::copy(svc.dir.path.join(name), copy.path.join(name)).expect("copy the store");
        }
    }
    // Reopen: index load plus a scan of the unindexed log tail.
    let reopen_ms: Vec<f64> = (0..3)
        .map(|_| clock(|| ResultStore::open(&copy.path).expect("reopen")).1 as f64 / 1e6)
        .collect();

    // Put fresh records until the index has been rebuilt three times;
    // a rebuild shows as a new index file length.
    const HOT_LIMIT: usize = 4_096;
    let mut store = ResultStore::open_with(&copy.path, HOT_LIMIT).expect("reopen");
    let idx_len = |dir: &TempDir| std::fs::metadata(dir.path.join(IDX_NAME)).map_or(0, |m| m.len());
    let mut seen_len = idx_len(&copy);
    let (mut put_us, mut rebuild_ms) = (Vec::new(), Vec::new());
    let mut next = 0;
    while rebuild_ms.len() < 3 {
        let (key, line) = synthetic_record(next);
        next += 1;
        let ((), ns) = clock(|| store.put(&key, &line).expect("put"));
        let len = idx_len(&copy);
        if len != seen_len {
            seen_len = len;
            rebuild_ms.push(ns as f64 / 1e6);
        } else {
            put_us.push(ns as f64 / 1e3);
        }
        assert!(next <= 4 * HOT_LIMIT, "the index was never rebuilt");
    }
    // The hot map is empty now: every earlier key is in the cold index,
    // and the next records stay hot.
    let hot: Vec<(QueryKey, String)> = (next..next + 256).map(synthetic_record).collect();
    for (key, line) in &hot {
        store.put(key, line).expect("put");
    }
    let mut hits = 0;
    let hot_ns = mean_ns(10 * hot.len(), |i| {
        hits += usize::from(matches!(store.get(&hot[i % hot.len()].0), Probe::Hit(_)));
    });
    let cold_ns = mean_ns(10 * keys.len(), |i| {
        hits += usize::from(matches!(store.get(&keys[i % keys.len()]), Probe::Hit(_)));
    });
    svc.gate.attempted += 1;
    if hits != 10 * (hot.len() + keys.len()) {
        svc.gate.fail(format_args!(
            "store probe: {hits} of the stored records were served"
        ));
    }
    drop(store);

    // The wire codec and framing, through a Vec.
    let request = QueryRequest {
        source: source(svc.base, 0),
        expect: Expectation::Forbidden,
        pinned_by: "benchmark".to_owned(),
        budget: Budget::default(),
    };
    let codec_ns = mean_ns(20_000, |_| {
        std::hint::black_box(decode_query(&encode_query(&request)).expect("decode"));
    });
    let body = encode_query(&request);
    let mut wire = Vec::with_capacity(body.len() + 16);
    let frame_ns = mean_ns(20_000, |i| {
        wire.clear();
        write_frame(&mut wire, i as u64, REQ_QUERY, &body).expect("write to a Vec");
        std::hint::black_box(read_frame(&mut wire.as_slice()).expect("read back"));
    });

    // What TCP adds: one client against the in-process server, hits only.
    let server = serve(&ServerConfig::default(), svc.oracle.clone()).expect("bind loopback");
    let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).expect("connect");
    let mut rtt: Vec<u64> = (0..20_000)
        .map(|i| {
            let src = &jobs[i % jobs.len()].source;
            let (resp, ns) =
                clock(|| client.query(src, Expectation::Forbidden, "benchmark", Budget::default()));
            svc.gate.attempted += 1;
            if !matches!(resp, Ok(Response::Result { cached: true, .. })) {
                svc.gate.fail(format_args!("loopback query: {resp:?}"));
            }
            ns
        })
        .collect();
    drop(client);
    drop(server);
    rtt.sort_unstable();

    put_us.sort_by(f64::total_cmp);
    out.extend([
        ("service.query.key_us", key_ns / 1e3),
        ("service.store.get_hot_ns", hot_ns),
        ("service.store.get_cold_ns", cold_ns),
        ("service.store.put_us", percentile_sorted(&put_us, 50.0)),
        ("service.store.put_rebuild_ms", median(&rebuild_ms)),
        ("service.store.reopen_ms", median(&reopen_ms)),
        ("service.proto.query_codec_ns", codec_ns),
        ("service.proto.frame_rt_ns", frame_ns),
        (
            "service.server.rtt_p50_us",
            percentile_sorted(&rtt, 50.0) as f64 / 1e3,
        ),
        ("service.oracle.hits", stats.hits as f64),
        ("service.oracle.misses", stats.misses as f64),
        ("service.oracle.explorations", stats.explorations as f64),
        ("service.oracle.coalesced", stats.coalesced as f64),
        ("service.oracle.hit_p50_us", split.hit_p50_us),
        ("service.oracle.hit_p90_us", split.hit_p90_us),
        ("service.oracle.miss_p50_us", split.miss_p50_us),
    ]);
}
