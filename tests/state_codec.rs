//! Round-trip and cross-rebuild property tests for the canonical state
//! codec (`ppc_model::state_codec`).
//!
//! The codec underwrites the disk-spilling exploration store: a spilled
//! state must decode back to *exactly* the state that was spilled
//! (`decode(encode(s)) == s` under structural equality, same digest, and
//! identical successor behaviour), and — unlike the `Arc`-pointer-based
//! digests — its bytes must be identical across two *independently
//! built* systems for the same test, which is what makes resumable and
//! cross-machine exploration possible.
//!
//! States are drawn from seeded random exploration prefixes: start at a
//! litmus test's initial state and repeatedly apply a pseudo-randomly
//! chosen enabled transition, checking the codec contract at every
//! prefix. That visits "interesting" mid-exploration states (suspended
//! interpreter continuations, pending reads, uncommitted writes,
//! in-flight barriers, live reservations) rather than just initial and
//! quiescent ones.

mod common;

use ppcmem::bits::Prng;
use ppcmem::litmus::{build_system, library, parse};
use ppcmem::model::{decode_state, encode_state, CodecCtx, ModelParams, SystemState};

/// Tests with varied machinery: plain loads/stores, barriers of every
/// flavour, dependencies, and the lwarx/stwcx. reservation path.
const SUBJECTS: &[&str] = &["MP+syncs", "LB+addrs", "PPOCA", "WRC+pos", "2+2W"];

/// A lock-style test exercising load-reserve/store-conditional, so the
/// codec round-trips reservations and pending conditional writes.
const RMW_SOURCE: &str = r"POWER RMW-CODEC
{
0:r1=x; 1:r1=x;
x=0;
}
 P0                | P1                ;
 lwarx r5,r0,r1    | lwarx r5,r0,r1    ;
 addi r5,r5,1      | addi r5,r5,1      ;
 stwcx. r5,r0,r1   | stwcx. r5,r0,r1   ;
exists (0:r5=1)
";

/// Walk `steps` random transitions from `state`, checking the round-trip
/// contract at every prefix state. Returns how many states were checked.
fn check_random_prefix(
    initial: &SystemState,
    ctx: &CodecCtx,
    rng: &mut Prng,
    steps: usize,
) -> usize {
    let mut state = initial.clone();
    let mut checked = 0;
    for _ in 0..=steps {
        let bytes = ctx.encode(&state);
        // Decoded by a context that has seen nothing: `ctx` itself would
        // answer from its component memo with the `Arc`s it has just
        // encoded, and everything below would compare `state` with
        // itself.
        let back =
            decode_state(&bytes, &state.program, &state.params).expect("canonical bytes decode");
        assert!(
            !std::sync::Arc::ptr_eq(&back.threads[0], &state.threads[0])
                && !std::sync::Arc::ptr_eq(&back.storage, &state.storage),
            "the decoded state is not an independent copy"
        );
        assert!(
            back == state,
            "decode(encode(s)) != s after {checked} random transitions"
        );
        assert_eq!(
            back.digest(),
            state.digest(),
            "decoded state's digest diverged (shared structure not \
             resolved to the program cache)"
        );
        // Re-encoding the decoded state must reproduce the bytes.
        assert_eq!(
            ctx.encode(&back),
            bytes,
            "encode is not stable across a decode round trip"
        );
        // The decoded state must behave identically: same enabled
        // transitions, and applying the same one yields equal states.
        let ts = state.enumerate_transitions();
        assert_eq!(back.enumerate_transitions(), ts);
        checked += 1;
        if ts.is_empty() {
            break;
        }
        let pick = rng.gen_range(0..ts.len() as u32) as usize;
        let next = state.apply(&ts[pick]);
        let next_back = back.apply(&ts[pick]);
        assert!(
            next_back == next,
            "successors diverged after decode (transition {pick})"
        );
        state = next;
    }
    checked
}

#[test]
fn codec_round_trips_random_exploration_prefixes() {
    let params = ModelParams::default();
    let mut rng = Prng::seed_from_u64(0xC0DE_C0DE_0001);
    let mut total = 0;
    for name in SUBJECTS {
        let entry = library()
            .into_iter()
            .find(|e| e.name == *name)
            .unwrap_or_else(|| panic!("{name} in library"));
        let test = parse(entry.source).expect("library parses");
        let initial = build_system(&test, &params);
        let ctx = CodecCtx::for_state(&initial);
        for _ in 0..4 {
            total += check_random_prefix(&initial, &ctx, &mut rng, 40);
        }
    }
    assert!(total > 100, "only {total} prefix states checked");
}

#[test]
fn codec_round_trips_reservation_machinery() {
    // Spurious stcx failure on, so the walk can visit the failure branch.
    let params = ModelParams {
        allow_spurious_stcx_failure: true,
        ..ModelParams::default()
    };
    let test = parse(RMW_SOURCE).expect("RMW source parses");
    let initial = build_system(&test, &params);
    let ctx = CodecCtx::for_state(&initial);
    let mut rng = Prng::seed_from_u64(0xC0DE_C0DE_0002);
    let mut total = 0;
    for _ in 0..8 {
        total += check_random_prefix(&initial, &ctx, &mut rng, 60);
    }
    assert!(total > 50, "only {total} prefix states checked");
}

/// The component memo is invisible in the bytes: on the `oracle_fuzz`
/// generator's programs (2–4 threads, barriers, dependencies,
/// `lwarx`/`stwcx.`) a context that has written every state so far and a
/// fresh context per state write the same record, and a context that
/// has read every record so far reads it back to the same state.
#[test]
fn memo_warm_vs_cold_on_fuzz_programs() {
    let params = ModelParams {
        allow_spurious_stcx_failure: true,
        ..ModelParams::default()
    };
    let mut checked = 0;
    for seed in 0..24u64 {
        let prog = common::gen_program(0x3E30_F022_0000_0000 + seed);
        let test = parse(&prog.source).expect("generated program parses");
        let initial = build_system(&test, &params);
        let (writer, reader) = (CodecCtx::for_state(&initial), CodecCtx::for_state(&initial));
        // Depth-first, so consecutive states are search neighbours; the
        // first 1500 states of a program are plenty to warm every slot.
        let mut seen = std::collections::HashSet::from([initial.digest()]);
        let mut stack = vec![initial.clone()];
        while let Some(state) = stack.pop().filter(|_| seen.len() < 1500) {
            let cold = CodecCtx::for_state(&initial).encode(&state);
            assert_eq!(writer.encode(&state), cold, "seed {seed}: bytes differ");
            let back = reader.decode(&cold).expect("canonical bytes decode");
            assert!(back == state, "seed {seed}: decoded state differs");
            assert_eq!(back.digest(), state.digest());
            checked += 1;
            for t in state.enumerate_transitions() {
                let next = state.apply(&t);
                if seen.insert(next.digest()) {
                    stack.push(next);
                }
            }
        }
        let (wrote, read) = (writer.memo_stats(), reader.memo_stats());
        assert!(wrote.component_encode.hits > 0, "seed {seed}: {wrote}");
        assert!(read.component_decode.hits > 0, "seed {seed}: {read}");
    }
    assert!(checked > 10_000, "only {checked} states checked");
}

/// The cross-rebuild case the `Arc`-pointer digest cannot give: two
/// independently built systems for the same test, driven through the
/// same transition choices, encode to byte-identical strings at every
/// prefix — and a state encoded by one system decodes in the other's
/// codec context.
#[test]
fn encoding_is_stable_across_independent_builds() {
    // Subjects chosen so the walks populate every independently digested
    // storage component (PR 6's per-component cells): MP+syncs and PPOCA
    // for barriers / propagation lists / sync acknowledgements, 2+2W
    // (both with and without the partial-coherence transition enabled)
    // for the coherence order, and the lwarx/stwcx. source for
    // reservations and pending conditional writes.
    let coherence = ModelParams {
        coherence_commitments: true,
        ..ModelParams::default()
    };
    let spurious = ModelParams {
        allow_spurious_stcx_failure: true,
        ..ModelParams::default()
    };
    let from_library = |name: &str| {
        library()
            .into_iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} in library"))
            .source
            .to_owned()
    };
    let subjects = [
        ("MP+syncs", from_library("MP+syncs"), ModelParams::default()),
        ("PPOCA", from_library("PPOCA"), ModelParams::default()),
        ("2+2W", from_library("2+2W"), ModelParams::default()),
        ("2+2W+pco", from_library("2+2W"), coherence),
        ("RMW", RMW_SOURCE.to_owned(), spurious),
    ];
    for (name, source, params) in subjects {
        let test = parse(&source).expect("library parses");
        // Two fully independent builds: separate programs, separate Arcs.
        let a0 = build_system(&test, &params);
        let b0 = build_system(&test, &params);
        assert!(
            !std::sync::Arc::ptr_eq(&a0.program, &b0.program),
            "builds must be independent for this test to mean anything"
        );
        let ctx_a = CodecCtx::for_state(&a0);
        let ctx_b = CodecCtx::for_state(&b0);
        // Build B's reading side, kept apart from `ctx_b`: a context
        // that has encoded `b` decodes `b`'s bytes to `b`'s own `Arc`s.
        let reader_b = CodecCtx::for_state(&b0);

        let mut rng = Prng::seed_from_u64(0xC0DE_C0DE_0003);
        let (mut a, mut b) = (a0, b0);
        for step in 0..50 {
            let ea = ctx_a.encode(&a);
            let eb = ctx_b.encode(&b);
            assert_eq!(
                ea, eb,
                "{name}: cross-rebuild encoding diverged at step {step}"
            );
            // Cross-decode: bytes from build A decode in build B's
            // context (this is the distributed-exploration handshake).
            let b_from_a = reader_b.decode(&ea).expect("cross-decode");
            assert!(
                !std::sync::Arc::ptr_eq(&b_from_a.storage, &b.storage),
                "{name}: the cross-decode handed back build B's own state"
            );
            assert!(b_from_a == b, "{name}: cross-decoded state diverged");

            let ts = a.enumerate_transitions();
            assert_eq!(ts, b.enumerate_transitions());
            if ts.is_empty() {
                break;
            }
            let pick = rng.gen_range(0..ts.len() as u32) as usize;
            a = a.apply(&ts[pick]);
            b = b.apply(&ts[pick]);
        }
    }
}

/// Canonical bytes are frozen across PRs: deterministic walks over
/// three subjects (barriers, coherence-heavy 2+2W, reservations) must
/// encode to the exact hex strings committed in
/// `tests/data/golden_encodings.txt`, captured before the
/// per-component-digest and inline-`Bv` refactors. A diff here means
/// the codec's byte format changed — which breaks resumable spills and
/// cross-machine exploration — not just an in-memory representation.
#[test]
fn canonical_bytes_match_committed_golden_encodings() {
    let golden = include_str!("data/golden_encodings.txt");
    let mut expected: std::collections::BTreeMap<(String, usize), String> =
        std::collections::BTreeMap::new();
    for line in golden.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.splitn(3, '|');
        let name = parts.next().expect("name").to_owned();
        let step: usize = parts.next().expect("step").parse().expect("step number");
        let hex = parts.next().expect("hex").to_owned();
        expected.insert((name, step), hex);
    }
    assert_eq!(expected.len(), 10, "golden file should hold 10 checkpoints");

    let subject_source = |name: &str| {
        library()
            .into_iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} in library"))
            .source
            .to_owned()
    };
    let subjects = [
        (
            "MP+syncs",
            subject_source("MP+syncs"),
            ModelParams::default(),
        ),
        ("2+2W", subject_source("2+2W"), ModelParams::default()),
        (
            "RMW",
            RMW_SOURCE.to_owned(),
            ModelParams {
                allow_spurious_stcx_failure: true,
                ..ModelParams::default()
            },
        ),
    ];

    let mut seen = 0;
    for (name, source, params) in subjects {
        let test = parse(&source).expect("parses");
        let mut state = build_system(&test, &params);
        let ctx = CodecCtx::for_state(&state);
        // Deterministic walk: always apply the first enabled transition,
        // checkpointing every sixth step (same recipe that captured the
        // golden file).
        for step in 0..=18 {
            if step % 6 == 0 {
                let hex: String = ctx
                    .encode(&state)
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect();
                let want = expected
                    .get(&(name.to_owned(), step))
                    .unwrap_or_else(|| panic!("{name} step {step} missing from golden file"));
                assert_eq!(
                    &hex, want,
                    "{name} step {step}: canonical bytes diverged from the \
                     committed PR 3/4/5 encoding"
                );
                seen += 1;
            }
            let ts = state.enumerate_transitions();
            let Some(t) = ts.first() else { break };
            state = state.apply(t);
        }
    }
    assert_eq!(seen, 10, "every committed checkpoint must be re-checked");
}

/// The one-shot helpers agree with the context-based API, and malformed
/// inputs are rejected rather than trusted.
#[test]
fn convenience_helpers_and_error_paths() {
    let params = ModelParams::default();
    let entry = library()
        .into_iter()
        .find(|e| e.name == "MP")
        .expect("MP in library");
    let test = parse(entry.source).expect("parses");
    let state = build_system(&test, &params);

    let bytes = encode_state(&state);
    let back = decode_state(&bytes, &state.program, &params).expect("decodes");
    assert!(back == state);
    assert_eq!(back.digest(), state.digest());

    // Truncation is an error, not UB.
    assert!(decode_state(&bytes[..bytes.len() - 1], &state.program, &params).is_err());
    // A bad version byte is rejected.
    let mut bad = bytes.clone();
    bad[0] = 0xff;
    assert!(decode_state(&bad, &state.program, &params).is_err());
    // Trailing garbage is rejected.
    let mut long = bytes;
    long.push(0);
    assert!(decode_state(&long, &state.program, &params).is_err());
}

/// Corruption sweep: corrupting a valid encoding at *every* byte
/// position must yield either a [`ppcmem::bits::DecodeError`]… or some
/// decoded state — never a panic or a pathological allocation. Two
/// passes per position: a single `0xff` byte (tag/flag corruption), and
/// a spliced-in maximal LEB128 varint (`0xff…0x01`, ≈ `u64::MAX`) so
/// every varint field in the stream is, at some position, read as a
/// huge value. The interesting victims are the dense-arena instance
/// ids (PR 5): ids index the arena directly, so an unchecked corrupt
/// id would ask `InstanceArena::insert` for a near-`usize::MAX` slot
/// vector and abort the process instead of returning the codec's
/// contractual error — likewise the thread count's former up-front
/// `Vec::with_capacity`.
#[test]
fn corrupt_byte_sweep_never_panics_or_overallocates() {
    // A maximal unsigned LEB128 varint: nine continuation bytes and a
    // terminator, decoding to a value near u64::MAX.
    let huge_varint: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];

    // Subjects chosen for stream variety, one per independently
    // digested storage component: MP (plain loads/stores), MP+syncs
    // (barrier events, barrier ids, sync acknowledgements in the
    // storage half), 2+2W with partial coherence commitments enabled
    // (coherence-order pairs in the encoded stream), and the
    // lwarx/stwcx. source (reservations and pending conditional
    // writes).
    let mut subjects: Vec<(String, ModelParams)> = ["MP", "MP+syncs"]
        .iter()
        .map(|name| {
            let entry = library()
                .into_iter()
                .find(|e| e.name == *name)
                .unwrap_or_else(|| panic!("{name} in library"));
            (entry.source.to_owned(), ModelParams::default())
        })
        .collect();
    let two_two_w = library()
        .into_iter()
        .find(|e| e.name == "2+2W")
        .expect("2+2W in library");
    subjects.push((
        two_two_w.source.to_owned(),
        ModelParams {
            coherence_commitments: true,
            ..ModelParams::default()
        },
    ));
    subjects.push((
        RMW_SOURCE.to_owned(),
        ModelParams {
            allow_spurious_stcx_failure: true,
            ..ModelParams::default()
        },
    ));

    for (source, params) in subjects {
        let test = parse(&source).expect("parses");
        let mut state = build_system(&test, &params);
        // Walk a while so threads carry live instruction instances and
        // the storage half carries real events (the initial state has
        // neither).
        for _ in 0..14 {
            let ts = state.enumerate_transitions();
            let Some(t) = ts.first() else { break };
            state = state.apply(t);
        }
        assert!(
            state.threads.iter().any(|th| !th.instances.is_empty()),
            "walk must produce instances for the sweep to corrupt their ids"
        );
        let bytes = encode_state(&state);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] = 0xff;
            // Err or a (different) state are both fine; an abort here
            // means a length/id field was trusted before validation.
            let _ = decode_state(&corrupt, &state.program, &params);

            let mut spliced = bytes[..pos].to_vec();
            spliced.extend_from_slice(&huge_varint);
            spliced.extend_from_slice(&bytes[pos..]);
            let _ = decode_state(&spliced, &state.program, &params);

            // Replace exactly one byte with the huge varint: when `pos`
            // is a single-byte varint field (instance ids, counts —
            // values < 128 encode in one byte), the rest of the stream
            // stays aligned and decodes as the original, so the huge
            // value itself reaches the consuming code rather than
            // derailing into a misalignment error first.
            let mut replaced = bytes[..pos].to_vec();
            replaced.extend_from_slice(&huge_varint);
            replaced.extend_from_slice(&bytes[pos + 1..]);
            let _ = decode_state(&replaced, &state.program, &params);
        }
    }
}
