//! Litmus frontend tests: parsing, condition evaluation, and a fast
//! subset of the library run end-to-end (the full suite runs in the
//! `conformance` binary).

use crate::cond::{CondAtom, CondExpr, Quantifier};
use crate::test::Expectation;
use crate::{library, paper_section2_suite, parse, run, run_entry};
use ppc_model::ModelParams;

const MP_SRC: &str = r"POWER MP
{
0:r1=x; 0:r2=y; 0:r7=1; 0:r8=1;
1:r1=x; 1:r2=y;
x=0; y=0;
}
 P0           | P1           ;
 stw r7,0(r1) | lwz r5,0(r2) ;
 stw r8,0(r2) | lwz r4,0(r1) ;
exists (1:r5=1 /\ 1:r4=0)
";

#[test]
fn parse_mp() {
    let t = parse(MP_SRC).expect("parses");
    assert_eq!(t.name, "MP");
    assert_eq!(t.threads.len(), 2);
    assert_eq!(t.threads[0].instrs.len(), 2);
    assert_eq!(t.threads[1].instrs.len(), 2);
    assert_eq!(t.threads[0].instrs[0].mnemonic(), "stw");
    assert_eq!(t.locations.len(), 2);
    // Register inits resolved: 0:r1 = &x.
    let x = t.locations["x"];
    assert_eq!(t.threads[0].init_regs[&1], x);
    assert_eq!(t.cond.quantifier, Quantifier::Exists);
}

#[test]
fn parse_labels_and_branches() {
    let t = parse(
        r"POWER CTRL
{
0:r1=x; 0:r7=1;
x=0;
}
 P0           ;
 lwz r5,0(r1) ;
 cmpw r5,r7   ;
 beq L        ;
 L:           ;
 stw r7,0(r1) ;
exists (0:r5=0)
",
    )
    .expect("parses");
    assert_eq!(t.threads[0].instrs.len(), 4, "label is not an instruction");
    assert_eq!(t.threads[0].instrs[2].mnemonic(), "bc");
}

#[test]
fn parse_condition_operators() {
    let t = parse(
        r"POWER C
{
0:r1=x;
x=0;
}
 P0           ;
 lwz r5,0(r1) ;
exists (0:r5=0 \/ (0:r5=1 /\ ~x=2))
",
    )
    .expect("parses");
    match &t.cond.expr {
        CondExpr::Or(l, r) => {
            assert!(matches!(**l, CondExpr::Atom(CondAtom::Reg { .. })));
            assert!(matches!(**r, CondExpr::And(..)));
        }
        other => panic!("unexpected condition {other:?}"),
    }
}

#[test]
fn parse_not_exists() {
    let t = parse(
        r"POWER N
{
0:r1=x;
x=0;
}
 P0           ;
 lwz r5,0(r1) ;
~exists (0:r5=1)
",
    )
    .expect("parses");
    assert_eq!(t.cond.quantifier, Quantifier::NotExists);
}

#[test]
fn parse_rejects_wrong_arch() {
    assert!(matches!(
        parse("X86 SB\n{\n}\n P0 ;\n nop ;\nexists (0:r1=0)\n"),
        Err(crate::ParseError::WrongArch(_))
    ));
}

#[test]
fn mp_runs_and_witnesses() {
    let t = parse(MP_SRC).expect("parses");
    let r = run(&t, &ModelParams::default());
    assert!(r.witnessed, "MP relaxed outcome must be witnessed");
    assert!(r.holds, "exists condition holds");
    assert_eq!(r.finals, 4);
}

#[test]
fn library_parses_completely() {
    for e in library() {
        let t = parse(e.source).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert!(!t.threads.is_empty(), "{}", e.name);
    }
}

#[test]
fn generated_suite_parses_completely() {
    let suite = crate::generated_suite();
    assert!(suite.len() >= 40, "got {}", suite.len());
    for e in &suite {
        let t = parse(e.source).unwrap_or_else(|err| panic!("{}: {err}\n{}", e.name, e.source));
        assert!(!t.threads.is_empty(), "{}", e.name);
    }
}

/// A fast spot-check of library entries against their expectations
/// (small two-thread tests only; the full matrix is experiment E2).
#[test]
fn library_spot_checks_match() {
    let params = ModelParams::default();
    for name in ["MP", "MP+syncs", "SB+syncs", "CoRR", "CoWW", "LB"] {
        let e = library()
            .into_iter()
            .find(|e| e.name == name)
            .expect("library entry");
        let report = run_entry(&e, &params);
        assert!(
            report.matches,
            "{name}: model says witnessed={}, expected {}",
            report.result.witnessed, report.expect
        );
    }
}

#[test]
fn paper_suite_has_expected_verdicts_recorded() {
    let suite = paper_section2_suite();
    assert_eq!(suite.len(), 6);
    let verdicts: Vec<(&str, Expectation)> = suite.iter().map(|e| (e.name, e.expect)).collect();
    assert!(verdicts.contains(&("MP+sync+ctrl", Expectation::Allowed)));
    assert!(verdicts.contains(&("LB+addrs+WW", Expectation::Forbidden)));
}

// ---- conformance-report JSONL schema round-trip ----------------------

/// `TestReport::to_json` → `TestReport::from_json_line` is the identity
/// (up to the millisecond rounding of `wall_ms`), on real harness output
/// for a fast slice of the library.
#[test]
fn jsonl_report_round_trips() {
    use crate::harness::{run_suite, HarnessConfig, TestReport};

    let fast = ["CoWW", "CoRR", "MP", "LB+addrs"];
    let entries: Vec<_> = library()
        .into_iter()
        .filter(|e| fast.contains(&e.name))
        .collect();
    assert_eq!(entries.len(), fast.len(), "fast slice present in library");
    let report = run_suite(&entries, &HarnessConfig::default());

    let jsonl = report.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), report.reports.len());
    for (line, original) in lines.iter().zip(&report.reports) {
        let parsed = TestReport::from_json_line(line)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{line}"));
        // `wall_ms` is serialised at millisecond precision; everything
        // else must come back exactly.
        let wall_err = (parsed.wall.as_secs_f64() - original.wall.as_secs_f64()).abs();
        assert!(wall_err < 2e-6, "wall clock drifted {wall_err}s\n{line}");
        let mut normalised = parsed.clone();
        normalised.wall = original.wall;
        assert_eq!(&normalised, original, "fields drifted\n{line}");
    }
}

/// The JSONL schema itself is pinned: a frozen report line from the
/// current producer must keep parsing with these exact field names and
/// meanings. Renaming or dropping any of
/// name/expected/model/match/conclusive/truncated/states/transitions/
/// finals/wall_ms/pinned_by/resident_peak/bounded/spilled/workers
/// breaks this test — by
/// design, since it also breaks every downstream consumer of
/// `conformance-report.jsonl`. Schema changes are additive only:
/// `resident_peak` was appended (spill-store change), `bounded` after
/// it (context-bounding change), and `spilled`/`workers` after that
/// (distributed-oracle change); everything before `resident_peak` is
/// the PR 2 line, fields in the same order. `relayed_frames` came last
/// and is the one field a reader may find missing: only distributed
/// rows carry it, and result stores written before it hold lines like
/// `frozen` below, which must keep parsing.
#[test]
fn jsonl_schema_is_stable() {
    use crate::harness::TestReport;

    let frozen = r#"{"name":"MP+sync+\"q\"","expected":"Allowed","model":"Forbidden","match":false,"conclusive":true,"truncated":false,"states":1155,"transitions":3383,"finals":4,"wall_ms":42.125,"pinned_by":"baseline\treordering","resident_peak":96,"bounded":false,"spilled":31,"workers":2}"#;
    let r = TestReport::from_json_line(frozen).expect("frozen schema line parses");
    assert_eq!(r.name, "MP+sync+\"q\"");
    assert_eq!(r.expected, Expectation::Allowed);
    assert!(!r.model_allows);
    assert!(!r.matches);
    assert!(!r.truncated);
    assert!(!r.bounded);
    assert!(r.conclusive());
    assert_eq!(r.states, 1155);
    assert_eq!(r.transitions, 3383);
    assert_eq!(r.finals, 4);
    assert_eq!(r.resident_peak, 96);
    assert_eq!(r.spilled, 31);
    assert_eq!(r.workers, 2);
    assert!((r.wall.as_secs_f64() - 0.042_125).abs() < 1e-9);
    assert_eq!(r.pinned_by, "baseline\treordering");

    // A `conclusive` flag that contradicts `truncated`/`bounded`/`model`
    // is a producer/consumer drift and must be rejected, not repaired.
    let drifted = frozen.replace("\"conclusive\":true", "\"conclusive\":false");
    assert!(TestReport::from_json_line(&drifted).is_err());

    // Missing fields are errors, never defaults — including the
    // appended `resident_peak` and `bounded`.
    let missing = frozen.replace("\"states\":1155,", "");
    assert!(TestReport::from_json_line(&missing).is_err());
    let missing_peak = frozen.replace(",\"resident_peak\":96", "");
    assert!(TestReport::from_json_line(&missing_peak).is_err());
    let missing_bounded = frozen.replace(",\"bounded\":false", "");
    assert!(TestReport::from_json_line(&missing_bounded).is_err());
    let missing_spilled = frozen.replace(",\"spilled\":31", "");
    assert!(TestReport::from_json_line(&missing_spilled).is_err());
    let missing_workers = frozen.replace(",\"workers\":2", "");
    assert!(TestReport::from_json_line(&missing_workers).is_err());

    // `relayed_frames`: absent reads as 0, present is read, malformed
    // is an error like any other field.
    assert_eq!(r.relayed_frames, 0);
    let relayed = |v: &str| {
        frozen.replace(
            "\"workers\":2",
            &format!("\"workers\":2,\"relayed_frames\":{v}"),
        )
    };
    let with = TestReport::from_json_line(&relayed("1279")).expect("appended field parses");
    assert_eq!(with.relayed_frames, 1279);
    assert!(TestReport::from_json_line(&relayed("\"many\"")).is_err());
}

/// Escaped names survive the full serialise → parse cycle.
#[test]
fn jsonl_escaping_round_trips() {
    use crate::harness::TestReport;
    use std::time::Duration;

    let original = TestReport {
        name: "weird \"name\"\\with\nescapes\tand \u{1} control".to_owned(),
        pinned_by: "§2.1.1 (\"quoted\")".to_owned(),
        expected: Expectation::Forbidden,
        model_allows: false,
        matches: true,
        truncated: true,
        finals: 0,
        states: 17,
        transitions: 23,
        resident_peak: 5,
        bounded: false,
        spilled: 0,
        workers: 2,
        relayed_frames: 9,
        wall: Duration::from_micros(1500),
    };
    let line = original.to_json();
    let parsed = TestReport::from_json_line(&line).expect("parses");
    assert_eq!(parsed, original);
    assert!(
        !parsed.conclusive(),
        "truncated + unwitnessed must parse back as inconclusive"
    );
}

/// The report parser is a structural pass over the whole line, not a
/// per-key substring scan: corrupted lines that a scan would silently
/// tolerate — duplicated keys, two records glued onto one line, junk
/// after the closing brace — must be rejected, while unknown keys
/// (additive schema evolution) must be accepted.
#[test]
fn jsonl_parser_rejects_malformed_lines() {
    use crate::harness::TestReport;

    let good = r#"{"name":"MP","expected":"Allowed","model":"Allowed","match":true,"conclusive":true,"truncated":false,"states":100,"transitions":300,"finals":3,"wall_ms":1.000,"pinned_by":"x","resident_peak":9,"bounded":false,"spilled":0,"workers":0}"#;
    assert!(TestReport::from_json_line(good).is_ok());

    // A future producer may append fields; unknown keys are ignored.
    let extended = good.replace(",\"workers\":0}", ",\"workers\":0,\"new_field\":\"v\"}");
    assert!(TestReport::from_json_line(&extended).is_ok());

    // Duplicate keys: a field-order scan would read the first and mask
    // the disagreement; the parser reports the duplication.
    let dup = good.replace("\"states\":100,", "\"states\":100,\"states\":200,");
    let err = TestReport::from_json_line(&dup).expect_err("duplicate key accepted");
    assert!(err.contains("duplicate key `states`"), "got: {err}");

    // Trailing garbage after the object — e.g. two records on one line.
    for tail in ["{}", good, "x", ","] {
        let glued = format!("{good}{tail}");
        let err = TestReport::from_json_line(&glued).expect_err("trailing garbage accepted");
        assert!(err.contains("trailing garbage"), "got: {err}");
    }

    // Structural malformations.
    for bad in [
        "",
        "null",
        "[1,2]",
        "{\"name\"}",
        "{\"name\":}",
        "{\"name\":\"unterminated}",
        "{\"name\":\"MP\",}",
        &good[..good.len() - 1], // missing closing brace
    ] {
        assert!(
            TestReport::from_json_line(bad).is_err(),
            "malformed line accepted: {bad}"
        );
    }

    // A key-lookalike inside a *string value* must not satisfy the
    // lookup for the real key (a substring scan would match it).
    let name_smuggles_states = good
        .replace("\"name\":\"MP\"", "\"name\":\"\\\"states\\\":7\"")
        .replace("\"states\":100,", "");
    let err = TestReport::from_json_line(&name_smuggles_states).expect_err("smuggled key used");
    assert!(err.contains("missing `states`"), "got: {err}");
}

// ---- context-bounded reporting ---------------------------------------

/// A context-bounded run that suppressed successors reports
/// `bounded:true` and survives the JSONL round-trip; the same test
/// without a bound keeps `bounded:false`. The two must never be
/// conflated — the flag is exactly how a consumer tells an
/// explicitly-approximate fast-tier line from an exhaustive one.
#[test]
fn bounded_run_reports_honestly_and_round_trips() {
    use crate::harness::{run_one, HarnessConfig, TestReport};

    let entries = library();
    let mp = entries
        .iter()
        .find(|e| e.name == "MP")
        .expect("MP in library");

    // A 1-switch bound cannot cover MP's storage propagation plus both
    // threads, so some successor must be suppressed.
    let mut cfg = HarnessConfig::default();
    cfg.params.max_context_switches = 1;
    let report = run_one(mp, &cfg);
    assert!(
        report.bounded,
        "a 1-switch bound must suppress successors on MP"
    );

    let parsed = TestReport::from_json_line(&report.to_json()).expect("bounded line parses");
    assert_eq!(parsed.bounded, report.bounded);
    assert_eq!(parsed.finals, report.finals);
    assert_eq!(parsed.conclusive(), report.conclusive());

    // The unbounded run of the same test must not set the flag.
    let full = run_one(mp, &HarnessConfig::default());
    assert!(!full.bounded);
    assert!(full.conclusive());
}

/// The truncation contract extends to bounding: a bounded, unwitnessed
/// report is inconclusive no matter what else it claims, a witness is
/// definitive even under a bound, and a serialised line asserting a
/// conclusive unwitnessed bounded verdict is rejected as drift.
#[test]
fn bounded_unwitnessed_is_never_conclusive() {
    use crate::harness::TestReport;
    use std::time::Duration;

    let r = TestReport {
        name: "B".to_owned(),
        pinned_by: "truncation contract".to_owned(),
        expected: Expectation::Forbidden,
        model_allows: false,
        matches: true,
        truncated: false,
        finals: 2,
        states: 10,
        transitions: 12,
        resident_peak: 3,
        bounded: true,
        spilled: 0,
        workers: 0,
        relayed_frames: 0,
        wall: Duration::from_millis(1),
    };
    assert!(
        !r.conclusive(),
        "bounded + unwitnessed must be inconclusive"
    );
    let witnessed = TestReport {
        model_allows: true,
        ..r.clone()
    };
    assert!(
        witnessed.conclusive(),
        "a witness is definitive under a bound"
    );

    let line = r
        .to_json()
        .replace("\"conclusive\":false", "\"conclusive\":true");
    assert!(TestReport::from_json_line(&line).is_err());
}

/// The checkpoint fingerprint of a default-params job is pinned: the
/// params encoding keeps a literal 32 in the slot of the retired
/// steal-batch knob, so checkpoints written before its removal (such as
/// the committed `mp_unreduced.ck`) still resume.
#[test]
fn default_params_job_digest_is_pinned() {
    assert_eq!(
        crate::distrib::job_digest(MP_SRC, &ModelParams::default()),
        0xb66c_5404_4a98_f6cf
    );
}
