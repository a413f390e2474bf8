//! The batch litmus-conformance harness: run a whole suite of
//! [`LitmusEntry`]s in parallel against the exhaustive oracle, with
//! per-test budgets, and report every verdict against its paper/hardware
//! expectation.
//!
//! This is the repo's standing test oracle: the §7 concurrent validation
//! ("we ran the tool on a library of litmus tests...comparing the model
//! verdicts against the architectural intent") packaged as a reusable
//! engine. Tests are distributed over a worker pool (test-level
//! parallelism composes with the oracle's own work-stealing parallelism
//! via [`ModelParams::threads`], with the per-test exploration thread
//! budget clamped by [`HarnessConfig::inner_threads_for`] so the two
//! layers never oversubscribe the machine); each test gets a state
//! budget and
//! an optional wall-clock deadline, and a truncated exploration is
//! reported as *inconclusive* rather than silently counted as a pass.

use crate::library::LitmusEntry;
use crate::run::run_limited;
use crate::test::{Expectation, LitmusTest};
use ppc_model::{ExploreLimits, ModelParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One unit of oracle work as a *reusable value*: everything needed to
/// run a litmus program through the exhaustive oracle and report the
/// verdict, owned rather than borrowed from a `&'static` library table.
///
/// The CLI binaries historically drove the harness straight from
/// [`LitmusEntry`] (static library rows); a job decouples the harness
/// from where the program came from — a library row, a file handed to
/// `oracle-client`, bytes off an `oracled` socket — so the same
/// machinery serves all frontends (`ppc_service` builds its
/// content-addressed cache keys from exactly this value).
#[derive(Clone, Debug)]
pub struct Job {
    /// Test name (reported; part of the result record).
    pub name: String,
    /// Which part of the paper/validation (or which submitter) pins the
    /// expectation.
    pub pinned_by: String,
    /// The expectation the verdict is compared against. Ad-hoc
    /// submissions without an architectural expectation conventionally
    /// use [`Expectation::Allowed`], making `match` read as "was the
    /// condition witnessed".
    pub expect: Expectation,
    /// The original `.litmus` source (retained because distributed
    /// workers re-parse it locally).
    pub source: String,
    /// The parsed test (parse once, run many).
    pub test: LitmusTest,
}

impl Job {
    /// Build a job from a library entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry's source fails to parse (library sources are
    /// fixed).
    #[must_use]
    pub fn from_entry(entry: &LitmusEntry) -> Job {
        let test = crate::parse(entry.source).expect("library test parses");
        Job {
            name: entry.name.to_owned(),
            pinned_by: entry.pinned_by.to_owned(),
            expect: entry.expect,
            source: entry.source.to_owned(),
            test,
        }
    }

    /// Build a job from raw litmus source (the `oracled` / client path).
    /// The job's name is the test's own header name.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed source.
    pub fn from_source(
        source: &str,
        expect: Expectation,
        pinned_by: &str,
    ) -> Result<Job, crate::ParseError> {
        let test = crate::parse(source)?;
        Ok(Job {
            name: test.name.clone(),
            pinned_by: pinned_by.to_owned(),
            expect,
            source: source.to_owned(),
            test,
        })
    }
}

/// Configuration for a harness run.
#[derive(Clone, Debug, Default)]
pub struct HarnessConfig {
    /// Model parameters for every test. `params.threads` is the *inner*
    /// (per-exploration) parallelism — keep it at 1 when `jobs` already
    /// saturates the machine — `params.max_states` is the per-test
    /// distinct-state budget, and `params.max_resident_states` is the
    /// per-test *resident-state* (memory) budget: each exploration keeps
    /// at most that many decoded frontier states in memory, spilling
    /// overflow to temp files through the canonical state codec, so a
    /// whole run's frontier memory is bounded by
    /// `pool × max_resident_states × sizeof(state)` regardless of how
    /// big the individual state spaces grow (`0` = unlimited).
    pub params: ModelParams,
    /// Concurrent tests (`0` = one per available CPU).
    pub jobs: usize,
    /// Per-test wall-clock budget (soft; checked between search rounds).
    pub timeout_per_test: Option<Duration>,
    /// Worker *processes* per exploration (`0` = in-process engines).
    /// When non-zero each test runs on the distributed oracle
    /// ([`crate::distrib`]): the harness binary re-executes itself as
    /// the workers, so its `main` must call
    /// [`crate::distrib::maybe_run_worker`] first.
    pub distributed: usize,
    /// Run distributed explorations over loopback TCP instead of Unix
    /// sockets (exercises the multi-machine wire path; ignored when
    /// `distributed` is `0`).
    pub tcp: bool,
}

impl HarnessConfig {
    /// The effective number of concurrent tests.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        ppc_model::resolve_threads(self.jobs)
    }

    /// The number of concurrent tests a suite of `entries` tests
    /// actually runs with — the pool never spawns more workers than
    /// there are tests.
    #[must_use]
    pub fn pool_size(&self, entries: usize) -> usize {
        self.effective_jobs().min(entries).max(1)
    }

    /// The per-test exploration thread budget when `pool` tests run
    /// concurrently: the configured `params.threads`, clamped so that
    /// `pool × threads` workers never oversubscribe the machine.
    /// Test-level parallelism is strictly more efficient than
    /// intra-exploration parallelism — tests are independent, so there
    /// is no shared visited set or stealing traffic — so when the two
    /// layers compete for cores the test pool wins and each exploration
    /// falls back toward the sequential engine (always keeping at least
    /// one worker). With a single concurrent test there is no
    /// competition, so an explicitly requested thread count is honoured
    /// as-is (e.g. `--jobs 1 --model-threads 4` drives the
    /// work-stealing engine even on a 1-CPU host, where it is the only
    /// way to exercise that engine through the harness). The clamp uses
    /// the *actual* pool size, not the configured job count, so a small
    /// suite on a big machine keeps its exploration parallelism instead
    /// of idling the spare cores.
    #[must_use]
    pub fn inner_threads_for(&self, pool: usize) -> usize {
        let want = self.params.effective_threads();
        if pool <= 1 {
            return want;
        }
        let cpus = ppc_model::resolve_threads(0);
        want.min((cpus / pool).max(1))
    }
}

/// One test's outcome in a harness run — the machine-readable row of the
/// conformance report.
#[derive(Clone, Debug, PartialEq)]
pub struct TestReport {
    /// Test name.
    pub name: String,
    /// Which part of the paper/validation pins the expectation.
    pub pinned_by: String,
    /// The paper/hardware expectation.
    pub expected: Expectation,
    /// The model's verdict for the `exists` condition.
    pub model_allows: bool,
    /// Whether the verdict matches the expectation.
    pub matches: bool,
    /// Whether the exploration hit its state budget or deadline. A
    /// truncated, unwitnessed run is *inconclusive*, not a pass.
    pub truncated: bool,
    /// Distinct observable final states.
    pub finals: usize,
    /// Distinct states visited.
    pub states: usize,
    /// Transitions fired.
    pub transitions: usize,
    /// Peak decoded frontier states resident in memory during the
    /// exploration (softly bounded by the configured
    /// `max_resident_states` when spilling is enabled).
    pub resident_peak: usize,
    /// Whether the exploration ran under a context-switch bound that
    /// actually suppressed at least one successor. A bounded run is an
    /// explicit approximation: like truncation, an unwitnessed verdict
    /// is *inconclusive*, never presented as an exhaustive "Forbidden".
    pub bounded: bool,
    /// Frontier states that round-tripped through disk (spill-to-disk
    /// traffic; `0` when `max_resident_states` is unlimited or never
    /// exceeded).
    pub spilled: usize,
    /// Distributed worker processes the exploration ran on (`0` = the
    /// in-process engines).
    pub workers: usize,
    /// Frame records the distributed coordinator forwarded to workers
    /// (the root plus every cross-shard relay; `0` in-process): the
    /// engine's codec-and-socket traffic, to set against `states`.
    pub relayed_frames: u64,
    /// Wall-clock time for the exploration.
    pub wall: Duration,
}

impl TestReport {
    /// Whether the run fully decided the verdict: either the state space
    /// was exhausted (neither truncated nor context-bounded), or a
    /// witness was found (a witness is definitive even in a truncated
    /// or bounded run).
    #[must_use]
    pub fn conclusive(&self) -> bool {
        (!self.truncated && !self.bounded) || self.model_allows
    }

    /// The model verdict as the conventional litmus word.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        if self.model_allows {
            "Allowed"
        } else {
            "Forbidden"
        }
    }

    /// One JSON object (a single line, suitable for JSONL reports).
    ///
    /// Schema evolution is *additive only*: existing fields keep their
    /// names and order (`resident_peak` was appended in the spill-store
    /// change, `bounded` in the context-bounding change, and
    /// `spilled`/`workers` in the distributed-oracle change; everything
    /// before `resident_peak` is bit-for-bit the PR 2 schema).
    /// `relayed_frames` follows `workers` on distributed rows only
    /// (`workers > 0`): an in-process row has nothing to say there, and
    /// stays byte-for-byte what earlier producers wrote.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"expected\":\"{}\",\"model\":\"{}\",\"match\":{},\"conclusive\":{},\"truncated\":{},\"states\":{},\"transitions\":{},\"finals\":{},\"wall_ms\":{:.3},\"pinned_by\":{},\"resident_peak\":{},\"bounded\":{},\"spilled\":{},\"workers\":{}{}}}",
            json_str(&self.name),
            self.expected,
            self.verdict(),
            self.matches,
            self.conclusive(),
            self.truncated,
            self.states,
            self.transitions,
            self.finals,
            self.wall.as_secs_f64() * 1e3,
            json_str(&self.pinned_by),
            self.resident_peak,
            self.bounded,
            self.spilled,
            self.workers,
            if self.workers > 0 {
                format!(",\"relayed_frames\":{}", self.relayed_frames)
            } else {
                String::new()
            },
        )
    }

    /// Parse one line of a JSONL conformance report back into a
    /// [`TestReport`] — the inverse of [`TestReport::to_json`], used by
    /// downstream tooling and by the schema-stability round-trip test.
    /// Every field of the schema
    /// (`name`/`expected`/`model`/`match`/`conclusive`/`truncated`/
    /// `states`/`transitions`/`finals`/`wall_ms`/`pinned_by`/
    /// `resident_peak`/`bounded`/`spilled`/`workers`) must be present;
    /// `relayed_frames` reads as `0` when absent (in-process rows never
    /// carry it, and distributed rows stored before it existed must keep
    /// being served under the unchanged report version). The redundant
    /// `conclusive` field must agree with the value derived from
    /// `truncated`, `bounded`, and `model` — a disagreement means the
    /// producer and consumer have drifted.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json_line(line: &str) -> Result<TestReport, String> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let get_str = |key: &str| -> Result<String, String> {
            let raw = get(key)?;
            let inner = raw
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| format!("`{key}` is not a JSON string"))?;
            json_unescape(inner).ok_or_else(|| format!("`{key}` is not a JSON string"))
        };
        let get_bool = |key: &str| -> Result<bool, String> {
            match get(key)? {
                "true" => Ok(true),
                "false" => Ok(false),
                v => Err(format!("`{key}` is not a bool: `{v}`")),
            }
        };
        let get_usize = |key: &str| -> Result<usize, String> {
            get(key)?
                .parse()
                .map_err(|_| format!("`{key}` is not an integer"))
        };
        let expected = match get_str("expected")?.as_str() {
            "Allowed" => Expectation::Allowed,
            "Forbidden" => Expectation::Forbidden,
            other => return Err(format!("unknown expectation `{other}`")),
        };
        let model_allows = match get_str("model")?.as_str() {
            "Allowed" => true,
            "Forbidden" => false,
            other => return Err(format!("unknown model verdict `{other}`")),
        };
        let wall_ms: f64 = get("wall_ms")?
            .parse()
            .map_err(|_| "`wall_ms` is not a number".to_owned())?;
        let report = TestReport {
            name: get_str("name")?,
            pinned_by: get_str("pinned_by")?,
            expected,
            model_allows,
            matches: get_bool("match")?,
            truncated: get_bool("truncated")?,
            finals: get_usize("finals")?,
            states: get_usize("states")?,
            transitions: get_usize("transitions")?,
            resident_peak: get_usize("resident_peak")?,
            bounded: get_bool("bounded")?,
            spilled: get_usize("spilled")?,
            workers: get_usize("workers")?,
            relayed_frames: match fields.iter().find(|(k, _)| *k == "relayed_frames") {
                Some((_, v)) => v
                    .parse()
                    .map_err(|_| "`relayed_frames` is not an integer".to_owned())?,
                None => 0,
            },
            wall: Duration::from_secs_f64(wall_ms / 1e3),
        };
        let conclusive = get_bool("conclusive")?;
        if conclusive != report.conclusive() {
            return Err(format!(
                "`conclusive` field ({conclusive}) disagrees with the value derived \
                 from `truncated`/`bounded`/`model` ({})",
                report.conclusive()
            ));
        }
        Ok(report)
    }
}

/// Index of the closing quote in `s`, which starts just *after* an
/// opening quote; escaped characters are skipped.
fn scan_string(s: &str) -> Result<usize, String> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Ok(i),
            _ => i += 1,
        }
    }
    Err("unterminated string".to_owned())
}

/// Tokenize a single-line *flat* JSON object (string and scalar values
/// only — the report schema has no nested containers) into its
/// `key → raw value` pairs. String values keep their surrounding quotes
/// and interior escapes; scalars are the trimmed literal text.
///
/// Unlike a per-key substring scan, one structural pass rejects what a
/// scan silently tolerates: duplicate keys (a scan reads whichever
/// comes first and masks a corrupted or maliciously doubled line),
/// trailing garbage after the closing brace (e.g. two records glued
/// onto one line by a broken appender), and key-lookalike text inside
/// string values. Unknown keys are fine — the schema is additive.
fn parse_flat_object(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let rest = line.trim();
    let mut rest = rest
        .strip_prefix('{')
        .ok_or_else(|| "not a JSON object (missing `{`)".to_owned())?
        .trim_start();
    let mut fields: Vec<(&str, &str)> = Vec::new();
    let check_tail = |tail: &str| -> Result<(), String> {
        let tail = tail.trim();
        if tail.is_empty() {
            Ok(())
        } else {
            Err(format!("trailing garbage after closing `}}`: `{tail}`"))
        }
    };
    if let Some(tail) = rest.strip_prefix('}') {
        check_tail(tail)?;
        return Ok(fields);
    }
    loop {
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| "expected a quoted key".to_owned())?;
        let kend = scan_string(after_quote)?;
        let key = &after_quote[..kend];
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
        rest = after_quote[kend + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("missing `:` after key `{key}`"))?
            .trim_start();
        let value;
        if rest.starts_with('"') {
            let vend = scan_string(&rest[1..])?;
            value = &rest[..vend + 2]; // quotes included
            rest = rest[vend + 2..].trim_start();
        } else {
            let end = rest
                .find([',', '}'])
                .ok_or_else(|| format!("unterminated value for key `{key}`"))?;
            value = rest[..end].trim();
            if value.is_empty() {
                return Err(format!("empty value for key `{key}`"));
            }
            rest = &rest[end..];
        }
        fields.push((key, value));
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            continue;
        }
        let tail = rest
            .strip_prefix('}')
            .ok_or_else(|| format!("expected `,` or `}}` after value for key `{key}`"))?;
        check_tail(tail)?;
        return Ok(fields);
    }
}

/// Decode the escapes produced by [`json_str`] (the exact inverse: the
/// reports only ever contain `\"`, `\\`, `\n`, `\t`, and `\uXXXX`).
fn json_unescape(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let v = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(v)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The aggregate result of a harness run.
#[derive(Clone, Debug)]
pub struct HarnessReport {
    /// Per-test reports, in suite order.
    pub reports: Vec<TestReport>,
    /// Total wall-clock for the whole run.
    pub wall: Duration,
}

impl HarnessReport {
    /// Tests whose conclusive verdict contradicts the expectation.
    #[must_use]
    pub fn mismatches(&self) -> Vec<&TestReport> {
        self.reports
            .iter()
            .filter(|r| r.conclusive() && !r.matches)
            .collect()
    }

    /// Tests whose exploration was truncated without finding a witness
    /// (inconclusive; listed explicitly, never silently passed).
    #[must_use]
    pub fn inconclusive(&self) -> Vec<&TestReport> {
        self.reports.iter().filter(|r| !r.conclusive()).collect()
    }

    /// Whether every test ran to a conclusive, matching verdict.
    #[must_use]
    pub fn all_conclusive_matches(&self) -> bool {
        self.reports.iter().all(|r| r.conclusive() && r.matches)
    }

    /// The whole report as JSON lines, one test per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for r in &self.reports {
            s.push_str(&r.to_json());
            s.push('\n');
        }
        s
    }

    /// A one-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let total = self.reports.len();
        let matched = self
            .reports
            .iter()
            .filter(|r| r.conclusive() && r.matches)
            .count();
        let inconclusive = self.inconclusive().len();
        let mismatched = self.mismatches().len();
        format!(
            "{total} tests: {matched} match, {mismatched} mismatch, {inconclusive} inconclusive ({:.1}s)",
            self.wall.as_secs_f64()
        )
    }
}

/// Run a whole suite through the exhaustive oracle on a worker pool.
///
/// Entries are claimed off a shared counter, so long tests don't strand
/// idle workers; the report preserves suite order regardless of
/// completion order.
#[must_use]
pub fn run_suite(entries: &[LitmusEntry], cfg: &HarnessConfig) -> HarnessReport {
    let jobs: Vec<Job> = entries.iter().map(Job::from_entry).collect();
    run_suite_jobs(&jobs, cfg)
}

/// [`run_suite`] over pre-built [`Job`]s (the reusable-value form every
/// frontend shares).
#[must_use]
pub fn run_suite_jobs(suite: &[Job], cfg: &HarnessConfig) -> HarnessReport {
    let t0 = Instant::now();
    let pool = cfg.pool_size(suite.len());
    let inner_threads = cfg.inner_threads_for(pool);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<TestReport>>> = Mutex::new(vec![None; suite.len()]);

    std::thread::scope(|s| {
        for _ in 0..pool {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = suite.get(i) else { break };
                let report = run_job_with_threads(job, cfg, inner_threads);
                slots.lock().expect("report slots poisoned")[i] = Some(report);
            });
        }
    });

    let reports = slots
        .into_inner()
        .expect("report slots poisoned")
        .into_iter()
        .map(|r| r.expect("every entry produced a report"))
        .collect();
    HarnessReport {
        reports,
        wall: t0.elapsed(),
    }
}

/// Run a single entry under the harness budgets (state budget and
/// deadline from the config). A lone test has no pool to share the
/// machine with, so the configured exploration thread count is used
/// as-is; inside [`run_suite`] the thread budget is clamped by
/// [`HarnessConfig::inner_threads_for`] instead, so the test pool and
/// the oracle's work-stealing workers share the machine rather than
/// fighting over it.
#[must_use]
pub fn run_one(entry: &LitmusEntry, cfg: &HarnessConfig) -> TestReport {
    run_job(&Job::from_entry(entry), cfg)
}

/// [`run_one`] over a pre-built [`Job`].
#[must_use]
pub fn run_job(job: &Job, cfg: &HarnessConfig) -> TestReport {
    run_job_with_threads(job, cfg, cfg.inner_threads_for(1))
}

/// [`run_job`] with an explicit exploration thread budget (the
/// suite-level clamp already resolved by the caller).
fn run_job_with_threads(job: &Job, cfg: &HarnessConfig, threads: usize) -> TestReport {
    let limits = ExploreLimits {
        threads,
        deadline: cfg.timeout_per_test.map(|t| Instant::now() + t),
        ..ExploreLimits::from_params(&cfg.params)
    };
    let t0 = Instant::now();
    let result = if cfg.distributed > 0 {
        crate::distrib::run_source_distributed(
            &job.source,
            &cfg.params,
            &limits,
            &crate::distrib::DistribConfig {
                workers: cfg.distributed,
                launch: if cfg.tcp {
                    crate::distrib::WorkerLaunch::TcpLoopback
                } else {
                    crate::distrib::WorkerLaunch::Unix
                },
                ..crate::distrib::DistribConfig::default()
            },
        )
    } else {
        run_limited(&job.test, &cfg.params, &limits)
    };
    let wall = t0.elapsed();
    let model_allows = result.witnessed;
    let matches = match job.expect {
        Expectation::Allowed => model_allows,
        Expectation::Forbidden => !model_allows,
    };
    TestReport {
        name: job.name.clone(),
        pinned_by: job.pinned_by.clone(),
        expected: job.expect,
        model_allows,
        matches,
        truncated: result.stats.truncated,
        finals: result.finals,
        states: result.stats.states,
        transitions: result.stats.transitions,
        resident_peak: result.stats.resident_peak,
        bounded: result.stats.bounded,
        spilled: result.stats.spilled_states,
        workers: cfg.distributed,
        relayed_frames: result.relayed_frames,
        wall,
    }
}
