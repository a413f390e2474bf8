//! The fixed, named test suites, their committed state counts, and the
//! seeded pass order.

use ppcmem::bits::Prng;
use ppcmem::litmus::{library, Job, TestReport};

/// What the sequential engine reports for one test. Committed in
/// `expected_counts.json`; a run also recomputes it in set-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub states: usize,
    pub transitions: usize,
    pub finals: usize,
}

impl Counts {
    pub fn of(report: &TestReport) -> Counts {
        Counts {
            states: report.states,
            transitions: report.transitions,
            finals: report.finals,
        }
    }
}

/// A suite's small tier: tests whose verdict time is mostly the fixed
/// per-verdict cost (thread or process launch, temp dirs, codec
/// context) rather than exploration.
pub const SMALL_TIER_STATES: usize = 6_000;

const COUNTS_JSON: &str = include_str!("../expected_counts.json");

/// The four mid-sized tests (26–35 k states each) of `mid8`.
pub const MID_TESTS: [&str; 4] = ["SB+syncs", "WRC+pos", "WRC+sync+addr", "2+2W"];
const MID8_SMALL: [&str; 4] = ["MP", "SB", "LB", "CoRR"];

pub struct Suite {
    pub name: &'static str,
    pub jobs: Vec<Job>,
    /// Committed counts, parallel to `jobs`.
    pub expected: Vec<Counts>,
}

impl Suite {
    /// All 30 library entries.
    pub fn library30() -> Suite {
        Suite::from_names("library30", None)
    }

    /// Four mid-sized and four small tests: small enough that the slow
    /// engines finish a pass in seconds, big enough to spill and to ship
    /// frames.
    pub fn mid8() -> Suite {
        let names: Vec<&str> = MID_TESTS.iter().chain(&MID8_SMALL).copied().collect();
        Suite::from_names("mid8", Some(&names))
    }

    fn from_names(name: &'static str, names: Option<&[&str]>) -> Suite {
        let lib = library();
        let jobs: Vec<Job> = match names {
            None => lib.iter().map(Job::from_entry).collect(),
            Some(names) => names
                .iter()
                .map(|n| {
                    let e = lib
                        .iter()
                        .find(|e| e.name == *n)
                        .unwrap_or_else(|| panic!("library has no test {n}"));
                    Job::from_entry(e)
                })
                .collect(),
        };
        let committed = parse_counts(COUNTS_JSON);
        let expected = jobs
            .iter()
            .map(|j| {
                committed
                    .iter()
                    .find(|(n, _)| *n == j.name)
                    .unwrap_or_else(|| panic!("expected_counts.json has no test {}", j.name))
                    .1
            })
            .collect();
        Suite {
            name,
            jobs,
            expected,
        }
    }

    pub fn is_small(&self, i: usize) -> bool {
        self.expected[i].states < SMALL_TIER_STATES
    }

    pub fn states_per_pass(&self) -> usize {
        self.expected.iter().map(|c| c.states).sum()
    }
}

/// Parse `expected_counts.json`: one `"name": {"states": n,
/// "transitions": n, "finals": n}` member per line.
fn parse_counts(json: &str) -> Vec<(String, Counts)> {
    json.lines()
        .filter(|l| l.contains("\"states\""))
        .map(|l| {
            let name = l.split('"').nth(1).expect("test name").to_owned();
            let field = |key: &str| -> usize {
                let at = l.find(key).unwrap_or_else(|| panic!("{name}: no {key}")) + key.len();
                l[at..]
                    .trim_start_matches([':', ' '])
                    .split(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|d| d.parse().ok())
                    .unwrap_or_else(|| panic!("{name}: bad {key}"))
            };
            let counts = Counts {
                states: field("\"states\""),
                transitions: field("\"transitions\""),
                finals: field("\"finals\""),
            };
            (name, counts)
        })
        .collect()
}

/// The order of the next pass over `n` tests: a Fisher–Yates shuffle
/// drawn from the run's generator, so a seed fixes every pass order.
pub fn pass_order(rng: &mut Prng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// Render counts in the committed file's format (`--print-counts`).
pub fn render_counts(rows: &[(String, Counts)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(n, c)| {
            format!(
                "  \"{n}\": {{\"states\": {}, \"transitions\": {}, \"finals\": {}}}",
                c.states, c.transitions, c.finals
            )
        })
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_round_trip_through_the_committed_format() {
        let rows = vec![
            (
                "MP+sync+ctrl".to_owned(),
                Counts {
                    states: 12,
                    transitions: 345,
                    finals: 6,
                },
            ),
            (
                "2+2W".to_owned(),
                Counts {
                    states: 7,
                    transitions: 8,
                    finals: 9,
                },
            ),
        ];
        assert_eq!(parse_counts(&render_counts(&rows)), rows);
    }

    #[test]
    fn suites_have_their_documented_shape() {
        let lib = Suite::library30();
        assert_eq!(lib.jobs.len(), 30);
        assert_eq!((0..30).filter(|&i| lib.is_small(i)).count(), 19);
        let mid = Suite::mid8();
        assert_eq!(mid.jobs.len(), 8);
        assert_eq!((0..8).filter(|&i| mid.is_small(i)).count(), 4);
    }

    #[test]
    fn pass_order_is_a_seeded_permutation() {
        let order = |seed| pass_order(&mut Prng::seed_from_u64(seed), 30);
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
    }
}
