//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. They are held in memory and written once, when the
//! run ends, as one JSON object per line.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span. `count` is 1 for a single call; an *aggregate* span stands
/// for `count` calls of one class whose busy time is `end_ns - start_ns`
/// (one span per call would be millions of lines for a sweep).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// The in-memory span log of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            count: 1,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record aggregate child spans of `parent`, laid end to end from
    /// the parent's start so that together they cover exactly the sum
    /// of their busy times. Each entry is `(name, busy_ns, calls)`.
    pub fn aggregates(&mut self, parent: u32, classes: &[(&str, u64, u64)]) {
        let mut at = self.spans[parent as usize].start_ns;
        for &(name, busy_ns, calls) in classes {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name: name.to_owned(),
                start_ns: at,
                end_ns: at + busy_ns,
                count: calls,
            });
            at += busy_ns;
        }
    }

    pub fn duration_ns(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        self_ns(&self.spans, id)
    }

    /// Write every span, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// See [`Tracer::self_ns`]. Child intervals are clipped to the parent
/// and overlapping children are counted once.
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 130),
            // Overlaps span 1 by 10 and is counted once.
            span(2, Some(0), 120, 150),
            // Sticks out of the parent by 20; only 10 is inside.
            span(3, Some(0), 190, 220),
            // A grandchild covers nothing of the root.
            span(4, Some(1), 111, 129),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - (40 + 10));
        assert_eq!(self_ns(&spans, 1), 20 - 18);
        assert_eq!(self_ns(&spans, 4), 18);
    }

    #[test]
    fn aggregates_cover_the_sum_of_their_busy_times() {
        let mut t = Tracer::new();
        let root = t.open("root", None);
        t.spans[0].end_ns = t.spans[0].start_ns + 1_000;
        t.aggregates(root, &[("a", 300, 7), ("b", 450, 9)]);
        assert_eq!(t.self_ns(root), 250);
        assert_eq!(t.spans[2].start_ns, t.spans[1].end_ns);
        assert_eq!(t.spans[2].count, 9);
    }
}
