//! Spans recorded by the benchmark itself around its calls into each
//! layer, kept in memory and written out when the run ends. Only the
//! traced run records any.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::self_time;

/// One timed interval. `parent` is the id of the span that caused it (0
/// for a root); spans of one request share `key`, the query's index in
/// the workload's stream.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub key: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-threaded span recorder; each client thread owns one and the
/// run merges them at the end, so recording takes no lock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run so their clocks agree;
    /// `first_id` keeps ids of different recorders apart.
    pub fn new(epoch: Instant, first_id: u32) -> Self {
        Self {
            epoch,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span whose end is not known yet.
    pub fn open(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    pub fn close(
        &mut self,
        id: u32,
        parent: u32,
        key: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            id,
            parent,
            key,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as a child span of `parent` and returns its result with
    /// the measured nanoseconds.
    pub fn child<T>(
        &mut self,
        parent: u32,
        key: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open();
        let start = self.now();
        let out = f();
        let end = self.now();
        self.close(id, parent, key, name, start, end);
        (out, end - start)
    }
}

/// Per span name: how many, their summed duration, and their summed self
/// time (duration minus what their children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_time((s.start_ns, s.end_ns), kids);
    }
    out
}

/// Writes the spans as one JSON document, one span per line.
pub fn write_json(path: &std::path::Path, workload: &str, spans: &[&Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"key\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}{comma}",
            s.id, s.parent, s.key, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_per_name_subtracts_what_children_cover() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            key: 0,
            name,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "write", 10, 30),
            span(3, 1, "wait", 25, 80),
            span(4, 0, "request", 100, 150),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["request"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 30 + 50
            }
        );
        assert_eq!(totals["wait"].self_ns, 55);
    }

    #[test]
    fn recorder_parents_children_under_the_open_span() {
        let mut rec = Recorder::new(Instant::now(), 100);
        let root = rec.open();
        let start = rec.now();
        let (value, _) = rec.child(root, 7, "inner", || 42);
        let end = rec.now();
        rec.close(root, 0, 7, "outer", start, end);
        assert_eq!(value, 42);
        assert_eq!(rec.spans[0].parent, root);
        assert_eq!(rec.spans[1].id, root);
        assert!(rec.spans[0].start_ns >= rec.spans[1].start_ns);
        assert!(rec.spans[0].end_ns <= rec.spans[1].end_ns);
    }
}
