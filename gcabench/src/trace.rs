//! The benchmark's own spans, recorded around each call it makes into a
//! layer of the program. Nothing is traced inside the program: a
//! collection cycle appears only as a child span built from the
//! telemetry record the VM kept for it.
//!
//! Spans are kept in memory and written out once, at the end of a traced
//! run, as tab-separated lines:
//!
//! ```text
//! id  parent  pass  name  start_ns  end_ns
//! ```
//!
//! `parent` is 0 for a top-level span and `pass` numbers the traced
//! passes of the run. A telemetry record carries a cycle's duration but
//! not its start, so the `gc` children of one call are laid end to end
//! from the call's start: their durations and parent are exact, their
//! placement inside the parent is not.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span (0 means "no parent").
pub type SpanId = u32;

#[derive(Debug, Clone)]
struct Span {
    parent: SpanId,
    pass: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
        }
    }

    /// Starts the next traced pass; later spans carry its number.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Opens a span named `name` under `parent` and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            parent,
            pass: self.pass,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() as SpanId
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Adds one `gc` child under `parent` for each of `cycles` telemetry
    /// records (cycle durations in nanoseconds), laid end to end from the
    /// parent's start.
    pub fn cycles(&mut self, parent: SpanId, cycles: impl IntoIterator<Item = u64>) {
        let mut at = self.spans[parent as usize - 1].start_ns;
        for ns in cycles {
            self.spans.push(Span {
                parent,
                pass: self.pass,
                name: "gc",
                start_ns: at,
                end_ns: at + ns,
            });
            at += ns;
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per span name: (count, total ns, self ns), where a span's self time
    /// is its duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child_ns[i + 1]);
        }
        out
    }

    /// Renders every span as a tab-separated line, header first.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tpass\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.pass,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A pass's handle on the tracer: every method is a no-op in an
/// untraced pass, so workload code records spans unconditionally.
#[derive(Debug)]
pub struct Spans<'a>(Option<&'a mut Tracer>);

impl<'a> Spans<'a> {
    /// Spans into `tracer`, or nowhere.
    pub fn new(tracer: Option<&'a mut Tracer>) -> Spans<'a> {
        Spans(tracer)
    }

    /// Whether this pass is traced.
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// See [`Tracer::begin`]; returns 0 when untraced.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.0.as_mut().map_or(0, |t| t.begin(name, parent))
    }

    /// See [`Tracer::end`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(t) = self.0.as_mut() {
            t.end(id);
        }
    }

    /// See [`Tracer::cycles`].
    pub fn cycles(&mut self, parent: SpanId, cycles: impl IntoIterator<Item = u64>) {
        if let Some(t) = self.0.as_mut() {
            t.cycles(parent, cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.next_pass();
        let pass = t.begin("pass", 0);
        let call = t.begin("run_once_vm", pass);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(call);
        t.cycles(call, [500_000, 250_000]);
        t.end(pass);
        let times = t.self_times();
        let (n, total, own) = times["run_once_vm"];
        assert_eq!(n, 1);
        assert_eq!(own, total - 750_000);
        let (gcs, gc_total, gc_self) = times["gc"];
        assert_eq!((gcs, gc_total, gc_self), (2, 750_000, 750_000));
        assert_eq!(times["pass"].2, times["pass"].1 - total);
        let tsv = t.to_tsv();
        assert_eq!(tsv.lines().count(), 5);
        assert!(tsv.contains("\t2\t1\tgc\t"), "{tsv}");
    }
}
