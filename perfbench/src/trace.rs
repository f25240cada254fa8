//! In-memory spans for the traced run. Each client thread owns a
//! [`Tracer`] (no locks on the request path); the spans are merged,
//! reduced to self time per layer, and written out as JSON lines at the
//! end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within its tracer.
    pub id: u32,
    /// `layer.stage`, e.g. `wire.decode_request`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// The request the span belongs to (its index in the request stream).
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer is the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder with one shared epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u32,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            next_id: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request: u64,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        id
    }

    /// Reserves an id for a parent whose end is not known yet; finish it
    /// with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = now;
        }
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates span sets from several tracers, renumbering ids (and the
/// parent links with them) so they stay unique.
pub fn merge(sets: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    let mut offset = 0u32;
    for set in sets {
        let next = offset + set.iter().map(|s| s.id + 1).max().unwrap_or(0);
        out.extend(set.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        offset = next;
    }
    out
}

/// Length of the union of intervals, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to it), so overlapping children — two
/// pipelined requests in flight at once — are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = span.parent.and_then(|p| index.get(&p)) {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_ns() - covered(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Total self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.layer()).or_insert(0) += own;
    }
    out
}

/// Writes spans as JSON lines: one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Vec<Span> {
        let mut t = Tracer::new(Instant::now());
        for (i, &(name, s, e, p)) in spans.iter().enumerate() {
            t.record(name, s, e, p, i as u64);
        }
        t.into_spans()
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        // net.rtt 0..100 with children encode 0..10 and read 60..100;
        // read has a grandchild decode 90..100.
        let spans = tracer_with(&[
            ("net.rtt", 0, 100, None),
            ("client.encode", 0, 10, Some(0)),
            ("client.read", 60, 100, Some(0)),
            ("wire.decode", 90, 100, Some(2)),
        ]);
        assert_eq!(self_times(&spans), vec![50, 10, 30, 10]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["net"], 50);
        assert_eq!(by_layer["client"], 40);
        assert_eq!(by_layer["wire"], 10);
        // Self times partition the root's duration.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two pipelined requests in one window: 10..60 and 40..90 overlap
        // on 40..60, so the window's self time is 100 - 80, not 100 - 100.
        let spans = tracer_with(&[
            ("client.window", 0, 100, None),
            ("net.rtt", 10, 60, Some(0)),
            ("net.rtt", 40, 90, Some(0)),
        ]);
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = tracer_with(&[
            ("service.handle", 10, 50, None),
            ("registry.resolve", 0, 20, Some(0)),
            ("shard.query", 45, 70, Some(0)),
        ]);
        assert_eq!(self_times(&spans)[0], 40 - 10 - 5);
    }

    #[test]
    fn merging_keeps_ids_unique_and_links_intact() {
        let a = tracer_with(&[("net.rtt", 0, 10, None), ("client.encode", 0, 2, Some(0))]);
        let b = tracer_with(&[("net.rtt", 5, 15, None), ("client.encode", 5, 9, Some(0))]);
        let merged = merge(vec![a, b]);
        let ids: Vec<u32> = merged.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(self_times(&merged), vec![8, 2, 6, 4]);
    }

    #[test]
    fn open_and_close_bracket_a_parent() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("net.rtt", None, 7);
        t.time("client.encode", Some(root), 7, || std::hint::black_box(3));
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[0].layer(), "net");
    }
}
