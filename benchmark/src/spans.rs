//! Spans recorded by the traced run, and the self-time arithmetic over
//! them. A span is a named interval on the benchmark's clock with an
//! optional parent and request id; spans live in memory (one buffer per
//! thread, merged at the end) and are written out once the run is over,
//! so recording never touches the disk mid-measurement.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds from the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique across the buffers of one run (see [`SpanBuf`]).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.what`, e.g. `serve.queue`; the layer is the part before
    /// the first dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request this span belongs to (`None` for layer probes).
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span buffer. Ids are `thread_tag << 40 | sequence`, so
/// buffers from different threads merge without renumbering.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(origin: Instant, thread_tag: u64) -> Self {
        Self {
            origin,
            tag: thread_tag << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `at` (0 for instants before it).
    pub fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span between two instants; returns its id for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> u64 {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.record_ns(name, start_ns, end_ns, parent, request)
    }

    /// Records a span given origin offsets directly.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> u64 {
        let id = self.tag | self.next;
        self.next += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            request,
        });
        id
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (clamped at zero — children measured on another
/// clock may overhang their parent by a few nanoseconds).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(children))
        })
        .collect()
}

/// Per-request self time by layer: for every request id, the self times
/// of its spans summed per layer. Returns `layer → [ns per request]`
/// (one entry per request that has any span of that layer).
pub fn layer_self_per_request(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let selfs: BTreeMap<u64, u64> = self_times(spans).into_iter().collect();
    let mut per: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for s in spans {
        if let Some(req) = s.request {
            *per.entry((s.layer(), req)).or_default() += selfs[&s.id];
        }
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ((layer, _), ns) in per {
        out.entry(layer).or_default().push(ns);
    }
    out
}

/// The spans as one JSON document (`{"spans":[...]}`), for the file the
/// traced run writes when it ends.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 16);
    out.push_str("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            s.request.map_or("null".to_owned(), |r| r.to_string()),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> SpanBuf {
        SpanBuf::new(Instant::now(), 1)
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut b = buf();
        let root = b.record_ns("client.request", 0, 1_000, None, Some(7));
        let serve = b.record_ns("serve.ticket", 100, 900, Some(root), Some(7));
        b.record_ns("serve.queue", 100, 300, Some(serve), Some(7));
        b.record_ns("runtime.execute", 300, 800, Some(serve), Some(7));
        let spans = b.into_spans();
        let selfs: BTreeMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&spans[0].id], 200, "1000 - 800");
        assert_eq!(selfs[&spans[1].id], 100, "800 - (200 + 500)");
        assert_eq!(selfs[&spans[2].id], 200, "leaf keeps its duration");
        assert_eq!(selfs[&spans[3].id], 500);
        // Grandchildren are not subtracted twice: the self times add up
        // to the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 1_000);
    }

    #[test]
    fn overhanging_children_clamp_self_time_at_zero() {
        let mut b = buf();
        let root = b.record_ns("net.exchange", 0, 100, None, Some(1));
        b.record_ns("serve.ticket", 0, 120, Some(root), Some(1));
        let spans = b.into_spans();
        assert_eq!(self_times(&spans)[0].1, 0);
    }

    #[test]
    fn layer_self_time_groups_by_request_and_layer() {
        let mut b = buf();
        for req in 0..2u64 {
            let base = req * 10_000;
            let root = b.record_ns("client.request", base, base + 1_000, None, Some(req));
            let s = b.record_ns(
                "serve.ticket",
                base + 100,
                base + 900,
                Some(root),
                Some(req),
            );
            b.record_ns("serve.queue", base + 100, base + 200, Some(s), Some(req));
            b.record_ns(
                "runtime.execute",
                base + 200,
                base + 800,
                Some(s),
                Some(req),
            );
        }
        // A probe span has no request and is not charged to any layer row.
        b.record_ns("xbar.vmm_counts_batch", 50_000, 60_000, None, None);
        let per = layer_self_per_request(&b.into_spans());
        assert_eq!(per["client"], vec![200, 200]);
        // serve.ticket self (100) + serve.queue (100) per request.
        assert_eq!(per["serve"], vec![200, 200]);
        assert_eq!(per["runtime"], vec![600, 600]);
        assert!(!per.contains_key("xbar"));
    }

    #[test]
    fn thread_buffers_merge_with_distinct_ids() {
        let origin = Instant::now();
        let mut a = SpanBuf::new(origin, 1);
        let mut b = SpanBuf::new(origin, 2);
        a.record_ns("client.request", 0, 1, None, Some(0));
        b.record_ns("client.request", 0, 1, None, Some(1));
        let mut all = a.into_spans();
        all.extend(b.into_spans());
        assert_ne!(all[0].id, all[1].id);
        assert!(to_json(&all).starts_with("{\"spans\":[{\"id\":"));
    }
}
