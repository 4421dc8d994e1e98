//! Benchmark-side spans: one per call into a layer, recorded from outside
//! the product, kept in memory and written out when the run ends.
//!
//! A span's **layer** is also its depth in the call chain (generator round →
//! engine request → index call → cache-to-index / cluster call → node
//! endpoint). Attribution works on the timeline, not on a tree, because a
//! micro-batch serves many requests at once: at every instant of a round the
//! time goes to the *deepest* layer with a span open. That is "span minus
//! children" generalised to overlapping parents. Wall time of a round that
//! no layer span below the round itself covers is the unattributed share.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

use crate::report::{obj, text, uint};

/// Layers, outermost first; the discriminant is the depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One round of the load generator (the root).
    Round = 0,
    /// `Engine`: submit → reply of one request.
    Request = 1,
    /// The call into the index the engine (or the offline loop) makes.
    IndexCall = 2,
    /// The call one level down: cache → index.
    InnerCall = 3,
    /// `NodeEndpoint::execute` under a cluster call.
    Endpoint = 4,
}

pub const LAYERS: [Layer; 5] = [
    Layer::Round,
    Layer::Request,
    Layer::IndexCall,
    Layer::InnerCall,
    Layer::Endpoint,
];

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub layer: Layer,
    /// Identifier shared by the spans of one round / micro-batch.
    pub batch: u64,
    /// Queries the call carried (0 where that means nothing).
    pub items: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Value {
        obj(vec![
            ("id", uint(self.id)),
            ("parent", uint(self.parent)),
            ("name", text(self.name)),
            ("batch", uint(self.batch)),
            ("items", uint(self.items)),
            ("start_ns", uint(self.start_ns)),
            ("end_ns", uint(self.end_ns)),
        ])
    }
}

/// Shared switchboard of a traced pass: whether wrappers record at all,
/// the clock epoch, span ids, and the span currently open on the (single)
/// engine worker so deeper wrappers can name their parent.
#[derive(Debug)]
pub struct TraceCtl {
    epoch: Instant,
    enabled: AtomicBool,
    /// Extra bookkeeping (request capture, byte accounting) for one round.
    capture: AtomicBool,
    next_id: AtomicU64,
    /// Id of the open round span; parent of requests and index calls.
    pub round_span: AtomicU64,
    /// Id of the open index-call span; parent of inner calls and endpoints.
    pub call_span: AtomicU64,
}

impl TraceCtl {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            capture: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            round_span: AtomicU64::new(0),
            call_span: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn capturing(&self) -> bool {
        self.capture.load(Ordering::Relaxed)
    }

    pub fn set_capture(&self, on: bool) {
        self.capture.store(on, Ordering::SeqCst);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// Where one wrapper keeps its spans until the round ends.
#[derive(Debug, Default)]
pub struct SpanSink {
    spans: Mutex<Vec<SpanRec>>,
}

impl SpanSink {
    pub fn push(&self, span: SpanRec) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Time (ns) attributed to each layer over the rounds in `spans`, by the
/// deepest-open-span rule, indexed by layer depth.
pub fn attribute(spans: &[SpanRec]) -> [u64; LAYERS.len()] {
    // Sweep over open/close events; at equal times close before open so
    // back-to-back spans do not overlap.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        events.push((s.start_ns, true, s.layer as usize));
        events.push((s.end_ns.max(s.start_ns), false, s.layer as usize));
    }
    events.sort_unstable_by_key(|&(t, open, _)| (t, open));
    let mut open = [0u32; LAYERS.len()];
    let mut totals = [0u64; LAYERS.len()];
    let mut last = 0u64;
    for (t, is_open, depth) in events {
        if let Some(deepest) = (0..LAYERS.len()).rev().find(|&d| open[d] > 0) {
            totals[deepest] += t - last;
        }
        last = t;
        if is_open {
            open[depth] += 1;
        } else {
            open[depth] -= 1;
        }
    }
    totals
}

/// Share of round wall time that no span below the round covers.
pub fn unattributed_share(totals: &[u64; LAYERS.len()]) -> f64 {
    let wall: u64 = totals.iter().sum();
    if wall == 0 {
        0.0
    } else {
        totals[Layer::Round as usize] as f64 / wall as f64
    }
}

/// Spans that start before or end after the span that caused them (beyond
/// `slack_ns` of clock-read skew). Conservation: child time ≤ parent time.
pub fn containment_violations(spans: &[SpanRec], slack_ns: u64) -> usize {
    let by_id: std::collections::HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| s.parent != 0)
        .filter(|s| match by_id.get(&s.parent) {
            Some(p) => s.start_ns + slack_ns < p.start_ns || s.end_ns > p.end_ns + slack_ns,
            None => false,
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "t",
            layer,
            batch: 0,
            items: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn time_goes_to_the_deepest_open_layer() {
        // Round 0..100; two overlapping requests 10..90; an index call
        // 30..70 with an inner call 40..60.
        let spans = vec![
            span(1, 0, Layer::Round, 0, 100),
            span(2, 1, Layer::Request, 10, 80),
            span(3, 1, Layer::Request, 20, 90),
            span(4, 1, Layer::IndexCall, 30, 70),
            span(5, 4, Layer::InnerCall, 40, 60),
        ];
        let t = attribute(&spans);
        assert_eq!(t[Layer::Round as usize], 20); // 0..10 and 90..100
        assert_eq!(t[Layer::Request as usize], 40); // 10..30 and 70..90
        assert_eq!(t[Layer::IndexCall as usize], 20); // 30..40 and 60..70
        assert_eq!(t[Layer::InnerCall as usize], 20);
        assert_eq!(t.iter().sum::<u64>(), 100);
        assert!((unattributed_share(&t) - 0.2).abs() < 1e-12);
        assert_eq!(containment_violations(&spans, 0), 0);
    }

    #[test]
    fn parallel_children_are_not_counted_twice() {
        let spans = vec![
            span(1, 0, Layer::Round, 0, 50),
            span(2, 1, Layer::IndexCall, 0, 50),
            span(3, 2, Layer::Endpoint, 10, 30),
            span(4, 2, Layer::Endpoint, 20, 40),
        ];
        let t = attribute(&spans);
        assert_eq!(t[Layer::Endpoint as usize], 30); // the union 10..40
        assert_eq!(t[Layer::IndexCall as usize], 20);
        assert_eq!(unattributed_share(&t), 0.0);
    }

    #[test]
    fn a_child_outliving_its_parent_is_a_violation() {
        let spans = vec![
            span(1, 0, Layer::IndexCall, 100, 200),
            span(2, 1, Layer::Endpoint, 150, 260),
            span(3, 1, Layer::Endpoint, 90, 120),
            span(4, 1, Layer::Endpoint, 100, 200),
        ];
        assert_eq!(containment_violations(&spans, 0), 2);
        assert_eq!(containment_violations(&spans, 100), 0);
    }
}
