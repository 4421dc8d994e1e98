//! Timers around the product's two public seams, `SearchIndex` and
//! `NodeEndpoint`. They exist only in the traced pass; the end-to-end pass
//! hands the engine the bare product types. Switched off (between traced
//! rounds) a wrapper is one relaxed atomic load and a tail call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rbc_bruteforce::Neighbor;
use rbc_core::SearchIndex;
use rbc_distributed::net::{
    NetError, NodeEndpoint, ProbeAck, QueryReply, QueryRequest, FRAME_HEADER_BYTES,
};

use crate::spans::{Layer, SpanRec, SpanSink, TraceCtl};

/// A `SearchIndex` that times every batched call into `inner`.
#[derive(Debug)]
pub struct TimedIndex<I> {
    inner: I,
    ctl: Arc<TraceCtl>,
    sink: Arc<SpanSink>,
    name: &'static str,
    layer: Layer,
    /// Query vectors of each call of a capture round, for replaying the
    /// same batches against a twin.
    captured: Arc<Mutex<Vec<Vec<Vec<f32>>>>>,
}

impl<I> TimedIndex<I> {
    /// `layer` is `IndexCall` for the wrapper the engine calls and
    /// `InnerCall` for one placed below a cache.
    pub fn new(inner: I, ctl: Arc<TraceCtl>, name: &'static str, layer: Layer) -> Self {
        Self {
            inner,
            ctl,
            sink: Arc::new(SpanSink::default()),
            name,
            layer,
            captured: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn sink(&self) -> Arc<SpanSink> {
        Arc::clone(&self.sink)
    }

    pub fn captured(&self) -> Arc<Mutex<Vec<Vec<Vec<f32>>>>> {
        Arc::clone(&self.captured)
    }
}

impl<I: SearchIndex<Query = [f32]>> SearchIndex for TimedIndex<I> {
    type Query = [f32];

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn search(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        self.inner.search(query, k)
    }

    fn search_batch(&self, queries: &[&[f32]], k: usize) -> (Vec<Vec<Neighbor>>, u64) {
        let (results, _, evals) = self.search_batch_flagged(queries, k);
        (results, evals)
    }

    fn search_batch_flagged(
        &self,
        queries: &[&[f32]],
        k: usize,
    ) -> (Vec<Vec<Neighbor>>, Vec<bool>, u64) {
        if !self.ctl.enabled() {
            return self.inner.search_batch_flagged(queries, k);
        }
        let id = self.ctl.next_id();
        let (parent, batch) = if self.layer == Layer::IndexCall {
            // One engine worker, so one batch in flight: the open call is
            // a single slot deeper wrappers read their parent from.
            self.ctl.call_span.store(id, Ordering::SeqCst);
            (self.ctl.round_span.load(Ordering::SeqCst), id)
        } else {
            let call = self.ctl.call_span.load(Ordering::SeqCst);
            (call, call)
        };
        if self.ctl.capturing() {
            let batch: Vec<Vec<f32>> = queries.iter().map(|q| q.to_vec()).collect();
            self.captured.lock().expect("capture poisoned").push(batch);
        }
        let start_ns = self.ctl.now_ns();
        let out = self.inner.search_batch_flagged(queries, k);
        let end_ns = self.ctl.now_ns();
        self.sink.push(SpanRec {
            id,
            parent,
            name: self.name,
            layer: self.layer,
            batch,
            items: queries.len() as u64,
            start_ns,
            end_ns,
        });
        out
    }
}

/// A `NodeEndpoint` that times every `execute` and, in a capture round,
/// keeps the request/reply pairs and counts the bytes their frames occupy.
#[derive(Debug)]
pub struct TimedEndpoint {
    inner: Arc<dyn NodeEndpoint>,
    ctl: Arc<TraceCtl>,
    sink: Arc<SpanSink>,
    captured: Mutex<Vec<(QueryRequest, QueryReply)>>,
    frame_bytes: AtomicU64,
}

impl TimedEndpoint {
    pub fn new(inner: Arc<dyn NodeEndpoint>, ctl: Arc<TraceCtl>) -> Self {
        Self {
            inner,
            ctl,
            sink: Arc::new(SpanSink::default()),
            captured: Mutex::new(Vec::new()),
            frame_bytes: AtomicU64::new(0),
        }
    }

    pub fn take_spans(&self) -> Vec<SpanRec> {
        self.sink.take()
    }

    pub fn take_captured(&self) -> Vec<(QueryRequest, QueryReply)> {
        std::mem::take(&mut *self.captured.lock().expect("capture poisoned"))
    }

    /// Bytes the captured exchanges occupy on the wire: both encoded bodies
    /// plus one frame header each way.
    pub fn frame_bytes(&self) -> u64 {
        self.frame_bytes.load(Ordering::SeqCst)
    }
}

impl NodeEndpoint for TimedEndpoint {
    fn node(&self) -> usize {
        self.inner.node()
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryReply, NetError> {
        if !self.ctl.enabled() {
            return self.inner.execute(request);
        }
        let call = self.ctl.call_span.load(Ordering::SeqCst);
        let start_ns = self.ctl.now_ns();
        let out = self.inner.execute(request);
        let end_ns = self.ctl.now_ns();
        self.sink.push(SpanRec {
            id: self.ctl.next_id(),
            parent: call,
            name: "dist.endpoint",
            layer: Layer::Endpoint,
            batch: call,
            items: request.queries() as u64,
            start_ns,
            end_ns,
        });
        if self.ctl.capturing() {
            if let Ok(reply) = &out {
                let bytes = request.encode().len() + reply.encode().len() + 2 * FRAME_HEADER_BYTES;
                self.frame_bytes.fetch_add(bytes as u64, Ordering::SeqCst);
                self.captured
                    .lock()
                    .expect("capture poisoned")
                    .push((request.clone(), reply.clone()));
            }
        }
        out
    }

    fn probe(&self) -> Result<ProbeAck, NetError> {
        self.inner.probe()
    }
}
