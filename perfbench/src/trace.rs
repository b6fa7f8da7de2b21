//! The benchmark's own tracing: an in-memory span recorder and the timing
//! decorators it wraps around the trait objects it hands the program.
//!
//! The timing decorators ([`TracedExpert`], [`TracedCodec`], [`TracedA2A`],
//! and [`Tap`] with a recorder) are installed only for the traced run; they
//! forward every call unchanged and record one span per call. A [`Tap`]
//! with a clock is the one wrapper both runs share: it only notes the
//! instant a rank first sends in each training-step tag window, which is
//! how the benchmark sees step boundaries of a loop it does not drive.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use schemoe_cluster::transport::{LinkClosed, RawRecvError};
use schemoe_cluster::{FabricError, Rank, RankHandle, Topology, Transport};
use schemoe_collectives::{A2aPlan, AllToAll, TAG_STRIDE};
use schemoe_compression::{CompressionError, Compressor};
use schemoe_moe::Expert;
use schemoe_tensor::nn::Param;
use schemoe_tensor::Tensor;

/// Tags at or above this are control-plane traffic, not a step window.
pub const STEP_TAG_CEILING: u64 = 1 << 48;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One training step, as the benchmark's loop drives it.
    Step,
    /// The benchmark's call into the MoE layer's forward.
    MoeFwd,
    /// The benchmark's call into the MoE layer's backward (with the
    /// folded replicated-gradient allreduce).
    MoeBwd,
    /// One `Expert::forward` call (forward or backward recompute).
    ExpertFwd,
    /// One `Expert::backward` call.
    ExpertBwd,
    /// One `Compressor::compress` call.
    Encode,
    /// One `Compressor::decompress` call.
    Decode,
    /// One `AllToAll::all_to_all` call.
    A2a,
    /// One `Transport::send_raw` call (shaping stall included).
    Send,
    /// One `Transport::recv_raw` call: time blocked on the wire.
    RecvWait,
    /// One `decide_plan` call.
    PlanDecide,
    /// Installing one committed placement (guest bodies + swap).
    PlanApply,
}

impl Kind {
    /// Stable label used in trace files.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Step => "step",
            Kind::MoeFwd => "moe.fwd",
            Kind::MoeBwd => "moe.bwd",
            Kind::ExpertFwd => "expert.fwd",
            Kind::ExpertBwd => "expert.bwd",
            Kind::Encode => "codec.encode",
            Kind::Decode => "codec.decode",
            Kind::A2a => "a2a",
            Kind::Send => "transport.send",
            Kind::RecvWait => "transport.recv_wait",
            Kind::PlanDecide => "placement.decide",
            Kind::PlanApply => "placement.apply",
        }
    }
}

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// The step this span belongs to (the request identifier).
    pub step: u64,
    /// Recording thread, numbered in first-use order.
    pub tid: u32,
    /// Bytes or rows the call handled (0 when not meaningful).
    pub arg: u64,
    /// Peer rank of a transport span (0 otherwise).
    pub peer: u32,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn tid() -> u32 {
    TID.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// One rank's span store. Spans stay in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    step: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin` (shared by all
    /// ranks of a run, so their spans line up).
    pub fn new(origin: Instant) -> Arc<Self> {
        Arc::new(Recorder {
            origin,
            step: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Marks the step subsequent spans belong to.
    pub fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
    }

    /// Records a span from `start` until now.
    pub fn record(&self, kind: Kind, start: u64, arg: u64) {
        let step = self.step.load(Ordering::Relaxed);
        self.record_in(kind, start, arg, step, 0);
    }

    fn record_in(&self, kind: Kind, start: u64, arg: u64, step: u64, peer: Rank) {
        let span = Span {
            kind,
            start,
            end: self.now(),
            step,
            tid: tid(),
            arg,
            peer: peer as u32,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Drains every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Renders every rank's spans as one Chrome trace (`chrome://tracing`).
pub fn chrome_json(per_rank: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (rank, spans) in per_rank.iter().enumerate() {
        for s in spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{rank},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"step\":{},\"arg\":{}}}}}",
                s.kind.label(),
                s.tid,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.step,
                s.arg
            );
        }
    }
    out.push_str("]}\n");
    out
}

/// Step window of a fabric tag, if it is step traffic.
fn step_of(tag: u64) -> Option<u64> {
    (tag < STEP_TAG_CEILING).then_some(tag / TAG_STRIDE)
}

/// Instants at which a rank first sent in each step tag window.
#[derive(Default)]
pub struct ClockMarks {
    next: AtomicU64,
    marks: Mutex<Vec<Instant>>,
}

impl ClockMarks {
    /// Drains the marks and rewinds to window 0 (the next training loop
    /// starts its tags from zero again).
    pub fn take(&self) -> Vec<Instant> {
        let mut marks = self.marks.lock().expect("clock marks poisoned");
        self.next.store(0, Ordering::SeqCst);
        std::mem::take(&mut *marks)
    }

    fn note(&self, tag: u64) {
        let Some(window) = step_of(tag) else { return };
        if window < self.next.load(Ordering::Relaxed) {
            return;
        }
        let mut marks = self.marks.lock().expect("clock marks poisoned");
        if window as usize == marks.len() {
            marks.push(Instant::now());
            self.next.store(window + 1, Ordering::Relaxed);
        }
    }
}

/// The benchmark's wrapper beneath the fabric. It forwards every call;
/// with `clock` it notes the first send of each step window (tags grow by
/// [`TAG_STRIDE`] per attempt), and with `rec` it times every raw send and
/// receive.
pub struct Tap {
    inner: Box<dyn Transport>,
    clock: Option<Arc<ClockMarks>>,
    rec: Option<Arc<Recorder>>,
}

impl Tap {
    pub fn new(
        inner: Box<dyn Transport>,
        clock: Option<Arc<ClockMarks>>,
        rec: Option<Arc<Recorder>>,
    ) -> Self {
        Tap { inner, clock, rec }
    }
}

impl Transport for Tap {
    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send_raw(&self, to: Rank, tag: u64, payload: Bytes) -> Result<(), LinkClosed> {
        if let Some(clock) = &self.clock {
            clock.note(tag);
        }
        let Some(rec) = &self.rec else {
            return self.inner.send_raw(to, tag, payload);
        };
        let t0 = rec.now();
        let len = payload.len() as u64;
        let out = self.inner.send_raw(to, tag, payload);
        let step = step_of(tag).unwrap_or_else(|| rec.step.load(Ordering::Relaxed));
        rec.record_in(Kind::Send, t0, len, step, to);
        out
    }

    fn recv_raw(
        &self,
        from: Rank,
        timeout: Option<Duration>,
    ) -> Result<(u64, Bytes), RawRecvError> {
        let Some(rec) = &self.rec else {
            return self.inner.recv_raw(from, timeout);
        };
        let t0 = rec.now();
        let out = self.inner.recv_raw(from, timeout);
        let (step, len) = match &out {
            Ok((tag, p)) => (step_of(*tag), p.len() as u64),
            Err(_) => (None, 0),
        };
        let step = step.unwrap_or_else(|| rec.step.load(Ordering::Relaxed));
        rec.record_in(Kind::RecvWait, t0, len, step, from);
        out
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn post_death(&self, rank: Rank) {
        self.inner.post_death(rank);
    }

    fn peer_dead(&self, rank: Rank) -> bool {
        self.inner.peer_dead(rank)
    }

    fn clear_death(&self, rank: Rank) {
        self.inner.clear_death(rank);
    }

    fn always_framed(&self) -> bool {
        self.inner.always_framed()
    }

    fn reconnectable(&self) -> bool {
        self.inner.reconnectable()
    }

    fn reset_link(&self, to: Rank) {
        self.inner.reset_link(to);
    }
}

/// Times every expert call.
pub struct TracedExpert {
    inner: Box<dyn Expert>,
    rec: Arc<Recorder>,
}

impl TracedExpert {
    pub fn new(inner: Box<dyn Expert>, rec: Arc<Recorder>) -> Self {
        TracedExpert { inner, rec }
    }
}

impl Expert for TracedExpert {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let t0 = self.rec.now();
        let y = self.inner.forward(x);
        self.rec.record(Kind::ExpertFwd, t0, x.dims()[0] as u64);
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let t0 = self.rec.now();
        let dx = self.inner.backward(dy);
        self.rec.record(Kind::ExpertBwd, t0, dy.dims()[0] as u64);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }

    fn forward_flops(&self, n: usize) -> u64 {
        self.inner.forward_flops(n)
    }

    fn model_dim(&self) -> usize {
        self.inner.model_dim()
    }
}

/// Encoded (raw f32 bytes, wire bytes) of one rank, shared with the run.
pub type CodecBytes = Arc<Mutex<(u64, u64)>>;

/// Times every encode/decode and counts bytes in and out of the encoder.
pub struct TracedCodec {
    inner: Box<dyn Compressor>,
    rec: Arc<Recorder>,
    bytes: CodecBytes,
}

impl TracedCodec {
    pub fn new(inner: Box<dyn Compressor>, rec: Arc<Recorder>, bytes: CodecBytes) -> Self {
        TracedCodec { inner, rec, bytes }
    }
}

impl Compressor for TracedCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress(&self, data: &[f32]) -> Bytes {
        let t0 = self.rec.now();
        let out = self.inner.compress(data);
        let raw = (data.len() * 4) as u64;
        self.rec.record(Kind::Encode, t0, raw);
        let mut b = self.bytes.lock().expect("codec bytes poisoned");
        b.0 += raw;
        b.1 += out.len() as u64;
        out
    }

    fn decompress(&self, payload: &[u8], n_elems: usize) -> Result<Vec<f32>, CompressionError> {
        let t0 = self.rec.now();
        let out = self.inner.decompress(payload, n_elems);
        self.rec.record(Kind::Decode, t0, payload.len() as u64);
        out
    }

    fn compressed_len(&self, n_elems: usize) -> usize {
        self.inner.compressed_len(n_elems)
    }

    fn is_lossless(&self) -> bool {
        self.inner.is_lossless()
    }

    fn ratio(&self) -> f64 {
        self.inner.ratio()
    }
}

/// Times every all-to-all and counts the cross-rank bytes it sends.
pub struct TracedA2A {
    inner: Box<dyn AllToAll>,
    rec: Arc<Recorder>,
}

impl TracedA2A {
    pub fn new(inner: Box<dyn AllToAll>, rec: Arc<Recorder>) -> Self {
        TracedA2A { inner, rec }
    }
}

impl AllToAll for TracedA2A {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn all_to_all(
        &self,
        handle: &mut RankHandle,
        chunks: Vec<Bytes>,
        tag_base: u64,
    ) -> Result<Vec<Bytes>, FabricError> {
        let me = handle.rank();
        let cross: usize = chunks
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != me)
            .map(|(_, c)| c.len())
            .sum();
        let t0 = self.rec.now();
        let out = self.inner.all_to_all(handle, chunks, tag_base);
        self.rec.record(Kind::A2a, t0, cross as u64);
        out
    }

    fn plan(&self, topo: &Topology, input_bytes: u64) -> A2aPlan {
        self.inner.plan(topo, input_bytes)
    }

    fn staging_bytes(&self, topo: &Topology, input_bytes: u64) -> u64 {
        self.inner.staging_bytes(topo, input_bytes)
    }
}
