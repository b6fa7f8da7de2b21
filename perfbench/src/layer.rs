//! The workloads that drive `distributed_full_step` directly:
//! `moe_overlap`, `a2a_tcp` and `moe_skew`.
//!
//! Each rank builds a [`DistributedMoeLayer`] from the benchmark's gate,
//! experts, codec and all-to-all, and runs one full step (forward, backward
//! with the folded replicated-gradient allreduce) per batch. `moe_skew`
//! additionally runs the placement quantum every [`QUANTUM`] steps:
//! a load-report allgather, `decide_plan`, and guest-expert installs
//! through the layer's public API.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::Rng;
use schemoe_cluster::transport::TransportKind;
use schemoe_cluster::{FabricError, Rank, RankHandle, Transport};
use schemoe_collectives::{AllToAll, NcclA2A, TAG_STRIDE};
use schemoe_compression::{Compressor, NoCompression, ZfpCompressor};
use schemoe_models::distributed_full_step;
use schemoe_models::ft::ALLREDUCE_LANE;
use schemoe_moe::{
    decide_plan, DistributedMoeLayer, Expert, FfExpert, GradAllreduce, LoadReport, PolicyConfig,
    TopKGate,
};
use schemoe_tensor::rng::{seeded, uniform};
use schemoe_tensor::Tensor;

use crate::trace::{CodecBytes, Kind, Recorder, Span, TracedA2A, TracedCodec};
use crate::trace::{Tap, TracedExpert};
use crate::world::{self, Net, Shaping, WORLD};
use crate::{mix, Budget};

/// Distinct input batches per rank (per hot-set phase on `moe_skew`).
const POOL: usize = 4;
/// Warm-up steps run during set-up, before timing starts.
const WARMUP: usize = 2;
/// `moe_skew`: steps between placement quanta.
pub const QUANTUM: usize = 8;
/// `moe_skew`: steps between hot-set rotations.
const ROTATE_EVERY: usize = 64;
/// `moe_skew`: candidate tokens classified by the seeded gate.
const CANDIDATES: usize = 4096;
/// `moe_skew`: Zipf(1.8) routing shares over the four expert positions.
const ZIPF: [f64; 4] = [0.663, 0.190, 0.092, 0.055];
/// Control-plane tag base of the placement quantum (above step windows).
const PLACEMENT_TAG: u64 = 1 << 50;

/// Payload codec of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    Fp32,
    Zfp,
}

/// One layer workload's shape and wiring.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub net: Net,
    pub m: usize,
    pub h: usize,
    pub n_local: usize,
    pub k: usize,
    pub experts_per_rank: usize,
    pub degree: usize,
    pub capacity: f64,
    pub codec: Codec,
    /// Length of the replicated-gradient block reduced in the backward.
    pub replicated: usize,
    /// Zipf-routed batches and the placement quantum.
    pub skew: bool,
}

impl Spec {
    pub fn experts(&self) -> usize {
        WORLD * self.experts_per_rank
    }

    /// Global tokens per step.
    pub fn tokens_per_step(&self) -> usize {
        WORLD * self.n_local
    }

    fn codec_box(&self) -> Box<dyn Compressor> {
        match self.codec {
            Codec::Fp32 => Box::new(NoCompression),
            Codec::Zfp => Box::new(ZfpCompressor::default()),
        }
    }
}

pub const MOE_OVERLAP: Spec = Spec {
    name: "moe_overlap",
    net: Net {
        kind: TransportKind::Channel,
        shaping: Some(Shaping {
            latency: Duration::from_micros(200),
            bytes_per_sec: 5_000_000,
        }),
    },
    m: 128,
    h: 512,
    n_local: 256,
    k: 2,
    experts_per_rank: 1,
    degree: 2,
    capacity: 1.5,
    codec: Codec::Zfp,
    replicated: 65_536,
    skew: false,
};

pub const A2A_TCP: Spec = Spec {
    name: "a2a_tcp",
    net: Net {
        kind: TransportKind::Tcp,
        shaping: None,
    },
    m: 1024,
    h: 8,
    n_local: 512,
    k: 2,
    experts_per_rank: 1,
    degree: 1,
    capacity: 2.0,
    codec: Codec::Fp32,
    replicated: 65_536,
    skew: false,
};

pub const MOE_SKEW: Spec = Spec {
    name: "moe_skew",
    net: Net {
        kind: TransportKind::Channel,
        shaping: Some(Shaping {
            latency: Duration::from_micros(60),
            bytes_per_sec: 8 << 20,
        }),
    },
    m: 64,
    h: 256,
    n_local: 256,
    k: 1,
    experts_per_rank: 2,
    degree: 2,
    capacity: 2.5,
    codec: Codec::Fp32,
    replicated: 4096,
    skew: true,
};

/// Every rank's inputs, generated from the seed before any timing.
pub struct Inputs {
    /// `batches[rank][i]`; on `moe_skew` phase `p` owns `p*POOL..(p+1)*POOL`.
    batches: Vec<Vec<Tensor>>,
    /// Each rank's replicated-gradient block, copied fresh every step.
    replicated: Vec<Vec<f32>>,
    skew: bool,
}

impl Inputs {
    /// Pool index of the batch step `step` uses.
    pub fn index(&self, step: usize) -> usize {
        if self.skew {
            ((step / ROTATE_EVERY) % 2) * POOL + step % POOL
        } else {
            step % POOL
        }
    }

    fn batch(&self, rank: Rank, step: usize) -> &Tensor {
        &self.batches[rank][self.index(step)]
    }
}

/// Model weights are part of a layer workload's definition: `--seed`
/// varies only the inputs, so `loss_final` moves with the data alone.
const MODEL_SEED: u64 = 0x5EED;

fn gate_seed() -> u64 {
    mix(MODEL_SEED, 1)
}

fn expert_seed(e: usize) -> u64 {
    mix(MODEL_SEED, 100 + e as u64)
}

/// Builds every rank's batches. `moe_skew` draws each row from a pool of
/// candidates classified by the run's own seeded gate (top-1, capacity
/// wide open), so routing follows [`ZIPF`]; the hot positions shift by
/// two experts (onto the other rank) every [`ROTATE_EVERY`] steps.
pub fn build_inputs(spec: &Spec, seed: u64) -> Inputs {
    let replicated = (0..WORLD)
        .map(|r| {
            uniform(
                &[spec.replicated],
                1.0,
                &mut seeded(mix(seed, 200 + r as u64)),
            )
            .into_vec()
        })
        .collect();
    let batches = if spec.skew {
        skew_batches(spec, seed)
    } else {
        (0..WORLD)
            .map(|r| {
                (0..POOL)
                    .map(|i| {
                        let s = mix(seed, 300 + (r * POOL + i) as u64);
                        uniform(&[spec.n_local, spec.m], 1.0, &mut seeded(s))
                    })
                    .collect()
            })
            .collect()
    };
    Inputs {
        batches,
        replicated,
        skew: spec.skew,
    }
}

fn skew_batches(spec: &Spec, seed: u64) -> Vec<Vec<Tensor>> {
    let e_total = spec.experts();
    assert_eq!(e_total, ZIPF.len(), "Zipf profile covers four experts");
    let pool = uniform(&[CANDIDATES, spec.m], 1.0, &mut seeded(mix(seed, 400)));
    let mut probe = TopKGate::new(spec.m, e_total, 1, 64.0, &mut seeded(gate_seed()));
    let decision = probe.forward(&pool);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); e_total];
    for (t, picks) in decision.assignments.iter().enumerate() {
        if let Some(&(e, _)) = picks.first() {
            buckets[e].push(t);
        }
    }
    assert!(
        buckets.iter().all(|b| !b.is_empty()),
        "every expert needs candidate tokens"
    );
    (0..WORLD)
        .map(|rank| {
            (0..2 * POOL)
                .map(|i| {
                    let rotate = (i / POOL) * 2;
                    let mut rng = seeded(mix(seed, 500 + (rank * 2 * POOL + i) as u64));
                    let mut x = Tensor::zeros(&[spec.n_local, spec.m]);
                    for row in 0..spec.n_local {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        let mut acc = 0.0;
                        let pos = ZIPF
                            .iter()
                            .position(|s| {
                                acc += s;
                                u < acc
                            })
                            .unwrap_or(ZIPF.len() - 1);
                        let bucket = &buckets[(pos + rotate) % e_total];
                        let pick = bucket[rng.gen_range(0..bucket.len())];
                        x.row_mut(row).copy_from_slice(pool.row(pick));
                    }
                    x
                })
                .collect()
        })
        .collect()
}

/// One committed placement: version, per-expert servers, capacity bits.
pub type PlanRecord = (u64, Vec<Vec<usize>>, Option<u64>);

/// What one rank observed over a world's lifetime.
#[derive(Default)]
pub struct RankOut {
    /// When this rank's world started and when its set-up ended.
    pub setup: Option<(Instant, Instant)>,
    /// Wall-clock interval of every timed step.
    pub steps: Vec<(Instant, Instant)>,
    /// `½‖y‖²` per token of the last occurrence of each pool batch.
    pub batch_loss: BTreeMap<usize, f64>,
    /// The final step's `(y, dx, reduced replicated block)`.
    pub last: Option<(Tensor, Tensor, Vec<f32>)>,
    pub shed: u64,
    pub routed: u64,
    pub plans: Vec<PlanRecord>,
    pub replications: u64,
    pub decide_us: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub hot_share: Vec<f64>,
}

/// Per-rank instruments of a traced world.
pub struct Tracing {
    pub recs: Vec<Arc<Recorder>>,
    pub codec: Vec<CodecBytes>,
}

impl Tracing {
    pub fn new(origin: Instant) -> Self {
        Tracing {
            recs: (0..WORLD).map(|_| Recorder::new(origin)).collect(),
            codec: (0..WORLD).map(|_| Arc::new(Mutex::new((0, 0)))).collect(),
        }
    }

    pub fn spans(&self) -> Vec<Vec<Span>> {
        self.recs.iter().map(|r| r.take()).collect()
    }
}

fn expert_body(spec: &Spec, e: usize, rec: Option<&Arc<Recorder>>) -> Box<dyn Expert> {
    let body: Box<dyn Expert> =
        Box::new(FfExpert::new(spec.m, spec.h, &mut seeded(expert_seed(e))));
    match rec {
        Some(rec) => Box::new(TracedExpert::new(body, Arc::clone(rec))),
        None => body,
    }
}

fn build_layer(
    spec: &Spec,
    degree: usize,
    me: Rank,
    tracing: Option<&Tracing>,
) -> DistributedMoeLayer {
    let rec = tracing.map(|t| &t.recs[me]);
    let gate = TopKGate::new(
        spec.m,
        spec.experts(),
        spec.k,
        spec.capacity,
        &mut seeded(gate_seed()),
    );
    let experts = (0..spec.experts_per_rank)
        .map(|j| expert_body(spec, me * spec.experts_per_rank + j, rec))
        .collect();
    let (codec, a2a): (Box<dyn Compressor>, Box<dyn AllToAll>) = match tracing {
        Some(t) => (
            Box::new(TracedCodec::new(
                spec.codec_box(),
                Arc::clone(&t.recs[me]),
                Arc::clone(&t.codec[me]),
            )),
            Box::new(TracedA2A::new(Box::new(NcclA2A), Arc::clone(&t.recs[me]))),
        ),
        None => (spec.codec_box(), Box::new(NcclA2A)),
    };
    DistributedMoeLayer::new(gate, experts, codec, a2a)
        .with_partition_degree(degree)
        .with_recv_timeout(Duration::from_secs(60))
}

/// One full step; the traced variant makes the same two calls
/// `distributed_full_step` makes, with a span around each.
fn full_step(
    h: &mut RankHandle,
    layer: &mut DistributedMoeLayer,
    x: &Tensor,
    tag: u64,
    rep: &mut [f32],
    live: &[bool],
    rec: Option<&Recorder>,
) -> Result<(Tensor, Tensor), FabricError> {
    let Some(rec) = rec else {
        return distributed_full_step(h, layer, x, tag, rep, live);
    };
    let t0 = rec.now();
    let y = layer.forward(h, x, tag)?;
    rec.record(Kind::MoeFwd, t0, 0);
    let t1 = rec.now();
    let dx = layer.backward_with_allreduce(
        h,
        &y,
        Some(GradAllreduce {
            values: rep,
            tag: tag + ALLREDUCE_LANE,
            live,
        }),
    )?;
    rec.record(Kind::MoeBwd, t1, 0);
    Ok((y, dx))
}

fn half_sq_norm_per_token(y: &Tensor) -> f64 {
    let n = y.dims()[0].max(1);
    0.5 * y
        .data()
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        / n as f64
}

/// A world run's knobs.
pub struct RunCfg<'a> {
    pub spec: &'a Spec,
    pub net: Net,
    pub inputs: &'a Inputs,
    /// `None`: set up (warm-ups included) and return without timing.
    pub budget: Option<Budget>,
    pub tracing: Option<&'a Tracing>,
}

/// Builds a fresh world and runs it: set-up (mesh, layer construction,
/// warm-up steps), then the timed steps until the budget is spent.
pub fn run_world(cfg: &RunCfg<'_>) -> Vec<RankOut> {
    let origin = Instant::now();
    let max_steps = cfg.budget.map_or(0, |b| b.max_steps);
    let stop_at = AtomicUsize::new(WARMUP.saturating_add(max_steps));
    let wrap = |rank: Rank, t: Box<dyn Transport>| -> Box<dyn Transport> {
        match cfg.tracing {
            Some(tr) => Box::new(Tap::new(t, None, Some(Arc::clone(&tr.recs[rank])))),
            None => t,
        }
    };
    world::run(cfg.net, &wrap, |mut h| {
        rank_body(&mut h, cfg, origin, &stop_at)
    })
}

#[allow(clippy::too_many_lines)]
fn rank_body(
    h: &mut RankHandle,
    cfg: &RunCfg<'_>,
    origin: Instant,
    stop_at: &AtomicUsize,
) -> RankOut {
    let spec = cfg.spec;
    let me = h.rank();
    let rec = cfg.tracing.map(|t| t.recs[me].as_ref());
    let live = vec![true; WORLD];
    let mut layer = build_layer(spec, spec.degree, me, cfg.tracing);
    let mut rep = vec![0f32; spec.replicated];
    let mut out = RankOut::default();
    let mut step = 0usize;
    let run = |h: &mut RankHandle, layer: &mut DistributedMoeLayer, rep: &mut [f32], step| {
        rep.copy_from_slice(&cfg.inputs.replicated[me]);
        let x = cfg.inputs.batch(me, step);
        full_step(h, layer, x, step as u64 * TAG_STRIDE, rep, &live, rec)
            .unwrap_or_else(|e| panic!("{} rank {me} step {step}: {e}", spec.name))
    };
    while step < WARMUP {
        run(h, &mut layer, &mut rep, step);
        step += 1;
    }
    // Warm-up routing is not timed work: its load stats are discarded.
    let _ = layer.take_load_stats();
    h.barrier();
    out.setup = Some((origin, Instant::now()));
    let Some(budget) = cfg.budget else {
        return out;
    };
    h.barrier();
    let t_timed = Instant::now();
    let mut version = 0u64;
    while step < stop_at.load(Ordering::SeqCst) {
        if let Some(r) = rec {
            r.set_step(step as u64);
        }
        let t0 = Instant::now();
        let span0 = rec.map(|r| r.now());
        let (y, dx) = run(h, &mut layer, &mut rep, step);
        let done = step + 1 - WARMUP;
        if spec.skew && done.is_multiple_of(QUANTUM) {
            placement_quantum(h, &mut layer, cfg, rec, &mut out, &mut version, step);
        }
        out.steps.push((t0, Instant::now()));
        if let (Some(r), Some(s0)) = (rec, span0) {
            r.record(Kind::Step, s0, 0);
        }
        if me == 0 && budget.done(t_timed.elapsed(), done + 1) {
            stop_at.fetch_min(step + 2, Ordering::SeqCst);
        }
        out.batch_loss
            .insert(cfg.inputs.index(step), half_sq_norm_per_token(&y));
        out.last = Some((y, dx, rep.clone()));
        step += 1;
    }
    let (_, shed, routed, _) = layer.take_load_stats();
    out.shed += shed;
    out.routed += routed;
    out
}

/// The `moe_skew` placement quantum: drain load stats, allgather the
/// reports, decide the next plan, install guest bodies and swap.
fn placement_quantum(
    h: &mut RankHandle,
    layer: &mut DistributedMoeLayer,
    cfg: &RunCfg<'_>,
    rec: Option<&Recorder>,
    out: &mut RankOut,
    version: &mut u64,
    step: usize,
) {
    let spec = cfg.spec;
    let me = h.rank();
    let e_total = spec.experts();
    let (mut loads, shed, routed, service_p99_us) = layer.take_load_stats();
    out.shed += shed;
    out.routed += routed;
    loads.resize(e_total, 0);
    let mine = LoadReport {
        rank: me,
        loads,
        shed,
        routed,
        service_p99_us,
        stall_p99_us: vec![0; WORLD],
    };
    let tag = PLACEMENT_TAG + step as u64 * 16;
    let frame = Bytes::from(mine.encode());
    for r in (0..WORLD).filter(|&r| r != me) {
        h.send(r, tag + me as u64, frame.clone())
            .expect("load report send");
    }
    let mut reports: Vec<Option<LoadReport>> = vec![None; WORLD];
    reports[me] = Some(mine);
    for r in (0..WORLD).filter(|&r| r != me) {
        let raw = h.recv(r, tag + r as u64).expect("load report recv");
        reports[r] = Some(LoadReport::decode(&raw).expect("load report frame"));
    }
    let mut global = vec![0u64; e_total];
    for rep in reports.iter().flatten() {
        for (g, l) in global.iter_mut().zip(&rep.loads) {
            *g += l;
        }
    }
    let total: u64 = global.iter().sum();
    if total > 0 {
        out.hot_share
            .push(*global.iter().max().expect("experts") as f64 / total as f64);
    }

    let live = vec![true; WORLD];
    let policy = PolicyConfig::default();
    let t0 = Instant::now();
    let span0 = rec.map(|r| r.now());
    let plan = decide_plan(
        e_total,
        spec.experts_per_rank,
        &live,
        &reports,
        spec.capacity,
        &policy,
        *version + 1,
    );
    out.decide_us.push(t0.elapsed().as_secs_f64() * 1e6);
    if let (Some(r), Some(s0)) = (rec, span0) {
        r.record(Kind::PlanDecide, s0, 0);
    }
    let next = plan.placement;
    let moved = layer.placement().map_or(!next.is_static(), |cur| {
        (0..e_total).any(|e| cur.servers(e) != next.servers(e))
    });
    let t1 = Instant::now();
    let span1 = rec.map(|r| r.now());
    if moved {
        let tracing = cfg.tracing.map(|t| &t.recs[me]);
        for e in 0..e_total {
            if e / spec.experts_per_rank != me
                && next.servers(e).contains(&me)
                && !layer.guest_expert_ids().contains(&e)
            {
                // Weights never change in this loop, so a body seeded like
                // the home's is exactly the state a trainer would stream.
                layer.install_guest_expert(me, e, expert_body(spec, e, tracing));
            }
        }
        out.replications += (0..e_total)
            .map(|e| next.servers(e).len().saturating_sub(1) as u64)
            .sum::<u64>();
        out.plans.push((
            next.version(),
            (0..e_total).map(|e| next.servers(e).to_vec()).collect(),
            plan.capacity_override.map(f64::to_bits),
        ));
        layer.set_placement(me, next);
    }
    layer.set_capacity_factor(plan.capacity_override.unwrap_or(spec.capacity));
    if moved {
        out.apply_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        if let (Some(r), Some(s1)) = (rec, span1) {
            r.record(Kind::PlanApply, s1, 0);
        }
    }
    *version += 1;
}

/// Checks a timed world's outputs; returns the failures found.
///
/// `moe_overlap` / `a2a_tcp`: the final step's outputs must equal a serial
/// pass over an unshaped channel mesh, bit for bit. `moe_skew`: a seeded
/// replay must reproduce the plan sequence, shed count and outputs, and
/// the hot expert must have gained a replica.
pub fn verify(spec: &Spec, inputs: &Inputs, timed: &[RankOut]) -> Vec<String> {
    let mut failures = Vec::new();
    let steps = timed[0].steps.len();
    if timed
        .iter()
        .any(|o| o.steps.len() != steps || o.last.is_none())
    {
        failures.push("ranks disagree on the timed step count".to_string());
        return failures;
    }
    let channel = Net {
        kind: TransportKind::Channel,
        shaping: None,
    };
    let reference = if spec.skew {
        run_world(&RunCfg {
            spec,
            net: channel,
            inputs,
            budget: Some(Budget::steps(steps)),
            tracing: None,
        })
    } else {
        let last = WARMUP + steps - 1;
        world::run(channel, &world::bare, |mut h| {
            let me = h.rank();
            let mut layer = build_layer(spec, 1, me, None);
            let mut rep = inputs.replicated[me].clone();
            let live = vec![true; WORLD];
            let x = inputs.batch(me, last);
            let (y, dx) = distributed_full_step(
                &mut h,
                &mut layer,
                x,
                last as u64 * TAG_STRIDE,
                &mut rep,
                &live,
            )
            .expect("reference step");
            RankOut {
                last: Some((y, dx, rep)),
                ..RankOut::default()
            }
        })
    };
    for (rank, (a, b)) in timed.iter().zip(&reference).enumerate() {
        let (ya, dxa, ra) = a.last.as_ref().expect("timed outputs");
        let (yb, dxb, rb) = b.last.as_ref().expect("reference outputs");
        if ya.data() != yb.data() || dxa.data() != dxb.data() || ra != rb {
            failures.push(format!(
                "rank {rank}: final step differs from the reference pass"
            ));
        }
        if !ya.all_finite() || !dxa.all_finite() {
            failures.push(format!("rank {rank}: non-finite outputs"));
        }
        if spec.skew {
            if a.plans != b.plans {
                failures.push(format!(
                    "rank {rank}: replay chose a different plan sequence"
                ));
            }
            if (a.shed, a.routed) != (b.shed, b.routed) {
                failures.push(format!(
                    "rank {rank}: replay shed/routed {}/{} vs {}/{}",
                    b.shed, b.routed, a.shed, a.routed
                ));
            }
            if a.replications == 0 {
                failures.push(format!(
                    "rank {rank}: the hot expert never gained a replica"
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing decorators must not change what the program computes:
    /// every layer workload, with and without them, ends bit-identical.
    #[test]
    fn traced_runs_compute_what_untraced_runs_compute() {
        for (spec, steps) in [(&MOE_OVERLAP, 3), (&A2A_TCP, 3), (&MOE_SKEW, 2 * QUANTUM)] {
            let inputs = build_inputs(spec, 3);
            let cfg = |tracing| RunCfg {
                spec,
                net: spec.net,
                inputs: &inputs,
                budget: Some(Budget::steps(steps)),
                tracing,
            };
            let plain = run_world(&cfg(None));
            let tracing = Tracing::new(Instant::now());
            let traced = run_world(&cfg(Some(&tracing)));
            assert!(!tracing.spans()[0].is_empty(), "{}: no spans", spec.name);
            for (a, b) in plain.iter().zip(&traced) {
                assert_eq!(a.steps.len(), steps);
                assert_eq!(b.steps.len(), steps);
                let (ya, dxa, ra) = a.last.as_ref().expect("outputs");
                let (yb, dxb, rb) = b.last.as_ref().expect("outputs");
                assert_eq!(ya.data(), yb.data(), "{}: y", spec.name);
                assert_eq!(dxa.data(), dxb.data(), "{}: dx", spec.name);
                assert_eq!(ra, rb, "{}: reduced block", spec.name);
                assert_eq!(a.plans, b.plans, "{}: plans", spec.name);
                assert_eq!(
                    (a.shed, a.routed),
                    (b.shed, b.routed),
                    "{}: shed",
                    spec.name
                );
            }
            assert!(verify(spec, &inputs, &plain).is_empty(), "{}", spec.name);
        }
    }
}
