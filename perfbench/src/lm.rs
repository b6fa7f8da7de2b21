//! `lm_train`: the product training loop, `run_ft_rank`, fault-free.
//!
//! The loop builds its own model, so the benchmark's only handle on it is
//! the transport it attaches: a clocked [`Tap`] beneath the fabric notes
//! each rank's first send per step window, which gives per-step wall times
//! without instrumenting the program.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use schemoe_cluster::transport::TransportKind;
use schemoe_cluster::{Rank, RankHandle, Transport};
use schemoe_models::{run_ft_rank, FtConfig, FtReport};

use crate::trace::{ClockMarks, Recorder, Tap};
use crate::world::{self, Net, WORLD};
use crate::Budget;

pub const NET: Net = Net {
    kind: TransportKind::Channel,
    shaping: None,
};
/// Committed steps per `run_ft_rank` call. Every call trains from the
/// seeded initialisation, so each call's loss curve is identical.
pub const STEPS_PER_CALL: usize = 40;
/// Warm-up steps run during set-up.
const WARMUP_STEPS: usize = 3;
/// Trailing steps averaged into `loss_final`.
pub const LOSS_WINDOW: usize = 10;

/// The `lm_train` shape: M=64, H=256, vocab 64, 16×32 tokens per rank.
pub fn config(seed: u64, steps: usize) -> FtConfig {
    let mut cfg = FtConfig::tiny(steps).with_seed(seed);
    cfg.vocab = 64;
    cfg.model_dim = 64;
    cfg.hidden_dim = 256;
    cfg.k = 2;
    cfg.capacity_factor = 2.0;
    cfg.seqs_per_rank = 16;
    cfg.seq_len = 32;
    cfg.checkpoint_every = 5;
    cfg.vote_timeout_ms = 2000;
    cfg.rejoin_check_every = 0;
    // Plain SGD at the tiny config's 0.1 barely moves a 64-token vocab in
    // one call; 0.5 makes the fall in loss_final clearly visible.
    cfg.lr = 0.5;
    cfg
}

/// Global tokens per step.
pub fn tokens_per_step() -> usize {
    let cfg = config(0, 1);
    WORLD * cfg.seqs_per_rank * cfg.seq_len
}

/// What one rank observed.
#[derive(Default)]
pub struct RankOut {
    /// When this rank's world started and when its set-up ended.
    pub setup: Option<(Instant, Instant)>,
    /// Per call: this rank's step-window start instants.
    pub marks: Vec<Vec<Instant>>,
    pub reports: Vec<FtReport>,
}

/// Builds a fresh world and runs it: set-up (mesh plus a short warm-up
/// training call), then whole calls of [`STEPS_PER_CALL`] steps until the
/// budget is spent. `recs` installs the timing transport.
pub fn run_world(
    seed: u64,
    budget: Option<Budget>,
    recs: Option<&[Arc<Recorder>]>,
) -> Vec<RankOut> {
    let origin = Instant::now();
    let clocks: Vec<Arc<ClockMarks>> = (0..WORLD).map(|_| Arc::default()).collect();
    let stop = AtomicBool::new(false);
    let wrap = |rank: Rank, t: Box<dyn Transport>| -> Box<dyn Transport> {
        let rec = recs.map(|recs| Arc::clone(&recs[rank]));
        Box::new(Tap::new(t, Some(Arc::clone(&clocks[rank])), rec))
    };
    world::run(NET, &wrap, |mut h| {
        let clock = &clocks[h.rank()];
        rank_body(&mut h, seed, budget, origin, clock, &stop)
    })
}

fn rank_body(
    h: &mut RankHandle,
    seed: u64,
    budget: Option<Budget>,
    origin: Instant,
    clock: &ClockMarks,
    stop: &AtomicBool,
) -> RankOut {
    let mut out = RankOut::default();
    let warm = run_ft_rank(h, &config(seed, WARMUP_STEPS));
    assert!(warm.died_at_step.is_none(), "warm-up rank died");
    clock.take();
    h.barrier();
    out.setup = Some((origin, Instant::now()));
    let Some(budget) = budget else {
        return out;
    };
    let cfg = config(seed, STEPS_PER_CALL);
    h.barrier();
    let t0 = Instant::now();
    loop {
        let report = run_ft_rank(h, &cfg);
        out.marks.push(clock.take());
        out.reports.push(report);
        let calls = out.reports.len();
        // Whole calls only, agreed between two barriers so every rank
        // runs the same number.
        h.barrier();
        if h.rank() == 0 && (calls >= budget.max_steps || budget.done(t0.elapsed(), calls)) {
            stop.store(true, Ordering::SeqCst);
        }
        h.barrier();
        if stop.load(Ordering::SeqCst) {
            return out;
        }
    }
}

/// Per-rank step intervals `[start, end)` of every timed step that has a
/// successor mark, in call order.
pub fn intervals(out: &RankOut) -> Vec<(Instant, Instant)> {
    out.marks
        .iter()
        .flat_map(|m| m.windows(2).map(|w| (w[0], w[1])))
        .collect()
}

/// Mean committed loss over the last [`LOSS_WINDOW`] steps of the first
/// call, averaged over ranks (each rank commits its own batch's loss).
pub fn loss_final(outs: &[RankOut]) -> f64 {
    let per_rank = outs.iter().map(|o| {
        let curve = &o.reports[0].loss_curve;
        curve[curve.len() - LOSS_WINDOW..]
            .iter()
            .map(|&l| f64::from(l))
            .sum::<f64>()
            / LOSS_WINDOW as f64
    });
    per_rank.sum::<f64>() / outs.len() as f64
}

/// Output checks: every call's loss curve finite, complete and bit-equal
/// to the same rank's first call (a same-seed replay), no deaths, no
/// retries, every step window seen, and the mean loss fell.
pub fn verify(outs: &[RankOut]) -> Vec<String> {
    let mut failures = Vec::new();
    let bits = |v: &[f32]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    for (rank, o) in outs.iter().enumerate() {
        if o.reports.len() != outs[0].reports.len() {
            failures.push(format!("rank {rank}: ran a different number of calls"));
        }
        let reference = bits(&o.reports[0].loss_curve);
        for (c, r) in o.reports.iter().enumerate() {
            if r.died_at_step.is_some() || !r.dead_ranks.is_empty() {
                failures.push(format!("rank {rank} call {c}: a rank died"));
            }
            if r.retries > 0 {
                failures.push(format!("rank {rank} call {c}: {} retries", r.retries));
            }
            if r.loss_curve.len() != STEPS_PER_CALL || r.loss_curve.iter().any(|l| !l.is_finite()) {
                failures.push(format!(
                    "rank {rank} call {c}: loss curve incomplete or non-finite"
                ));
            } else if bits(&r.loss_curve) != reference {
                failures.push(format!(
                    "rank {rank} call {c}: loss curve differs from call 0"
                ));
            }
        }
        if o.marks.iter().any(|m| m.len() != STEPS_PER_CALL) {
            failures.push(format!("rank {rank}: step clock missed a step window"));
        }
    }
    if failures.is_empty() {
        let window_mean = |range: std::ops::Range<usize>| {
            outs.iter()
                .map(|o| {
                    o.reports[0].loss_curve[range.clone()]
                        .iter()
                        .map(|&l| f64::from(l))
                        .sum::<f64>()
                })
                .sum::<f64>()
        };
        let head = window_mean(0..LOSS_WINDOW);
        let tail = window_mean(STEPS_PER_CALL - LOSS_WINDOW..STEPS_PER_CALL);
        if tail >= head {
            failures.push(format!(
                "loss did not fall: first-window sum {head}, last {tail}"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing transport must not change the training trajectory.
    #[test]
    fn traced_run_trains_like_the_untraced_run() {
        let one_call = Budget {
            seconds: f64::INFINITY,
            min_steps: 0,
            max_steps: 1,
        };
        let plain = run_world(5, Some(one_call), None);
        let recs: Vec<_> = (0..WORLD).map(|_| Recorder::new(Instant::now())).collect();
        let traced = run_world(5, Some(one_call), Some(&recs));
        assert!(!recs[0].take().is_empty());
        for (a, b) in plain.iter().zip(&traced) {
            let bits = |o: &RankOut| -> Vec<u32> {
                o.reports[0]
                    .loss_curve
                    .iter()
                    .map(|l| l.to_bits())
                    .collect()
            };
            assert_eq!(bits(a), bits(b));
        }
        assert!(verify(&plain).is_empty());
        assert!(verify(&traced).is_empty());
    }
}
