//! Splits each traced step's wall time among the layers whose spans cover
//! it, so the layer self times and the residual add up to the step.
//!
//! At every instant of a step the highest-priority active span owns the
//! time: compute (expert, codec) first, then the wire (send, receive
//! wait), then all-to-all bookkeeping, placement, and the MoE layer's own
//! work. Time no span covers is the residual. A receive wait that overlaps
//! expert compute is therefore hidden, and only exposed waiting shows.

use crate::trace::{Kind, Span};

/// Waterfall rows, in priority order.
pub const LAYERS: [&str; 7] = [
    "expert",
    "codec",
    "transport.send",
    "transport.recv_wait",
    "a2a.self (incl. framing)",
    "placement",
    "moe.self",
];

fn layer_of(kind: Kind) -> Option<usize> {
    match kind {
        Kind::ExpertFwd | Kind::ExpertBwd => Some(0),
        Kind::Encode | Kind::Decode => Some(1),
        Kind::Send => Some(2),
        Kind::RecvWait => Some(3),
        Kind::A2a => Some(4),
        Kind::PlanDecide | Kind::PlanApply => Some(5),
        Kind::MoeFwd | Kind::MoeBwd => Some(6),
        Kind::Step => None,
    }
}

/// Mean per-step attribution, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Waterfall {
    pub steps: usize,
    pub step_ns: f64,
    pub layer_ns: [f64; LAYERS.len()],
    pub residual_ns: f64,
    /// Mean of step ÷ max(compute union, communication union), over steps
    /// with both (0 when no step had compute spans).
    pub overlap_eff: f64,
    /// Mean per-step compute union (expert, codec) and communication union
    /// (send, receive wait, all-to-all): the bases of `overlap_eff`.
    pub compute_ns: f64,
    pub comm_ns: f64,
}

/// Attributes every rank's `[start, end)` step intervals among that
/// rank's spans (`intervals[r]` pairs with `spans[r]`).
pub fn attribute(intervals: &[Vec<(u64, u64)>], spans: &[Vec<Span>]) -> Waterfall {
    let mut w = Waterfall::default();
    let mut eff_sum = 0.0;
    let mut eff_n = 0usize;
    for (steps, spans) in intervals.iter().zip(spans) {
        let mut spans: Vec<&Span> = spans
            .iter()
            .filter(|s| layer_of(s.kind).is_some())
            .collect();
        spans.sort_by_key(|s| s.start);
        let mut lo = 0usize;
        for &(start, end) in steps {
            while lo < spans.len() && spans[lo].end <= start && spans[lo].start < start {
                lo += 1;
            }
            let mut events: Vec<(u64, i32, usize)> = Vec::new();
            for s in spans[lo..].iter().take_while(|s| s.start < end) {
                let (a, b) = (s.start.max(start), s.end.min(end));
                if a < b {
                    let l = layer_of(s.kind).expect("filtered");
                    events.push((a, 1, l));
                    events.push((b, -1, l));
                }
            }
            events.sort_unstable();
            let mut active = [0i32; LAYERS.len()];
            let mut t = start;
            let (mut compute, mut comm) = (0u64, 0u64);
            let mut attribute_until =
                |until: u64, active: &[i32; LAYERS.len()], w: &mut Waterfall| {
                    let dt = (until - t) as f64;
                    match active.iter().position(|&c| c > 0) {
                        Some(l) => w.layer_ns[l] += dt,
                        None => w.residual_ns += dt,
                    }
                    if active[0] > 0 || active[1] > 0 {
                        compute += until - t;
                    }
                    if active[2] > 0 || active[3] > 0 || active[4] > 0 {
                        comm += until - t;
                    }
                    t = until;
                };
            for (at, delta, l) in events {
                attribute_until(at, &active, &mut w);
                active[l] += delta;
            }
            attribute_until(end, &active, &mut w);
            w.steps += 1;
            w.step_ns += (end - start) as f64;
            w.compute_ns += compute as f64;
            w.comm_ns += comm as f64;
            let busiest = compute.max(comm);
            if compute > 0 && busiest > 0 {
                eff_sum += (end - start) as f64 / busiest as f64;
                eff_n += 1;
            }
        }
    }
    if w.steps > 0 {
        let n = w.steps as f64;
        w.step_ns /= n;
        w.residual_ns /= n;
        w.compute_ns /= n;
        w.comm_ns /= n;
        for l in &mut w.layer_ns {
            *l /= n;
        }
    }
    if eff_n > 0 {
        w.overlap_eff = eff_sum / eff_n as f64;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64) -> Span {
        Span {
            kind,
            start,
            end,
            step: 0,
            tid: 0,
            arg: 0,
            peer: 0,
        }
    }

    #[test]
    fn layers_and_residual_sum_to_the_step() {
        let spans = vec![
            span(Kind::MoeFwd, 10, 90),
            span(Kind::RecvWait, 20, 60),
            span(Kind::ExpertFwd, 40, 70),
        ];
        let w = attribute(&[vec![(0, 100)]], &[spans]);
        assert_eq!(w.steps, 1);
        assert_eq!(w.layer_ns[0], 30.0); // expert 40..70
        assert_eq!(w.layer_ns[3], 20.0); // exposed wait 20..40
        assert_eq!(w.layer_ns[6], 30.0); // moe self 10..20, 70..90
        assert_eq!(w.residual_ns, 20.0);
        let total: f64 = w.layer_ns.iter().sum::<f64>() + w.residual_ns;
        assert_eq!(total, w.step_ns);
        // Step 100 over max(compute 30, comm 40).
        assert_eq!(w.overlap_eff, 2.5);
    }
}
