//! The repository benchmark: MoE training throughput and step-time tails
//! on four workloads, and a traced run that splits each workload's step
//! into per-layer costs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lm_train|moe_overlap|a2a_tcp|moe_skew> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The program is driven only through public entry points; every input
//! is generated from `--seed` before timing. The last line of standard
//! output is a JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. Any failed
//! output check exits with status 1.

mod layer;
mod lm;
mod probes;
mod report;
mod stats;
mod steal;
mod trace;
mod waterfall;
mod world;

use std::time::{Duration, Instant};

use schemoe_cluster::faults::FRAME_HEADER;
use schemoe_cluster::transport::TransportKind;
use schemoe_compression::{Compressor, NoCompression};

use crate::layer::{RunCfg, Spec, Tracing};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, peak_rss_mib, percentile};
use crate::steal::{StealClock, StealLog};
use crate::trace::{Kind, Recorder, Span};
use crate::world::{Net, WORLD};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["lm_train", "moe_overlap", "a2a_tcp", "moe_skew"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed steps a run needs so p90 has at least ten samples beyond it.
const MIN_STEPS: usize = 110;
/// Steps per `tokens_per_s` sample.
const WINDOW: usize = 10;

/// How long a world keeps stepping.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_steps: usize,
    pub max_steps: usize,
}

impl Budget {
    /// At least `seconds` of timed work and `min_steps` steps.
    pub fn timed(seconds: f64, min_steps: usize) -> Self {
        Budget {
            seconds,
            min_steps,
            max_steps: usize::MAX,
        }
    }

    /// Exactly `n` steps.
    pub fn steps(n: usize) -> Self {
        Budget {
            seconds: f64::INFINITY,
            min_steps: 0,
            max_steps: n,
        }
    }

    /// Whether stopping with `total` steps done satisfies the budget.
    pub fn done(&self, elapsed: Duration, total: usize) -> bool {
        elapsed.as_secs_f64() >= self.seconds && total >= self.min_steps
    }
}

/// Derives an independent seed for one input stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = val == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        sha.chars().take(12).collect()
    }
}

fn net_label(net: Net) -> String {
    match net.shaping {
        Some(s) => format!(
            "{} shaped {}us + {:.1} MB/s per link",
            net.kind.label(),
            s.latency.as_micros(),
            s.bytes_per_sec as f64 / 1e6
        ),
        None => format!("{} unshaped", net.kind.label()),
    }
}

fn host_line(args: &Args, net: Net, degree: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let comm = if degree > 1 { WORLD } else { 0 };
    format!(
        "host: nproc={nproc} threads={} ({WORLD} ranks + {comm} comm workers{}) transport={} seed={} commit={}",
        WORLD + comm,
        if net.kind == TransportKind::Tcp { " + tcp I/O threads" } else { "" },
        net_label(net),
        args.seed,
        commit()
    )
}

/// Per-step slowest-rank times from per-rank series of equal length.
fn slowest(per_rank: &[Vec<f64>]) -> Vec<f64> {
    let n = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| per_rank.iter().map(|s| s[i]).fold(0.0, f64::max))
        .collect()
}

/// Tokens/s per window of [`WINDOW`] consecutive steps.
fn windows(step_ms: &[f64], tokens_per_step: f64) -> Vec<f64> {
    step_ms
        .chunks_exact(WINDOW)
        .map(|w| tokens_per_step * WINDOW as f64 / (w.iter().sum::<f64>() / 1e3))
        .collect()
}

/// A step or set-up interval on the wall clock.
type Interval = (Instant, Instant);

/// Per-step slowest-rank milliseconds, with hypervisor steal removed.
fn steady_ms(log: &StealLog, per_rank: &[Vec<Interval>]) -> Vec<f64> {
    let ms: Vec<Vec<f64>> = per_rank
        .iter()
        .map(|iv| {
            iv.iter()
                .map(|&(a, b)| log.wall_less_steal(a, b) * 1e3)
                .collect()
        })
        .collect();
    slowest(&ms)
}

/// Per-step slowest-rank milliseconds as the wall clock read them.
fn raw_ms(per_rank: &[Vec<Interval>]) -> Vec<f64> {
    let ms: Vec<Vec<f64>> = per_rank
        .iter()
        .map(|iv| {
            iv.iter()
                .map(|&(a, b)| (b - a).as_secs_f64() * 1e3)
                .collect()
        })
        .collect();
    slowest(&ms)
}

/// A world's set-up seconds (slowest rank), steal removed.
fn setup_of(log: &StealLog, setups: impl Iterator<Item = Option<Interval>>) -> f64 {
    setups
        .flatten()
        .map(|(a, b)| log.wall_less_steal(a, b))
        .fold(0.0, f64::max)
}

/// The step-time metrics every workload reports, from steal-corrected
/// step times; the raw wall-clock figures are printed beside them.
fn put_step_metrics(
    r: &mut Report,
    log: &StealLog,
    per_rank: &[Vec<Interval>],
    tokens_per_step: f64,
    note: &str,
) {
    let step_ms = &steady_ms(log, per_rank);
    let raw = raw_ms(per_rank);
    let span = per_rank
        .iter()
        .filter_map(|iv| Some((iv.first()?.0, iv.last()?.1)))
        .fold(None, |acc: Option<Interval>, (a, b)| match acc {
            Some((x, y)) => Some((x.min(a), y.max(b))),
            None => Some((a, b)),
        });
    if let Some((a, b)) = span {
        r.lines.push(format!(
            "steal: {:.1}% of the most-stolen vCPU over the timed steps; raw wall clock: tokens_per_s {:.1}, step p50 {:.3} ms",
            100.0 * log.share(a, b),
            median(&windows(&raw, tokens_per_step)),
            median(&raw)
        ));
    }
    let tps = windows(step_ms, tokens_per_step);
    if tps.is_empty() {
        r.fail([format!("fewer than {WINDOW} timed steps")]);
        return;
    }
    let mut sorted = tps.clone();
    sorted.sort_by(f64::total_cmp);
    r.lines.push(format!(
        "tokens_per_s over {} windows: min {:.1}, median {:.1}, max {:.1}",
        sorted.len(),
        sorted[0],
        median(&sorted),
        sorted[sorted.len() - 1]
    ));
    r.put(
        "tokens_per_s",
        median(&tps),
        tps.len(),
        format!("median of {WINDOW}-step windows, {tokens_per_step:.1} tokens/step{note}"),
    );
    r.put(
        "step_ms_p50",
        median(step_ms),
        step_ms.len(),
        "steps, slowest rank, steal removed",
    );
    match percentile(step_ms, 90.0) {
        Some(p90) => r.put(
            "step_ms_p90",
            p90,
            step_ms.len(),
            "steps, slowest rank, steal removed",
        ),
        None => r.fail([format!(
            "only {} step samples: p90 needs ten beyond it",
            step_ms.len()
        )]),
    }
}

fn put_setup(r: &mut Report, setups: &[f64]) {
    r.put(
        "setup_s",
        median(setups),
        setups.len(),
        format!("set-ups {setups:.3?}"),
    );
}

// ---------------------------------------------------------------- layer

fn layer_spec(name: &str) -> Option<&'static Spec> {
    [&layer::MOE_OVERLAP, &layer::A2A_TCP, &layer::MOE_SKEW]
        .into_iter()
        .find(|s| s.name == name)
}

fn layer_cfg<'a>(
    spec: &'a Spec,
    inputs: &'a layer::Inputs,
    budget: Option<Budget>,
    tracing: Option<&'a Tracing>,
) -> RunCfg<'a> {
    RunCfg {
        spec,
        net: spec.net,
        inputs,
        budget,
        tracing,
    }
}

fn admitted_tokens_per_step(spec: &Spec, outs: &[layer::RankOut]) -> (f64, f64) {
    let shed: u64 = outs.iter().map(|o| o.shed).sum();
    let routed: u64 = outs.iter().map(|o| o.routed).sum();
    let shed_frac = shed as f64 / (shed + routed).max(1) as f64;
    (spec.tokens_per_step() as f64 * (1.0 - shed_frac), shed_frac)
}

fn layer_timed(spec: &Spec, args: &Args, r: &mut Report) {
    let inputs = layer::build_inputs(spec, args.seed);
    let clock = StealClock::start();
    let mut setup_runs = Vec::new();
    for _ in 1..SETUPS {
        setup_runs.push(layer::run_world(&layer_cfg(spec, &inputs, None, None)));
    }
    let budget = Budget::timed(args.seconds, MIN_STEPS);
    let outs = layer::run_world(&layer_cfg(spec, &inputs, Some(budget), None));
    let log = clock.finish();
    setup_runs.push(outs);
    let setups: Vec<f64> = setup_runs
        .iter()
        .map(|w| setup_of(&log, w.iter().map(|o| o.setup)))
        .collect();
    let outs = setup_runs.pop().expect("timed world");
    r.fail(layer::verify(spec, &inputs, &outs));
    let per_rank: Vec<Vec<Interval>> = outs.iter().map(|o| o.steps.clone()).collect();
    r.attempted = per_rank[0].len() as u64;
    let (tokens, shed_frac) = admitted_tokens_per_step(spec, &outs);
    put_step_metrics(
        r,
        &log,
        &per_rank,
        tokens,
        &format!(" after {shed_frac:.4} shed"),
    );
    let losses: Vec<f64> = outs[0]
        .batch_loss
        .keys()
        .map(|b| mean(&outs.iter().map(|o| o.batch_loss[b]).collect::<Vec<_>>()))
        .collect();
    r.put(
        "loss_final",
        mean(&losses),
        losses.len(),
        "pool batches, 1/2 |y|^2 per token",
    );
    put_setup(r, &setups);
    if spec.skew {
        r.lines.push(format!(
            "placement: {} plans, {} replications committed",
            outs[0].plans.len(),
            outs[0].replications
        ));
    }
}

/// Per rank: where its timed steps start (ns) and how many there are.
fn timed_from(intervals: &[Vec<(u64, u64)>]) -> Vec<(u64, usize)> {
    intervals
        .iter()
        .map(|iv| (iv.first().map_or(u64::MAX, |f| f.0), iv.len()))
        .collect()
}

/// Sums `kind` spans inside the timed steps: (count, total ns, total arg).
fn tally(spans: &[Span], from: u64, kinds: &[Kind]) -> (f64, f64, f64) {
    spans
        .iter()
        .filter(|s| s.start >= from && kinds.contains(&s.kind))
        .fold((0.0, 0.0, 0.0), |(n, t, a), s| {
            (n + 1.0, t + (s.end - s.start) as f64, a + s.arg as f64)
        })
}

/// Rank-averaged per-step tallies of `kinds` over the timed steps.
fn per_step(spans: &[Vec<Span>], starts: &[(u64, usize)], kinds: &[Kind]) -> (f64, f64, f64) {
    let mut acc = (0.0, 0.0, 0.0);
    for (s, &(from, steps)) in spans.iter().zip(starts) {
        let (n, t, a) = tally(s, from, kinds);
        let steps = steps.max(1) as f64;
        acc.0 += n / steps / WORLD as f64;
        acc.1 += t / steps / WORLD as f64;
        acc.2 += a / steps / WORLD as f64;
    }
    acc
}

fn print_waterfall(r: &mut Report, w: &waterfall::Waterfall, extra: &[(&str, f64)]) {
    let step_ms = w.step_ns / 1e6;
    r.lines.push(format!(
        "waterfall (mean traced step over {} rank-steps; layer self times + residual = step):",
        w.steps
    ));
    for (name, ns) in waterfall::LAYERS.iter().zip(w.layer_ns) {
        r.lines.push(format!(
            "  {name:<24} {:>10.3} ms  {:>5.1}%",
            ns / 1e6,
            100.0 * ns / w.step_ns.max(1.0)
        ));
    }
    r.lines.push(format!(
        "  {:<24} {:>10.3} ms  {:>5.1}%",
        "step.residual",
        w.residual_ns / 1e6,
        100.0 * w.residual_ns / w.step_ns.max(1.0)
    ));
    r.lines
        .push(format!("  {:<24} {:>10.3} ms", "= step", step_ms));
    for (name, ms) in extra {
        r.lines.push(format!(
            "    of which {name:<18} {ms:>10.3} ms (isolated estimate)"
        ));
    }
}

/// Isolated probes every workload reports (the transport, CRC, codec and
/// executor numbers do not depend on the workload's shapes except the
/// codec payload, which is one rank's dispatch).
fn put_common_probes(r: &mut Report, codec_elems: usize) {
    for ((label, codec), names) in probes::codecs().iter().zip([
        ("codec.fp32.encode_gibs", "codec.fp32.decode_gibs"),
        ("codec.zfp.encode_gibs", "codec.zfp.decode_gibs"),
    ]) {
        match probes::codec_gibs(codec.as_ref(), codec_elems) {
            Ok((enc, dec)) => {
                let note = format!("{label}, {codec_elems} values, raw f32 bytes/s");
                r.put(names.0, enc, 7, note.clone());
                r.put(names.1, dec, 7, note);
            }
            Err(e) => r.fail([e]),
        }
    }
    match probes::crc_gibs() {
        Ok(g) => r.put(
            "fabric.crc_gibs",
            g,
            7,
            "faults::crc32 over 4 MiB, check value verified",
        ),
        Err(e) => r.fail([e]),
    }
    match probes::transport(TransportKind::Tcp, true) {
        Ok((rtt, gibs)) => {
            r.put(
                "transport.tcp.rtt_us",
                rtt,
                200,
                "64 B ping-pong, unshaped 2-rank mesh",
            );
            r.put(
                "transport.tcp.stream_gibs",
                gibs,
                32,
                "1 MiB echoes, both directions counted, bytes verified",
            );
        }
        Err(e) => r.fail([e]),
    }
    match probes::transport(TransportKind::Channel, false) {
        Ok((rtt, _)) => r.put("transport.channel.rtt_us", rtt, 200, "64 B ping-pong"),
        Err(e) => r.fail([e]),
    }
    r.put(
        "executor.task_overhead_us",
        probes::executor_overhead_us(),
        7,
        "empty 64-task chain alternating workers",
    );
}

fn put_gemm(r: &mut Report, rows: usize, m: usize, h: usize) -> f64 {
    match probes::gemm_gflops(rows, m, h) {
        Ok(g) => {
            r.put(
                "tensor.gemm_gflops",
                g,
                7,
                format!("matmul/matmul_t/t_matmul at [{rows},{m}]x[{m},{h}], checked vs naive"),
            );
            g
        }
        Err(e) => {
            r.fail([e]);
            f64::NAN
        }
    }
}

/// Tokens/s of an untraced world: the base of `trace.overhead_frac`.
fn layer_untraced_tps(spec: &Spec, inputs: &layer::Inputs, seconds: f64) -> f64 {
    let clock = StealClock::start();
    let outs = layer::run_world(&layer_cfg(
        spec,
        inputs,
        Some(Budget::timed(seconds, WINDOW * 3)),
        None,
    ));
    let log = clock.finish();
    let per_rank: Vec<Vec<Interval>> = outs.iter().map(|o| o.steps.clone()).collect();
    let (tokens, _) = admitted_tokens_per_step(spec, &outs);
    median(&windows(&steady_ms(&log, &per_rank), tokens))
}

#[allow(clippy::too_many_lines)]
fn layer_traced(spec: &Spec, args: &Args, r: &mut Report) {
    let inputs = layer::build_inputs(spec, args.seed);
    let half = args.seconds / 2.0;
    let base_tps = layer_untraced_tps(spec, &inputs, half);
    let origin = Instant::now();
    let tracing = Tracing::new(origin);
    let clock = StealClock::start();
    let outs = layer::run_world(&layer_cfg(
        spec,
        &inputs,
        Some(Budget::timed(half, WINDOW * 3)),
        Some(&tracing),
    ));
    let log = clock.finish();
    r.fail(layer::verify(spec, &inputs, &outs));
    let spans = tracing.spans();
    let per_rank: Vec<Vec<Interval>> = outs.iter().map(|o| o.steps.clone()).collect();
    r.attempted = per_rank[0].len() as u64;
    let (tokens, shed_frac) = admitted_tokens_per_step(spec, &outs);
    let traced_tps = median(&windows(&steady_ms(&log, &per_rank), tokens));

    // Step intervals come from the benchmark's own step spans.
    let intervals: Vec<Vec<(u64, u64)>> = spans
        .iter()
        .map(|s| {
            s.iter()
                .filter(|s| s.kind == Kind::Step)
                .map(|s| (s.start, s.end))
                .collect()
        })
        .collect();
    let starts = timed_from(&intervals);
    let w = waterfall::attribute(&intervals, &spans);
    let ms = |ns: f64| ns / 1e6;
    let steps = w.steps / WORLD;

    let gflops = put_gemm(
        r,
        spec.k * spec.tokens_per_step() / spec.experts(),
        spec.m,
        spec.h,
    );
    let (_, _, fwd_rows) = per_step(&spans, &starts, &[Kind::ExpertFwd]);
    let (_, _, bwd_rows) = per_step(&spans, &starts, &[Kind::ExpertBwd]);
    // Two GEMMs per forward row pass, four per backward (recompute is a
    // forward call), each 2·M·H flops per row.
    let flops = (fwd_rows * 4.0 + bwd_rows * 8.0) * (spec.m * spec.h) as f64;
    let gemm_ms = flops / (gflops * 1e9) * 1e3;
    r.put(
        "tensor.gemm_ms_per_step",
        gemm_ms,
        steps,
        "expert rows seen by the decorator x isolated GFLOP/s",
    );
    r.put(
        "gate.ms_per_step",
        probes::gate_ms(spec.n_local, spec.m, spec.experts(), spec.k, spec.capacity),
        7,
        format!(
            "TopKGate fwd+bwd at [{}, {}], {} experts, k={}",
            spec.n_local,
            spec.m,
            spec.experts(),
            spec.k
        ),
    );
    let (shed, routed) = outs
        .iter()
        .fold((0, 0), |a, o| (a.0 + o.shed, a.1 + o.routed));
    r.put(
        "gate.shed_frac",
        shed_frac,
        steps,
        format!("{shed} shed / {} routed assignments", shed + routed),
    );
    for (name, kind) in [
        ("expert.fwd_ms", Kind::ExpertFwd),
        ("expert.bwd_ms", Kind::ExpertBwd),
    ] {
        let (n, t, _) = per_step(&spans, &starts, &[kind]);
        r.put(
            name,
            ms(t),
            steps,
            format!("{n:.1} calls/step, decorator spans"),
        );
    }
    for (name, kind) in [("moe.fwd_ms", Kind::MoeFwd), ("moe.bwd_ms", Kind::MoeBwd)] {
        let (_, t, _) = per_step(&spans, &starts, &[kind]);
        r.put(name, ms(t), steps, "span around the layer call");
    }
    r.put(
        "moe.self_ms",
        ms(w.layer_ns[6]),
        steps,
        "moe spans minus child spans (waterfall)",
    );
    let codec_bytes = tracing
        .codec
        .iter()
        .map(|c| *c.lock().expect("codec bytes poisoned"))
        .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
    r.put(
        "codec.ratio",
        codec_bytes.0 as f64 / codec_bytes.1.max(1) as f64,
        steps,
        format!(
            "in situ: {} raw / {} wire bytes",
            codec_bytes.0, codec_bytes.1
        ),
    );
    let (_, enc, _) = per_step(&spans, &starts, &[Kind::Encode]);
    let (_, dec, _) = per_step(&spans, &starts, &[Kind::Decode]);
    r.put(
        "codec.encode_ms_per_step",
        ms(enc),
        steps,
        "decorator spans",
    );
    r.put(
        "codec.decode_ms_per_step",
        ms(dec),
        steps,
        "decorator spans",
    );
    let (calls, a2a_ns, a2a_bytes) = per_step(&spans, &starts, &[Kind::A2a]);
    r.put("a2a.calls_per_step", calls, steps, "per rank");
    r.put(
        "a2a.bytes_per_step",
        a2a_bytes,
        steps,
        "cross-rank payload bytes per rank",
    );
    r.put(
        "a2a.ms_per_step",
        ms(a2a_ns),
        steps,
        "per rank, span totals",
    );
    put_transport(r, &spans, &starts, steps, spec.net);
    put_common_probes(r, spec.n_local * spec.m);
    put_placement(r, &outs[0]);
    match probes::layer_checkpoint_ms(
        spec.m,
        spec.h,
        spec.experts(),
        spec.experts_per_rank,
        spec.k,
    ) {
        Ok(c) => r.put(
            "ft.checkpoint_ms",
            c,
            7,
            "checkpoint::save of one rank's gate + experts",
        ),
        Err(e) => r.fail([e]),
    }
    r.put(
        "ft.residual_ms_per_step",
        0.0,
        0,
        "n/a: no ft loop on this workload",
    );
    r.put(
        "step.overlap_eff",
        w.overlap_eff,
        steps,
        format!(
            "step / max(compute union {:.3} ms, comm union {:.3} ms)",
            ms(w.compute_ns),
            ms(w.comm_ns)
        ),
    );
    r.put(
        "step.traced_ms",
        ms(w.step_ns),
        w.steps,
        "mean traced step, rank-averaged",
    );
    r.put(
        "step.residual_ms",
        ms(w.residual_ns),
        w.steps,
        "step time no layer span covers",
    );
    r.put(
        "trace.overhead_frac",
        1.0 - traced_tps / base_tps,
        steps,
        format!("1 - traced {traced_tps:.1} / untraced {base_tps:.1} tokens/s"),
    );
    print_waterfall(r, &w, &[("tensor.gemm", gemm_ms)]);
    write_trace(spec.name, args.seed, &spans);
}

fn put_transport(
    r: &mut Report,
    spans: &[Vec<Span>],
    starts: &[(u64, usize)],
    steps: usize,
    net: Net,
) {
    let (msgs, send_ns, bytes) = per_step(spans, starts, &[Kind::Send]);
    let (_, wait_ns, _) = per_step(spans, starts, &[Kind::RecvWait]);
    r.put(
        "transport.msgs_per_step",
        msgs,
        steps,
        "raw sends per rank (self-sends included)",
    );
    r.put(
        "transport.bytes_per_step",
        bytes,
        steps,
        "raw bytes per rank, frames included",
    );
    r.put(
        "transport.send_ms_per_step",
        send_ns / 1e6,
        steps,
        "per rank, shaping stalls included",
    );
    r.put(
        "transport.recv_wait_ms_per_step",
        wait_ns / 1e6,
        steps,
        "per rank, blocked in recv_raw",
    );
    let (max_bytes, mean_bytes, exchanges) = peer_imbalance(spans, starts);
    r.put(
        "a2a.peer_imbalance",
        if mean_bytes > 0.0 {
            max_bytes / mean_bytes
        } else {
            1.0
        },
        exchanges,
        format!("sum over exchanges of max {max_bytes:.0} / mean {mean_bytes:.0} cross-rank bytes"),
    );
    let overhead = if net.framed() {
        msgs * FRAME_HEADER as f64
    } else {
        0.0
    };
    r.put(
        "fabric.frame_overhead_bytes_per_step",
        overhead,
        steps,
        format!(
            "{FRAME_HEADER} B header x framed messages (framed={})",
            net.framed()
        ),
    );
}

/// Per-peer payload imbalance: the i-th cross-rank send of a step on each
/// rank is one exchange; returns Σ max and Σ mean of the ranks' bytes over
/// all exchanges (their ratio is a byte-weighted max ÷ mean), and the
/// exchange count.
/// With two ranks a whole step is always symmetric (every dispatched row
/// returns), so only a per-exchange view can show skew.
fn peer_imbalance(spans: &[Vec<Span>], starts: &[(u64, usize)]) -> (f64, f64, usize) {
    use std::collections::BTreeMap;
    let mut exchanges: BTreeMap<(u64, usize), Vec<u64>> = BTreeMap::new();
    for (rank, (s, &(from, _))) in spans.iter().zip(starts).enumerate() {
        let mut ordinal: BTreeMap<u64, usize> = BTreeMap::new();
        for sp in s
            .iter()
            .filter(|sp| sp.kind == Kind::Send && sp.start >= from && sp.peer as usize != rank)
        {
            let i = ordinal.entry(sp.step).or_default();
            exchanges
                .entry((sp.step, *i))
                .or_insert_with(|| vec![0; WORLD])[rank] = sp.arg;
            *i += 1;
        }
    }
    let (max, mean) = exchanges.values().fold((0.0, 0.0), |(mx, mn), b| {
        let top = *b.iter().max().expect("world") as f64;
        (mx + top, mn + b.iter().sum::<u64>() as f64 / b.len() as f64)
    });
    (max, mean, exchanges.len())
}

fn put_placement(r: &mut Report, out: &layer::RankOut) {
    let static_note = |what: &str| {
        if out.plans.is_empty() {
            format!("{what}; static layout")
        } else {
            what.to_string()
        }
    };
    r.put(
        "placement.plans",
        out.plans.len() as f64,
        out.plans.len(),
        static_note("committed plans"),
    );
    r.put(
        "placement.replications",
        out.replications as f64,
        out.plans.len(),
        static_note("replica servers summed over plans"),
    );
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    r.put(
        "placement.decide_us",
        med(&out.decide_us),
        out.decide_us.len(),
        static_note("decide_plan"),
    );
    r.put(
        "placement.apply_ms",
        med(&out.apply_ms),
        out.apply_ms.len(),
        static_note("guest installs + swap"),
    );
    r.put(
        "placement.hot_share",
        mean(&out.hot_share),
        out.hot_share.len(),
        static_note("mean over quanta of the top expert's / all routed tokens"),
    );
}

fn write_trace(workload: &str, seed: u64, spans: &[Vec<Span>]) {
    let dir = std::path::Path::new("perfbench-out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans)));
    match written {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
}

// ---------------------------------------------------------------- lm

fn lm_intervals(outs: &[lm::RankOut]) -> Vec<Vec<Interval>> {
    outs.iter().map(lm::intervals).collect()
}

fn lm_timed(args: &Args, r: &mut Report) {
    let clock = StealClock::start();
    let mut setup_runs = Vec::new();
    for _ in 1..SETUPS {
        setup_runs.push(lm::run_world(args.seed, None, None));
    }
    let calls = MIN_STEPS.div_ceil(lm::STEPS_PER_CALL - 1);
    let outs = lm::run_world(args.seed, Some(Budget::timed(args.seconds, calls)), None);
    let log = clock.finish();
    setup_runs.push(outs);
    let setups: Vec<f64> = setup_runs
        .iter()
        .map(|w| setup_of(&log, w.iter().map(|o| o.setup)))
        .collect();
    let outs = setup_runs.pop().expect("timed world");
    r.fail(lm::verify(&outs));
    r.attempted = (outs[0].reports.len() * lm::STEPS_PER_CALL) as u64;
    put_step_metrics(
        r,
        &log,
        &lm_intervals(&outs),
        lm::tokens_per_step() as f64,
        "",
    );
    r.put(
        "loss_final",
        lm::loss_final(&outs),
        lm::LOSS_WINDOW,
        format!("nats, last steps of each {}-step call", lm::STEPS_PER_CALL),
    );
    put_setup(r, &setups);
    let curve = &outs[0].reports[0].loss_curve;
    r.lines.push(format!(
        "rank 0 loss curve: first {:.4}, last {:.4} over {} steps",
        curve[0],
        curve[curve.len() - 1],
        curve.len()
    ));
}

fn lm_traced(args: &Args, r: &mut Report) {
    let half = args.seconds / 2.0;
    let clock = StealClock::start();
    let base = lm::run_world(args.seed, Some(Budget::timed(half, 1)), None);
    let origin = Instant::now();
    let recs: Vec<_> = (0..WORLD).map(|_| Recorder::new(origin)).collect();
    let outs = lm::run_world(args.seed, Some(Budget::timed(half, 1)), Some(&recs));
    let log = clock.finish();
    let tokens = lm::tokens_per_step() as f64;
    let base_tps = median(&windows(&steady_ms(&log, &lm_intervals(&base)), tokens));
    r.fail(lm::verify(&outs));
    r.attempted = (outs[0].reports.len() * lm::STEPS_PER_CALL) as u64;
    let traced_tps = median(&windows(&steady_ms(&log, &lm_intervals(&outs)), tokens));
    let spans: Vec<Vec<Span>> = recs.iter().map(|r| r.take()).collect();
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let intervals: Vec<Vec<(u64, u64)>> = outs
        .iter()
        .map(|o| {
            lm::intervals(o)
                .iter()
                .map(|(a, b)| (ns(*a), ns(*b)))
                .collect()
        })
        .collect();
    let starts = timed_from(&intervals);
    let w = waterfall::attribute(&intervals, &spans);
    let steps = w.steps / WORLD;
    let cfg = lm::config(args.seed, 1);
    let experts = WORLD;
    // k × all ranks' tokens spread over the experts (capacity never binds:
    // each expert can take every token once).
    let rows = cfg.k * lm::tokens_per_step() / experts;
    let gflops = put_gemm(r, rows, cfg.model_dim, cfg.hidden_dim);
    let gemm_ms = 16.0 * (rows * cfg.model_dim * cfg.hidden_dim) as f64 / (gflops * 1e9) * 1e3;
    r.put(
        "tensor.gemm_ms_per_step",
        gemm_ms,
        1,
        format!("{rows} expert rows x fwd+recompute+bwd flops / isolated GFLOP/s"),
    );
    let tokens_per_rank = cfg.seqs_per_rank * cfg.seq_len;
    let gate_ms = probes::gate_ms(
        tokens_per_rank,
        cfg.model_dim,
        experts,
        cfg.k,
        cfg.capacity_factor,
    );
    r.put(
        "gate.ms_per_step",
        gate_ms,
        7,
        format!("TopKGate fwd+bwd at [{tokens_per_rank}, {}]", cfg.model_dim),
    );
    r.put(
        "gate.shed_frac",
        0.0,
        0,
        "capacity admits every token (k = experts); not observable from run_ft_rank",
    );
    for name in [
        "expert.fwd_ms",
        "expert.bwd_ms",
        "moe.fwd_ms",
        "moe.bwd_ms",
        "moe.self_ms",
    ] {
        r.put(name, 0.0, 0, "n/a: run_ft_rank builds its own layer");
    }
    r.put(
        "codec.ratio",
        NoCompression.ratio(),
        0,
        "configured fp32 codec",
    );
    for name in [
        "codec.encode_ms_per_step",
        "codec.decode_ms_per_step",
        "a2a.calls_per_step",
        "a2a.bytes_per_step",
        "a2a.ms_per_step",
    ] {
        r.put(name, 0.0, 0, "n/a: run_ft_rank builds its own layer");
    }
    put_transport(r, &spans, &starts, steps, lm::NET);
    put_common_probes(r, tokens_per_rank * cfg.model_dim);
    put_placement(r, &layer::RankOut::default());
    let ckpt =
        match probes::lm_checkpoint_ms(cfg.vocab, cfg.model_dim, cfg.hidden_dim, experts, cfg.k) {
            Ok(c) => c,
            Err(e) => {
                r.fail([e]);
                f64::NAN
            }
        };
    r.put(
        "ft.checkpoint_ms",
        ckpt,
        7,
        "checkpoint::save of embed + gate + expert + head",
    );
    let ckpt_per_step = ckpt / cfg.checkpoint_every as f64;
    let residual = w.residual_ns / 1e6;
    r.put(
        "ft.residual_ms_per_step",
        residual - gemm_ms - gate_ms - ckpt_per_step,
        steps,
        "untraced loop time minus the isolated gemm, gate and checkpoint estimates",
    );
    r.put(
        "step.overlap_eff",
        0.0,
        0,
        "n/a: no compute spans in the ft loop",
    );
    r.put(
        "step.traced_ms",
        w.step_ns / 1e6,
        w.steps,
        "mean traced step, rank-averaged",
    );
    r.put(
        "step.residual_ms",
        residual,
        w.steps,
        "step time no layer span covers (the ft loop's own work)",
    );
    r.put(
        "trace.overhead_frac",
        1.0 - traced_tps / base_tps,
        steps,
        format!("1 - traced {traced_tps:.1} / untraced {base_tps:.1} tokens/s"),
    );
    print_waterfall(
        r,
        &w,
        &[
            ("tensor.gemm", gemm_ms),
            ("gate", gate_ms),
            ("ft.checkpoint/5", ckpt_per_step),
        ],
    );
    write_trace("lm_train", args.seed, &spans);
}

fn main() {
    // A rank that panics may leave its peer blocked in a receive; exit
    // at once rather than hang on the join.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(2);
    }));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut r = Report::default();
    let (net, degree) = match layer_spec(&args.workload) {
        Some(spec) => (spec.net, spec.degree),
        None => (lm::NET, 1),
    };
    r.lines.push(host_line(&args, net, degree));
    r.lines.push(format!(
        "workload {} ({}), {} s per timed phase",
        args.workload,
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    ));
    match (layer_spec(&args.workload), args.trace) {
        (Some(spec), false) => layer_timed(spec, &args, &mut r),
        (Some(spec), true) => layer_traced(spec, &args, &mut r),
        (None, false) => lm_timed(&args, &mut r),
        (None, true) => lm_traced(&args, &mut r),
    }
    if !args.trace {
        r.put("peak_rss_mib", peak_rss_mib(), 1, "VmHWM of the whole run");
    }
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let correct = r.print(&names, args.trace);
    std::process::exit(if correct { 0 } else { 1 });
}
