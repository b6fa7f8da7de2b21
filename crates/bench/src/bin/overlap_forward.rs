//! Wall-clock benchmark of the functional overlapped MoE forward.
//!
//! Runs the same expert-parallel forward twice on a fabric whose
//! cross-rank sends cost real time (a [`WireModel`] charging latency +
//! bytes/bandwidth): once serially (degree 1) and once with ScheMoE's
//! pipelined schedule (degree `r`), and reports the measured speedup.
//! Because the wire occupies only the communication worker, the pipelined
//! run hides transfer time behind expert compute — the same mechanism the
//! paper's Fig. 3 pipeline exploits on real NICs.
//!
//! The wire is not fixed: before timing, serial forwards on an unshaped
//! wire measure the host's compute and the layer's traffic, and
//! the wire's latency and per-byte cost are scaled together until modelled
//! comm equals measured compute (see [`WireCalibration`]).
//!
//! Output is machine-readable `BENCH_*` lines plus a human table, and a
//! `BENCH_overlap.json` report (per-degree speedups, per-phase time
//! breakdown from an instrumented extra run, and fabric byte counts) that
//! CI's bench gate consumes.

use std::time::{Duration, Instant};

use schemoe_bench::WireCalibration;
use schemoe_cluster::{Fabric, Topology, WireModel};
use schemoe_collectives::NcclA2A;
use schemoe_compression::NoCompression;
use schemoe_moe::{DistributedMoeLayer, Expert, FfExpert, TopKGate};
use schemoe_obs as obs;
use schemoe_tensor::rng::{self, seeded};
use schemoe_tensor::Tensor;

const M: usize = 128;
const H: usize = 512;
const N_LOCAL: usize = 256;
const K: usize = 2;
const CAPACITY: f64 = 1.5;
const REPS: usize = 3;

/// One full forward at the given degree; returns (max rank ms, outputs).
fn run_once(
    topo: Topology,
    wire: WireModel,
    x_global: &Tensor,
    degree: usize,
) -> (f64, Vec<Tensor>) {
    let results = Fabric::run_with_wire(topo, wire, |mut h| {
        let me = h.rank();
        let p = h.world_size();
        let gate = TopKGate::new(M, p, K, CAPACITY, &mut seeded(555));
        let experts: Vec<Box<dyn Expert>> =
            vec![Box::new(FfExpert::new(M, H, &mut seeded(1000 + me as u64)))];
        let mut layer =
            DistributedMoeLayer::new(gate, experts, Box::new(NoCompression), Box::new(NcclA2A))
                .with_partition_degree(degree)
                .with_recv_timeout(Duration::from_secs(60));
        let mut x = Tensor::zeros(&[N_LOCAL, M]);
        for r in 0..N_LOCAL {
            x.row_mut(r).copy_from_slice(x_global.row(me * N_LOCAL + r));
        }
        h.barrier();
        let t0 = Instant::now();
        let y = layer.forward(&mut h, &x, 0).unwrap();
        let elapsed = t0.elapsed();
        h.barrier();
        (elapsed, y)
    });
    let ms = results
        .iter()
        .map(|(d, _)| d.as_secs_f64() * 1e3)
        .fold(0.0f64, f64::max);
    (ms, results.into_iter().map(|(_, y)| y).collect())
}

/// Best-of-`REPS` timing after one warmup, plus the outputs of the last
/// run (identical across runs: the layer is deterministic).
fn measure(topo: Topology, wire: WireModel, x: &Tensor, degree: usize) -> (f64, Vec<Tensor>) {
    let _ = run_once(topo, wire, x, degree);
    let mut best = f64::INFINITY;
    let mut outs = Vec::new();
    for _ in 0..REPS {
        let (ms, y) = run_once(topo, wire, x, degree);
        best = best.min(ms);
        outs = y;
    }
    (best, outs)
}

/// Per-phase wall time and fabric totals from one instrumented forward.
///
/// Timing reps run with the recorder off (so the gated speedup reflects the
/// uninstrumented path); this extra run turns it on to attribute where the
/// time goes. Fabric counters are summed across ranks.
struct Instrumented {
    encode_ms: f64,
    a2a_ms: f64,
    expert_ms: f64,
    decode_ms: f64,
    bytes_sent: u64,
    msgs_sent: u64,
    recv_wait_ms: f64,
    timeouts: u64,
}

fn instrument(topo: Topology, wire: WireModel, x: &Tensor, degree: usize) -> Instrumented {
    obs::reset_counters();
    let _ = obs::take();
    obs::enable();
    let _ = run_once(topo, wire, x, degree);
    let trace = obs::take();
    obs::disable();
    let (mut bytes_sent, mut msgs_sent, mut recv_wait_ns, mut timeouts) = (0u64, 0u64, 0u64, 0u64);
    for c in &trace.counters {
        bytes_sent += c.bytes_sent;
        msgs_sent += c.msgs_sent;
        recv_wait_ns += c.recv_wait_ns;
        timeouts += c.timeouts;
    }
    Instrumented {
        encode_ms: trace.total_ms_by_cat("encode"),
        a2a_ms: trace.total_ms_by_cat("a2a"),
        expert_ms: trace.total_ms_by_cat("expert"),
        decode_ms: trace.total_ms_by_cat("decode"),
        bytes_sent,
        msgs_sent,
        recv_wait_ms: recv_wait_ns as f64 / 1e6,
        timeouts,
    }
}

fn json_degree(r: usize, ms: f64, speedup: f64, i: &Instrumented) -> String {
    format!(
        concat!(
            "{{\"r\":{},\"ms\":{:.3},\"speedup\":{:.4},",
            "\"phases_ms\":{{\"encode\":{:.3},\"a2a\":{:.3},",
            "\"expert\":{:.3},\"decode\":{:.3}}},",
            "\"fabric\":{{\"bytes_sent\":{},\"msgs_sent\":{},",
            "\"recv_wait_ms\":{:.3},\"timeouts\":{}}}}}"
        ),
        r,
        ms,
        speedup,
        i.encode_ms,
        i.a2a_ms,
        i.expert_ms,
        i.decode_ms,
        i.bytes_sent,
        i.msgs_sent,
        i.recv_wait_ms,
        i.timeouts,
    )
}

fn main() {
    let topo = Topology::new(1, 4);
    let p = topo.world_size();
    // The wire is sized from a measured serial forward so one layer's wire
    // time equals its expert compute, the regime pipelining targets. The
    // base fixes only the latency : per-byte mix.
    let base = WireModel {
        latency: Duration::from_micros(200),
        bytes_per_sec: 10e6,
    };
    let x_global = rng::uniform(&[N_LOCAL * p, M], 1.0, &mut seeded(7));
    let cal = WireCalibration::measure(base, |wire| run_once(topo, wire, &x_global, 1).0);
    let wire = cal.wire;

    println!(
        "overlap_forward: {p} ranks, {N_LOCAL} tokens/rank, M={M}, H={H}, \
         k={K}, f={CAPACITY}, wire {:.2} MB/s + {:?}/msg",
        wire.bytes_per_sec / 1e6,
        wire.latency,
    );
    println!("{}\n", cal.describe());

    let (serial_ms, serial_out) = measure(topo, wire, &x_global, 1);
    println!("{:>10} {:>12}", "degree", "fwd ms");
    println!("{:>10} {serial_ms:>12.1}", "1 (serial)");
    println!("BENCH_SERIAL_MS={serial_ms:.2}");
    let serial_inst = instrument(topo, wire, &x_global, 1);
    let mut degree_json = vec![json_degree(1, serial_ms, 1.0, &serial_inst)];

    for degree in [2usize, 4, 8] {
        let (ms, out) = measure(topo, wire, &x_global, degree);
        for (rank, (got, want)) in out.iter().zip(&serial_out).enumerate() {
            let diff = got.max_abs_diff(want).unwrap();
            assert_eq!(diff, 0.0, "degree {degree} rank {rank} diverged by {diff}");
        }
        let speedup = serial_ms / ms;
        println!("{degree:>10} {ms:>12.1}   ({speedup:.2}x, bit-identical)");
        println!("BENCH_OVERLAPPED_R{degree}_MS={ms:.2}");
        println!("BENCH_SPEEDUP_R{degree}={speedup:.3}");
        let inst = instrument(topo, wire, &x_global, degree);
        degree_json.push(json_degree(degree, ms, speedup, &inst));
    }

    let report = format!(
        "{{\"bench\":\"overlap_forward\",\"ranks\":{p},\"tokens_per_rank\":{N_LOCAL},\
         \"serial_ms\":{serial_ms:.3},\"degrees\":[{}],\"calibration\":{}}}\n",
        degree_json.join(","),
        cal.json(),
    );
    let path = "BENCH_overlap.json";
    std::fs::write(path, &report).expect("write BENCH_overlap.json");
    println!("\nBENCH_JSON={path}");
}
