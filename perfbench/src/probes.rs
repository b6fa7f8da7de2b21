//! Isolated layer probes: each times one layer's public entry point on its
//! own, at the workload's shapes, and checks the result first so a probe
//! can never time a broken kernel.

use std::sync::atomic::AtomicBool;
use std::time::Instant;

use bytes::Bytes;
use schemoe_cluster::faults;
use schemoe_cluster::transport::TransportKind;
use schemoe_compression::{Compressor, NoCompression, ZfpCompressor};
use schemoe_moe::{Expert, FfExpert, TopKGate};
use schemoe_scheduler::executor::{run_overlapped_cancellable, ExecTask, Worker};
use schemoe_tensor::checkpoint::{self, ParamVisitor};
use schemoe_tensor::nn::{Embedding, Linear, Module};
use schemoe_tensor::rng::{seeded, uniform};
use schemoe_tensor::Tensor;

use crate::stats::{median, time_median};
use crate::world::{self, Net};

const GIB: f64 = (1u64 << 30) as f64;
const REPS: usize = 7;

/// A probe result, or the reason its output check failed.
pub type Probe<T> = Result<T, String>;

fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (n, k, m) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let mut out = vec![0f32; n * m];
    for i in 0..n {
        for p in 0..k {
            let av = a.data()[i * k + p];
            for j in 0..m {
                out[i * m + j] += av * b.data()[p * m + j];
            }
        }
    }
    out
}

fn close(got: &[f32], want: &[f32], what: &str) -> Probe<()> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if (g - w).abs() > 1e-3 * (1.0 + w.abs()) {
            return Err(format!("{what}: element {i} is {g}, reference {w}"));
        }
    }
    Ok(())
}

/// GFLOP/s of the expert's three GEMM forms (`matmul`, `matmul_t`,
/// `t_matmul`) at `[rows, m] × [m, h]`, each checked against a naive loop.
pub fn gemm_gflops(rows: usize, m: usize, h: usize) -> Probe<f64> {
    let mut rng = seeded(11);
    let x = uniform(&[rows, m], 1.0, &mut rng);
    let w = uniform(&[m, h], 1.0, &mut rng);
    let dy = uniform(&[rows, h], 1.0, &mut rng);
    let fwd = x.matmul(&w).map_err(|e| e.to_string())?;
    close(fwd.data(), &naive_matmul(&x, &w), "matmul")?;
    let wt = w.transpose().map_err(|e| e.to_string())?;
    let back = dy.matmul_t(&w).map_err(|e| e.to_string())?;
    close(back.data(), &naive_matmul(&dy, &wt), "matmul_t")?;
    let xt = x.transpose().map_err(|e| e.to_string())?;
    let grad = x.t_matmul(&dy).map_err(|e| e.to_string())?;
    close(grad.data(), &naive_matmul(&xt, &dy), "t_matmul")?;
    let secs = time_median(REPS, || {
        std::hint::black_box(x.matmul(&w).expect("checked shape"));
    }) + time_median(REPS, || {
        std::hint::black_box(dy.matmul_t(&w).expect("checked shape"));
    }) + time_median(REPS, || {
        std::hint::black_box(x.t_matmul(&dy).expect("checked shape"));
    });
    Ok(3.0 * 2.0 * (rows * m * h) as f64 / secs / 1e9)
}

/// Milliseconds of one `TopKGate` forward + backward over `[n, m]`.
pub fn gate_ms(n: usize, m: usize, experts: usize, k: usize, capacity: f64) -> f64 {
    let x = uniform(&[n, m], 1.0, &mut seeded(12));
    let mut gate = TopKGate::new(m, experts, k, capacity, &mut seeded(13));
    1e3 * time_median(REPS, || {
        let d = gate.forward(&x);
        let dw: Vec<Vec<f32>> = d.assignments.iter().map(|a| vec![1.0; a.len()]).collect();
        std::hint::black_box(gate.backward(&dw));
    })
}

/// Encode and decode GiB/s (of raw f32 bytes) over `n` values, after
/// checking the round trip: exact for fp32, within the per-block bound
/// `max|block| / (2^(bits-1) - 1)` for the ZFP-style codec.
pub fn codec_gibs(codec: &dyn Compressor, n: usize) -> Probe<(f64, f64)> {
    let data = uniform(&[n], 1.0, &mut seeded(14)).into_vec();
    let wire = codec.compress(&data);
    let back = codec
        .decompress(&wire, n)
        .map_err(|e| format!("{}: {e}", codec.name()))?;
    if codec.is_lossless() {
        if back != data {
            return Err(format!("{}: lossless round trip differs", codec.name()));
        }
    } else {
        let qmax = f32::from((1u16 << (ZfpCompressor::default().mantissa_bits() - 1)) - 1);
        for (i, (block, got)) in data.chunks(8).zip(back.chunks(8)).enumerate() {
            let bound = block.iter().fold(0f32, |m, v| m.max(v.abs())) / qmax;
            if block
                .iter()
                .zip(got)
                .any(|(a, b)| (a - b).abs() > bound * 1.0001)
            {
                return Err(format!(
                    "{}: block {i} exceeds its error bound",
                    codec.name()
                ));
            }
        }
    }
    let raw = (n * 4) as f64;
    let enc = time_median(REPS, || {
        std::hint::black_box(codec.compress(&data));
    });
    let dec = time_median(REPS, || {
        std::hint::black_box(codec.decompress(&wire, n).expect("checked payload"));
    });
    Ok((raw / enc / GIB, raw / dec / GIB))
}

/// The fp32 and ZFP codecs, in that order.
pub fn codecs() -> [(&'static str, Box<dyn Compressor>); 2] {
    [
        ("fp32", Box::new(NoCompression)),
        ("zfp", Box::new(ZfpCompressor::default())),
    ]
}

/// GiB/s of `faults::crc32` over 4 MiB, after the standard check value.
pub fn crc_gibs() -> Probe<f64> {
    let check = faults::crc32(b"123456789");
    if check != 0xCBF4_3926 {
        return Err(format!(
            "crc32(\"123456789\") = {check:#010x}, want 0xcbf43926"
        ));
    }
    let buf = vec![0xA5u8; 4 << 20];
    let secs = time_median(REPS, || {
        std::hint::black_box(faults::crc32(&buf));
    });
    Ok(buf.len() as f64 / secs / GIB)
}

/// Round-trip µs of a 64-byte ping-pong between two ranks of an unshaped
/// `kind` mesh, plus echo-stream GiB/s of 1 MiB payloads on tcp. Every
/// echoed payload must match byte for byte.
pub fn transport(kind: TransportKind, stream: bool) -> Probe<(f64, f64)> {
    const PINGS: usize = 200;
    const CHUNKS: usize = 32;
    let net = Net {
        kind,
        shaping: None,
    };
    let results = world::run(net, &world::bare, |mut h| -> Probe<(f64, f64)> {
        let me = h.rank();
        let peer = 1 - me;
        let ping = Bytes::from(vec![7u8; 64]);
        let mut rtts = Vec::with_capacity(PINGS);
        for i in 0..PINGS as u64 {
            if me == 0 {
                let t = Instant::now();
                h.send(peer, i, ping.clone()).map_err(|e| e.to_string())?;
                let back = h.recv(peer, i).map_err(|e| e.to_string())?;
                rtts.push(t.elapsed().as_secs_f64() * 1e6);
                if back != ping {
                    return Err(format!("ping {i} echoed different bytes"));
                }
            } else {
                let got = h.recv(peer, i).map_err(|e| e.to_string())?;
                h.send(peer, i, got).map_err(|e| e.to_string())?;
            }
        }
        let mut gibs = 0.0;
        if stream {
            let payloads: Vec<Bytes> = (0..CHUNKS)
                .map(|c| {
                    Bytes::from(
                        (0..1usize << 20)
                            .map(|b| (b * 31 + c) as u8)
                            .collect::<Vec<u8>>(),
                    )
                })
                .collect();
            h.barrier();
            let t = Instant::now();
            for (c, p) in payloads.iter().enumerate() {
                let tag = 1_000 + c as u64;
                if me == 0 {
                    h.send(peer, tag, p.clone()).map_err(|e| e.to_string())?;
                } else {
                    let got = h.recv(peer, tag).map_err(|e| e.to_string())?;
                    h.send(peer, tag, got).map_err(|e| e.to_string())?;
                }
            }
            if me == 0 {
                for (c, p) in payloads.iter().enumerate() {
                    let back = h.recv(peer, 1_000 + c as u64).map_err(|e| e.to_string())?;
                    if back != *p {
                        return Err(format!("stream chunk {c} echoed different bytes"));
                    }
                }
                gibs = ((2 * CHUNKS) << 20) as f64 / t.elapsed().as_secs_f64() / GIB;
            }
        }
        h.barrier();
        Ok((if me == 0 { median(&rtts) } else { 0.0 }, gibs))
    });
    let mut results = results.into_iter();
    let first = results.next().expect("rank 0")?;
    results.try_for_each(|r| r.map(|_| ()))?;
    Ok(first)
}

/// Per-task µs of the two-worker executor on a chain of empty tasks that
/// alternates workers, so every task is a hand-off.
pub fn executor_overhead_us() -> f64 {
    const TASKS: usize = 64;
    let never = AtomicBool::new(false);
    let secs = time_median(REPS, || {
        let tasks: Vec<ExecTask<'_>> = (0..TASKS)
            .map(|i| ExecTask {
                worker: if i % 2 == 0 {
                    Worker::Compute
                } else {
                    Worker::Comm
                },
                deps: if i == 0 { Vec::new() } else { vec![i - 1] },
                span: None,
                run: Box::new(|| {}),
            })
            .collect();
        run_overlapped_cancellable(tasks, &never).expect("empty tasks cannot fail");
    });
    secs * 1e6 / TASKS as f64
}

/// Milliseconds of one `checkpoint::save` over `params`, after checking the
/// saved buffer verifies.
pub fn checkpoint_ms(params: &mut ParamVisitor<'_>) -> Probe<f64> {
    let saved = checkpoint::save(params);
    checkpoint::verify(&saved).map_err(|e| e.to_string())?;
    Ok(1e3
        * time_median(REPS, || {
            std::hint::black_box(checkpoint::save(params));
        }))
}

/// `lm_train`'s parameter set: embedding, gate, one expert, head.
pub fn lm_checkpoint_ms(vocab: usize, m: usize, h: usize, experts: usize, k: usize) -> Probe<f64> {
    let mut embed = Embedding::new(vocab, m, &mut seeded(15));
    let mut gate = TopKGate::new(m, experts, k, 2.0, &mut seeded(16));
    let mut expert = FfExpert::new(m, h, &mut seeded(17));
    let mut head = Linear::new(m, vocab, &mut seeded(18));
    checkpoint_ms(&mut |f| {
        embed.visit_params(f);
        gate.visit_params(f);
        expert.visit_params(f);
        head.visit_params(f);
    })
}

/// A layer workload's per-rank parameter set: gate plus local experts.
pub fn layer_checkpoint_ms(
    m: usize,
    h: usize,
    experts: usize,
    local: usize,
    k: usize,
) -> Probe<f64> {
    let mut gate = TopKGate::new(m, experts, k, 2.0, &mut seeded(16));
    let mut bodies: Vec<FfExpert> = (0..local)
        .map(|i| FfExpert::new(m, h, &mut seeded(17 + i as u64)))
        .collect();
    checkpoint_ms(&mut |f| {
        gate.visit_params(f);
        for b in &mut bodies {
            b.visit_params(f);
        }
    })
}
