//! Shared utilities for the benchmark harness.
//!
//! One binary per paper artifact lives in `src/bin/`:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 — A2A time vs step time on Tutel |
//! | `table6` | Table 6 — convergence under compression |
//! | `table7` | Table 7 — CT-MoE-x step times, three systems |
//! | `table8` | Table 8 — BERT-Large-MoE end-to-end |
//! | `table10` | Table 10 — component ablation |
//! | `fig5` | Fig. 5 — schedule timelines + Theorem 1 check |
//! | `fig8` | Fig. 8 — 675-config speedup-over-Tutel histogram |
//! | `fig9` | Fig. 9 — A2A algorithm comparison across sizes |
//! | `calibrate` | model-vs-paper anchor summary |
//! | `ablation_degree` | partition degree vs layer shape + adaptive choice |
//! | `ablation_hardware` | Eq. 18 tent curve over intra/inter balance |
//! | `ablation_compression` | ZFP break-even across hardware profiles |
//! | `ablation_routing` | routing strategies vs load balance |
//! | `ablation_imbalance` | straggler factor vs routing skew (Eq. 1) |
//! | `scaling` | weak scaling 4 → 128 GPUs |
//!
//! Criterion micro-benchmarks of the hot paths live in `benches/`.

use std::time::Duration;

use schemoe::prelude::*;
use schemoe_cluster::WireModel;
use schemoe_netsim::cost::LinkModel;
use schemoe_tensor::rng::seeded;

use rand::Rng;

/// Mean and sample standard deviation of a series.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// A copy of `hw` with every link bandwidth perturbed by `N(1, sigma)`.
///
/// The paper reports mean ± std over three real runs; the simulator is
/// deterministic, so run-to-run variance is modelled as small multiplicative
/// noise on the link rates (network jitter is where real testbed variance
/// comes from).
pub fn jittered(hw: &HardwareProfile, sigma: f64, seed: u64) -> HardwareProfile {
    let mut rng = seeded(seed);
    let mut bump = |l: LinkModel| {
        let noise: f64 = 1.0 + sigma * (rng.gen_range(0.0f64..1.0) * 2.0 - 1.0);
        LinkModel::new(l.latency_s, l.bandwidth_bps * noise)
    };
    let mut out = hw.clone();
    out.intra_link = bump(out.intra_link);
    out.intra_link_exclusive = bump(out.intra_link_exclusive);
    out.inter_link = bump(out.inter_link);
    // Framework overhead also varies run to run (driver, Python, allocator).
    let noise: f64 = 1.0 + sigma * (rng.gen_range(0.0f64..1.0) * 2.0 - 1.0);
    out.layer_overhead = out.layer_overhead * noise;
    out
}

/// Runs a step-time estimate under three jittered profiles and returns
/// `(mean_ms, std_ms)`, or `None` when the system goes out of memory.
pub fn step_ms_3runs(
    system: &dyn MoeSystem,
    model: &MoeModelConfig,
    topo: &Topology,
    hw: &HardwareProfile,
) -> Option<(f64, f64)> {
    let mut samples = Vec::with_capacity(3);
    for run in 0..3u64 {
        let hw_run = jittered(hw, 0.01, 1234 + run);
        match model_step_time(system, model, topo, &hw_run) {
            Ok(est) => samples.push(est.step.as_ms()),
            Err(StepTimeError::OutOfMemory { .. }) => return None,
        }
    }
    Some(mean_std(&samples))
}

/// Formats bytes with a binary-ish unit for table output.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1_000_000_000 {
        format!("{:.1}G", b as f64 / 1e9)
    } else if b >= 1_000_000 {
        format!("{:.0}M", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.0}K", b as f64 / 1e3)
    } else {
        format!("{b}B")
    }
}

/// The Table 4 sweep grid: every (B, f, L, H, M) combination.
pub fn table4_grid() -> Vec<LayerShape> {
    let mut shapes = Vec::new();
    for &b in &[2usize, 4, 8] {
        for &f in &[1.0f64, 1.1, 1.2] {
            for &l in &[512usize, 1024, 2048] {
                for &h in &[512usize, 1024, 2048, 4096, 8192] {
                    for &m in &[512usize, 1024, 2048, 4096, 8192] {
                        shapes.push(LayerShape {
                            tokens_per_gpu: b * l,
                            model_dim: m,
                            hidden_dim: h,
                            experts: 32,
                            k: 2,
                            capacity_factor: f,
                        });
                    }
                }
            }
        }
    }
    shapes
}

/// Whether a sweep configuration fits in device memory (expert state +
/// activations + capacity-padded A2A buffers), mirroring the paper's OOM
/// exclusion of sweep cases (§6.1). The 3·3·3·5·5 grid is 675 cases and
/// §6.3 reports 675 valid measurements, so on the paper's own budget every
/// grid point fits a single MoE-layer microbenchmark; the check still
/// guards the sweep against profile variants with less memory.
pub fn sweep_config_fits(shape: &LayerShape, topo: &Topology, hw: &HardwareProfile) -> bool {
    let mut budget = MemoryBudget::new(hw.gpu_mem_bytes);
    budget.add("expert state", shape.expert_state_bytes(topo.world_size()));
    budget.add(
        "activations",
        4 * (shape.tokens_per_gpu * shape.model_dim * 4) as u64,
    );
    budget.add("a2a buffers", 2 * shape.a2a_bytes());
    budget.add("framework reserve", 1 << 30);
    budget.fits()
}

/// A pipelining bench's wire, sized from one measured serial step so the
/// step's modelled communication equals its measured compute: the regime
/// pipelining targets, whatever the host's GEMM speed.
#[derive(Debug, Clone, Copy)]
pub struct WireCalibration {
    /// Wall-clock ms of the serial step on an unshaped wire.
    pub compute_ms: f64,
    /// Bytes the busiest rank sends per step.
    pub bytes: u64,
    /// Messages the busiest rank sends per step.
    pub msgs: u64,
    /// The chosen wire: the base latency and per-byte cost, both scaled by
    /// one common factor.
    pub wire: WireModel,
}

impl WireCalibration {
    /// Measures a serial step through `step` (which runs one step on the
    /// given wire and returns its wall-clock ms) and scales `base` to fit.
    ///
    /// One step with the recorder on counts each rank's traffic and warms
    /// up; compute is the best of the next three, with it off (the same
    /// best-of-3 the benches time with). The rank with the most modelled
    /// wire time sets the comm side: its sends bound the step.
    pub fn measure(base: WireModel, mut step: impl FnMut(WireModel) -> f64) -> Self {
        let unshaped = WireModel {
            latency: Duration::ZERO,
            bytes_per_sec: f64::INFINITY,
        };
        schemoe_obs::reset_counters();
        let _ = schemoe_obs::take();
        schemoe_obs::enable();
        step(unshaped);
        let trace = schemoe_obs::take();
        schemoe_obs::disable();
        let compute_ms = (0..3).map(|_| step(unshaped)).fold(f64::INFINITY, f64::min);
        let mut cal = trace
            .counters
            .iter()
            .map(|c| WireCalibration {
                compute_ms,
                bytes: c.bytes_sent,
                msgs: c.msgs_sent,
                wire: base,
            })
            .max_by(|a, b| a.comm_ms().total_cmp(&b.comm_ms()))
            .expect("the step recorded its ranks' counters");
        let scale = compute_ms / cal.comm_ms();
        cal.wire = WireModel {
            latency: base.latency.mul_f64(scale),
            bytes_per_sec: base.bytes_per_sec / scale,
        };
        cal
    }

    /// Modelled wire time of the busiest rank's step traffic, in ms.
    pub fn comm_ms(&self) -> f64 {
        1e3 * (self.msgs as f64 * self.wire.latency.as_secs_f64()
            + self.bytes as f64 / self.wire.bytes_per_sec)
    }

    /// Modelled comm over measured compute (1 when calibrated).
    pub fn ratio(&self) -> f64 {
        self.comm_ms() / self.compute_ms
    }

    /// One human-readable line.
    pub fn describe(&self) -> String {
        format!(
            "calibration: serial compute {:.1} ms; busiest rank sends {} bytes in {} msgs \
             -> modelled comm {:.1} ms (comm/compute {:.3})",
            self.compute_ms,
            self.bytes,
            self.msgs,
            self.comm_ms(),
            self.ratio(),
        )
    }

    /// The calibration as a JSON object, for the bench reports.
    pub fn json(&self) -> String {
        format!(
            "{{\"compute_ms\":{:.3},\"bytes\":{},\"msgs\":{},\
             \"wire_latency_us\":{:.1},\"wire_mb_per_s\":{:.3},\"comm_ms\":{:.3},\
             \"comm_compute_ratio\":{:.4}}}",
            self.compute_ms,
            self.bytes,
            self.msgs,
            self.wire.latency.as_secs_f64() * 1e6,
            self.wire.bytes_per_sec / 1e6,
            self.comm_ms(),
            self.ratio(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 6.0]);
        assert!((m - 4.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]).1, 0.0);
    }

    #[test]
    fn grid_has_675_configs() {
        assert_eq!(table4_grid().len(), 3 * 3 * 3 * 5 * 5);
    }

    #[test]
    fn jitter_changes_rates_slightly() {
        let hw = HardwareProfile::paper_testbed();
        let j = jittered(&hw, 0.01, 7);
        let a = hw.inter_link.bandwidth_bps;
        let b = j.inter_link.bandwidth_bps;
        assert!(a != b);
        assert!((a - b).abs() / a < 0.011);
    }

    #[test]
    fn sweep_fits_the_paper_testbed_but_not_smaller_gpus() {
        // §6.3 measures all 675 grid cases, including the Table 10 layer,
        // so everything must fit an 11 GB device...
        let topo = Topology::paper_testbed();
        let hw = HardwareProfile::paper_testbed();
        for shape in table4_grid() {
            assert!(
                sweep_config_fits(&shape, &topo, &hw),
                "{shape:?} flagged OOM"
            );
        }
        // ...while a hypothetical 6 GB device would drop the big corners.
        let mut small_hw = hw.clone();
        small_hw.gpu_mem_bytes = 6 * 1024 * 1024 * 1024;
        let excluded = table4_grid()
            .iter()
            .filter(|s| !sweep_config_fits(s, &topo, &small_hw))
            .count();
        assert!(excluded > 0, "memory guard never triggers");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2_000), "2K");
        assert_eq!(fmt_bytes(3_500_000), "4M");
        assert_eq!(fmt_bytes(2_500_000_000), "2.5G");
    }
}
