//! Metric definitions, the design record of what each per-layer metric
//! should move, and the printed report.

use std::fmt::Write as _;

/// An end-to-end metric: `(name, unit, better, definition)`.
pub const END_TO_END: [(&str, &str, &str, &str); 6] = [
    ("tokens_per_s", "tokens/s", "higher",
     "global tokens (capacity-shed ones excluded) per second of slowest-rank step time with hypervisor steal removed, median over 10-step windows"),
    ("step_ms_p50", "ms", "lower", "median step wall time less hypervisor steal, each step timed on its slowest rank"),
    ("step_ms_p90", "ms", "lower", "90th percentile of the same samples (printed only with >= 10 samples beyond it)"),
    ("loss_final", "loss", "lower",
     "lm_train: mean cross-entropy (nats) of the last 10 steps; layer workloads: mean over the pool batches of 1/2 |y|^2 per token, the loss whose gradient the step backpropagates"),
    ("setup_s", "s", "lower",
     "mesh establishment, model construction and warm-up steps (steal removed), median of 5 set-ups"),
    ("peak_rss_mib", "MiB", "lower", "peak resident memory of the run (VmHWM)"),
];

/// A per-layer metric: `(name, unit, better, should move, should not move)`.
pub const PER_LAYER: [(&str, &str, &str, &str, &str); 41] = [
    (
        "tensor.gemm_gflops",
        "GFLOP/s",
        "higher",
        "lm_train tokens_per_s; moe_overlap step_ms_p50",
        "a2a_tcp",
    ),
    (
        "tensor.gemm_ms_per_step",
        "ms",
        "lower",
        "lm_train tokens_per_s; moe_overlap step_ms_p50",
        "a2a_tcp",
    ),
    (
        "gate.ms_per_step",
        "ms",
        "lower",
        "lm_train tokens_per_s",
        "-",
    ),
    (
        "gate.shed_frac",
        "ratio",
        "lower",
        "moe_skew tokens_per_s",
        "other workloads (0)",
    ),
    (
        "expert.fwd_ms",
        "ms",
        "lower",
        "moe_overlap step_ms_p50; moe_skew step_ms_p90",
        "a2a_tcp",
    ),
    (
        "expert.bwd_ms",
        "ms",
        "lower",
        "moe_overlap step_ms_p50; moe_skew step_ms_p90",
        "a2a_tcp",
    ),
    (
        "moe.fwd_ms",
        "ms",
        "lower",
        "a2a_tcp and moe_overlap tokens_per_s",
        "-",
    ),
    (
        "moe.bwd_ms",
        "ms",
        "lower",
        "a2a_tcp and moe_overlap tokens_per_s",
        "-",
    ),
    (
        "moe.self_ms",
        "ms",
        "lower",
        "a2a_tcp and moe_overlap tokens_per_s",
        "a simplicity change to distributed.rs",
    ),
    (
        "codec.fp32.encode_gibs",
        "GiB/s",
        "higher",
        "a2a_tcp tokens_per_s",
        "moe_overlap",
    ),
    (
        "codec.fp32.decode_gibs",
        "GiB/s",
        "higher",
        "a2a_tcp tokens_per_s",
        "moe_overlap",
    ),
    (
        "codec.zfp.encode_gibs",
        "GiB/s",
        "higher",
        "moe_overlap tokens_per_s",
        "a2a_tcp, lm_train",
    ),
    (
        "codec.zfp.decode_gibs",
        "GiB/s",
        "higher",
        "moe_overlap tokens_per_s",
        "a2a_tcp, lm_train",
    ),
    (
        "codec.ratio",
        "ratio",
        "higher",
        "moe_overlap tokens_per_s",
        "a2a_tcp, lm_train",
    ),
    (
        "codec.encode_ms_per_step",
        "ms",
        "lower",
        "the workload's step_ms_p50",
        "-",
    ),
    (
        "codec.decode_ms_per_step",
        "ms",
        "lower",
        "the workload's step_ms_p50",
        "-",
    ),
    (
        "a2a.calls_per_step",
        "count",
        "lower",
        "a2a_tcp tokens_per_s; moe_overlap step_ms_p50",
        "-",
    ),
    (
        "a2a.bytes_per_step",
        "bytes",
        "lower",
        "a2a_tcp tokens_per_s; moe_overlap step_ms_p50",
        "-",
    ),
    (
        "a2a.ms_per_step",
        "ms",
        "lower",
        "a2a_tcp tokens_per_s; moe_overlap step_ms_p50",
        "-",
    ),
    (
        "a2a.peer_imbalance",
        "ratio",
        "lower",
        "moe_skew step_ms_p90",
        "other workloads (about 1)",
    ),
    (
        "transport.msgs_per_step",
        "count",
        "lower",
        "a2a_tcp tokens_per_s; lm_train control plane",
        "-",
    ),
    (
        "transport.bytes_per_step",
        "bytes",
        "lower",
        "a2a_tcp tokens_per_s",
        "-",
    ),
    (
        "transport.send_ms_per_step",
        "ms",
        "lower",
        "a2a_tcp tokens_per_s",
        "-",
    ),
    (
        "transport.recv_wait_ms_per_step",
        "ms",
        "lower",
        "a2a_tcp tokens_per_s",
        "-",
    ),
    (
        "transport.tcp.stream_gibs",
        "GiB/s",
        "higher",
        "a2a_tcp tokens_per_s",
        "channel workloads",
    ),
    (
        "transport.tcp.rtt_us",
        "us",
        "lower",
        "a2a_tcp tokens_per_s",
        "channel workloads",
    ),
    (
        "fabric.crc_gibs",
        "GiB/s",
        "higher",
        "a2a_tcp tokens_per_s",
        "channel workloads (no framing)",
    ),
    (
        "transport.channel.rtt_us",
        "us",
        "lower",
        "lm_train tokens_per_s",
        "a2a_tcp",
    ),
    (
        "fabric.frame_overhead_bytes_per_step",
        "bytes",
        "lower",
        "a2a_tcp",
        "-",
    ),
    (
        "executor.task_overhead_us",
        "us",
        "lower",
        "moe_overlap and moe_skew step_ms_p50",
        "lm_train, a2a_tcp (r=1)",
    ),
    (
        "step.overlap_eff",
        "ratio",
        "lower",
        "moe_overlap step_ms_p50",
        "-",
    ),
    (
        "placement.plans",
        "count",
        "lower",
        "moe_skew tokens_per_s, step_ms_p90",
        "every other workload (static)",
    ),
    (
        "placement.replications",
        "count",
        "higher",
        "moe_skew tokens_per_s, step_ms_p90",
        "every other workload (static)",
    ),
    (
        "placement.decide_us",
        "us",
        "lower",
        "moe_skew step_ms_p90",
        "every other workload (static)",
    ),
    (
        "placement.apply_ms",
        "ms",
        "lower",
        "moe_skew step_ms_p90",
        "every other workload (static)",
    ),
    (
        "placement.hot_share",
        "ratio",
        "lower",
        "moe_skew tokens_per_s",
        "every other workload (static)",
    ),
    (
        "ft.checkpoint_ms",
        "ms",
        "lower",
        "lm_train tokens_per_s",
        "-",
    ),
    (
        "ft.residual_ms_per_step",
        "ms",
        "lower",
        "lm_train tokens_per_s",
        "-",
    ),
    (
        "step.traced_ms",
        "ms",
        "lower",
        "- (the waterfall's total)",
        "-",
    ),
    (
        "step.residual_ms",
        "ms",
        "lower",
        "- (step time no layer span explains)",
        "-",
    ),
    (
        "trace.overhead_frac",
        "ratio",
        "lower",
        "- (traced vs untraced tokens_per_s)",
        "-",
    ),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
    /// How the value was obtained, or why it is 0 on this workload.
    pub note: String,
}

/// A run's outcome.
#[derive(Default)]
pub struct Report {
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Human-readable lines printed before the metrics.
    pub lines: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        self.values.push(Value {
            name,
            value,
            samples,
            note: note.into(),
        });
    }

    pub fn fail(&mut self, failures: impl IntoIterator<Item = String>) {
        self.failures.extend(failures);
    }

    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    }

    /// Prints the human-readable report, then the one-line JSON result
    /// holding exactly the metrics `names` lists. Returns whether every
    /// check passed.
    pub fn print(&self, names: &[&str], trace: bool) -> bool {
        for l in &self.lines {
            println!("{l}");
        }
        for name in names {
            let v = self.values.iter().find(|v| v.name == *name);
            match v {
                Some(v) => {
                    let moves = if trace {
                        PER_LAYER
                            .iter()
                            .find(|m| m.0 == *name)
                            .map(|m| format!("  [moves: {}; flat on: {}]", m.3, m.4))
                            .unwrap_or_default()
                    } else {
                        String::new()
                    };
                    println!(
                        "{:<38} {:>14.4} {:<9} n={:<5} {}{}",
                        v.name,
                        v.value,
                        Self::unit_of(v.name),
                        v.samples,
                        v.note,
                        moves
                    );
                }
                None => println!("{name:<38} missing"),
            }
        }
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(1);
        println!(
            "failed_frac {:.4} ({failed} failed of {attempted} attempted)",
            failed as f64 / attempted as f64
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let complete = names.iter().all(|n| {
            self.values
                .iter()
                .any(|v| v.name == *n && v.value.is_finite())
        });
        if !complete {
            println!("FAILED: a metric is missing or not finite");
        }
        let correct = self.failures.is_empty() && complete;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for name in names {
            if let Some(v) = self
                .values
                .iter()
                .find(|v| v.name == *name && v.value.is_finite())
            {
                if !first {
                    json.push_str(", ");
                }
                first = false;
                let _ = write!(
                    json,
                    "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    v.value,
                    Self::unit_of(name)
                );
            }
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics this table defines.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit, better, ..) in END_TO_END {
            let want = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":"
            );
            assert!(compact.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for (name, unit, better, ..) in PER_LAYER {
            let want =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(compact.contains(&want), "BENCHMARK.json lacks {want}");
        }
        let declared = compact.matches("\"name\":").count();
        let workloads = crate::WORKLOADS.len();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
