//! Hypervisor steal accounting.
//!
//! On a shared virtual machine the host can take a vCPU away while the
//! guest wants to run; the guest kernel counts that time as *steal* in
//! `/proc/stat`. It is not the program's time, and on small shared hosts
//! it swings step times by tens of percent from one minute to the next. A
//! background sampler records each vCPU's cumulative steal every few
//! milliseconds so that any interval's wall time can be reported with the
//! steal that fell inside it removed. The ranks step in lockstep, so the
//! most-stolen vCPU sets the delay: the interval loses that vCPU's steal.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PERIOD: Duration = Duration::from_millis(5);
/// `/proc/stat` counts in USER_HZ ticks, 100 per second on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// Cumulative steal seconds of each CPU.
fn read_steal() -> Option<Vec<f64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let per_cpu: Option<Vec<f64>> = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l[3..].starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| {
            let ticks: f64 = l.split_whitespace().nth(8)?.parse().ok()?;
            Some(ticks / TICKS_PER_SEC)
        })
        .collect();
    per_cpu.filter(|v| !v.is_empty())
}

type Samples = Arc<Mutex<Vec<(Instant, Vec<f64>)>>>;

/// A running steal sampler.
pub struct StealClock {
    samples: Samples,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StealClock {
    /// Starts sampling (a no-op clock where `/proc/stat` is unreadable).
    pub fn start() -> Self {
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let Some(first) = read_steal() else {
            return StealClock {
                samples,
                stop,
                thread: None,
            };
        };
        samples
            .lock()
            .expect("steal samples poisoned")
            .push((Instant::now(), first));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    if let Some(s) = read_steal() {
                        samples
                            .lock()
                            .expect("steal samples poisoned")
                            .push((Instant::now(), s));
                    }
                }
            })
        };
        StealClock {
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the sampler and returns what it recorded.
    pub fn finish(mut self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("steal sampler panicked");
        }
        let samples = std::mem::take(&mut *self.samples.lock().expect("steal samples poisoned"));
        StealLog { samples }
    }
}

/// Recorded cumulative per-vCPU steal over a run.
pub struct StealLog {
    samples: Vec<(Instant, Vec<f64>)>,
}

impl StealLog {
    /// Cumulative steal of `cpu` at `t`, linearly interpolated.
    fn at(&self, cpu: usize, t: Instant) -> f64 {
        let i = self.samples.partition_point(|(s, _)| *s <= t);
        let before = i.checked_sub(1).map(|j| &self.samples[j]);
        match (before, self.samples.get(i)) {
            (Some((t0, s0)), Some((t1, s1))) => {
                let span = (*t1 - *t0).as_secs_f64();
                let f = if span > 0.0 {
                    (t - *t0).as_secs_f64() / span
                } else {
                    0.0
                };
                s0[cpu] + (s1[cpu] - s0[cpu]) * f
            }
            (Some((_, s)), None) | (None, Some((_, s))) => s[cpu],
            (None, None) => 0.0,
        }
    }

    /// Seconds of `[a, b]` left after removing the steal of the vCPU that
    /// lost the most inside it.
    pub fn wall_less_steal(&self, a: Instant, b: Instant) -> f64 {
        let wall = b.saturating_duration_since(a).as_secs_f64();
        let cpus = self.samples.first().map_or(0, |(_, s)| s.len());
        let stolen = (0..cpus)
            .map(|c| self.at(c, b) - self.at(c, a))
            .fold(0.0, f64::max);
        (wall - stolen).max(0.0)
    }

    /// Share of `[a, b]` the most-stolen vCPU lost.
    pub fn share(&self, a: Instant, b: Instant) -> f64 {
        let wall = b.saturating_duration_since(a).as_secs_f64();
        if wall > 0.0 {
            1.0 - self.wall_less_steal(a, b) / wall
        } else {
            0.0
        }
    }
}
