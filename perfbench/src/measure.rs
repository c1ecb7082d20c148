//! Reference-normalized time, order statistics and process memory.
//!
//! On a shared two-core host, allocation-heavy code slows by 1.3–1.5× in
//! phases that last seconds and differ between processes, while pure ALU
//! loops stay flat. The verifier is allocation-heavy, so its wall times
//! move with those phases. The benchmark therefore reports time in units
//! of an allocation-bound reference loop, sampled in the same process
//! next to the work it normalizes: a normalized millisecond is the time
//! the reference loop takes, whatever the phase. On a quiet host the loop
//! takes about one wall millisecond, so normalized and wall times read
//! alike there.

use std::time::{Duration, Instant};

/// One run of the reference loop: allocation churn over vectors of
/// varying sizes, half of them kept alive for a while, with no call into
/// the program. Returns its wall time in milliseconds.
pub fn reference_ms() -> f64 {
    let started = Instant::now();
    let mut kept: Vec<Vec<u64>> = Vec::new();
    for i in 0..36_000u64 {
        let block: Vec<u64> = (0..(i % 64 + 8)).collect();
        if i % 3 == 0 {
            kept.push(block);
        } else {
            std::hint::black_box(&block);
        }
        if kept.len() > 500 {
            kept.drain(..250);
        }
    }
    std::hint::black_box(&kept);
    started.elapsed().as_secs_f64() * 1e3
}

/// The fastest of three reference runs, in wall milliseconds. A memory
/// phase slows all three; a run preempted by the workload's own
/// background threads or processes (the daemon's fleet, say) slows only
/// one, and the minimum drops it.
pub fn reference_sample() -> f64 {
    (0..3).map(|_| reference_ms()).fold(f64::INFINITY, f64::min)
}

/// [`reference_sample`] after `settle` of idle time, so that work an op
/// leaves behind in other processes (the daemon answering, its fleet
/// filing verdicts) does not compete with the reference.
pub fn settled_sample(settle: Duration) -> f64 {
    std::thread::sleep(settle);
    reference_sample()
}

/// Records op wall times with reference samples around them, and
/// normalizes each op by the mean of the samples either side of it once
/// the run is over.
#[derive(Debug, Default)]
pub struct RefClock {
    settle: Duration,
    interval: Duration,
    sampled: Option<Instant>,
    samples: Vec<f64>,
    /// Per op: its wall milliseconds and the last sample taken before it.
    ops: Vec<(f64, usize)>,
}

impl RefClock {
    /// A clock whose samples each wait `settle` first (see
    /// [`settled_sample`]) and are taken at most every `interval`
    /// (`Duration::ZERO`: before every op).
    pub fn new(settle: Duration, interval: Duration) -> RefClock {
        RefClock {
            settle,
            interval,
            ..RefClock::default()
        }
    }

    /// Re-samples the reference if the last sample is older than the
    /// clock's interval. Call it between ops, never inside one.
    pub fn refresh(&mut self) {
        if self.sampled.is_none_or(|at| at.elapsed() >= self.interval) {
            self.samples.push(settled_sample(self.settle));
            self.sampled = Some(Instant::now());
        }
    }

    /// Records an op that took `wall_ms` since the last [`refresh`].
    ///
    /// [`refresh`]: RefClock::refresh
    pub fn record(&mut self, wall_ms: f64) {
        let before = self
            .samples
            .len()
            .checked_sub(1)
            .expect("refresh before the first op");
        self.ops.push((wall_ms, before));
    }

    /// Takes a closing sample and returns every recorded op's time in
    /// normalized milliseconds, where one reference run counts one.
    pub fn finish(mut self) -> Vec<f64> {
        self.samples.push(settled_sample(self.settle));
        self.ops
            .iter()
            .map(|&(wall_ms, before)| {
                wall_ms * 2.0 / (self.samples[before] + self.samples[before + 1])
            })
            .collect()
    }
}

/// The median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile of `samples`, with the number of
/// samples strictly beyond it (`(0.0, 0)` when empty).
pub fn quantile(samples: &[f64], p: f64) -> (f64, usize) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The tail the benchmark reports: the p90, with the number of samples
/// beyond it. Every workload has more than ten ops beyond its p90 in a
/// 30-second run (`cold_corpus`, with the fewest ops, about thirty). A
/// higher percentile follows the host more than the program: between
/// five runs of identical code on a shared two-vCPU host, the p99 of
/// `service_warm` ops moved by 80% unpinned and by 4–10% on one CPU,
/// against 20% and 2–4% for its p90.
pub fn tail(samples: &[f64]) -> (f64, usize) {
    quantile(samples, 0.9)
}

/// A process's peak resident set (`VmHWM`), in KiB; `None` once it has
/// exited.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The live child processes of `pid`.
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&child| parent(child) == Some(pid))
        .collect()
}

/// The parent of `pid`, from `/proc/<pid>/stat` (the field after the
/// parenthesised command name, which may itself contain spaces).
fn parent(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank_with_the_count_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&samples), (90.0, 10));
        assert_eq!(quantile(&samples, 0.99), (99.0, 1));
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), (2.0, 1));
        assert_eq!(quantile(&[], 0.9), (0.0, 0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_kib(std::process::id()).unwrap() > 0);
    }
}
