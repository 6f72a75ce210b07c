//! Metric collection, check accounting, summary statistics and the
//! one-line JSON result the benchmark prints last.

use std::fmt::Write as _;

use crate::calib::{Calibration, Timings};

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `count`.
    pub unit: &'static str,
}

/// What one workload pass produced: metrics plus operation accounting.
///
/// Every timed operation and every correctness check counts as one
/// attempt; a failed build, a wrong answer or a failed check counts as
/// one failure. `failed_frac` in the printed summary is their ratio.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// Human-readable lines (named metrics, sizes) printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records the end-to-end slot `op<slot>_ms` from a duration in seconds
    /// and logs the workload's own name for it (`alias`, whose suffix
    /// gives its unit: `_s`, `_us` or `_per_s`).
    pub fn slot(&mut self, slot: usize, alias: &str, secs: f64) {
        let name = format!("op{slot}_ms");
        self.e2e(&name, secs * 1e3, "ms");
        let (value, unit) = if alias.ends_with("_per_s") {
            (1.0 / secs, "1/s")
        } else if alias.ends_with("_us") {
            (secs * 1e6, "us")
        } else {
            (secs, "s")
        };
        self.note(format!("{name} = {alias} = {value:.6} {unit}"));
    }

    /// Logs the raw samples of `t` and returns their median at the
    /// reference speed of `cal` (see [`crate::calib`]).
    pub fn timings(&mut self, alias: &str, t: &Timings, cal: &Calibration) -> f64 {
        let scaled = median(&cal.scaled(t));
        self.note(format!(
            "{alias}: {} samples, min {:.6} median {:.6} max {:.6} s, at reference speed {:.6} s",
            t.raw().len(),
            quantile(t.raw(), 0.0),
            median(t.raw()),
            quantile(t.raw(), 1.0),
            scaled
        ));
        scaled
    }

    /// Records slot `op<slot>_ms` as [`Outcome::timings`] of `t`.
    pub fn slot_timings(&mut self, slot: usize, alias: &str, t: &Timings, cal: &Calibration) {
        let scaled = self.timings(alias, t, cal);
        self.slot(slot, alias, scaled);
    }

    /// Records `setup_s` like [`Outcome::slot_timings`].
    pub fn setup_timings(&mut self, t: &Timings, cal: &Calibration) {
        let scaled = median(&cal.scaled(t));
        self.note(format!(
            "setup: {} samples, median {:.6} s, at reference speed {:.6} s",
            t.raw().len(),
            median(t.raw()),
            scaled
        ));
        self.e2e("setup_s", scaled, "s");
    }

    /// Adds a human-readable line to the log.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one attempted operation or check; records the failure if
    /// `result` is an error. Returns whether it passed.
    pub fn check(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                false
            }
        }
    }

    /// Counts one attempted operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Failed operations over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, metrics: &[Metric]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` on f64 prints the shortest round-tripping form, so every
            // measured digit is kept; non-finite values are not JSON.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by nearest rank; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set (`VmHWM`) of process `pid` (`None`: this process),
/// in MiB; 0 when `/proc` is unavailable.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let Ok(status) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark allows itself and the programs it drives.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size of the last-level cache as the kernel reports it, or `"unknown"`.
pub fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(o.check("fine", Ok(())));
        assert!(o.correct());
        assert!(!o.check("broken", Err("boom".into())));
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(o
            .json(&[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
