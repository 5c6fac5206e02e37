//! What every workload is handed and what it hands back.

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::MetricSet;
use crate::stats::median;
use crate::trace::Span;

/// How many times a workload sets up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Record spans and per-layer metrics.
    pub trace: bool,
    /// 1/50-scale inputs, for CI and for iterating.
    pub smoke: bool,
    /// The built `asap-server`; empty for workloads that spawn none.
    pub server: PathBuf,
    /// Scratch space of this process (WAL directories); removed on exit.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Rows per series of the payload the server workloads ingest.
    pub fn rows(&self) -> usize {
        if self.smoke {
            3_000
        } else {
            150_000
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: MetricSet,
    /// Operations attempted: points sent, requests issued, frames
    /// expected, smoothing calls made.
    pub attempted: u64,
    /// Of those: points not acknowledged, requests answered `ERR` or
    /// wrongly, frames missing, calls that failed.
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Files the failure share under its catalog name.
    pub fn put_failed_share(&mut self) {
        let share = 100.0 * self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics
            .put("failed_ops_share", share, self.attempted as usize);
    }
}

/// Runs `setup` [`SETUPS`] times, keeps the last product (earlier ones
/// are dropped before the next starts, so at most one server lives), and
/// returns it with the median set-up time in seconds.
pub fn median_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut product = None;
    for _ in 0..SETUPS {
        drop(product.take());
        let started = Instant::now();
        product = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((product.expect("SETUPS is positive"), median(&times)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_runs_three_times_and_keeps_the_last_product() {
        let mut calls = 0;
        let (product, seconds) = median_setup(|| {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!((product, calls), (SETUPS, SETUPS));
        assert!(seconds >= 0.0);
        assert!(median_setup(|| Err::<(), _>("no".to_owned())).is_err());
    }

    #[test]
    fn failure_share_is_a_percentage_of_attempts() {
        let mut outcome = Outcome {
            attempted: 200,
            failed: 3,
            ..Outcome::default()
        };
        outcome.put_failed_share();
        assert_eq!(outcome.metrics.get("failed_ops_share").unwrap().value, 1.5);
    }
}
