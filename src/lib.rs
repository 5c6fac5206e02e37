//! # asap — Automatic Smoothing for Attention Prioritization
//!
//! A from-scratch Rust reproduction of *ASAP: Prioritizing Attention via
//! Time Series Smoothing* (Kexin Rong & Peter Bailis, VLDB 2017).
//!
//! ASAP automatically smooths streaming time series for visualization: it
//! finds the moving-average window that **minimizes roughness** (σ of first
//! differences) while **preserving kurtosis** (so large-scale deviations
//! stay visible), and does so orders of magnitude faster than exhaustive
//! search via autocorrelation pruning, pixel-aware preaggregation, and
//! on-demand streaming refresh.
//!
//! ## Quickstart
//!
//! ```
//! use asap::prelude::*;
//!
//! // A noisy daily-periodic signal, 2 weeks at 5-minute resolution.
//! let series = asap::data::sim_daily();
//! // Smooth for an 800-pixel-wide chart.
//! let result = Asap::builder()
//!     .resolution(800)
//!     .build()
//!     .smooth(series.values())
//!     .unwrap();
//! assert!(result.window >= 1);
//! assert!(result.smoothed.len() <= 800 + 1);
//! ```
//!
//! The umbrella crate re-exports each workspace crate under a short path:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`timeseries`] | `asap-timeseries` | moments, roughness, kurtosis, SMA |
//! | [`dsp`] | `asap-dsp` | autocorrelation (direct / FFT), peaks, smoothing filters |
//! | [`data`] | `asap-data` | simulators of the paper's 11 evaluation datasets |
//! | [`core`] | `asap-core` | the ASAP search (Algorithms 1–3), batch and streaming |
//! | [`baselines`] | `asap-baselines` | M4, PAA, Visvalingam–Whyatt, oversmooth |
//! | [`eval`] | `asap-eval` | experiment harness and simulated user study |
//! | [`tsdb`] | `asap-tsdb` | embedded Gorilla-compressed time-series storage |
//! | [`server`] | `asap-server` | TCP front-end: line-protocol ingest, text query protocol, one maintenance thread (compaction, checkpoints, self-scrape) |
//! | [`viz`] | `asap-viz` | SVG and terminal chart rendering |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asap_baselines as baselines;
pub use asap_core as core;
pub use asap_data as data;
pub use asap_dsp as dsp;
pub use asap_eval as eval;
pub use asap_server as server;
pub use asap_timeseries as timeseries;
pub use asap_tsdb as tsdb;
pub use asap_viz as viz;

/// Convenience prelude pulling in the most common types.
pub mod prelude {
    pub use asap_core::{Asap, AsapBuilder, SearchOutcome, SmoothingResult};
    pub use asap_timeseries::{kurtosis, roughness, sma, TimeSeries};
}
