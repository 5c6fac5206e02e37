//! Streaming ASAP — Algorithm 3 (§4.5).
//!
//! The streaming operator combines all three optimizations:
//!
//! 1. incoming points are sub-aggregated into **panes** sized by the
//!    point-to-pixel ratio (one pane per output pixel);
//! 2. a sliding window of panes covers the visualized interval, evicting
//!    outdated sub-aggregates;
//! 3. a [`RefreshClock`] re-runs the window search only every
//!    `refresh_interval` raw points, seeding it with the previous answer
//!    (`CHECKLASTWINDOW`), which activates ASAP's pruning rules
//!    immediately.
//!
//! Each refresh emits a [`Frame`] — the smoothed series to render plus the
//! chosen window — which is also the unit Figure 10 measures throughput
//! over.
//!
//! The three building blocks — [`PaneAggregator`], [`SlidingWindow`] and
//! [`RefreshClock`] — are public so the Figure 11 factor analysis can
//! replay a series through the same machinery with each optimization
//! toggled.

use std::collections::{BTreeMap, VecDeque};

use crate::config::AsapConfig;
use crate::problem::SearchOutcome;
use crate::search::asap;
use asap_timeseries::TimeSeriesError;

/// Minimum panes in the sliding window before a refresh is meaningful
/// (the search needs a handful of points to estimate anything).
///
/// Public so config validators outside this crate (e.g. a server rejecting
/// a subscription template at startup) can replicate the viability check
/// [`StreamingAsap::new`] enforces with a panic.
pub const MIN_WARM_PANES: usize = 4;

/// Configuration of the streaming operator.
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// How many raw points the visualization covers (e.g. "the last 30
    /// minutes" at the stream's rate).
    pub window_points: usize,
    /// Search configuration; `resolution` doubles as the number of panes
    /// kept (one pane per pixel).
    pub asap: AsapConfig,
    /// Re-run the search every this many raw points. The paper's default
    /// behaviour refreshes on human timescales (e.g. 1 Hz); Figure 10
    /// sweeps this knob.
    pub refresh_interval: usize,
}

impl StreamingConfig {
    /// A streaming config covering `window_points` at `resolution` pixels,
    /// refreshing every `refresh_interval` points.
    pub fn new(window_points: usize, resolution: usize, refresh_interval: usize) -> Self {
        let asap = AsapConfig {
            resolution,
            ..AsapConfig::default()
        };
        StreamingConfig {
            window_points,
            asap,
            refresh_interval,
        }
    }

    /// Raw points per pane (the point-to-pixel ratio).
    pub fn pane_size(&self) -> usize {
        crate::preagg::point_to_pixel_ratio(self.window_points, self.asap.resolution)
    }
}

/// One rendered frame emitted at a refresh.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The smoothed series to draw (≤ resolution points).
    pub smoothed: Vec<f64>,
    /// The search outcome that produced it.
    pub outcome: SearchOutcome,
    /// How many raw points had been ingested when this frame was emitted.
    pub points_ingested: u64,
}

/// The streaming ASAP operator (Algorithm 3).
#[derive(Debug, Clone)]
pub struct StreamingAsap {
    config: StreamingConfig,
    panes: PaneAggregator,
    window: SlidingWindow,
    clock: RefreshClock,
    previous_window: Option<usize>,
    points: u64,
    searches: u64,
}

impl StreamingAsap {
    /// Creates the operator.
    ///
    /// # Panics
    /// Panics if `window_points`, `resolution`, or `refresh_interval` is 0.
    pub fn new(config: StreamingConfig) -> Self {
        assert!(config.window_points > 0, "window_points must be positive");
        assert!(config.refresh_interval > 0, "refresh_interval must be positive");
        assert!(
            config.asap.resolution > 0,
            "resolution must be positive: zero pixels means zero-sized panes"
        );
        let pane_size = config.pane_size();
        let capacity = config.window_points.div_ceil(pane_size).max(2);
        // A window that cannot ever hold MIN_WARM_PANES panes would never
        // warm up: every push returns Ok(None) forever — silent total
        // frame suppression. Reject the degenerate config here instead
        // (happens when resolution or window_points is below
        // MIN_WARM_PANES).
        assert!(
            capacity >= MIN_WARM_PANES,
            "window covers only {capacity} panes but refresh needs {MIN_WARM_PANES}: \
             raise window_points or resolution"
        );
        StreamingAsap {
            panes: PaneAggregator::new(pane_size),
            window: SlidingWindow::new(capacity),
            clock: RefreshClock::new(config.refresh_interval),
            config,
            previous_window: None,
            points: 0,
            searches: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// Total raw points ingested.
    pub fn points_ingested(&self) -> u64 {
        self.points
    }

    /// Number of search invocations so far (the quantity the on-demand
    /// optimization minimizes).
    pub fn searches_run(&self) -> u64 {
        self.searches
    }

    /// Whether the window holds enough panes for a refresh to produce a
    /// frame (a cold operator's [`StreamingAsap::refresh`] errors).
    pub fn is_warm(&self) -> bool {
        self.window.len() >= MIN_WARM_PANES
    }

    /// Ingests one raw point; returns a frame when a refresh fired.
    ///
    /// UPDATEWINDOW of Algorithm 3: sub-aggregate, update the pane window,
    /// and on each refresh tick re-run the seeded search.
    pub fn push(&mut self, value: f64) -> Result<Option<Frame>, TimeSeriesError> {
        if !value.is_finite() {
            return Err(TimeSeriesError::NonFinite {
                index: self.points as usize,
            });
        }
        self.points += 1;
        if let Some(pane) = self.panes.push(value) {
            self.window.push(pane);
        }
        if self.clock.tick() && self.is_warm() {
            return self.refresh().map(Some);
        }
        Ok(None)
    }

    /// Forces a refresh now (used at end-of-stream).
    ///
    /// Errors with [`TimeSeriesError::Empty`] when no pane has completed
    /// yet — an empty window would otherwise yield a meaningless frame
    /// (empty smoothed series, NaN kurtosis).
    pub fn refresh(&mut self) -> Result<Frame, TimeSeriesError> {
        let series = self.window.pane_means();
        if series.is_empty() {
            return Err(TimeSeriesError::Empty);
        }
        self.searches += 1;
        let outcome = asap::search_seeded(&series, &self.config.asap, self.previous_window)?;
        self.previous_window = Some(outcome.window);
        let smoothed = if outcome.window <= 1 {
            series
        } else {
            asap_timeseries::sma(&series, outcome.window)?
        };
        Ok(Frame {
            smoothed,
            outcome,
            points_ingested: self.points,
        })
    }
}

/// A multi-series streaming driver: one runtime instance serving many
/// keys.
///
/// Server-side deployments (§2) smooth every panel of a dashboard — or
/// every series of a sharded store — from a single operator process. This
/// driver owns one [`StreamingAsap`] per key, created lazily from a shared
/// configuration template, and keeps them in a `BTreeMap` so every
/// cross-key operation ([`MultiStreamingAsap::refresh_all`],
/// [`MultiStreamingAsap::keys`]) is in deterministic key order.
///
/// The key type is generic: monitoring backends use metric names, while
/// storage layers can drive it with richer series identities.
#[derive(Debug)]
pub struct MultiStreamingAsap<K: Ord + Clone> {
    template: StreamingConfig,
    operators: BTreeMap<K, StreamingAsap>,
    // Counters carried by operators that have since been removed, so
    // total_points/total_searches stay monotonic across key eviction.
    retired_points: u64,
    retired_searches: u64,
}

impl<K: Ord + Clone> MultiStreamingAsap<K> {
    /// Creates a driver whose per-key operators all use `template`.
    ///
    /// # Panics
    /// Panics on the invalid templates [`StreamingAsap::new`] rejects
    /// (zero `window_points`, `resolution`, or `refresh_interval`), so a
    /// bad configuration fails at construction rather than at first push.
    pub fn new(template: StreamingConfig) -> Self {
        // Validate eagerly by building (and discarding) one operator.
        let _probe = StreamingAsap::new(template.clone());
        MultiStreamingAsap {
            template,
            operators: BTreeMap::new(),
            retired_points: 0,
            retired_searches: 0,
        }
    }

    /// The shared configuration template.
    pub fn config(&self) -> &StreamingConfig {
        &self.template
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.operators.len()
    }

    /// True when no key has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.operators.is_empty()
    }

    /// Tracked keys, in key order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.operators.keys()
    }

    /// The per-key operator, if `key` has been seen.
    pub fn operator<Q>(&self, key: &Q) -> Option<&StreamingAsap>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.operators.get(key)
    }

    /// Ingests one point for `key`, creating its operator on first sight
    /// via `to_owned`. Returns a frame when that key's refresh fired.
    ///
    /// The borrowed-key form lets hot ingest paths look up by `&str` (or
    /// any borrowed form) without allocating an owned key per point.
    pub fn push_with<Q>(
        &mut self,
        key: &Q,
        value: f64,
        to_owned: impl FnOnce(&Q) -> K,
    ) -> Result<Option<Frame>, TimeSeriesError>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let op = match self.operators.get_mut(key) {
            Some(op) => op,
            None => self
                .operators
                .entry(to_owned(key))
                .or_insert_with(|| StreamingAsap::new(self.template.clone())),
        };
        op.push(value)
    }

    /// Ingests one point for `key` (cloning it on first sight). Returns a
    /// frame when that key's refresh fired.
    pub fn push(&mut self, key: &K, value: f64) -> Result<Option<Frame>, TimeSeriesError> {
        self.push_with(key, value, K::clone)
    }

    /// Forces a refresh of every warm key, returning `(key, frame)` pairs
    /// in key order — the "render the whole dashboard now" operation.
    /// Cold keys (window not yet warm) are skipped.
    pub fn refresh_all(&mut self) -> Vec<(K, Frame)> {
        self.operators
            .iter_mut()
            .filter(|(_, op)| op.is_warm())
            .filter_map(|(key, op)| op.refresh().ok().map(|frame| (key.clone(), frame)))
            .collect()
    }

    /// Removes `key`'s operator, returning it if it existed.
    ///
    /// The removed operator's point/search counts are retired into the
    /// driver's running totals, so [`MultiStreamingAsap::total_points`] and
    /// [`MultiStreamingAsap::total_searches`] stay monotonic: removing a
    /// key never makes the driver forget work it already did. A later push
    /// for the same key starts a fresh, cold operator.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<StreamingAsap>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let op = self.operators.remove(key)?;
        self.retired_points += op.points_ingested();
        self.retired_searches += op.searches_run();
        Some(op)
    }

    /// Keeps only the keys for which `keep` returns `true`, evicting the
    /// rest — the bulk form of [`MultiStreamingAsap::remove`], with the
    /// same counter-retirement semantics. Returns how many keys were
    /// evicted.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &StreamingAsap) -> bool) -> usize {
        let before = self.operators.len();
        let mut retired_points = 0u64;
        let mut retired_searches = 0u64;
        self.operators.retain(|key, op| {
            if keep(key, op) {
                true
            } else {
                retired_points += op.points_ingested();
                retired_searches += op.searches_run();
                false
            }
        });
        self.retired_points += retired_points;
        self.retired_searches += retired_searches;
        before - self.operators.len()
    }

    /// Total searches run across all keys, including keys since removed.
    pub fn total_searches(&self) -> u64 {
        self.retired_searches
            + self.operators.values().map(StreamingAsap::searches_run).sum::<u64>()
    }

    /// Total raw points ingested across all keys, including keys since
    /// removed.
    pub fn total_points(&self) -> u64 {
        self.retired_points
            + self.operators.values().map(StreamingAsap::points_ingested).sum::<u64>()
    }
}

/// Constant-size summary of one disjoint segment of the stream ("no pane,
/// no gain", Li et al. 2005, cited in §4.5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pane {
    /// Sum of the points in the pane.
    pub sum: f64,
    /// Number of points aggregated.
    pub count: usize,
}

impl Pane {
    /// The pane's mean value — the value ASAP's preaggregation emits.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// Accumulates raw points into fixed-size panes, emitting each pane as it
/// completes. With one pane per point-to-pixel group, downstream work
/// depends on the display resolution, not the data rate.
#[derive(Debug, Clone)]
pub struct PaneAggregator {
    pane_size: usize,
    current: Pane,
}

impl PaneAggregator {
    /// Creates an aggregator producing one pane per `pane_size` points.
    ///
    /// # Panics
    /// Panics if `pane_size == 0`.
    pub fn new(pane_size: usize) -> Self {
        assert!(pane_size > 0, "pane size must be positive");
        PaneAggregator {
            pane_size,
            current: Pane::default(),
        }
    }

    /// Ingests one point; returns the completed pane when this point filled
    /// it.
    #[inline]
    pub fn push(&mut self, value: f64) -> Option<Pane> {
        self.current.sum += value;
        self.current.count += 1;
        if self.current.count == self.pane_size {
            Some(std::mem::take(&mut self.current))
        } else {
            None
        }
    }
}

/// The most recent `capacity` panes, oldest first: the "linked list of all
/// subaggregations in the window" of §4.5, evicting the oldest pane as
/// data transits the visualized interval.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    panes: VecDeque<Pane>,
    capacity: usize,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` panes.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow {
            panes: VecDeque::with_capacity(capacity + 1),
            capacity,
        }
    }

    /// Inserts a completed pane, evicting the oldest when full.
    pub fn push(&mut self, pane: Pane) {
        self.panes.push_back(pane);
        if self.panes.len() > self.capacity {
            self.panes.pop_front();
        }
    }

    /// Number of panes currently held.
    pub fn len(&self) -> usize {
        self.panes.len()
    }

    /// True when no panes are held.
    pub fn is_empty(&self) -> bool {
        self.panes.is_empty()
    }

    /// The per-pane mean values, oldest first — the preaggregated series
    /// ASAP's search runs over.
    pub fn pane_means(&self) -> Vec<f64> {
        self.panes.iter().map(Pane::mean).collect()
    }
}

/// Counts arriving points and fires every `interval` of them — §4.5's
/// on-demand refresh: humans perceive at most ~60 events/second, so the
/// search re-runs on that timescale, not per point (Figure 10 sweeps the
/// interval).
#[derive(Debug, Clone)]
pub struct RefreshClock {
    interval: usize,
    since_last: usize,
}

impl RefreshClock {
    /// Creates a clock firing once every `interval` arrivals.
    ///
    /// # Panics
    /// Panics if `interval == 0`.
    pub fn new(interval: usize) -> Self {
        assert!(interval > 0, "refresh interval must be positive");
        RefreshClock {
            interval,
            since_last: 0,
        }
    }

    /// Registers one arrival; returns `true` when a refresh is due.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.since_last += 1;
        if self.since_last >= self.interval {
            self.since_last = 0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_data(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                (std::f64::consts::TAU * i as f64 / period as f64).sin()
                    + 0.3 * ((((i as u64) * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
            })
            .collect()
    }

    #[test]
    fn frames_fire_at_the_refresh_interval() {
        let config = StreamingConfig::new(10_000, 100, 1_000);
        let mut op = StreamingAsap::new(config);
        let mut frames = 0;
        for &v in &stream_data(10_000, 500) {
            if op.push(v).unwrap().is_some() {
                frames += 1;
            }
        }
        assert_eq!(frames, 10); // every 1000 points once window warm
        assert_eq!(op.searches_run(), frames as u64);
    }

    #[test]
    fn larger_refresh_interval_means_fewer_searches() {
        // The linear relationship of Figure 10.
        let runs = |interval: usize| {
            let mut op = StreamingAsap::new(StreamingConfig::new(10_000, 100, interval));
            for &v in &stream_data(20_000, 500) {
                op.push(v).unwrap();
            }
            op.searches_run()
        };
        let fast = runs(500);
        let slow = runs(2_000);
        assert_eq!(fast, 4 * slow);
    }

    #[test]
    fn frame_series_length_is_bounded_by_resolution() {
        let mut op = StreamingAsap::new(StreamingConfig::new(5_000, 50, 2_500));
        let mut last = None;
        for &v in &stream_data(5_000, 250) {
            if let Some(f) = op.push(v).unwrap() {
                last = Some(f);
            }
        }
        let f = last.expect("at least one frame");
        assert!(f.smoothed.len() <= 50);
        assert!(f.outcome.window >= 1);
    }

    #[test]
    fn streamed_window_matches_batch_on_stable_data() {
        // Once the window is full of stable periodic data, the streaming
        // search must agree with a batch search over the same pane means.
        // (Period = 5 panes, so the ACF has clear in-range peaks and the
        // choice is robust to pane-sum rounding.)
        let data = stream_data(20_000, 500);
        let config = StreamingConfig::new(20_000, 200, 20_000);
        let pane = config.pane_size();
        let mut op = StreamingAsap::new(config.clone());
        let mut frame = None;
        for &v in &data {
            if let Some(f) = op.push(v).unwrap() {
                frame = Some(f);
            }
        }
        let frame = frame.expect("one frame at the end");
        let (agg, _) = crate::preagg::preaggregate(&data, 200);
        assert_eq!(pane, 100);
        let batch = crate::search::asap::search(&agg, &config.asap).unwrap();
        assert_eq!(frame.outcome.window, batch.window);
        assert!(frame.outcome.window >= 5, "period should be smoothed over");
    }

    #[test]
    fn seeded_search_checks_no_more_candidates_than_cold_search() {
        let data = stream_data(40_000, 2_000);
        let mut op = StreamingAsap::new(StreamingConfig::new(20_000, 200, 5_000));
        let mut counts = Vec::new();
        for &v in &data {
            if let Some(f) = op.push(v).unwrap() {
                counts.push(f.outcome.candidates_checked);
            }
        }
        assert!(counts.len() >= 4);
        // After the first warm search, the seed keeps candidate counts from
        // growing (the previous window rules out most peaks immediately).
        let first = counts[1]; // first fully-warm refresh
        let later_max = *counts[2..].iter().max().unwrap();
        assert!(
            later_max <= first + 3,
            "seeded searches blew up: first {first}, later {later_max}"
        );
    }

    #[test]
    #[should_panic(expected = "refresh_interval")]
    fn zero_refresh_interval_panics() {
        StreamingAsap::new(StreamingConfig::new(100, 10, 0));
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn zero_resolution_pane_size_is_rejected() {
        // resolution 0 would mean zero-sized panes; construction rejects it
        // instead of silently degrading to one giant pane per point.
        StreamingAsap::new(StreamingConfig::new(100, 0, 10));
    }

    #[test]
    #[should_panic(expected = "window_points")]
    fn zero_window_points_panics() {
        StreamingAsap::new(StreamingConfig::new(0, 10, 10));
    }

    #[test]
    #[should_panic(expected = "panes")]
    fn permanently_cold_window_is_rejected() {
        // resolution 3 caps the pane window below the warm threshold: the
        // operator could never emit a frame. Construction must say so.
        StreamingAsap::new(StreamingConfig::new(100, 3, 1));
    }

    #[test]
    fn forced_refresh_before_any_data_errors_cleanly() {
        let mut op = StreamingAsap::new(StreamingConfig::new(1_000, 100, 100));
        assert!(!op.is_warm());
        // Nothing ingested: the window holds no panes, and a forced
        // refresh reports Empty rather than emitting a frame with an
        // empty smoothed series and NaN kurtosis.
        let err = op.refresh().unwrap_err();
        assert!(matches!(err, TimeSeriesError::Empty));
        assert_eq!(op.searches_run(), 0, "no search ran on an empty window");
    }

    #[test]
    fn window_not_yet_warm_suppresses_interval_frames() {
        // Pane size is 10 (1000 points / 100 pixels); with refresh every
        // point, no frame may fire until 4 panes (40 points) exist.
        let mut op = StreamingAsap::new(StreamingConfig::new(1_000, 100, 1));
        let mut first_frame_at = None;
        for i in 0..100usize {
            if op.push(i as f64).unwrap().is_some() && first_frame_at.is_none() {
                first_frame_at = Some(i + 1);
            }
        }
        assert_eq!(
            first_frame_at,
            Some(40),
            "first frame exactly when the fourth pane completes"
        );
    }

    #[test]
    fn refresh_interval_one_fires_every_point_once_warm() {
        let mut op = StreamingAsap::new(StreamingConfig::new(1_000, 100, 1));
        let mut frames = 0u64;
        for &v in &stream_data(200, 50) {
            if op.push(v).unwrap().is_some() {
                frames += 1;
            }
        }
        // 200 points, warm from point 40 onward: one frame per push.
        assert_eq!(frames, 200 - 39);
        assert_eq!(op.searches_run(), frames);
    }

    #[test]
    fn forced_refresh_with_few_panes_still_emits() {
        // 3 panes is below the warm threshold for *automatic* frames, but
        // an explicit end-of-stream refresh with ≥1 pane must not panic —
        // it either smooths what exists or reports a clean error.
        let mut op = StreamingAsap::new(StreamingConfig::new(1_000, 100, 1_000_000));
        for i in 0..30 {
            op.push(i as f64).unwrap(); // 3 full panes of 10
        }
        assert!(!op.is_warm());
        match op.refresh() {
            Ok(frame) => assert!(frame.smoothed.len() <= 3),
            Err(e) => assert!(matches!(
                e,
                TimeSeriesError::Empty | TimeSeriesError::TooShort { .. }
            )),
        }
    }

    #[test]
    fn multi_series_driver_serves_many_keys_deterministically() {
        let mut multi = MultiStreamingAsap::new(StreamingConfig::new(2_000, 100, 100_000));
        let keys = ["zeta", "alpha", "mid"];
        for i in 0..2_000usize {
            for (k, key) in keys.iter().enumerate() {
                multi
                    .push_with(*key, 1.0 + (i as f64 / (30.0 * (k + 1) as f64)).sin(), |s| {
                        s.to_string()
                    })
                    .unwrap();
            }
        }
        assert_eq!(multi.len(), 3);
        assert_eq!(multi.total_points(), 6_000);
        let listed: Vec<&String> = multi.keys().collect();
        assert_eq!(listed, ["alpha", "mid", "zeta"], "key order, not insertion");
        let frames = multi.refresh_all();
        assert_eq!(frames.len(), 3);
        let order: Vec<&str> = frames.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(order, ["alpha", "mid", "zeta"]);
        assert!(multi.total_searches() >= 3);
        assert!(multi.operator("alpha").unwrap().is_warm());
        assert!(multi.operator("ghost").is_none());
    }

    #[test]
    fn multi_series_driver_skips_cold_keys_on_refresh_all() {
        let mut multi: MultiStreamingAsap<String> =
            MultiStreamingAsap::new(StreamingConfig::new(1_000, 100, 100_000));
        for i in 0..1_000usize {
            multi.push(&"warm".to_string(), (i as f64 / 25.0).sin()).unwrap();
        }
        for i in 0..5usize {
            multi.push(&"cold".to_string(), i as f64).unwrap();
        }
        let frames = multi.refresh_all();
        assert_eq!(frames.len(), 1, "cold key skipped, not errored");
        assert_eq!(frames[0].0, "warm");
    }

    #[test]
    fn multi_series_driver_remove_retires_counters() {
        // Regression for the long-running-server leak: without remove(),
        // operators for churned series lived forever. Removal must both
        // free the key and keep the cumulative totals monotonic.
        let mut multi = MultiStreamingAsap::new(StreamingConfig::new(1_000, 100, 100));
        for i in 0..500usize {
            for key in ["keep", "churn"] {
                multi.push_with(key, (i as f64 / 25.0).sin(), |s| s.to_string()).unwrap();
            }
        }
        let points_before = multi.total_points();
        let searches_before = multi.total_searches();
        assert_eq!(points_before, 1_000);
        assert!(searches_before > 0);

        let removed = multi.remove("churn").expect("tracked key");
        assert_eq!(removed.points_ingested(), 500);
        assert_eq!(multi.len(), 1);
        assert!(multi.operator("churn").is_none());
        // Counter consistency: totals unchanged by eviction.
        assert_eq!(multi.total_points(), points_before);
        assert_eq!(multi.total_searches(), searches_before);
        assert!(multi.remove("churn").is_none(), "second remove is a no-op");
        assert_eq!(multi.total_points(), points_before);

        // Re-ingesting the key starts a fresh, cold operator; totals keep
        // growing from where they were instead of double-counting.
        multi.push_with("churn", 1.0, |s| s.to_string()).unwrap();
        assert!(!multi.operator("churn").unwrap().is_warm());
        assert_eq!(multi.operator("churn").unwrap().points_ingested(), 1);
        assert_eq!(multi.total_points(), points_before + 1);
    }

    #[test]
    fn multi_series_driver_retain_evicts_in_bulk() {
        let mut multi = MultiStreamingAsap::new(StreamingConfig::new(1_000, 100, 100));
        for key in ["a", "b", "c", "d"] {
            for i in 0..100usize {
                multi.push_with(key, i as f64, |s| s.to_string()).unwrap();
            }
        }
        let total = multi.total_points();
        let evicted = multi.retain(|key, op| {
            assert_eq!(op.points_ingested(), 100);
            key.as_str() < "c"
        });
        assert_eq!(evicted, 2);
        assert_eq!(multi.len(), 2);
        let listed: Vec<&String> = multi.keys().collect();
        assert_eq!(listed, ["a", "b"]);
        assert_eq!(multi.total_points(), total, "retained totals stay monotonic");
        assert_eq!(multi.retain(|_, _| true), 0, "keep-all retain evicts nothing");
    }

    #[test]
    fn multi_series_driver_isolates_bad_points() {
        let mut multi: MultiStreamingAsap<String> =
            MultiStreamingAsap::new(StreamingConfig::new(100, 10, 10));
        multi.push(&"ok".to_string(), 1.0).unwrap();
        assert!(multi.push(&"bad".to_string(), f64::NAN).is_err());
        // Both keys keep working afterwards.
        assert!(multi.push(&"ok".to_string(), 2.0).unwrap().is_none());
        assert!(multi.push(&"bad".to_string(), 2.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn multi_series_driver_validates_template_eagerly() {
        let _ = MultiStreamingAsap::<String>::new(StreamingConfig::new(100, 0, 10));
    }

    #[test]
    fn non_finite_point_is_rejected_and_stream_survives() {
        let mut op = StreamingAsap::new(StreamingConfig::new(100, 10, 10));
        for i in 0..5 {
            op.push(i as f64).unwrap();
        }
        let err = op.push(f64::NAN).unwrap_err();
        assert!(matches!(err, TimeSeriesError::NonFinite { index: 5 }));
        // The bad point was not ingested; the stream keeps working.
        assert_eq!(op.points_ingested(), 5);
        for i in 5..20 {
            op.push(i as f64).unwrap();
        }
        assert_eq!(op.points_ingested(), 20);
    }

    #[test]
    fn pane_means_match_batch_tumbling_aggregation() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut agg = PaneAggregator::new(7);
        let streamed: Vec<u64> = data
            .iter()
            .filter_map(|&x| agg.push(x))
            .map(|p| p.mean().to_bits())
            .collect();
        let (batch, ratio) = crate::preagg::preaggregate(&data, 15);
        assert_eq!(ratio, 7);
        let batch: Vec<u64> = batch.iter().map(|v| v.to_bits()).collect();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn sliding_window_evicts_at_capacity() {
        let pane = |v: f64| Pane { sum: v, count: 1 };
        let mut w = SlidingWindow::new(3);
        for v in [1.0, 2.0, 3.0] {
            w.push(pane(v));
        }
        assert_eq!(w.len(), 3);
        w.push(pane(4.0));
        assert_eq!(w.len(), 3);
        assert_eq!(w.pane_means(), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "pane size")]
    fn zero_pane_size_panics() {
        PaneAggregator::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_window_capacity_panics() {
        SlidingWindow::new(0);
    }

    #[test]
    #[should_panic(expected = "refresh interval")]
    fn zero_clock_interval_panics() {
        RefreshClock::new(0);
    }

    #[test]
    fn clock_fires_every_interval() {
        let mut c = RefreshClock::new(3);
        let fired: Vec<bool> = (0..9).map(|_| c.tick()).collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }
}
