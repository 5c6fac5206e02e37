//! Standing smoothing subscriptions: the push half of the query
//! protocol.
//!
//! `SUBSCRIBE` registers a selector with this registry; from then on the
//! ingest pipelines' [`asap_tsdb::ApplyHook`] feeds every applied point
//! into a shared [`MultiStreamingAsap`] runtime (one per distinct
//! `EVERY` interval, so subscriptions with the same cadence share the
//! smoothing work), and each emitted [`Frame`] is rendered once and
//! fanned out to every matching subscriber's [`Outbox`].
//!
//! # Ordering
//!
//! The hook fires **post-reorder**, inside the shard sink, after the
//! store write committed — so per series, the frame stream is computed
//! from exactly the store's apply order. This is what makes the pushed
//! stream provably equivalent to polling the store: replaying a series'
//! stored points through a fresh [`asap_core::StreamingAsap`] with the
//! same template reproduces the pushed `FRAME` lines byte for byte.
//!
//! # Backpressure
//!
//! The hook runs on shard-writer threads and must never block on a slow
//! subscriber. Each subscriber owns a bounded [`Outbox`] of rendered
//! lines; when the connection stops draining it (stalled socket, output
//! buffer at its high-water mark), the oldest lines are dropped and
//! counted as lag — ingest never waits. The connection layers then
//! apply their usual stalled-peer policy (`write_deadline`) on top, so
//! a subscriber that stops reading entirely is disconnected, not
//! carried.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use asap_core::{AlertGate, DeviationAlerter, Frame, MultiStreamingAsap, StreamingConfig};
use asap_tsdb::{Selector, SeriesKey};

use crate::event::Waker;
use crate::protocol;

/// Deviant-run length (in smoothed points) an `ALERT k=<sigma>`
/// subscription requires before a deviation fires — filters one-pane
/// transients without a per-subscription knob.
pub(crate) const ALERT_MIN_RUN: usize = 3;

/// Most rendered push lines a subscriber's outbox buffers before the
/// oldest are lag-dropped. Sized to cover several refresh cycles of a
/// busy selector; a reader that falls further behind than this is not
/// keeping up and loses frames rather than stalling ingest.
pub(crate) const OUTBOX_MAX_LINES: usize = 4096;

/// The bounded per-subscriber queue of rendered `FRAME`/`ALERT` lines,
/// shared between the registry (producer, on shard-writer threads) and
/// the owning query connection (consumer, on its I/O thread).
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    queue: Mutex<VecDeque<String>>,
    /// Wakes the worker that owns the consuming connection, which may be
    /// blocked with this subscriber's socket silent. `None` only for an
    /// outbox drained by hand (unit tests).
    waker: Option<Arc<Waker>>,
}

impl Outbox {
    pub(crate) fn new(waker: Arc<Waker>) -> Self {
        Outbox {
            queue: Mutex::default(),
            waker: Some(waker),
        }
    }

    /// Queues one line; returns how many old lines were dropped to make
    /// room (0 when the subscriber is keeping up). The push that finds
    /// the queue empty — and only that one — wakes the consumer: a burst
    /// costs the producer one wake-up, not one per line, and a consumer
    /// that left lines behind (output at its high-water mark) comes back
    /// for them on its own.
    fn push(&self, line: String) -> usize {
        let mut queue = self.queue.lock().expect("outbox poisoned");
        let was_empty = queue.is_empty();
        queue.push_back(line);
        let mut dropped = 0;
        while queue.len() > OUTBOX_MAX_LINES {
            queue.pop_front();
            dropped += 1;
        }
        drop(queue);
        if was_empty {
            if let Some(waker) = &self.waker {
                waker.wake();
            }
        }
        dropped
    }

    /// Hands the oldest pending lines to `sink`, under one lock, until
    /// at least `budget` bytes were handed over or the queue is empty;
    /// returns whether any line moved.
    pub(crate) fn drain(&self, budget: usize, mut sink: impl FnMut(&str)) -> bool {
        let mut queue = self.queue.lock().expect("outbox poisoned");
        let mut moved = 0usize;
        while moved < budget {
            let Some(line) = queue.pop_front() else {
                break;
            };
            moved += line.len();
            sink(&line);
        }
        moved > 0
    }

    /// Lines currently queued (pushed but not yet drained by the
    /// owning connection).
    pub(crate) fn len(&self) -> usize {
        self.queue.lock().expect("outbox poisoned").len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One standing subscription.
struct Subscription {
    id: u64,
    selector: Selector,
    every: usize,
    /// `ALERT k=<sigma>` threshold; `None` pushes frames only.
    k_sigma: Option<f64>,
    /// Per-series edge-trigger state (created lazily on first frame).
    gates: HashMap<SeriesKey, AlertGate>,
    outbox: Arc<Outbox>,
}

/// Which subscriptions a series key currently fans out to, grouped by
/// refresh interval so each group's shared runtime is pushed exactly
/// once per point. Cached per key and invalidated whenever the
/// subscription set changes.
struct Plan {
    groups: Vec<(usize, Vec<u64>)>,
}

#[derive(Default)]
struct Inner {
    subs: BTreeMap<u64, Subscription>,
    /// One shared smoothing runtime per distinct `EVERY` interval.
    runtimes: BTreeMap<usize, MultiStreamingAsap<SeriesKey>>,
    plans: HashMap<SeriesKey, Arc<Plan>>,
    /// Points counted by runtimes that were dropped whole (their last
    /// subscriber unsubscribed) — keeps `points_seen` monotonic.
    retired_points: u64,
}

/// Counter snapshot for `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SubscriptionStats {
    /// Standing subscriptions right now.
    pub active: usize,
    /// Subscriptions ever created.
    pub total: u64,
    /// Series currently tracked across all shared runtimes.
    pub series_tracked: usize,
    /// Points fanned into subscription runtimes (a point matched by two
    /// differently-paced subscriptions counts once per runtime).
    pub points_seen: u64,
    /// `FRAME` lines queued to subscribers.
    pub frames_pushed: u64,
    /// `ALERT` lines queued to subscribers.
    pub alerts_pushed: u64,
    /// Push lines dropped because a subscriber lagged past its outbox
    /// bound.
    pub frames_lagged: u64,
    /// Lines currently sitting in subscriber outboxes (pushed, not yet
    /// drained) — the instantaneous backpressure depth.
    pub outbox_lines: usize,
}

/// The server-wide subscription registry; lives in
/// [`crate::server::Shared`], fed by every ingest pipeline's apply hook.
pub(crate) struct Registry {
    inner: Mutex<Inner>,
    /// Lock-free fast-path gate: the number of standing subscriptions.
    /// Ingest with no subscribers pays one atomic load per point.
    active: AtomicUsize,
    next_id: AtomicU64,
    template: StreamingConfig,
    default_every: usize,
    max_subscriptions: usize,
    total: AtomicU64,
    frames_pushed: AtomicU64,
    alerts_pushed: AtomicU64,
    frames_lagged: AtomicU64,
}

impl Registry {
    /// Builds the registry. `window_points`/`resolution` shape every
    /// subscription's smoothing template (validated by the caller);
    /// `default_every` is the refresh interval `SUBSCRIBE` without
    /// `EVERY` gets.
    pub(crate) fn new(
        window_points: usize,
        resolution: usize,
        default_every: usize,
        max_subscriptions: usize,
    ) -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            template: StreamingConfig::new(window_points, resolution, default_every),
            default_every,
            max_subscriptions,
            total: AtomicU64::new(0),
            frames_pushed: AtomicU64::new(0),
            alerts_pushed: AtomicU64::new(0),
            frames_lagged: AtomicU64::new(0),
        }
    }

    /// Registers a subscription; returns `(id, effective interval)`.
    pub(crate) fn subscribe(
        &self,
        selector: Selector,
        every: Option<usize>,
        k_sigma: Option<f64>,
        outbox: Arc<Outbox>,
    ) -> Result<(u64, usize), String> {
        let every = every.unwrap_or(self.default_every);
        let mut inner = self.inner.lock().expect("subscription registry poisoned");
        if inner.subs.len() >= self.max_subscriptions {
            return Err(format!(
                "subscription cap reached ({} standing)",
                self.max_subscriptions
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        inner.runtimes.entry(every).or_insert_with(|| {
            let mut template = self.template.clone();
            template.refresh_interval = every;
            MultiStreamingAsap::new(template)
        });
        inner.subs.insert(
            id,
            Subscription {
                id,
                selector,
                every,
                k_sigma,
                gates: HashMap::new(),
                outbox,
            },
        );
        inner.plans.clear();
        self.active.store(inner.subs.len(), Ordering::Release);
        self.total.fetch_add(1, Ordering::AcqRel);
        Ok((id, every))
    }

    /// Cancels the given subscriptions (unknown ids are ignored);
    /// returns how many existed. Runtimes whose last subscriber left
    /// are dropped whole; in surviving runtimes, series no remaining
    /// subscriber matches are evicted so churned keys cannot leak.
    pub(crate) fn unsubscribe(&self, ids: &[u64]) -> usize {
        if ids.is_empty() {
            return 0;
        }
        let mut inner = self.inner.lock().expect("subscription registry poisoned");
        let mut removed = 0;
        for id in ids {
            if inner.subs.remove(id).is_some() {
                removed += 1;
            }
        }
        if removed > 0 {
            inner.plans.clear();
            let Inner {
                subs,
                runtimes,
                retired_points,
                ..
            } = &mut *inner;
            runtimes.retain(|every, runtime| {
                let members: Vec<&Subscription> =
                    subs.values().filter(|s| s.every == *every).collect();
                if members.is_empty() {
                    *retired_points += runtime.total_points();
                    false
                } else {
                    runtime.retain(|key, _| members.iter().any(|s| s.selector.matches(key)));
                    true
                }
            });
            self.active.store(inner.subs.len(), Ordering::Release);
        }
        removed
    }

    /// The ingest apply hook: feeds one applied point to every matching
    /// subscription runtime and fans emitted frames (and edge-triggered
    /// alerts) out to subscriber outboxes. Runs on shard-writer threads;
    /// never blocks on subscribers (see the module docs).
    pub(crate) fn on_point(&self, key: &SeriesKey, value: f64) {
        if self.active.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("subscription registry poisoned");
        let inner = &mut *inner;
        let plan = match inner.plans.get(key) {
            Some(plan) => Arc::clone(plan),
            None => {
                let mut groups: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
                for sub in inner.subs.values() {
                    if sub.selector.matches(key) {
                        groups.entry(sub.every).or_default().push(sub.id);
                    }
                }
                let plan = Arc::new(Plan {
                    groups: groups.into_iter().collect(),
                });
                inner.plans.insert(key.clone(), Arc::clone(&plan));
                plan
            }
        };
        for (every, ids) in &plan.groups {
            let Some(runtime) = inner.runtimes.get_mut(every) else {
                continue;
            };
            let frame = match runtime.push_with(key, value, SeriesKey::clone) {
                Ok(Some(frame)) => frame,
                _ => continue,
            };
            // Render once per group; every matching subscriber gets the
            // same bytes.
            let line = protocol::render_frame(key, &frame);
            for id in ids {
                let Some(sub) = inner.subs.get_mut(id) else {
                    continue;
                };
                self.deliver(sub, key, &frame, &line);
            }
        }
    }

    fn deliver(&self, sub: &mut Subscription, key: &SeriesKey, frame: &Frame, line: &str) {
        let dropped = sub.outbox.push(line.to_owned());
        self.frames_pushed.fetch_add(1, Ordering::AcqRel);
        if dropped > 0 {
            self.frames_lagged.fetch_add(dropped as u64, Ordering::AcqRel);
        }
        if let Some(k_sigma) = sub.k_sigma {
            let gate = sub
                .gates
                .entry(key.clone())
                .or_insert_with(|| AlertGate::new(DeviationAlerter::new(k_sigma, ALERT_MIN_RUN)));
            if let Some(alert) = gate.check(frame) {
                let dropped = sub.outbox.push(protocol::render_alert(key, &alert));
                self.alerts_pushed.fetch_add(1, Ordering::AcqRel);
                if dropped > 0 {
                    self.frames_lagged.fetch_add(dropped as u64, Ordering::AcqRel);
                }
            }
        }
    }

    /// Counter snapshot for `STATS`.
    pub(crate) fn stats(&self) -> SubscriptionStats {
        let inner = self.inner.lock().expect("subscription registry poisoned");
        // One connection's subscriptions share one outbox; dedup by
        // allocation so shared queues are counted once.
        let mut seen: Vec<*const Outbox> = Vec::new();
        let mut outbox_lines = 0usize;
        for sub in inner.subs.values() {
            let ptr = Arc::as_ptr(&sub.outbox);
            if !seen.contains(&ptr) {
                seen.push(ptr);
                outbox_lines += sub.outbox.len();
            }
        }
        SubscriptionStats {
            outbox_lines,
            active: inner.subs.len(),
            total: self.total.load(Ordering::Acquire),
            series_tracked: inner.runtimes.values().map(MultiStreamingAsap::len).sum(),
            points_seen: inner.retired_points
                + inner
                    .runtimes
                    .values()
                    .map(MultiStreamingAsap::total_points)
                    .sum::<u64>(),
            frames_pushed: self.frames_pushed.load(Ordering::Acquire),
            alerts_pushed: self.alerts_pushed.load(Ordering::Acquire),
            frames_lagged: self.frames_lagged.load(Ordering::Acquire),
        }
    }
}

/// Per-connection subscription state: the outbox push lines arrive on,
/// and the ids this connection owns. Dropping the session (connection
/// teardown, however it happens) cancels every owned subscription —
/// the "automatic teardown on disconnect" half of the protocol
/// contract.
pub(crate) struct SubSession {
    registry: Arc<Registry>,
    outbox: Arc<Outbox>,
    ids: Vec<u64>,
}

impl SubSession {
    pub(crate) fn new(registry: Arc<Registry>, outbox: Outbox) -> Self {
        SubSession {
            registry,
            outbox: Arc::new(outbox),
            ids: Vec::new(),
        }
    }

    /// The queue the registry pushes this connection's lines onto.
    pub(crate) fn outbox(&self) -> &Arc<Outbox> {
        &self.outbox
    }

    /// Whether this connection owns any standing subscriptions.
    pub(crate) fn has_subs(&self) -> bool {
        !self.ids.is_empty()
    }

    /// Registers a subscription owned by this connection.
    pub(crate) fn subscribe(
        &mut self,
        selector: Selector,
        every: Option<usize>,
        k_sigma: Option<f64>,
    ) -> Result<(u64, usize), String> {
        let (id, every) =
            self.registry
                .subscribe(selector, every, k_sigma, Arc::clone(&self.outbox))?;
        self.ids.push(id);
        Ok((id, every))
    }

    /// Cancels one owned subscription (`Some(id)`) or all of them
    /// (`None`); errors on an id this connection does not own.
    pub(crate) fn unsubscribe(&mut self, id: Option<u64>) -> Result<usize, String> {
        match id {
            Some(id) => {
                let Some(pos) = self.ids.iter().position(|&owned| owned == id) else {
                    return Err(format!("unknown subscription id {id}"));
                };
                self.ids.swap_remove(pos);
                Ok(self.registry.unsubscribe(&[id]))
            }
            None => {
                let ids = std::mem::take(&mut self.ids);
                Ok(self.registry.unsubscribe(&ids))
            }
        }
    }
}

impl Drop for SubSession {
    fn drop(&mut self) {
        if !self.ids.is_empty() {
            self.registry.unsubscribe(&self.ids);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Arc<Registry> {
        // Pane size 10 (1000/100): warm after 40 points per series.
        Arc::new(Registry::new(1_000, 100, 50, 8))
    }

    fn key(name: &str) -> SeriesKey {
        SeriesKey::metric(name)
    }

    /// Empties an outbox by hand, oldest line first.
    fn take(outbox: &Outbox) -> Vec<String> {
        let mut lines = Vec::new();
        outbox.drain(usize::MAX, |line| lines.push(line.to_owned()));
        lines
    }

    #[test]
    fn frames_fan_out_to_matching_subscribers_only() {
        let reg = registry();
        let cpu = Arc::new(Outbox::default());
        let all = Arc::new(Outbox::default());
        reg.subscribe(Selector::metric("cpu"), None, None, Arc::clone(&cpu)).unwrap();
        reg.subscribe(Selector::any(), None, None, Arc::clone(&all)).unwrap();
        for i in 0..200 {
            reg.on_point(&key("cpu"), (i as f64 / 20.0).sin());
            reg.on_point(&key("mem"), (i as f64 / 10.0).cos());
        }
        // Warm at 40, refresh every 50 → frames at 50, 100, 150, 200.
        assert_eq!(take(&cpu).len(), 4, "metric-selector sub sees cpu only");
        assert_eq!(take(&all).len(), 8, "wildcard sub sees both series");
        let stats = reg.stats();
        assert_eq!(stats.frames_pushed, 12);
        assert_eq!(stats.series_tracked, 2, "one shared runtime for both subs");
        assert_eq!(stats.points_seen, 400);
        assert_eq!(stats.frames_lagged, 0);
    }

    #[test]
    fn unsubscribe_evicts_keys_no_subscriber_matches() {
        let reg = registry();
        let a = Arc::new(Outbox::default());
        let b = Arc::new(Outbox::default());
        let (id_a, _) = reg.subscribe(Selector::metric("cpu"), None, None, a).unwrap();
        reg.subscribe(Selector::metric("mem"), None, None, b).unwrap();
        for i in 0..100 {
            reg.on_point(&key("cpu"), i as f64);
            reg.on_point(&key("mem"), i as f64);
        }
        assert_eq!(reg.stats().series_tracked, 2);
        let points_before = reg.stats().points_seen;

        // Dropping the cpu subscription must evict the cpu operator from
        // the shared runtime (same EVERY group) without losing counters.
        assert_eq!(reg.unsubscribe(&[id_a]), 1);
        let stats = reg.stats();
        assert_eq!(stats.active, 1);
        assert_eq!(stats.series_tracked, 1, "cpu operator evicted");
        assert_eq!(stats.points_seen, points_before, "counters survive eviction");

        // And a now-unmatched point is ignored entirely.
        reg.on_point(&key("cpu"), 1.0);
        assert_eq!(reg.stats().points_seen, points_before);
        assert_eq!(reg.stats().series_tracked, 1);
    }

    #[test]
    fn dropping_the_last_subscriber_drops_the_runtime() {
        let reg = registry();
        let outbox = Arc::new(Outbox::default());
        let (id, _) = reg.subscribe(Selector::any(), Some(10), None, outbox).unwrap();
        for i in 0..60 {
            reg.on_point(&key("cpu"), i as f64);
        }
        let points = reg.stats().points_seen;
        assert_eq!(points, 60);
        reg.unsubscribe(&[id]);
        let stats = reg.stats();
        assert_eq!(stats.active, 0);
        assert_eq!(stats.series_tracked, 0);
        assert_eq!(stats.points_seen, points, "retired points stay counted");
        reg.on_point(&key("cpu"), 1.0);
        assert_eq!(reg.stats().points_seen, points, "no subscribers, no work");
    }

    #[test]
    fn subscription_cap_is_enforced() {
        let reg = registry();
        let mut keep = Vec::new();
        for _ in 0..8 {
            keep.push(reg.subscribe(Selector::any(), None, None, Arc::new(Outbox::default())));
        }
        let err = reg
            .subscribe(Selector::any(), None, None, Arc::new(Outbox::default()))
            .unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn lagging_outbox_drops_oldest_lines_not_ingest() {
        let reg = registry();
        let outbox = Arc::new(Outbox::default());
        // Refresh every point once warm: tens of thousands of frames
        // into an outbox nobody drains.
        reg.subscribe(Selector::any(), Some(1), None, Arc::clone(&outbox)).unwrap();
        let n = 40 + OUTBOX_MAX_LINES + 500;
        for i in 0..n {
            reg.on_point(&key("cpu"), (i as f64 / 30.0).sin());
        }
        let stats = reg.stats();
        assert_eq!(stats.points_seen, n as u64, "every point still ingested");
        assert!(stats.frames_lagged > 0, "overflow counted as lag");
        let queued = take(&outbox).len();
        assert_eq!(queued, OUTBOX_MAX_LINES, "queue stays bounded");
        assert_eq!(
            stats.frames_pushed - stats.frames_lagged,
            queued as u64,
            "pushed = delivered + lagged"
        );
    }

    #[test]
    fn a_burst_wakes_the_consumer_once_and_leftovers_do_not() {
        let (wakers, receivers) = crate::event::wake_channels(1).unwrap();
        let outbox = Outbox::new(Arc::clone(&wakers[0]));
        for i in 0..5 {
            outbox.push(format!("line {i}\n"));
        }
        assert_eq!(receivers[0].drain(), 1, "five pushes, one empty -> non-empty edge");

        // A consumer at its high-water mark takes what fits and leaves
        // the rest: the queue never went empty, so later pushes stay
        // silent — the consumer returns for the leftovers by itself.
        let mut taken = Vec::new();
        assert!(outbox.drain(1, |line| taken.push(line.to_owned())));
        assert_eq!(taken, ["line 0\n"]);
        outbox.push("line 5\n".to_owned());
        assert_eq!(receivers[0].drain(), 0);

        // Emptied: the next push is an edge again.
        assert_eq!(take(&outbox).len(), 5);
        assert!(!outbox.drain(usize::MAX, |_| unreachable!("the outbox is empty")));
        outbox.push("line 6\n".to_owned());
        assert_eq!(receivers[0].drain(), 1);
    }

    #[test]
    fn session_drop_tears_down_its_subscriptions() {
        let reg = registry();
        {
            let mut session = SubSession::new(Arc::clone(&reg), Outbox::default());
            session.subscribe(Selector::any(), None, None).unwrap();
            session.subscribe(Selector::metric("cpu"), Some(10), None).unwrap();
            assert_eq!(reg.stats().active, 2);
            assert!(session.has_subs());
        }
        assert_eq!(reg.stats().active, 0, "disconnect tears everything down");
    }

    #[test]
    fn session_unsubscribe_owns_its_ids_only() {
        let reg = registry();
        let mut theirs = SubSession::new(Arc::clone(&reg), Outbox::default());
        let (their_id, _) = theirs.subscribe(Selector::any(), None, None).unwrap();
        let mut mine = SubSession::new(Arc::clone(&reg), Outbox::default());
        let (my_id, _) = mine.subscribe(Selector::any(), None, None).unwrap();

        let err = mine.unsubscribe(Some(their_id)).unwrap_err();
        assert!(err.contains("unknown subscription id"), "{err}");
        assert_eq!(mine.unsubscribe(Some(my_id)).unwrap(), 1);
        assert_eq!(mine.unsubscribe(None).unwrap(), 0);
        assert_eq!(reg.stats().active, 1, "their subscription untouched");
    }

    #[test]
    fn alert_subscriptions_push_edge_triggered_alert_lines() {
        let reg = Arc::new(Registry::new(2_000, 200, 100, 8));
        let outbox = Arc::new(Outbox::default());
        reg.subscribe(Selector::any(), None, Some(2.5), Arc::clone(&outbox)).unwrap();
        // Stable periodic signal, then a sustained dip well inside the
        // noise band — the alert.rs utility-stream shape.
        for i in 0..4_000usize {
            let seasonal = (std::f64::consts::TAU * i as f64 / 480.0).sin();
            let noise = 2.0 * ((((i as u64) * 2654435761) % 1000) as f64 / 1000.0 - 0.5);
            let dip = if i >= 3_000 { -8.0 } else { 0.0 };
            reg.on_point(&key("gen"), 50.0 + seasonal + noise + dip);
        }
        let mut frames = 0;
        let mut alerts = Vec::new();
        for line in take(&outbox) {
            if line.starts_with("ALERT ") {
                alerts.push(line);
            } else {
                assert!(line.starts_with("FRAME "), "{line}");
                frames += 1;
            }
        }
        assert!(frames > 10, "frames flowed ({frames})");
        assert!(!alerts.is_empty(), "the dip must alert");
        assert!(
            alerts.len() < 5,
            "edge-triggered: one alert per shift, not per frame ({alerts:?})"
        );
        assert!(alerts[0].contains("dir=down"), "{}", alerts[0]);
        assert_eq!(reg.stats().alerts_pushed, alerts.len() as u64);
    }
}
