//! The background compaction scheduler: a thread driving
//! [`asap_tsdb::Compactor::run_sharded`] on jittered wall-clock ticks.
//!
//! Each tick the scheduler (1) draws the next delay from the configured
//! [`asap_tsdb::Schedule`] with its own seeded RNG, (2) sleeps
//! interruptibly — a server drain wakes it immediately, (3) takes the
//! snapshot gate so it never compacts mid-snapshot (and a snapshot never
//! starts mid-compaction), (4) resolves the logical `now` per the
//! configured [`CompactionClock`], and (5) runs one shard-parallel
//! compaction pass, folding the outcome into the server's
//! [`crate::CompactionStats`] (surfaced through `STATS`).
//!
//! The thread's lifecycle is tied to the server's: spawned by
//! [`crate::Server::start`], joined during the drain after every ingest
//! connection has flushed. The compactor it builds holds only the
//! policy — every rollup watermark is read from the store — so a server
//! restarted from its chain picks up compacting where the last one
//! stopped.

use rand::rngs::StdRng;
use rand::SeedableRng;

use asap_tsdb::{obs, Compactor};

use crate::server::{CompactionClock, CompactionConfig, Shared};

/// The scheduler thread body.
pub(crate) fn run(shared: &Shared, config: &CompactionConfig) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let compactor =
        Compactor::new(config.policy.clone()).expect("policy validated by Server::start");
    loop {
        let delay = config.schedule.next_delay(&mut rng);
        if shared.wait_drain_timeout(delay) {
            break;
        }
        // Pause while a snapshot save holds the gate; re-check the drain
        // flag afterwards so shutdown is never delayed by a full pass.
        let _gate = shared.snapshot_gate();
        if shared.is_draining() {
            break;
        }
        let now = match config.clock {
            CompactionClock::WallClock => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .ok()
                .and_then(|d| i64::try_from(d.as_secs()).ok()),
            CompactionClock::DataWatermark => shared
                .db()
                .shard_occupancy()
                .iter()
                .filter_map(|o| o.watermark)
                .max(),
        };
        let Some(now) = now else {
            shared.record_compaction(|stats| stats.skipped += 1);
            continue;
        };
        let started = std::time::Instant::now();
        let outcome = compactor.run_sharded(shared.db(), now);
        shared.metrics().compaction_run.observe_duration(started.elapsed());
        match outcome {
            // `record_success` clears `last_error`: a populated value
            // always describes the *latest* pass, so one transient
            // failure doesn't read as a persistent fault forever.
            Ok(report) => shared.record_compaction(|stats| stats.record_success(&report)),
            Err(e) => {
                obs::warn("compaction", "pass_failed", &[("error", &e)]);
                shared.record_compaction(|stats| stats.record_failure(e.to_string()));
            }
        }
    }
}
