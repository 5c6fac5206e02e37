//! The background checkpoint scheduler: a thread driving incremental
//! [`asap_tsdb::CheckpointChain`] checkpoints on jittered wall-clock
//! ticks, so a long-running durable server truncates its write-ahead
//! log continuously instead of only at shutdown.
//!
//! Each tick the scheduler (1) draws the next delay from the configured
//! [`asap_tsdb::Schedule`] with its own seeded RNG, (2) sleeps
//! interruptibly — a server drain wakes it immediately, (3) takes the
//! snapshot gate so a checkpoint never overlaps a compaction pass or a
//! client `SNAPSHOT` save (and vice versa), and (4) runs one pass via
//! [`crate::server::Shared::run_checkpoint`]: rotate the WAL, write a
//! delta link holding only the series that changed since the previous
//! pass (or re-base once the chain reaches its configured depth) — the
//! link's rename is the commit — and discard the covered log
//! generations.
//! The outcome folds into the server's [`crate::CheckpointStats`]
//! (surfaced through `STATS` as `checkpoint.*`).
//!
//! Because every pass discards the generations it covers, a
//! steady-state server holds at most the chain depth plus one live WAL
//! generation per shard — the log stops growing with uptime.
//!
//! The thread's lifecycle is tied to the server's: spawned by
//! [`crate::Server::start`], joined during the drain after every ingest
//! connection has flushed; the drain then takes one final checkpoint so
//! the shutdown state lands in the chain too.

use asap_tsdb::obs;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::server::{CheckpointConfig, Shared};

/// The checkpoint scheduler thread body.
pub(crate) fn run(shared: &Shared, config: &CheckpointConfig) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    loop {
        let delay = config.schedule.next_delay(&mut rng);
        if shared.wait_drain_timeout(delay) {
            break;
        }
        // Pause while compaction or a snapshot save holds the gate;
        // re-check the drain flag afterwards so shutdown is never
        // delayed by a full pass (the drain takes its own final
        // checkpoint after joining this thread).
        let _gate = shared.snapshot_gate();
        if shared.is_draining() {
            break;
        }
        if let Err(e) = shared.run_checkpoint() {
            obs::warn("checkpoint", "pass_failed", &[("error", &e)]);
        }
    }
}
