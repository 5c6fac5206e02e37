//! The maintenance thread: compaction, checkpoint and self-scrape passes
//! on one loop.
//!
//! Every configured job — compaction ([`crate::CompactionConfig`]),
//! chain checkpoints ([`crate::CheckpointConfig`]) and the self-scrape
//! ([`crate::ServerConfig::self_scrape`]) — keeps its own
//! [`asap_tsdb::Schedule`] and next-due instant. The loop sleeps until
//! the earliest one, interruptibly (the drain wakes it at once), runs
//! that job's pass on this thread, and draws the job's next delay. All
//! jitter comes from one RNG with a fixed seed, so a server's tick plan
//! is reproducible run to run. Passes never overlap one another: a
//! tick that falls due during another job's pass waits for it.
//!
//! Compaction and checkpoint passes take the snapshot gate, so neither
//! runs during a client `SNAPSHOT` save (nor one during them), and
//! re-check the drain flag once they hold it, so shutdown never waits
//! for a full pass. A compaction pass is one serial
//! [`asap_tsdb::Compactor::run_sharded`]; a checkpoint pass is
//! [`crate::server::Shared::run_checkpoint`] — rotate the WAL, write a
//! delta link (or re-base), discard the covered log generations — so a
//! steady-state server holds at most the chain depth plus one live WAL
//! generation per shard. Outcomes fold into the server's
//! [`crate::CompactionStats`] and [`crate::CheckpointStats`] (`STATS`).
//!
//! The thread is spawned by [`crate::Server::start`] when any job is
//! configured, and joined during the drain after every ingest
//! connection has flushed. When the drain begins the loop runs one final
//! self-scrape (if configured) and exits, so the dying server's own
//! telemetry lands in the drain's final checkpoint and WAL seal. The
//! compactor holds only its policy — every rollup watermark is read from
//! the store — so a server restarted from its chain picks up compacting
//! where the last one stopped.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use asap_tsdb::{obs, Compactor, Schedule, TsdbError};

use crate::server::{CompactionClock, ServerConfig, Shared};

/// Seed of the one jitter RNG every job draws its delays from.
const JITTER_SEED: u64 = 0x5eed;

/// What one job does when it falls due.
enum Job {
    Compaction(Compactor, CompactionClock),
    Checkpoint,
    Scrape,
}

/// The configured jobs of one server, each with its tick plan.
pub(crate) struct Maintenance {
    jobs: Vec<(Job, Schedule)>,
}

impl Maintenance {
    /// The jobs `config` asks for, validated; `None` when it asks for
    /// none, and the server runs no maintenance thread.
    pub(crate) fn new(config: &ServerConfig) -> Result<Option<Self>, TsdbError> {
        let mut jobs = Vec::new();
        if let Some(compaction) = &config.compaction {
            compaction.schedule.validate()?;
            let compactor = Compactor::new(compaction.policy.clone())?;
            jobs.push((
                Job::Compaction(compactor, compaction.clock),
                compaction.schedule,
            ));
        }
        if let Some(checkpoint) = &config.checkpoint {
            checkpoint.schedule.validate()?;
            jobs.push((Job::Checkpoint, checkpoint.schedule));
        }
        if let Some(interval) = config.self_scrape {
            jobs.push((Job::Scrape, Schedule::every(interval)));
        }
        Ok((!jobs.is_empty()).then_some(Self { jobs }))
    }

    /// The thread body: run each job as it falls due until the drain
    /// begins, then take the final self-scrape.
    pub(crate) fn run(self, shared: &Shared) {
        let mut rng = StdRng::seed_from_u64(JITTER_SEED);
        let started = Instant::now();
        let mut due: Vec<Instant> = (self.jobs.iter())
            .map(|(_, schedule)| started + schedule.next_delay(&mut rng))
            .collect();
        loop {
            let next = (0..due.len())
                .min_by_key(|&i| due[i])
                .expect("at least one job");
            if shared.wait_drain_until(due[next]) {
                break;
            }
            let (job, schedule) = &self.jobs[next];
            // Compaction and checkpoint passes wait out a `SNAPSHOT`
            // holding the gate, then re-check the drain flag so shutdown
            // never waits for a full pass.
            let gate = (!matches!(job, Job::Scrape)).then(|| shared.snapshot_gate());
            if gate.is_some() && shared.is_draining() {
                break;
            }
            match job {
                Job::Compaction(compactor, clock) => compact(shared, compactor, *clock),
                Job::Checkpoint => checkpoint(shared),
                Job::Scrape => scrape(shared),
            }
            due[next] = Instant::now() + schedule.next_delay(&mut rng);
        }
        if self.jobs.iter().any(|(job, _)| matches!(job, Job::Scrape)) {
            scrape(shared);
        }
    }
}

/// One compaction pass at the logical `now` `clock` gives, folded into
/// the compaction stats.
fn compact(shared: &Shared, compactor: &Compactor, clock: CompactionClock) {
    let now = match clock {
        CompactionClock::WallClock => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .ok()
            .and_then(|d| i64::try_from(d.as_secs()).ok()),
        CompactionClock::DataWatermark => (shared.db().shard_occupancy().iter())
            .filter_map(|o| o.watermark)
            .max(),
    };
    let Some(now) = now else {
        shared.record_compaction(|stats| stats.skipped += 1);
        return;
    };
    let started = Instant::now();
    let outcome = compactor.run_sharded(shared.db(), now);
    let run_micros = &shared.metrics().compaction_run;
    run_micros.observe_duration(started.elapsed());
    match outcome {
        // `record_success` clears `last_error`: a populated value always
        // describes the *latest* pass, so one transient failure doesn't
        // read as a persistent fault forever.
        Ok(report) => shared.record_compaction(|stats| stats.record_success(&report)),
        Err(e) => {
            obs::warn("compaction", "pass_failed", &[("error", &e)]);
            shared.record_compaction(|stats| stats.record_failure(e.to_string()));
        }
    }
}

/// One checkpoint pass; its outcome is in the checkpoint stats, and a
/// failure is logged.
fn checkpoint(shared: &Shared) {
    if let Err(e) = shared.run_checkpoint() {
        obs::warn("checkpoint", "pass_failed", &[("error", &e)]);
    }
}

/// One self-scrape pass; a failure is logged, not fatal.
fn scrape(shared: &Shared) {
    if let Err(e) = shared.scrape() {
        obs::warn("scrape", "scrape_failed", &[("error", &e)]);
    }
}
