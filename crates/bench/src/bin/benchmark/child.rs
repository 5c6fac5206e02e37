//! The system under test as a child process: building the shipped
//! `asap-server` binary, spawning it on ephemeral ports, and reaping it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::client::QueryConn;

/// The flags every server workload passes; a workload adds its own.
pub const BASE_FLAGS: [&str; 8] = [
    "--shards",
    "4",
    "--lateness",
    "64",
    "--ingest",
    "127.0.0.1:0",
    "--query",
    "127.0.0.1:0",
];

/// How long a booting server may take to print its `listening` line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Cargo's target directory, relative to the repository root the
/// benchmark runs from.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds `asap-server` in release mode from the repository root (the
/// current directory) and returns the binary's path. Cargo decides
/// whether anything is stale, so a fresh binary costs one fingerprint
/// check.
pub fn build_server() -> Result<PathBuf, String> {
    const BUILD: &str = "cargo build --release -p asap-server --bin asap-server";
    if !Path::new("crates/server/Cargo.toml").is_file() {
        return Err(format!(
            "run the benchmark from the repository root: `{BUILD}` needs crates/server here"
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(BUILD.split(' ').skip(1))
        .arg("--quiet")
        // Cargo's own progress goes to stderr; stdout stays the result's.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run `{BUILD}`: {e}"))?;
    if !status.success() {
        return Err(format!("`{BUILD}` failed with {status}"));
    }
    let binary = target_dir().join("release").join("asap-server");
    if !binary.is_file() {
        return Err(format!("`{BUILD}` left no {}", binary.display()));
    }
    Ok(binary)
}

/// A running `asap-server` child. Dropping it kills and reaps the
/// process, so a panicking workload leaves nothing behind.
#[derive(Debug)]
pub struct Server {
    child: Child,
    log: Option<std::thread::JoinHandle<Vec<String>>>,
    pub ingest: SocketAddr,
    pub query: SocketAddr,
    /// Spawn → `listening` line (WAL replay included).
    pub boot: Duration,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(' ')
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

impl Server {
    /// Spawns the binary with [`BASE_FLAGS`] plus `extra` and waits for
    /// its `listening` log line, which carries the ephemeral ports.
    pub fn spawn(binary: &Path, extra: &[String]) -> Result<Self, String> {
        let flags: Vec<String> = BASE_FLAGS
            .iter()
            .map(|&f| f.to_owned())
            .chain(extra.iter().cloned())
            .collect();
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // The server logs one line per closed connection; keep draining
        // so it never blocks on a full pipe, and keep the lines for
        // error reports.
        let log = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("event=listening") {
                    let _ = tx.send(line.clone());
                }
                lines.push(line);
            }
            lines
        });
        let mut server = Server {
            child,
            log: Some(log),
            ingest: SocketAddr::from(([127, 0, 0, 1], 0)),
            query: SocketAddr::from(([127, 0, 0, 1], 0)),
            boot: Duration::ZERO,
        };
        let line = rx.recv_timeout(BOOT_TIMEOUT).map_err(|_| {
            let log = server.reap();
            format!(
                "asap-server never reported `listening`; its log:\n{}",
                log.join("\n")
            )
        })?;
        server.boot = started.elapsed();
        let addr = |key: &str| -> Result<SocketAddr, String> {
            field(&line, key)
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("no `{key}=` address in `{line}`"))
        };
        server.ingest = addr("ingest")?;
        server.query = addr("query")?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// One `STATS` scrape on a fresh connection.
    pub fn stats(&self) -> Result<Stats, String> {
        let mut conn = QueryConn::connect(self.query)?;
        let response = conn.request("STATS")?;
        Stats::parse(&response.text)
    }

    /// Sends `SHUTDOWN` and waits for a clean exit; returns how long the
    /// drain took.
    pub fn shutdown(mut self) -> Result<Duration, String> {
        let started = Instant::now();
        let mut conn = QueryConn::connect(self.query)?;
        let response = conn.request("SHUTDOWN")?;
        if !response.text.starts_with("OK") {
            return Err(format!("SHUTDOWN answered `{}`", response.text.trim_end()));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        let took = started.elapsed();
        let log = self.reap();
        if !status.success() {
            return Err(format!(
                "asap-server exited with {status}; its log:\n{}",
                log.join("\n")
            ));
        }
        Ok(took)
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.log
            .take()
            .and_then(|log| log.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))
}

/// A parsed `STATS` response.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    values: std::collections::BTreeMap<String, f64>,
}

impl Stats {
    pub fn parse(response: &str) -> Result<Self, String> {
        if !response.starts_with("OK stats\n") {
            let head = response.lines().next().unwrap_or("");
            return Err(format!("STATS answered `{head}`"));
        }
        let values = response
            .lines()
            .filter_map(|line| {
                let (key, value) = line.split_once(' ')?;
                Some((key.to_owned(), value.trim().parse().ok()?))
            })
            .collect();
        Ok(Stats { values })
    }

    /// The counter `key`; an absent counter is an error, not a zero.
    pub fn get(&self, key: &str) -> Result<f64, String> {
        self.values
            .get(key)
            .copied()
            .ok_or_else(|| format!("STATS lacks `{key}`"))
    }

    /// `self[key] - earlier[key]`.
    pub fn delta(&self, earlier: &Stats, key: &str) -> Result<f64, String> {
        Ok(self.get(key)? - earlier.get(key)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_fields_parse() {
        let line = "level=info component=server event=listening ingest=127.0.0.1:38103 \
                    query=127.0.0.1:43007 verbs=SMOOTH|RANGE";
        assert_eq!(field(line, "ingest"), Some("127.0.0.1:38103"));
        assert_eq!(field(line, "query"), Some("127.0.0.1:43007"));
        assert_eq!(field(line, "port"), None);
    }

    #[test]
    fn stats_parse_and_refuse_gaps() {
        let stats = Stats::parse(
            "OK stats\nwal.bytes 27600000\nshard.0.watermark none\nevent.parks 129\nEND\n",
        )
        .unwrap();
        assert_eq!(stats.get("wal.bytes"), Ok(27_600_000.0));
        assert!(
            stats.get("shard.0.watermark").is_err(),
            "non-numeric values are skipped"
        );
        assert!(stats.get("missing").is_err());
        let later = Stats::parse("OK stats\nevent.parks 140\nEND\n").unwrap();
        assert_eq!(later.delta(&stats, "event.parks"), Ok(11.0));
        assert!(Stats::parse("ERR nope\n").is_err());
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("/proc/self/status").unwrap() > 0.5);
        assert!(peak_rss_mb("/proc/self/no-such-file").is_err());
    }
}
