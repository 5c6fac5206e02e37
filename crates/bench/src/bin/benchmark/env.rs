//! Where a result was measured: the facts a number needs beside it to be
//! compared with another.

use std::path::Path;
use std::process::Command;

use crate::json;

#[derive(Debug, Clone)]
pub struct Environment {
    pub host_cpus: usize,
    pub git_revision: String,
    pub rustc: String,
    /// Filesystem under the WAL directory: fsync cost is this sandbox's,
    /// not a device's.
    pub wal_filesystem: String,
}

impl Environment {
    pub fn detect(work_dir: &Path) -> Self {
        Environment {
            host_cpus: std::thread::available_parallelism().map_or(0, usize::from),
            git_revision: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["--version"]),
            wal_filesystem: std::fs::read_to_string("/proc/self/mountinfo")
                .ok()
                .and_then(|mounts| filesystem_of(&mounts, &work_dir.canonicalize().ok()?))
                .unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"host_cpus\": {}, \"git_revision\": {}, \"rustc\": {}, \"wal_filesystem\": {}}}",
            self.host_cpus,
            json::quote(&self.git_revision),
            json::quote(&self.rustc),
            json::quote(&self.wal_filesystem)
        )
    }
}

/// What `program args…` prints, or `unknown` where it cannot run or
/// fails (a checkout that is not a git repository has no revision).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// The filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo`: the longest mount point that is a prefix.
fn filesystem_of(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "22 1 8:1 / / rw,relatime - ext4 /dev/sda1 rw\n\
                      30 22 0:25 / /tmp rw - tmpfs tmpfs rw\n\
                      31 22 0:26 / /root/repo/target rw shared:1 - overlay overlay rw\n";
        let fs = |p: &str| filesystem_of(mounts, Path::new(p));
        assert_eq!(
            fs("/root/repo/target/benchmark/7").as_deref(),
            Some("overlay")
        );
        assert_eq!(fs("/tmp/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/home").as_deref(), Some("ext4"));
        assert_eq!(filesystem_of("garbage\n", Path::new("/")), None);
    }

    #[test]
    fn detection_never_fails_and_renders_json() {
        let env = Environment::detect(Path::new("."));
        assert!(env.host_cpus >= 1);
        let json = env.to_json();
        assert!(json.starts_with("{\"host_cpus\": ") && json.contains("\"rustc\": \""));
        assert_eq!(first_line_of("git", &["no-such-subcommand"]), "unknown");
        assert_eq!(first_line_of("/nonexistent/program", &[]), "unknown");
    }
}
