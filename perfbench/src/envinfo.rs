//! The environment record printed with every run.

use std::path::Path;
use std::process::Command;

/// Where and on what a run happened.
#[derive(Debug, Clone)]
pub struct EnvRecord {
    pub nproc: usize,
    pub data_fs: String,
    pub kernel: String,
    pub commit: String,
}

impl EnvRecord {
    pub fn collect(data_dir: &Path, repo: &Path) -> EnvRecord {
        EnvRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            data_fs: fs_type(data_dir).unwrap_or_else(|| "unknown".into()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned()),
            commit: Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .current_dir(repo)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map_or_else(
                    || "unknown (not a git checkout)".into(),
                    |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
                ),
        }
    }

    /// RAM-backed filesystems keep cache-directory I/O off the disk.
    pub fn ram_backed(&self) -> bool {
        matches!(self.data_fs.as_str(), "tmpfs" | "ramfs")
    }
}

/// The filesystem type of the mount holding `path`: the longest mount
/// point in `/proc/self/mounts` that prefixes its canonical form.
pub fn fs_type(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mount_fs_type(&mounts, &path)
}

fn mount_fs_type(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut cols = line.split_whitespace();
            let _dev = cols.next()?;
            let point = cols.next()?.replace("\\040", " ");
            let fs = cols.next()?;
            path.starts_with(&point).then(|| (point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n\
                      tmpfs /dev/shmx tmpfs rw 0 0\n";
        assert_eq!(mount_fs_type(mounts, Path::new("/dev/shm/a")).as_deref(), Some("tmpfs"));
        assert_eq!(mount_fs_type(mounts, Path::new("/root/x")).as_deref(), Some("ext4"));
        // Component-wise prefixes only: /dev/shmy is not under /dev/shm.
        assert_eq!(mount_fs_type(mounts, Path::new("/dev/shmy")).as_deref(), Some("ext4"));
    }
}
