//! Facts about the host a run was measured on, for the header line.

use std::path::Path;

/// Online processors, from `/sys/devices/system/cpu/online` (a list of
/// ranges such as `0-1,4`); `None` where the platform does not say.
pub fn nproc() -> Option<u64> {
    let list = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    list.trim()
        .split(',')
        .map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            let (lo, hi) = (lo.parse::<u64>().ok()?, hi.parse::<u64>().ok()?);
            Some(hi.checked_sub(lo)? + 1)
        })
        .sum()
}

/// Threads the standard library would use, as the analyzer's default
/// thread count does.
pub fn available_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Type of the filesystem holding `dir` (`ext4`, `tmpfs`, `overlay`, ...):
/// that of the mount in `/proc/self/mounts` with the longest mount point
/// containing `dir`, or `unknown`.
pub fn filesystem(dir: &Path) -> String {
    let (Ok(dir), Ok(mounts)) = (
        dir.canonicalize(),
        std::fs::read_to_string("/proc/self/mounts"),
    ) else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ').skip(1);
            let (point, fs) = (fields.next()?, fields.next()?);
            dir.starts_with(point).then_some((point.len(), fs))
        })
        // The last of equally long mount points is the one on top.
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

/// The commit of the git checkout in the working directory, or `unknown`
/// (a source tree without `.git`).
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_read() {
        if cfg!(target_os = "linux") {
            assert!(nproc().is_some_and(|n| n >= 1));
            assert_ne!(filesystem(Path::new(".")), "unknown");
        }
        assert!(available_parallelism() >= 1);
        assert_eq!(filesystem(Path::new("/no/such/dir")), "unknown");
    }
}
