//! The I/O fault plane: every durability-critical filesystem operation
//! goes through one seam.
//!
//! HawkSet's own durable files must survive exactly the storage failures
//! it hunts in other programs: full disks (`ENOSPC`), dying media (`EIO`),
//! torn writes that a reordering filesystem commits past a rename, and the
//! fsyncgate trap where a failed `fsync` silently drops dirty pages and a
//! blind retry reports success over lost data. Unit tests cannot make a
//! real disk fail on cue, so the write paths are threaded through an
//! [`IoPlane`]: the [`RealIo`] backend is the thin passthrough production
//! uses, and [`ScriptedIo`] replays a deterministic [`FaultScript`] so a
//! test (or a whole process, via [`HAWKSET_IO_FAULT_SCRIPT`]) experiences
//! an exact schedule of failures.
//!
//! Operations carry a **site** label naming the caller and an **op** name
//! (`write`, `fsync`, `rename`, `dirsync`). The scripted backend counts
//! occurrences per `(site, op)` pair, so a schedule like
//! `snapshot:fsync:1:eio` means "the second fsync of a snapshot file fails
//! with EIO" — deterministic under a deterministic caller.
//!
//! [`write_atomic`] is the one durable write: tmp file → write → fsync →
//! rename → directory fsync. Every file the system calls durable goes
//! through it: serve snapshots and their root pointer (sites `snapshot`,
//! `current`), analysis and campaign checkpoints (`checkpoint`), and the
//! `--metrics` files of `analyze`, `crashtest` and `serve` (`metrics`).
//! The daemon's storage probe (`probe`) and a steered campaign's io-axis
//! probe (`campaign`) go through the plane too. Every failure mode a
//! script can inject lands inside that sequence, which is what lets the
//! chaos suites enumerate them.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable holding a [`FaultScript`] for the whole process.
/// [`plane_from_env`] consults it; `serve`, `analyze` and `crashtest` all
/// route their durable writes through the resulting plane, so an e2e test
/// can subject a real process to a scripted storage failure schedule.
pub const HAWKSET_IO_FAULT_SCRIPT: &str = "HAWKSET_IO_FAULT_SCRIPT";

/// The filesystem seam. All methods mirror one concrete syscall-level
/// operation; implementations must be usable from many threads.
pub trait IoPlane: Send + Sync + fmt::Debug {
    /// Creates (or truncates) `path` and writes `bytes` to it. A torn
    /// variant may persist only a prefix and still report success — the
    /// caller's checksum, not this call, is the integrity authority.
    fn write_file(&self, site: &str, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Flushes `path`'s data and metadata to stable storage. Fsyncgate
    /// rule for callers: after a failure the file's durability is
    /// *unknowable* — never retry the fsync in place and never trust the
    /// file; write fresh bytes under a fresh name.
    fn fsync(&self, site: &str, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    fn rename(&self, site: &str, from: &Path, to: &Path) -> io::Result<()>;

    /// Makes a completed rename in `dir` itself durable.
    fn fsync_dir(&self, site: &str, dir: &Path) -> io::Result<()>;
}

/// The production backend: straight passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealIo;

impl IoPlane for RealIo {
    fn write_file(&self, _site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn fsync(&self, _site: &str, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, _site: &str, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn fsync_dir(&self, _site: &str, dir: &Path) -> io::Result<()> {
        // Directory fsync is how the rename itself becomes durable. Some
        // platforms/filesystems refuse to open directories; that is not a
        // storage failure, so only a *sync* error surfaces.
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

/// What a scripted rule injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC` — the disk is full. The operation has no effect.
    Enospc,
    /// `EIO` — the device failed. The operation's effect is unknowable;
    /// the scripted backend models the worst case (no effect for writes,
    /// lost durability for fsync).
    Eio,
    /// Write only a prefix of the bytes and **report success** — the
    /// torn-write lie of a filesystem that commits a rename before the
    /// data blocks. Only meaningful for `write`.
    Torn,
    /// Write only a prefix and report `ENOSPC` — an honest short write.
    /// Only meaningful for `write`.
    Short,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "enospc" => FaultKind::Enospc,
            "eio" => FaultKind::Eio,
            "torn" => FaultKind::Torn,
            "short" => FaultKind::Short,
            _ => return None,
        })
    }

    fn as_error(self) -> io::Error {
        match self {
            // Raw OS errno so the message reads like the real failure
            // ("No space left on device", "Input/output error").
            FaultKind::Enospc | FaultKind::Short => injected(28, "ENOSPC"),
            FaultKind::Eio | FaultKind::Torn => injected(5, "EIO"),
        }
    }
}

fn injected(errno: i32, tag: &str) -> io::Error {
    #[cfg(unix)]
    {
        let _ = tag;
        io::Error::from_raw_os_error(errno)
    }
    #[cfg(not(unix))]
    {
        let _ = errno;
        io::Error::other(format!("injected {tag}"))
    }
}

/// Which occurrences of a `(site, op)` pair a rule fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Occurrence {
    /// Every occurrence.
    All,
    /// Exactly occurrence `n` (0-based).
    Exact(u64),
    /// Occurrences `from..=to`.
    Range(u64, u64),
    /// Occurrence `n` and everything after it.
    From(u64),
}

impl Occurrence {
    fn matches(&self, n: u64) -> bool {
        match *self {
            Occurrence::All => true,
            Occurrence::Exact(k) => n == k,
            Occurrence::Range(a, b) => (a..=b).contains(&n),
            Occurrence::From(k) => n >= k,
        }
    }

    fn parse(s: &str) -> Option<Self> {
        if s == "*" {
            return Some(Occurrence::All);
        }
        if let Some(n) = s.strip_suffix('+') {
            return Some(Occurrence::From(n.parse().ok()?));
        }
        if let Some((a, b)) = s.split_once('-') {
            return Some(Occurrence::Range(a.parse().ok()?, b.parse().ok()?));
        }
        Some(Occurrence::Exact(s.parse().ok()?))
    }
}

/// One scripted fault: fire `kind` on matching occurrences of `(site,
/// op)`. Site and op accept `*` as a wildcard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// Site label the caller passes (`snapshot`, `current`, ...), or `*`.
    pub site: String,
    /// Operation name (`write`, `fsync`, `rename`, `dirsync`), or `*`.
    pub op: String,
    /// Which occurrences fire.
    pub occurrence: Occurrence,
    /// The injected failure.
    pub kind: FaultKind,
}

impl FaultRule {
    fn applies(&self, site: &str, op: &str, n: u64) -> bool {
        (self.site == "*" || self.site == site)
            && (self.op == "*" || self.op == op)
            && self.occurrence.matches(n)
    }
}

/// A deterministic schedule of injected storage failures.
///
/// Text form: semicolon-separated rules `site:op:occurrence:kind`, e.g.
///
/// ```text
/// snapshot:fsync:1:eio;current:write:2-3:enospc;metrics:*:*:eio
/// ```
///
/// * `site` — caller label, or `*`
/// * `op` — `write` | `fsync` | `rename` | `dirsync`, or `*`
/// * `occurrence` — `N`, `N-M`, `N+`, or `*` (0-based, counted per
///   `(site, op)` pair)
/// * `kind` — `enospc` | `eio` | `torn` | `short` (`torn`/`short` only on
///   `write`)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultScript {
    /// The rules, checked in order; the first match fires.
    pub rules: Vec<FaultRule>,
}

impl FaultScript {
    /// Parses the text form. Errors name the offending rule.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for part in s.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let fields: Vec<&str> = part.split(':').collect();
            let [site, op, occ, kind] = fields[..] else {
                return Err(format!(
                    "fault rule `{part}`: expected site:op:occurrence:kind"
                ));
            };
            if !matches!(op, "write" | "fsync" | "rename" | "dirsync" | "*") {
                return Err(format!("fault rule `{part}`: unknown op `{op}`"));
            }
            let occurrence = Occurrence::parse(occ)
                .ok_or_else(|| format!("fault rule `{part}`: bad occurrence `{occ}`"))?;
            let kind = FaultKind::parse(kind)
                .ok_or_else(|| format!("fault rule `{part}`: unknown kind `{kind}`"))?;
            if matches!(kind, FaultKind::Torn | FaultKind::Short) && op != "write" {
                return Err(format!(
                    "fault rule `{part}`: `{}` applies only to write",
                    if kind == FaultKind::Torn {
                        "torn"
                    } else {
                        "short"
                    }
                ));
            }
            rules.push(FaultRule {
                site: site.to_string(),
                op: op.to_string(),
                occurrence,
                kind,
            });
        }
        Ok(Self { rules })
    }
}

/// The scripted backend: a [`RealIo`] passthrough that consults a
/// [`FaultScript`] before every operation. Occurrence counters are per
/// `(site, op)` and advance on every call, matched or not, so a schedule
/// reads as "the Nth fsync of a snapshot" regardless of other rules.
#[derive(Debug)]
pub struct ScriptedIo {
    script: FaultScript,
    counters: Mutex<std::collections::HashMap<(String, String), u64>>,
    injected: AtomicU64,
}

impl ScriptedIo {
    /// A scripted plane replaying `script`.
    pub fn new(script: FaultScript) -> Self {
        Self {
            script,
            counters: Mutex::new(std::collections::HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults injected so far — lets tests assert the schedule
    /// actually fired.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Advances the `(site, op)` counter and returns the fault to inject
    /// at this occurrence, if any.
    fn consult(&self, site: &str, op: &str) -> Option<FaultKind> {
        let mut counters = self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let n = counters
            .entry((site.to_string(), op.to_string()))
            .or_insert(0);
        let occurrence = *n;
        *n += 1;
        drop(counters);
        let kind = self
            .script
            .rules
            .iter()
            .find(|r| r.applies(site, op, occurrence))
            .map(|r| r.kind)?;
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }
}

impl IoPlane for ScriptedIo {
    fn write_file(&self, site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.consult(site, "write") {
            None => RealIo.write_file(site, path, bytes),
            Some(FaultKind::Torn) => {
                // The lie: half the bytes land, the call reports success.
                RealIo.write_file(site, path, &bytes[..bytes.len() / 2])
            }
            Some(FaultKind::Short) => {
                let _ = RealIo.write_file(site, path, &bytes[..bytes.len() / 2]);
                Err(FaultKind::Short.as_error())
            }
            Some(kind) => Err(kind.as_error()),
        }
    }

    fn fsync(&self, site: &str, path: &Path) -> io::Result<()> {
        match self.consult(site, "fsync") {
            None => RealIo.fsync(site, path),
            // Model the fsyncgate worst case: the failed fsync dropped the
            // dirty pages on the floor — truncate the file so a caller that
            // wrongly trusts it anyway is caught by its checksum.
            Some(kind) => {
                let _ = std::fs::write(path, b"");
                Err(kind.as_error())
            }
        }
    }

    fn rename(&self, site: &str, from: &Path, to: &Path) -> io::Result<()> {
        match self.consult(site, "rename") {
            None => RealIo.rename(site, from, to),
            Some(kind) => Err(kind.as_error()),
        }
    }

    fn fsync_dir(&self, site: &str, dir: &Path) -> io::Result<()> {
        match self.consult(site, "dirsync") {
            None => RealIo.fsync_dir(site, dir),
            Some(kind) => Err(kind.as_error()),
        }
    }
}

/// The process's I/O plane: [`ScriptedIo`] when [`HAWKSET_IO_FAULT_SCRIPT`]
/// is set (a malformed script is an error — silently ignoring a chaos
/// schedule would make every chaos test vacuously green), [`RealIo`]
/// otherwise.
pub fn plane_from_env() -> Result<Arc<dyn IoPlane>, String> {
    match std::env::var(HAWKSET_IO_FAULT_SCRIPT) {
        Ok(s) if !s.trim().is_empty() => {
            let script =
                FaultScript::parse(&s).map_err(|e| format!("{HAWKSET_IO_FAULT_SCRIPT}: {e}"))?;
            Ok(Arc::new(ScriptedIo::new(script)))
        }
        _ => Ok(Arc::new(RealIo)),
    }
}

/// The one durable write: `<path>.tmp` → write → fsync → rename to
/// `path` → fsync of the directory holding `path` (its parent, or `.` for
/// a bare file name). The rename is the commit point; the directory fsync
/// makes the rename durable. Every step goes through the plane, so a
/// scripted schedule can fail any of them.
pub fn write_atomic(plane: &dyn IoPlane, site: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        plane.write_file(site, &tmp, bytes)?;
        plane.fsync(site, &tmp)?;
        plane.rename(site, &tmp, path)?;
        plane.fsync_dir(site, dir)
    })();
    if result.is_err() {
        // A tmp file that never committed is garbage; a target whose
        // commit is in doubt (dirsync failure) is the caller's problem —
        // its checksum decides on the next read.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hwk-ioplane-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn script_parses_every_field_form() {
        let s = FaultScript::parse(
            "snapshot:fsync:1:eio;*:write:2-4:enospc;current:*:3+:eio;m:rename:*:enospc",
        )
        .unwrap();
        assert_eq!(s.rules.len(), 4);
        assert_eq!(s.rules[0].occurrence, Occurrence::Exact(1));
        assert_eq!(s.rules[1].occurrence, Occurrence::Range(2, 4));
        assert_eq!(s.rules[1].site, "*");
        assert_eq!(s.rules[2].occurrence, Occurrence::From(3));
        assert_eq!(s.rules[3].occurrence, Occurrence::All);
        // Empty segments are tolerated (trailing semicolons).
        assert_eq!(FaultScript::parse("  ;; ").unwrap().rules.len(), 0);
    }

    #[test]
    fn script_rejects_malformed_rules() {
        for bad in [
            "snapshot:fsync:1", // missing kind
            "snapshot:fsync:1:kaboom",
            "snapshot:open:1:eio",   // unknown op
            "snapshot:fsync:x:eio",  // bad occurrence
            "snapshot:fsync:1:torn", // torn only applies to write
            "snapshot:rename:1:short",
        ] {
            assert!(FaultScript::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn occurrences_count_per_site_op_pair() {
        let plane = ScriptedIo::new(FaultScript::parse("a:write:1:enospc").unwrap());
        let dir = tmpdir("occ");
        let p = dir.join("f");
        // Occurrence 0 at (a, write) passes; a different site does not
        // advance a's counter.
        plane.write_file("a", &p, b"x").unwrap();
        plane.write_file("b", &p, b"x").unwrap();
        let err = plane.write_file("a", &p, b"x").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        plane.write_file("a", &p, b"x").unwrap();
        assert_eq!(plane.injected(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_reports_success_with_half_the_bytes() {
        let plane = ScriptedIo::new(FaultScript::parse("s:write:0:torn").unwrap());
        let dir = tmpdir("torn");
        let p = dir.join("f");
        plane.write_file("s", &p, b"0123456789").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"01234");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_fsync_truncates_like_dropped_pages() {
        let plane = ScriptedIo::new(FaultScript::parse("s:fsync:0:eio").unwrap());
        let dir = tmpdir("fsyncgate");
        let p = dir.join("f");
        plane.write_file("s", &p, b"precious").unwrap();
        let err = plane.fsync("s", &p).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5));
        assert_eq!(std::fs::read(&p).unwrap(), b"", "dirty pages are gone");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_commits_through_the_real_plane() {
        let dir = tmpdir("atomic");
        write_atomic(&RealIo, "s", &dir.join("file.json"), b"payload").unwrap();
        assert_eq!(std::fs::read(dir.join("file.json")).unwrap(), b"payload");
        assert!(!dir.join("file.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_failure_leaves_no_tmp_and_keeps_the_old_file() {
        let dir = tmpdir("atomic-fail");
        write_atomic(&RealIo, "s", &dir.join("file.json"), b"old").unwrap();
        for script in [
            "s:write:*:enospc",
            "s:fsync:*:eio",
            "s:rename:*:eio",
            "s:write:*:short",
        ] {
            let plane = ScriptedIo::new(FaultScript::parse(script).unwrap());
            let err = write_atomic(&plane, "s", &dir.join("file.json"), b"new").unwrap_err();
            assert!(err.raw_os_error().is_some(), "{script}");
            assert!(!dir.join("file.json.tmp").exists(), "{script}: tmp cleaned");
            assert_eq!(
                std::fs::read(dir.join("file.json")).unwrap(),
                b"old",
                "{script}: committed file untouched"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A plane that touches no file and records every call as
    /// `op path`.
    #[derive(Debug, Default)]
    struct Recorder(Mutex<Vec<String>>);

    impl Recorder {
        fn log(&self, op: &str, path: &Path) -> io::Result<()> {
            self.0
                .lock()
                .unwrap()
                .push(format!("{op} {}", path.display()));
            Ok(())
        }
    }

    impl IoPlane for Recorder {
        fn write_file(&self, _: &str, path: &Path, _: &[u8]) -> io::Result<()> {
            self.log("write", path)
        }
        fn fsync(&self, _: &str, path: &Path) -> io::Result<()> {
            self.log("fsync", path)
        }
        fn rename(&self, _: &str, _: &Path, to: &Path) -> io::Result<()> {
            self.log("rename", to)
        }
        fn fsync_dir(&self, _: &str, dir: &Path) -> io::Result<()> {
            self.log("dirsync", dir)
        }
    }

    #[test]
    fn write_atomic_syncs_the_parent_or_the_current_directory() {
        for (path, tmp, dir) in [
            ("ck.json", "ck.json.tmp", "."),
            ("out/ck.json", "out/ck.json.tmp", "out"),
            ("/var/db/CURRENT", "/var/db/CURRENT.tmp", "/var/db"),
        ] {
            let plane = Recorder::default();
            write_atomic(&plane, "s", Path::new(path), b"x").unwrap();
            assert_eq!(
                plane.0.into_inner().unwrap(),
                [
                    format!("write {tmp}"),
                    format!("fsync {tmp}"),
                    format!("rename {path}"),
                    format!("dirsync {dir}"),
                ],
                "{path}"
            );
        }
    }

    #[test]
    fn plane_from_env_requires_a_well_formed_script() {
        // Not using set_var: the test process is multi-threaded. Parse
        // coverage above stands in; here only the unset path is checked.
        assert!(plane_from_env().is_ok());
    }
}
