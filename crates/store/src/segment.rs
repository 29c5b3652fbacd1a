//! Segment-file naming and directory layout for the log backend.
//!
//! A backend directory contains:
//!
//! - `wal-<log>-<first_seq>.log` — append-only WAL segment files.
//!   `<first_seq>` is the global sequence number active when the segment
//!   was created (sixteen hex digits), so lexicographic file order equals
//!   creation order. `<log>` (two hex digits) is always `00` in new files;
//!   directories written by earlier versions, which routed records over
//!   several shard logs, also hold `01` and up, and still parse.
//! - `checkpoint.snap` — the sealed checkpoint that bounds replay length.
//! - `*.tmp` — in-flight atomic writes; leftovers mean a crash landed
//!   between tmp write and rename and are swept on open.
//! - `*.corrupt` — quarantined files kept as evidence, never read.

use std::path::{Path, PathBuf};

use crate::vfs::Vfs;

/// File name of the checkpoint inside a backend directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.snap";

/// Suffix of in-flight atomic writes.
pub const TMP_SUFFIX: &str = ".tmp";

/// Suffix of quarantined (corrupt, kept-as-evidence) files.
pub const CORRUPT_SUFFIX: &str = ".corrupt";

/// One WAL segment file discovered in a backend directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentFile {
    /// Full path of the segment.
    pub path: PathBuf,
    /// The shard log an earlier version routed the segment to (0 in new
    /// files).
    pub log: usize,
    /// Global sequence number current when the segment was created.
    pub first_seq: u64,
}

/// The file name of a segment of shard log `log` starting at `first_seq`
/// (new segments use log 0).
pub fn segment_file_name(log: usize, first_seq: u64) -> String {
    format!("wal-{log:02x}-{first_seq:016x}.log")
}

/// Parses a segment file name produced by [`segment_file_name`].
pub fn parse_segment_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (log_hex, seq_hex) = rest.split_once('-')?;
    if log_hex.len() != 2 || seq_hex.len() != 16 {
        return None;
    }
    let log = usize::from_str_radix(log_hex, 16).ok()?;
    let first_seq = u64::from_str_radix(seq_hex, 16).ok()?;
    Some((log, first_seq))
}

/// Lists the WAL segments in `dir`, sorted by `(first_seq, log)` so replay
/// visits files in creation order. Non-segment files are ignored.
///
/// # Errors
///
/// Propagates the underlying directory-listing error.
pub fn list_segments(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<Vec<SegmentFile>> {
    let mut segments = Vec::new();
    for path in vfs.list_dir(dir)? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some((log, first_seq)) = parse_segment_name(name) {
            segments.push(SegmentFile { path, log, first_seq });
        }
    }
    segments.sort_by_key(|s| (s.first_seq, s.log));
    Ok(segments)
}

/// Removes every `*.tmp` file in `dir` — leftovers from writes whose crash
/// landed between the tmp write and the rename. Returns how many were
/// swept. Removal failures are ignored (a stray tmp is inert; it is never
/// read and the next atomic write through the same name replaces it).
pub fn sweep_tmp_files(vfs: &dyn Vfs, dir: &Path) -> usize {
    let Ok(paths) = vfs.list_dir(dir) else { return 0 };
    let mut swept = 0;
    for path in paths {
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(TMP_SUFFIX));
        if is_tmp && vfs.remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// The sibling `.tmp` name used for atomic writes of `path`.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

/// The sibling `.corrupt` quarantine name for `path`.
pub fn corrupt_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(CORRUPT_SUFFIX);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    #[test]
    fn segment_names_roundtrip() {
        let name = segment_file_name(3, 0x1234);
        assert_eq!(name, "wal-03-0000000000001234.log");
        assert_eq!(parse_segment_name(&name), Some((3, 0x1234)));
        assert_eq!(parse_segment_name("checkpoint.snap"), None);
        assert_eq!(parse_segment_name("wal-3-1234.log"), None);
        assert_eq!(parse_segment_name("wal-03-0000000000001234.log.tmp"), None);
    }

    #[test]
    fn listing_sorts_by_creation_order() {
        let dir = std::env::temp_dir()
            .join(format!("speed-segment-list-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = StdVfs;
        for (log, seq) in [(1usize, 30u64), (0, 10), (0, 20), (1, 10)] {
            std::fs::write(dir.join(segment_file_name(log, seq)), b"x").unwrap();
        }
        std::fs::write(dir.join(CHECKPOINT_FILE), b"y").unwrap();
        std::fs::write(dir.join("stray.tmp"), b"z").unwrap();
        let segments = list_segments(&vfs, &dir).unwrap();
        let order: Vec<(usize, u64)> =
            segments.iter().map(|s| (s.log, s.first_seq)).collect();
        assert_eq!(order, vec![(0, 10), (1, 10), (0, 20), (1, 30)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_sweep_removes_only_tmp_files() {
        let dir = std::env::temp_dir()
            .join(format!("speed-segment-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = StdVfs;
        std::fs::write(dir.join("checkpoint.snap.tmp"), b"a").unwrap();
        std::fs::write(dir.join("other.tmp"), b"b").unwrap();
        std::fs::write(dir.join("checkpoint.snap"), b"c").unwrap();
        std::fs::write(dir.join(segment_file_name(0, 1)), b"d").unwrap();
        assert_eq!(sweep_tmp_files(&vfs, &dir), 2);
        assert!(dir.join("checkpoint.snap").exists());
        assert!(dir.join(segment_file_name(0, 1)).exists());
        assert!(!dir.join("checkpoint.snap.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
