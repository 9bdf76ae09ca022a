//! Checkpoints: whole-state snapshots written next to the log.
//!
//! A checkpoint file `checkpoint-<seq>.ltc` holds the service state,
//! as `ltc-snapshot v3` text, after every operation below sequence
//! number `seq` — so recovery restores it and replays only the log
//! records stamped `seq` and above. Files are written to a temporary
//! name and renamed into place, so a crash mid-checkpoint leaves at
//! most a stray `*.tmp` that the loader ignores; the previous
//! checkpoint stays intact and recovery simply replays a longer suffix.
//!
//! [`load_latest`] walks the checkpoints newest-first and takes the
//! first one that decodes, skipping damaged ones — a half-written or
//! bit-rotted newest checkpoint costs replay time, never correctness.

use crate::{wal, DurableError};
use ltc_core::service::ServiceSnapshot;
use ltc_core::snapshot::{read_snapshot, write_snapshot, SNAPSHOT_HEADER};
use std::fs::{self, File};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};

/// The path a checkpoint covering `seq` is written to. The sequence is
/// zero-padded so lexicographic directory order is sequence order.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:020}.ltc"))
}

/// Writes a checkpoint atomically (temp file, fsync, rename, directory
/// fsync) and returns its final path.
pub fn write_checkpoint(
    dir: &Path,
    seq: u64,
    snapshot: &ServiceSnapshot,
) -> Result<PathBuf, DurableError> {
    let mut text = Vec::new();
    write_snapshot(snapshot, &mut text)?;
    let path = checkpoint_path(dir, seq);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, &text)?;
    File::open(&tmp)?.sync_all()?;
    fs::rename(&tmp, &path)?;
    wal::sync_dir(dir);
    Ok(path)
}

/// Lists `(seq, path)` for every checkpoint file in the directory, in
/// ascending sequence order. Purely name-based; contents are validated
/// by [`load_latest`].
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ltc"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((seq, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Loads one checkpoint file. The read is capped at
/// [`wal::MAX_RECORD`] × 64 bytes so a garbage file cannot balloon
/// memory — far above any real snapshot, far below pathology.
pub fn load_checkpoint(path: &Path) -> Result<ServiceSnapshot, DurableError> {
    const MAX_CHECKPOINT: u64 = wal::MAX_RECORD as u64 * 64;
    let mut bytes = Vec::new();
    File::open(path)?
        .take(MAX_CHECKPOINT + 1)
        .read_to_end(&mut bytes)?;
    if bytes.len() as u64 > MAX_CHECKPOINT {
        return Err(DurableError::Corrupt {
            path: path.to_path_buf(),
            what: format!("checkpoint exceeds the {MAX_CHECKPOINT}-byte cap"),
        });
    }
    let corrupt = |what: String| DurableError::Corrupt {
        path: path.to_path_buf(),
        what,
    };
    let text =
        std::str::from_utf8(&bytes).map_err(|_| corrupt("checkpoint is not UTF-8".into()))?;
    if !text.starts_with(SNAPSHOT_HEADER) {
        let header = text.lines().next().unwrap_or_default();
        if header.starts_with("ltc-snapshot v") {
            return Err(DurableError::UnsupportedCheckpoint {
                path: path.to_path_buf(),
                header: header.to_string(),
            });
        }
        return Err(corrupt(format!(
            "checkpoint does not open with \"{SNAPSHOT_HEADER}\""
        )));
    }
    read_snapshot(BufReader::new(text.as_bytes()))
        .map_err(|e| corrupt(format!("undecodable snapshot: {e}")))
}

/// Restores the newest checkpoint that actually decodes, returning its
/// covered sequence number, its snapshot, and how many newer-but-broken
/// checkpoints were skipped on the way down. `Ok(None)` means the
/// directory holds no readable checkpoint at all. A checkpoint in
/// another snapshot format version is not broken, and is not skipped:
/// it fails the load ([`DurableError::UnsupportedCheckpoint`]).
#[allow(clippy::type_complexity)]
pub fn load_latest(dir: &Path) -> Result<Option<(u64, ServiceSnapshot, u64)>, DurableError> {
    let mut skipped = 0;
    for (seq, path) in list_checkpoints(dir)?.into_iter().rev() {
        match load_checkpoint(&path) {
            Ok(snapshot) => return Ok(Some((seq, snapshot, skipped))),
            Err(e @ (DurableError::Io(_) | DurableError::UnsupportedCheckpoint { .. })) => {
                return Err(e)
            }
            Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

/// Deletes every checkpoint strictly older than `keep_seq`. Called
/// after a new checkpoint lands; the newest stays, history goes.
pub fn compact_checkpoints(dir: &Path, keep_seq: u64) -> Result<u64, DurableError> {
    let mut removed = 0;
    for (seq, path) in list_checkpoints(dir)? {
        if seq < keep_seq {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    if removed > 0 {
        wal::sync_dir(dir);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_core::model::ProblemParams;
    use ltc_core::service::ServiceBuilder;
    use ltc_spatial::{BoundingBox, Point};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltc-ckpt-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_snapshot() -> ServiceSnapshot {
        let params = ProblemParams::builder()
            .epsilon(0.3)
            .capacity(1)
            .build()
            .unwrap();
        let region = BoundingBox::new(Point::ORIGIN, Point::new(50.0, 50.0));
        let mut handle = ServiceBuilder::new(params, region).start().unwrap();
        handle
            .post_task(ltc_core::model::Task::new(Point::new(10.0, 10.0)))
            .unwrap();
        let snap = handle.snapshot().unwrap();
        handle.close().unwrap();
        snap
    }

    fn text_of(snap: &ServiceSnapshot) -> String {
        let mut out = Vec::new();
        ltc_core::snapshot::write_snapshot(snap, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn checkpoints_round_trip_and_newest_valid_wins() {
        let dir = temp_dir("roundtrip");
        let snap = sample_snapshot();
        write_checkpoint(&dir, 0, &snap).unwrap();
        write_checkpoint(&dir, 7, &snap).unwrap();
        // A newer checkpoint that is pure garbage must be skipped.
        fs::write(checkpoint_path(&dir, 9), "garbage").unwrap();

        let (seq, loaded, skipped) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(seq, 7);
        assert_eq!(skipped, 1);
        assert_eq!(text_of(&loaded), text_of(&snap));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_checkpoint_of_another_format_version_fails_the_load_untouched() {
        let dir = temp_dir("version");
        let snap = sample_snapshot();
        write_checkpoint(&dir, 0, &snap).unwrap();
        // A v1 or v2 checkpoint (v1 held the assignment log, v2 every
        // task ever posted) is not damage to skip past: the older,
        // readable checkpoint must not be used.
        for old in ["ltc-snapshot v1", "ltc-snapshot v2"] {
            let text = text_of(&snap).replacen(SNAPSHOT_HEADER, old, 1);
            fs::write(checkpoint_path(&dir, 5), &text).unwrap();
            let err = load_latest(&dir).unwrap_err();
            assert!(
                matches!(&err, DurableError::UnsupportedCheckpoint { header, .. } if header == old),
                "{err:?}"
            );
            assert!(err.to_string().contains(&format!("`{old}`")), "{err}");
            assert_eq!(fs::read_to_string(checkpoint_path(&dir, 5)).unwrap(), text);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_keeps_the_covering_checkpoint() {
        let dir = temp_dir("compact");
        let snap = sample_snapshot();
        for seq in [0, 3, 9] {
            write_checkpoint(&dir, seq, &snap).unwrap();
        }
        assert_eq!(compact_checkpoints(&dir, 9).unwrap(), 2);
        let left = list_checkpoints(&dir).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].0, 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stray_tmp_file_is_invisible_to_the_loader() {
        let dir = temp_dir("tmp");
        let snap = sample_snapshot();
        write_checkpoint(&dir, 4, &snap).unwrap();
        fs::write(
            dir.join("checkpoint-00000000000000000009.tmp"),
            "half-written",
        )
        .unwrap();
        let (seq, _, skipped) = load_latest(&dir).unwrap().unwrap();
        assert_eq!((seq, skipped), (4, 0));
        fs::remove_dir_all(&dir).unwrap();
    }
}
