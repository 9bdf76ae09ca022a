//! The `ltc-wal v2` write-ahead event log.
//!
//! A log is a directory of numbered *segments* (`wal-00000000.log`,
//! `wal-00000001.log`, …). Each segment is NDJSON — one record per
//! line, `\n`-delimited, at most [`MAX_RECORD`] bytes — opening with a
//! header line that names the format and anchors the segment in the
//! global sequence:
//!
//! ```text
//! {"wal":"ltc-wal","v":2,"segment":3,"base_seq":8192}
//! ```
//!
//! Every state-changing session operation becomes one record, stamped
//! with the next sequence number and sealed with a CRC-32 of its own
//! bytes. Floats cross into the log as 16-digit hex bit patterns — the
//! same discipline as the `ltc-proto` wire format, reusing its codec —
//! so replay is bit-exact:
//!
//! ```text
//! {"seq":0,"op":"submit","x":"4049000000000000","y":"4049000000000000","acc":"3feccccccccccccd","crc":"c4763cc0"}
//! {"seq":1,"op":"post","x":"4024000000000000","y":"4034000000000000","crc":"f50b04f7"}
//! {"seq":2,"op":"rebalance","crc":"9e37983e"}
//! ```
//!
//! The `crc` member is always the record's final member: it covers the
//! line with the member itself spliced out (everything before
//! `,"crc":…` plus the closing `}`), so verification needs no
//! re-encoding. A missing or mismatched `crc` on an *interior* record is
//! corruption (bit rot that JSON parsing alone would miss — a flipped
//! hex digit still parses, but replays different bits); on the final
//! record of the final segment it is a torn tail, repaired by
//! truncation like any other tear.
//!
//! Sequence numbers are contiguous across segments: segment `n + 1`
//! begins at exactly the sequence after segment `n`'s last record.
//! Segments rotate at checkpoints, so "every segment below the current
//! one is covered by the newest checkpoint" holds by construction and
//! compaction is plain file deletion.
//!
//! ## Crash anatomy
//!
//! [`WalWriter::append`] encodes each record *before* the operation is
//! applied; how far it travels before `append` returns is the
//! [`SyncPolicy`]'s call. `Always` and `Every(n)` hand every record to
//! the kernel synchronously, so a process crash (`kill -9`) loses
//! nothing acknowledged; `Os` buffers in user space and reaches the
//! kernel at the session's quiesce points (drain, snapshot,
//! checkpoint, shutdown), trading a bounded loss window between
//! quiesce points for a syscall-free hot path. Host power loss can
//! additionally lose the unfsynced tail under any policy, and either
//! way the log ends in a clean prefix plus at most one torn final
//! record. [`scan`] detects that torn tail — a final line with no
//! terminating newline, or one that no longer parses, in the *last*
//! segment only — and reports it for truncation; the same damage
//! anywhere else is corruption and refuses to load. The tear can even
//! land inside a just-rotated segment's *header* (rotation writes the
//! header before fsyncing it): such a segment never durably began, so
//! it is reported as a tear with `valid_len == 0` and repaired by
//! deleting the file.

use crate::DurableError;
use ltc_core::hex;
use ltc_core::model::{Task, Worker};
use ltc_proto::json::{self, Json};
use ltc_proto::wire;
use ltc_spatial::Point;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Format name in every segment header.
pub const WAL_NAME: &str = "ltc-wal";

/// Format version of every segment header, written and read (`v2`:
/// every record seals itself with a [`crc32`] member). Segments headed
/// with any other version refuse to load.
pub const WAL_VERSION: u64 = 2;

/// Upper bound on one log line, delimiter included — the same cap as an
/// `ltc-proto v1` frame, enforced *while reading* so a hostile or
/// garbage segment cannot balloon memory.
pub const MAX_RECORD: usize = 1 << 26;

/// How eagerly appended records are forced toward stable storage. Two
/// thresholds matter: reaching the *kernel* (survives a process crash,
/// `kill -9` included) and reaching the *platter* via `fsync` (survives
/// host power loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Kernel handoff and `fsync` after every record. Maximum
    /// durability, maximum cost.
    Always,
    /// Kernel handoff after every record, `fsync` after every `n`
    /// (`n ≥ 1`; `0` behaves as `1`). A process crash loses nothing; a
    /// power cut loses at most the last `n` records.
    Every(u64),
    /// Buffer in user space and let the session's own quiesce points —
    /// [`sync`](WalWriter::sync), called by drain, checkpoint, and
    /// shutdown — push to the kernel (a full buffer flushes early).
    /// The cheapest policy: the hot path makes no syscall at all. A
    /// crash between quiesce points can lose the buffered tail; every
    /// record acknowledged *and drained* is still crash-safe.
    Os,
}

/// One logged session operation. The record is written *before* the
/// operation is applied; replay re-issues it through the ordinary
/// session API, where a deterministic rejection replays as the same
/// rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A worker check-in ([`Session::submit_worker`]).
    ///
    /// [`Session::submit_worker`]: ltc_core::service::Session::submit_worker
    Submit {
        /// The checked-in worker.
        worker: Worker,
    },
    /// A task post, with its accuracy row when the caller supplied one
    /// ([`Session::post_task`] / [`post_task_with_accuracies`]).
    ///
    /// [`Session::post_task`]: ltc_core::service::Session::post_task
    /// [`post_task_with_accuracies`]: ltc_core::service::Session::post_task_with_accuracies
    Post {
        /// The posted task.
        task: Task,
        /// The `Acc(w, t)` row for table-model sessions.
        row: Option<Vec<f64>>,
    },
    /// A shard-stripe rebalance ([`Session::rebalance`]). Logged even
    /// when nothing moves: the decision to *consider* moving is part of
    /// the deterministic operation sequence.
    ///
    /// [`Session::rebalance`]: ltc_core::service::Session::rebalance
    Rebalance,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.log"))
}

/// The reflected CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) lookup
/// table, built at compile time — the offline build has no checksum
/// crate, and 256 entries buy byte-at-a-time throughput on the append
/// hot path.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = crc;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The CRC-32 (IEEE) of `bytes` — what a `v2` record's `crc` member
/// stores, computed over the record line with the member itself
/// spliced out.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Byte length of the `,"crc":"xxxxxxxx"}` suffix closing every `v2`
/// record line.
const CRC_SUFFIX_LEN: usize = 18;

/// Seals an encoded record (a complete `{…}` line) with its `crc`
/// member: pops the closing brace, appends `,"crc":"<8 hex>"}` where
/// the checksum covers the original line bytes.
fn push_record_crc(out: &mut Vec<u8>, body_start: usize) {
    let crc = crc32(&out[body_start..]);
    debug_assert_eq!(out.last(), Some(&b'}'));
    out.pop();
    out.extend_from_slice(b",\"crc\":\"");
    out.extend_from_slice(&hex::u32_digits(crc));
    out.extend_from_slice(b"\"}");
}

/// Checks a record line's `crc` seal without decoding it. The
/// member is always the line's final member, so the covered bytes are
/// everything before the suffix plus the closing brace.
fn verify_record_crc(line: &str) -> Result<(), String> {
    let bytes = line.as_bytes();
    if bytes.len() < CRC_SUFFIX_LEN {
        return Err("record is missing its \"crc\" seal".into());
    }
    let (covered, suffix) = bytes.split_at(bytes.len() - CRC_SUFFIX_LEN);
    if !suffix.starts_with(b",\"crc\":\"") || !suffix.ends_with(b"\"}") {
        return Err("record is missing its \"crc\" seal".into());
    }
    // Eight hex digits always fit a `u32`.
    let stored = hex::parse_hex(&suffix[8..16])
        .map(|crc| crc as u32)
        .ok_or("record carries an unparsable \"crc\"")?;
    let actual = !crc32_update(crc32_update(!0, covered), b"}");
    if stored != actual {
        return Err(format!(
            "crc mismatch: record stores {stored:08x}, its bytes hash to {actual:08x}"
        ));
    }
    Ok(())
}

fn header_line(segment: u64, base_seq: u64) -> String {
    format!("{{\"wal\":\"{WAL_NAME}\",\"v\":{WAL_VERSION},\"segment\":{segment},\"base_seq\":{base_seq}}}")
}

/// Encodes one record as its NDJSON line, without the trailing `\n`.
pub fn encode_record(seq: u64, record: &WalRecord) -> String {
    let mut out = Vec::with_capacity(128);
    encode_record_into(&mut out, seq, record);
    String::from_utf8(out).expect("records are ASCII")
}

/// [`encode_record`] into a caller-owned buffer — the hot-path form
/// ([`WalWriter::append`] reuses one buffer so steady-state logging
/// allocates nothing).
fn encode_record_into(out: &mut Vec<u8>, seq: u64, record: &WalRecord) {
    let body_start = out.len();
    out.extend_from_slice(b"{\"seq\":");
    json::push_u64(out, seq);
    match record {
        WalRecord::Submit { worker } => {
            out.extend_from_slice(b",\"op\":\"submit\",\"x\":\"");
            out.extend_from_slice(&hex::f64_digits(worker.loc.x));
            out.extend_from_slice(b"\",\"y\":\"");
            out.extend_from_slice(&hex::f64_digits(worker.loc.y));
            out.extend_from_slice(b"\",\"acc\":\"");
            out.extend_from_slice(&hex::f64_digits(worker.accuracy));
            out.extend_from_slice(b"\"}");
        }
        WalRecord::Post { task, row } => {
            out.extend_from_slice(b",\"op\":\"post\",\"x\":\"");
            out.extend_from_slice(&hex::f64_digits(task.loc.x));
            out.extend_from_slice(b"\",\"y\":\"");
            out.extend_from_slice(&hex::f64_digits(task.loc.y));
            out.push(b'"');
            if let Some(row) = row {
                out.extend_from_slice(b",\"row\":[");
                for (i, acc) in row.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    out.push(b'"');
                    out.extend_from_slice(&hex::f64_digits(*acc));
                    out.push(b'"');
                }
                out.push(b']');
            }
            out.push(b'}');
        }
        WalRecord::Rebalance => {
            out.extend_from_slice(b",\"op\":\"rebalance\"}");
        }
    }
    push_record_crc(out, body_start);
}

/// Decodes one NDJSON record line into its sequence number and
/// operation. Unknown `op` values are an error: a record the reader
/// cannot replay is a record it must not skip.
pub fn decode_record(line: &str) -> Result<(u64, WalRecord), String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let seq = v
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("record is missing \"seq\"")?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("record is missing \"op\"")?;
    let record = match op {
        "submit" => WalRecord::Submit {
            worker: Worker::new(
                Point::new(wire::unhex("x", v.get("x"))?, wire::unhex("y", v.get("y"))?),
                wire::unhex("acc", v.get("acc"))?,
            ),
        },
        "post" => {
            let task = Task::new(Point::new(
                wire::unhex("x", v.get("x"))?,
                wire::unhex("y", v.get("y"))?,
            ));
            let row = match v.get("row") {
                None => None,
                Some(row) => {
                    let items = row.as_arr().ok_or("\"row\" must be an array")?;
                    let mut accs = Vec::with_capacity(items.len());
                    for item in items {
                        accs.push(wire::unhex("row", Some(item))?);
                    }
                    Some(accs)
                }
            };
            WalRecord::Post { task, row }
        }
        "rebalance" => WalRecord::Rebalance,
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok((seq, record))
}

/// Flushes directory metadata so a just-created or just-renamed file
/// survives power loss. Best-effort: some filesystems refuse to fsync
/// a directory handle, and a refusal only weakens power-loss coverage,
/// never process-crash coverage.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        handle.sync_all().ok();
    }
}

/// The append side of the log. One writer owns the directory's current
/// segment; [`append`](WalWriter::append) stamps sequence numbers,
/// [`rotate`](WalWriter::rotate) starts a fresh segment at a
/// checkpoint, and [`compact`](WalWriter::compact) deletes the covered
/// ones.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    file: io::BufWriter<File>,
    segment: u64,
    next_seq: u64,
    sync: SyncPolicy,
    unsynced: u64,
    line: Vec<u8>,
}

impl WalWriter {
    /// Starts a brand-new segment `index` whose first record will carry
    /// sequence number `base_seq`. Refuses to overwrite an existing
    /// segment file.
    pub fn new_segment(
        dir: &Path,
        index: u64,
        base_seq: u64,
        sync: SyncPolicy,
    ) -> io::Result<Self> {
        let path = segment_path(dir, index);
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(header_line(index, base_seq).as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        sync_dir(dir);
        Ok(Self {
            dir: dir.to_path_buf(),
            file: io::BufWriter::new(file),
            segment: index,
            next_seq: base_seq,
            sync,
            unsynced: 0,
            line: Vec::with_capacity(256),
        })
    }

    /// The sequence number the next appended record will carry — also
    /// the count of records ever logged, since sequences start at 0 and
    /// never skip.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The index of the segment currently being appended to.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// Appends one record and returns the sequence number it was
    /// stamped with. How far the line travels before this returns —
    /// user-space buffer, kernel, platter — is the [`SyncPolicy`]'s
    /// call; see its variants for the exact ladder.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let seq = self.next_seq;
        self.line.clear();
        encode_record_into(&mut self.line, seq, record);
        self.line.push(b'\n');
        self.file.write_all(&self.line)?;
        self.next_seq += 1;
        self.unsynced += 1;
        match self.sync {
            SyncPolicy::Always => {
                self.file.flush()?;
                self.file.get_ref().sync_data()?;
                self.unsynced = 0;
            }
            SyncPolicy::Every(n) => {
                self.file.flush()?;
                if self.unsynced >= n.max(1) {
                    self.file.get_ref().sync_data()?;
                    self.unsynced = 0;
                }
            }
            SyncPolicy::Os => {}
        }
        Ok(seq)
    }

    /// Pushes every buffered record to the kernel without forcing an
    /// fsync. After this, no *process* crash can lose an appended
    /// record; power loss still can, which is exactly the trade the
    /// [`SyncPolicy::Os`] caller signed up for. The session's quiesce
    /// points (drain, snapshot) call this.
    pub fn handoff(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    /// Forces everything appended so far to stable storage, whatever
    /// the policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Seals the current segment (with a final fsync) and starts the
    /// next one. The new segment's `base_seq` is exactly
    /// [`next_seq`](WalWriter::next_seq), keeping the global sequence
    /// contiguous.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let next = WalWriter::new_segment(&self.dir, self.segment + 1, self.next_seq, self.sync)?;
        *self = next;
        Ok(())
    }

    /// Deletes every segment below the current one and returns how many
    /// were removed. Sound only when the newest checkpoint covers the
    /// current segment's `base_seq` — which the checkpoint flow
    /// guarantees by rotating first.
    pub fn compact(&mut self) -> io::Result<u64> {
        let mut removed = 0;
        for info in list_segments(&self.dir).map_err(io::Error::other)? {
            if info.index < self.segment {
                fs::remove_file(&info.path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            sync_dir(&self.dir);
        }
        Ok(removed)
    }
}

/// One segment file found on disk, identified by its validated header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment index (from the filename, confirmed by the header).
    pub index: u64,
    /// Sequence number of the segment's first record.
    pub base_seq: u64,
    /// Path to the segment file.
    pub path: PathBuf,
}

/// Reads one `\n`-terminated line of at most [`MAX_RECORD`] bytes.
/// Returns the line without its delimiter, whether the delimiter was
/// present, and the bytes consumed (delimiter included).
fn read_record_line<R: BufRead>(reader: &mut R) -> io::Result<Option<(String, bool, u64)>> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_RECORD as u64)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    let terminated = buf.last() == Some(&b'\n');
    if !terminated && n >= MAX_RECORD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("log record exceeds the {MAX_RECORD}-byte cap"),
        ));
    }
    if terminated {
        buf.pop();
    }
    let line = String::from_utf8(buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "log record is not UTF-8"))?;
    Ok(Some((line, terminated, n as u64)))
}

/// Segment files present in the directory, by name only, in index
/// order. Headers are *not* validated here.
fn segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurableError> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((index, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Reads and validates one segment header. `Ok(None)` means the header
/// is *physically* torn — file empty, line unterminated, or not JSON —
/// and the caller opted into leniency (a crash can tear the header of
/// a just-rotated final segment, in which case no record ever followed
/// it); with `lenient` false the same damage is a hard error.
/// Semantic problems (wrong version, index mismatch) are hard errors
/// regardless: they mean someone else's data, which repair must never
/// delete.
fn read_header(
    path: &Path,
    index: u64,
    lenient: bool,
) -> Result<Option<(SegmentInfo, u64)>, DurableError> {
    let corrupt = |what: String| DurableError::Corrupt {
        path: path.to_path_buf(),
        what,
    };
    let mut reader = BufReader::new(File::open(path)?);
    let physically_torn = |what: String| {
        if lenient {
            Ok(None)
        } else {
            Err(corrupt(what))
        }
    };
    let Some((line, terminated, consumed)) = read_record_line(&mut reader)? else {
        return physically_torn("empty segment (missing header)".into());
    };
    if !terminated {
        return physically_torn("unterminated header line".into());
    }
    let header = match json::parse(&line) {
        Ok(header) => header,
        Err(e) => return physically_torn(format!("bad header: {e}")),
    };
    match (
        header.get("wal").and_then(Json::as_str),
        header.get("v").and_then(Json::as_u64),
    ) {
        (Some(WAL_NAME), Some(WAL_VERSION)) => {}
        (Some(WAL_NAME), Some(ver)) => {
            return Err(corrupt(format!("unsupported {WAL_NAME} version {ver}")))
        }
        _ => return Err(corrupt("header does not announce ltc-wal".into())),
    }
    let header_index = header
        .get("segment")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("header is missing \"segment\"".into()))?;
    if header_index != index {
        return Err(corrupt(format!(
            "filename says segment {index}, header says {header_index}"
        )));
    }
    let base_seq = header
        .get("base_seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("header is missing \"base_seq\"".into()))?;
    Ok(Some((
        SegmentInfo {
            index,
            base_seq,
            path: path.to_path_buf(),
        },
        consumed,
    )))
}

/// Lists the directory's segments in index order, validating each
/// header as it goes (name/version match, filename agrees with the
/// header's own segment index).
pub fn list_segments(dir: &Path) -> Result<Vec<SegmentInfo>, DurableError> {
    let mut segments = Vec::new();
    for (index, path) in segment_files(dir)? {
        let (info, _) = read_header(&path, index, false)?.expect("strict mode never yields None");
        segments.push(info);
    }
    Ok(segments)
}

/// Everything [`scan`] learned about the log.
#[derive(Debug)]
pub struct LogScan {
    /// Every surviving record, in sequence order.
    pub records: Vec<(u64, WalRecord)>,
    /// The sequence number the next appended record must carry. Only
    /// meaningful when [`segments`](LogScan::segments) is non-empty —
    /// if even the final segment's *header* was torn away, the log's
    /// position is whatever the newest checkpoint says.
    pub next_seq: u64,
    /// The segments whose headers were readable, in index order.
    pub segments: Vec<SegmentInfo>,
    /// The index a resuming writer's *next* segment should use: past
    /// every surviving file, reusing a fully-torn one's slot.
    pub next_segment: u64,
    /// A torn final record, if the log ends mid-write: the file to
    /// repair, the length of its valid prefix, and the bytes beyond it.
    /// `valid_len == 0` means the final segment's header itself was
    /// torn and [`repair`] deletes the file outright.
    pub torn: Option<TornTail>,
}

/// A detected torn tail — the one kind of damage recovery repairs
/// rather than refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The final segment, where the tear necessarily lives.
    pub path: PathBuf,
    /// File length up to and including the last intact record.
    pub valid_len: u64,
    /// Bytes past the valid prefix that truncation will drop.
    pub torn_bytes: u64,
}

/// Reads every record in the log, in order, verifying the global
/// sequence is contiguous from the first surviving segment's
/// `base_seq`. Damage on the *final* line of the *final* segment — no
/// terminating newline, a line that does not parse, or a wrong
/// sequence stamp — is reported as a [`TornTail`] (and the records
/// before it still returned); the same damage anywhere else is a
/// [`DurableError::Corrupt`].
pub fn scan(dir: &Path) -> Result<LogScan, DurableError> {
    let files = segment_files(dir)?;
    if files.is_empty() {
        return Err(DurableError::NotInitialized(dir.to_path_buf()));
    }
    for pair in files.windows(2) {
        if pair[1].0 != pair[0].0 + 1 {
            return Err(DurableError::Corrupt {
                path: dir.to_path_buf(),
                what: format!(
                    "segment numbering jumps from {} to {}",
                    pair[0].0, pair[1].0
                ),
            });
        }
    }
    let mut records = Vec::new();
    let mut segments: Vec<SegmentInfo> = Vec::with_capacity(files.len());
    let mut next_seq = 0;
    let mut next_segment = 0;
    let mut torn = None;
    let n_files = files.len();
    for (i, (index, path)) in files.into_iter().enumerate() {
        let is_last = i + 1 == n_files;
        let Some((info, header_len)) = read_header(&path, index, is_last)? else {
            // The final segment's header itself is torn: the segment
            // never durably began, so it holds no records and repair
            // deletes it whole. Its index slot is free to reuse.
            torn = Some(TornTail {
                path: path.clone(),
                valid_len: 0,
                torn_bytes: fs::metadata(&path)?.len(),
            });
            next_segment = index;
            break;
        };
        next_segment = index + 1;
        if segments.is_empty() {
            next_seq = info.base_seq;
        } else if info.base_seq != next_seq {
            return Err(DurableError::Corrupt {
                path: info.path.clone(),
                what: format!(
                    "segment declares base_seq {}, but the log reaches it at {next_seq}",
                    info.base_seq
                ),
            });
        }
        segments.push(info.clone());
        let corrupt = |what: String| DurableError::Corrupt {
            path: info.path.clone(),
            what,
        };
        let mut reader = BufReader::new(File::open(&info.path)?);
        let skipped_header = read_record_line(&mut reader)?;
        debug_assert_eq!(skipped_header.map(|h| h.2), Some(header_len));
        let mut offset = header_len;
        while let Some((line, terminated, consumed)) = read_record_line(&mut reader)? {
            let parsed = if terminated {
                verify_record_crc(&line).and_then(|()| decode_record(&line))
            } else {
                Err("no terminating newline".into())
            };
            match parsed {
                Ok((seq, record)) if seq == next_seq => {
                    records.push((seq, record));
                    next_seq += 1;
                    offset += consumed;
                }
                Ok(_) if is_last && reader.fill_buf()?.is_empty() => {
                    // A complete final line stamped with the wrong
                    // sequence: a torn rewrite, not interior damage.
                    torn = Some(TornTail {
                        path: info.path.clone(),
                        valid_len: offset,
                        torn_bytes: consumed,
                    });
                    break;
                }
                Ok((seq, _)) => {
                    return Err(corrupt(format!(
                        "record stamped seq {seq} where {next_seq} was required"
                    )));
                }
                Err(_) if is_last && reader.fill_buf()?.is_empty() => {
                    torn = Some(TornTail {
                        path: info.path.clone(),
                        valid_len: offset,
                        torn_bytes: consumed,
                    });
                    break;
                }
                Err(what) => {
                    return Err(corrupt(format!("undecodable record: {what}")));
                }
            }
        }
    }
    Ok(LogScan {
        records,
        next_seq,
        segments,
        next_segment,
        torn,
    })
}

/// Truncates a torn tail off its segment, making the log end at the
/// last intact record. A tail with `valid_len == 0` is a segment whose
/// *header* was torn — it never held a record, so the whole file goes.
/// Idempotent: re-running on an already-repaired log finds no tear to
/// repair.
pub fn repair(torn: &TornTail) -> io::Result<()> {
    if torn.valid_len == 0 {
        fs::remove_file(&torn.path)?;
        if let Some(dir) = torn.path.parent() {
            sync_dir(dir);
        }
        return Ok(());
    }
    let file = OpenOptions::new().write(true).open(&torn.path)?;
    file.set_len(torn.valid_len)?;
    file.sync_data()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ltc-wal-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Submit {
                worker: Worker::new(Point::new(12.5, -3.75), 0.9),
            },
            WalRecord::Post {
                task: Task::new(Point::new(f64::MIN_POSITIVE, 1e300)),
                row: None,
            },
            WalRecord::Post {
                task: Task::new(Point::new(0.0, -0.0)),
                row: Some(vec![0.5, 1.0, f64::NAN]),
            },
            WalRecord::Rebalance,
        ]
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for (i, record) in sample_records().into_iter().enumerate() {
            let line = encode_record(i as u64, &record);
            let (seq, back) = decode_record(&line).unwrap();
            assert_eq!(seq, i as u64);
            // NaN breaks PartialEq; compare through the encoding, which
            // is the bit pattern.
            assert_eq!(line, encode_record(seq, &back));
        }
    }

    #[test]
    fn append_scan_round_trips_across_rotation() {
        let dir = temp_dir("rotate");
        let mut w = WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Every(2)).unwrap();
        let records = sample_records();
        for r in &records[..2] {
            w.append(r).unwrap();
        }
        w.rotate().unwrap();
        for r in &records[2..] {
            w.append(r).unwrap();
        }
        assert_eq!(w.next_seq(), 4);
        assert_eq!(w.segment(), 1);

        let log = scan(&dir).unwrap();
        assert_eq!(log.next_seq, 4);
        assert!(log.torn.is_none());
        assert_eq!(log.segments.len(), 2);
        assert_eq!(log.segments[1].base_seq, 2);
        for (i, (seq, r)) in log.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(
                encode_record(*seq, r),
                encode_record(*seq, &records[i]),
                "record {i} changed across the log round trip"
            );
        }

        assert_eq!(w.compact().unwrap(), 1);
        let log = scan(&dir).unwrap();
        assert_eq!(log.segments.len(), 1);
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[0].0, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_tail_is_detected_and_repaired_never_misparsed() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Os).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 0);
        let intact = fs::read(&path).unwrap();

        // Chop the file at every possible byte length; every prefix
        // must either scan clean or scan as torn — never as corrupt,
        // and never misparse the tail into a wrong record.
        let header_len = intact.iter().position(|&b| b == b'\n').unwrap() + 1;
        for cut in header_len..=intact.len() {
            fs::write(&path, &intact[..cut]).unwrap();
            let log = scan(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            let clean: u64 = intact[header_len..cut]
                .iter()
                .filter(|&&b| b == b'\n')
                .count() as u64;
            assert_eq!(log.next_seq, clean, "cut at {cut}");
            match &log.torn {
                Some(tail) => {
                    assert_eq!(tail.torn_bytes as usize + tail.valid_len as usize, cut);
                    repair(tail).unwrap();
                    let repaired = scan(&dir).unwrap();
                    assert!(repaired.torn.is_none());
                    assert_eq!(repaired.next_seq, clean);
                }
                None => assert!(
                    cut == intact.len() || intact[cut - 1] == b'\n',
                    "cut at {cut} should have torn"
                ),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_final_segment_header_deletes_the_file_on_repair() {
        let dir = temp_dir("torn-header");
        let mut w = WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Os).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.rotate().unwrap();
        drop(w);
        let tail_path = segment_path(&dir, 1);
        let header = fs::read(&tail_path).unwrap();

        // Chop the fresh segment inside its header at every length,
        // including zero. Each cut must scan as a whole-file tear that
        // repair resolves by deleting the segment, leaving segment 0's
        // records intact and the torn index slot free for reuse.
        for cut in 0..header.len() {
            fs::write(&tail_path, &header[..cut]).unwrap();
            let log = scan(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(log.records.len(), 4, "cut at {cut}");
            assert_eq!(log.next_seq, 4, "cut at {cut}");
            assert_eq!(log.next_segment, 1, "cut at {cut}");
            let tail = log.torn.as_ref().unwrap_or_else(|| {
                panic!("cut at {cut} must be a torn header");
            });
            assert_eq!(tail.valid_len, 0);
            assert_eq!(tail.torn_bytes as usize, cut);
            repair(tail).unwrap();
            let repaired = scan(&dir).unwrap();
            assert!(repaired.torn.is_none());
            assert_eq!(repaired.next_seq, 4);
            assert_eq!(repaired.next_segment, 1);
        }

        // A torn header on a *sole* segment deletes the whole log;
        // recovery then trusts the newest checkpoint for its position.
        fs::write(&tail_path, &header).unwrap();
        fs::remove_file(segment_path(&dir, 0)).unwrap();
        fs::write(&tail_path, &header[..header.len() - 1]).unwrap();
        let log = scan(&dir).unwrap();
        assert!(log.segments.is_empty());
        assert_eq!(log.next_segment, 1);
        repair(log.torn.as_ref().unwrap()).unwrap();
        match scan(&dir) {
            Err(DurableError::NotInitialized(_)) => {}
            other => panic!("an emptied log directory is uninitialized, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_damage_is_corruption_not_a_torn_tail() {
        let dir = temp_dir("interior");
        let mut w = WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Os).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte inside the *second* record (not the last line).
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let second_start = header_len
            + bytes[header_len..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap()
            + 1;
        bytes[second_start + 2] = b'#';
        fs::write(&path, &bytes).unwrap();
        match scan(&dir) {
            Err(DurableError::Corrupt { .. }) => {}
            other => panic!("interior damage must refuse to load, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_discontinuities_between_segments_refuse_to_load() {
        let dir = temp_dir("gap");
        let mut w = WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Os).unwrap();
        w.append(&WalRecord::Rebalance).unwrap();
        drop(w);
        // Forge segment 1 claiming a base_seq the log never reaches.
        let mut w = WalWriter::new_segment(&dir, 1, 5, SyncPolicy::Os).unwrap();
        w.append(&WalRecord::Rebalance).unwrap();
        drop(w);
        match scan(&dir) {
            Err(DurableError::Corrupt { .. }) => {}
            other => panic!("a sequence gap must refuse to load, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        // The canonical CRC-32 check value: crc32(b"123456789").
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_carries_a_valid_final_crc_member() {
        for (i, record) in sample_records().into_iter().enumerate() {
            let line = encode_record(i as u64, &record);
            verify_record_crc(&line).unwrap();
            let stripped = strip_crc(&line);
            assert!(
                !stripped.contains("crc"),
                "crc must be the line's final member"
            );
            assert!(verify_record_crc(&stripped).is_err());
        }
    }

    #[test]
    fn a_signed_crc_seal_is_refused() {
        // `from_str_radix` reads `+` plus seven digits as the same value
        // as `0` plus those seven, so a seal whose crc starts with `0`
        // would verify with its first digit replaced by `+`.
        let record = &sample_records()[0];
        let line = (0u64..)
            .map(|seq| encode_record(seq, record))
            .find(|line| line.as_bytes()[line.len() - 10] == b'0')
            .expect("one crc in sixteen starts with a zero digit");
        verify_record_crc(&line).unwrap();
        let at = line.len() - 10;
        let signed = format!("{}+{}", &line[..at], &line[at + 1..]);
        let err = verify_record_crc(&signed).expect_err("a signed crc must be refused");
        assert!(err.contains("unparsable"), "{err}");
    }

    /// The record line with its `crc` suffix spliced out.
    fn strip_crc(line: &str) -> String {
        assert!(line.len() > CRC_SUFFIX_LEN && line.ends_with("\"}"));
        format!("{}}}", &line[..line.len() - CRC_SUFFIX_LEN])
    }

    #[test]
    fn v1_segments_and_crcless_records_refuse_to_load() {
        let dir = temp_dir("v1");
        let records = sample_records();
        let mut w = WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Os).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 0);
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();

        // A crc-less interior record is corruption.
        let sealed = lines[1].clone();
        lines[1] = strip_crc(&sealed);
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        match scan(&dir) {
            Err(DurableError::Corrupt { what, .. }) => assert!(what.contains("crc")),
            other => panic!("a record without a crc must refuse to load, got {other:?}"),
        }

        // A segment headed `"v":1` (checksum-less records) is refused
        // whole, and neither scanning nor listing touches the file.
        lines[1] = sealed;
        lines[0] = lines[0].replace("\"v\":2", "\"v\":1");
        let v1 = format!("{}\n", lines.join("\n"));
        fs::write(&path, &v1).unwrap();
        for refused in [scan(&dir).map(|_| ()), list_segments(&dir).map(|_| ())] {
            match refused {
                Err(DurableError::Corrupt { what, .. }) => {
                    assert!(
                        what.contains("unsupported ltc-wal version 1"),
                        "got: {what}"
                    )
                }
                other => panic!("a v1 segment must refuse to load, got {other:?}"),
            }
        }
        assert_eq!(fs::read_to_string(&path).unwrap(), v1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_bit_rot_that_still_parses_is_caught_by_the_crc() {
        let dir = temp_dir("bitrot");
        let mut w = WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Os).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload hex digit in the *first* record: the line
        // still parses as JSON with the right seq, so only the crc can
        // tell.
        let x_pos = bytes
            .windows(5)
            .position(|w| w == b"\"x\":\"")
            .map(|p| p + 5)
            .unwrap();
        bytes[x_pos] = if bytes[x_pos] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &bytes).unwrap();
        match scan(&dir) {
            Err(DurableError::Corrupt { what, .. }) => {
                assert!(what.contains("crc mismatch"), "got: {what}")
            }
            other => panic!("interior bit rot must refuse to load, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_on_the_final_line_crc_is_a_repairable_tear() {
        let dir = temp_dir("tail-crc");
        let mut w = WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Os).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        drop(w);
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        // Corrupt a crc hex digit on the *final* record: damage on the
        // last line is indistinguishable from a torn write, so it must
        // repair, not refuse.
        let flip = bytes.len() - 5;
        bytes[flip] = if bytes[flip] == b'0' { b'1' } else { b'0' };
        fs::write(&path, &bytes).unwrap();
        let log = scan(&dir).unwrap();
        assert_eq!(log.next_seq, 3);
        let tail = log.torn.expect("a final-line crc failure is a tear");
        repair(&tail).unwrap();
        let repaired = scan(&dir).unwrap();
        assert!(repaired.torn.is_none());
        assert_eq!(repaired.next_seq, 3);
        assert_eq!(repaired.records.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_records_are_rejected_while_reading() {
        let dir = temp_dir("oversized");
        drop(WalWriter::new_segment(&dir, 0, 0, SyncPolicy::Os).unwrap());
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend(vec![b'x'; MAX_RECORD + 10]);
        fs::write(&path, &bytes).unwrap();
        assert!(scan(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
