//! Append-only campaign journal: checkpoint/resume for `run_campaign_with`.
//!
//! The journal is a JSON-lines file. The first line is a `meta` record
//! fingerprinting the campaign configuration; every subsequent line is
//! either a completed work unit (`unit`, carrying the unit's kernel
//! statistics — the cost model's complete input) or a `quarantine`
//! record for a work unit that panicked or overran its deadline.
//!
//! Two properties make resume byte-identical to an uninterrupted run:
//!
//! * a unit record holds only integers (kernel counters and output byte
//!   counts), so what is read back is exactly what was measured;
//! * the campaign prices every unit through one function with a fixed
//!   f64 operation order and accumulates in a fixed sequential order,
//!   regardless of which units came from the journal and which were
//!   executed.
//!
//! Because the journal holds no priced numbers, it is independent of the
//! platforms being priced: resuming a complete journal under other opt
//! levels executes nothing and only re-prices.
//!
//! A process killed mid-write leaves at most one torn final line;
//! [`load`] tolerates exactly that (the unit is simply re-run on resume)
//! but rejects corruption anywhere else.
//!
//! Appends go through [`lc_chaos::fs::DurableFile`]: each record plus
//! its newline is serialized into one buffer and issued as a single
//! `write_all`, so a crash can tear at most the final record — there is
//! no window where a record is on disk without its terminator (the
//! two-syscall window the original `writeln!` + separate flush had).
//! Durability is governed by a [`SyncPolicy`] (`--fsync`):
//! [`JournalWriter::checkpoint`] is the fsync point for the default
//! `checkpoint` policy.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Mutex;

use lc_chaos::fs::{DurableFile, SyncPolicy};
use lc_json::Value;

/// Journal format version, bumped on any incompatible record change.
/// Version 2 added per-unit timing (`elapsed_ms`, `stage_ms`) to `unit`
/// and `quarantine` records. Version 3 added the `dataset` digest list
/// (and, for shard journals, the `shard` identity) to the meta
/// fingerprint. Version 4 replaced the priced `enc`/`dec`/`comp` rows
/// of a unit record with its `stats` table of kernel counters, dropped
/// the opt levels, platform count and informational `sweep` field from
/// the meta, and records `prune` + `class_map` for every tier. [`load`]
/// refuses any other version.
pub const JOURNAL_VERSION: u64 = 4;

/// Serializer half: appends one complete line per record via a single
/// crash-consistent `write_all`.
pub struct JournalWriter {
    inner: Mutex<DurableFile>,
}

impl JournalWriter {
    /// Start a fresh journal at `path`, writing the `meta` line.
    pub fn create(path: &Path, meta: &Value, policy: SyncPolicy) -> Result<Self, String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
        }
        let file = DurableFile::create(path, policy)
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
        let w = Self {
            inner: Mutex::new(file),
        };
        w.append(meta)?;
        Ok(w)
    }

    /// Reopen an existing journal for appending (resume), discarding
    /// everything past `valid_len` — the validated prefix reported by
    /// [`load`]. Truncation is what keeps a torn tail from a previous
    /// kill from fusing with the first record appended after resume.
    pub fn resume(path: &Path, valid_len: u64, policy: SyncPolicy) -> Result<Self, String> {
        let io = |e: std::io::Error| format!("cannot reposition journal {}: {e}", path.display());
        // Pre-repair pass: clamp to the file's real length (valid_len
        // can exceed it by one when the final good record lost only its
        // newline) and restore that newline so the next append starts on
        // a fresh line.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?;
        let mut len = file.metadata().map_err(io)?.len().min(valid_len);
        file.set_len(len).map_err(io)?;
        if len > 0 {
            file.seek(SeekFrom::End(-1)).map_err(io)?;
            let mut last = [0u8; 1];
            std::io::Read::read_exact(&mut file, &mut last).map_err(io)?;
            if last[0] != b'\n' {
                file.write_all(b"\n").map_err(io)?;
                len += 1;
            }
        }
        drop(file);
        let file = DurableFile::resume(path, len, policy).map_err(io)?;
        Ok(Self {
            inner: Mutex::new(file),
        })
    }

    /// Append one record as a single `record + '\n'` buffer in one
    /// `write_all`: a crash mid-append can only leave a torn tail, never
    /// a record without its terminator followed by another record.
    ///
    /// Callable from multiple pool workers; the mutex keeps lines whole.
    pub fn append(&self, record: &Value) -> Result<(), String> {
        let mut buf = record.dump();
        buf.push('\n');
        self.lock()?
            .append(buf.as_bytes())
            .map_err(|e| format!("journal write failed: {e}"))
    }

    /// Durability barrier (fsync under the `checkpoint`/`always`
    /// policies): called after each completed input file and at campaign
    /// end or interrupt.
    pub fn checkpoint(&self) -> Result<(), String> {
        self.lock()?
            .checkpoint()
            .map_err(|e| format!("journal checkpoint failed: {e}"))
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, DurableFile>, String> {
        self.inner
            .lock()
            .map_err(|_| "journal writer poisoned".to_string())
    }
}

/// Parsed journal contents.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The fingerprint line.
    pub meta: Value,
    /// Completed work-unit records, in file order.
    pub units: Vec<Value>,
    /// Quarantine records, in file order.
    pub quarantined: Vec<Value>,
    /// Byte length of the validated prefix (every good line including its
    /// newline; a torn tail is excluded). Pass to [`JournalWriter::resume`]
    /// so appends start after the last good record.
    pub valid_len: u64,
    /// Bytes of torn tail past the validated prefix (0 for a clean
    /// journal). Nonzero means a previous run died mid-append; resume
    /// reports it as a warning and truncates.
    pub torn_bytes: u64,
}

/// True when the file at `path` contains no complete record at all —
/// it is empty, all blank lines, or a single torn line from a crash
/// during the very first append. Such a journal carries nothing to
/// resume from (not even a fingerprint); the caller starts fresh
/// instead of treating it as corruption.
pub fn effectively_empty(path: &Path) -> Result<bool, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    let text = String::from_utf8_lossy(&bytes);
    Ok(!text
        .lines()
        .any(|l| !l.trim().is_empty() && Value::parse(l).is_ok_and(|v| v.get("kind").is_some())))
}

/// Load and validate a journal file.
///
/// A torn (unparseable or record-less) **final** line is tolerated — it
/// is the expected artifact of a kill mid-append — and simply dropped.
/// Malformed content anywhere else is an error: it means the file is not
/// a journal or was corrupted, and resuming from it would silently lose
/// work units. So is a meta record of any version but
/// [`JOURNAL_VERSION`]: resume, merge and `lc shards` all read through
/// here and refuse it with the same message.
pub fn load(path: &Path) -> Result<LoadedJournal, String> {
    let file =
        File::open(path).map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
    let file_len = file
        .metadata()
        .map_err(|e| format!("cannot stat journal {}: {e}", path.display()))?
        .len();
    let reader = BufReader::new(file);
    let mut lines = Vec::new();
    for (ln, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("journal read failed at line {}: {e}", ln + 1))?;
        lines.push(line);
    }
    let mut records: Vec<Value> = Vec::with_capacity(lines.len());
    let last = lines.len().saturating_sub(1);
    let mut offset = 0u64;
    let mut valid_len = 0u64;
    for (ln, line) in lines.iter().enumerate() {
        let end = offset + line.len() as u64 + 1; // the line plus its '\n'
        if line.trim().is_empty() {
            valid_len = end;
            offset = end;
            continue;
        }
        match Value::parse(line) {
            Ok(v) if v.get("kind").is_some() => {
                records.push(v);
                valid_len = end;
            }
            _ if ln == last => {
                // Torn tail from a kill mid-write: drop it (and leave it
                // out of valid_len), the unit will simply be recomputed.
            }
            _ => {
                return Err(format!(
                    "journal {} is corrupt at line {} (not a record)",
                    path.display(),
                    ln + 1
                ));
            }
        }
        offset = end;
    }
    let mut it = records.into_iter();
    let meta = match it.next() {
        Some(v) if v.get("kind").and_then(Value::as_str) == Some("meta") => v,
        _ => {
            return Err(format!(
                "journal {} does not start with a meta record",
                path.display()
            ));
        }
    };
    match meta.get("journal_version").and_then(Value::as_u64) {
        Some(JOURNAL_VERSION) => {}
        v => {
            return Err(format!(
                "journal {} was written by journal format v{}, which stores priced rows, \
                 not kernel statistics; re-run the campaign",
                path.display(),
                v.map_or_else(|| "?".to_string(), |v| v.to_string())
            ));
        }
    }
    let mut units = Vec::new();
    let mut quarantined = Vec::new();
    for v in it {
        match v.get("kind").and_then(Value::as_str) {
            Some("unit") => units.push(v),
            Some("quarantine") => quarantined.push(v),
            Some(other) => {
                return Err(format!(
                    "journal {} has a record of unknown kind {other:?}",
                    path.display()
                ));
            }
            None => unreachable!("records without kind were filtered above"),
        }
    }
    Ok(LoadedJournal {
        meta,
        units,
        quarantined,
        valid_len,
        torn_bytes: file_len.saturating_sub(valid_len),
    })
}

/// Why the statistics under meta records `a` and `b` must not be mixed,
/// naming the most specific cause first: prune tier, class-map
/// fingerprint, shard identity, dataset digests, then the rest. `None`
/// when the fingerprints match. Resume (a journal against this campaign)
/// and merge (one shard against another) both refuse through here;
/// `names` says what `a` and `b` are, e.g. `["journal j.jsonl", "this
/// campaign"]`.
pub(crate) fn fingerprint_refusal(a: &Value, b: &Value, names: [&str; 2]) -> Option<String> {
    let [na, nb] = names;
    for (field, what) in [
        ("prune", "prune mode"),
        ("class_map", "class-map fingerprint"),
    ] {
        let (x, y) = (a[field].dump(), b[field].dump());
        if x != y {
            return Some(format!(
                "{na} was written under {what} {x} but {nb} uses {y}; pruned cells are \
                 journaled as zeros, so mixing prune modes would corrupt results — \
                 rerun under one mode or start a fresh journal"
            ));
        }
    }
    let shard = |m: &Value| match m.get("shard").and_then(Value::as_str) {
        Some(s) => format!("shard {s}"),
        None => "the whole campaign (no shard)".to_string(),
    };
    if shard(a) != shard(b) {
        return Some(format!(
            "{na} belongs to {} but {nb} is {}; mixing shard identities would skip \
             or duplicate work units — use the matching --shard (or --merge to fuse \
             a complete shard set)",
            shard(a),
            shard(b)
        ));
    }
    let (da, db) = (
        a.get("dataset").and_then(Value::as_array),
        b.get("dataset").and_then(Value::as_array),
    );
    if da != db {
        let detail = first_dataset_difference(da, db)
            .unwrap_or_else(|| "the dataset digest lists differ".to_string());
        return Some(format!(
            "{na} and {nb} were run on different inputs: {detail}; mixing statistics \
             of different input data would produce a silently wrong run.json"
        ));
    }
    (a != b).then(|| {
        format!(
            "{na} and {nb} come from a different campaign configuration (space, files, \
             scale, or verify flag differ); refusing to mix them"
        )
    })
}

/// Name the first differing dataset entry for a refusal message.
fn first_dataset_difference(a: Option<&[Value]>, b: Option<&[Value]>) -> Option<String> {
    let (a, b) = (a?, b?);
    match a.iter().zip(b).find(|(x, y)| x != y) {
        Some((x, y)) => Some(format!(
            "digest mismatch ({} vs {})",
            x.as_str()?,
            y.as_str()?
        )),
        None => (a.len() != b.len())
            .then(|| format!("one set has {} input files, the other {}", a.len(), b.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "lc-journal-test-{}-{tag}.jsonl",
            std::process::id()
        ));
        p
    }

    fn meta() -> Value {
        Value::object([
            ("kind", Value::from("meta")),
            ("journal_version", Value::from(JOURNAL_VERSION)),
        ])
    }

    #[test]
    fn roundtrip_meta_and_units() {
        let path = temp_path("roundtrip");
        let w = JournalWriter::create(&path, &meta(), SyncPolicy::default()).unwrap();
        w.append(&Value::object([
            ("kind", Value::from("unit")),
            ("s1_index", Value::from(3u64)),
            (
                "stats",
                Value::array([Value::from(15u64), Value::from(0u64)]),
            ),
        ]))
        .unwrap();
        w.append(&Value::object([
            ("kind", Value::from("quarantine")),
            ("s1_index", Value::from(4u64)),
        ]))
        .unwrap();
        drop(w);
        let j = load(&path).unwrap();
        assert_eq!(j.meta.get("kind").and_then(Value::as_str), Some("meta"));
        assert_eq!(j.units.len(), 1);
        assert_eq!(j.quarantined.len(), 1);
        assert_eq!(j.units[0]["stats"][0].as_u64(), Some(15));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let path = temp_path("torn");
        let w = JournalWriter::create(&path, &meta(), SyncPolicy::default()).unwrap();
        w.append(&Value::object([
            ("kind", Value::from("unit")),
            ("s1_index", Value::from(0u64)),
        ]))
        .unwrap();
        drop(w);
        // Simulate a kill mid-append: half a JSON object, no newline.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"kind\":\"unit\",\"s1_i").unwrap();
        drop(f);
        let j = load(&path).unwrap();
        assert_eq!(j.units.len(), 1, "torn tail dropped, prior unit kept");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_before_the_tail_is_rejected() {
        let path = temp_path("midcorrupt");
        std::fs::write(&path, "{\"kind\":\"meta\"}\nGARBAGE\n{\"kind\":\"unit\"}\n").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_meta_is_rejected() {
        let path = temp_path("nometa");
        std::fs::write(&path, "{\"kind\":\"unit\"}\n").unwrap();
        assert!(load(&path).unwrap_err().contains("meta"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_appends_after_existing_records() {
        let path = temp_path("reopen");
        let w = JournalWriter::create(&path, &meta(), SyncPolicy::default()).unwrap();
        w.append(&Value::object([
            ("kind", Value::from("unit")),
            ("n", Value::from(1u64)),
        ]))
        .unwrap();
        drop(w);
        let j = load(&path).unwrap();
        let w = JournalWriter::resume(&path, j.valid_len, SyncPolicy::default()).unwrap();
        w.append(&Value::object([
            ("kind", Value::from("unit")),
            ("n", Value::from(2u64)),
        ]))
        .unwrap();
        drop(w);
        let j = load(&path).unwrap();
        assert_eq!(j.units.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_truncates_a_torn_tail_before_appending() {
        let path = temp_path("torn-resume");
        let w = JournalWriter::create(&path, &meta(), SyncPolicy::default()).unwrap();
        w.append(&Value::object([
            ("kind", Value::from("unit")),
            ("n", Value::from(1u64)),
        ]))
        .unwrap();
        drop(w);
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"kind\":\"unit\",\"n\":2").unwrap();
        drop(f);
        // Resume must not fuse the next record onto the torn line.
        let j = load(&path).unwrap();
        let w = JournalWriter::resume(&path, j.valid_len, SyncPolicy::default()).unwrap();
        w.append(&Value::object([
            ("kind", Value::from("unit")),
            ("n", Value::from(3u64)),
        ]))
        .unwrap();
        drop(w);
        let j = load(&path).unwrap();
        assert_eq!(j.units.len(), 2);
        assert_eq!(j.units[1]["n"].as_u64(), Some(3));
        std::fs::remove_file(&path).ok();
    }
}
