//! Deterministic sharding of the campaign work-unit space, plus the
//! byte-identical merge of shard journals back into one campaign
//! journal.
//!
//! # Partition
//!
//! The campaign's unit of crash-consistent progress is the work unit
//! `(file_index, s1_index)` — one input file crossed with one
//! first-stage component, covering every `(s2, s3)` cell in its rows.
//! Sharding assigns units round-robin by their global index:
//!
//! ```text
//! unit(file_i, i1) = file_i * nc + i1        (nc = component count)
//! shard K of N owns unit u  ⇔  u % N == K    (0-based K internally)
//! ```
//!
//! Three properties fall out by construction:
//!
//! * **Disjoint + complete** — `u % N` is a partition of the integers,
//!   so the union of N shards is the full space and no unit appears in
//!   two shards.
//! * **Prune-stable** — every prune tier (`--prune exact|canonical`)
//!   skips *cells inside* a unit through the one skip table, never unit
//!   membership, so the same shard owns the same units under every
//!   tier. (Pruned cells are journaled as zeros, exactly as in the
//!   single-process run.)
//! * **Balanced** — round-robin interleaves files across shards, so a
//!   slow file's 62 units spread over all shards instead of landing on
//!   one.
//!
//! # Merge
//!
//! Each shard writes an independent journal (`journal.K-of-N.jsonl`)
//! whose meta line carries a `"shard": "K/N"` field on top of the usual
//! fingerprint. [`merge_shards`] fuses a complete shard set into one
//! `journal.jsonl` with the `shard` field removed and units sorted in
//! the campaign's canonical `(file_index, s1_index)` order; resuming
//! from the merged journal then executes nothing and — because the
//! journal stores integer kernel statistics and the campaign prices and
//! accumulates them in a fixed order — produces a `run.json`
//! byte-identical to the single-process sweep.
//!
//! The merge *refuses* (structured error, nothing written) any set of
//! journals that could silently produce a wrong run: missing or
//! extra shards, mismatched prune mode or class-map fingerprint,
//! different dataset digests (shards run on different inputs), a unit
//! recorded in a shard that does not own it, or any other fingerprint
//! disagreement.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use lc_chaos::fs::{atomic_write, SyncPolicy};
use lc_json::Value;

use crate::journal;

/// Upper bound on shard count: far above any plausible host fan-out,
/// low enough that a typo (`--shard 1/1000000`) fails fast instead of
/// creating a million-file merge obligation.
pub const MAX_SHARDS: usize = 1024;

/// One shard's identity within an N-way campaign partition.
///
/// CLI syntax is 1-based (`--shard 2/4` is the second of four);
/// internally `index` is 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 0-based shard index, `< count`.
    pub index: usize,
    /// Total shard count, `>= 1`.
    pub count: usize,
}

impl ShardSpec {
    /// Parse the CLI form `K/N` (1-based K). Errors are full sentences
    /// suitable for a structured `error: kind=shard` line.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("invalid shard spec {s:?}: expected K/N, e.g. 2/4"))?;
        let k: usize = k
            .trim()
            .parse()
            .map_err(|_| format!("invalid shard index in {s:?}: expected an integer"))?;
        let n: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("invalid shard count in {s:?}: expected an integer"))?;
        if n == 0 || n > MAX_SHARDS {
            return Err(format!(
                "shard count {n} out of range: expected 1..={MAX_SHARDS}"
            ));
        }
        if k == 0 || k > n {
            return Err(format!(
                "shard index {k} out of range for {n} shards: expected 1..={n}"
            ));
        }
        Ok(Self {
            index: k - 1,
            count: n,
        })
    }

    /// Filesystem-safe label, 1-based: `"2-of-4"`.
    pub fn label(&self) -> String {
        format!("{}-of-{}", self.index + 1, self.count)
    }

    /// Journal-meta label, 1-based: `"2/4"` (matches the CLI form).
    pub fn meta_label(&self) -> String {
        format!("{}/{}", self.index + 1, self.count)
    }

    /// This shard's journal file name inside the output directory.
    pub fn journal_file(&self) -> String {
        format!("journal.{}.jsonl", self.label())
    }

    /// This shard's lock file name (see `LockFile::acquire_named`):
    /// shards sharing one output directory must not false-conflict.
    pub fn lock_name(&self) -> String {
        format!("{}.{}", lc_chaos::fs::LockFile::NAME, self.label())
    }

    /// Whether this shard owns global work-unit index `unit`.
    pub fn owns(&self, unit: usize) -> bool {
        unit % self.count == self.index
    }
}

/// The global work-unit index sharding partitions on.
pub fn unit_index(file_i: usize, i1: usize, nc: usize) -> usize {
    file_i * nc + i1
}

/// Summary of a completed merge, for operator output.
#[derive(Debug)]
pub struct MergeReport {
    /// Shard count N (all N journals were present and consistent).
    pub shards: usize,
    /// Completed work units carried into the merged journal.
    pub units: usize,
    /// Quarantine records carried into the merged journal.
    pub quarantined: usize,
    /// Total torn-tail bytes dropped across shard journals. Nonzero is
    /// not an error — the affected units simply re-run on resume.
    pub torn_bytes: u64,
}

/// Find every shard journal (`journal.K-of-N.jsonl`) in `dir` and
/// return them sorted by shard index, refusing inconsistent or
/// incomplete sets.
pub fn discover_shards(dir: &Path) -> Result<Vec<(ShardSpec, PathBuf)>, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read output directory {}: {e}", dir.display()))?;
    let mut found: Vec<(ShardSpec, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read directory entry: {e}"))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(spec) = parse_journal_name(name) else {
            continue;
        };
        found.push((spec, entry.path()));
    }
    if found.is_empty() {
        return Err(format!(
            "no shard journals (journal.K-of-N.jsonl) found in {}",
            dir.display()
        ));
    }
    let n = found[0].0.count;
    if let Some((bad, _)) = found.iter().find(|(s, _)| s.count != n) {
        return Err(format!(
            "inconsistent shard counts in {}: found both {}-way and {}-way journals; \
             merge one campaign at a time",
            dir.display(),
            n,
            bad.count
        ));
    }
    found.sort_by_key(|(s, _)| s.index);
    let present: HashSet<usize> = found.iter().map(|(s, _)| s.index).collect();
    let missing: Vec<String> = (0..n)
        .filter(|i| !present.contains(i))
        .map(|i| format!("{}-of-{n}", i + 1))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "incomplete shard set in {}: missing {} of {n} shard journals ({})",
            dir.display(),
            missing.len(),
            missing.join(", ")
        ));
    }
    Ok(found)
}

/// Parse `journal.K-of-N.jsonl` into a [`ShardSpec`]; `None` for any
/// other file name.
fn parse_journal_name(name: &str) -> Option<ShardSpec> {
    let middle = name.strip_prefix("journal.")?.strip_suffix(".jsonl")?;
    let (k, n) = middle.split_once("-of-")?;
    let spec = ShardSpec::parse(&format!("{k}/{n}")).ok()?;
    // Round-trip guard: reject zero-padded or otherwise non-canonical
    // spellings so one shard cannot appear under two names.
    (spec.journal_file() == name).then_some(spec)
}

/// The meta without its shard field: what shard journals must agree on,
/// and exactly the single-process meta line the merge writes.
fn strip_shard(meta: &Value) -> Value {
    match meta {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k.as_str() != "shard")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

fn meta_str<'a>(meta: &'a Value, key: &str) -> Option<&'a str> {
    meta.get(key).and_then(Value::as_str)
}

/// Component count `nc` recovered from the meta `"space"` field
/// (`"comp1,comp2,…|red1,…"`): ownership validation needs it to map a
/// journaled `(file_index, s1_index)` back to its global unit index.
fn component_count(meta: &Value) -> Result<usize, String> {
    let space = meta_str(meta, "space").ok_or("shard journal meta missing space")?;
    let comps = space.split('|').next().unwrap_or("");
    let nc = comps.split(',').filter(|s| !s.is_empty()).count();
    if nc == 0 {
        return Err(format!("unparseable space field {space:?} in shard meta"));
    }
    Ok(nc)
}

/// Fuse a complete, consistent shard set in `dir` into `merged`
/// (atomically written), or refuse with a structured error naming the
/// first inconsistency. On success the merged journal is exactly what a
/// single-process campaign would have journaled for the same completed
/// units: meta without the shard field, units in canonical order.
pub fn merge_shards(dir: &Path, merged: &Path) -> Result<MergeReport, String> {
    let shards = discover_shards(dir)?;
    let n = shards[0].0.count;

    let mut loaded = Vec::with_capacity(shards.len());
    for (spec, path) in &shards {
        if journal::effectively_empty(path).unwrap_or(false) {
            return Err(format!(
                "shard {} journal {} has no complete records (the shard never \
                 started); run it before merging",
                spec.label(),
                path.display()
            ));
        }
        let j = journal::load(path)
            .map_err(|e| format!("shard {} journal unreadable: {e}", spec.label()))?;
        // Self-consistency: the meta must agree with the file name it
        // lives under, otherwise a renamed journal could smuggle a
        // foreign shard's units into the wrong slots.
        match meta_str(&j.meta, "shard") {
            Some(label) if label == spec.meta_label() => {}
            Some(label) => {
                return Err(format!(
                    "shard journal {} claims to be shard {label} in its meta; \
                     the file was renamed or the set was assembled from \
                     different campaigns",
                    path.display()
                ));
            }
            None => {
                return Err(format!(
                    "shard journal {} has no shard field in its meta (it is a \
                     whole-campaign journal, not a shard)",
                    path.display()
                ));
            }
        }
        loaded.push((*spec, j));
    }

    // Cross-shard fingerprint agreement, most-specific check first so
    // the error names the actual operational mistake.
    let (ref_spec, ref_j) = (&loaded[0].0, &loaded[0].1);
    for (spec, j) in &loaded[1..] {
        for (field, what) in [
            ("prune", "prune mode"),
            ("class_map", "class-map fingerprint"),
        ] {
            let (a, b) = (&ref_j.meta[field], &j.meta[field]);
            if a != b {
                return Err(format!(
                    "shard {} and shard {} were run under different {what} \
                     ({} vs {}); their unit records are not comparable — \
                     re-run the shards under one mode",
                    ref_spec.label(),
                    spec.label(),
                    a.dump(),
                    b.dump(),
                ));
            }
        }
        let da = ref_j.meta.get("dataset").and_then(Value::as_array);
        let db = j.meta.get("dataset").and_then(Value::as_array);
        if da != db {
            let detail = first_dataset_difference(da, db)
                .unwrap_or_else(|| "different dataset digest lists".to_string());
            return Err(format!(
                "shard {} and shard {} were run on different inputs: {detail}; \
                 merging them would produce a silently wrong run.json",
                ref_spec.label(),
                spec.label(),
            ));
        }
        if strip_shard(&ref_j.meta) != strip_shard(&j.meta) {
            return Err(format!(
                "shard {} and shard {} have incompatible campaign fingerprints \
                 (space, files, scale, or verify flag differ); merge refuses \
                 mixed campaigns",
                ref_spec.label(),
                spec.label(),
            ));
        }
    }

    let nc = component_count(&ref_j.meta)?;

    // Collect units, validating ownership and uniqueness.
    let mut units: Vec<((usize, usize), Value)> = Vec::new();
    let mut quarantined: Vec<((usize, usize), Value)> = Vec::new();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut torn_bytes = 0u64;
    for (spec, j) in &loaded {
        torn_bytes += j.torn_bytes;
        for (kind, records, out) in [
            ("unit", &j.units, &mut units),
            ("quarantine", &j.quarantined, &mut quarantined),
        ] {
            for v in records {
                let key = record_key(v)
                    .ok_or_else(|| format!("malformed {kind} record in shard {}", spec.label()))?;
                if !spec.owns(unit_index(key.0, key.1, nc)) {
                    return Err(format!(
                        "shard {} journal contains unit (file {}, s1 {}) which \
                         it does not own; the journal was corrupted or \
                         hand-edited",
                        spec.label(),
                        key.0,
                        key.1
                    ));
                }
                if !seen.insert(key) {
                    return Err(format!(
                        "unit (file {}, s1 {}) appears more than once across \
                         shard journals; refusing to guess which record wins",
                        key.0, key.1
                    ));
                }
                out.push((key, v.clone()));
            }
        }
    }
    units.sort_by_key(|(k, _)| *k);
    quarantined.sort_by_key(|(k, _)| *k);

    // The merged journal is byte-for-byte what the single-process
    // campaign's writer emits: one dumped record per line.
    let mut buf = String::new();
    buf.push_str(&strip_shard(&ref_j.meta).dump());
    buf.push('\n');
    for (_, v) in &units {
        buf.push_str(&v.dump());
        buf.push('\n');
    }
    for (_, v) in &quarantined {
        buf.push_str(&v.dump());
        buf.push('\n');
    }
    atomic_write(merged, buf.as_bytes(), SyncPolicy::Checkpoint)
        .map_err(|e| format!("cannot write merged journal {}: {e}", merged.display()))?;

    Ok(MergeReport {
        shards: n,
        units: units.len(),
        quarantined: quarantined.len(),
        torn_bytes,
    })
}

fn record_key(v: &Value) -> Option<(usize, usize)> {
    let f = v.get("file_index").and_then(Value::as_u64)? as usize;
    let i1 = v.get("s1_index").and_then(Value::as_u64)? as usize;
    Some((f, i1))
}

/// Name the first differing dataset entry for the refusal message.
/// Shared with the campaign's resume path, which makes the same check
/// against its freshly computed meta.
pub(crate) fn first_dataset_difference(a: Option<&[Value]>, b: Option<&[Value]>) -> Option<String> {
    let (a, b) = (a?, b?);
    for (x, y) in a.iter().zip(b.iter()) {
        let (x, y) = (x.as_str()?, y.as_str()?);
        if x != y {
            return Some(format!("digest mismatch ({x} vs {y})"));
        }
    }
    if a.len() != b.len() {
        return Some(format!(
            "one set has {} input files, the other {}",
            a.len(),
            b.len()
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_one_based_and_rejects_junk() {
        let s = ShardSpec::parse("2/4").unwrap();
        assert_eq!((s.index, s.count), (1, 4));
        assert_eq!(s.label(), "2-of-4");
        assert_eq!(s.meta_label(), "2/4");
        assert_eq!(s.journal_file(), "journal.2-of-4.jsonl");
        assert_eq!(s.lock_name(), ".campaign.lock.2-of-4");
        for bad in ["0/4", "5/4", "1/0", "x/4", "4", "1/9999999", ""] {
            assert!(ShardSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn ownership_partitions_every_unit_space() {
        for n in [1usize, 2, 3, 4, 7] {
            let shards: Vec<ShardSpec> =
                (0..n).map(|index| ShardSpec { index, count: n }).collect();
            for unit in 0..500 {
                let owners = shards.iter().filter(|s| s.owns(unit)).count();
                assert_eq!(owners, 1, "unit {unit} owned by {owners} of {n} shards");
            }
        }
    }

    #[test]
    fn journal_name_round_trips_and_rejects_non_canonical() {
        let spec = ShardSpec::parse("3/8").unwrap();
        assert_eq!(parse_journal_name(&spec.journal_file()), Some(spec));
        for bad in [
            "journal.jsonl",
            "journal.03-of-8.jsonl",
            "journal.3-of-8.jsonl.bak",
            "journal.3of8.jsonl",
            "run.json",
        ] {
            assert_eq!(parse_journal_name(bad), None, "accepted {bad:?}");
        }
    }
}
