//! Always-on flight recorder: a fixed-capacity lock-free record of the
//! most recent spans and lifecycle notes, dumpable as a JSONL "black
//! box" at any moment — including from a panic hook or on the exit path
//! of a hard abort — without stopping or coordinating with writers.
//!
//! # Design
//!
//! Each thread records into its **own** ring buffer, so the write path
//! is single-producer and entirely lock-free: no CAS loops, no shared
//! write cursor, no contention between pool workers. Rings are
//! registered in a global list (kept alive after their thread exits) so
//! a dump can merge every thread's recent history by timestamp.
//!
//! Each slot is guarded by a per-slot **sequence word** (a seqlock):
//! the writer stores an odd value before touching the payload fields
//! and the even successor after, with release/acquire fences pairing
//! the two sides. A reader that observes the same even sequence before
//! and after its payload loads knows it saw one committed record; any
//! concurrent overwrite changes the sequence and the reader discards
//! the slot. All payload fields are plain relaxed atomics, so a torn
//! read is *detected*, never undefined behavior.
//!
//! String fields (span name, category, argument keys — all `&'static
//! str` in this crate's event model) are stored as indices into a
//! process-global intern table, with a thread-local cache so steady
//! state interning takes no lock. An index that a discarded slot would
//! have produced is bounds-checked at dump time; it can never
//! dereference garbage.
//!
//! # Lifecycle
//!
//! [`arm`] switches the recorder on (it is one mode bit in the same
//! bitmask the span macros already load). From then on every dropped
//! span is recorded, as are explicit [`note`]s (drain transitions, hard
//! aborts, final accounting). [`dump_jsonl`] renders a merged snapshot;
//! [`dump_to`] publishes it atomically (temp file + rename) so a crash
//! mid-dump can never leave a torn black box; [`dump_on_panic`]
//! installs a chained panic hook that writes the dump before the
//! process dies.

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

use crate::{ArgValue, Event};

/// Default per-thread ring capacity (slots), used when [`arm`] is given 0.
pub(crate) const DEFAULT_CAPACITY: usize = 2048;

/// Slots-per-ring for rings created after [`arm`]; 0 until armed.
static CAPACITY: AtomicUsize = AtomicUsize::new(0);

// ---------------------------------------------------------------------------
// Interning: &'static str → small index, resolved back at dump time.
// ---------------------------------------------------------------------------

struct InternTable {
    names: Vec<&'static str>,
    /// Keyed by the string's (address, length): `&'static str`s are
    /// never deallocated, so the address is a stable identity.
    by_key: HashMap<(usize, usize), u64>,
}

fn intern_table() -> &'static Mutex<InternTable> {
    static TABLE: OnceLock<Mutex<InternTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Mutex::new(InternTable {
            names: Vec::new(),
            by_key: HashMap::new(),
        })
    })
}

thread_local! {
    /// Per-thread intern cache: steady-state interning is one HashMap
    /// probe, no global lock.
    static INTERN_CACHE: RefCell<HashMap<(usize, usize), u64>> = RefCell::new(HashMap::new());
}

/// Intern a static string, returning its 1-based index (0 = absent).
fn intern(s: &'static str) -> u64 {
    let key = (s.as_ptr() as usize, s.len());
    let cached = INTERN_CACHE
        .try_with(|c| c.borrow().get(&key).copied())
        .ok()
        .flatten();
    if let Some(idx) = cached {
        return idx;
    }
    let mut table = intern_table().lock().unwrap_or_else(|p| p.into_inner());
    let idx = match table.by_key.get(&key) {
        Some(&idx) => idx,
        None => {
            table.names.push(s);
            let idx = table.names.len() as u64; // 1-based
            table.by_key.insert(key, idx);
            idx
        }
    };
    drop(table);
    let _ = INTERN_CACHE.try_with(|c| {
        c.borrow_mut().insert(key, idx);
    });
    idx
}

fn resolve_names(indices: &[u64]) -> Vec<Option<&'static str>> {
    let table = intern_table().lock().unwrap_or_else(|p| p.into_inner());
    indices
        .iter()
        .map(|&idx| {
            if idx == 0 {
                None
            } else {
                table.names.get(idx as usize - 1).copied()
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Per-thread seqlock rings.
// ---------------------------------------------------------------------------

/// One ring slot. `seq` is 0 when never written, odd while the owner
/// thread is writing, and `2·(n+1)` once record number `n` is
/// committed. All payload fields are relaxed atomics: the seqlock
/// protocol detects torn reads, the atomics keep them defined.
struct Slot {
    seq: AtomicU64,
    ts_ns: AtomicU64,
    dur_ns: AtomicU64,
    req: AtomicU64,
    cat_idx: AtomicU64,
    name_idx: AtomicU64,
    k0_idx: AtomicU64,
    v0: AtomicU64,
    k1_idx: AtomicU64,
    v1: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            req: AtomicU64::new(0),
            cat_idx: AtomicU64::new(0),
            name_idx: AtomicU64::new(0),
            k0_idx: AtomicU64::new(0),
            v0: AtomicU64::new(0),
            k1_idx: AtomicU64::new(0),
            v1: AtomicU64::new(0),
        }
    }
}

/// Payload of one record, pre-interned.
struct Raw {
    ts_ns: u64,
    dur_ns: u64,
    req: u64,
    cat_idx: u64,
    name_idx: u64,
    k0_idx: u64,
    v0: u64,
    k1_idx: u64,
    v1: u64,
}

struct Ring {
    tid: u64,
    /// Power of two.
    cap: usize,
    /// Next record number to write (monotonic; record `n` lives in slot
    /// `n % cap` until overwritten by record `n + cap`).
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64, cap: usize) -> Ring {
        Ring {
            tid,
            cap,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::empty()).collect(),
        }
    }

    /// Single-writer record append (only the owning thread calls this).
    fn write(&self, r: &Raw) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n as usize) & (self.cap - 1)];
        // Seqlock write side: odd marks the slot in-progress. The release
        // fence orders the odd store before the payload stores as seen
        // through any reader's acquire fence, so a reader that observed
        // payload from this write cannot still read the old sequence.
        slot.seq.store(2 * n + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.ts_ns.store(r.ts_ns, Ordering::Relaxed);
        slot.dur_ns.store(r.dur_ns, Ordering::Relaxed);
        slot.req.store(r.req, Ordering::Relaxed);
        slot.cat_idx.store(r.cat_idx, Ordering::Relaxed);
        slot.name_idx.store(r.name_idx, Ordering::Relaxed);
        slot.k0_idx.store(r.k0_idx, Ordering::Relaxed);
        slot.v0.store(r.v0, Ordering::Relaxed);
        slot.k1_idx.store(r.k1_idx, Ordering::Relaxed);
        slot.v1.store(r.v1, Ordering::Relaxed);
        // Commit: even sequence, release-paired with readers' initial
        // acquire load.
        slot.seq.store(2 * n + 2, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
    }

    /// Seqlock read side: returns the committed record in `slot_idx`, or
    /// `None` if the slot is empty, mid-write, or was overwritten while
    /// being read.
    fn read_slot(&self, slot_idx: usize) -> Option<(u64, Raw)> {
        let slot = &self.slots[slot_idx];
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let raw = Raw {
            ts_ns: slot.ts_ns.load(Ordering::Relaxed),
            dur_ns: slot.dur_ns.load(Ordering::Relaxed),
            req: slot.req.load(Ordering::Relaxed),
            cat_idx: slot.cat_idx.load(Ordering::Relaxed),
            name_idx: slot.name_idx.load(Ordering::Relaxed),
            k0_idx: slot.k0_idx.load(Ordering::Relaxed),
            v0: slot.v0.load(Ordering::Relaxed),
            k1_idx: slot.k1_idx.load(Ordering::Relaxed),
            v1: slot.v1.load(Ordering::Relaxed),
        };
        // Acquire fence pairs with the writer's release fence: if any
        // payload load above saw a later write, the re-read below sees
        // that write's odd sequence and the record is discarded.
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s1 != s2 {
            return None;
        }
        Some((s1 / 2 - 1, raw))
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

fn with_ring(f: impl FnOnce(&Ring)) {
    // `try_with` so a record attempted during TLS teardown is silently
    // dropped instead of panicking.
    let _ = MY_RING.try_with(|cell| {
        let ring = cell.get_or_init(|| {
            let cap = CAPACITY.load(Ordering::Relaxed).max(64).next_power_of_two();
            let ring = Arc::new(Ring::new(crate::thread_id(), cap));
            rings()
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

/// Arm the flight recorder with `capacity` slots per thread (0 picks
/// [`DEFAULT_CAPACITY`]; values round up to a power of two). Rings
/// created before re-arming keep their original capacity.
pub fn arm(capacity: usize) {
    let cap = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity.max(64).next_power_of_two()
    };
    CAPACITY.store(cap, Ordering::Relaxed);
    crate::set_flight(true);
}

/// Whether the recorder is armed. One relaxed atomic load.
#[inline(always)]
pub fn armed() -> bool {
    crate::flight_bit()
}

/// Stop recording (already-captured history stays dumpable).
pub fn disarm() {
    crate::set_flight(false);
}

fn arg_as_u64(v: &ArgValue) -> Option<u64> {
    match v {
        ArgValue::U64(x) => Some(*x),
        ArgValue::Bool(b) => Some(*b as u64),
        ArgValue::F64(_) | ArgValue::Str(_) => None,
    }
}

/// Record one completed event (span drops route here via
/// [`crate::emit`] when armed). The first two integer-valued arguments
/// are kept; string/float arguments are dropped — the flight recorder
/// trades fidelity for a guaranteed-bounded, allocation-free record.
pub(crate) fn record_event(event: &Event) {
    if !armed() {
        return;
    }
    let mut keys = [0u64; 2];
    let mut vals = [0u64; 2];
    let mut n = 0;
    for (k, v) in &event.args {
        if n == 2 {
            break;
        }
        if *k == "req" {
            continue; // carried in the dedicated req field
        }
        if let Some(x) = arg_as_u64(v) {
            keys[n] = intern(k);
            vals[n] = x;
            n += 1;
        }
    }
    let raw = Raw {
        ts_ns: event.ts_ns,
        dur_ns: event.dur_ns,
        req: crate::current_request(),
        cat_idx: intern(event.cat),
        name_idx: intern(event.name),
        k0_idx: keys[0],
        v0: vals[0],
        k1_idx: keys[1],
        v1: vals[1],
    };
    with_ring(|ring| ring.write(&raw));
}

/// Record an instant lifecycle note (category `"note"`): drain
/// transitions, hard aborts, final accounting. Up to two key/value
/// pairs are kept. No-op when the recorder is not armed.
pub fn note(name: &'static str, args: &[(&'static str, u64)]) {
    if !armed() {
        return;
    }
    let mut keys = [0u64; 2];
    let mut vals = [0u64; 2];
    for (i, (k, v)) in args.iter().take(2).enumerate() {
        keys[i] = intern(k);
        vals[i] = *v;
    }
    let raw = Raw {
        ts_ns: crate::now_ns(),
        dur_ns: 0,
        req: crate::current_request(),
        cat_idx: intern("note"),
        name_idx: intern(name),
        k0_idx: keys[0],
        v0: vals[0],
        k1_idx: keys[1],
        v1: vals[1],
    };
    with_ring(|ring| ring.write(&raw));
}

/// One record recovered from a flight-recorder snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Per-thread record number (monotonic within `tid`).
    pub seq: u64,
    /// Start, nanoseconds since the process telemetry epoch.
    pub ts_ns: u64,
    /// Duration (0 for notes).
    pub dur_ns: u64,
    /// Telemetry thread id of the recording thread.
    pub tid: u64,
    /// Request id the recording thread was scoped to (0 = none).
    pub req: u64,
    /// Category (`"note"` for lifecycle notes).
    pub cat: &'static str,
    /// Record name.
    pub name: &'static str,
    /// Up to two integer arguments.
    pub args: Vec<(&'static str, u64)>,
}

/// Accounting for one snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotStats {
    /// Records recovered into the snapshot.
    pub recovered: u64,
    /// Records ever written across all rings.
    pub written: u64,
    /// Records lost to ring wraparound (overwritten before the dump).
    pub overwritten: u64,
    /// Slots skipped because a writer was mid-record during the read.
    pub torn: u64,
}

/// Read every ring without stopping writers and return the merged
/// records sorted by `(ts_ns, tid, seq)`, plus accounting for what the
/// fixed capacity dropped.
pub fn snapshot() -> (Vec<FlightRecord>, SnapshotStats) {
    let rings: Vec<Arc<Ring>> = rings()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .cloned()
        .collect();
    let mut stats = SnapshotStats::default();
    let mut raws: Vec<(u64, u64, Raw)> = Vec::new(); // (tid, seq, payload)
    for ring in &rings {
        let head = ring.head.load(Ordering::Acquire);
        stats.written += head;
        stats.overwritten += head.saturating_sub(ring.cap as u64);
        let live = head.min(ring.cap as u64) as usize;
        let first = head.saturating_sub(ring.cap as u64);
        for slot_idx in 0..ring.cap {
            match ring.read_slot(slot_idx) {
                Some((seq, raw)) if seq >= first => raws.push((ring.tid, seq, raw)),
                Some(_) => {} // stale record already counted overwritten
                None => {
                    // Empty slots in a not-yet-full ring are expected;
                    // only count torn reads where a record should be.
                    if slot_idx < live {
                        stats.torn += 1;
                    }
                }
            }
        }
    }
    let mut indices = Vec::with_capacity(raws.len() * 4);
    for (_, _, raw) in &raws {
        indices.extend_from_slice(&[raw.cat_idx, raw.name_idx, raw.k0_idx, raw.k1_idx]);
    }
    let resolved = resolve_names(&indices);
    let mut records: Vec<FlightRecord> = raws
        .iter()
        .enumerate()
        .map(|(i, (tid, seq, raw))| {
            let name_of = |j: usize| resolved[i * 4 + j].unwrap_or("?");
            let mut args = Vec::new();
            if raw.k0_idx != 0 {
                args.push((name_of(2), raw.v0));
            }
            if raw.k1_idx != 0 {
                args.push((name_of(3), raw.v1));
            }
            FlightRecord {
                seq: *seq,
                ts_ns: raw.ts_ns,
                dur_ns: raw.dur_ns,
                tid: *tid,
                req: raw.req,
                cat: name_of(0),
                name: name_of(1),
                args,
            }
        })
        .collect();
    records.sort_by_key(|r| (r.ts_ns, r.tid, r.seq));
    stats.recovered = records.len() as u64;
    (records, stats)
}

/// Render a snapshot as JSONL: one meta line (`lc-flight/v1` schema,
/// snapshot accounting) followed by one JSON object per record, oldest
/// first.
pub fn dump_jsonl() -> String {
    let (records, stats) = snapshot();
    let mut out = String::new();
    let meta = lc_json::Value::object([
        ("flight", lc_json::Value::from("lc-flight/v1")),
        ("records", lc_json::Value::from(stats.recovered)),
        ("written", lc_json::Value::from(stats.written)),
        ("overwritten", lc_json::Value::from(stats.overwritten)),
        ("torn", lc_json::Value::from(stats.torn)),
    ]);
    out.push_str(&meta.to_string());
    out.push('\n');
    for r in &records {
        let mut fields: Vec<(&str, lc_json::Value)> = vec![
            ("ts_ns", lc_json::Value::from(r.ts_ns)),
            ("dur_ns", lc_json::Value::from(r.dur_ns)),
            ("tid", lc_json::Value::from(r.tid)),
            ("seq", lc_json::Value::from(r.seq)),
            ("cat", lc_json::Value::from(r.cat)),
            ("name", lc_json::Value::from(r.name)),
        ];
        if r.req != 0 {
            fields.push(("req", lc_json::Value::from(r.req)));
        }
        for (k, v) in &r.args {
            fields.push((k, lc_json::Value::from(*v)));
        }
        out.push_str(&lc_json::Value::object(fields).to_string());
        out.push('\n');
    }
    out
}

/// Dump to `path` with atomic publication: the JSONL is written to a
/// sibling temp file and renamed into place, so observers never see a
/// torn black box even if the dumping process dies mid-write.
pub fn dump_to(path: &Path) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    // Fsync durability is deliberately out of scope for a crash-path dump.
    // durable-exempt: black box uses its own tmp-write + rename publication.
    std::fs::write(&tmp, dump_jsonl())?;
    std::fs::rename(&tmp, path)
}

/// Install a chained panic hook that dumps the flight recorder to
/// `path` (best effort) before the previous hook runs. Installs at most
/// once per process; later calls update the dump path.
pub fn dump_on_panic(path: PathBuf) {
    static INSTALL: Once = Once::new();
    static TARGET: OnceLock<Mutex<PathBuf>> = OnceLock::new();
    let target = TARGET.get_or_init(|| Mutex::new(path.clone()));
    *target.lock().unwrap_or_else(|p| p.into_inner()) = path;
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if armed() {
                let p = TARGET
                    .get()
                    .map(|t| t.lock().unwrap_or_else(|e| e.into_inner()).clone());
                if let Some(p) = p {
                    let _ = dump_to(&p);
                }
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        crate::tests::LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Records written by this test run, identified by a unique name.
    fn count_named(records: &[FlightRecord], name: &str) -> usize {
        records.iter().filter(|r| r.name == name).count()
    }

    #[test]
    fn note_and_span_land_in_snapshot() {
        let _g = locked();
        arm(64);
        note("flight.test.note", &[("a", 7), ("b", 9)]);
        {
            let mut s = crate::span_in!("flight.test", "flight.test.span", bytes = 123usize);
            s.arg("late", 5u64);
        }
        disarm();
        let (records, _) = snapshot();
        let n = records
            .iter()
            .find(|r| r.name == "flight.test.note")
            .expect("note recorded");
        assert_eq!(n.cat, "note");
        assert_eq!(n.args, vec![("a", 7), ("b", 9)]);
        let s = records
            .iter()
            .find(|r| r.name == "flight.test.span")
            .expect("span recorded");
        assert_eq!(s.cat, "flight.test");
        assert_eq!(s.args, vec![("bytes", 123), ("late", 5)]);
    }

    #[test]
    fn request_id_is_attached() {
        let _g = locked();
        arm(64);
        {
            let _scope = crate::request_scope(42);
            note("flight.test.req", &[]);
        }
        disarm();
        let (records, _) = snapshot();
        let r = records
            .iter()
            .find(|r| r.name == "flight.test.req")
            .expect("note recorded");
        assert_eq!(r.req, 42);
    }

    #[test]
    fn wraparound_keeps_latest_and_accounts_for_overwritten() {
        let _g = locked();
        arm(64);
        let total = 64 * 3 + 17;
        std::thread::spawn(move || {
            for i in 0..total {
                note("flight.test.wrap", &[("i", i)]);
            }
        })
        .join()
        .expect("writer thread");
        disarm();
        let (records, stats) = snapshot();
        let mine: Vec<&FlightRecord> = records
            .iter()
            .filter(|r| r.name == "flight.test.wrap")
            .collect();
        assert_eq!(mine.len(), 64, "ring keeps exactly its capacity");
        // The survivors are precisely the newest `cap` records, in order.
        for (k, r) in mine.iter().enumerate() {
            assert_eq!(r.args[0].1, total - 64 + k as u64);
        }
        assert!(stats.overwritten >= (total - 64), "overwrites accounted");
    }

    #[test]
    fn dump_jsonl_is_parseable_and_has_meta_line() {
        let _g = locked();
        arm(64);
        note("flight.test.jsonl", &[("x", 1)]);
        disarm();
        let dump = dump_jsonl();
        let mut lines = dump.lines();
        let meta = lc_json::Value::parse(lines.next().expect("meta line")).expect("meta parses");
        assert_eq!(
            meta.get("flight").and_then(|v| v.as_str()),
            Some("lc-flight/v1")
        );
        let mut saw = false;
        for line in lines {
            let v = lc_json::Value::parse(line).expect("record parses");
            if v.get("name").and_then(|n| n.as_str()) == Some("flight.test.jsonl") {
                assert_eq!(v.get("x").and_then(|x| x.as_u64()), Some(1));
                saw = true;
            }
        }
        assert!(saw, "dumped record present");
    }

    #[test]
    fn disarmed_recorder_records_nothing() {
        let _g = locked();
        disarm();
        let (before, _) = snapshot();
        let n = count_named(&before, "flight.test.disarmed");
        note("flight.test.disarmed", &[]);
        let (after, _) = snapshot();
        assert_eq!(count_named(&after, "flight.test.disarmed"), n);
    }
}
