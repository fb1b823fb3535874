//! Cross-crate telemetry integration: encode/decode a known chunk count
//! through a 2-stage pipeline and assert the span stream matches the
//! work actually done.
//!
//! Telemetry state is process-global, so every test here takes one
//! mutex and starts from `reset()`.

use std::sync::Mutex;

use lc_repro::lc_core::{archive, CHUNK_SIZE};
use lc_repro::lc_parallel::Pool;
use lc_repro::lc_telemetry;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Compressible input spanning a known number of chunks.
fn input(chunks: usize) -> Vec<u8> {
    let n = CHUNK_SIZE * (chunks - 1) + 10; // last chunk partial
    (0..n).map(|i| (i / 64) as u8).collect()
}

fn two_stage_pipeline() -> lc_repro::lc_core::Pipeline {
    lc_repro::lc_components::parse_pipeline("DIFF_1 RZE_1").unwrap()
}

#[test]
fn one_encode_span_per_chunk_and_stage() {
    let _g = locked();
    lc_telemetry::reset();
    lc_telemetry::enable();

    let chunks = 4;
    let data = input(chunks);
    let pipeline = two_stage_pipeline();
    let pool = Pool::new(2);
    let encoded = archive::encode(&pipeline, &data, &pool);
    let events = lc_telemetry::drain();
    lc_telemetry::disable();

    let stage_spans: Vec<_> = events.iter().filter(|e| e.cat == "stage.encode").collect();
    assert_eq!(stage_spans.len(), chunks * 2, "one span per (chunk, stage)");

    // Each (chunk, stage) pair appears exactly once.
    let mut seen = std::collections::HashSet::new();
    for ev in &stage_spans {
        let chunk = ev
            .args
            .iter()
            .find_map(|(k, v)| match v {
                lc_telemetry::ArgValue::U64(n) if *k == "chunk" => Some(*n),
                _ => None,
            })
            .expect("stage span carries chunk index");
        assert!(seen.insert((ev.name, chunk)));
    }

    // The encode-level span is present too, and the encode is a single
    // pass: one pool fan-out (`fold`), no second one to place payloads.
    assert_eq!(
        events.iter().filter(|e| e.name == "archive.encode").count(),
        1
    );
    let pool_passes = |name: &str| {
        events
            .iter()
            .filter(|e| e.cat == "pool" && e.name == name)
            .count()
    };
    assert_eq!(pool_passes("fold"), 1);
    assert_eq!(pool_passes("run"), 0);

    // Decode mirrors encode: every stage the encoder applied (or
    // skipped) produces exactly one stage.decode span per chunk.
    lc_telemetry::reset();
    lc_telemetry::enable();
    let out = archive::decode(&encoded, lc_repro::lc_components::lookup, &pool).unwrap();
    let events = lc_telemetry::drain();
    lc_telemetry::disable();
    assert_eq!(out, data);
    let decode_spans = events.iter().filter(|e| e.cat == "stage.decode").count();
    assert_eq!(decode_spans, chunks * 2);
    let pool_passes = events
        .iter()
        .filter(|e| e.cat == "pool" && e.name != "worker")
        .count();
    assert_eq!(pool_passes, 1, "decode is one pool pass as well");
}

#[test]
fn chrome_trace_export_of_a_real_encode_is_loadable() {
    let _g = locked();
    lc_telemetry::reset();
    lc_telemetry::enable();

    let data = input(3);
    let pool = Pool::new(2);
    archive::encode(&two_stage_pipeline(), &data, &pool);
    let events = lc_telemetry::drain();
    lc_telemetry::disable();

    let text = lc_telemetry::export::chrome_trace(&events);
    let v = lc_repro::lc_json::Value::parse(&text).expect("trace is valid JSON");
    let arr = v
        .get("traceEvents")
        .and_then(lc_repro::lc_json::Value::as_array)
        .expect("traceEvents");
    assert_eq!(arr.len(), events.len());
    for ev in arr {
        assert_eq!(
            ev.get("ph").and_then(lc_repro::lc_json::Value::as_str),
            Some("X")
        );
    }
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _g = locked();
    lc_telemetry::reset();
    lc_telemetry::disable();

    let data = input(2);
    let pool = Pool::new(2);
    archive::encode(&two_stage_pipeline(), &data, &pool);
    assert!(lc_telemetry::drain().is_empty());
}
