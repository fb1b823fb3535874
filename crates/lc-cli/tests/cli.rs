//! End-to-end tests of the `lc` binary.

use std::process::Command;

fn lc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lc"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn list_shows_all_components() {
    let out = lc().arg("list").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("TCMS_4"));
    assert!(text.contains("RAZE_8"));
    assert!(text.contains("TUPL8_4"));
    assert!(text.contains("62 components"));
    assert!(text.contains("107632"));
}

#[test]
fn compress_decompress_roundtrip_via_files() {
    let src = tmp("input.sp");
    let archive = tmp("input.lc");
    let restored = tmp("input.out");
    let file = lc_data::file_by_name("obs_info").unwrap();
    let data = lc_data::generate(file, lc_data::Scale::tiny());
    std::fs::write(&src, &data).unwrap();

    let out = lc()
        .args(["compress", "--pipeline", "DBEFS_4 DIFF_4 RZE_4"])
        .arg(&src)
        .arg(&archive)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = lc()
        .arg("decompress")
        .arg(&archive)
        .arg(&restored)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&restored).unwrap(), data);
}

#[test]
fn unknown_pipeline_component_fails_cleanly() {
    let src = tmp("x.bin");
    std::fs::write(&src, b"hello").unwrap();
    let out = lc()
        .args(["compress", "--pipeline", "NOPE_4 DIFF_4 RZE_4"])
        .arg(&src)
        .arg(tmp("x.lc"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("NOPE_4"), "{err}");
}

#[test]
fn simulate_prints_both_directions() {
    let out = lc()
        .args([
            "simulate",
            "--pipeline",
            "TCMS_4 DIFF_4 CLOG_4",
            "--file",
            "obs_info",
            "--gpu",
            "RTX 4090",
            "--compiler",
            "clang",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("encode"), "{text}");
    assert!(text.contains("decode"), "{text}");
    assert!(text.contains("Clang"), "{text}");
}

#[test]
fn simulate_rejects_clang_on_amd() {
    let out = lc()
        .args([
            "simulate",
            "--pipeline",
            "TCMS_4 DIFF_4 CLOG_4",
            "--gpu",
            "MI100",
            "--compiler",
            "clang",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot target"));
}

#[test]
fn gen_data_writes_requested_file() {
    let dir = tmp("gen");
    let out = lc()
        .args(["gen-data", "--file", "obs_info", "--scale", "8192", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let produced = std::fs::read(dir.join("obs_info.sp")).unwrap();
    assert!(produced.len() >= 64 * 1024);
}

#[test]
fn profile_reports_statistics() {
    let src = tmp("prof.sp");
    let file = lc_data::file_by_name("obs_temp").unwrap();
    std::fs::write(&src, lc_data::generate(file, lc_data::Scale::tiny())).unwrap();
    let out = lc().arg("profile").arg(&src).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("word repeat fraction"), "{text}");
}

#[test]
fn streamed_compress_decompress_roundtrip() {
    let src = tmp("stream.sp");
    let archive = tmp("stream.lc");
    let restored = tmp("stream.out");
    let file = lc_data::file_by_name("obs_error").unwrap();
    let data = lc_data::generate(file, lc_data::Scale::tiny());
    std::fs::write(&src, &data).unwrap();

    let out = lc()
        .args(["compress", "--pipeline", "TCMS_4 DIFF_4 RZE_4", "--stream"])
        .arg(&src)
        .arg(&archive)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("streamed"));

    // decompress auto-detects the streamed format by magic.
    let out = lc()
        .arg("decompress")
        .arg(&archive)
        .arg(&restored)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&restored).unwrap(), data);
}

#[test]
fn verify_subcommand_accepts_good_and_rejects_corrupt() {
    let src = tmp("v.sp");
    let archive = tmp("v.lc");
    let file = lc_data::file_by_name("num_comet").unwrap();
    let data = lc_data::generate(file, lc_data::Scale::tiny());
    std::fs::write(&src, &data).unwrap();
    let out = lc()
        .args(["compress", "--preset", "sp-speed"])
        .arg(&src)
        .arg(&archive)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = lc().arg("verify").arg(&archive).arg(&src).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("bit-exactly"));

    // Truncate the archive: verify must fail with an error message.
    let bytes = std::fs::read(&archive).unwrap();
    std::fs::write(&archive, &bytes[..bytes.len() / 2]).unwrap();
    let out = lc().arg("verify").arg(&archive).output().unwrap();
    assert!(!out.status.success());
}

/// Build a small archive and return (original bytes, archive path).
fn small_archive(tag: &str) -> (Vec<u8>, std::path::PathBuf) {
    let src = tmp(&format!("{tag}.sp"));
    let archive = tmp(&format!("{tag}.lc"));
    let file = lc_data::file_by_name("obs_info").unwrap();
    let data = lc_data::generate(file, lc_data::Scale::tiny());
    std::fs::write(&src, &data).unwrap();
    let out = lc()
        .args(["compress", "--pipeline", "TCMS_4 DIFF_4 RZE_4"])
        .arg(&src)
        .arg(&archive)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (data, archive)
}

#[test]
fn corrupt_archive_exits_2_with_structured_error() {
    let (_, archive) = small_archive("exit2");
    let mut bytes = std::fs::read(&archive).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&archive, &bytes).unwrap();

    let out = lc()
        .arg("decompress")
        .arg(&archive)
        .arg(tmp("exit2.out"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.lines().count() == 1, "single-line error, got {err:?}");
    assert!(err.contains("kind=decode"), "{err}");
    assert!(err.contains("exit=2"), "{err}");
}

#[test]
fn salvage_recovers_intact_chunks_and_exits_3() {
    let (data, archive) = small_archive("salv");
    let mut bytes = std::fs::read(&archive).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&archive, &bytes).unwrap();

    let restored = tmp("salv.out");
    let out = lc()
        .arg("salvage")
        .arg(&archive)
        .arg(&restored)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("kind=salvage"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("chunks recovered"), "{text}");

    // Output has the original length; damage is confined to one
    // zero-filled 16 KiB chunk.
    let salvaged = std::fs::read(&restored).unwrap();
    assert_eq!(salvaged.len(), data.len());
    let differing = salvaged.iter().zip(&data).filter(|(a, b)| a != b).count();
    assert!(
        differing > 0 && differing <= 16 * 1024,
        "differing bytes: {differing}"
    );
}

#[test]
fn salvage_of_clean_archive_exits_0() {
    let (data, archive) = small_archive("salvclean");
    let restored = tmp("salvclean.out");
    let out = lc()
        .arg("salvage")
        .arg(&archive)
        .arg(&restored)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&restored).unwrap(), data);
}

#[test]
fn pack_and_unpack_are_aliases_for_compress_and_decompress() {
    let src = tmp("alias.sp");
    let archive = tmp("alias.lc");
    let restored = tmp("alias.out");
    let file = lc_data::file_by_name("obs_info").unwrap();
    let data = lc_data::generate(file, lc_data::Scale::tiny());
    std::fs::write(&src, &data).unwrap();

    let out = lc()
        .args(["pack", "--pipeline", "TCMS_4 DIFF_4 RZE_4"])
        .arg(&src)
        .arg(&archive)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = lc()
        .arg("unpack")
        .arg(&archive)
        .arg(&restored)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&restored).unwrap(), data);
}

#[test]
fn pack_with_trace_out_emits_one_span_per_chunk_and_stage() {
    let src = tmp("trace.sp");
    let archive = tmp("trace.lc");
    let trace = tmp("trace.json");
    let metrics = tmp("metrics.json");
    let file = lc_data::file_by_name("obs_info").unwrap();
    let data = lc_data::generate(file, lc_data::Scale::tiny());
    std::fs::write(&src, &data).unwrap();
    let chunks = data.len().div_ceil(lc_core::CHUNK_SIZE);

    let out = lc()
        .args(["pack", "--pipeline", "TCMS_4 DIFF_4 RZE_4"])
        .arg(&src)
        .arg(&archive)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let parsed = lc_json::Value::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = parsed
        .get("traceEvents")
        .and_then(lc_json::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every event is a complete-span record with the fields Perfetto needs.
    for ev in events {
        assert_eq!(ev.get("ph").and_then(lc_json::Value::as_str), Some("X"));
        assert!(ev.get("ts").and_then(lc_json::Value::as_f64).is_some());
        assert!(ev.get("dur").and_then(lc_json::Value::as_f64).is_some());
        assert!(ev.get("name").and_then(lc_json::Value::as_str).is_some());
    }
    // Exactly one stage.encode span per (chunk, stage) pair, all distinct.
    let mut seen = std::collections::HashSet::new();
    for ev in events {
        if ev.get("cat").and_then(lc_json::Value::as_str) != Some("stage.encode") {
            continue;
        }
        let stage = ev
            .get("name")
            .and_then(lc_json::Value::as_str)
            .unwrap()
            .to_string();
        let chunk = ev
            .get("args")
            .and_then(|a| a.get("chunk"))
            .and_then(lc_json::Value::as_u64)
            .expect("stage.encode span carries its chunk index");
        assert!(
            seen.insert((stage, chunk)),
            "duplicate span for chunk {chunk}"
        );
    }
    assert_eq!(seen.len(), chunks * 3, "one span per (chunk, stage)");

    let metrics = lc_json::Value::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let bytes_in = metrics
        .get("counters")
        .and_then(|c| c.get("archive.encode.bytes_in"))
        .and_then(lc_json::Value::as_u64);
    assert_eq!(bytes_in, Some(data.len() as u64));
}

#[test]
fn max_decoded_bytes_guards_against_bombs_with_exit_4() {
    let (data, archive) = small_archive("limit");
    let out = lc()
        .args(["decompress"])
        .arg(&archive)
        .arg(tmp("limit.out"))
        .args(["--max-decoded-bytes", "100"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("kind=limit"), "{err}");
    assert!(err.contains("exit=4"), "{err}");

    // A generous limit decodes normally.
    let restored = tmp("limit-ok.out");
    let out = lc()
        .args(["decompress"])
        .arg(&archive)
        .arg(&restored)
        .args(["--max-decoded-bytes", "10000000"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&restored).unwrap(), data);
}

#[test]
fn analyze_reports_clean_registry_in_both_formats() {
    let out = lc().arg("analyze").output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("analyzed 62 components"), "{text}");
    assert!(text.contains("clean: every contract holds"), "{text}");
    assert!(text.contains("22 provably-commuting stage pairs"), "{text}");

    let out = lc().args(["analyze", "--format", "json"]).output().unwrap();
    assert!(out.status.success());
    let json = lc_json::Value::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        json.get("schema").and_then(lc_json::Value::as_str),
        Some("lc-analyze/v1")
    );
    assert_eq!(
        json.get("clean").and_then(lc_json::Value::as_bool),
        Some(true)
    );
    assert_eq!(
        json.get("components").and_then(lc_json::Value::as_u64),
        Some(62)
    );
}

#[test]
fn analyze_mutation_harness_catches_all_seeded_violations() {
    let out = lc()
        .args(["analyze", "--format", "json", "--mutation"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = lc_json::Value::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let mutation = json.get("mutation").unwrap();
    let seeded = mutation.get("seeded").and_then(lc_json::Value::as_u64);
    assert_eq!(
        seeded,
        mutation.get("caught").and_then(lc_json::Value::as_u64)
    );
    assert!(seeded.unwrap() >= 12, "at least 12 seeded violations");
}

#[test]
fn usage_line_names_every_subcommand() {
    // The usage line `lc` prints without arguments and the subcommand
    // list of `--help` are both the dispatch table: every subcommand
    // `--help` documents appears in the usage line, and is dispatched
    // (an unknown name is a usage error naming it).
    let out = lc().output().unwrap();
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    let listed = usage
        .split_once('<')
        .and_then(|(_, rest)| rest.split_once('>'))
        .map(|(names, _)| names.split('|').collect::<Vec<_>>())
        .unwrap_or_else(|| panic!("no <…> list in {usage:?}"));
    let help = lc().arg("--help").output().unwrap();
    let help = String::from_utf8_lossy(&help.stdout).into_owned();
    let documented: Vec<&str> = help
        .lines()
        .skip_while(|l| !l.starts_with("subcommands:"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .filter(|l| !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, documented, "usage line vs --help");
    assert_eq!(listed.len(), 12, "{listed:?}");
    for name in ["verify", "analyze", "serve", "report", "shards"] {
        assert!(listed.contains(&name), "{name} missing from {usage:?}");
    }
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    // Component timing belongs to the benchmark harness and the snapshot
    // kernel table, so `lc` has no subcommand for it.
    let out = lc().arg("bench-components").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("bench-components"), "{err}");
}

#[test]
fn analyze_rejects_unknown_format() {
    let out = lc().args(["analyze", "--format", "yaml"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("kind=usage"), "{err}");
}

#[test]
fn analyze_json_lists_prune_pairs_and_rule_counts() {
    let out = lc().args(["analyze", "--format", "json"]).output().unwrap();
    assert!(out.status.success());
    let json = lc_json::Value::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let pairs = json.get("prune_pairs").expect("prune_pairs present");
    match pairs {
        lc_json::Value::Array(items) => {
            assert_eq!(items.len(), 22, "the registry's commuting pairs");
            for p in items {
                assert!(p.get("a").and_then(lc_json::Value::as_str).is_some());
                assert!(p.get("b").and_then(lc_json::Value::as_str).is_some());
            }
        }
        other => panic!("prune_pairs must be an array, got {other:?}"),
    }
    // Clean registry: per-rule counts present but empty.
    match json.get("rule_counts").expect("rule_counts present") {
        lc_json::Value::Object(fields) => assert!(fields.is_empty()),
        other => panic!("rule_counts must be an object, got {other:?}"),
    }
}

#[test]
fn analyze_canonicalize_census_in_both_formats() {
    let out = lc().args(["analyze", "--canonicalize"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("107632 pipelines"), "{text}");
    assert!(text.contains("certified-redundant"), "{text}");
    assert!(text.contains("class-map fingerprint"), "{text}");

    let out = lc()
        .args(["analyze", "--canonicalize", "--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = lc_json::Value::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(
        json.get("schema").and_then(lc_json::Value::as_str),
        Some("lc-analyze-canonical/v1")
    );
    assert_eq!(
        json.get("pipelines").and_then(lc_json::Value::as_u64),
        Some(107_632)
    );
    let classes = json
        .get("classes")
        .and_then(lc_json::Value::as_u64)
        .unwrap();
    let pruned = json.get("pruned").and_then(lc_json::Value::as_u64).unwrap();
    assert_eq!(classes + pruned, 107_632);
    assert!(pruned >= 3_000, "acceptance floor: {pruned}");
    assert!(json
        .get("fingerprint")
        .and_then(lc_json::Value::as_str)
        .is_some());
}

#[test]
fn analyze_canonicalize_snapshot_drift_exits_6_in_both_formats() {
    let snap = tmp("drift_snapshot.json");
    std::fs::write(
        &snap,
        r#"{"pipelines":107632,"classes":1,"pruned":8178,"exact_pruned":352,"fingerprint":"0000000000000000"}"#,
    )
    .unwrap();
    for format in ["text", "json"] {
        let out = lc()
            .args([
                "analyze",
                "--canonicalize",
                "--format",
                format,
                "--snapshot",
                snap.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(6), "format={format}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("kind=analyze"), "format={format}: {err}");
        assert!(err.contains("exit=6"), "format={format}: {err}");
        assert!(err.contains("snapshot drift"), "format={format}: {err}");
    }
    std::fs::remove_file(&snap).ok();
}

#[test]
fn shards_prints_dash_for_a_journal_without_a_prune_mode() {
    let dir = tmp("shards-prune");
    std::fs::create_dir_all(&dir).unwrap();
    let meta = |prune: &str| {
        format!(
            r#"{{"kind":"meta","journal_version":{},"space":"DIFF_1|RZE_1","files":["msg_bt"]{prune}}}"#,
            lc_study::journal::JOURNAL_VERSION
        ) + "\n"
    };
    let journal = |spec: &str| dir.join(lc_study::ShardSpec::parse(spec).unwrap().journal_file());
    std::fs::write(journal("1/2"), meta("")).unwrap();
    std::fs::write(journal("2/2"), meta(r#","prune":"off""#)).unwrap();
    let out = lc().arg("shards").arg(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Columns: shard, done/owned, quarantined, torn, prune, lock.
    let prune_of = |label: &str| -> String {
        let row = text
            .lines()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("no row for {label}: {text}"));
        row.split_whitespace().nth(4).unwrap().to_string()
    };
    assert_eq!(prune_of("1-of-2"), "-", "{text}");
    assert_eq!(prune_of("2-of-2"), "off", "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
