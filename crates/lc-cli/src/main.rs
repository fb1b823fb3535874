//! `lc` — command-line interface to the LC reproduction.
//!
//! ```text
//! lc list                                         component inventory (Table 1)
//! lc compress   --pipeline "BIT_4 DIFF_4 RZE_4" IN OUT
//! lc decompress IN OUT [--max-decoded-bytes N]
//! lc salvage    IN OUT [--max-decoded-bytes N]    recover intact chunks
//! lc gen-data   [--file NAME] [--scale D] [--out DIR]
//! lc profile    FILE                              structural statistics
//! lc simulate   --pipeline "…" [--file NAME] [--gpu NAME] [--compiler C] [--opt 1|3]
//! lc analyze    [--format text|json] [--mutation]  contract static analysis
//!               [--canonicalize [--check quick|full] [--snapshot PATH]]
//!                                                 pipeline-space class census
//! lc serve      [--addr HOST:PORT] [--threads N] [--queue N] [--mem-budget-mb N]
//!               [--max-decoded-bytes N] [--drain-deadline-ms N] [--chaos-seed N]
//!               [--flight-recorder-dump PATH]
//! lc report     --metrics PATH [--top N]           ranked per-kernel cost centers
//! lc shards     DIR                                inspect a sharded campaign's journals
//! ```
//!
//! Failures print a single structured line, `error: kind=<kind>
//! exit=<code> <message>`, and the exit code distinguishes the cause:
//! 1 usage/I-O, 2 corrupt archive ([`lc_core::DecodeError`]), 3 salvage
//! completed but lost chunks, 4 decoded size above `--max-decoded-bytes`,
//! 6 contract violations found by `lc analyze`, 7 `lc serve` escalated
//! its drain to a hard abort (second signal or drain deadline).
//!
//! Every subcommand accepts `--trace-out PATH` (Chrome trace-event JSON,
//! loadable in Perfetto / `chrome://tracing`) and `--metrics-out PATH`
//! (counter + histogram summary JSON). Either flag switches telemetry
//! on; without them the instrumented hot paths cost a single relaxed
//! atomic load. `pack` / `unpack` are aliases for compress / decompress.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use gpu_sim::{CompilerId, Direction, OptLevel, SimConfig, ALL_GPUS, RTX_4090};
use lc_core::{archive, DecodeError, Pipeline};
use lc_parallel::Pool;

/// Exit codes: generic failure (bad usage, I/O, unknown names).
const EXIT_GENERIC: u8 = 1;
/// The archive is corrupt (any [`DecodeError`] except the size limit).
const EXIT_DECODE: u8 = 2;
/// Salvage ran to completion but some chunks were unrecoverable.
const EXIT_SALVAGE_LOSSES: u8 = 3;
/// The archive declares more decoded bytes than `--max-decoded-bytes`.
const EXIT_LIMIT: u8 = 4;
/// `lc analyze` found contract violations.
const EXIT_ANALYZE: u8 = 6;
/// `lc serve` drained, but only after escalating to a hard abort
/// (second signal or drain deadline) — in-flight requests were
/// cancelled with structured errors rather than finishing.
const EXIT_INTERRUPTED: u8 = 7;

/// A classified CLI failure: `kind` and `exit` make scripted callers'
/// error handling exact; `msg` is for the human.
struct CliError {
    kind: &'static str,
    exit: u8,
    msg: String,
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        Self {
            kind: "usage",
            exit: EXIT_GENERIC,
            msg,
        }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        Self::from(msg.to_string())
    }
}

impl From<DecodeError> for CliError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::TooLarge { .. } => Self {
                kind: "limit",
                exit: EXIT_LIMIT,
                msg: e.to_string(),
            },
            _ => Self {
                kind: "decode",
                exit: EXIT_DECODE,
                msg: e.to_string(),
            },
        }
    }
}

impl From<lc_core::stream::StreamError> for CliError {
    fn from(e: lc_core::stream::StreamError) -> Self {
        match e {
            lc_core::stream::StreamError::Decode(d) => Self::from(d),
            io => Self {
                kind: "decode",
                exit: EXIT_DECODE,
                msg: io.to_string(),
            },
        }
    }
}

/// A subcommand's entry point; it receives the arguments after its name.
type Handler = fn(&[String]) -> Result<(), CliError>;

/// The dispatch table: every subcommand, in the order the usage line and
/// `--help` list them. `pack` and `unpack` are aliases (see `main`).
const SUBCOMMANDS: [(&str, Handler); 12] = [
    ("list", |_| cmd_list()),
    ("compress", cmd_compress),
    ("decompress", cmd_decompress),
    ("salvage", cmd_salvage),
    ("gen-data", cmd_gen_data),
    ("profile", cmd_profile),
    ("simulate", cmd_simulate),
    ("verify", cmd_verify),
    ("analyze", cmd_analyze),
    ("serve", cmd_serve),
    ("report", cmd_report),
    ("shards", cmd_shards),
];

/// The line `lc` prints when run without a subcommand.
fn usage_line() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
    format!("usage: lc <{}> … (--help)", names.join("|"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage_line());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let trace_out = flag_value(rest, "--trace-out").map(str::to_string);
    let metrics_out = flag_value(rest, "--metrics-out").map(str::to_string);
    if trace_out.is_some() || metrics_out.is_some() {
        lc_telemetry::enable();
    }
    let name = match cmd.as_str() {
        "pack" => "compress",
        "unpack" => "decompress",
        other => other,
    };
    let handler = SUBCOMMANDS.iter().find(|(n, _)| *n == name).map(|(_, h)| h);
    let result = match (handler, name) {
        (Some(handler), _) => handler(rest),
        (None, "--help" | "-h" | "help") => {
            println!(
                "lc — LC compression framework reproduction\n\
                 subcommands:\n  \
                 list                       show all 62 components\n  \
                 compress   --pipeline P IN OUT\n  \
                 decompress IN OUT [--max-decoded-bytes N]\n  \
                 salvage    IN OUT [--max-decoded-bytes N]  recover intact chunks of a damaged archive\n  \
                 gen-data   [--file NAME] [--scale D] [--out DIR]\n  \
                 profile    FILE\n  \
                 simulate   --pipeline P [--file NAME] [--gpu NAME] [--compiler nvcc|clang|hipcc] [--opt 1|3]\n  \
                 verify     ARCHIVE [ORIGINAL]    check an archive decodes (and matches ORIGINAL)\n  \
                 analyze    [--format text|json] [--mutation]  check every component contract\n             \
                 [--canonicalize [--check quick|full] [--snapshot PATH]]  class census of the\n             \
                 107,632-pipeline space (certified equivalence classes, rewrite-rule counts)\n  \
                 serve      [--addr HOST:PORT] [--threads N] [--queue N] [--mem-budget-mb N]\n             \
                 [--max-decoded-bytes N] [--drain-deadline-ms N] [--chaos-seed N]\n             \
                 [--flight-recorder-dump PATH]\n  \
                 report     --metrics PATH [--top N]  ranked per-kernel cost centers\n  \
                 shards     DIR                   per-shard progress and merge readiness of a\n             \
                 sharded reproduce campaign (journal.K-of-N.jsonl files)\n\
                 aliases: pack = compress, unpack = decompress\n\
                 telemetry: any subcommand takes --trace-out PATH (Chrome trace JSON)\n\
                 and --metrics-out PATH (counter/histogram summary JSON)\n\
                 exit codes: 0 ok, 1 usage/io, 2 corrupt archive, 3 salvage with losses, \
                 4 size limit, 6 contract violations, 7 serve hard-aborted its drain"
            );
            Ok(())
        }
        (None, other) => Err(CliError::from(format!("unknown subcommand {other:?}"))),
    };
    // Export telemetry even when the command failed: a partial trace of a
    // decode that errored out is exactly when you want to look at one.
    let result = match write_telemetry(trace_out.as_deref(), metrics_out.as_deref()) {
        Ok(()) => result,
        Err(t) => result.and(Err(t)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One structured line; newlines flattened so kind/exit stay
            // machine-greppable.
            eprintln!(
                "error: kind={} exit={} {}",
                e.kind,
                e.exit,
                e.msg.replace('\n', " ")
            );
            ExitCode::from(e.exit)
        }
    }
}

/// Drain buffered telemetry and write the requested export files.
fn write_telemetry(trace: Option<&str>, metrics: Option<&str>) -> Result<(), CliError> {
    if trace.is_none() && metrics.is_none() {
        return Ok(());
    }
    let events = lc_telemetry::drain();
    let policy = lc_chaos::fs::SyncPolicy::default();
    if let Some(path) = trace {
        let body = lc_telemetry::export::chrome_trace(&events);
        lc_chaos::fs::atomic_write(std::path::Path::new(path), body.as_bytes(), policy)
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace: {} events -> {path}", events.len());
    }
    if let Some(path) = metrics {
        let body = lc_telemetry::export::metrics_value().pretty();
        lc_chaos::fs::atomic_write(std::path::Path::new(path), body.as_bytes(), policy)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Parse `--max-decoded-bytes N` if present.
fn max_decoded_bytes(rest: &[String]) -> Result<Option<u64>, CliError> {
    match rest.iter().position(|a| a == "--max-decoded-bytes") {
        None => Ok(None),
        Some(i) => match rest.get(i + 1) {
            None => Err("--max-decoded-bytes requires a value".into()),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|e| CliError::from(format!("--max-decoded-bytes: {e}"))),
        },
    }
}

fn flag_value<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 1] = ["--stream"];

fn positional(rest: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in rest {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !BOOLEAN_FLAGS.contains(&a.as_str());
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn cmd_list() -> Result<(), CliError> {
    println!(
        "{:10} {:10} {:>5} {:>6}  component",
        "name", "kind", "word", "tuple"
    );
    for c in lc_components::all() {
        println!(
            "{:10} {:10} {:>5} {:>6}  {}",
            c.name(),
            c.kind().label(),
            c.word_size(),
            c.tuple_size().map_or("-".to_string(), |k| k.to_string()),
            lc_core::component::family_of(c.name()),
        );
    }
    println!(
        "total: {} components, {} reducers, {} three-stage pipelines",
        lc_components::COMPONENT_COUNT,
        lc_components::REDUCER_COUNT,
        lc_components::PIPELINE_COUNT
    );
    println!("\npresets (use with compress --preset NAME):");
    for p in &lc_components::presets::PRESETS {
        println!("  {:10} {:28} {}", p.name, p.pipeline, p.purpose);
    }
    Ok(())
}

fn parse_pipeline(rest: &[String]) -> Result<Pipeline, String> {
    if let Some(name) = flag_value(rest, "--preset") {
        return lc_components::presets::preset(name).map_err(|e| {
            format!(
                "{e} (available presets: {})",
                lc_components::presets::names().join(", ")
            )
        });
    }
    let text = flag_value(rest, "--pipeline")
        .ok_or("missing --pipeline \"C1 C2 C3\" (or --preset NAME)")?;
    lc_components::parse_pipeline(text).map_err(|e| e.to_string())
}

fn cmd_compress(rest: &[String]) -> Result<(), CliError> {
    let pipeline = parse_pipeline(rest)?;
    let pos = positional(rest);
    let [input, output] = pos[..] else {
        return Err("usage: lc compress --pipeline \"…\" [--stream] IN OUT".into());
    };
    let pool = Pool::with_default_threads();
    if rest.iter().any(|a| a == "--stream") {
        // Bounded-memory streaming path for large files.
        let mut r = std::io::BufReader::new(
            std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?,
        );
        let mut w = std::io::BufWriter::new(
            // durable-exempt: user-named output of a one-shot CLI command.
            std::fs::File::create(output).map_err(|e| format!("{output}: {e}"))?,
        );
        let t0 = Instant::now();
        let enc = lc_core::stream::StreamEncoder::new(&pipeline, pool);
        let (read, written) = enc.encode(&mut r, &mut w).map_err(|e| e.to_string())?;
        use std::io::Write as _;
        w.flush().map_err(|e| e.to_string())?;
        println!(
            "{input} -> {output} (streamed): {read} -> {written} bytes (ratio {:.3}) in {:.3}s",
            read as f64 / written as f64,
            t0.elapsed().as_secs_f64()
        );
        return Ok(());
    }
    let data = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let t0 = Instant::now();
    // invariant: with no cancel token the encode always completes.
    let res = archive::encode_with(&pipeline, &data, &pool, None).expect("uncancelled encode");
    let dt = t0.elapsed().as_secs_f64();
    // durable-exempt: user-named output of a one-shot CLI command.
    std::fs::write(output, &res.archive).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{} -> {}: {} -> {} bytes (ratio {:.3}) in {:.3}s ({:.2} GB/s on this CPU)",
        input,
        output,
        data.len(),
        res.archive.len(),
        data.len() as f64 / res.archive.len() as f64,
        dt,
        data.len() as f64 / 1e9 / dt,
    );
    for st in &res.stats.stages {
        println!(
            "  {:10} applied {:5} skipped {:5}  {} -> {} bytes",
            st.component, st.chunks_applied, st.chunks_skipped, st.bytes_in, st.bytes_out
        );
    }
    Ok(())
}

fn cmd_decompress(rest: &[String]) -> Result<(), CliError> {
    let pos = positional(rest);
    let [input, output] = pos[..] else {
        return Err("usage: lc decompress IN OUT [--max-decoded-bytes N]".into());
    };
    let limit = max_decoded_bytes(rest)?;
    let data = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let t0 = Instant::now();
    let (out, _) = decode_any(&data, limit, false)?;
    let dt = t0.elapsed().as_secs_f64();
    // durable-exempt: user-named output of a one-shot CLI command.
    std::fs::write(output, &out).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{} -> {}: {} -> {} bytes in {:.3}s",
        input,
        output,
        data.len(),
        out.len(),
        dt
    );
    Ok(())
}

/// Decode `data` as either self-describing container, dispatching on its
/// magic. `limit` is the decompression-bomb guard; `salvage` recovers
/// what still validates of a damaged archive and reports the rest. Both
/// apply to LCRP archives only: a stream (LCRS) decodes batch by batch
/// in bounded memory, and all or nothing.
fn decode_any(
    data: &[u8],
    limit: Option<u64>,
    salvage: bool,
) -> Result<(Vec<u8>, Option<archive::SalvageReport>), CliError> {
    let pool = Pool::with_default_threads();
    if data.starts_with(&lc_core::stream::STREAM_MAGIC) {
        if limit.is_some() || salvage {
            return Err(
                "--max-decoded-bytes and salvage apply to LCRP archives; streams \
                 (LCRS) decode batch by batch in bounded memory, all or nothing"
                    .into(),
            );
        }
        let mut out = Vec::new();
        lc_core::stream::decode_stream(&mut &data[..], &mut out, lc_components::lookup, &pool)?;
        return Ok((out, None));
    }
    let decoder = archive::Decoder::new(data, lc_components::lookup, limit)?;
    if salvage {
        let (out, report) = decoder.salvage(&pool)?;
        Ok((out, Some(report)))
    } else {
        Ok((decoder.decode(&pool, None)?.0, None))
    }
}

fn cmd_salvage(rest: &[String]) -> Result<(), CliError> {
    let pos = positional(rest);
    let [input, output] = pos[..] else {
        return Err("usage: lc salvage IN OUT [--max-decoded-bytes N]".into());
    };
    let limit = max_decoded_bytes(rest)?;
    let data = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let t0 = Instant::now();
    let (out, report) = decode_any(&data, limit, true)?;
    // invariant: a salvaging decode of an archive always reports.
    let report = report.expect("salvage report");
    let dt = t0.elapsed().as_secs_f64();
    // durable-exempt: user-named output of a one-shot CLI command.
    std::fs::write(output, &out).map_err(|e| format!("{output}: {e}"))?;
    println!(
        "{} -> {}: {} of {} chunks recovered ({} bytes) in {:.3}s",
        input,
        output,
        report.recovered,
        report.recovered + report.lost,
        out.len(),
        dt
    );
    if !report.archive_crc_ok {
        println!("  archive checksum mismatch: undetected damage may remain in recovered chunks");
    }
    for f in &report.errors {
        println!("  chunk {}: {} (zero-filled)", f.chunk, f.error);
    }
    if report.is_clean() {
        Ok(())
    } else {
        let msg = if report.lost > 0 {
            format!(
                "{} chunk(s) unrecoverable and zero-filled in {output}",
                report.lost
            )
        } else {
            format!("archive checksum mismatch; {output} may contain undetected damage")
        };
        Err(CliError {
            kind: "salvage",
            exit: EXIT_SALVAGE_LOSSES,
            msg,
        })
    }
}

fn cmd_gen_data(rest: &[String]) -> Result<(), CliError> {
    let scale: u32 = flag_value(rest, "--scale")
        .unwrap_or("512")
        .parse()
        .map_err(|e| format!("--scale: {e}"))?;
    let out_dir = flag_value(rest, "--out").unwrap_or("sp-data");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let scale = lc_data::Scale::denominator(scale);
    let files: Vec<&lc_data::SpFile> = match flag_value(rest, "--file") {
        Some(name) => {
            vec![lc_data::file_by_name(name).ok_or_else(|| format!("unknown file {name:?}"))?]
        }
        None => lc_data::SP_FILES.iter().collect(),
    };
    for f in files {
        let data = lc_data::generate(f, scale);
        let path = format!("{out_dir}/{}.sp", f.name);
        // durable-exempt: user-named output of a one-shot CLI command.
        std::fs::write(&path, &data).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {} bytes ({:?})", data.len(), f.domain);
    }
    Ok(())
}

fn cmd_profile(rest: &[String]) -> Result<(), CliError> {
    let pos = positional(rest);
    let [path] = pos[..] else {
        return Err("usage: lc profile FILE".into());
    };
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let p = lc_data::profile::profile(&data);
    println!("{path}: {} bytes", p.bytes);
    println!("  word repeat fraction : {:.4}", p.word_repeat_fraction);
    println!("  byte repeat fraction : {:.4}", p.byte_repeat_fraction);
    println!("  zero word fraction   : {:.4}", p.zero_word_fraction);
    println!("  mean |delta| (f32)   : {:.4}", p.mean_abs_delta);
    println!("  distinct exponents   : {}", p.distinct_exponents);
    Ok(())
}

fn cmd_verify(rest: &[String]) -> Result<(), CliError> {
    let pos = positional(rest);
    let (archive_path, original) = match pos[..] {
        [a] => (a, None),
        [a, o] => (a, Some(o)),
        _ => return Err("usage: lc verify ARCHIVE [ORIGINAL]".into()),
    };
    let data = std::fs::read(archive_path).map_err(|e| format!("{archive_path}: {e}"))?;
    let (out, _) = decode_any(&data, None, false)?;
    println!("{archive_path}: decodes cleanly to {} bytes", out.len());
    if let Some(orig_path) = original {
        let orig = std::fs::read(orig_path).map_err(|e| format!("{orig_path}: {e}"))?;
        if orig == out {
            println!("matches {orig_path} bit-exactly");
        } else {
            return Err(format!(
                "decoded output differs from {orig_path} ({} vs {} bytes)",
                out.len(),
                orig.len()
            )
            .into());
        }
    }
    Ok(())
}

/// `lc analyze [--format text|json] [--mutation]` — run the contract
/// static analyzer over the shipped registry: structural rules plus
/// differential property checks of every contract claim against the
/// real encode/decode kernels. `--mutation` additionally runs the
/// self-mutation harness (seeded contract violations that the analyzer
/// must catch — proof the checks are not vacuous). Any violation turns
/// the exit code to [`EXIT_ANALYZE`].
///
/// `--canonicalize` switches to the abstract interpreter: classify the
/// full 107,632-pipeline space into certified equivalence classes and
/// print the census. `--check quick|full` additionally runs the
/// certificate checker, `--snapshot PATH` gates the census against a
/// committed snapshot (any drift exits [`EXIT_ANALYZE`] with a diff),
/// and `--mutation` runs the absint seeded-bug harness instead of the
/// contract one. Exit-code semantics are identical in text and JSON
/// modes.
fn cmd_analyze(rest: &[String]) -> Result<(), CliError> {
    let format = flag_value(rest, "--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("--format must be text or json, got {format:?}").into());
    }
    if rest.iter().any(|a| a == "--canonicalize") {
        return cmd_analyze_canonicalize(rest, format);
    }
    let report = lc_analyze::analyze_registry();
    let run_mutation = rest.iter().any(|a| a == "--mutation");
    let mutation = run_mutation.then(lc_analyze::mutation::run_harness);
    let missed: Vec<String> = mutation
        .iter()
        .flatten()
        .filter(|c| !c.caught)
        .map(|c| format!("{} + {:?}", c.target, c.mutation))
        .collect();

    if format == "json" {
        let mut json = report.to_json();
        if let Some(cases) = &mutation {
            let caught = cases.iter().filter(|c| c.caught).count();
            if let lc_json::Value::Object(fields) = &mut json {
                fields.push((
                    "mutation".to_string(),
                    lc_json::Value::object([
                        ("seeded", lc_json::Value::from(cases.len() as u64)),
                        ("caught", lc_json::Value::from(caught as u64)),
                        (
                            "missed",
                            lc_json::Value::array(
                                missed.iter().map(|m| lc_json::Value::from(m.as_str())),
                            ),
                        ),
                    ]),
                ));
            }
        }
        println!("{}", json.pretty());
    } else {
        println!(
            "analyzed {} components: {} checks, {} provably-commuting stage pairs, {:.0} ms",
            report.components,
            report.checks,
            report.commuting_pairs,
            report.runtime.as_secs_f64() * 1e3
        );
        for d in &report.diagnostics {
            println!("violation [{}] {}: {}", d.rule, d.component, d.message);
        }
        for (rule, n) in report.rule_counts() {
            println!("rule {rule}: {n} violation(s)");
        }
        if let Some(cases) = &mutation {
            let caught = cases.iter().filter(|c| c.caught).count();
            println!(
                "mutation harness: {caught}/{} seeded violations detected",
                cases.len()
            );
            for m in &missed {
                println!("undetected mutant: {m}");
            }
        }
        if report.is_clean() && missed.is_empty() {
            println!("clean: every contract holds");
        }
    }

    if !report.is_clean() || !missed.is_empty() {
        return Err(CliError {
            kind: "analyze",
            exit: EXIT_ANALYZE,
            msg: format!(
                "{} contract violation(s), {} undetected mutant(s)",
                report.diagnostics.len(),
                missed.len()
            ),
        });
    }
    Ok(())
}

/// The `--canonicalize` arm of `lc analyze`: classify the full pipeline
/// space, print the class census, and optionally check certificates,
/// gate on a committed snapshot, and run the absint mutation harness.
fn cmd_analyze_canonicalize(rest: &[String], format: &str) -> Result<(), CliError> {
    use lc_analyze::absint;

    let depth = match flag_value(rest, "--check") {
        None => None,
        Some("quick") => Some(absint::CheckDepth::Quick),
        Some("full") => Some(absint::CheckDepth::Full),
        Some(other) => return Err(format!("--check must be quick or full, got {other:?}").into()),
    };
    let snapshot_path = flag_value(rest, "--snapshot").map(str::to_string);
    let run_mutation = rest.iter().any(|a| a == "--mutation");

    let components: Vec<std::sync::Arc<dyn lc_core::Component>> = lc_components::all().to_vec();
    let reducers = lc_components::reducers();
    let map = absint::classify(&components, &reducers, &[], &absint::RuleTable::SOUND);
    let census = absint::census(&map, &reducers);

    let check = depth.map(|d| absint::check_certificates(&components, &reducers, &map, d));
    let mutation = run_mutation.then(absint::run_absint_harness);
    let missed: Vec<String> = mutation
        .iter()
        .flatten()
        .filter(|c| !c.caught)
        .map(|c| format!("{:?}", c.mutation))
        .collect();

    // Snapshot gate: the committed census (classes, pruned, fingerprint)
    // must match this run exactly; any drift is a structured diff.
    let mut snapshot_diff: Vec<String> = Vec::new();
    if let Some(path) = &snapshot_path {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read snapshot {path}: {e}"))?;
        let snap = lc_json::Value::parse(&text)
            .map_err(|e| format!("snapshot {path} is not valid JSON: {e}"))?;
        let fields: [(&str, u64); 4] = [
            ("pipelines", census.pipelines as u64),
            ("classes", census.classes as u64),
            ("pruned", census.pruned as u64),
            ("exact_pruned", census.exact_pruned as u64),
        ];
        for (name, actual) in fields {
            match snap.get(name).and_then(|v| v.as_u64()) {
                Some(expected) if expected == actual => {}
                Some(expected) => {
                    snapshot_diff.push(format!("{name}: snapshot {expected}, actual {actual}"))
                }
                None => snapshot_diff.push(format!("{name}: missing from snapshot")),
            }
        }
        let fp = format!("{:016x}", census.fingerprint);
        match snap.get("fingerprint").and_then(|v| v.as_str()) {
            Some(expected) if expected == fp => {}
            Some(expected) => {
                snapshot_diff.push(format!("fingerprint: snapshot {expected}, actual {fp}"))
            }
            None => snapshot_diff.push("fingerprint: missing from snapshot".to_string()),
        }
    }

    let check_clean = check.as_ref().map(|r| r.is_clean()).unwrap_or(true);
    if format == "json" {
        let mut json = census.to_json();
        if let lc_json::Value::Object(fields) = &mut json {
            if let Some(r) = &check {
                fields.push(("check".to_string(), r.to_json()));
            }
            if let Some(cases) = &mutation {
                let caught = cases.iter().filter(|c| c.caught).count();
                fields.push((
                    "mutation".to_string(),
                    lc_json::Value::object([
                        ("seeded", lc_json::Value::from(cases.len() as u64)),
                        ("caught", lc_json::Value::from(caught as u64)),
                        (
                            "missed",
                            lc_json::Value::array(
                                missed.iter().map(|m| lc_json::Value::from(m.as_str())),
                            ),
                        ),
                    ]),
                ));
            }
            if let Some(path) = &snapshot_path {
                fields.push((
                    "snapshot".to_string(),
                    lc_json::Value::object([
                        ("path", lc_json::Value::from(path.as_str())),
                        ("matches", lc_json::Value::from(snapshot_diff.is_empty())),
                        (
                            "diff",
                            lc_json::Value::array(
                                snapshot_diff
                                    .iter()
                                    .map(|d| lc_json::Value::from(d.as_str())),
                            ),
                        ),
                    ]),
                ));
            }
        }
        println!("{}", json.pretty());
    } else {
        print!("{}", census.render_text());
        if let Some(r) = &check {
            println!(
                "certificate checker: {} certificates, {} kinds, {} classes executed \
                 differentially, {} — {:.0} ms",
                r.certificates,
                r.kinds,
                r.differential_classes,
                if r.is_clean() {
                    "all valid"
                } else {
                    "REJECTIONS"
                },
                r.runtime.as_secs_f64() * 1e3
            );
            for f in &r.failures {
                println!(
                    "rejected certificate: member {:?} [{}] {}",
                    f.member, f.layer, f.detail
                );
            }
        }
        if let Some(cases) = &mutation {
            let caught = cases.iter().filter(|c| c.caught).count();
            println!(
                "absint mutation harness: {caught}/{} seeded bugs detected",
                cases.len()
            );
            for m in &missed {
                println!("undetected absint mutant: {m}");
            }
        }
        if let Some(path) = &snapshot_path {
            if snapshot_diff.is_empty() {
                println!("snapshot {path}: census matches");
            } else {
                println!("snapshot {path}: CENSUS DRIFT");
                for d in &snapshot_diff {
                    println!("  {d}");
                }
            }
        }
    }

    if !check_clean || !missed.is_empty() || !snapshot_diff.is_empty() {
        return Err(CliError {
            kind: "analyze",
            exit: EXIT_ANALYZE,
            msg: format!(
                "{} rejected certificate(s), {} undetected absint mutant(s), \
                 {} snapshot drift(s)",
                check.as_ref().map(|r| r.failures.len()).unwrap_or(0),
                missed.len(),
                snapshot_diff.len()
            ),
        });
    }
    Ok(())
}

/// `lc serve` — run the deadline-governed compression service until a
/// signal drains it. SIGINT/SIGTERM starts a graceful drain (stop
/// accepting, finish or deadline-out in-flight requests, exit 0); a
/// second signal or the drain deadline escalates to a hard abort
/// (in-flight requests get structured errors, exit [`EXIT_INTERRUPTED`]).
fn cmd_serve(rest: &[String]) -> Result<(), CliError> {
    fn numeric<T: std::str::FromStr>(rest: &[String], name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match flag_value(rest, name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| CliError::from(format!("{name}: {e}"))),
        }
    }

    let cfg = lc_serve::ServeConfig {
        addr: flag_value(rest, "--addr")
            .unwrap_or("127.0.0.1:7399")
            .to_string(),
        worker_threads: numeric(rest, "--threads", 4usize)?,
        pool_threads: numeric(rest, "--pool-threads", lc_parallel::default_threads())?,
        queue_capacity: numeric(rest, "--queue", 64usize)?,
        mem_budget_bytes: flag_value(rest, "--mem-budget-mb")
            .map(|v| v.parse::<u64>().map(|mb| mb << 20))
            .transpose()
            .map_err(|e| CliError::from(format!("--mem-budget-mb: {e}")))?,
        max_payload_bytes: numeric(rest, "--max-payload-bytes", 64u64 << 20)?,
        max_decoded_bytes: max_decoded_bytes(rest)?.unwrap_or(256 << 20),
        drain_deadline_ms: numeric(rest, "--drain-deadline-ms", 5_000u64)?,
        chaos_seed: flag_value(rest, "--chaos-seed")
            .map(str::parse)
            .transpose()
            .map_err(|e| CliError::from(format!("--chaos-seed: {e}")))?,
        flight_dump: Some(std::path::PathBuf::from(
            flag_value(rest, "--flight-recorder-dump").unwrap_or("lc-flight.jsonl"),
        )),
    };

    // The serve black box is always on: the flight recorder arms for
    // the process lifetime and is published on panic or hard abort;
    // bounded metrics (cost-center counters, queue-depth gauges) record
    // regardless of the export flags so `debug`-op dumps and summaries
    // are never empty. The unbounded span sink still requires
    // --trace-out, as for every other subcommand.
    lc_telemetry::flight::arm(0);
    if let Some(path) = &cfg.flight_dump {
        lc_telemetry::flight::dump_on_panic(path.clone());
    }
    lc_telemetry::enable_metrics();

    // SIGINT/SIGTERM drive the drain state machine; a conflicting
    // pre-installed handler is a hard configuration error, not UB.
    let drain = lc_parallel::CancelToken::watching_signals()
        .map_err(|e| CliError::from(format!("cannot watch shutdown signals: {e}")))?;
    let server = lc_serve::Server::bind(cfg.clone(), drain)
        .map_err(|e| CliError::from(format!("bind {}: {e}", cfg.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::from(format!("local_addr: {e}")))?;
    eprintln!(
        "lc serve: listening on {addr} (pid {}, workers {}, queue {}, drain deadline {} ms{})",
        std::process::id(),
        cfg.worker_threads,
        cfg.queue_capacity,
        cfg.drain_deadline_ms,
        cfg.chaos_seed
            .map(|s| format!(", chaos seed {s}"))
            .unwrap_or_default(),
    );

    let summary = server.run();
    println!("{}", summary.to_json().pretty());
    if !summary.accounted() {
        return Err(CliError {
            kind: "serve",
            exit: EXIT_GENERIC,
            msg: format!(
                "request accounting violated: {} in != {} ok + {} err + {} shed + {} write-failed",
                summary.requests_in,
                summary.responses_ok,
                summary.responses_err,
                summary.sheds,
                summary.response_write_failed
            ),
        });
    }
    if summary.hard_aborted {
        return Err(CliError {
            kind: "interrupted",
            exit: EXIT_INTERRUPTED,
            msg: "drain escalated to hard abort; in-flight requests were cancelled".to_string(),
        });
    }
    Ok(())
}

/// `lc report --metrics PATH [--top N]` — rank per-kernel cost centers
/// from a metrics export. Works on any file written by `--metrics-out`
/// (CLI one-shots, `lc serve`) or the campaign's `metrics.json`: every
/// kernel invocation lands in `component.<name>.<encode|decode>.*`
/// counters and histograms, and this table answers "where did the time
/// and bytes actually go" across both serve traffic and sweeps.
fn cmd_report(rest: &[String]) -> Result<(), CliError> {
    let path = flag_value(rest, "--metrics").ok_or(
        "usage: lc report --metrics PATH [--top N] \
         (PATH is a --metrics-out export or a campaign metrics.json)",
    )?;
    let top: usize = flag_value(rest, "--top")
        .unwrap_or("20")
        .parse()
        .map_err(|e| format!("--top: {e}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = lc_json::Value::parse(&text)
        .map_err(|e| format!("{path}: not valid metrics JSON: {e:?}"))?;
    let counters = v.get("counters");
    let hists = match v.get("histograms") {
        Some(lc_json::Value::Object(fields)) => fields,
        _ => {
            return Err(
                format!("{path}: no histograms object — expected a --metrics-out export").into(),
            )
        }
    };

    struct Row {
        component: String,
        dir: String,
        calls: u64,
        bytes: u64,
        ns: u64,
        kernel: String,
    }
    // Kernel-variant tag per (component, dir): the largest
    // `component.<name>.<dir>.kernel.<variant>` counter names the SIMD
    // tier that handled the traffic.
    let kernel_of = |component: &str, dir: &str| -> String {
        let prefix = format!("component.{component}.{dir}.kernel.");
        let Some(lc_json::Value::Object(fields)) = counters else {
            return "-".to_string();
        };
        fields
            .iter()
            .filter_map(|(k, v)| {
                k.strip_prefix(prefix.as_str())
                    .map(|variant| (v.as_u64().unwrap_or(0), variant))
            })
            .max()
            .map_or_else(|| "-".to_string(), |(_, variant)| variant.to_string())
    };
    let mut rows: Vec<Row> = Vec::new();
    for (name, h) in hists {
        let Some(center) = name
            .strip_prefix("component.")
            .and_then(|n| n.strip_suffix(".ns"))
        else {
            continue;
        };
        let Some((component, dir)) = center.rsplit_once('.') else {
            continue;
        };
        rows.push(Row {
            component: component.to_string(),
            dir: dir.to_string(),
            calls: h.get("count").and_then(|x| x.as_u64()).unwrap_or(0),
            bytes: counters
                .and_then(|c| c.get(&format!("component.{component}.{dir}.bytes")))
                .and_then(|x| x.as_u64())
                .unwrap_or(0),
            ns: h.get("sum").and_then(|x| x.as_u64()).unwrap_or(0),
            kernel: kernel_of(component, dir),
        });
    }
    if rows.is_empty() {
        return Err(format!(
            "{path}: no component.* cost centers — generate the export with telemetry on \
             (any subcommand with --metrics-out, or lc serve)"
        )
        .into());
    }
    rows.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.component.cmp(&b.component)));
    let total_ns: u64 = rows.iter().map(|r| r.ns).sum();
    println!(
        "cost centers from {path}: {} kernels, {:.2} ms attributed",
        rows.len(),
        total_ns as f64 / 1e6
    );
    println!(
        "{:<12} {:<7} {:<7} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "component", "dir", "kernel", "calls", "MB", "ms", "MB/s", "share"
    );
    for r in rows.iter().take(top) {
        let secs = r.ns as f64 / 1e9;
        let mb_s = if secs > 0.0 {
            r.bytes as f64 / 1e6 / secs
        } else {
            0.0
        };
        println!(
            "{:<12} {:<7} {:<7} {:>10} {:>10.2} {:>10.2} {:>10.1} {:>6.1}%",
            r.component,
            r.dir,
            r.kernel,
            r.calls,
            r.bytes as f64 / 1e6,
            r.ns as f64 / 1e6,
            mb_s,
            100.0 * r.ns as f64 / total_ns.max(1) as f64
        );
    }
    if rows.len() > top {
        println!(
            "… {} more cost center(s); raise --top to see them",
            rows.len() - top
        );
    }
    Ok(())
}

/// `lc shards DIR` — operator view of a sharded campaign: per-shard
/// progress (units done / owned), quarantines, torn-tail bytes, live
/// or stale per-shard locks, and whether the set is ready to
/// `reproduce --merge`. Deliberately tolerant of partial sets — this
/// is the command you run *while* shards are still executing — so it
/// scans journal names itself rather than using the strict
/// complete-set discovery the merge uses.
fn cmd_shards(rest: &[String]) -> Result<(), CliError> {
    let dir = rest.iter().find(|a| !a.starts_with("--")).ok_or(
        "usage: lc shards DIR  (a reproduce --out directory with journal.K-of-N.jsonl files)",
    )?;
    let dir = std::path::Path::new(dir);
    let shards_err = |msg: String| CliError {
        kind: "shards",
        exit: EXIT_GENERIC,
        msg,
    };

    // Tolerant scan: every canonically-named shard journal, sorted.
    let entries = std::fs::read_dir(dir)
        .map_err(|e| shards_err(format!("cannot read {}: {e}", dir.display())))?;
    let mut found: Vec<lc_study::ShardSpec> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let spec = name
            .strip_prefix("journal.")
            .and_then(|n| n.strip_suffix(".jsonl"))
            .and_then(|mid| mid.split_once("-of-"))
            .and_then(|(k, n)| lc_study::ShardSpec::parse(&format!("{k}/{n}")).ok());
        // Round-trip guard mirrors the merge: a zero-padded or
        // otherwise non-canonical spelling is not a shard journal.
        if let Some(spec) = spec.filter(|s| s.journal_file() == name) {
            found.push(spec);
        }
    }
    if found.is_empty() {
        return Err(shards_err(format!(
            "no shard journals (journal.K-of-N.jsonl) in {} — run reproduce --shard K/N \
             or --supervise N with --out pointing here",
            dir.display()
        )));
    }
    found.sort_by_key(|s| s.index);
    let n = found[0].count;
    let consistent = found.iter().all(|s| s.count == n);

    println!(
        "{:<8} {:>11} {:>11} {:>10} {:>6} {:<10}",
        "shard", "units", "quarantined", "torn", "prune", "lock"
    );
    let mut complete = consistent;
    for spec in &found {
        let j = lc_study::journal::load(&dir.join(spec.journal_file()))
            .map_err(|e| shards_err(format!("shard {}: {e}", spec.label())))?;
        // Owned-unit count from the journal's own meta: files × stage-1
        // components, round-robin over global unit index.
        let nc = j.meta.get("space").and_then(|v| v.as_str()).map_or(0, |s| {
            s.split('|')
                .next()
                .unwrap_or("")
                .split(',')
                .filter(|c| !c.is_empty())
                .count()
        });
        let files = j
            .meta
            .get("files")
            .and_then(|v| v.as_array())
            .map_or(0, <[lc_json::Value]>::len);
        let owned = (0..files * nc).filter(|&u| spec.owns(u)).count();
        let done = j.units.len();
        if done < owned || j.torn_bytes > 0 {
            complete = false;
        }
        // `off` is a real mode (full enumeration): a meta without a
        // `prune` field prints `-`, not a mode it never recorded.
        let prune = j.meta.get("prune").and_then(|v| v.as_str()).unwrap_or("-");
        let lock_path = dir.join(spec.lock_name());
        let lock = match std::fs::read_to_string(&lock_path) {
            Err(_) => "-".to_string(),
            Ok(body) => {
                let pid = body.trim().parse::<u32>().ok();
                let alive =
                    pid.is_some_and(|p| std::path::Path::new(&format!("/proc/{p}")).exists());
                match (pid, alive) {
                    (Some(p), true) => format!("pid {p}"),
                    (Some(p), false) => format!("stale ({p})"),
                    (None, _) => "unreadable".to_string(),
                }
            }
        };
        println!(
            "{:<8} {:>5}/{:<5} {:>11} {:>10} {:>6} {:<10}",
            spec.label(),
            done,
            owned,
            j.quarantined.len(),
            j.torn_bytes,
            prune,
            lock
        );
    }
    if !consistent {
        println!(
            "not mergeable: mixed shard counts in one directory (merge one campaign at a time)"
        );
    } else if found.len() < n {
        let present: std::collections::BTreeSet<usize> = found.iter().map(|s| s.index).collect();
        let missing: Vec<String> = (0..n)
            .filter(|i| !present.contains(i))
            .map(|i| format!("{}-of-{n}", i + 1))
            .collect();
        println!(
            "not mergeable yet: missing shard journal(s) {}",
            missing.join(", ")
        );
    } else if !complete {
        println!(
            "all {n} shard journals present but units are still pending (or a torn tail \
             needs a --resume pass); re-run the pending shards, then reproduce --merge"
        );
    } else {
        println!("all {n} shards complete — ready for reproduce --merge");
    }
    Ok(())
}

fn cmd_simulate(rest: &[String]) -> Result<(), CliError> {
    let pipeline_text = flag_value(rest, "--pipeline").ok_or("missing --pipeline")?;
    let file_name = flag_value(rest, "--file").unwrap_or("num_brain");
    let gpu_name = flag_value(rest, "--gpu").unwrap_or(RTX_4090.name);
    let compiler = match flag_value(rest, "--compiler").unwrap_or("nvcc") {
        "nvcc" => CompilerId::Nvcc,
        "clang" => CompilerId::Clang,
        "hipcc" => CompilerId::Hipcc,
        other => return Err(format!("unknown compiler {other:?}").into()),
    };
    let opt = match flag_value(rest, "--opt").unwrap_or("3") {
        "1" => OptLevel::O1,
        "3" => OptLevel::O3,
        other => return Err(format!("--opt must be 1 or 3, got {other:?}").into()),
    };
    let gpu = ALL_GPUS
        .iter()
        .find(|g| g.name == gpu_name)
        .ok_or_else(|| format!("unknown GPU {gpu_name:?} (see Tables 4/5)"))?;
    if !compiler.supports(gpu.vendor) {
        return Err(format!("{} cannot target {}", compiler.label(), gpu.name).into());
    }
    let cfg = SimConfig::new(gpu, compiler, opt);

    let components: Vec<_> = pipeline_text
        .split_whitespace()
        .map(|n| lc_components::lookup(n).ok_or_else(|| format!("unknown component {n:?}")))
        .collect::<Result<_, _>>()?;

    let sp =
        lc_data::file_by_name(file_name).ok_or_else(|| format!("unknown file {file_name:?}"))?;
    let run =
        lc_study::runner::run_at_paper_scale(sp, lc_data::Scale::denominator(512), &components);
    let (paper_bytes, comp_bytes) = (run.uncompressed, run.compressed);
    let t_enc = run.time(&cfg, Direction::Encode);
    let t_dec = run.time(&cfg, Direction::Decode);
    println!("pipeline : {pipeline_text}");
    println!("input    : {file_name} ({paper_bytes} bytes at paper scale)");
    println!("platform : {}", cfg.label());
    println!("ratio    : {:.3}", paper_bytes as f64 / comp_bytes as f64);
    println!(
        "encode   : {:.1} GB/s ({:.3} ms)",
        gpu_sim::throughput_gbs(paper_bytes, t_enc),
        t_enc * 1e3
    );
    println!(
        "decode   : {:.1} GB/s ({:.3} ms)",
        gpu_sim::throughput_gbs(paper_bytes, t_dec),
        t_dec * 1e3
    );
    Ok(())
}
