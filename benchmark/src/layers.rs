//! Per-layer probes of the traced run: each layer below the archive, and
//! each above it, timed on the workload's own payloads by calling the
//! layer's public functions. Every probe is a span; a metric is the
//! median over the probe's repeats.

use std::path::PathBuf;
use std::process::Command;

use lc_core::checksum::crc32;
use lc_core::stream::{decode_stream, StreamEncoder};
use lc_core::{archive, Component, KernelStats, CHUNK_SIZE};
use lc_parallel::{CancelToken, Pool};
use lc_serve::{proto, ExecContext, MemGovernor, Op, Request, Response};

use crate::codec::{nproc, CodecSet, CodecTimes};
use crate::metrics::{Tally, Values, COMPONENTS};
use crate::serve::{self, Running};
use crate::stats::median;
use crate::trace::Tracer;

/// Repeats of each probe; the first is not discarded, the median is.
const REPS: usize = 5;

/// Median seconds of `f` over [`REPS`] calls, each a span named `name`.
fn repeat(tracer: &mut Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..REPS).map(|_| tracer.timed(name, |_| f()).1).collect();
    median(&secs)
}

/// Medians of both members of the pairs `f` returns over `reps` calls.
fn median_pair(reps: usize, mut f: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    let (a, b): (Vec<f64>, Vec<f64>) = (0..reps).map(|_| f()).unzip();
    (median(&a), median(&b))
}

fn chunks(set: &CodecSet) -> Vec<&[u8]> {
    set.payloads
        .iter()
        .flat_map(|p| p.chunks(CHUNK_SIZE))
        .collect()
}

/// `encode_chunk` / `decode_chunk` of one component over every chunk,
/// into one retained buffer: seconds per pass, encode and decode.
fn component_pass(
    comp: &dyn Component,
    chunks: &[&[u8]],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (f64, f64) {
    let name = comp.name().to_lowercase();
    let mut buf = Vec::new();
    let enc = repeat(tracer, &format!("lc-components.{name}.encode"), || {
        let mut stats = KernelStats::new();
        for chunk in chunks {
            buf.clear();
            comp.encode_chunk(chunk, &mut buf, &mut stats);
            std::hint::black_box(&buf);
        }
    });
    let encoded: Vec<Vec<u8>> = chunks
        .iter()
        .map(|chunk| {
            let mut out = Vec::new();
            comp.encode_chunk(chunk, &mut out, &mut KernelStats::new());
            out
        })
        .collect();
    let dec = repeat(tracer, &format!("lc-components.{name}.decode"), || {
        let mut stats = KernelStats::new();
        for e in &encoded {
            buf.clear();
            let _ = comp.decode_chunk(e, &mut buf, &mut stats);
            std::hint::black_box(&buf);
        }
    });
    let exact = encoded.iter().zip(chunks).all(|(e, chunk)| {
        buf.clear();
        comp.decode_chunk(e, &mut buf, &mut KernelStats::new())
            .is_ok()
            && buf == *chunk
    });
    tally.op(exact, || format!("{name} does not invert its own output"));
    (enc, dec)
}

struct Scratch {
    enc_s: f64,
    dec_s: f64,
    skip_share: f64,
}

/// The pipeline's stages chained per chunk through `encode_stage` /
/// `decode_stage` with two retained buffers, on one thread: what a pool
/// worker does, without the pool, the archive or the checksums.
fn scratch_chain(
    set: &CodecSet,
    chunks: &[&[u8]],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Scratch {
    let stages = set.pipeline.stages();
    let (mut ping, mut pong) = (Vec::new(), Vec::new());
    let mut skipped = 0usize;
    let enc_s = repeat(tracer, "lc-core.scratch.encode", || {
        skipped = 0;
        let mut stats = KernelStats::new();
        for chunk in chunks {
            ping.clear();
            ping.extend_from_slice(chunk);
            for stage in stages {
                if lc_core::encode_stage(stage.as_ref(), &ping, &mut pong, &mut stats) {
                    std::mem::swap(&mut ping, &mut pong);
                } else {
                    skipped += 1;
                }
            }
            std::hint::black_box(&ping);
        }
    });
    let encoded: Vec<(Vec<u8>, Vec<bool>)> = chunks
        .iter()
        .map(|chunk| {
            let mut cur = chunk.to_vec();
            let mut out = Vec::new();
            let applied = stages
                .iter()
                .map(|stage| {
                    let a = lc_core::encode_stage(
                        stage.as_ref(),
                        &cur,
                        &mut out,
                        &mut KernelStats::new(),
                    );
                    if a {
                        std::mem::swap(&mut cur, &mut out);
                    }
                    a
                })
                .collect();
            (cur, applied)
        })
        .collect();
    // Decode every chunk back; `check` also compares the bytes, which
    // the timed passes leave to one untimed pass after them.
    let mut decode_all = |check: bool| {
        let mut stats = KernelStats::new();
        let mut exact = true;
        for ((enc, applied), chunk) in encoded.iter().zip(chunks) {
            ping.clear();
            ping.extend_from_slice(enc);
            for (stage, _) in stages.iter().zip(applied).rev().filter(|(_, a)| **a) {
                exact &=
                    lc_core::decode_stage(stage.as_ref(), &ping, &mut pong, &mut stats).is_ok();
                std::mem::swap(&mut ping, &mut pong);
            }
            exact &= !check || ping == *chunk;
            std::hint::black_box(&ping);
        }
        exact
    };
    let dec_s = repeat(tracer, "lc-core.scratch.decode", || {
        decode_all(false);
    });
    let exact = decode_all(true);
    tally.op(exact, || "stage chain does not invert itself".into());
    Scratch {
        enc_s,
        dec_s,
        skip_share: skipped as f64 / (chunks.len() * stages.len()) as f64,
    }
}

/// Share of chunks the archive stored with no stage applied.
fn raw_chunk_share(set: &CodecSet) -> f64 {
    let (mut raw, mut all) = (0usize, 0usize);
    for a in &set.archives {
        let h = archive::parse_header(a).expect("own archive parses");
        for i in 0..h.chunks as usize {
            all += 1;
            raw += usize::from(a[h.table_offset + i * h.entry_size()] == 0);
        }
    }
    raw as f64 / all as f64
}

/// `StreamEncoder::encode` / `decode_stream` through in-memory buffers:
/// seconds per pass, encode and decode. Also the stream round-trip
/// check of the untraced run.
pub fn stream_pass(set: &CodecSet, tracer: &mut Tracer, tally: &mut Tally) -> (f64, f64) {
    let pool = Pool::new(nproc());
    let (mut enc_s, mut dec_s) = (0.0, 0.0);
    for payload in &set.payloads {
        let mut packed = Vec::new();
        let (res, s) = tracer.timed("lc-core.stream.encode", |_| {
            StreamEncoder::new(&set.pipeline, pool).encode(&mut payload.as_slice(), &mut packed)
        });
        enc_s += s;
        let mut back = Vec::with_capacity(payload.len());
        let (n, s) = tracer.timed("lc-core.stream.decode", |_| {
            decode_stream(
                &mut packed.as_slice(),
                &mut back,
                lc_components::lookup,
                &pool,
            )
        });
        dec_s += s;
        let ok = res.is_ok() && n.is_ok_and(|n| n == payload.len() as u64) && back == *payload;
        tally.op(ok, || "stream round trip differs from the input".into());
    }
    (enc_s, dec_s)
}

/// `lc pack` and `lc unpack` as subprocesses, file to file in a
/// directory of the benchmark's own: seconds, pack and unpack.
fn cli_pass(set: &CodecSet, tracer: &mut Tracer, tally: &mut Tally) -> (f64, f64) {
    let lc = std::env::current_exe()
        .expect("own path")
        .with_file_name("lc");
    let dir = out_dir().join(format!("cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the CLI scratch directory");
    let (raw, packed, back) = (dir.join("in.bin"), dir.join("in.lc"), dir.join("back.bin"));
    let run = |tracer: &mut Tracer, name: &str, args: &[&std::ffi::OsStr]| {
        let (status, s) = tracer.timed(name, |_| {
            Command::new(&lc)
                .args(args)
                .stdout(std::process::Stdio::null())
                .status()
        });
        (status.is_ok_and(|s| s.success()), s)
    };
    let (mut pack_s, mut unpack_s) = (0.0, 0.0);
    for payload in &set.payloads {
        std::fs::write(&raw, payload).expect("write the CLI input");
        let (ok_pack, s) = run(
            tracer,
            "lc-cli.pack",
            &[
                "pack".as_ref(),
                "--pipeline".as_ref(),
                set.pipeline_text.as_ref(),
                raw.as_os_str(),
                packed.as_os_str(),
            ],
        );
        pack_s += s;
        let (ok_unpack, s) = run(
            tracer,
            "lc-cli.unpack",
            &["unpack".as_ref(), packed.as_os_str(), back.as_os_str()],
        );
        unpack_s += s;
        let same = std::fs::read(&back).is_ok_and(|b| b == *payload);
        tally.op(ok_pack && ok_unpack && same, || {
            format!("{} pack/unpack does not round-trip", lc.display())
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    (pack_s, unpack_s)
}

/// Where the benchmark writes: `benchmark/out/` of the checkout it was
/// built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A request with no deadline; only a pack names the pipeline.
pub fn request(set: &CodecSet, op: Op, payload: &[u8]) -> Request {
    Request {
        op,
        deadline_ms: 0,
        pipeline: if op == Op::Pack {
            set.pipeline_text.clone()
        } else {
            String::new()
        },
        payload: payload.to_vec(),
    }
}

struct ServeLayers {
    frame_s: f64,
    exec_pack_s: f64,
    exec_unpack_s: f64,
    loopback_pack_s: f64,
    stat_s: f64,
}

/// The service's layers one at a time, outside any load: framing through
/// a `Vec`, `exec::execute` with no socket, and single requests over
/// loopback to a live server (`stat` is the floor: connect, frame, queue
/// and write with no codec work).
fn serve_layers(set: &CodecSet, tracer: &mut Tracer, tally: &mut Tally) -> ServeLayers {
    let requests = |op, bodies: &[Vec<u8>]| -> Vec<Request> {
        bodies.iter().map(|b| request(set, op, b)).collect()
    };
    let packs = requests(Op::Pack, &set.payloads);
    let unpacks = requests(Op::Unpack, &set.archives);
    let frame_s = repeat(tracer, "lc-serve.proto.frame", || {
        for req in &packs {
            let mut wire = Vec::with_capacity(req.payload.len() + 64);
            let wrote = proto::write_request(&mut wire, req, 0);
            let read = proto::read_request(&mut wire.as_slice(), u64::MAX, 0);
            assert!(wrote.is_ok() && read.is_ok_and(|r| r == *req), "framing");
        }
    });
    let ctx = ExecContext {
        pool: Pool::new(1),
        max_decoded_bytes: u64::MAX,
        mem: MemGovernor::new(None),
    };
    let mut exec = |tracer: &mut Tracer, name: &str, reqs: &[Request], want: &[Vec<u8>]| {
        let mut replies = Vec::new();
        let s = repeat(tracer, name, || {
            replies.clear();
            for req in reqs {
                let cancel = CancelToken::new();
                replies.push(lc_serve::execute(
                    req,
                    &lc_components::lookup,
                    &ctx,
                    &cancel,
                ));
            }
        });
        let exact = replies
            .iter()
            .zip(want)
            .all(|(r, w)| matches!(r, Response::Ok(body) if body == w));
        tally.op(exact, || format!("{name} reply is wrong"));
        s
    };
    let exec_pack_s = exec(tracer, "lc-serve.exec.pack", &packs, &set.archives);
    let exec_unpack_s = exec(tracer, "lc-serve.exec.unpack", &unpacks, &set.payloads);

    let server = Running::start();
    let client = server.client();
    let mut loopback = |tracer: &mut Tracer, name: &str, reqs: &[Request]| {
        let mut ok = true;
        let s = repeat(tracer, name, || {
            for req in reqs {
                ok &= matches!(client.request_with_retry(req, 0), Ok(Response::Ok(_)));
            }
        });
        tally.op(ok, || format!("{name} request failed"));
        s
    };
    let loopback_pack_s = loopback(tracer, "lc-serve.loopback.pack", &packs);
    let stats = requests(Op::Stat, &set.archives);
    let stat_s = loopback(tracer, "lc-serve.loopback.stat", &stats) / stats.len() as f64;
    serve::check_summary(&server.stop(), tally);
    ServeLayers {
        frame_s,
        exec_pack_s,
        exec_unpack_s,
        loopback_pack_s,
        stat_s,
    }
}

/// Archive encode with `lc-telemetry` recording against the same call
/// with it off, and with the harness keeping spans against not: percent
/// of extra time. Neither may leak into an end-to-end metric, which is
/// why those are measured with both off.
fn overheads(set: &CodecSet, tracer: &mut Tracer) -> (f64, f64) {
    let pool = Pool::new(nproc());
    let encode = |tracer: &mut Tracer| {
        tracer
            .timed("lc-core.archive.encode.nt", |_| {
                for p in &set.payloads {
                    std::hint::black_box(archive::encode(&set.pipeline, p, &pool));
                }
            })
            .1
    };
    let mut silent = Tracer::new(false);
    let (mut plain, mut traced, mut telemetry) = (Vec::new(), Vec::new(), Vec::new());
    // The three arms differ by less than one encode differs from the
    // next, so each repeat starts with another arm.
    for rep in 0..3 * REPS {
        for arm in (0..3).map(|a| (a + rep) % 3) {
            match arm {
                0 => plain.push(encode(&mut silent)),
                1 => traced.push(encode(tracer)),
                _ => {
                    lc_telemetry::enable();
                    telemetry.push(encode(&mut silent));
                    lc_telemetry::disable();
                    std::hint::black_box(lc_telemetry::drain());
                }
            }
        }
    }
    lc_telemetry::reset();
    let base = median(&plain);
    (
        (median(&telemetry) / base - 1.0) * 100.0,
        (median(&traced) / base - 1.0) * 100.0,
    )
}

/// Every layer metric that is defined on any set of payloads, and the
/// ledger of adjacent layers' rates on those same bytes. `times` is the
/// traced main loop's archive timing where that loop is archive rounds;
/// otherwise a second of them is measured here.
pub fn probe(
    set: &CodecSet,
    times: Option<&CodecTimes>,
    generate_s: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Values {
    let measured;
    let times = match times {
        Some(t) => t,
        None => {
            measured = CodecTimes::measure(set, 1.0, tracer, tally);
            &measured
        }
    };
    let mut values = Values::default();
    let mb = set.mb();
    let chunks = chunks(set);
    tracer.set_run(0);
    values.set("lc-data.generate_mb_s", mb / generate_s);

    // Kernel layer: each listed component alone, and the pipeline's own
    // stages (which the list need not contain) for the ledger.
    let mut rates: Vec<(String, f64, f64)> = Vec::new();
    let wanted = COMPONENTS
        .iter()
        .map(|c| c.to_uppercase())
        .chain(set.pipeline.stages().iter().map(|s| s.name().to_string()));
    for name in wanted {
        if rates.iter().any(|r| r.0 == name) {
            continue;
        }
        let comp = lc_components::lookup(&name).unwrap_or_else(|| panic!("component {name}"));
        let (enc, dec) = component_pass(comp.as_ref(), &chunks, tracer, tally);
        rates.push((name, mb / enc, mb / dec));
    }
    for c in COMPONENTS {
        let r = rates
            .iter()
            .find(|r| r.0 == c.to_uppercase())
            .expect("probed");
        values.set(&format!("lc-components.{c}.enc_mb_s"), r.1);
        values.set(&format!("lc-components.{c}.dec_mb_s"), r.2);
    }
    // Every stage sees the whole input here; a reducer's successors see
    // less in a real chain, so this is the kernels' rate from below.
    let kernels_mb_s = 1.0
        / set
            .pipeline
            .stages()
            .iter()
            .map(|s| 1.0 / rates.iter().find(|r| r.0 == s.name()).expect("probed").1)
            .sum::<f64>();

    let scratch = scratch_chain(set, &chunks, tracer, tally);
    values.set("lc-core.scratch.enc_mb_s", mb / scratch.enc_s);
    values.set("lc-core.scratch.dec_mb_s", mb / scratch.dec_s);
    values.set("lc-core.scratch.stage_skip_share", scratch.skip_share);

    let mut crcs = Vec::new();
    let crc_s = repeat(tracer, "lc-core.checksum.crc32", || {
        crcs = set.payloads.iter().map(|p| crc32(p)).collect();
    });
    values.set("lc-core.checksum.crc32_mb_s", mb / crc_s);
    let crcs_match = set
        .archives
        .iter()
        .zip(&crcs)
        .all(|(a, crc)| archive::parse_header(a).is_ok_and(|h| h.crc32 == *crc));
    tally.op(crcs_match, || {
        "archive header CRC differs from crc32(input)".into()
    });

    let (enc_1t, dec_1t) = (median(&times.enc_1t), median(&times.dec_1t));
    let (enc_nt, dec_nt) = (median(&times.enc_nt), median(&times.dec_nt));
    values.set(
        "lc-core.archive.enc_1t_self_share",
        1.0 - scratch.enc_s / enc_1t,
    );
    values.set(
        "lc-core.archive.dec_1t_self_share",
        1.0 - scratch.dec_s / dec_1t,
    );
    values.set("lc-core.archive.raw_chunk_share", raw_chunk_share(set));
    const HEADER_PARSES: usize = 1000;
    let header_s = repeat(tracer, "lc-core.archive.parse_header", || {
        for _ in 0..HEADER_PARSES {
            for a in &set.archives {
                let _ = std::hint::black_box(archive::parse_header(std::hint::black_box(a)));
            }
        }
    });
    values.set(
        "lc-core.archive.parse_header_us",
        header_s * 1e6 / (HEADER_PARSES * set.archives.len()) as f64,
    );

    let (stream_enc_s, stream_dec_s) = median_pair(REPS, || stream_pass(set, tracer, tally));
    values.set("lc-core.stream.enc_mb_s", mb / stream_enc_s);
    values.set("lc-core.stream.dec_mb_s", mb / stream_dec_s);

    let pool = Pool::new(nproc());
    let empty_s = repeat(tracer, "lc-parallel.pool.run_empty", || {
        pool.run(chunks.len(), |i| {
            std::hint::black_box(i);
        })
    });
    values.set("lc-parallel.pool.run_empty_us", empty_s * 1e6);
    let sizes: Vec<u64> = chunks.iter().map(|c| c.len() as u64).collect();
    let mut total = 0;
    let scan_s = repeat(tracer, "lc-parallel.scan", || {
        total = lc_parallel::scan::parallel_exclusive_scan(&pool, &sizes).1;
    });
    tally.op(total == set.bytes() as u64, || "scan total is wrong".into());
    values.set(
        "lc-parallel.scan.melem_s",
        sizes.len() as f64 / scan_s / 1e6,
    );
    values.set("lc-parallel.scaling_eff", enc_1t / enc_nt / nproc() as f64);
    values.set(
        "lc-parallel.scaling_eff_dec",
        dec_1t / dec_nt / nproc() as f64,
    );

    let (pack_s, unpack_s) = median_pair(3, || cli_pass(set, tracer, tally));
    values.set("lc-cli.pack_mb_s", mb / pack_s);
    values.set("lc-cli.unpack_mb_s", mb / unpack_s);

    let sv = serve_layers(set, tracer, tally);
    let requests = set.payloads.len() as f64;
    values.set("lc-serve.proto.frame_mb_s", mb / sv.frame_s);
    values.set("lc-serve.exec.pack_ms", sv.exec_pack_s * 1e3 / requests);
    values.set("lc-serve.exec.unpack_ms", sv.exec_unpack_s * 1e3 / requests);
    values.set("lc-serve.loopback.stat_ms", sv.stat_s * 1e3);

    let (telemetry_pct, trace_pct) = overheads(set, tracer);
    values.set("lc-telemetry.enabled_overhead_pct", telemetry_pct);
    values.set("harness.trace_overhead_pct", trace_pct);

    // The ledger: the rate of the layer below over the rate of the layer
    // above, on the same bytes; 2 means the upper layer halves it.
    values.set(
        "ledger.kernels_to_scratch",
        kernels_mb_s / (mb / scratch.enc_s),
    );
    values.set("ledger.scratch_to_archive_1t", enc_1t / scratch.enc_s);
    values.set("ledger.archive_1t_to_nt", enc_nt / enc_1t);
    values.set("ledger.archive_to_cli", pack_s / enc_nt);
    // The server runs each request on a one-thread pool.
    values.set("ledger.archive_to_serve", sv.loopback_pack_s / enc_1t);
    values
}
