//! The archive layer timed from outside: `archive::encode` and
//! `archive::decode` at one thread and at `nproc`, over a set of
//! payloads. The two codec workloads are this on 64 MiB; the other
//! workloads run it on their own, much smaller, payloads.

use std::time::Instant;

use lc_core::{archive, Pipeline};
use lc_parallel::Pool;

use crate::inputs;
use crate::metrics::{Outcome, Tally, Values};
use crate::trace::Tracer;

pub const FRAMEWORK_PIPELINE: &str = "DBEFS_4 DIFF_4 RZE_4";
pub const KERNEL_PIPELINE: &str = "BIT_4 RRE_1 RZE_1";

pub fn nproc() -> usize {
    lc_parallel::default_threads()
}

/// Payloads with their pipeline and reference archives.
pub struct CodecSet {
    pub payloads: Vec<Vec<u8>>,
    pub pipeline_text: String,
    pub pipeline: Pipeline,
    /// `archive::encode` of each payload at `nproc` threads.
    pub archives: Vec<Vec<u8>>,
}

impl CodecSet {
    pub fn build(payloads: Vec<Vec<u8>>, pipeline_text: &str) -> CodecSet {
        let pipeline = lc_components::parse_pipeline(pipeline_text)
            .unwrap_or_else(|e| panic!("pipeline {pipeline_text:?}: {e}"));
        let pool = Pool::new(nproc());
        let archives = payloads
            .iter()
            .map(|p| archive::encode(&pipeline, p, &pool))
            .collect();
        CodecSet {
            payloads,
            pipeline_text: pipeline_text.to_string(),
            pipeline,
            archives,
        }
    }

    pub fn bytes(&self) -> usize {
        self.payloads.iter().map(Vec::len).sum()
    }

    pub fn archive_bytes(&self) -> usize {
        self.archives.iter().map(Vec::len).sum()
    }

    pub fn mb(&self) -> f64 {
        self.bytes() as f64 / 1e6
    }

    pub fn compression_ratio(&self) -> f64 {
        self.bytes() as f64 / self.archive_bytes() as f64
    }
}

/// Seconds of each timed pass over the set, one entry per round.
#[derive(Default)]
pub struct CodecTimes {
    pub enc_1t: Vec<f64>,
    pub dec_1t: Vec<f64>,
    pub enc_nt: Vec<f64>,
    pub dec_nt: Vec<f64>,
}

impl CodecTimes {
    /// One round: encode and decode every payload with `Pool::new(1)`,
    /// then with `Pool::new(nproc)`. Each call is its own span; outputs
    /// are compared outside them. An encode must reproduce the reference
    /// archive byte for byte (so one thread and `nproc` agree), a decode
    /// the payload.
    pub fn round(&mut self, set: &CodecSet, tracer: &mut Tracer, tally: &mut Tally) {
        for (threads, enc, dec) in [
            (1, &mut self.enc_1t, &mut self.dec_1t),
            (nproc(), &mut self.enc_nt, &mut self.dec_nt),
        ] {
            let pool = Pool::new(threads);
            let suffix = if threads == 1 { "1t" } else { "nt" };
            let mut enc_s = 0.0;
            let mut dec_s = 0.0;
            for (payload, reference) in set.payloads.iter().zip(&set.archives) {
                let (out, s) = tracer.timed(&format!("lc-core.archive.encode.{suffix}"), |_| {
                    archive::encode(&set.pipeline, std::hint::black_box(payload), &pool)
                });
                enc_s += s;
                tally.op(out == *reference, || {
                    format!("{threads}-thread archive differs from the reference")
                });
                drop(out);
                let (back, s) = tracer.timed(&format!("lc-core.archive.decode.{suffix}"), |_| {
                    archive::decode(
                        std::hint::black_box(reference),
                        lc_components::lookup,
                        &pool,
                    )
                });
                dec_s += s;
                tally.op(back.as_deref() == Ok(payload.as_slice()), || {
                    format!("{threads}-thread decode differs from the input")
                });
            }
            enc.push(enc_s);
            dec.push(dec_s);
        }
    }

    /// Repeat [`CodecTimes::round`] for `seconds`, after one discarded
    /// warm-up round.
    pub fn measure(set: &CodecSet, seconds: f64, tracer: &mut Tracer, tally: &mut Tally) -> Self {
        CodecTimes::default().round(set, &mut Tracer::new(false), tally);
        let mut times = CodecTimes::default();
        let start = Instant::now();
        let mut run = 0;
        while run < 3 || start.elapsed().as_secs_f64() < seconds {
            run += 1;
            tracer.set_run(run);
            tracer.timed("round", |t| times.round(set, t, tally));
        }
        times
    }

    /// The four archive rates, as input MB/s.
    pub fn set_rates(&self, set: &CodecSet, values: &mut Values) {
        let mb = set.mb();
        values.set_median("encode_mb_s", &self.enc_nt, |s| mb / s);
        values.set_median("decode_mb_s", &self.dec_nt, |s| mb / s);
        values.set_median("encode_1t_mb_s", &self.enc_1t, |s| mb / s);
        values.set_median("decode_1t_mb_s", &self.dec_1t, |s| mb / s);
    }
}

/// Median time of `setup`, run at least three times and until half a
/// second has gone into it (a set-up of a few milliseconds needs many
/// more than three samples to have a median worth comparing). The
/// benchmark contract asks for this median of several set-ups; it costs
/// a run 0.5 to 2 s outside `--seconds`. The last state is kept; each
/// earlier one is dropped before the next is built.
pub fn median_setup<T>(tracer: &mut Tracer, mut setup: impl FnMut(&mut Tracer) -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut state = None;
    while secs.len() < 3 || (secs.len() < 100 && secs.iter().sum::<f64>() < 0.5) {
        drop(state.take());
        let (s, t) = tracer.timed("setup", &mut setup);
        state = Some(s);
        secs.push(t);
    }
    (
        state.expect("at least three set-ups ran"),
        crate::stats::median(&secs),
    )
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb * 1024.0 / 1e6
}

pub struct CodecRun {
    pub set: CodecSet,
    pub times: CodecTimes,
    pub generate_s: f64,
    pub setup_s: f64,
    pub tally: Tally,
}

/// Set-up and main loop of a codec workload, the same in both modes.
pub fn run_main(framework: bool, seed: u64, seconds: f64, tracer: &mut Tracer) -> CodecRun {
    let mut generate_s = 0.0;
    let (set, setup_s) = median_setup(tracer, |t| {
        let (input, s) = t.timed("lc-data.generate", |_| {
            if framework {
                inputs::codec_framework_input(seed, inputs::CODEC_INPUT_BYTES)
            } else {
                inputs::codec_kernel_input(seed, inputs::CODEC_INPUT_BYTES)
            }
        });
        generate_s = s;
        let text = if framework {
            FRAMEWORK_PIPELINE
        } else {
            KERNEL_PIPELINE
        };
        CodecSet::build(vec![input], text)
    });
    let mut tally = Tally::default();
    let times = CodecTimes::measure(&set, seconds, tracer, &mut tally);
    CodecRun {
        set,
        times,
        generate_s,
        setup_s,
        tally,
    }
}

/// What a run hands back: its findings, and what the environment record
/// needs (the inputs, and a line about the run).
pub struct Report {
    pub outcome: Outcome,
    pub set: CodecSet,
    pub detail: String,
}

/// The traced run of a codec workload: a shorter main loop with spans
/// kept, then the layer probes.
pub fn traced(framework: bool, seed: u64, seconds: f64, tracer: &mut Tracer) -> Report {
    let mut run = run_main(framework, seed, seconds, tracer);
    let values = crate::layers::probe(
        &run.set,
        Some(&run.times),
        run.generate_s,
        tracer,
        &mut run.tally,
    );
    Report {
        outcome: Outcome {
            tally: run.tally,
            values,
        },
        set: run.set,
        detail: String::new(),
    }
}

/// End-to-end metrics of a codec workload. Beyond the four rates: one
/// operation is an `nproc`-thread encode plus decode of the input, so
/// `goodput_rps` counts those per second and the latencies are its time;
/// one pipeline applied to one file is an `nproc`-thread encode.
pub fn end_to_end(framework: bool, seed: u64, seconds: f64) -> Report {
    let mut run = run_main(framework, seed, seconds, &mut Tracer::new(false));
    crate::layers::stream_pass(&run.set, &mut Tracer::new(false), &mut run.tally);
    let mut values = Values::default();
    run.times.set_rates(&run.set, &mut values);
    values.set("compression_ratio", run.set.compression_ratio());
    values.set_median("pipelines_per_s", &run.times.enc_nt, |s| 1.0 / s);
    let trips: Vec<f64> = run
        .times
        .enc_nt
        .iter()
        .zip(&run.times.dec_nt)
        .map(|(e, d)| e + d)
        .collect();
    values.set(
        "goodput_rps",
        trips.len() as f64 / trips.iter().sum::<f64>(),
    );
    values.set_latency(&trips.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    values.set("setup_s", run.setup_s);
    values.set("peak_rss_mb", peak_rss_mb());
    Report {
        outcome: Outcome {
            tally: run.tally,
            values,
        },
        set: run.set,
        detail: String::new(),
    }
}
