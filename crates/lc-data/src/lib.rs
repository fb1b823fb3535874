//! Synthetic SP dataset (stand-in for paper Table 3).
//!
//! The paper evaluates on the SP dataset: 13 single-precision files from
//! several domains — MPI message traces (`msg_*`), simulation results
//! (`num_*`), and observational data (`obs_*`) — totalling ≈ 959 MB. The
//! files themselves are not redistributable here, so this crate generates
//! **seeded synthetic equivalents** with the same names, the same
//! *relative* sizes (scalable via [`Scale`]), and domain-plausible value
//! structure:
//!
//! * smooth autocorrelated fields (AR(1) walks, sine mixtures) so that
//!   DIFF-style predictors produce small residuals;
//! * shared exponent ranges so leading-zero reducers (CLOG) and upper-bit
//!   reducers (RARE/RAZE) find structure after mutation;
//! * exact value repeats and sentinel runs (missing-data markers, padded
//!   message buffers) so RLE/RRE find runs **at 4-byte granularity only**
//!   — the property behind the paper's Fig. 11;
//! * noisy low-order mantissa bits so nothing is trivially compressible.
//!
//! Generation is deterministic: a given `(file, scale)` pair always yields
//! identical bytes, across runs and platforms.

#![forbid(unsafe_code)]

pub mod dp;
pub mod generators;
pub mod profile;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One file of the (synthetic) SP dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpFile {
    /// File name as in the SP dataset.
    pub name: &'static str,
    /// Size in the paper's Table 3, in tenths of a megabyte (133.2 MB →
    /// 1332). Kept integral so the table is exactly representable.
    pub paper_size_tenth_mb: u32,
    /// Which generator family shapes this file's values.
    pub domain: Domain,
}

/// Value-structure family of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// MPI message payloads: blocky, repeated buffers, padded regions.
    Message,
    /// Numerical simulation fields: smooth with multiscale structure.
    Simulation,
    /// Instrument observations: autocorrelated noise, quantized levels,
    /// missing-value sentinels.
    Observation,
}

/// The 13 files of paper Table 3, in table order (sizes in MB:
/// 133.2, 97.1, 145.1, 139.5, 62.9, 70.9, 53.7, 79.8, 17.5, 31.1, 9.5,
/// 99.1, 20.0; "obs_info" at 9.5 MB is named in §5).
pub const SP_FILES: [SpFile; 13] = [
    SpFile {
        name: "msg_bt",
        paper_size_tenth_mb: 1332,
        domain: Domain::Message,
    },
    SpFile {
        name: "msg_lu",
        paper_size_tenth_mb: 971,
        domain: Domain::Message,
    },
    SpFile {
        name: "msg_sp",
        paper_size_tenth_mb: 1451,
        domain: Domain::Message,
    },
    SpFile {
        name: "msg_sppm",
        paper_size_tenth_mb: 1395,
        domain: Domain::Message,
    },
    SpFile {
        name: "msg_sweep3d",
        paper_size_tenth_mb: 629,
        domain: Domain::Message,
    },
    SpFile {
        name: "num_brain",
        paper_size_tenth_mb: 709,
        domain: Domain::Simulation,
    },
    SpFile {
        name: "num_comet",
        paper_size_tenth_mb: 537,
        domain: Domain::Simulation,
    },
    SpFile {
        name: "num_control",
        paper_size_tenth_mb: 798,
        domain: Domain::Simulation,
    },
    SpFile {
        name: "num_plasma",
        paper_size_tenth_mb: 175,
        domain: Domain::Simulation,
    },
    SpFile {
        name: "obs_error",
        paper_size_tenth_mb: 311,
        domain: Domain::Observation,
    },
    SpFile {
        name: "obs_info",
        paper_size_tenth_mb: 95,
        domain: Domain::Observation,
    },
    SpFile {
        name: "obs_spitzer",
        paper_size_tenth_mb: 991,
        domain: Domain::Observation,
    },
    SpFile {
        name: "obs_temp",
        paper_size_tenth_mb: 200,
        domain: Domain::Observation,
    },
];

/// Total paper size of the dataset in MB (≈ 959 MB).
pub fn paper_total_mb() -> f64 {
    SP_FILES
        .iter()
        .map(|f| f.paper_size_tenth_mb as f64 / 10.0)
        .sum()
}

/// Scale factor mapping paper sizes to generated sizes.
///
/// `Scale::denominator(d)` generates `paper_size / d` bytes per file,
/// rounded to whole f32 values and to at least [`Scale::MIN_BYTES`] so
/// every file spans several 16 kB chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    denominator: u32,
}

impl Scale {
    /// Every generated file has at least this many bytes (4 chunks).
    pub const MIN_BYTES: usize = 4 * 16 * 1024;

    /// The paper's full sizes (denominator 1). ~959 MB total — only for
    /// explicitly requested full-scale runs.
    pub fn full() -> Self {
        Self { denominator: 1 }
    }

    /// `1/d` of the paper's sizes.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn denominator(d: u32) -> Self {
        assert!(d > 0, "scale denominator must be positive");
        Self { denominator: d }
    }

    /// Default experiment scale: 1/512 of the paper (~1.9 MB total),
    /// chosen so the full 107,632-pipeline campaign finishes in minutes.
    pub fn default_study() -> Self {
        Self::denominator(512)
    }

    /// Tiny scale for unit tests and Criterion benches.
    pub fn tiny() -> Self {
        Self::denominator(8192)
    }

    /// The denominator `d` this scale was built with (1 = paper size).
    /// Stable identity token for campaign journals and reports.
    pub fn divisor(&self) -> u32 {
        self.denominator
    }

    /// Generated byte size for `file` at this scale.
    pub fn bytes_for(&self, file: &SpFile) -> usize {
        let full = file.paper_size_tenth_mb as u64 * 1_000_000 / 10;
        let scaled = (full / self.denominator as u64) as usize;
        let aligned = scaled / 4 * 4;
        aligned.max(Self::MIN_BYTES)
    }
}

/// Generate the bytes of `file` at `scale`.
///
/// Deterministic: the RNG seed derives from the file name only.
///
/// ```
/// use lc_data::{file_by_name, generate, Scale};
/// let f = file_by_name("obs_info").unwrap();
/// let bytes = generate(f, Scale::tiny());
/// assert!(bytes.len() >= Scale::MIN_BYTES);
/// assert_eq!(bytes, generate(f, Scale::tiny()), "deterministic");
/// ```
pub fn generate(file: &SpFile, scale: Scale) -> Vec<u8> {
    let bytes = scale.bytes_for(file);
    let n_vals = bytes / 4;
    let mut rng = StdRng::seed_from_u64(seed_of(file.name));
    let vals = match file.domain {
        Domain::Message => generators::message(&mut rng, n_vals, file.name),
        Domain::Simulation => generators::simulation(&mut rng, n_vals, file.name),
        Domain::Observation => generators::observation(&mut rng, n_vals, file.name),
    };
    let mut out = Vec::with_capacity(bytes);
    for v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Look up a file descriptor by name.
pub fn file_by_name(name: &str) -> Option<&'static SpFile> {
    SP_FILES.iter().find(|f| f.name == name)
}

/// Stable 64-bit seed for a file name (FNV-1a).
pub(crate) fn seed_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Generate the whole dataset at `scale`, in Table 3 order.
#[cfg(test)]
pub(crate) fn generate_all(scale: Scale) -> Vec<(&'static str, Vec<u8>)> {
    SP_FILES
        .iter()
        .map(|f| (f.name, generate(f, scale)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_files_total_about_959_mb() {
        assert_eq!(SP_FILES.len(), 13);
        let total = paper_total_mb();
        assert!((total - 959.4).abs() < 0.2, "total {total}");
    }

    #[test]
    fn obs_info_is_the_smallest_at_9_5_mb() {
        let smallest = SP_FILES
            .iter()
            .min_by_key(|f| f.paper_size_tenth_mb)
            .unwrap();
        assert_eq!(smallest.name, "obs_info");
        assert_eq!(smallest.paper_size_tenth_mb, 95);
    }

    #[test]
    fn generation_is_deterministic() {
        let f = file_by_name("num_plasma").unwrap();
        let a = generate(f, Scale::tiny());
        let b = generate(f, Scale::tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn different_files_differ() {
        let a = generate(file_by_name("msg_bt").unwrap(), Scale::tiny());
        let b = generate(file_by_name("msg_lu").unwrap(), Scale::tiny());
        assert_ne!(a[..1024], b[..1024]);
    }

    #[test]
    fn scale_respects_relative_sizes_and_minimum() {
        let s = Scale::denominator(512);
        let big = s.bytes_for(file_by_name("msg_sp").unwrap());
        let small = s.bytes_for(file_by_name("obs_info").unwrap());
        assert!(big > small);
        assert!(small >= Scale::MIN_BYTES);
        // Ratio roughly matches the paper's 145.1 / 9.5 (floored by the
        // minimum size).
        let ratio = big as f64 / small as f64;
        assert!(
            ratio > 4.0,
            "minimum floor compresses the ratio, ratio={ratio}"
        );
    }

    #[test]
    fn sizes_are_f32_aligned() {
        for f in &SP_FILES {
            assert_eq!(Scale::tiny().bytes_for(f) % 4, 0, "{}", f.name);
        }
    }

    /// The campaign sizes its pricing context from `bytes_for` without
    /// generating the input, so the two must agree on every file.
    #[test]
    fn generated_length_is_bytes_for() {
        for d in [8192, 512, 64] {
            let s = Scale::denominator(d);
            for f in &SP_FILES {
                assert_eq!(generate(f, s).len(), s.bytes_for(f), "{} at 1/{d}", f.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_denominator_panics() {
        Scale::denominator(0);
    }

    #[test]
    fn generate_all_covers_every_file() {
        let all = generate_all(Scale::tiny());
        assert_eq!(all.len(), 13);
        for (name, bytes) in &all {
            assert!(bytes.len() >= Scale::MIN_BYTES, "{name}");
        }
    }
}
