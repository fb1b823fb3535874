//! Double-precision dataset extension.
//!
//! The SP dataset descends from Burtscher & Ratanaworabhan's DCC'07 work,
//! which is actually about *double*-precision data; LC's published
//! compressors come in SP and DP flavors (SPspeed/DPspeed, …), and the
//! component-importance study the paper cites (Azami & Burtscher,
//! ISPASS'25) found that "the preferred word size of certain components
//! depends on the data type of the input (single- vs double-precision)".
//!
//! This module generates double-precision variants of the same 13 files:
//! identical domain structure, 8-byte values. The hypothesis it enables —
//! on DP data, exact repeats live at 8-byte granularity, so RLE_8 (not
//! RLE_4) becomes the compressing variant and the Fig. 11 effect moves one
//! word size up — is asserted in this module's tests and exercised by the
//! `dp_wordsize` example.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{seed_of, Domain, Scale, SpFile};

/// Generate the double-precision variant of `file` at `scale`.
///
/// The byte size matches the SP variant (same [`Scale`] semantics), so the
/// DP file holds half as many values.
pub fn generate_dp(file: &SpFile, scale: Scale) -> Vec<u8> {
    let bytes = scale.bytes_for(file) / 8 * 8;
    let n_vals = bytes / 8;
    let mut rng = StdRng::seed_from_u64(seed_of(file.name) ^ 0xD0D0_D0D0_D0D0_D0D0);
    let vals = match file.domain {
        Domain::Message => message_dp(&mut rng, n_vals, file.name),
        Domain::Simulation => simulation_dp(&mut rng, n_vals, file.name),
        Domain::Observation => observation_dp(&mut rng, n_vals, file.name),
    };
    let mut out = Vec::with_capacity(bytes);
    for v in vals {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

fn salt(name: &str) -> f64 {
    let s: u32 = name.bytes().map(u32::from).sum();
    f64::from(s % 97) / 97.0
}

fn message_dp(rng: &mut StdRng, n: usize, name: &str) -> Vec<f64> {
    let salt = salt(name);
    let mut out = Vec::with_capacity(n);
    let template: Vec<f64> = (0..256)
        .map(|i| (1.0 + salt) * (1.0 + 0.01 * (i as f64).sin()) + rng.random::<f64>() * 1e-6)
        .collect();
    while out.len() < n {
        match rng.random_range(0..10u32) {
            0..=4 => out.extend(template.iter().take(n - out.len())),
            // Constant marker whose eight bytes are all distinct: repeats
            // at 8-byte granularity only.
            5..=7 => {
                let len = rng.random_range(8..128usize).min(n - out.len());
                let v = f64::from_bits(0x3FF0_1234_5678_9ABC ^ ((salt * 255.0) as u64));
                out.extend(std::iter::repeat_n(v, len));
            }
            _ => {
                let len = rng.random_range(8..64usize).min(n - out.len());
                for _ in 0..len {
                    out.push(f64::from_bits(rng.random::<u64>() & 0x7FEF_FFFF_FFFF_FFFF));
                }
            }
        }
    }
    out.truncate(n);
    out
}

fn simulation_dp(rng: &mut StdRng, n: usize, name: &str) -> Vec<f64> {
    let salt = salt(name);
    let mut ar = 0.0f64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        ar = 0.995 * ar + rng.random_range(-1.0..1.0) * 0.01;
        let x = i as f64;
        out.push(10.0 + salt * 100.0 + (x * 0.002).sin() * 4.0 + (x * 0.11).sin() * 0.05 + ar);
    }
    out
}

fn observation_dp(rng: &mut StdRng, n: usize, name: &str) -> Vec<f64> {
    let salt = salt(name);
    let quantum = 0.01 * (1.0 + salt * 9.0);
    let mut level = 250.0 + salt * 50.0;
    let mut out = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        if rng.random_range(0..100u32) < 3 {
            let len = rng.random_range(3..10usize).min(n - i);
            out.extend(std::iter::repeat_n(-9999.0f64, len));
            i += len;
            continue;
        }
        level += rng.random_range(-1.0..1.0) * 0.3;
        out.push((level / quantum).round() * quantum);
        i += 1;
    }
    out.truncate(n);
    out
}

/// Generate the whole DP dataset at `scale`, Table 3 order.
#[cfg(test)]
pub(crate) fn generate_all_dp(scale: Scale) -> Vec<(&'static str, Vec<u8>)> {
    crate::SP_FILES
        .iter()
        .map(|f| (f.name, generate_dp(f, scale)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_by_name;

    #[test]
    fn dp_generation_is_deterministic_and_sized() {
        let f = file_by_name("obs_temp").unwrap();
        let a = generate_dp(f, Scale::tiny());
        let b = generate_dp(f, Scale::tiny());
        assert_eq!(a, b);
        assert_eq!(a.len() % 8, 0);
        assert!(a.len() >= Scale::MIN_BYTES - 8);
    }

    #[test]
    fn dp_differs_from_sp() {
        let f = file_by_name("num_brain").unwrap();
        let sp = crate::generate(f, Scale::tiny());
        let dp = generate_dp(f, Scale::tiny());
        assert_ne!(sp[..512], dp[..512]);
    }

    #[test]
    fn dp_repeats_live_at_8_byte_granularity() {
        // The word-size/data-type hypothesis: consecutive equal 8-byte
        // words are common, equal 4-byte half-words across value
        // boundaries are not.
        let f = file_by_name("obs_error").unwrap();
        let data = generate_dp(f, Scale::tiny());
        let n8 = data.len() / 8;
        let w8 = |i: usize| u64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().unwrap());
        let repeats8 = (1..n8).filter(|&i| w8(i) == w8(i - 1)).count();
        assert!(
            repeats8 * 50 > n8,
            "quantized DP data must repeat at 8-byte granularity: {repeats8}/{n8}"
        );
    }

    #[test]
    fn generate_all_dp_covers_13_files() {
        let all = generate_all_dp(Scale::tiny());
        assert_eq!(all.len(), 13);
    }
}
