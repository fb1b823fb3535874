//! Shared helpers for the `snapshot` and `diff` binaries: the snapshot
//! writes `BENCH_campaign.json`, and [`diff`] gates a fresh snapshot
//! against the committed baselines.

#![forbid(unsafe_code)]

pub mod diff;

use lc_data::{Scale, SP_FILES};

/// A multi-chunk input (~256 kB) for the snapshot's archive and kernel
/// sections.
pub fn sample_input() -> Vec<u8> {
    let mut data = Vec::new();
    for f in [&SP_FILES[10], &SP_FILES[12]] {
        data.extend(lc_data::generate(f, Scale::tiny()));
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_sizes() {
        assert!(sample_input().len() >= 2 * 65536);
    }
}
