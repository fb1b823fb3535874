//! Everything `--seed` decides. The programs under test receive only
//! the bytes, file order, request mix and arrival times built here.

use lc_data::{generators, Domain, SpFile};
use lc_serve::Op;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub const MIB: usize = 1 << 20;
pub const KIB: usize = 1 << 10;

/// Bytes of input per codec workload: 32x the 2 MiB per-core L2, so the
/// archive layer streams from memory. Every buffer the archive layer
/// allocates for it (the archive, the decoded output) is then above
/// glibc's 32 MiB ceiling for its moving mmap threshold, so each call
/// maps and unmaps fresh pages whatever came before; at 32 MiB the same
/// buffers fall on the threshold, later calls reuse heap pages or not
/// depending on history, and peak RSS moved 14 % and the rates 25 % from
/// run to run. (The VM reports a 260 MiB L3 that is shared with the
/// host; exceeding it 4x does not fit the run budget.)
pub const CODEC_INPUT_BYTES: usize = 64 * MIB;

// Sub-streams of the seed, one per purpose.
const FRAMEWORK: u64 = 0;
const KERNEL: u64 = 1;
const CAMPAIGN: u64 = 2;
const PAYLOADS: u64 = 3;
const ARRIVALS: u64 = 4;
/// Plus the client index.
const MIX: u64 = 5;

/// An independent generator per purpose, so that no consumer shifts the
/// values another one sees.
fn stream(seed: u64, purpose: u64) -> StdRng {
    let mut root = StdRng::seed_from_u64(seed);
    let mut sub = 0;
    for _ in 0..=purpose {
        sub = root.next_u64();
    }
    StdRng::seed_from_u64(sub)
}

/// `bytes` of little-endian f32 data of one domain.
///
/// Built from independently seeded 1 MiB segments: the observation
/// generator is a random walk, and one 64 MiB walk drifts far enough to
/// change the compression ratio by several percent from seed to seed.
/// Restarting it every segment keeps seeds statistically alike.
pub fn domain_bytes(rng: &mut StdRng, domain: Domain, bytes: usize) -> Vec<u8> {
    assert_eq!(bytes % 4, 0, "inputs are whole f32 values");
    let mut out = Vec::with_capacity(bytes);
    while out.len() < bytes {
        let n = (bytes - out.len()).min(MIB) / 4;
        let mut segment = StdRng::seed_from_u64(rng.next_u64());
        let values = match domain {
            Domain::Message => generators::message(&mut segment, n, "msg_bt"),
            Domain::Simulation => generators::simulation(&mut segment, n, "num_brain"),
            Domain::Observation => generators::observation(&mut segment, n, "obs_temp"),
        };
        for v in values {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

/// `codec_framework` input: message-domain data.
pub fn codec_framework_input(seed: u64, bytes: usize) -> Vec<u8> {
    domain_bytes(&mut stream(seed, FRAMEWORK), Domain::Message, bytes)
}

/// `codec_kernel` input: observation data, then simulation data.
pub fn codec_kernel_input(seed: u64, bytes: usize) -> Vec<u8> {
    let mut rng = stream(seed, KERNEL);
    let half = bytes / 2 / 4 * 4;
    let mut out = domain_bytes(&mut rng, Domain::Observation, half);
    out.extend(domain_bytes(&mut rng, Domain::Simulation, bytes - half));
    out
}

/// `campaign_sweep` files, one per domain. The campaign API takes files
/// by name and `lc-data` fixes their bytes, so a seed cannot change
/// them; a seeded pick among the 13 files changes the input size 4x
/// and the sweep time 2.5x, which would bury every other effect. The
/// seed decides the order the files are swept in.
pub fn campaign_files(seed: u64) -> Vec<&'static SpFile> {
    let mut files: Vec<&'static SpFile> = ["msg_bt", "num_brain", "obs_temp"]
        .iter()
        .map(|n| lc_data::file_by_name(n).expect("file of Table 3"))
        .collect();
    let mut rng = stream(seed, CAMPAIGN);
    for i in (1..files.len()).rev() {
        files.swap(i, rng.random_range(0..i + 1));
    }
    files
}

/// `serve_mixed` payload sizes.
pub const SERVE_SIZES: [usize; 3] = [64 * KIB, 128 * KIB, 512 * KIB];
/// Payloads per size; eight of each keep the corpus-wide compression
/// ratio alike from seed to seed.
pub const SERVE_VARIANTS: usize = 8;

/// `serve_mixed` raw payloads: every size in every domain in turn.
pub fn serve_payloads(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = stream(seed, PAYLOADS);
    let domains = [Domain::Message, Domain::Simulation, Domain::Observation];
    let mut out = Vec::new();
    for variant in 0..SERVE_VARIANTS {
        for (s, &size) in SERVE_SIZES.iter().enumerate() {
            out.push(domain_bytes(&mut rng, domains[(variant + s) % 3], size));
        }
    }
    out
}

/// One request of the mix: what to do with which payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixOp {
    pub op: Op,
    pub payload: usize,
}

/// The seeded request mix: pack 50 %, unpack 40 %, stat 10 %, payload
/// uniform over the corpus.
pub struct Mix {
    rng: StdRng,
    payloads: usize,
}

impl Mix {
    /// `client` separates the streams of concurrent closed-loop clients.
    pub fn new(seed: u64, client: u64, payloads: usize) -> Mix {
        Mix {
            rng: stream(seed, MIX + client),
            payloads,
        }
    }
}

impl Iterator for Mix {
    type Item = MixOp;

    fn next(&mut self) -> Option<MixOp> {
        let op = match self.rng.random_range(0..10u32) {
            0..=4 => Op::Pack,
            5..=8 => Op::Unpack,
            _ => Op::Stat,
        };
        Some(MixOp {
            op,
            payload: self.rng.random_range(0..self.payloads),
        })
    }
}

/// Due times in seconds from the phase start of `n` Poisson arrivals at
/// `rate` per second.
pub fn arrivals(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = stream(seed, ARRIVALS);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::checksum::crc32;

    #[test]
    fn same_seed_same_input_crcs_and_other_seed_differs() {
        let crcs = |seed| {
            let mut v = vec![
                crc32(&codec_framework_input(seed, 2 * MIB + 4096)),
                crc32(&codec_kernel_input(seed, 2 * MIB + 4096)),
            ];
            v.extend(serve_payloads(seed).iter().map(|p| crc32(p)));
            v
        };
        assert_eq!(crcs(11), crcs(11));
        let (a, b) = (crcs(11), crcs(12));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn inputs_have_the_requested_size() {
        assert_eq!(codec_framework_input(1, 3 * MIB + 8).len(), 3 * MIB + 8);
        assert_eq!(codec_kernel_input(1, 2 * MIB + 8).len(), 2 * MIB + 8);
        let sizes: Vec<usize> = serve_payloads(1).iter().map(Vec::len).collect();
        assert_eq!(sizes.len(), SERVE_SIZES.len() * SERVE_VARIANTS);
        assert!(sizes.chunks(3).all(|c| c == SERVE_SIZES));
    }

    #[test]
    fn campaign_files_are_one_per_domain_in_seeded_order() {
        let orders: std::collections::BTreeSet<Vec<&str>> = (0..32)
            .map(|s| campaign_files(s).iter().map(|f| f.name).collect())
            .collect();
        assert!(orders.len() > 1, "the seed permutes the files");
        for order in &orders {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, ["msg_bt", "num_brain", "obs_temp"]);
        }
        assert_eq!(
            campaign_files(5).iter().map(|f| f.name).collect::<Vec<_>>(),
            campaign_files(5).iter().map(|f| f.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mix_follows_the_stated_shares() {
        let ops: Vec<MixOp> = Mix::new(3, 0, 24).take(20_000).collect();
        let share = |op| ops.iter().filter(|m| m.op == op).count() as f64 / ops.len() as f64;
        assert!((share(Op::Pack) - 0.5).abs() < 0.02);
        assert!((share(Op::Unpack) - 0.4).abs() < 0.02);
        assert!((share(Op::Stat) - 0.1).abs() < 0.02);
        assert!(ops.iter().all(|m| m.payload < 24));
        let again: Vec<MixOp> = Mix::new(3, 0, 24).take(100).collect();
        assert_eq!(again[..], ops[..100]);
        let other: Vec<MixOp> = Mix::new(3, 1, 24).take(100).collect();
        assert_ne!(other[..], ops[..100]);
    }

    #[test]
    fn arrivals_are_increasing_at_the_stated_rate() {
        let due = arrivals(9, 250.0, 10_000);
        assert!(due.windows(2).all(|w| w[1] > w[0]));
        let rate = due.len() as f64 / due.last().unwrap();
        assert!((rate - 250.0).abs() < 10.0, "rate {rate}");
        assert_eq!(due, arrivals(9, 250.0, 10_000));
    }
}
