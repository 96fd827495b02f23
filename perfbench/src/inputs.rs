//! Workload inputs: pantries, arrival times and request seeds. Every
//! input is a pure function of the workload seed (and the run length,
//! which sets how many arrivals fit), drawn with the benchmark's own
//! generator so a change to the program's RNG cannot change them.

use ratatouille::recipedb::ontology::INGREDIENTS;

/// SplitMix64: small, seedable, and a bijection per output step.
struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// The SplitMix64 finalizer, a bijection on `u64`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent input streams of one run. Request seeds are distinct
/// across every (stream, index) pair of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The open-loop arrival schedule.
    Open = 1,
    /// The closed-loop request pool.
    Closed = 2,
    /// Warm-up requests sent during set-up.
    Warm = 3,
    /// The offline batch's pantry list.
    Offline = 4,
    /// Which requests the output check replays.
    Replay = 5,
}

fn stream_rng(seed: u64, stream: Stream) -> Rng {
    Rng::new(mix(seed ^ mix(stream as u64)))
}

/// Request seeds stay below 2^53: the API reads `"seed"` as a JSON
/// number, and larger integers do not survive the trip through `f64`.
pub const SEED_LIMIT: u64 = 1 << 53;

/// A bijection on `0..SEED_LIMIT` (xorshifts and odd multiplies modulo
/// 2^53 are each invertible).
fn mix53(mut z: u64) -> u64 {
    let m = SEED_LIMIT - 1;
    z &= m;
    z ^= z >> 29;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9) & m;
    z ^= z >> 26;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB) & m;
    z ^ (z >> 31)
}

/// The `"seed"` field of request `index` of `stream`: `(stream, index)`
/// packs injectively below 2^53 and `mix53` is a bijection there, so no
/// two requests of a run share a sampling seed.
fn request_seed(seed: u64, stream: Stream, index: usize) -> u64 {
    mix53((mix(seed) >> 11) ^ ((stream as u64) << 40 | index as u64))
}

/// How a workload picks pantries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PantryMix {
    /// Every request a fresh 3–15-ingredient pantry.
    Unique,
    /// Zipf-skewed draws from a small set of long featured pantries.
    Popular,
}

/// Featured pantries in the popular mix.
const POPULAR_PANTRIES: usize = 8;
/// Ingredients per featured pantry (about 100 prompt tokens).
const POPULAR_LEN: usize = 19;

fn distinct_ingredients(rng: &mut Rng, k: usize) -> Vec<String> {
    let mut names: Vec<&str> = INGREDIENTS.iter().map(|i| i.name).collect();
    // Partial Fisher–Yates: the first k slots end up a uniform sample.
    for i in 0..k {
        let j = i + rng.below(names.len() - i);
        names.swap(i, j);
    }
    names[..k].iter().map(|s| s.to_string()).collect()
}

/// Draws pantries for one stream.
struct PantrySource {
    mix: PantryMix,
    rng: Rng,
    featured: Vec<Vec<String>>,
    /// Cumulative Zipf(s = 1) weights over the featured set.
    zipf_cdf: Vec<f64>,
}

impl PantrySource {
    pub fn new(mix: PantryMix, seed: u64, stream: Stream) -> PantrySource {
        // The featured set depends on the workload seed only, so every
        // stream of a run draws from the same pantries.
        let mut featured_rng = Rng::new(mix_seed(seed, 0xFEA7));
        let featured = match mix {
            PantryMix::Unique => Vec::new(),
            PantryMix::Popular => (0..POPULAR_PANTRIES)
                .map(|_| distinct_ingredients(&mut featured_rng, POPULAR_LEN))
                .collect(),
        };
        let weights: Vec<f64> = (1..=featured.len()).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        PantrySource {
            mix,
            rng: stream_rng(seed, stream),
            featured,
            zipf_cdf,
        }
    }

    pub fn next(&mut self) -> Vec<String> {
        match self.mix {
            PantryMix::Unique => {
                let k = 3 + self.rng.below(13);
                distinct_ingredients(&mut self.rng, k)
            }
            PantryMix::Popular => {
                let u = self.rng.next_f64();
                let rank = self
                    .zipf_cdf
                    .iter()
                    .position(|&c| u < c)
                    .unwrap_or(self.featured.len() - 1);
                self.featured[rank].clone()
            }
        }
    }
}

fn mix_seed(seed: u64, tag: u64) -> u64 {
    mix(seed ^ mix(tag))
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub pantry: Vec<String>,
    pub seed: u64,
    /// Send time relative to the phase start (0 outside the open loop).
    pub due_ns: u64,
}

/// Poisson arrivals at `rate` per second over `span_ns`, conditioned on
/// their count: the `rate * span` arrival times of a Poisson process are
/// uniform over the span given that count, so every seed offers exactly
/// the same load and only the arrival pattern varies.
pub fn open_schedule(mix: PantryMix, seed: u64, rate: f64, span_ns: u64) -> Vec<Request> {
    let count = (rate * span_ns as f64 / 1e9).round() as usize;
    let mut times = Rng::new(mix_seed(seed, 0xA771));
    let mut due: Vec<u64> = (0..count)
        .map(|_| (times.next_f64() * span_ns as f64) as u64)
        .collect();
    due.sort_unstable();
    let mut pantries = PantrySource::new(mix, seed, Stream::Open);
    due.into_iter()
        .enumerate()
        .map(|(i, due_ns)| Request {
            pantry: pantries.next(),
            seed: request_seed(seed, Stream::Open, i),
            due_ns,
        })
        .collect()
}

/// `count` unscheduled requests of one stream.
pub fn pool(mix: PantryMix, seed: u64, stream: Stream, count: usize) -> Vec<Request> {
    let mut pantries = PantrySource::new(mix, seed, stream);
    (0..count)
        .map(|i| Request {
            pantry: pantries.next(),
            seed: request_seed(seed, stream, i),
            due_ns: 0,
        })
        .collect()
}

/// `k` distinct indices below `n`, ascending, chosen by the seed.
pub fn replay_sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = stream_rng(seed, Stream::Replay);
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + rng.below(n - i);
        idx.swap(i, j);
    }
    let mut out = idx[..k].to_vec();
    out.sort_unstable();
    out
}

/// FNV-1a over byte chunks, each chunk length-prefixed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of requests in index order: due time, seed and pantry.
pub fn input_digest<'a>(requests: impl IntoIterator<Item = &'a Request>) -> Digest {
    let mut d = Digest::default();
    for r in requests {
        d.add(&r.due_ns.to_le_bytes());
        d.add(&r.seed.to_le_bytes());
        d.add(r.pantry.join("\u{1f}").as_bytes());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_inputs(seed: u64) -> String {
        let mut d = input_digest(&open_schedule(
            PantryMix::Popular,
            seed,
            20.0,
            5_000_000_000,
        ));
        let closed = pool(PantryMix::Unique, seed, Stream::Closed, 50);
        d.add(input_digest(&closed).hex().as_bytes());
        d.add(format!("{:?}", replay_sample(seed, 100, 8)).as_bytes());
        d.hex()
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(all_inputs(7), all_inputs(7));
        assert_ne!(all_inputs(7), all_inputs(8));
        for seed in 0..20 {
            assert_ne!(all_inputs(seed), all_inputs(seed + 1000));
        }
    }

    #[test]
    fn unique_pantries_have_3_to_15_distinct_ingredients() {
        let reqs = pool(PantryMix::Unique, 3, Stream::Closed, 500);
        for r in &reqs {
            assert!((3..=15).contains(&r.pantry.len()), "{:?}", r.pantry);
            let mut p = r.pantry.clone();
            p.sort();
            p.dedup();
            assert_eq!(p.len(), r.pantry.len());
        }
    }

    #[test]
    fn popular_pantries_come_from_a_small_skewed_set() {
        let reqs = pool(PantryMix::Popular, 3, Stream::Open, 2000);
        let mut counts = std::collections::BTreeMap::new();
        for r in &reqs {
            *counts.entry(r.pantry.clone()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), POPULAR_PANTRIES);
        let top = counts.values().max().copied().unwrap_or(0);
        assert!(
            top > 2000 / POPULAR_PANTRIES * 2,
            "top pantry drawn {top} times"
        );
        // Another stream of the same run shares the featured set.
        let other = pool(PantryMix::Popular, 3, Stream::Closed, 200);
        assert!(other.iter().all(|r| counts.contains_key(&r.pantry)));
    }

    #[test]
    fn request_seeds_are_distinct_within_a_run() {
        let mut seeds: Vec<u64> = open_schedule(PantryMix::Unique, 5, 50.0, 20_000_000_000)
            .iter()
            .chain(&pool(PantryMix::Unique, 5, Stream::Closed, 1000))
            .chain(&pool(PantryMix::Unique, 5, Stream::Warm, 10))
            .map(|r| r.seed)
            .collect();
        let n = seeds.len();
        assert!(seeds.iter().all(|&s| s < SEED_LIMIT));
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n);
    }

    #[test]
    fn schedule_offers_exactly_the_rate() {
        let reqs = open_schedule(PantryMix::Unique, 11, 20.0, 100_000_000_000);
        assert_eq!(reqs.len(), 2000);
        assert!(reqs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(reqs.last().is_some_and(|r| r.due_ns < 100_000_000_000));
        // Gaps look exponential: about 1 - 1/e of them are below the mean.
        let short = reqs
            .windows(2)
            .filter(|w| w[1].due_ns - w[0].due_ns < 50_000_000)
            .count();
        assert!(
            (1150..1380).contains(&short),
            "{short} of 1999 gaps below the mean"
        );
    }

    #[test]
    fn replay_sample_is_sorted_distinct_and_in_range() {
        let s = replay_sample(9, 40, 16);
        assert_eq!(s.len(), 16);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 40));
        assert_eq!(replay_sample(9, 5, 16).len(), 5);
    }
}
