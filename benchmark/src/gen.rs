//! The benchmark's own input generator: splitmix64, a Zipf sampler and the
//! four workloads' op streams. Deliberately independent of `pim-workloads`,
//! so a later change to that crate cannot move what is measured.
//!
//! Every stream is a pure function of `(workload, seed)`.

use std::collections::VecDeque;

use pim_core::prelude::*;

/// PIM modules of every machine the benchmark builds.
pub const P: u32 = 64;
/// Resident keys after set-up. `2^17`, not the `2^18` the issue sketched:
/// the driver's cap (92 runs in 3420 s) leaves about 30 s per run for
/// three set-ups plus the measured window, and `bulk_load` is superlinear
/// (1.0 s here, 2.8 s at `2^18`).
pub const N: u64 = 1 << 17;
/// `Config::batch_large()` at `P = 64`; asserted against the built list.
pub const BATCH: usize = 2304;
/// Structure seed (tower coins, module hashing). Fixed: `--seed` moves the
/// inputs only, so model costs vary across seeds by input sampling alone.
pub const STRUCT_SEED: u64 = 42;

/// Resident key of index `i < N`: multiples of 4 centred on 0, so the
/// cluster tier's uniform cut at 0 splits them evenly, and every gap holds
/// three absent keys.
pub fn key_of(i: u64) -> Key {
    4 * (i as i64 - (N / 2) as i64)
}

/// Value loaded for resident index `i`.
pub fn value_of(i: u64) -> Value {
    i * 10 + 1
}

/// Index of `key` if it is one of the loaded resident keys.
pub fn index_of(key: Key) -> Option<u64> {
    let i = key.div_euclid(4) + (N / 2) as i64;
    (key.rem_euclid(4) == 0 && (0..N as i64).contains(&i)).then_some(i as u64)
}

/// The pairs `bulk_load` receives.
pub fn resident_pairs() -> Vec<(Key, Value)> {
    (0..N).map(|i| (key_of(i), value_of(i))).collect()
}

/// splitmix64 (Steele, Lea, Flood 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-high; bias below 2^-40 for our `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ) over ranks `0..n` by inverse-CDF table lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let mut cdf: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
        let mut acc = 0.0;
        for c in &mut cdf {
            acc += *c;
            *c = acc;
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// Popularity rank → resident index, a bijection on `0..N` (odd multiplier
/// modulo a power of two): skew without key locality.
pub fn scatter(rank: u64) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (N - 1)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Point,
    Search,
    Churn,
    Service,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Point,
        Workload::Search,
        Workload::Churn,
        Workload::Service,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::Search => "search",
            Workload::Churn => "churn",
            Workload::Service => "service",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Position of an op's family in [`Stream::kinds`].
pub fn kind_index(kind: OpKind) -> usize {
    match kind {
        OpKind::Get => 0,
        OpKind::Update => 1,
        OpKind::Upsert => 2,
        OpKind::Delete => 3,
        OpKind::Predecessor => 4,
        OpKind::Successor => 5,
        OpKind::Range => 6,
    }
}

/// One workload's op stream.
pub struct Stream {
    workload: Workload,
    rng: SplitMix64,
    zipf: Option<Zipf>,
    /// Bitset over resident indices, for drawing without replacement.
    seen: Vec<u64>,
    drawn: Vec<u64>,
    /// `churn`: fresh keys of the last two cycles, oldest first.
    history: VecDeque<Vec<Key>>,
    /// Ops generated so far per family, indexed by [`kind_index`].
    pub kinds: [u64; 7],
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Stream {
            workload,
            // Decorrelate the workloads' streams under one `--seed`.
            rng: SplitMix64::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            zipf: (workload == Workload::Service).then(|| Zipf::new(N, 0.99)),
            seen: vec![0; (N / 64) as usize],
            drawn: Vec::new(),
            history: VecDeque::new(),
            kinds: [0; 7],
        }
    }

    /// Fill `a` (and for two-batch cycles `b`) with the next cycle's ops:
    ///
    /// * `point` — `a` = [`BATCH`] Gets of uniformly random resident keys;
    /// * `search` — `a` = Successor, `b` = Predecessor, keys uniform over
    ///   the whole resident span (3/4 of them absent);
    /// * `churn` — `a` = Upsert of distinct keys, half fresh (in the gaps),
    ///   half overwrites; `b` = Delete of the fresh keys of two cycles ago
    ///   plus 10 % never-inserted keys, so the size is stationary;
    /// * `service` — `a` = one tick's `BATCH / 2` requests, Zipf(0.99) over
    ///   scattered ranks, 50 % Get / 15 % Update / 15 % Upsert / 5 % Delete
    ///   / 10 % Successor / 5 % 16-key Range Sum. Hot keys are written
    ///   again and again inside one coalesced batch, so the structure's
    ///   duplicate-write path (first-wins dedup) is on the measured path;
    ///   the oracle follows it (see `oracle.rs`).
    pub fn cycle(&mut self, a: &mut Vec<Op>, b: &mut Vec<Op>) {
        a.clear();
        b.clear();
        match self.workload {
            Workload::Point => {
                a.extend((0..BATCH).map(|_| Op::Get {
                    key: key_of(self.rng.below(N)),
                }));
            }
            Workload::Search => {
                let span = 4 * N;
                let lo = key_of(0);
                a.extend((0..BATCH).map(|_| Op::Successor {
                    key: lo + self.rng.below(span) as i64,
                }));
                b.extend((0..BATCH).map(|_| Op::Predecessor {
                    key: lo + self.rng.below(span) as i64,
                }));
            }
            Workload::Churn => {
                self.draw_distinct(BATCH);
                let mut fresh = Vec::with_capacity(BATCH / 2);
                for (j, &i) in self.drawn.iter().enumerate() {
                    let value = self.rng.next();
                    let key = if j % 2 == 0 {
                        let k = key_of(i) + 1 + (value & 1) as i64;
                        fresh.push(k);
                        k
                    } else {
                        key_of(i)
                    };
                    a.push(Op::Upsert { key, value });
                }
                self.history.push_back(fresh);
                if self.history.len() > 2 {
                    let old = self.history.pop_front().expect("len > 2");
                    b.extend(old.into_iter().map(|key| Op::Delete { key }));
                    self.draw_distinct(BATCH / 20);
                    b.extend(
                        self.drawn
                            .iter()
                            .map(|&i| Op::Delete { key: key_of(i) + 3 }),
                    );
                }
            }
            Workload::Service => {
                let zipf = self.zipf.as_ref().expect("service stream has a sampler");
                for _ in 0..BATCH / 2 {
                    let r = self.rng.next();
                    let key = key_of(scatter(zipf.sample(&mut self.rng)));
                    let value = r >> 16;
                    a.push(match r % 100 {
                        0..=49 => Op::Get { key },
                        50..=64 => Op::Update { key, value },
                        65..=79 => Op::Upsert { key, value },
                        80..=84 => Op::Delete { key },
                        85..=94 => Op::Successor {
                            key: key + (value % 4) as i64,
                        },
                        _ => Op::Range {
                            lo: key,
                            hi: key + 63,
                            func: RangeFunc::Sum,
                        },
                    });
                }
            }
        }
        for op in a.iter().chain(b.iter()) {
            self.kinds[kind_index(op.kind())] += 1;
        }
    }

    /// `count` distinct uniformly random resident indices into `self.drawn`.
    fn draw_distinct(&mut self, count: usize) {
        self.drawn.clear();
        while self.drawn.len() < count {
            let i = self.rng.below(N);
            let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
            if self.seen[word] & bit == 0 {
                self.seen[word] |= bit;
                self.drawn.push(i);
            }
        }
        for &i in &self.drawn {
            self.seen[(i / 64) as usize] &= !(1u64 << (i % 64));
        }
    }
}

/// Successor batches for the skew-independence probe: uniform, Zipf(0.99)
/// over scattered ranks, and a flood of distinct keys below the smallest
/// resident key (all share one successor).
pub fn skew_batches(seed: u64) -> [Vec<Op>; 3] {
    let mut rng = SplitMix64::new(seed ^ 0x5CE7);
    let zipf = Zipf::new(N, 0.99);
    let lo = key_of(0);
    let uniform = (0..BATCH)
        .map(|_| Op::Successor {
            key: lo + rng.below(4 * N) as i64,
        })
        .collect();
    let skewed = (0..BATCH)
        .map(|_| Op::Successor {
            key: key_of(scatter(zipf.sample(&mut rng))) - 1,
        })
        .collect();
    let flood = (1..=BATCH as i64)
        .map(|j| Op::Successor { key: lo - j })
        .collect();
    [uniform, skewed, flood]
}
