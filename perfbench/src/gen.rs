//! Seeded input generators. The run seed reaches the program only through
//! what these functions produce: the synthetic corpus, the collect seed,
//! and the serve request schedule.

use spire_core::{Sample, SampleSet};
use spire_counters::Dataset;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// An independent seed for one use of the run seed, so that adding a
/// generator never shifts the inputs of another.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in purpose.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Rng::new(h).next_u64()
}

/// Size of the synthetic paper-scale corpus.
#[derive(Debug, Clone, Copy)]
pub struct SynthScale {
    pub metrics: usize,
    pub workloads: usize,
    /// Samples per metric per corpus workload.
    pub rows: usize,
    pub targets: usize,
    /// Samples per metric per target workload.
    pub target_rows: usize,
    pub batches: usize,
    /// Samples per metric per update batch.
    pub batch_rows: usize,
}

/// 424 metrics × 32 workloads × 96 rows = 3072 rows per metric, 1.30 M
/// samples: the paper's corpus scale.
pub const PAPER_SCALE: SynthScale = SynthScale {
    metrics: 424,
    workloads: 32,
    rows: 96,
    targets: 4,
    target_rows: 2,
    batches: 8,
    batch_rows: 4,
};

/// The synthetic corpus, its analysis targets, and the update batches.
pub struct Synthetic {
    pub corpus: Dataset,
    pub targets: Dataset,
    pub batches: Vec<Dataset>,
}

/// Per-metric shape: a roofline apex, a Pareto staircase to its right
/// with a log-uniform number of steps (16–1024), and the region below it.
struct Shape {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Shape {
    /// `q` in `[0, 1)` places the step count on the log-uniform range.
    fn new(rng: &mut Rng, q: f64) -> Self {
        let steps = (16f64.ln() + q * (1024f64.ln() - 16f64.ln())).exp().round() as usize;
        let (mut x, mut y) = (0.5 + rng.unit(), 100.0 + 900.0 * rng.unit());
        let dx = 0.02 + 0.1 * rng.unit();
        let dy = y / (4.0 * steps as f64);
        let (mut xs, mut ys) = (vec![x], vec![y]);
        // Quasi-random (golden-ratio) steps keep every point on the front
        // while no three are collinear.
        for i in 0..steps {
            x += dx * (0.2 + (i as f64 * 0.618_033_988_749_894_8).fract());
            y -= dy * (0.2 + (i as f64 * 0.381_966_011_250_105_2).fract());
            xs.push(x);
            ys.push(y);
        }
        Shape { xs, ys }
    }

    /// A point strictly under the front: left of the apex below the line
    /// from the origin, or right of it below the lowest step.
    fn interior(&self, rng: &mut Rng) -> (f64, f64) {
        let (x0, y0) = (self.xs[0], self.ys[0]);
        if rng.unit() < 0.3 {
            let x = x0 * (0.05 + 0.9 * rng.unit());
            (x, y0 * x / x0 * (0.2 + 0.75 * rng.unit()))
        } else {
            let i = rng.below(self.xs.len() - 1);
            let y_min = self.ys[self.ys.len() - 1];
            (self.xs[i] + 1e-3, y_min * (0.2 + 0.75 * rng.unit()))
        }
    }
}

fn sample(metric: &str, rng: &mut Rng, (x, y): (f64, f64)) -> Sample {
    let time = 0.5 + 1.5 * rng.unit();
    let work = y * time;
    Sample::new(metric, time, work, work / x).expect("synthetic samples are positive and finite")
}

/// The seeded paper-scale corpus. Every staircase point lands in some
/// corpus workload, so each metric's Pareto front has its full size.
/// Step counts are stratified: metric `j` of `m` draws from the `j`-th of
/// `m` equal slices of the log-uniform range, in a seeded order, so every
/// seed trains and serves fronts of the same total size and the seed
/// moves the model steps' times no more than the host does.
/// Update batch `b` extends a rotating tenth of the metrics' fronts past
/// their last step, so online commits refit real work.
pub fn synthetic(seed: u64, scale: &SynthScale) -> Synthetic {
    let mut rng = Rng::new(seed);
    let mut corpus: Vec<SampleSet> = vec![SampleSet::new(); scale.workloads];
    let mut targets: Vec<SampleSet> = vec![SampleSet::new(); scale.targets];
    let mut batches: Vec<SampleSet> = vec![SampleSet::new(); scale.batches];
    let rows = scale.workloads * scale.rows;
    let mut strata: Vec<f64> = (0..scale.metrics)
        .map(|k| (k as f64 + 0.5) / scale.metrics as f64)
        .collect();
    rng.shuffle(&mut strata);
    for (j, &q) in strata.iter().enumerate() {
        let metric = format!("syn.m{j:03}");
        let shape = Shape::new(&mut rng, q);
        let mut points: Vec<(f64, f64)> = shape
            .xs
            .iter()
            .copied()
            .zip(shape.ys.iter().copied())
            .collect();
        points.truncate(rows);
        while points.len() < rows {
            points.push(shape.interior(&mut rng));
        }
        rng.shuffle(&mut points);
        for (i, p) in points.into_iter().enumerate() {
            corpus[i / scale.rows].push(sample(&metric, &mut rng, p));
        }
        for t in &mut targets {
            for _ in 0..scale.target_rows {
                let p = shape.interior(&mut rng);
                t.push(sample(&metric, &mut rng, p));
            }
        }
        let (x_last, y_last) = (shape.xs[shape.xs.len() - 1], shape.ys[shape.ys.len() - 1]);
        for (b, batch) in batches.iter_mut().enumerate() {
            for r in 0..scale.batch_rows {
                let p = if r == 0 && (j + b) % 10 == 0 {
                    (
                        x_last + 0.05 * (b + 1) as f64,
                        y_last * (1.0 - 0.01 * (b + 1) as f64),
                    )
                } else {
                    shape.interior(&mut rng)
                };
                batch.push(sample(&metric, &mut rng, p));
            }
        }
    }
    let dataset = |sets: Vec<SampleSet>, prefix: &str| {
        let mut d = Dataset::new();
        for (i, s) in sets.into_iter().enumerate() {
            d.insert(format!("{prefix}-{i:02}"), s);
        }
        d
    };
    Synthetic {
        corpus: dataset(corpus, "syn"),
        targets: dataset(targets, "target"),
        batches: batches
            .into_iter()
            .enumerate()
            .map(|(b, s)| dataset(vec![s], &format!("batch{b}")))
            .collect(),
    }
}

/// Request size classes of the serve load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A read of at most 4 KB: a sample of one workload's rows.
    Small,
    /// A read of one whole workload's samples (above the 8 KB mark).
    Large,
    /// A journaled `update` batch: one workload's samples, perturbed.
    Update,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Small => "small",
            Class::Large => "large",
            Class::Update => "update",
        }
    }
}

/// Rows in a small read (≈ 3 KB of JSON).
pub const SMALL_ROWS: usize = 32;

/// One scheduled request of a load step.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Seconds after the step starts at which the request is due.
    pub due: f64,
    pub class: Class,
    /// `analyze`, `estimate` or `update`.
    pub kind: &'static str,
    pub samples: SampleSet,
    /// Idempotency key (updates only).
    pub key: Option<String>,
    /// Index of the earlier request this one repeats byte for byte.
    pub repeat_of: Option<usize>,
}

/// Shares of the load mix. Six reads in ten are large, and updates carry a
/// whole workload: both then take the ~44 ms of the 8 KB latency cliff,
/// so the median and the tail the ladder reports are set by that cliff
/// and not by sub-millisecond thread hand-offs, whose time swings by half
/// from run to run on a shared two-core host. It also puts the
/// two-connection capacity near 70 req/s, between two ladder rates.
pub const UPDATE_SHARE: f64 = 0.10;
pub const LARGE_SHARE_OF_READS: f64 = 0.60;
pub const REPEAT_SHARE_OF_READS: f64 = 0.25;

/// `SMALL_ROWS` random rows of `rows`, in their original order.
fn subset(rows: &[Sample], rng: &mut Rng) -> SampleSet {
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(SMALL_ROWS.min(rows.len()));
    idx.sort_unstable();
    idx.into_iter().map(|i| rows[i].clone()).collect()
}

/// Every row of `rows` with its time scaled by a factor in [0.9, 1.1), so
/// an update moves the model.
fn perturbed(rows: &[Sample], rng: &mut Rng) -> SampleSet {
    rows.iter()
        .map(|s| {
            let time = s.time() * (0.9 + 0.2 * rng.unit());
            Sample::new(s.metric().as_str(), time, s.work(), s.metric_delta())
                .expect("a rescaled valid sample stays valid")
        })
        .collect()
}

/// A deck with exactly `round(share · n)` trues, shuffled.
fn deck(rng: &mut Rng, n: usize, share: f64) -> Vec<bool> {
    let k = (share * n as f64).round() as usize;
    let mut d: Vec<bool> = (0..n).map(|i| i < k).collect();
    rng.shuffle(&mut d);
    d
}

/// The open-loop schedule of one load step: `n` requests with Poisson
/// arrivals at `rate` per second over the workloads in `pool`. Class
/// shares are exact (drawn from shuffled decks), so the median read is a
/// small read and the tail a large one on every seed. A repeat copies an
/// earlier read of the same class, so it can hit the result cache.
pub fn schedule(seed: u64, rate: f64, n: usize, pool: &[SampleSet]) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let rows: Vec<Vec<Sample>> = pool.iter().map(|s| s.iter().collect()).collect();
    let updates = deck(&mut rng, n, UPDATE_SHARE);
    let reads = updates.iter().filter(|u| !**u).count();
    let large = deck(&mut rng, reads, LARGE_SHARE_OF_READS);
    let repeat = deck(&mut rng, reads, REPEAT_SHARE_OF_READS);
    let mut out: Vec<Planned> = Vec::with_capacity(n);
    let mut due = 0.0;
    let mut read_no = 0;
    for (i, &is_update) in updates.iter().enumerate() {
        due += -(1.0 - rng.unit()).ln() / rate;
        let w = rng.below(rows.len());
        if is_update {
            out.push(Planned {
                due,
                class: Class::Update,
                kind: "update",
                samples: perturbed(&rows[w], &mut rng),
                key: Some(format!("{seed:016x}-{i}")),
                repeat_of: None,
            });
            continue;
        }
        let class = if large[read_no] {
            Class::Large
        } else {
            Class::Small
        };
        let earlier: Vec<usize> = (0..out.len())
            .filter(|&j| out[j].class == class && out[j].repeat_of.is_none())
            .collect();
        let planned = if repeat[read_no] && !earlier.is_empty() {
            let j = earlier[rng.below(earlier.len())];
            Planned {
                due,
                repeat_of: Some(j),
                ..out[j].clone()
            }
        } else {
            Planned {
                due,
                class,
                kind: if rng.unit() < 0.5 {
                    "analyze"
                } else {
                    "estimate"
                },
                samples: match class {
                    Class::Large => pool[w].clone(),
                    _ => subset(&rows[w], &mut rng),
                },
                key: None,
                repeat_of: None,
            }
        };
        read_no += 1;
        out.push(planned);
    }
    out
}
