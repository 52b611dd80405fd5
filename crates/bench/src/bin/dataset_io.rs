//! Dataset I/O benchmark: JSON parse vs binary column-file load, plus
//! scalar vs vectorized roofline estimation, at paper scale (424
//! metrics, ~1.3M samples).
//!
//! Builds one synthetic dataset, writes it in both formats, and times
//! the two load paths (median of three warm runs each). The decoded
//! datasets must be bit-identical to the source; the vectorized
//! `estimate_soa` pass must be bit-identical to the scalar per-sample
//! loop. Full runs write `BENCH_dataset.json` at the workspace root and
//! exit non-zero if the binary load is not at least 10x faster than the
//! JSON parse or the vectorized estimate is not at least 1.5x the
//! scalar loop; `--quick` (or `SPIRE_BENCH_SMOKE=1`) runs a tiny
//! instance that checks the identity invariants only — at toy sizes the
//! timings are noise, so the perf gates apply to the committed full-run
//! numbers (see the CI `format-smoke` job).

use std::time::Instant;

use spire_core::{FitOptions, MetricColumn, MetricId, PiecewiseRoofline, SampleSet};
use spire_counters::Dataset;

#[derive(serde::Serialize)]
struct BenchSummary {
    dataset_io: IoCase,
}

#[derive(serde::Serialize)]
struct IoCase {
    metrics: usize,
    rows_per_metric: usize,
    total_samples: usize,
    json_bytes: usize,
    binary_bytes: usize,
    json_load_ms: f64,
    binary_load_ms: f64,
    load_speedup: f64,
    scalar_estimate_ms: f64,
    soa_estimate_ms: f64,
    estimate_speedup: f64,
    loads_bit_identical: bool,
    estimates_bit_identical: bool,
}

struct Scale {
    metrics: usize,
    rows: usize,
}

impl Scale {
    fn paper() -> Self {
        // 424 × 3072 ≈ 1.30M samples, the paper's corpus size.
        Scale {
            metrics: 424,
            rows: 3072,
        }
    }

    fn quick() -> Self {
        Scale {
            metrics: 8,
            rows: 128,
        }
    }
}

/// Deterministic xorshift; the bin avoids dev-only dependencies.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform f64 in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One synthetic workload: per metric, `rows` samples with intensities
/// spread over [0.1, ~100] and throughputs on a noisy roofline-ish
/// surface. Built through the raw-column constructors so generation is
/// not the bottleneck at 1.3M rows.
fn build_dataset(scale: &Scale, rng: &mut Lcg) -> Dataset {
    let mut columns = Vec::with_capacity(scale.metrics);
    for j in 0..scale.metrics {
        let metric = format!("metric_{j:03}");
        let mut time = Vec::with_capacity(scale.rows);
        let mut work = Vec::with_capacity(scale.rows);
        let mut delta = Vec::with_capacity(scale.rows);
        for _ in 0..scale.rows {
            let x = 0.1 + rng.unit() * 100.0;
            let p = (x * 10.0).min(500.0) * (0.5 + 0.5 * rng.unit());
            time.push(1.0);
            work.push(p);
            delta.push(p / x);
        }
        columns.push(
            MetricColumn::from_raw_columns(MetricId::new(&metric), time, work, delta)
                .expect("equal-length columns"),
        );
    }
    let set = SampleSet::from_columns(columns).expect("ascending metric order");
    [("bench".to_owned(), set)].into_iter().collect()
}

/// Median wall time of `runs` warm runs of `f` (milliseconds).
fn median_ms_n<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.expect("at least one run"))
}

/// Median of three warm runs (milliseconds).
fn median_ms<T>(f: impl FnMut() -> T) -> (f64, T) {
    median_ms_n(3, f)
}

/// Bitwise equality of every column in two datasets.
fn bit_identical(a: &Dataset, b: &Dataset) -> bool {
    if a.iter().count() != b.iter().count() {
        return false;
    }
    for ((la, sa), (lb, sb)) in a.iter().zip(b.iter()) {
        if la != lb || sa.columns().len() != sb.columns().len() {
            return false;
        }
        for (ca, cb) in sa.columns().iter().zip(sb.columns()) {
            let same = |x: &[f64], y: &[f64]| {
                x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| p.to_bits() == q.to_bits())
            };
            if ca.metric() != cb.metric()
                || !same(ca.times(), cb.times())
                || !same(ca.works(), cb.works())
                || !same(ca.metric_deltas(), cb.metric_deltas())
            {
                return false;
            }
        }
    }
    true
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("SPIRE_BENCH_SMOKE").is_some_and(|v| v == "1");
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let mut rng = Lcg(0xda7a_10ad_bead_5eed);

    let dataset = build_dataset(&scale, &mut rng);
    let total = dataset.total_samples();
    println!("built {} metrics / {total} samples", scale.metrics);

    let dir = std::env::temp_dir().join(format!("spire-dataset-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let json_path = dir.join("bench.json");
    let bin_path = dir.join("bench.spirecol");
    dataset.save(&json_path).expect("write JSON dataset");
    dataset
        .save_binary(&bin_path)
        .expect("write binary dataset");
    let json_bytes = std::fs::metadata(&json_path).expect("json size").len() as usize;
    let binary_bytes = std::fs::metadata(&bin_path).expect("binary size").len() as usize;
    println!("json {json_bytes} bytes, binary {binary_bytes} bytes");

    // Full mode times the JSON parse once: it is the slow side of a
    // 10x-plus ratio, where run-to-run noise cannot change the verdict.
    let json_runs = if quick { 3 } else { 1 };
    let (json_load_ms, from_json) =
        median_ms_n(json_runs, || Dataset::load(&json_path).expect("json load"));
    let (binary_load_ms, from_bin) = median_ms(|| Dataset::load(&bin_path).expect("binary load"));

    let loads_bit_identical =
        bit_identical(&dataset, &from_json) && bit_identical(&dataset, &from_bin);
    let load_speedup = json_load_ms / binary_load_ms;
    println!("load: json {json_load_ms:.1} ms, binary {binary_load_ms:.1} ms ({load_speedup:.1}x)");

    // Scalar vs vectorized estimation over every intensity in the
    // corpus, against one representative fitted roofline.
    let set = from_bin.get("bench").expect("bench section");
    let column = &set.columns()[0];
    let roofline = PiecewiseRoofline::fit_column(column, &FitOptions::default()).expect("fit");
    let xs: Vec<f64> = set
        .columns()
        .iter()
        .flat_map(|c| c.intensities().iter().copied())
        .collect();
    let (scalar_estimate_ms, scalar) = median_ms(|| {
        let mut out = Vec::with_capacity(xs.len());
        for &x in &xs {
            out.push(roofline.estimate(x));
        }
        out
    });
    let (soa_estimate_ms, soa) = median_ms(|| {
        let mut out = Vec::new();
        roofline.estimate_soa(&xs, &mut out);
        out
    });
    let estimates_bit_identical = scalar.len() == soa.len()
        && scalar
            .iter()
            .zip(&soa)
            .all(|(&a, &b)| a.to_bits() == b.to_bits());
    let estimate_speedup = scalar_estimate_ms / soa_estimate_ms;
    println!(
        "estimate over {} intensities: scalar {scalar_estimate_ms:.1} ms, \
         soa {soa_estimate_ms:.1} ms ({estimate_speedup:.2}x)",
        xs.len()
    );

    let _ = std::fs::remove_dir_all(&dir);

    let mut failed = false;
    if !loads_bit_identical {
        eprintln!("FAIL: a decoded dataset differs from the source");
        failed = true;
    }
    if !estimates_bit_identical {
        eprintln!("FAIL: vectorized estimates differ from the scalar loop");
        failed = true;
    }
    if !quick {
        if load_speedup < 10.0 {
            eprintln!("FAIL: binary load is only {load_speedup:.1}x the JSON parse (< 10x)");
            failed = true;
        }
        if estimate_speedup < 1.5 {
            eprintln!("FAIL: vectorized estimate is only {estimate_speedup:.2}x scalar (< 1.5x)");
            failed = true;
        }
        let summary = BenchSummary {
            dataset_io: IoCase {
                metrics: scale.metrics,
                rows_per_metric: scale.rows,
                total_samples: total,
                json_bytes,
                binary_bytes,
                json_load_ms,
                binary_load_ms,
                load_speedup,
                scalar_estimate_ms,
                soa_estimate_ms,
                estimate_speedup,
                loads_bit_identical,
                estimates_bit_identical,
            },
        };
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dataset.json");
        spire_core::write_atomic(
            std::path::Path::new(path),
            &serde_json::to_string_pretty(&summary).unwrap(),
        )
        .unwrap();
        println!("wrote {path}");
    }
    if failed {
        std::process::exit(1);
    }
}
