//! The batch half of every workload — collect → convert → train →
//! analyze → update — once through the `spire` command dispatcher (the
//! untraced, end-to-end path) and once through each layer's public
//! functions with a span around every call (the traced path), plus the
//! output checks on what the commands wrote.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Deserialize;
use spire_core::catalog::{MetricCatalog, UarchArea};
use spire_core::geometry::{pareto_front, Point};
use spire_core::{
    write_atomic, BottleneckReport, ModelSnapshot, OnlineTrainer, RankedMetric, SampleSet,
    SnapshotMode, SpireModel, TrainConfig, TrainStrictness,
};
use spire_counters::{collect, Dataset, SessionConfig};
use spire_sim::{Core, Event, MachineCatalog};
use spire_workloads::{suite, WorkloadProfile};

use crate::{Ledger, WrapErr, R};
use perfbench::stats::median;
use perfbench::trace::Tracer;

/// How the simulated corpus of a workload is collected.
#[derive(Debug, Clone, Copy)]
pub struct CollectPlan {
    pub cycles: u64,
    pub interval: u64,
    pub slice: u64,
}

/// The paper protocol: default sampling interval, 400 k cycles per
/// workload.
pub const SUITE_COLLECT: CollectPlan = CollectPlan {
    cycles: 400_000,
    interval: 200_000,
    slice: 10_000,
};

/// The short corpus every workload's set-up collects for the served
/// model: intervals of one multiplexing rotation each, ~219 samples
/// (≈ 20 KB) per workload. At one rotation per interval the same
/// simulated cycles give twice the samples of two-rotation intervals,
/// which roughly halves the seed-to-seed spread of `hit_at_5`.
pub const SHORT_COLLECT: CollectPlan = CollectPlan {
    cycles: 60_000,
    interval: 10_000,
    slice: 1_000,
};

/// Cycles of one multiplexing step: a session pays the switch overhead
/// before every slice.
const SWITCH_OVERHEAD_CYCLES: u64 = 60;

impl CollectPlan {
    /// Simulated cycles of one workload that does not drain: the session
    /// stops at the first slice boundary at or past the cap.
    pub fn cycles_per_workload(&self) -> u64 {
        let step = self.slice + SWITCH_OVERHEAD_CYCLES;
        self.cycles.div_ceil(step) * step
    }

    fn session(&self) -> SessionConfig {
        SessionConfig {
            max_cycles: self.cycles,
            interval_cycles: self.interval,
            slice_cycles: self.slice,
            ..SessionConfig::default()
        }
    }

    fn args(&self) -> Vec<String> {
        vec![
            "--cycles".into(),
            self.cycles.to_string(),
            "--interval".into(),
            self.interval.to_string(),
            "--slice".into(),
            self.slice.to_string(),
        ]
    }
}

/// `"name (config)"`, the label `spire collect` gives a workload.
pub fn label(p: &WorkloadProfile) -> String {
    format!("{} ({})", p.name, p.config)
}

/// Runs one `spire` command in-process; a degraded result counts as a
/// failed operation but its output is still returned.
pub fn spire(ledger: &mut Ledger, args: &[String]) -> R<String> {
    ledger.attempted += 1;
    match spire_cli::commands::run(args) {
        Ok(out) => {
            if out.degraded {
                ledger.fail(format!("spire {} degraded", args.join(" ")));
            }
            Ok(out.text)
        }
        Err(e) => {
            ledger.failed += 1;
            Err(format!("spire {}: {e}", args.join(" ")))
        }
    }
}

fn s(p: &Path) -> String {
    p.display().to_string()
}

/// `spire collect` of the training and test sets into `dir`.
pub fn cli_collect(
    ledger: &mut Ledger,
    dir: &Path,
    plan: &CollectPlan,
    seed: u64,
) -> R<(PathBuf, PathBuf)> {
    let (train, test) = (dir.join("train.json"), dir.join("test.json"));
    for (set, out) in [("train", &train), ("test", &test)] {
        let mut args: Vec<String> = vec!["collect".into(), "--out".into(), s(out)];
        args.extend([
            "--set".into(),
            set.into(),
            "--seed".into(),
            seed.to_string(),
        ]);
        args.extend(plan.args());
        spire(ledger, &args)?;
    }
    Ok((train, test))
}

/// Inputs of the batch pipeline.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Collect the suite first (suite-pipeline), with this collect seed.
    pub collect: Option<(CollectPlan, u64)>,
    pub corpus: PathBuf,
    pub targets: PathBuf,
    pub batches: Vec<PathBuf>,
}

/// Wall times of one pass of the batch pipeline.
#[derive(Debug, Clone)]
pub struct BatchTimes {
    pub pipeline_s: f64,
    pub collect_s: Option<f64>,
    pub convert_s: f64,
    pub train_s: f64,
    /// Every `analyze` answer's target and wall time in ms.
    pub analyze_ms: Vec<(String, f64)>,
    pub update_s: f64,
    /// Runs of the model steps behind the medians.
    pub model_reps: usize,
    pub files: BatchFiles,
    /// Each target's ranking as `analyze --json` printed it.
    pub rankings: Vec<(String, Vec<RankedMetric>)>,
}

/// What one pass wrote, for the output checks.
#[derive(Debug, Clone)]
pub struct BatchFiles {
    pub corpus_col: PathBuf,
    pub targets: PathBuf,
    pub batches: Vec<PathBuf>,
    pub model: PathBuf,
    pub updated: PathBuf,
}

#[derive(Deserialize)]
struct AnalyzeEnvelope {
    result: AnalyzeResult,
}

#[derive(Deserialize)]
struct AnalyzeResult {
    rows: Vec<RankedMetric>,
}

/// Workload labels of a dataset file.
pub fn labels_of(path: &Path) -> R<Vec<String>> {
    Ok(Dataset::load(path)
        .ctx(&s(path))?
        .labels()
        .map(str::to_owned)
        .collect())
}

/// One pass through the user surface: `collect` (suite-pipeline only),
/// `convert`, `train --snapshot`, `analyze --top 5` per target, and
/// `update` over the fixed batches.
pub fn cli_pipeline(ledger: &mut Ledger, dir: &Path, plan: &BatchPlan) -> R<BatchTimes> {
    std::fs::create_dir_all(dir).ctx("creating the pass directory")?;
    let start = Instant::now();
    let (corpus, targets, batches, collect_s) = match &plan.collect {
        Some((collect_plan, seed)) => {
            let (train, test) = cli_collect(ledger, dir, collect_plan, *seed)?;
            let secs = start.elapsed().as_secs_f64();
            (train, test.clone(), vec![test], Some(secs))
        }
        None => (
            plan.corpus.clone(),
            plan.targets.clone(),
            plan.batches.clone(),
            None,
        ),
    };
    let files = BatchFiles {
        corpus_col: dir.join("corpus.spirecol"),
        targets: targets.clone(),
        batches: batches.clone(),
        model: dir.join("model.snapshot.json"),
        updated: dir.join("updated.snapshot.json"),
    };
    let collected_at = start.elapsed().as_secs_f64();
    let mut reps: Vec<ModelTimes> = Vec::new();
    let mut rankings = Vec::new();
    let model_start = Instant::now();
    while reps.is_empty()
        || (model_start.elapsed().as_secs_f64() < MIN_MODEL_SECONDS && reps.len() < MAX_MODEL_REPS)
    {
        let (times, ranks) = model_steps(ledger, &corpus, &targets, &batches, &files)?;
        reps.push(times);
        rankings = ranks;
    }
    let m = |f: fn(&ModelTimes) -> f64| {
        median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    Ok(BatchTimes {
        pipeline_s: collected_at + m(|t| t.to_last_analyze_s),
        collect_s,
        convert_s: m(|t| t.convert_s),
        train_s: m(|t| t.train_s),
        analyze_ms: reps.iter().flat_map(|t| t.analyze_ms.clone()).collect(),
        update_s: m(|t| t.update_s),
        model_reps: reps.len(),
        files,
        rankings,
    })
}

/// Each target is analyzed this many times per run of the model steps,
/// so `analyze_ms` rests on several answers even when the steps run once.
pub const ANALYZE_REPEATS: usize = 3;

/// Model steps are repeated until they have run this long, so that the
/// millisecond-scale ones are reported as medians of many runs.
const MIN_MODEL_SECONDS: f64 = 1.0;
const MAX_MODEL_REPS: usize = 40;

/// Wall times of one run of the model steps.
struct ModelTimes {
    convert_s: f64,
    train_s: f64,
    analyze_ms: Vec<(String, f64)>,
    update_s: f64,
    /// From the start of `convert` to the last `analyze` answer.
    to_last_analyze_s: f64,
}

pub type Rankings = Vec<(String, Vec<RankedMetric>)>;

fn model_steps(
    ledger: &mut Ledger,
    corpus: &Path,
    targets: &Path,
    batches: &[PathBuf],
    files: &BatchFiles,
) -> R<(ModelTimes, Rankings)> {
    let start = Instant::now();
    let timed = |ledger: &mut Ledger, args: Vec<String>| -> R<(String, f64)> {
        let t = Instant::now();
        let out = spire(ledger, &args)?;
        Ok((out, t.elapsed().as_secs_f64()))
    };
    let (_, convert_s) = timed(
        ledger,
        vec![
            "convert".into(),
            "--data".into(),
            s(corpus),
            "--out".into(),
            s(&files.corpus_col),
        ],
    )?;
    let (_, train_s) = timed(
        ledger,
        vec![
            "train".into(),
            "--data".into(),
            s(&files.corpus_col),
            "--snapshot".into(),
            s(&files.model),
        ],
    )?;
    let (analyze_ms, rankings) = analyze_round(ledger, &files.model, targets, ANALYZE_REPEATS)?;
    let to_last_analyze_s = start.elapsed().as_secs_f64();
    let mut args: Vec<String> = vec![
        "update".into(),
        "--model".into(),
        s(&files.model),
        "--data".into(),
        s(&files.corpus_col),
    ];
    args.extend(batches.iter().map(|b| s(b)));
    args.extend(["--snapshot-out".into(), s(&files.updated)]);
    let (_, update_s) = timed(ledger, args)?;
    let times = ModelTimes {
        convert_s,
        train_s,
        analyze_ms,
        update_s,
        to_last_analyze_s,
    };
    Ok((times, rankings))
}

/// `analyze --top 5` of every target under `model`, `repeats` times over:
/// each answer's target and wall time in ms, and each target's ranking.
pub fn analyze_round(
    ledger: &mut Ledger,
    model: &Path,
    targets: &Path,
    repeats: usize,
) -> R<(Vec<(String, f64)>, Rankings)> {
    let labels = labels_of(targets)?;
    let mut times = Vec::new();
    let mut rankings = Vec::new();
    for label in labels.iter().cycle().take(labels.len() * repeats) {
        let args = [
            "analyze",
            "--model",
            &s(model),
            "--data",
            &s(targets),
            "--workload",
            label,
            "--top",
            "5",
            "--json",
        ]
        .map(String::from);
        let t = Instant::now();
        let out = spire(ledger, &args)?;
        times.push((label.clone(), t.elapsed().as_secs_f64() * 1e3));
        let envelope: AnalyzeEnvelope =
            serde_json::from_str(&out).ctx("parsing the analyze envelope")?;
        rankings.push((label.clone(), envelope.result.rows));
    }
    if times.is_empty() {
        return Err("the pipeline has no analyze targets".into());
    }
    rankings.truncate(labels.len());
    Ok((times, rankings))
}

fn load(path: &Path) -> R<Dataset> {
    Dataset::load(path).ctx(&s(path))
}

fn train(samples: &SampleSet, config: TrainConfig) -> R<SpireModel> {
    Ok(
        SpireModel::train_with_report(samples, config, TrainStrictness::Lenient)
            .ctx("training")?
            .model,
    )
}

fn load_snapshot(path: &Path) -> R<ModelSnapshot> {
    let text = std::fs::read_to_string(path).ctx(&s(path))?;
    ModelSnapshot::from_json(&text).ctx(&s(path))
}

/// The top-5 ranking the direct API gives `samples` under `model`.
pub fn direct_ranking(model: &SpireModel, samples: &SampleSet) -> R<Vec<RankedMetric>> {
    let estimate = model.estimate(samples).ctx("estimate")?;
    Ok(
        BottleneckReport::new(&estimate, &MetricCatalog::table_iii())
            .top(5)
            .to_vec(),
    )
}

/// The output checks of a batch pass: the loaded snapshot equals a
/// direct train on the corpus, every `analyze` ranking equals the direct
/// API's, and the `update` result equals a retrain on the accumulated
/// samples.
pub fn check_batch(ledger: &mut Ledger, times: &BatchTimes) -> R<()> {
    let f = &times.files;
    let corpus = load(&f.corpus_col)?.merged();
    let snapshot = load_snapshot(&f.model)?;
    let config = snapshot.config.clone();
    let loaded = snapshot
        .into_model(SnapshotMode::Strict)
        .ctx("loading the trained snapshot")?
        .model;
    let trained = train(&corpus, config.clone())?;
    ledger.check("snapshot_equals_trained", loaded == trained);

    let targets = load(&f.targets)?;
    let mut same = true;
    for (label, rows) in &times.rankings {
        let samples = targets.get(label).ok_or("target vanished")?;
        same &= direct_ranking(&loaded, samples)? == *rows;
    }
    ledger.check("analyze_equals_direct", same);

    let mut accumulated = corpus;
    for b in &f.batches {
        accumulated.merge(load(b)?.merged());
    }
    let retrained = train(&accumulated, config)?;
    let updated = load_snapshot(&f.updated)?
        .into_model(SnapshotMode::Strict)
        .ctx("loading the updated snapshot")?
        .model;
    ledger.check("update_equals_retrain", updated == retrained);
    Ok(())
}

/// How many of the labelled workloads have their expected bottleneck area
/// among the top-5 metric areas of a model trained on all the others.
pub fn hits_at_5(sets: &[(String, SampleSet)]) -> R<usize> {
    let expected: BTreeMap<String, UarchArea> = suite::all()
        .iter()
        .map(|p| (label(p), p.expected_bottleneck))
        .collect();
    let mut hits = 0usize;
    for (i, (name, held_out)) in sets.iter().enumerate() {
        let mut rest = SampleSet::new();
        for (j, (_, s)) in sets.iter().enumerate() {
            if j != i {
                rest.merge(s.clone());
            }
        }
        let model = train(&rest, TrainConfig::default())?;
        let estimate = model.estimate(held_out).ctx("leave-one-out estimate")?;
        let area = *expected.get(name).ok_or("unlabelled workload")?;
        if BottleneckReport::new(&estimate, &MetricCatalog::table_iii()).area_in_top(area, 5) {
            hits += 1;
        }
    }
    Ok(hits)
}

/// Every workload of the given dataset files, by label.
pub fn labelled_sets(paths: &[&Path]) -> R<Vec<(String, SampleSet)>> {
    let mut out = Vec::new();
    for p in paths {
        out.extend(load(p)?.iter().map(|(l, s)| (l.to_owned(), s.clone())));
    }
    Ok(out)
}

/// Seed of the committed counter digest: fixed, unlike the run seed.
pub const DIGEST_SEED: u64 = 1;
/// Cycles per workload of the digest pass.
pub const DIGEST_CYCLES: u64 = 20_000;

/// One line per (machine, workload): FNV-1a 64 of the cycle count, the
/// retired-instruction count and every counter after a short run from a
/// cold core.
pub fn suite_digest() -> Vec<String> {
    let mut lines = Vec::new();
    for machine in MachineCatalog::builtin().machines() {
        for p in suite::all() {
            let mut core = Core::new(machine.config);
            core.run(&mut p.stream(DIGEST_SEED), DIGEST_CYCLES);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            };
            eat(&core.cycle().to_le_bytes());
            eat(&core.retired_instructions().to_le_bytes());
            for (event, count) in core.counters().iter() {
                eat(event.name().as_bytes());
                eat(&count.to_le_bytes());
            }
            lines.push(format!("{}\t{}\t{h:016x}", machine.name, label(&p)));
        }
    }
    lines
}

/// The committed digest, one line per (machine, workload).
pub const COMMITTED_DIGEST: &str = include_str!("../suite-digest.txt");

/// Per-layer figures of one traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    pub wall_s: f64,
    pub cycles: u64,
    pub expected_cycles: u64,
    pub retired: u64,
    pub fetched: u64,
    pub overhead_cycles: u64,
    pub samples: usize,
    /// Busy seconds and cycles per expected-bottleneck area.
    pub by_area: BTreeMap<String, (f64, u64)>,
    pub front_sizes: Vec<usize>,
    pub refit_metrics: usize,
    pub json_bytes: u64,
    pub col_bytes: u64,
    pub snapshot_bytes: u64,
}

fn area_key(area: UarchArea) -> &'static str {
    match area {
        UarchArea::Memory => "memory",
        UarchArea::Core => "core",
        UarchArea::FrontEnd => "frontend",
        UarchArea::BadSpeculation => "bad_speculation",
    }
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// The same steps as [`cli_pipeline`], calling each layer directly with
/// a span around every call. `collect` is the simulated corpus to build
/// (set-up's short corpus, or suite-pipeline's paper protocol), then
/// `corpus`/`targets`/`batches` name the inputs of the model steps; with
/// `None` the freshly collected train/test sets are used.
pub fn direct_pipeline(
    tracer: &Tracer,
    dir: &Path,
    collect_plan: &CollectPlan,
    collect_seed: u64,
    inputs: Option<(&Path, &Path, &[PathBuf])>,
) -> R<Layers> {
    std::fs::create_dir_all(dir).ctx("creating the traced pass directory")?;
    let mut layers = Layers::default();
    let machine = MachineCatalog::builtin().default_machine().clone();
    let start = Instant::now();
    let root = tracer.span("pipeline", None, 0, |root| -> R<SampleSet> {
        let session = collect_plan.session();
        let mut fetched: Vec<(WorkloadProfile, u64)> = Vec::new();
        let mut collected = Vec::new();
        for (set, profiles) in [("train", suite::training()), ("test", suite::testing())] {
            let mut dataset = Dataset::new();
            for p in profiles {
                let mut core = Core::new(machine.config);
                let mut n = 0u64;
                let mut stream = p.stream(collect_seed).inspect(|_| n += 1);
                let t = Instant::now();
                let report = tracer.span("sim.collect", root, 0, |_| {
                    collect(&mut core, &mut stream, Event::ALL, &session)
                });
                let busy = t.elapsed().as_secs_f64();
                drop(stream);
                layers.cycles += report.total_cycles;
                layers.expected_cycles += collect_plan.cycles_per_workload();
                layers.retired += report.instructions;
                layers.overhead_cycles += report.overhead_cycles;
                layers.samples += report.samples.len();
                let e = layers
                    .by_area
                    .entry(area_key(p.expected_bottleneck).to_owned())
                    .or_default();
                e.0 += busy;
                e.1 += report.total_cycles;
                dataset.insert(label(&p), report.samples);
                fetched.push((p, n));
            }
            dataset.set_machine(Some(machine.spec()));
            let path = dir.join(format!("{set}.json"));
            tracer
                .span("counters.json_save", root, 0, |_| dataset.save(&path))
                .ctx("saving the collected set")?;
            collected.push(path);
        }
        for (p, n) in &fetched {
            layers.fetched += n;
            let drained = tracer.span("workloads.stream", root, 0, |_| {
                p.stream(collect_seed).take(*n as usize).count()
            });
            std::hint::black_box(drained);
        }

        let default_batches = [collected[1].clone()];
        let (corpus_json, targets_json, batches) = match inputs {
            Some((c, t, b)) => (c.to_path_buf(), t.to_path_buf(), b),
            None => (
                collected[0].clone(),
                collected[1].clone(),
                &default_batches[..],
            ),
        };
        // convert
        let corpus = tracer
            .span("counters.json_load", root, 0, |_| {
                Dataset::load(&corpus_json)
            })
            .ctx("loading the corpus")?;
        let col = dir.join("corpus.spirecol");
        tracer
            .span("counters.col_save", root, 0, |_| corpus.save_binary(&col))
            .ctx("writing the corpus")?;
        let resaved = dir.join("corpus-resaved.json");
        tracer
            .span("counters.json_save", root, 0, |_| corpus.save(&resaved))
            .ctx("re-saving the corpus")?;
        layers.json_bytes = file_len(&resaved);
        layers.col_bytes = file_len(&col);
        // train
        let corpus = tracer
            .span("counters.col_load", root, 0, |_| Dataset::load(&col))
            .ctx("loading the binary corpus")?;
        let samples = corpus.merged();
        let config = TrainConfig::default();
        let model = tracer.span("core.train", root, 0, |_| train(&samples, config.clone()))?;
        let snap_path = dir.join("model.snapshot.json");
        tracer.span("core.snapshot_write", root, 0, |_| -> R<()> {
            let snap = ModelSnapshot::from_model(&model)
                .ctx("snapshotting")?
                .with_provenance(corpus.provenance(Some(&s(&col))));
            write_atomic(&snap_path, &snap.to_json()).ctx("writing the snapshot")
        })?;
        layers.snapshot_bytes = file_len(&snap_path);
        // analyze
        let loaded = tracer.span("core.snapshot_load", root, 0, |_| -> R<SpireModel> {
            Ok(load_snapshot(&snap_path)?
                .into_model(SnapshotMode::Lenient)
                .ctx("loading the snapshot")?
                .model)
        })?;
        let targets = tracer
            .span("counters.json_load", root, 0, |_| {
                Dataset::load(&targets_json)
            })
            .ctx("loading the targets")?;
        let sets: Vec<&SampleSet> = targets.iter().map(|(_, s)| s).collect();
        for set in &sets {
            let estimate = tracer
                .span("core.estimate", root, 0, |_| loaded.estimate(set))
                .ctx("estimate")?;
            let report = tracer.span("core.rank", root, 0, |_| {
                BottleneckReport::new(&estimate, &MetricCatalog::table_iii())
            });
            std::hint::black_box(report);
        }
        let batch = tracer.span("core.estimate_batch", root, 0, |_| {
            loaded.estimate_batch(&sets)
        });
        std::hint::black_box(batch);
        // update
        let mut trainer = OnlineTrainer::new(config, TrainStrictness::Lenient).ctx("trainer")?;
        tracer.span("core.online_seed", root, 0, |_| -> R<()> {
            trainer.push_batch(&samples);
            trainer.commit().ctx("seeding the online trainer")?;
            Ok(())
        })?;
        for b in batches {
            let batch = tracer
                .span("counters.json_load", root, 0, |_| Dataset::load(b))
                .ctx("loading an update batch")?
                .merged();
            let outcome = tracer.span("core.online_commit", root, 0, |_| {
                trainer.push_batch(&batch);
                trainer.commit()
            });
            let report = outcome.ctx("online commit")?.update;
            layers.refit_metrics += report.refit_full.len() + report.refit_right.len();
        }
        Ok(samples)
    });
    let samples = root?;
    layers.wall_s = start.elapsed().as_secs_f64();
    // Front sizes are a property of the corpus, counted untimed.
    layers.front_sizes = samples
        .by_metric()
        .map(|(_, column)| {
            let points: Vec<Point> = column
                .samples()
                .map(|s| Point::new(s.intensity(), s.throughput()))
                .collect();
            pareto_front(&points).len()
        })
        .collect();
    Ok(layers)
}
