//! One benchmark for the SPIRE workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-pipeline|paper-model|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload sets up a served model from a short simulated corpus,
//! then measures a batch pipeline (collect → convert → train → analyze →
//! update) and an open-loop serve ladder. With `--trace 0` both go
//! through the user surfaces (`spire_cli::commands::run`, an in-process
//! `spire_serve::Server`) and the end-to-end metrics are printed; with
//! `--trace 1` the batch steps are repeated through each layer's public
//! functions with a span around every call, and the per-layer metrics are
//! printed. The last stdout line is the JSON result. See `README.md`.

mod flow;
mod serve;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;
use spire_core::SampleSet;
use spire_counters::Dataset;

use flow::{BatchPlan, BatchTimes, CollectPlan, ANALYZE_REPEATS, SHORT_COLLECT, SUITE_COLLECT};
use perfbench::gen::{self, sub_seed, Class, PAPER_SCALE};
use perfbench::stats::{median, percentile};
use perfbench::trace::{self_times, Span, Tracer};
use serve::{Daemon, Done, Step};

pub type R<T> = Result<T, String>;

/// Attaches context to any displayable error.
pub trait WrapErr<T> {
    fn ctx(self, what: &str) -> R<T>;
}

impl<T, E: Display> WrapErr<T> for Result<T, E> {
    fn ctx(self, what: &str) -> R<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Operations attempted and failed, and the named output checks.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub checks: Vec<(String, bool)>,
}

impl Ledger {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records an output check; a mismatch counts as a failed operation.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check {name} failed"));
        }
        self.checks.push((name.to_owned(), ok));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SuitePipeline,
    PaperModel,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> R<Workload> {
        match name {
            "suite-pipeline" => Ok(Workload::SuitePipeline),
            "paper-model" => Ok(Workload::PaperModel),
            "serve-mixed" => Ok(Workload::ServeMixed),
            other => Err(format!(
                "unknown workload `{other}` (suite-pipeline, paper-model, serve-mixed)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SuitePipeline => "suite-pipeline",
            Workload::PaperModel => "paper-model",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload suite-pipeline|paper-model|serve-mixed \
                     --seed N --seconds S --trace 0|1\n       perfbench --write-digest";

fn parse_opts(args: &[String]) -> R<Opts> {
    let mut map = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                map.insert(k[2..].to_owned(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let trace = get("trace")?;
    Ok(Opts {
        workload: Workload::parse(get("workload")?)?,
        seed: get("seed")?.parse().ctx("--seed")?,
        seconds: get("seconds")?.parse().ctx("--seconds")?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, got {trace}")),
        },
    })
}

/// Set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// What set-up leaves for the measured phase.
struct Setup {
    dir: PathBuf,
    short_train: PathBuf,
    short_test: PathBuf,
    /// The synthetic corpus, targets and batches (paper-model).
    synthetic: Option<(PathBuf, PathBuf, Vec<PathBuf>)>,
    daemon: Daemon,
    /// Wall seconds of the set-up collect.
    collect_s: f64,
    secs: f64,
}

fn setup(ledger: &mut Ledger, dir: &Path, w: Workload, seed: u64, collect_seed: u64) -> R<Setup> {
    std::fs::create_dir_all(dir).ctx("creating the set-up directory")?;
    let start = Instant::now();
    let (short_train, short_test) = flow::cli_collect(ledger, dir, &SHORT_COLLECT, collect_seed)?;
    let collect_s = start.elapsed().as_secs_f64();
    let served = dir.join("served.snapshot.json");
    flow::spire(
        ledger,
        &[
            "train".into(),
            "--data".into(),
            short_train.display().to_string(),
            "--snapshot".into(),
            served.display().to_string(),
        ],
    )?;
    let synthetic = if w == Workload::PaperModel {
        let syn = gen::synthetic(sub_seed(seed, "synthetic"), &PAPER_SCALE);
        let save = |d: &Dataset, name: &str| -> R<PathBuf> {
            let p = dir.join(name);
            d.save(&p).ctx("writing the synthetic corpus")?;
            Ok(p)
        };
        let batches = syn
            .batches
            .iter()
            .enumerate()
            .map(|(i, b)| save(b, &format!("batch-{i}.json")))
            .collect::<R<Vec<_>>>()?;
        Some((
            save(&syn.corpus, "corpus.json")?,
            save(&syn.targets, "targets.json")?,
            batches,
        ))
    } else {
        None
    };
    let base = Dataset::load(&short_train)
        .ctx("loading the short corpus")?
        .merged();
    let daemon = Daemon::start(ledger, dir, &served, base)?;
    Ok(Setup {
        dir: dir.to_path_buf(),
        short_train,
        short_test,
        synthetic,
        daemon,
        collect_s,
        secs: start.elapsed().as_secs_f64(),
    })
}

/// The batch-pipeline inputs of a workload.
fn batch_plan(w: Workload, s: &Setup, seed: u64) -> BatchPlan {
    match (w, &s.synthetic) {
        (Workload::PaperModel, Some((corpus, targets, batches))) => BatchPlan {
            collect: None,
            corpus: corpus.clone(),
            targets: targets.clone(),
            batches: batches.clone(),
        },
        (Workload::SuitePipeline, _) => BatchPlan {
            collect: Some((SUITE_COLLECT, sub_seed(seed, "suite-collect"))),
            corpus: PathBuf::new(),
            targets: PathBuf::new(),
            batches: Vec::new(),
        },
        _ => BatchPlan {
            collect: None,
            corpus: s.short_train.clone(),
            targets: s.short_test.clone(),
            batches: vec![s.short_test.clone()],
        },
    }
}

/// Every workload of the short corpus: the serve request pool.
fn serve_pool(s: &Setup) -> R<Vec<SampleSet>> {
    Ok(flow::labelled_sets(&[&s.short_train, &s.short_test])?
        .into_iter()
        .map(|(_, set)| set)
        .collect())
}

type Metrics = Vec<(String, f64, &'static str)>;

fn peak_rss_mb() -> R<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ctx("reading /proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// `analyze_ms`: the median over the targets of each target's mean answer
/// time. On paper-model the answers of a whole analyze round fall in one
/// of two modes about 50% apart (10.7 or 15.6 ms in one run), and which
/// mode a round gets varies, so a median over answers jumps between the
/// modes from run to run; a mean over the rounds does not.
fn per_target_ms(answers: &[(String, f64)]) -> f64 {
    let mut by_target: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (target, ms) in answers {
        by_target.entry(target).or_default().push(*ms);
    }
    med(by_target
        .values()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64))
}

/// Run metadata printed beside every result.
#[derive(Serialize)]
struct Meta {
    workload: String,
    seed: u64,
    trace: bool,
    nproc: usize,
    cpu_model: String,
    rustc: String,
    commit: String,
    profile: String,
    features: String,
    passes: usize,
    model_reps: usize,
    setup_repeats: usize,
    hit_at_5_trials: usize,
    paper_protocol_hit_at_5: Option<f64>,
    suite_collect_cycles_per_workload: u64,
    short_collect_cycles_per_workload: u64,
    sim_caches: String,
    read_tail_percentile: Option<u32>,
    read_tail_n: Option<usize>,
    read_mix: String,
    ladder: Vec<String>,
    loadgen_late_p50_ms: f64,
    loadgen_late_p99_ms: f64,
    loadgen_late_max_ms: f64,
    checks: Vec<(String, bool)>,
    failures: Vec<String>,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn meta(opts: &Opts, ledger: &Ledger, passes: usize, steps: &[&Step]) -> Meta {
    let reference = steps.iter().find(|s| s.rate == serve::LADDER[0]);
    let late: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.done.iter().map(|d| d.late() * 1e3))
        .collect();
    Meta {
        workload: opts.workload.name().to_owned(),
        seed: opts.seed,
        trace: opts.trace,
        nproc: serve::nproc(),
        cpu_model: cpu_model(),
        rustc: env!("PERFBENCH_RUSTC").to_owned(),
        commit: env!("PERFBENCH_COMMIT").to_owned(),
        profile: env!("PERFBENCH_PROFILE").to_owned(),
        features: "default".to_owned(),
        passes,
        model_reps: 0,
        hit_at_5_trials: 0,
        paper_protocol_hit_at_5: None,
        setup_repeats: if opts.trace { 1 } else { SETUP_REPEATS },
        suite_collect_cycles_per_workload: SUITE_COLLECT.cycles_per_workload(),
        short_collect_cycles_per_workload: SHORT_COLLECT.cycles_per_workload(),
        sim_caches: "every collect starts a fresh core: modelled caches empty at cycle 0".into(),
        read_tail_percentile: reference.and_then(|s| s.tail.map(|t| t.pct)),
        read_tail_n: reference.and_then(|s| s.tail.map(|t| t.n)),
        read_mix: format!(
            "{:.0}% updates; reads {:.0}% large, {:.0}% repeats",
            gen::UPDATE_SHARE * 100.0,
            gen::LARGE_SHARE_OF_READS * 100.0,
            gen::REPEAT_SHARE_OF_READS * 100.0
        ),
        ladder: steps
            .iter()
            .map(|s| {
                format!(
                    "{} req/s: {} reads, tail {}, failed {}, backlog growing {}, {}",
                    s.rate,
                    s.reads_ms.len(),
                    s.tail.map_or("n/a".to_owned(), |t| format!(
                        "p{} {:.2} ms",
                        t.pct, t.value
                    )),
                    s.failed,
                    s.backlog_growing,
                    if s.pass {
                        "meets the limit"
                    } else {
                        "misses the limit"
                    }
                )
            })
            .collect(),
        loadgen_late_p50_ms: percentile(&late, 50.0).unwrap_or(0.0),
        loadgen_late_p99_ms: percentile(&late, 99.0).unwrap_or(0.0),
        loadgen_late_max_ms: percentile(&late, 100.0).unwrap_or(0.0),
        checks: ledger.checks.clone(),
        failures: ledger.failures.clone(),
    }
}

/// The collect seed of set-up `i`: each repetition simulates the suite
/// with its own seed, so together they give `hit_at_5` several corpora.
fn short_seed(seed: u64, i: usize) -> u64 {
    sub_seed(seed, &format!("short-collect-{i}"))
}

/// What the repeated set-ups measured besides the kept set-up.
struct SetupRuns {
    secs: Vec<f64>,
    collect_s: Vec<f64>,
    /// Leave-one-out hits and trials over every set-up corpus.
    hits: usize,
    trials: usize,
}

/// Set-up repeated `repeats` times; the last one is kept for measuring.
fn setups(ledger: &mut Ledger, work: &Path, opts: &Opts, repeats: usize) -> R<(Setup, SetupRuns)> {
    let mut kept: Option<Setup> = None;
    let mut runs = SetupRuns {
        secs: Vec::new(),
        collect_s: Vec::new(),
        hits: 0,
        trials: 0,
    };
    for i in 0..repeats {
        let dir = work.join(format!("setup-{i}"));
        let s = setup(
            ledger,
            &dir,
            opts.workload,
            opts.seed,
            short_seed(opts.seed, i),
        )?;
        runs.secs.push(s.secs);
        runs.collect_s.push(s.collect_s);
        if !opts.trace {
            let sets = flow::labelled_sets(&[&s.short_train, &s.short_test])?;
            runs.hits += flow::hits_at_5(&sets)?;
            runs.trials += sets.len();
        }
        if let Some(old) = kept.replace(s) {
            let dir = old.dir.clone();
            old.daemon.stop()?;
            std::fs::remove_dir_all(dir).ctx("removing an earlier set-up")?;
        }
    }
    Ok((kept.ok_or("no set-up ran")?, runs))
}

fn sim_rate(plan: &CollectPlan, secs: f64) -> f64 {
    let workloads = spire_workloads::suite::all().len() as u64;
    (workloads * plan.cycles_per_workload()) as f64 / secs / 1e6
}

/// Checks every serve response of the run and the daemon's accounting.
fn check_serve(ledger: &mut Ledger, daemon: &Daemon, steps: &[&Step]) -> R<serve::Direct> {
    let done: Vec<&Done> = steps.iter().flat_map(|s| s.done.iter()).collect();
    ledger.attempted += done.len() as u64;
    for d in &done {
        if !serve::ok(d) {
            let why = match &d.value.response {
                Ok(r) => r.error.clone().unwrap_or_default(),
                Err(e) => e.clone(),
            };
            ledger.fail(format!("{} request failed: {why}", d.value.plan.kind));
        }
    }
    let (mismatches, direct) = serve::verify(daemon, &done)?;
    ledger.failed += mismatches as u64;
    ledger.check("serve_responses_equal_direct", mismatches == 0);
    Ok(direct)
}

fn run_e2e(ledger: &mut Ledger, work: &Path, opts: &Opts) -> R<(Metrics, Meta)> {
    let w = opts.workload;
    let (s, runs) = setups(ledger, work, opts, SETUP_REPEATS)?;
    let plan = batch_plan(w, &s, opts.seed);
    let pool = serve_pool(&s)?;
    let off = Tracer::new(false);

    // The batch pipeline runs on both sides of the ladder, so its medians
    // span the whole measured phase instead of one stretch of host load,
    // and again while the run is shorter than `--seconds`. The first
    // pass's targets are analyzed again after every ladder step and every
    // later pass: one analyze takes milliseconds, and host speed drifts
    // by a sixth from one second to the next, so `analyze_ms` rests on
    // answers spread across the run (see `per_target_ms`).
    let measure = Instant::now();
    let pass = |ledger: &mut Ledger, k: usize| {
        flow::cli_pipeline(ledger, &work.join(format!("pass-{k}")), &plan)
    };
    let mut passes = vec![pass(ledger, 0)?];
    let first = passes[0].clone();
    let mut analyze_ms: Vec<(String, f64)> = Vec::new();
    let mut analyze_drift = 0;
    let mut reanalyze = |ledger: &mut Ledger| -> R<()> {
        let f = &first.files;
        let (ms, rankings) = flow::analyze_round(ledger, &f.model, &f.targets, ANALYZE_REPEATS)?;
        analyze_ms.extend(ms);
        analyze_drift += usize::from(rankings != first.rankings);
        Ok(())
    };
    let steps = serve::ladder(&s.daemon, &pool, opts.seed, &off, &mut || reanalyze(ledger))?;
    passes.push(pass(ledger, 1)?);
    reanalyze(ledger)?;
    while measure.elapsed().as_secs_f64() < opts.seconds {
        passes.push(pass(ledger, passes.len())?);
        reanalyze(ledger)?;
    }
    ledger.check("analyze_repeats_agree", analyze_drift == 0);
    analyze_ms.extend(passes.iter().flat_map(|p| p.analyze_ms.iter().cloned()));

    // Untimed output checks.
    let all_steps: Vec<&Step> = steps.iter().collect();
    check_serve(ledger, &s.daemon, &all_steps)?;
    let last = passes.last().ok_or("no measured pass")?;
    flow::check_batch(ledger, last)?;
    let hit = runs.hits as f64 / runs.trials as f64;
    // On one paper-protocol corpus the leave-one-out rate moves by a
    // fifth from seed to seed (27 trials, two intervals per workload), so
    // it is recorded beside the result rather than as the metric.
    let mut paper_protocol_hit = None;
    if w == Workload::SuitePipeline {
        let f = &last.files;
        let train = f.corpus_col.with_file_name("train.json");
        let sets = flow::labelled_sets(&[&train, &f.targets])?;
        paper_protocol_hit = Some(flow::hits_at_5(&sets)? as f64 / sets.len() as f64);
        let ok = flow::suite_digest().join("\n") == flow::COMMITTED_DIGEST.trim_end();
        ledger.check("suite_counter_digest", ok);
    }

    let b = |f: fn(&BatchTimes) -> f64| med(passes.iter().map(f));
    let reference = &steps[0];
    let sim = match w {
        Workload::SuitePipeline => sim_rate(&SUITE_COLLECT, b(|t| t.collect_s.unwrap_or(f64::NAN))),
        _ => sim_rate(&SHORT_COLLECT, med(runs.collect_s.iter().copied())),
    };
    let metrics: Metrics = vec![
        ("setup_s".into(), med(runs.secs.iter().copied()), "s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
        ("pipeline_s".into(), b(|t| t.pipeline_s), "s"),
        ("sim_mcycles_per_s".into(), sim, "Mcycles/s"),
        ("hit_at_5".into(), hit, "share"),
        ("convert_s".into(), b(|t| t.convert_s), "s"),
        ("train_s".into(), b(|t| t.train_s), "s"),
        ("update_s".into(), b(|t| t.update_s), "s"),
        ("analyze_ms".into(), per_target_ms(&analyze_ms), "ms"),
        (
            "read_p50_ms".into(),
            median(&reference.reads_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "read_tail_ms".into(),
            reference.tail.map_or(f64::NAN, |t| t.value),
            "ms",
        ),
        (
            "write_p50_ms".into(),
            median(&reference.writes_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        ("max_rate_rps".into(), serve::max_rate(&steps), "req/s"),
    ];
    let mut meta = meta(opts, ledger, passes.len(), &all_steps);
    meta.model_reps = last.model_reps;
    meta.hit_at_5_trials = runs.trials;
    meta.paper_protocol_hit_at_5 = paper_protocol_hit;
    s.daemon.stop()?;
    Ok((metrics, meta))
}

/// Sum of the self times of every span named `name`.
fn self_sum(spans: &[Span], selfs: &std::collections::HashMap<u64, f64>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id])
        .sum()
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() * 1e3)
        .collect()
}

fn run_traced(ledger: &mut Ledger, work: &Path, opts: &Opts) -> R<(Metrics, Meta)> {
    let w = opts.workload;
    let (s, _) = setups(ledger, work, opts, 1)?;
    let pool = serve_pool(&s)?;
    let (collect_plan, collect_seed) = match w {
        Workload::SuitePipeline => (SUITE_COLLECT, sub_seed(opts.seed, "suite-collect")),
        _ => (SHORT_COLLECT, short_seed(opts.seed, 0)),
    };
    let plan = batch_plan(w, &s, opts.seed);
    let inputs = (w != Workload::SuitePipeline).then(|| {
        (
            plan.corpus.as_path(),
            plan.targets.as_path(),
            &plan.batches[..],
        )
    });

    // The same pass untraced, traced, and untraced again: the traced wall
    // time against the mean of the untraced ones is the tracing overhead,
    // with warm-up effects split evenly between the two sides.
    let off = |k: usize| {
        let dir = work.join(format!("direct-off-{k}"));
        flow::direct_pipeline(
            &Tracer::new(false),
            &dir,
            &collect_plan,
            collect_seed,
            inputs,
        )
    };
    let first = off(0)?;
    let tracer = Tracer::new(true);
    let layers = flow::direct_pipeline(
        &tracer,
        &work.join("direct-on"),
        &collect_plan,
        collect_seed,
        inputs,
    )?;
    let second = off(1)?;
    let untraced_s = (first.wall_s + second.wall_s) / 2.0;
    ledger.check(
        "direct_passes_agree",
        [&first, &second]
            .iter()
            .all(|l| l.cycles == layers.cycles && l.front_sizes == layers.front_sizes),
    );
    ledger.check(
        "sim_cycles_as_planned",
        layers.cycles == layers.expected_cycles,
    );

    let before = s.daemon.stats()?;
    let steps = serve::ladder(&s.daemon, &pool, opts.seed, &tracer, &mut || Ok(()))?;
    let after = s.daemon.stats()?;
    let step_refs: Vec<&Step> = steps.iter().collect();
    let direct = check_serve(ledger, &s.daemon, &step_refs)?;
    if w == Workload::SuitePipeline {
        let ok = flow::suite_digest().join("\n") == flow::COMMITTED_DIGEST.trim_end();
        ledger.check("suite_counter_digest", ok);
    }

    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let busy = self_sum(&spans, &selfs, "sim.collect");
    let one = |name: &str| self_sum(&spans, &selfs, name);
    let ms_med = |name: &str| med(durations_ms(&spans, name));
    let mut m: Metrics = vec![
        ("sim.busy_s".into(), busy, "s"),
        ("sim.cycles".into(), layers.cycles as f64, "cycles"),
        ("sim.retired_instrs".into(), layers.retired as f64, "instrs"),
    ];
    for area in ["memory", "core", "frontend", "bad_speculation"] {
        let (secs, cycles) = layers.by_area.get(area).copied().unwrap_or((0.0, 0));
        m.push((
            format!("sim.mcycles_per_busy_s.{area}"),
            cycles as f64 / secs / 1e6,
            "Mcycles/s",
        ));
    }
    let json_loads = durations_ms(&spans, "counters.json_load");
    let json_saves = durations_ms(&spans, "counters.json_save");
    m.extend([
        (
            "workloads.minstr_per_s".into(),
            layers.fetched as f64 / one("workloads.stream") / 1e6,
            "Minstrs/s",
        ),
        (
            "counters.collect_overhead_frac".into(),
            layers.overhead_cycles as f64 / layers.cycles as f64,
            "share",
        ),
        ("counters.samples".into(), layers.samples as f64, "count"),
        // The corpus load and re-save are the first and last JSON spans.
        (
            "counters.json_load_s".into(),
            json_loads.first().copied().unwrap_or(f64::NAN) / 1e3,
            "s",
        ),
        (
            "counters.json_save_s".into(),
            json_saves.last().copied().unwrap_or(f64::NAN) / 1e3,
            "s",
        ),
        ("counters.col_save_s".into(), one("counters.col_save"), "s"),
        ("counters.col_load_s".into(), one("counters.col_load"), "s"),
        (
            "counters.json_bytes".into(),
            layers.json_bytes as f64,
            "bytes",
        ),
        (
            "counters.col_bytes".into(),
            layers.col_bytes as f64,
            "bytes",
        ),
        ("core.train_s".into(), one("core.train"), "s"),
        (
            "core.front_size_p50".into(),
            med(layers.front_sizes.iter().map(|&n| n as f64)),
            "points",
        ),
        (
            "core.front_size_max".into(),
            layers.front_sizes.iter().copied().max().unwrap_or(0) as f64,
            "points",
        ),
        (
            "core.snapshot_write_s".into(),
            one("core.snapshot_write"),
            "s",
        ),
        (
            "core.snapshot_load_s".into(),
            one("core.snapshot_load"),
            "s",
        ),
        (
            "core.snapshot_bytes".into(),
            layers.snapshot_bytes as f64,
            "bytes",
        ),
        ("core.estimate_ms".into(), ms_med("core.estimate"), "ms"),
        (
            "core.estimate_batch_s".into(),
            one("core.estimate_batch"),
            "s",
        ),
        ("core.rank_ms".into(), ms_med("core.rank"), "ms"),
        ("core.online_seed_s".into(), one("core.online_seed"), "s"),
        (
            "core.online_commit_ms".into(),
            ms_med("core.online_commit"),
            "ms",
        ),
        (
            "core.online_refit_metrics".into(),
            layers.refit_metrics as f64,
            "count",
        ),
    ]);
    let reference = &steps[0].done;
    for class in [Class::Small, Class::Large, Class::Update] {
        for phase in ["send", "wait", "decode"] {
            m.push((
                format!("serve.{phase}_ms.{}", class.name()),
                serve::phase_p50_ms(reference, class, phase).unwrap_or(f64::NAN),
                "ms",
            ));
        }
    }
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    let late: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.done.iter().map(|d| d.late() * 1e3))
        .collect();
    m.extend([
        ("serve.direct_ms.small".into(), med(direct.small_ms), "ms"),
        ("serve.direct_ms.large".into(), med(direct.large_ms), "ms"),
        ("serve.direct_update_ms".into(), med(direct.update_ms), "ms"),
        (
            "serve.cache_hit_ratio".into(),
            hits as f64 / lookups.max(1) as f64,
            "share",
        ),
        (
            "serve.shed".into(),
            (after.shed - before.shed) as f64,
            "count",
        ),
        ("serve.max_batch".into(), after.max_batch as f64, "requests"),
        (
            "serve.loadgen_late_p99_ms".into(),
            percentile(&late, 99.0).unwrap_or(0.0),
            "ms",
        ),
        (
            "serve.backlog_max".into(),
            steps
                .iter()
                .flat_map(|s| s.done.iter().map(|d| d.backlog))
                .max()
                .unwrap_or(0) as f64,
            "requests",
        ),
        (
            "trace.overhead_frac".into(),
            layers.wall_s / untraced_s - 1.0,
            "share",
        ),
    ]);
    write_spans(opts, &spans)?;
    let meta = meta(opts, ledger, 1, &step_refs);
    s.daemon.stop()?;
    Ok((m, meta))
}

/// Spans stay in memory during the run and are written here at its end.
fn write_spans(opts: &Opts, spans: &[Span]) -> R<()> {
    let dir = Path::new(".bench_trace");
    std::fs::create_dir_all(dir).ctx("creating .bench_trace")?;
    let path = dir.join(format!("{}-seed{}.json", opts.workload.name(), opts.seed));
    let json = serde_json::to_string(spans).ctx("serializing spans")?;
    std::fs::write(&path, json).ctx("writing spans")
}

#[derive(Serialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--write-digest"] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/suite-digest.txt");
        let text = flow::suite_digest().join("\n") + "\n";
        return match std::fs::write(path, text) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("writing {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work =
        Path::new(".bench_work").join(format!("{}-{}", opts.workload.name(), std::process::id()));
    let mut ledger = Ledger::default();
    let result = if opts.trace {
        run_traced(&mut ledger, &work, &opts)
    } else {
        run_e2e(&mut ledger, &work, &opts)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let (metrics, meta) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            for f in &ledger.failures {
                eprintln!("  {f}");
            }
            (Vec::new(), meta(&opts, &ledger, 0, &[]))
        }
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
        if !value.is_finite() {
            ledger.fail(format!("metric {name} is not a finite number"));
        }
        if !perfbench::valid_metric_name(name) {
            ledger.fail(format!("metric name {name} is malformed"));
        }
    }
    let correct = !metrics.is_empty() && ledger.failed == 0;
    match serde_json::to_string(&meta) {
        Ok(json) => println!("meta {json}"),
        Err(e) => eprintln!("cannot serialize the run metadata: {e}"),
    }
    let outcome = Outcome {
        correct,
        attempted: ledger.attempted.max(1),
        failed: ledger.failed,
        metrics: metrics
            .into_iter()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(n, value, unit)| {
                (
                    n,
                    Value {
                        value,
                        unit: unit.to_owned(),
                    },
                )
            })
            .collect(),
    };
    match serde_json::to_string(&outcome) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("cannot serialize the result: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
