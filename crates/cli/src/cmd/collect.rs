//! `spire collect`: sample the workload suite on the simulated core into
//! a labeled dataset, narrating each run on the diagnostics bus.
//!
//! Workloads simulate in parallel (`--threads`, 0 = auto), each on its own
//! core with its own stream, so the dataset is byte-identical at any
//! thread count. Each simulation is reported as a `simulate` stage whose
//! `items_out` is the simulated cycle count.

use std::fmt::Write as _;
use std::time::Instant;

use serde::Content;
use spire_core::parallel;
use spire_core::pipeline::Event as BusEvent;
use spire_counters::{collect, Dataset, SessionConfig};
use spire_sim::{Core, Event};
use spire_workloads::suite;

use crate::args::Args;
use crate::commands::CmdResult;

use super::{json, resolve_machine, Runner};

pub(crate) fn run(args: &Args) -> CmdResult {
    let out_path = args.require("out")?;
    let which = args.get("set").unwrap_or("train");
    let machine = resolve_machine(args)?;
    let spec = machine.spec();
    let runner = Runner::from_args(args)?;
    runner
        .ctx
        .note("collect", format!("machine {}", spec.tag()));
    let seed = runner.ctx.config.seed;
    let mut session_cfg = SessionConfig::default();
    session_cfg.max_cycles = args.get_or("cycles", 2_000_000)?;
    session_cfg.interval_cycles = args.get_or("interval", session_cfg.interval_cycles)?;
    session_cfg.slice_cycles = args.get_or("slice", session_cfg.slice_cycles)?;

    let profiles = match which {
        "train" => suite::training(),
        "test" => suite::testing(),
        "all" => suite::all(),
        other => return Err(format!("--set must be train|test|all, got `{other}`").into()),
    };

    let runs = parallel::map(&profiles, runner.ctx.config.train.threads, |p| {
        let start = Instant::now();
        let mut core = Core::new(machine.config);
        let report = collect(&mut core, &mut p.stream(seed), Event::ALL, &session_cfg);
        (report, start.elapsed().as_secs_f64() * 1e3)
    });

    let mut dataset = Dataset::new();
    let mut log = String::new();
    let mut rows: Vec<Content> = Vec::new();
    for (p, (report, wall_ms)) in profiles.iter().zip(runs) {
        let cycles = report.total_cycles;
        let mcycles_per_s = cycles as f64 / wall_ms / 1e3;
        runner.ctx.emit(BusEvent::StageStarted {
            stage: "simulate".to_owned(),
            items_in: None,
        });
        runner.ctx.emit(BusEvent::StageFinished {
            stage: "simulate".to_owned(),
            wall_ms,
            items_in: None,
            items_out: Some(cycles as usize),
        });
        let line = format!(
            "{} ({}): {} samples over {} intervals, overhead {:.2}%, {mcycles_per_s:.2} Mcycles/s",
            p.name,
            p.config,
            report.samples.len(),
            report.intervals,
            report.overhead_fraction() * 100.0
        );
        runner.ctx.note("collect", line.clone());
        writeln!(log, "{line}")?;
        rows.push(json::obj(vec![
            ("name", json::s(p.name.clone())),
            ("config", json::s(p.config.clone())),
            ("samples", json::u(report.samples.len())),
            ("intervals", json::u(report.intervals)),
            ("overhead", json::f(report.overhead_fraction())),
            ("cycles", json::u(cycles as usize)),
            ("mcycles_per_s", json::f(mcycles_per_s)),
        ]));
        dataset.insert(format!("{} ({})", p.name, p.config), report.samples);
    }
    dataset.set_machine(Some(spec.clone()));
    dataset.save(out_path)?;
    writeln!(
        log,
        "wrote {} samples across {} workloads to {out_path}",
        dataset.total_samples(),
        dataset.len()
    )?;
    let result = json::obj(vec![
        ("out", json::s(out_path)),
        ("total_samples", json::u(dataset.total_samples())),
        ("machine", json::machine(Some(&spec))),
        ("workloads", Content::Seq(rows)),
    ]);
    runner.finish(args, "collect", log, result)
}
