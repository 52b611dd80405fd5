//! Simulator equivalence over the whole suite on every catalog machine.
//!
//! A run's counters must depend only on how many cycles it simulated,
//! never on how those cycles were cut into `Core::run` calls: idle-cycle
//! skip-ahead may never carry the clock past the end of a call. And the
//! counters of a short cold run must match the digest the benchmark in
//! `perfbench/` checks, so simulator drift fails here first.

use spire_counters::{collect, SessionConfig};
use spire_sim::{Core, Event, Machine, MachineCatalog};
use spire_workloads::{suite, WorkloadProfile};

/// Seed and cycles per workload of the committed benchmark digest.
const SEED: u64 = 1;
const CYCLES: u64 = 20_000;

/// Runs `profile` on a cold core for `total` cycles in calls of at most
/// `slice` cycles.
fn run_sliced(machine: &Machine, profile: &WorkloadProfile, total: u64, slice: u64) -> Core {
    let mut core = Core::new(machine.config);
    let mut stream = profile.stream(SEED);
    while core.cycle() < total {
        let ran = core.run(&mut stream, slice.min(total - core.cycle()));
        assert!(ran.cycles > 0, "suite streams never drain");
    }
    core
}

fn label(machine: &Machine, profile: &WorkloadProfile) -> String {
    format!("{} / {} ({})", machine.name, profile.name, profile.config)
}

#[test]
fn slicing_a_run_never_changes_a_counter() {
    for machine in MachineCatalog::builtin().machines() {
        for profile in suite::all() {
            let at = label(machine, &profile);
            let whole = run_sliced(machine, &profile, CYCLES, CYCLES);
            assert_eq!(whole.cycle(), CYCLES, "{at}");
            for slice in [1, 7, 997] {
                let sliced = run_sliced(machine, &profile, CYCLES, slice);
                assert_eq!(
                    sliced.retired_instructions(),
                    whole.retired_instructions(),
                    "{at}, slices of {slice}"
                );
                assert!(
                    sliced.counters() == whole.counters(),
                    "{at}: counters differ in slices of {slice}"
                );
            }

            // The sampling session's own slicing: reprogramming gaps and
            // measured slices of the default configuration.
            let mut core = Core::new(machine.config);
            let config = SessionConfig {
                max_cycles: CYCLES,
                ..SessionConfig::default()
            };
            let report = collect(&mut core, &mut profile.stream(SEED), Event::ALL, &config);
            let whole = run_sliced(machine, &profile, report.total_cycles, report.total_cycles);
            assert_eq!(
                core.retired_instructions(),
                whole.retired_instructions(),
                "{at}"
            );
            assert!(
                core.counters() == whole.counters(),
                "{at}: counters differ under collect"
            );
        }
    }
}

/// FNV-1a 64 of the cycle count, the retired-instruction count and every
/// counter: the recipe of `perfbench`'s `suite_digest`.
fn digest(core: &Core) -> u64 {
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
    h
}

#[test]
fn suite_counters_match_the_committed_benchmark_digest() {
    let committed = include_str!("../../../perfbench/suite-digest.txt");
    let mut lines = Vec::new();
    for machine in MachineCatalog::builtin().machines() {
        for profile in suite::all() {
            let core = run_sliced(machine, &profile, CYCLES, CYCLES);
            lines.push(format!(
                "{}\t{} ({})\t{:016x}",
                machine.name,
                profile.name,
                profile.config,
                digest(&core)
            ));
        }
    }
    assert_eq!(lines.join("\n"), committed.trim_end());
}
