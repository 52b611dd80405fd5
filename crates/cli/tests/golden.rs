//! Golden-file tests for the CLI's `--json` envelope: the full
//! ingest → train --snapshot → estimate → analyze flow on a fixture
//! dataset, asserting exit-code semantics (0 / 2 / 1) and byte-stable
//! machine output.
//!
//! Volatile content is normalized before comparison: stage wall times and
//! simulation rates become zero and the per-run temp directory becomes
//! `<DIR>`. To
//! regenerate the goldens after an intentional schema change, run with
//! `SPIRE_UPDATE_GOLDEN=1` and review the diff.

use spire_cli::commands::{run, CmdResult, EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK};
use spire_core::{ModelSnapshot, Sample, SampleSet};
use spire_counters::Dataset;

fn run_str(argv: &[&str]) -> CmdResult {
    let v: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
    run(&v)
}

/// The exit code the binary would report for this result.
fn exit_code(result: &CmdResult) -> i32 {
    match result {
        Ok(out) if out.degraded => EXIT_DEGRADED,
        Ok(_) => EXIT_OK,
        Err(_) => EXIT_FAILURE,
    }
}

/// Zeroes `"wall_ms"` and `"mcycles_per_s"` values and the rate in
/// `collect`'s log lines, and replaces `dir` with `<DIR>`, so the
/// remainder of the envelope must be byte-identical run to run.
fn normalize(text: &str, dir: &str) -> String {
    let mut out = String::new();
    for line in text.replace(dir, "<DIR>").lines() {
        let line = zero_field(line, "wall_ms");
        let line = zero_field(&line, "mcycles_per_s");
        out.push_str(&zero_rate_text(&line));
        out.push('\n');
    }
    out
}

/// Replaces the value on a `"key": value` line with `0.0`.
fn zero_field(line: &str, key: &str) -> String {
    let pattern = format!("\"{key}\": ");
    let Some(start) = line.find(&pattern) else {
        return line.to_owned();
    };
    let trailing = if line.trim_end().ends_with(',') {
        ","
    } else {
        ""
    };
    format!("{}0.0{trailing}", &line[..start + pattern.len()])
}

/// Zeroes the measured rate in a `collect` log line (`…, 2.48 Mcycles/s`).
fn zero_rate_text(line: &str) -> String {
    let Some(end) = line.find(" Mcycles/s") else {
        return line.to_owned();
    };
    let start = line[..end].rfind(' ').map_or(0, |i| i + 1);
    format!("{}0.00{}", &line[..start], &line[end..])
}

/// Compares `actual` to the committed golden, or rewrites the golden
/// when `SPIRE_UPDATE_GOLDEN` is set.
fn assert_golden(actual: &str, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("SPIRE_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; run with SPIRE_UPDATE_GOLDEN=1 if intentional"
    );
}

fn fixture_csv() -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/perf_mixed.csv")
        .to_str()
        .unwrap()
        .to_owned()
}

/// A deterministic three-metric dataset for the train/estimate/analyze
/// legs (the mixed CSV's single metric is too thin to train on).
fn write_dataset(path: &std::path::Path) {
    let mut set = SampleSet::new();
    for m in ["m_alpha", "m_beta", "m_gamma"] {
        for i in 1..6 {
            set.push(Sample::new(m, 10.0, (5 * i) as f64, (10 - i) as f64).unwrap());
        }
    }
    let mut ds = Dataset::new();
    ds.insert("wl", set);
    ds.save(path).unwrap();
}

#[test]
fn golden_collect_json() {
    let dir = std::env::temp_dir().join("spire-golden-collect");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("data.json");
    let result = run_str(&[
        "collect",
        "--out",
        out_file.to_str().unwrap(),
        "--set",
        "test",
        "--cycles",
        "20000",
        "--interval",
        "10000",
        "--slice",
        "1000",
        "--threads",
        "2",
        "--json",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK);
    let text = normalize(&result.unwrap().text, dir.to_str().unwrap());
    assert_golden(&text, "collect.golden.json");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_ingest_json_degraded() {
    let dir = std::env::temp_dir().join("spire-golden-ingest");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("imported.json");
    let csv = fixture_csv();
    let result = run_str(&[
        "ingest",
        "--csv",
        &csv,
        "--out",
        out_file.to_str().unwrap(),
        "--label",
        "mux",
        "--json",
    ]);
    assert_eq!(exit_code(&result), EXIT_DEGRADED, "quarantined rows => 2");
    let fixture_dir = fixture_csv().rsplit_once('/').unwrap().0.to_owned();
    let text = normalize(&result.unwrap().text, dir.to_str().unwrap());
    let text = text.replace(&fixture_dir, "<FIXTURES>");
    assert_golden(&text, "ingest_mixed.golden.json");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_train_estimate_analyze_json() {
    let dir = std::env::temp_dir().join("spire-golden-flow");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let snap = dir.join("model.snapshot.json");
    write_dataset(&data);

    let result = run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK, "clean training => 0");
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "train.golden.json",
    );

    let common = [
        "--model",
        snap.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--workload",
        "wl",
        "--json",
    ];
    let mut argv = vec!["estimate"];
    argv.extend_from_slice(&common);
    let result = run_str(&argv);
    assert_eq!(exit_code(&result), EXIT_OK);
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "estimate.golden.json",
    );

    let mut argv = vec!["analyze"];
    argv.extend_from_slice(&common);
    argv.extend_from_slice(&["--top", "3"]);
    let result = run_str(&argv);
    assert_eq!(exit_code(&result), EXIT_OK);
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "analyze.golden.json",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_salvaged_snapshot_is_degraded_then_strict_fails() {
    let dir = std::env::temp_dir().join("spire-golden-salvage");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let snap = dir.join("model.snapshot.json");
    write_dataset(&data);
    run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
    ])
    .unwrap();

    // Corrupt one record's checksum on disk.
    let mut stored = ModelSnapshot::from_json(&std::fs::read_to_string(&snap).unwrap()).unwrap();
    stored.metrics[0].checksum = "0000000000000000".to_owned();
    std::fs::write(&snap, stored.to_json()).unwrap();

    let common = [
        "--model",
        snap.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--workload",
        "wl",
        "--json",
    ];
    // Lenient: salvaged => exit 2, with the drop visible in the events.
    let mut argv = vec!["estimate"];
    argv.extend_from_slice(&common);
    let result = run_str(&argv);
    assert_eq!(exit_code(&result), EXIT_DEGRADED, "salvage => 2");
    let text = normalize(&result.unwrap().text, dir.to_str().unwrap());
    assert!(text.contains("\"degraded\": true"));
    assert!(text.contains("\"kind\": \"snapshot_record_dropped\""));
    assert!(text.contains("\"kind\": \"snapshot_salvaged\""));
    assert_golden(&text, "estimate_salvaged.golden.json");

    // Strict: the artifact is refused outright => exit 1.
    argv.push("--strict");
    let result = run_str(&argv);
    assert_eq!(exit_code(&result), EXIT_FAILURE, "strict salvage => 1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_convert_round_trip_is_byte_identical() {
    let dir = std::env::temp_dir().join("spire-golden-convert");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let binary = dir.join("data.spirecol");
    let back = dir.join("back.json");
    write_dataset(&data);

    // JSON -> binary, with the envelope pinned (sizes are deterministic).
    let result = run_str(&[
        "convert",
        "--data",
        data.to_str().unwrap(),
        "--out",
        binary.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK, "clean convert => 0");
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "convert.golden.json",
    );

    // binary -> JSON reproduces the source file byte for byte.
    let result = run_str(&[
        "convert",
        "--data",
        binary.to_str().unwrap(),
        "--out",
        back.to_str().unwrap(),
        "--to",
        "json",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK);
    assert_eq!(
        std::fs::read(&data).unwrap(),
        std::fs::read(&back).unwrap(),
        "JSON -> binary -> JSON must be byte-identical"
    );

    // The binary dataset answers estimates bit-identically to the JSON
    // one: the whole --json envelope (throughput included, full float
    // precision) must match byte for byte.
    let snap = dir.join("model.snapshot.json");
    run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
    ])
    .unwrap();
    let estimate = |data_path: &str| {
        let result = run_str(&[
            "estimate",
            "--model",
            snap.to_str().unwrap(),
            "--data",
            data_path,
            "--workload",
            "wl",
            "--json",
        ]);
        assert_eq!(exit_code(&result), EXIT_OK);
        normalize(&result.unwrap().text, dir.to_str().unwrap())
    };
    assert_eq!(
        estimate(data.to_str().unwrap()),
        estimate(binary.to_str().unwrap()),
        "estimates from the binary dataset drifted from the JSON path"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_envelope_is_uniform_across_subcommands() {
    // Every subcommand's --json output parses and carries the same
    // top-level schema fields in the same order.
    let dir = std::env::temp_dir().join("spire-golden-uniform");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    write_dataset(&data);
    let outputs = [
        run_str(&["list-workloads", "--json"]).unwrap(),
        run_str(&[
            "simulate",
            "--workload",
            "tnn",
            "--config",
            "SqueezeNet v1.1",
            "--cycles",
            "50000",
            "--json",
        ])
        .unwrap(),
        run_str(&[
            "tma",
            "--workload",
            "onnx",
            "--config",
            "T5 Encoder, Std.",
            "--cycles",
            "50000",
            "--json",
        ])
        .unwrap(),
        run_str(&[
            "coverage",
            "--data",
            data.to_str().unwrap(),
            "--workload",
            "wl",
            "--json",
        ])
        .unwrap(),
    ];
    for out in &outputs {
        let lines: Vec<&str> = out.text.lines().collect();
        assert_eq!(lines[0], "{");
        assert!(lines[1].starts_with("  \"command\": "), "{}", lines[1]);
        assert!(out.text.contains("\"schema_version\": 1"));
        assert!(out.text.contains("\"degraded\": "));
        assert!(out.text.contains("\"events\": "));
        assert!(out.text.contains("\"result\": "));
    }
    std::fs::remove_dir_all(&dir).ok();
}
