//! `spire collect` simulates each workload on its own core with its own
//! stream, so the dataset file must not depend on how many threads ran
//! the workloads.

use spire_cli::commands::run;

/// Runs `collect` for `set` with `threads` and returns the dataset bytes.
fn collect_bytes(dir: &std::path::Path, set: &str, threads: &str) -> Vec<u8> {
    let out = dir.join(format!("{set}-{threads}.json"));
    let argv: Vec<String> = [
        "collect",
        "--out",
        out.to_str().unwrap(),
        "--set",
        set,
        "--cycles",
        "40000",
        "--interval",
        "20000",
        "--slice",
        "1000",
        "--threads",
        threads,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    run(&argv).unwrap();
    std::fs::read(&out).unwrap()
}

#[test]
fn collect_writes_the_same_bytes_at_any_thread_count() {
    let dir = std::env::temp_dir().join("spire-collect-threads");
    std::fs::create_dir_all(&dir).unwrap();
    for set in ["train", "test"] {
        let serial = collect_bytes(&dir, set, "1");
        let auto = collect_bytes(&dir, set, "0");
        assert!(!serial.is_empty());
        assert!(serial == auto, "--set {set}: --threads 1 and 0 differ");
    }
    std::fs::remove_dir_all(&dir).ok();
}
