//! Support code for the SPIRE end-to-end benchmark: summary statistics,
//! in-memory span tracing, and the seeded input generators. The binary in
//! `main.rs` drives the workloads; everything here is pure enough to be
//! covered by the self-tests in `tests/selftest.rs`.

pub mod gen;
pub mod loadgen;
pub mod stats;
pub mod trace;

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
