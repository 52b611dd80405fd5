//! Records the toolchain, build profile and commit in the binary, for the
//! run metadata printed beside every result.

use std::path::Path;
use std::process::Command;

fn output_of(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version =
        output_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".to_owned());
    // Only the repository's own `.git` is read: a checkout without one
    // reports no commit rather than a parent directory's.
    let git_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = git_dir
        .exists()
        .then(|| {
            println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
            println!("cargo:rerun-if-changed={}", git_dir.join("refs").display());
            output_of(Command::new("git").env("GIT_DIR", &git_dir).args([
                "rev-parse",
                "--short=12",
                "HEAD",
            ]))
        })
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
