//! The `campaign` binary's failure paths: a grid point the model cannot
//! evaluate ends the run with a one-line error and exit status 1, and a
//! malformed environment value, a value-taking flag given as the last
//! token, or an unknown argument ends it with status 2 before any work. No
//! failure may surface as a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory for one test, under Cargo's per-target temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `campaign` in `dir` with `args`, with no `XR_*` variable inherited
/// except those in `env`.
fn campaign(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> (Output, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_campaign"));
    for (var, _) in std::env::vars().filter(|(var, _)| var.starts_with("XR_")) {
        command.env_remove(var);
    }
    let output = command
        .args(args)
        .current_dir(dir)
        .envs(env.iter().copied())
        .env("RUST_BACKTRACE", "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    (output, stderr)
}

#[test]
fn a_saturated_grid_fails_with_a_message_not_a_panic() {
    let dir = scratch("campaign_cli_saturated");
    // 40 tenants at the default 30 fps offer 1200 frames/s to an edge
    // server that serves a few dozen: the shared queue is unstable.
    let grid = dir.join("saturated.grid");
    std::fs::write(
        &grid,
        "frame_sizes = 300\ncpu_clocks = 2.0\nexecutions = remote\n\
         devices = XR2\nusers_per_edge = 40\n",
    )
    .unwrap();
    let (output, stderr) = campaign(
        &dir,
        &["--grid", grid.to_str().unwrap()],
        &[("XR_SWEEP_WORKERS", "1")],
    );
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("campaign failed: "), "stderr: {stderr}");
    assert!(!stderr.contains("backtrace"), "stderr: {stderr}");
}

#[test]
fn malformed_environment_values_are_named_and_rejected() {
    let dir = scratch("campaign_cli_env");
    for (var, token) in [
        ("XR_SWEEP_WORKERS", "abc"),
        ("XR_FUSED_POINTS", "yes"),
        ("XR_CAMPAIGN_SEED", "abc"),
        ("XR_CAMPAIGN_SEED", "-1"),
    ] {
        let (output, stderr) = campaign(&dir, &[], &[(var, token)]);
        assert_eq!(output.status.code(), Some(2), "{var}={token}: {stderr}");
        assert!(
            stderr.contains(var) && stderr.contains(&format!("`{token}`")),
            "{var}={token}: {stderr}"
        );
    }
}

#[test]
fn value_flags_without_a_value_are_named_and_rejected() {
    let dir = scratch("campaign_cli_flags");
    // The variable is set to a valid value: a missing flag value must not
    // fall back to it (or to a default).
    let (output, stderr) = campaign(&dir, &["--reorder-cap"], &[("XR_REORDER_CAP", "64")]);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--reorder-cap"), "stderr: {stderr}");
    assert!(
        !dir.join("target/experiments/campaign.csv").exists(),
        "the campaign ran"
    );
}

#[test]
fn unknown_arguments_are_named_and_rejected() {
    let dir = scratch("campaign_cli_unknown");
    let csv = dir.join("target/experiments/campaign.csv");
    // A campaign left over from an earlier run must not mask this one.
    let _ = std::fs::remove_file(&csv);
    // A removed flag with its value, a made-up flag, and a typo of a
    // known switch.
    for (args, token) in [
        (&["--session-chunks", "2"][..], "--session-chunks"),
        (&["--bogus"][..], "--bogus"),
        (&["--fused-point"][..], "--fused-point"),
    ] {
        let (output, stderr) = campaign(&dir, args, &[]);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("`{token}`")), "{args:?}: {stderr}");
        assert!(!csv.exists(), "{args:?}: the campaign ran");
    }
}
