//! The consolidated campaign binary: sweeps the full twelve-axis quick grid
//! (frame size × CPU clock × execution target × device × wireless condition
//! × mobility condition × campaign size × edge population × frame rate ×
//! topology layout × site density × migration policy,
//! with per-point replications)
//! through the parallel campaign engine and writes one mean-±-CI row per
//! operating point to `campaign.csv`.
//!
//! `--grid <file>` swaps the built-in quick grid for a data-defined one
//! parsed by `xr_sweep::parse_grid_spec` (see that module's docs for the
//! `key = value` format), so campaigns can change without recompiling.
//!
//! `--shard i/N` runs only the points `p % N == i - 1` (seeded by original
//! grid index) into `campaign_shard_<i>of<N>.csv` plus a `.manifest`, with
//! an fsync'd `.checkpoint` (`--checkpoint-every <rows>` sets the cadence)
//! so a killed shard resumes at the last durable row; `campaign_merge`
//! interleaves the shard CSVs back into the unsharded artifact byte for
//! byte.
//!
//! The CSV is bit-identical for every worker count (`XR_SWEEP_WORKERS`)
//! and for all three session engines (`--scalar-sessions` forces the
//! scalar reference, `--fused-points` / `XR_FUSED_POINTS=1` fuses all
//! replications of a point into one wide SoA pass); CI runs this binary
//! under all of these axes and diffs the artifacts.
//!
//! `--progress` emits `shard i/N: completed/total points` lines to stderr
//! at checkpoint boundaries (`1/1` and every completed point on an
//! unsharded run); stdout and the CSV are byte-identical either way.
//! `--reorder-cap <n>` / `XR_REORDER_CAP` bound the streaming hold-back
//! window (how far fast workers may run ahead of one slow point).
//!
//! Any other argument ends the run with status 2 before calibration, with
//! a message naming it.

use xr_experiments::campaign::{quick_grid, run_campaign_streaming, CampaignRow, CAMPAIGN_HEADER};
use xr_experiments::shard_campaign::{run_campaign_shard_with_progress, shard_csv_name};
use xr_experiments::{output, ExperimentContext};
use xr_sweep::{parse_grid_spec, ShardSpec, SweepGrid, DEFAULT_SYNC_EVERY};

/// Flags that take the next token as their value.
const VALUE_FLAGS: [&str; 4] = ["--grid", "--shard", "--checkpoint-every", "--reorder-cap"];

/// Flags that take no value.
const SWITCHES: [&str; 4] = [
    "--progress",
    "--paper-scale",
    "--scalar-sessions",
    "--fused-points",
];

/// The first argument after the program name that is neither a known
/// switch, a value flag, nor the value following one.
fn unknown_argument(args: &[String]) -> Option<&str> {
    let mut tokens = args.iter().skip(1).map(String::as_str);
    while let Some(token) = tokens.next() {
        if VALUE_FLAGS.contains(&token) {
            tokens.next();
        } else if !SWITCHES.contains(&token) {
            return Some(token);
        }
    }
    None
}

/// Resolves the campaign grid: `--grid <file>` when given, the built-in
/// quick grid otherwise.
fn grid_from_args() -> SweepGrid {
    let args: Vec<String> = std::env::args().collect();
    let Some(position) = args.iter().position(|a| a == "--grid") else {
        return quick_grid();
    };
    let Some(path) = args.get(position + 1) else {
        eprintln!("--grid requires a file path");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read grid spec {path}: {error}");
            std::process::exit(2);
        }
    };
    match parse_grid_spec(&text) {
        Ok(grid) => grid,
        Err(error) => {
            eprintln!("invalid grid spec {path}: {error}");
            std::process::exit(2);
        }
    }
}

/// Resolves `--shard i/N`: `None` without the flag, exit 2 on a malformed
/// or out-of-range spec.
fn shard_from_args() -> Option<ShardSpec> {
    let args: Vec<String> = std::env::args().collect();
    let position = args.iter().position(|a| a == "--shard")?;
    let Some(token) = args.get(position + 1) else {
        eprintln!("--shard requires a spec like `2/4`");
        std::process::exit(2);
    };
    match ShardSpec::parse(token) {
        Ok(shard) => Some(shard),
        Err(error) => {
            eprintln!("invalid --shard: {error}");
            std::process::exit(2);
        }
    }
}

/// Resolves `--checkpoint-every <rows>`: the fsync cadence of the shard
/// checkpoint, defaulting to every row; exit 2 on a malformed count.
fn checkpoint_every_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let Some(position) = args.iter().position(|a| a == "--checkpoint-every") else {
        return DEFAULT_SYNC_EVERY;
    };
    let Some(token) = args.get(position + 1) else {
        eprintln!("--checkpoint-every requires a row count");
        std::process::exit(2);
    };
    match token.parse::<usize>() {
        Ok(rows) if rows >= 1 => rows,
        _ => {
            eprintln!("invalid --checkpoint-every: `{token}` is not a row count of at least 1");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(token) = unknown_argument(&args) {
        eprintln!(
            "unknown argument `{token}`; known flags: {} <value>, {}",
            VALUE_FLAGS.join(" <value>, "),
            SWITCHES.join(", ")
        );
        std::process::exit(2);
    }
    let grid = grid_from_args();
    let checkpoint_every = checkpoint_every_from_args();
    let progress = std::env::args().any(|a| a == "--progress");
    let ctx = ExperimentContext::from_args();
    if let Some(shard) = shard_from_args() {
        let dir = output::artifact_dir();
        std::fs::create_dir_all(&dir).expect("cannot create the artifact directory");
        let csv_path = dir.join(shard_csv_name(shard));
        let report = run_campaign_shard_with_progress(
            &ctx,
            &grid,
            &ctx.runner(),
            shard,
            &csv_path,
            checkpoint_every,
            progress,
        )
        .unwrap_or_else(|error| {
            eprintln!("shard campaign failed: {error}");
            std::process::exit(1);
        });
        println!(
            "shard {shard}: {} row(s) resumed from checkpoint, {} evaluated ({} worker(s)); csv written to {}",
            report.resumed_rows,
            report.evaluated_rows,
            ctx.runner().workers(),
            report.csv_path.display()
        );
        return;
    }
    if std::env::args().any(|a| a == "--checkpoint-every") {
        eprintln!("--checkpoint-every only applies to a sharded run (--shard i/N)");
        std::process::exit(2);
    }
    // An unsharded run is the whole campaign in one piece — report it as
    // shard 1/1, one "checkpoint" per completed point (the sharded
    // default cadence).
    let total = grid.len();
    let mut rows: Vec<CampaignRow> = Vec::with_capacity(total);
    run_campaign_streaming(&ctx, &grid, |_, row| {
        rows.push(row);
        if progress {
            eprintln!("shard 1/1: {}/{total} points", rows.len());
        }
    })
    .unwrap_or_else(|error| {
        eprintln!("campaign failed: {error}");
        std::process::exit(1);
    });
    let cells: Vec<Vec<String>> = rows.iter().map(|r| r.cells()).collect();
    output::print_experiment(
        "Consolidated campaign — twelve-axis replicated sweep",
        &CAMPAIGN_HEADER,
        &cells,
        "campaign.csv",
    );
    println!(
        "{} operating points × {} replication(s) evaluated with {} worker(s)",
        rows.len(),
        grid.replications(),
        ctx.runner().workers()
    );
}
