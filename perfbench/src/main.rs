//! Campaign benchmark for the xr-perf workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --grids <dir> --work-dir <dir>
//! ```
//!
//! Runs one workload in this process: sets up the paper-scale context and
//! the workload's grid, runs the correctness gate, then times campaigns
//! for `--seconds`. With `--trace 0` it reports the end-to-end metrics;
//! with `--trace 1` it alternates untraced and traced campaigns and
//! reports per-layer metrics. The last stdout line is one JSON object.
//! Exits 1 without a result when the gate fails, 2 on a usage error.
//!
//! The configuration is fixed here, not read from the environment: the
//! default (per-replication batched) session engine, and
//! `CampaignRunner::new(min(2, available parallelism))`.

mod runs;
mod stats;
mod trace;

use runs::{Outcome, Res, Traced};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Layer, Span};
use xr_devices::DeviceCatalog;
use xr_experiments::campaign::run_campaign_subset_streaming_with;
use xr_experiments::shard_campaign::checkpoint_path;
use xr_experiments::{CampaignRow, ExperimentContext};
use xr_sweep::{
    parse_grid_spec, replication_seed, CheckpointHeader, OperatingPoint, ShardCheckpoint, SweepGrid,
};
use xr_testbed::{CalibratedModels, GroundTruthFrame, MeasurementCampaign, TestbedSimulator};

/// Set-ups per run, spread evenly over the timed window so that they see
/// the same machine as the campaigns; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Points re-run on the scalar engine by the gate.
const SCALAR_SAMPLE: usize = 8;
/// Sharded campaigns the I/O probe times; its metrics are their medians.
const IO_PROBE_REPS: usize = 3;
/// The I/O probe's metrics, reported as 0 by workloads without the probe.
/// Only `many-points` runs it.
const IO_PROBE_METRICS: [(&str, &str); 6] = [
    ("io.shard_s", "s"),
    ("io.checkpoint_records", "count"),
    ("io.fsyncs", "count"),
    ("io.overhead_s", "s"),
    ("io.resume_s", "s"),
    ("io.merge_s", "s"),
];
/// Most of the untraced worker-seconds the traced layers and runner idle
/// may leave unattributed; above it a traced run is not `correct`.
const UNATTRIBUTED_LIMIT_PCT: f64 = 5.0;
/// Minimum wall of the kernel-floor measurement taken after every traced
/// round, so that it sees the same machine as the campaigns.
const STANDALONE_S: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReplicatedGrid,
    ManyPoints,
    LongSessions,
}

impl Workload {
    const ALL: [Self; 3] = [Self::ReplicatedGrid, Self::ManyPoints, Self::LongSessions];

    fn name(self) -> &'static str {
        match self {
            Self::ReplicatedGrid => "replicated-grid",
            Self::ManyPoints => "many-points",
            Self::LongSessions => "long-sessions",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    grids: PathBuf,
    work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Res<Args> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            key
            @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--grids" | "--work-dir") => key,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing {key}"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?;
    let seconds = get("--seconds")?;
    let seconds: f64 = seconds
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("--seconds: `{seconds}` is not a positive number"))?;
    Ok(Args {
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed: `{seed}` is not an unsigned integer"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: `{other}` is not 0 or 1")),
        },
        grids: PathBuf::from(get("--grids")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|message| {
        eprintln!(
            "perfbench: {message}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --grids <dir> --work-dir <dir>",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    if let Err(message) = run(&args) {
        eprintln!("perfbench: {message}");
        std::process::exit(1);
    }
}

/// The benchmark's end product: metrics in print order, plus the
/// attempted/failed point counts of the timed campaigns.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

fn run(args: &Args) -> Res<()> {
    let name = args.workload.name();
    let grid_file = args.grids.join(format!("{name}.grid"));
    let spec = std::fs::read_to_string(&grid_file)
        .map_err(|e| format!("cannot read {}: {e}", grid_file.display()))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let bench = Bench::set_up(args.workload, args.seed, &spec, workers)?;
    let dir = args.work_dir.join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = bench.gate().and_then(|reference| {
        println!(
            "workload {name} seed {}: {} points x {} replication(s), {} frames per campaign, {workers} worker(s)",
            args.seed,
            bench.points.len(),
            bench.grid.replications(),
            bench.frames
        );
        println!(
            "csv_digest fnv1a64={:016x} bytes={}",
            stats::fnv1a64(reference.csv.as_bytes()),
            reference.csv.len()
        );
        if args.trace {
            bench.traced_report(&reference, &dir, args.seconds, &spec)
        } else {
            bench.timed_report(&reference, &dir, args.seconds, &spec)
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let report = result?;
    for note in &report.notes {
        println!("{note}");
    }
    let mut body = Vec::new();
    for &(metric, value, unit) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {metric} is not finite"));
        }
        println!("{metric} = {value} {unit}");
        body.push(format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    Ok(())
}

/// The workload's context, grid and fixed configuration.
struct Bench {
    workload: Workload,
    ctx: ExperimentContext,
    grid: SweepGrid,
    points: Vec<OperatingPoint>,
    workers: usize,
    /// Ground-truth frames one campaign simulates.
    frames: u64,
    setup_s: f64,
}

/// The gate's reference campaign.
struct Reference {
    csv: String,
    rows: Vec<CampaignRow>,
}

fn differ(what: &str, got: &str, want: &str) -> Res<()> {
    if got == want {
        return Ok(());
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    Err(format!(
        "correctness gate: {what} differs from the reference CSV at line {}",
        line + 1
    ))
}

/// Resets the process's `VmHWM` to its current resident set, so that the
/// next `peak_rss_mb` sees only what runs after this call.
fn reset_peak_rss() -> Res<()> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// The process's `VmHWM`, in MiB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Per-layer sums over a traced run's spans.
struct LayerSums {
    self_ns: [u64; Layer::COUNT],
    busy_ns: [u64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
    work: [u64; Layer::COUNT],
}

impl LayerSums {
    fn of(spans: &[Span]) -> Self {
        let mut sums = Self {
            self_ns: [0; Layer::COUNT],
            busy_ns: [0; Layer::COUNT],
            calls: [0; Layer::COUNT],
            work: [0; Layer::COUNT],
        };
        for (span, own) in spans.iter().zip(trace::self_times(spans)) {
            let layer = span.layer as usize;
            sums.self_ns[layer] += own;
            sums.busy_ns[layer] += span.duration();
            sums.calls[layer] += 1;
            sums.work[layer] += span.work;
        }
        sums
    }

    fn self_s(&self, layer: Layer) -> f64 {
        secs(self.self_ns[layer as usize])
    }

    /// Self time of every named layer: all but the runner's `Eval` and
    /// `Sink` containers, whose own self time is closure glue and so stays
    /// unattributed.
    fn named_self_s(&self) -> f64 {
        [
            Layer::Enumerate,
            Layer::Scenario,
            Layer::Testbed,
            Layer::Model,
            Layer::Contention,
            Layer::Aggregate,
            Layer::Render,
            Layer::Write,
        ]
        .into_iter()
        .map(|layer| self.self_s(layer))
        .sum()
    }
}

/// One round of the traced report: an untraced campaign and its traced
/// twin.
struct Round {
    /// Campaigns (of the round's two) whose CSV differed from the reference.
    mismatched: usize,
    /// `(testbed nanoseconds, index)` of the costliest point.
    costliest: (u64, usize),
    /// Worker-seconds of the untraced campaign.
    capacity_s: f64,
    /// Named layers' self times plus measured runner idle in the traced run.
    attributed_s: f64,
    /// Walls of the untraced and the traced run being compared.
    untraced_s: f64,
    traced_s: f64,
}

/// Per-round metric samples, reported as medians in first-seen order.
#[derive(Default)]
struct Samples {
    order: Vec<(&'static str, &'static str)>,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        let values = self.values.entry(name).or_default();
        if values.is_empty() {
            self.order.push((name, unit));
        }
        values.push(value);
    }

    fn medians(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.order
            .iter()
            .map(|&(name, unit)| (name, stats::median(&self.values[name]), unit))
            .collect()
    }
}

impl Bench {
    /// The workload's set-up: `ExperimentContext::paper_scale` plus grid
    /// parse and point enumeration, with its wall in seconds.
    fn build(
        seed: u64,
        spec: &str,
    ) -> Res<(ExperimentContext, SweepGrid, Vec<OperatingPoint>, f64)> {
        let start = Instant::now();
        let ctx = ExperimentContext::paper_scale(seed).map_err(|e| e.to_string())?;
        let grid = parse_grid_spec(spec).map_err(|e| e.to_string())?;
        let points = grid.points().map_err(|e| e.to_string())?;
        Ok((ctx, grid, points, start.elapsed().as_secs_f64()))
    }

    fn set_up(workload: Workload, seed: u64, spec: &str, workers: usize) -> Res<Self> {
        let (ctx, grid, points, setup_s) = Self::build(seed, spec)?;
        let reps = grid.replications().max(1) as u64;
        let frames = points.iter().map(|p| ctx.frames_for(p) * reps).sum();
        Ok(Self {
            workload,
            ctx,
            grid,
            points,
            workers,
            frames,
            setup_s,
        })
    }

    /// One unsharded campaign into `dir/campaign.csv`. Returns its outcome,
    /// the process's peak RSS during the campaign alone (the high-water mark
    /// is reset just before it), and whether the file equals the reference.
    fn unsharded_to_file(&self, reference: &Reference, dir: &Path) -> Res<(Outcome, f64, bool)> {
        let path = dir.join("campaign.csv");
        let mut out = BufWriter::new(
            File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
        );
        out.write_all(runs::header_line().as_bytes())
            .map_err(|e| e.to_string())?;
        let runner = runs::runner(&self.ctx, self.workers);
        reset_peak_rss()?;
        let outcome = runs::run_unsharded(&self.ctx, &self.grid, &runner, &mut out, |_| {});
        let peak_mb = peak_rss_mb()?;
        drop(out);
        let written = std::fs::read_to_string(&path).unwrap_or_default();
        Ok((outcome, peak_mb, written == reference.csv))
    }

    /// The correctness gate, run before any timing. Byte-compares against
    /// the campaign at the workload's worker count: a one-worker run, a
    /// sample of points on the scalar engine, and the traced run.
    fn gate(&self) -> Res<Reference> {
        let ctx = &self.ctx;
        let mut csv = runs::header_line().into_bytes();
        let mut rows = Vec::with_capacity(self.points.len());
        let outcome = runs::run_unsharded(
            ctx,
            &self.grid,
            &runs::runner(ctx, self.workers),
            &mut csv,
            |row| rows.push(row.clone()),
        );
        if let Some(error) = outcome.error {
            return Err(format!("correctness gate: campaign failed: {error}"));
        }
        if rows.len() != self.points.len() {
            return Err(format!(
                "correctness gate: {} rows for {} points",
                rows.len(),
                self.points.len()
            ));
        }
        let csv = String::from_utf8(csv).map_err(|e| e.to_string())?;

        let mut one = runs::header_line().into_bytes();
        let outcome = runs::run_unsharded(ctx, &self.grid, &runs::runner(ctx, 1), &mut one, |_| {});
        if let Some(error) = outcome.error {
            return Err(format!(
                "correctness gate: 1-worker campaign failed: {error}"
            ));
        }
        differ("the 1-worker CSV", &String::from_utf8_lossy(&one), &csv)?;

        let stride = self.points.len().div_ceil(SCALAR_SAMPLE);
        let sample: Vec<(usize, OperatingPoint)> = self
            .points
            .iter()
            .cloned()
            .enumerate()
            .step_by(stride)
            .collect();
        let lines: Vec<&str> = csv.split_inclusive('\n').skip(1).collect();
        let expected: String = sample.iter().map(|(index, _)| lines[*index]).collect();
        let scalar = ctx.clone().with_scalar_sessions();
        let (mut got, mut line) = (String::new(), String::new());
        run_campaign_subset_streaming_with(
            &scalar,
            &self.grid,
            &runs::runner(ctx, self.workers),
            &sample,
            |_, row| {
                row.render_csv_into(&mut line);
                got.push_str(&line);
                got.push('\n');
            },
        )
        .map_err(|e| format!("correctness gate: scalar sample failed: {e}"))?;
        differ("the scalar-engine sample", &got, &expected)?;

        let mut traced_csv = runs::header_line().into_bytes();
        let traced = runs::run_traced(
            ctx,
            &self.grid,
            &runs::runner(ctx, self.workers),
            &mut traced_csv,
        );
        if let Some(error) = traced.error {
            return Err(format!("correctness gate: traced campaign failed: {error}"));
        }
        differ(
            "the traced CSV",
            &String::from_utf8_lossy(&traced_csv),
            &csv,
        )?;
        Ok(Reference { csv, rows })
    }

    /// Untraced campaigns for `seconds`: the end-to-end metrics.
    fn timed_report(
        &self,
        reference: &Reference,
        dir: &Path,
        seconds: f64,
        spec: &str,
    ) -> Res<Report> {
        let points = self.points.len();
        let (mut attempted, mut rows, mut failed) = (0, 0, 0);
        let (mut rates, mut peaks) = (Vec::new(), Vec::new());
        let mut setups = vec![self.setup_s];
        let start = Instant::now();
        while rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let due = seconds * setups.len() as f64 / SETUP_REPS as f64;
            if setups.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
                setups.push(Self::build(self.ctx.seed(), spec)?.3);
            }
            let (outcome, peak_mb, matches) = self.unsharded_to_file(reference, dir)?;
            attempted += points;
            rows += outcome.rows;
            if !matches || outcome.error.is_some() {
                failed += points;
            }
            rates.push(self.frames as f64 / outcome.wall_s);
            peaks.push(peak_mb);
        }
        while setups.len() < SETUP_REPS {
            setups.push(Self::build(self.ctx.seed(), spec)?.3);
        }
        let (latency_mape, energy_mape) = stats::model_mape_pct(&reference.rows);
        let failed_share = stats::failed_point_share(rows, attempted);
        Ok(Report {
            correct: failed == 0,
            attempted,
            failed,
            notes: vec![
                format!("campaigns timed: {}", rates.len()),
                format!("failed_point_share = {failed_share} fraction"),
            ],
            metrics: vec![
                ("setup_s", stats::median(&setups), "s"),
                ("frames_per_s", stats::median(&rates), "frames/s"),
                ("peak_rss_mb", stats::median(&peaks), "MB"),
                ("completed_point_share", 1.0 - failed_share, "fraction"),
                ("model_latency_mape_pct", latency_mape, "%"),
                ("model_energy_mape_pct", energy_mape, "%"),
            ],
        })
    }

    /// Untraced and traced campaigns alternated for `seconds`, each round
    /// followed by the kernel floor, plus the once-per-run layer probes:
    /// the per-layer metrics.
    fn traced_report(
        &self,
        reference: &Reference,
        dir: &Path,
        seconds: f64,
        spec: &str,
    ) -> Res<Report> {
        let mut samples = Samples::default();
        self.calibration_and_grid(&mut samples, spec)?;
        let mut rounds: Vec<Round> = Vec::new();
        let start = Instant::now();
        while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let traced_first = rounds.len() % 2 == 1;
            let round = self.round(reference, dir, traced_first, &mut samples)?;
            samples.add(
                "testbed.standalone_frames_per_s",
                "frames/s",
                self.standalone_frames_per_s(round.costliest.1)?,
            );
            rounds.push(round);
        }
        let mut metrics = samples.medians();
        let median_of = |field: &dyn Fn(&Round) -> f64| {
            stats::median(&rounds.iter().map(field).collect::<Vec<_>>())
        };
        // Both are medians of per-round ratios, so each traced run is
        // compared with the untraced twin it ran next to.
        metrics.push((
            "trace.overhead_pct",
            100.0 * median_of(&|r| r.traced_s / r.untraced_s - 1.0),
            "%",
        ));
        let unattributed_pct = 100.0 * median_of(&|r| 1.0 - r.attributed_s / r.capacity_s).abs();
        metrics.push(("trace.unattributed_pct", unattributed_pct, "%"));
        // Against the untraced wall, tracing overhead offsets unattributed
        // time, so the traced run's own worker-seconds are checked as well.
        let workers = self.workers as f64;
        let traced_unattributed_pct =
            100.0 * median_of(&|r| 1.0 - r.attributed_s / (workers * r.traced_s)).abs();
        if self.workload == Workload::ManyPoints {
            metrics.extend(self.io_probe(reference, dir)?);
        } else {
            metrics.extend(IO_PROBE_METRICS.map(|(name, unit)| (name, 0.0, unit)));
        }
        let accounted = unattributed_pct.max(traced_unattributed_pct) <= UNATTRIBUTED_LIMIT_PCT;
        let attempted = 2 * rounds.len() * self.points.len();
        let failed = rounds.iter().map(|r| r.mismatched).sum::<usize>() * self.points.len();
        Ok(Report {
            correct: failed == 0 && accounted,
            attempted,
            failed,
            notes: vec![
                format!("trace rounds: {}", rounds.len()),
                format!(
                    "trace accounting: {unattributed_pct:.2}% of the untraced and {traced_unattributed_pct:.2}% of the traced worker-seconds unattributed (limit {UNATTRIBUTED_LIMIT_PCT}%): {}",
                    if accounted { "ok" } else { "EXCEEDED" }
                ),
            ],
            metrics,
        })
    }

    /// The calibration and grid layers, timed apart from the context
    /// set-up that bundles them.
    fn calibration_and_grid(&self, samples: &mut Samples, spec: &str) -> Res<()> {
        let seed = self.ctx.seed();
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let testbed = TestbedSimulator::new(seed);
            let train = MeasurementCampaign::paper_scale(seed)
                .collect(testbed.laws(), &DeviceCatalog::training_devices());
            let collected = Instant::now();
            CalibratedModels::fit(&train).map_err(|e| e.to_string())?;
            samples.add(
                "calibrate.collect_s",
                "s",
                (collected - start).as_secs_f64(),
            );
            samples.add("calibrate.fit_s", "s", collected.elapsed().as_secs_f64());
            samples.add("calibrate.records", "count", train.len() as f64);
            let start = Instant::now();
            let grid = parse_grid_spec(spec).map_err(|e| e.to_string())?;
            let parsed = Instant::now();
            let points = grid.points().map_err(|e| e.to_string())?;
            samples.add("grid.parse_s", "s", (parsed - start).as_secs_f64());
            samples.add("grid.enumerate_s", "s", parsed.elapsed().as_secs_f64());
            samples.add("grid.points", "count", points.len() as f64);
        }
        Ok(())
    }

    /// The layer metrics of one traced run. `capacity_s` is its
    /// worker-seconds.
    fn layer_metrics(&self, samples: &mut Samples, traced: &Traced, capacity_s: f64) -> LayerSums {
        let sums = LayerSums::of(&traced.spans);
        let calls = |layer: Layer| sums.calls[layer as usize] as f64;
        samples.add("scenario.calls", "count", calls(Layer::Scenario));
        samples.add("scenario.self_s", "s", sums.self_s(Layer::Scenario));
        samples.add("model.calls", "count", calls(Layer::Model));
        samples.add("model.self_s", "s", sums.self_s(Layer::Model));
        samples.add("contention.calls", "count", calls(Layer::Contention));
        samples.add("contention.self_s", "s", sums.self_s(Layer::Contention));
        let frames = sums.work[Layer::Testbed as usize] as f64;
        samples.add("testbed.sessions", "count", calls(Layer::Testbed));
        samples.add("testbed.frames", "count", frames);
        samples.add("testbed.self_s", "s", sums.self_s(Layer::Testbed));
        samples.add(
            "testbed.frames_per_busy_s",
            "frames/s",
            frames / sums.self_s(Layer::Testbed),
        );
        let sessions: Vec<(u64, u64, u64)> = traced
            .spans
            .iter()
            .filter(|span| span.layer == Layer::Testbed)
            .map(|span| (span.start, span.end, span.work))
            .collect();
        samples.add(
            "testbed.frame_bytes_peak",
            "bytes",
            (trace::peak_concurrency(&sessions) * std::mem::size_of::<GroundTruthFrame>() as u64)
                as f64,
        );
        samples.add("aggregate.rows", "count", calls(Layer::Aggregate));
        samples.add("aggregate.self_s", "s", sums.self_s(Layer::Aggregate));
        samples.add("render.rows", "count", calls(Layer::Render));
        samples.add(
            "render.bytes",
            "bytes",
            sums.work[Layer::Render as usize] as f64,
        );
        samples.add("render.self_s", "s", sums.self_s(Layer::Render));
        let busy_s = secs(sums.busy_ns[Layer::Eval as usize]);
        samples.add("runner.workers", "count", self.workers as f64);
        samples.add("runner.busy_s", "s", busy_s);
        samples.add("runner.utilization", "fraction", busy_s / capacity_s);
        samples.add(
            "runner.sink_s",
            "s",
            secs(sums.busy_ns[Layer::Sink as usize]),
        );
        samples.add("runner.wait_s", "s", secs(traced.wait_ns));
        samples.add("runner.drain_s", "s", secs(traced.drain_ns));
        samples.add("runner.idle_s", "s", secs(traced.wait_ns + traced.drain_ns));
        let (high_water, waited) = trace::holdback(&traced.ready, &traced.received);
        samples.add("runner.holdback_max", "count", high_water as f64);
        samples.add("runner.holdback_wait_s", "s", secs(waited));
        samples.add("io.write_s", "s", sums.self_s(Layer::Write));
        sums
    }

    /// One untraced and one traced campaign, in the order `traced_first`
    /// picks; the layer metrics go to `samples`.
    fn round(
        &self,
        reference: &Reference,
        dir: &Path,
        traced_first: bool,
        samples: &mut Samples,
    ) -> Res<Round> {
        let traced_run = || -> Res<(Traced, bool)> {
            let path = dir.join("traced.csv");
            let mut out = BufWriter::new(
                File::create(&path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            );
            out.write_all(runs::header_line().as_bytes())
                .map_err(|e| e.to_string())?;
            let traced = runs::run_traced(
                &self.ctx,
                &self.grid,
                &runs::runner(&self.ctx, self.workers),
                &mut out,
            );
            drop(out);
            let written = std::fs::read_to_string(&path).unwrap_or_default();
            let matches = traced.error.is_none() && written == reference.csv;
            Ok((traced, matches))
        };
        let (untraced, traced) = if traced_first {
            let traced = traced_run()?;
            (self.unsharded_to_file(reference, dir)?, traced)
        } else {
            let untraced = self.unsharded_to_file(reference, dir)?;
            (untraced, traced_run()?)
        };
        let ((untraced, _, untraced_ok), (traced, traced_ok)) = (untraced, traced);
        let untraced_ok = untraced_ok && untraced.error.is_none();
        let wall_u = untraced.wall_s;
        let wall_t = secs(traced.wall_ns());
        let workers = self.workers as f64;
        let sums = self.layer_metrics(samples, &traced, workers * wall_t);
        samples.add("io.csv_bytes", "bytes", reference.csv.len() as f64);
        let mismatched = usize::from(!untraced_ok) + usize::from(!traced_ok);
        Ok(Round {
            mismatched,
            costliest: traced.point_cost.iter().copied().max().unwrap_or((0, 0)),
            capacity_s: workers * wall_u,
            attributed_s: sums.named_self_s() + secs(traced.wait_ns + traced.drain_ns),
            untraced_s: wall_u,
            traced_s: wall_t,
        })
    }

    /// Each I/O-probe shard's points, with their original grid indices.
    fn shard_subsets(&self, dir: &Path) -> Vec<Vec<(usize, OperatingPoint)>> {
        runs::shard_paths(dir)
            .into_iter()
            .map(|(shard, _)| runs::owned_points(&self.points, shard))
            .collect()
    }

    /// The I/O layer, on the many-points grid: `IO_PROBE_REPS` sharded
    /// campaigns (shards `1/2` and `2/2` at checkpoint cadence 1, then the
    /// merge) next to the same shards' points run in memory, and one resume
    /// from artifacts truncated to half. Every merged CSV must equal the
    /// reference.
    fn io_probe(
        &self,
        reference: &Reference,
        dir: &Path,
    ) -> Res<Vec<(&'static str, f64, &'static str)>> {
        let subsets = self.shard_subsets(dir);
        let (mut shard_s, mut overhead_s, mut merge_s) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..IO_PROBE_REPS {
            let outcome = runs::run_sharded(&self.ctx, &self.grid, self.workers, dir, true);
            let merged = outcome
                .merged
                .map_err(|e| format!("sharded campaign failed: {e}"))?;
            differ("the merged shard CSV", &merged, &reference.csv)?;
            let in_memory = runs::run_in_memory(&self.ctx, &self.grid, self.workers, &subsets)?;
            let shards: f64 = outcome.shard_walls.iter().sum();
            shard_s.push(shards);
            overhead_s.push(shards - in_memory.iter().sum::<f64>());
            merge_s.push(outcome.merge_s);
        }
        // A fresh shard checkpoint syncs its header once, each boundary
        // syncs the CSV and then the checkpoint, and completion syncs both.
        let fsyncs: usize = subsets
            .iter()
            .map(|subset| 1 + 2 * (subset.len() / runs::CHECKPOINT_EVERY) + 2)
            .sum();
        let records: usize = subsets.iter().map(Vec::len).sum();
        let values = [
            stats::median(&shard_s),
            records as f64,
            fsyncs as f64,
            stats::median(&overhead_s),
            self.resume(reference, dir)?,
            stats::median(&merge_s),
        ];
        Ok(IO_PROBE_METRICS
            .into_iter()
            .zip(values)
            .map(|((name, unit), value)| (name, value, unit))
            .collect())
    }

    /// The kernel floor: the costliest point's sessions simulated on this
    /// thread, outside the runner, for at least `STANDALONE_S`.
    fn standalone_frames_per_s(&self, index: usize) -> Res<f64> {
        let point = &self.points[index];
        let scenario = self.ctx.scenario_for(point).map_err(|e| e.to_string())?;
        let frames = self.ctx.frames_for(point);
        let reps = self.grid.replications().max(1);
        let mut simulated = 0;
        let start = Instant::now();
        while simulated == 0 || start.elapsed().as_secs_f64() < STANDALONE_S {
            for rep in 0..reps {
                let seed = replication_seed(self.ctx.seed(), index, rep);
                let session = self
                    .ctx
                    .testbed_for_seed(seed)
                    .simulate_session(&scenario, frames)
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(session.mean_latency());
                simulated += frames;
            }
        }
        Ok(simulated as f64 / start.elapsed().as_secs_f64())
    }

    /// Resume of both shards from the complete artifacts of the last
    /// sharded campaign, truncated to half their rows: timed, then checked
    /// against the reference after a merge.
    fn resume(&self, reference: &Reference, dir: &Path) -> Res<f64> {
        for (shard, csv) in runs::shard_paths(dir) {
            let keep = shard.owned_len(self.points.len()) / 2;
            let mut checkpoint = ShardCheckpoint::open(
                checkpoint_path(&csv),
                CheckpointHeader {
                    campaign_seed: self.ctx.seed(),
                    grid_fingerprint: self.grid.fingerprint(),
                    points: self.points.len(),
                    shard,
                },
                runs::CHECKPOINT_EVERY,
            )
            .map_err(|e| e.to_string())?;
            checkpoint.truncate_to(keep).map_err(|e| e.to_string())?;
            let text = std::fs::read_to_string(&csv).map_err(|e| e.to_string())?;
            let end: usize = text
                .split_inclusive('\n')
                .take(1 + keep)
                .map(str::len)
                .sum();
            std::fs::write(&csv, &text[..end]).map_err(|e| e.to_string())?;
        }
        let resumed = runs::run_sharded(&self.ctx, &self.grid, self.workers, dir, false);
        let merged = resumed
            .merged
            .map_err(|e| format!("resumed sharded campaign failed: {e}"))?;
        differ("the resumed merged shard CSV", &merged, &reference.csv)?;
        Ok(resumed.shards_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocates `mib` MiB, writes every page, and frees it.
    fn touch(mib: usize) {
        std::hint::black_box(vec![1u8; mib << 20]);
    }

    #[test]
    fn a_reset_peak_rss_reflects_only_what_runs_after_it() {
        // An earlier peak, as the gate's campaigns leave one.
        touch(128);
        let before = peak_rss_mb().unwrap();
        reset_peak_rss().unwrap();
        let reset = peak_rss_mb().unwrap();
        assert!(
            reset < before - 96.0,
            "the reset kept the earlier peak: {before} -> {reset} MiB"
        );
        // A later, smaller peak, as a timed campaign makes one.
        touch(32);
        let after = peak_rss_mb().unwrap();
        assert!(
            after > reset + 24.0 && after < before - 64.0,
            "peak {after} MiB after a 32 MiB campaign (reset at {reset}, earlier {before})"
        );
    }
}
