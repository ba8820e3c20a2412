//! The campaign runs the benchmark times. Every run goes through the
//! library's public entry points; the traced run rebuilds the default
//! per-replication dispatch of `run_campaign_subset_streaming_with` from
//! public calls so it can time each call from outside. The per-layer
//! figures therefore describe this copy: a change to the library's
//! dispatch must be mirrored in `run_traced` in the same change.

use crate::trace::{Layer, Span};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use xr_experiments::campaign::{
    run_campaign_streaming_with, run_campaign_subset_streaming_with, CAMPAIGN_HEADER,
};
use xr_experiments::shard_campaign::{
    checkpoint_path, manifest_path, merge_campaign_csvs, run_campaign_shard_with, shard_csv_name,
    ShardRunReport,
};
use xr_experiments::{CampaignRow, ExperimentContext, ReplicateStats};
use xr_sweep::{CampaignRunner, OperatingPoint, RepContext, ShardSpec, SweepGrid};

pub type Res<T> = Result<T, String>;

/// Shards of the I/O probe's sharded campaign, run concurrently.
pub const SHARDS: usize = 2;
/// Checkpoint cadence of the sharded campaign: the `campaign` binary's
/// default, an fsync per row.
pub const CHECKPOINT_EVERY: usize = 1;

/// The CSV header line every artifact starts with.
pub fn header_line() -> String {
    format!("{}\n", CAMPAIGN_HEADER.join(","))
}

/// A runner pinned to `workers`, seeded like the `campaign` binary's.
pub fn runner(ctx: &ExperimentContext, workers: usize) -> CampaignRunner {
    CampaignRunner::new(workers).with_campaign_seed(ctx.seed())
}

/// Runs `jobs` on `lanes` threads at once when `lanes > 1`, one after the
/// other otherwise, and returns their results in job order.
pub fn on_lanes<T: Send>(lanes: usize, jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    if lanes < 2 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a benchmark lane panicked"))
            .collect()
    })
}

/// What one untraced campaign did.
#[derive(Debug)]
pub struct Outcome {
    /// From the call into the campaign to the last CSV byte flushed.
    pub wall_s: f64,
    pub rows: usize,
    pub error: Option<String>,
}

/// The unsharded campaign: `run_campaign_streaming_with`, each row
/// rendered with `render_csv_into` and appended to `out`, which already
/// holds the header. `on_row` sees every row after it is written.
pub fn run_unsharded<W: Write + Send>(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    out: &mut W,
    mut on_row: impl FnMut(&CampaignRow) + Send,
) -> Outcome {
    let start = Instant::now();
    let mut rows = 0;
    let mut line = String::new();
    let mut write_error = None;
    let result = run_campaign_streaming_with(ctx, grid, runner, |_, row| {
        row.render_csv_into(&mut line);
        line.push('\n');
        if write_error.is_none() {
            write_error = out.write_all(line.as_bytes()).err();
        }
        on_row(&row);
        rows += 1;
    });
    let flushed = out.flush();
    Outcome {
        wall_s: start.elapsed().as_secs_f64(),
        rows,
        error: result
            .err()
            .map(|e| e.to_string())
            .or(write_error.map(|e| e.to_string()))
            .or(flushed.err().map(|e| e.to_string())),
    }
}

/// The shard CSV paths of the sharded campaign under `dir`.
pub fn shard_paths(dir: &Path) -> Vec<(ShardSpec, PathBuf)> {
    (1..=SHARDS)
        .map(|index| {
            let shard = ShardSpec::new(index, SHARDS).expect("a valid shard spec");
            (shard, dir.join(shard_csv_name(shard)))
        })
        .collect()
}

/// What one sharded campaign did.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Wall of the concurrent shard phase.
    pub shards_s: f64,
    /// Wall of each `run_campaign_shard_with` call.
    pub shard_walls: Vec<f64>,
    pub merge_s: f64,
    pub merged: Res<String>,
}

/// The sharded campaign: every shard through
/// `run_campaign_shard_with` on its own one-worker runner, on `lanes`
/// threads, then `merge_campaign_csvs`. With `fresh` the shards' previous
/// artifacts are deleted first; without it the shards resume from them.
pub fn run_sharded(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    lanes: usize,
    dir: &Path,
    fresh: bool,
) -> ShardedOutcome {
    let paths = shard_paths(dir);
    if fresh {
        for (_, csv) in &paths {
            for path in [csv.clone(), manifest_path(csv), checkpoint_path(csv)] {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    let one_worker = runner(ctx, 1);
    let start = Instant::now();
    let jobs = paths
        .iter()
        .map(|(shard, csv)| {
            let one_worker = &one_worker;
            Box::new(move || {
                let begin = Instant::now();
                let report =
                    run_campaign_shard_with(ctx, grid, one_worker, *shard, csv, CHECKPOINT_EVERY)
                        .map_err(|e| e.to_string());
                (report, begin.elapsed().as_secs_f64())
            }) as Box<dyn FnOnce() -> (Res<ShardRunReport>, f64) + Send>
        })
        .collect();
    let reports = on_lanes(lanes, jobs);
    let shards_s = start.elapsed().as_secs_f64();
    let shard_walls = reports.iter().map(|(_, wall)| *wall).collect();
    let failed = reports.into_iter().find_map(|(report, _)| report.err());
    let merge_start = Instant::now();
    let merged = match failed {
        Some(error) => Err(error),
        None => {
            let csvs: Vec<PathBuf> = paths.into_iter().map(|(_, csv)| csv).collect();
            merge_campaign_csvs(&csvs).map_err(|e| e.to_string())
        }
    };
    ShardedOutcome {
        shards_s,
        shard_walls,
        merge_s: merge_start.elapsed().as_secs_f64(),
        merged,
    }
}

/// The points shard `shard` owns, with their original grid indices.
pub fn owned_points(points: &[OperatingPoint], shard: ShardSpec) -> Vec<(usize, OperatingPoint)> {
    shard
        .owned_indices(points.len())
        .map(|index| (index, points[index].clone()))
        .collect()
}

/// Each shard's points run in memory — `run_campaign_subset_streaming_with`
/// with rows rendered into a string — on `lanes` threads: the shard runs
/// without their durable I/O. Returns each lane's wall.
pub fn run_in_memory(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    lanes: usize,
    subsets: &[Vec<(usize, OperatingPoint)>],
) -> Res<Vec<f64>> {
    let one_worker = runner(ctx, 1);
    let jobs = subsets
        .iter()
        .map(|subset| {
            let one_worker = &one_worker;
            Box::new(move || {
                let begin = Instant::now();
                let mut csv = header_line();
                let mut line = String::new();
                run_campaign_subset_streaming_with(ctx, grid, one_worker, subset, |_, row| {
                    row.render_csv_into(&mut line);
                    csv.push_str(&line);
                    csv.push('\n');
                })
                .map_err(|e| e.to_string())?;
                std::hint::black_box(&csv);
                Ok(begin.elapsed().as_secs_f64())
            }) as Box<dyn FnOnce() -> Res<f64> + Send>
        })
        .collect();
    on_lanes(lanes, jobs).into_iter().collect()
}

/// One replication's measurements, as the library's per-rep path keeps
/// them.
struct Sample {
    latency_ms: f64,
    energy_mj: f64,
    handoff_rate: f64,
    migration_ms: f64,
    sites_visited: u32,
    /// `((model latency, model energy), (utilisation, contention delay))`,
    /// on the first replication only.
    constants: Option<((f64, f64), (f64, f64))>,
}

/// A small index unique to the calling thread, for grouping spans by the
/// worker that ran them.
fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed));
    INDEX.with(|index| *index)
}

/// Timestamps of one `(point, replication)` evaluation.
struct ItemTrace {
    thread: usize,
    eval: (u64, u64),
    scenario: (u64, u64),
    testbed: (u64, u64),
    frames: u64,
    constants: Option<(u64, u64, u64)>,
}

/// Timestamps of one point's trip through the serial sink, which runs on
/// the worker that delivered the point's last missing replication.
struct SinkTrace {
    thread: usize,
    received: u64,
    aggregated: u64,
    rendered: u64,
    written: u64,
    bytes: usize,
}

/// A traced campaign's spans plus the per-point timestamps the runner's
/// hold-back is computed from. Times are nanoseconds since the run began.
#[derive(Debug, Default)]
pub struct Traced {
    pub start: u64,
    pub end: u64,
    pub spans: Vec<Span>,
    /// When each point's last replication finished evaluating.
    pub ready: Vec<u64>,
    /// When the sink received each point.
    pub received: Vec<u64>,
    /// `(testbed nanoseconds, original index)` per point.
    pub point_cost: Vec<(u64, usize)>,
    /// Runner idle measured on the worker threads (see
    /// [`crate::trace::runner_idle`]): gaps between a worker's eval and sink
    /// spans, and each worker's drain after its last span.
    pub wait_ns: u64,
    pub drain_ns: u64,
    pub error: Option<String>,
}

impl Traced {
    pub fn wall_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The row the library's sink assembles from a point's replications.
fn aggregate(ctx: &ExperimentContext, point: &OperatingPoint, samples: &[Sample]) -> CampaignRow {
    let reps = samples.len() as f64;
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let energies: Vec<f64> = samples.iter().map(|s| s.energy_mj).collect();
    let ((proposed_latency_ms, proposed_energy_mj), (edge_utilization, gt_contention_ms_mean)) =
        samples[0]
            .constants
            .expect("the first replication carries the point constants");
    CampaignRow {
        point: point.clone(),
        frames_per_session: ctx.frames_for(point),
        replications: samples.len(),
        gt_latency_ms: ReplicateStats::of(&latencies),
        gt_energy_mj: ReplicateStats::of(&energies),
        gt_handoff_rate: samples.iter().map(|s| s.handoff_rate).sum::<f64>() / reps,
        gt_migration_ms_mean: samples.iter().map(|s| s.migration_ms).sum::<f64>() / reps,
        sites_visited: samples.iter().map(|s| s.sites_visited).max().unwrap_or(1),
        edge_utilization,
        gt_contention_ms_mean,
        proposed_latency_ms,
        proposed_energy_mj,
    }
}

/// The traced campaign: the default per-replication dispatch rebuilt from
/// public calls, with each call timed from outside. The grid's points are
/// enumerated inside (timed as the grid layer); rows go to `out`, which
/// already holds the header.
///
/// Spans stay in memory until the run ends: each evaluation writes its
/// timestamps once into a slot keyed by `(point, replication)`, and the
/// serial sink keeps its own list, so tracing takes no shared lock.
pub fn run_traced<W: Write + Send>(
    ctx: &ExperimentContext,
    grid: &SweepGrid,
    runner: &CampaignRunner,
    out: &mut W,
) -> Traced {
    let origin = Instant::now();
    let now = || origin.elapsed().as_nanos() as u64;
    let start = now();
    let subset: Res<Vec<(usize, OperatingPoint)>> = grid
        .points()
        .map(|points| points.into_iter().enumerate().collect())
        .map_err(|e| e.to_string());
    let enumerated = now();
    let mut traced = Traced {
        start,
        spans: vec![Span {
            layer: Layer::Enumerate,
            start,
            end: enumerated,
            parent: None,
            work: 0,
        }],
        ..Traced::default()
    };
    let subset = match subset {
        Ok(subset) => subset,
        Err(error) => {
            traced.end = now();
            traced.error = Some(error);
            return traced;
        }
    };
    let reps = grid.replications().max(1);
    let items: Vec<(usize, (usize, &OperatingPoint))> = subset
        .iter()
        .enumerate()
        .map(|(slot, (index, point))| (*index, (slot, point)))
        .collect();
    let slots: Vec<OnceLock<ItemTrace>> =
        (0..items.len() * reps).map(|_| OnceLock::new()).collect();
    let mut sinks: Vec<SinkTrace> = Vec::with_capacity(items.len());
    let mut line = String::new();
    let mut write_error = None;
    let result = runner.run_indexed_replicated_streaming(
        &items,
        reps,
        |rep: RepContext, &(slot, point): &(usize, &OperatingPoint)| {
            let begin = now();
            let scenario = ctx.scenario_for(point)?;
            let scenario_end = now();
            let frames = ctx.frames_for(point);
            let session = ctx
                .testbed_for_seed(rep.seed)
                .simulate_session(&scenario, frames)?;
            let mut sample = Sample {
                latency_ms: session.mean_latency().as_f64() * 1e3,
                energy_mj: session.mean_energy().as_f64() * 1e3,
                handoff_rate: session.handoff_rate(),
                migration_ms: session.mean_migration_latency().as_f64() * 1e3,
                sites_visited: session.sites_visited(),
                constants: None,
            };
            drop(session);
            let testbed_end = now();
            let mut constants = None;
            if rep.rep_index == 0 {
                let report = ctx.proposed().analyze(&scenario)?;
                let model_end = now();
                let snapshot =
                    ctx.testbed()
                        .contention_snapshot(&scenario)?
                        .map_or((0.0, 0.0), |snapshot| {
                            (
                                snapshot.utilization(),
                                snapshot.mean_contention_delay().as_f64() * 1e3,
                            )
                        });
                constants = Some((testbed_end, model_end, now()));
                sample.constants = Some((
                    (report.latency_ms().as_f64(), report.energy_mj().as_f64()),
                    snapshot,
                ));
            }
            let _ = slots[slot * reps + rep.rep_index].set(ItemTrace {
                thread: thread_index(),
                eval: (begin, now()),
                scenario: (begin, scenario_end),
                testbed: (scenario_end, testbed_end),
                frames,
                constants,
            });
            Ok(sample)
        },
        |_, samples: Vec<Sample>| {
            let received = now();
            let row = aggregate(ctx, &subset[sinks.len()].1, &samples);
            let aggregated = now();
            row.render_csv_into(&mut line);
            line.push('\n');
            let rendered = now();
            if write_error.is_none() {
                write_error = out.write_all(line.as_bytes()).err();
            }
            sinks.push(SinkTrace {
                thread: thread_index(),
                received,
                aggregated,
                rendered,
                written: now(),
                bytes: line.len(),
            });
        },
    );
    let flush_start = now();
    let flushed = out.flush();
    traced.end = now();
    traced.spans.push(Span {
        layer: Layer::Write,
        start: flush_start,
        end: traced.end,
        parent: None,
        work: 0,
    });
    traced.error = result
        .err()
        .map(|e| e.to_string())
        .or(write_error.map(|e| e.to_string()))
        .or(flushed.err().map(|e| e.to_string()));

    // Every top-level span a worker thread ran, for the runner's idle.
    let mut on_workers: Vec<(usize, u64, u64)> = Vec::with_capacity(slots.len() + sinks.len());
    let span = |layer, (start, end): (u64, u64), parent, work| Span {
        layer,
        start,
        end,
        parent: Some(parent),
        work,
    };
    for (slot, (index, _)) in subset.iter().enumerate() {
        let (mut ready, mut cost) = (0, 0);
        for item in slots[slot * reps..(slot + 1) * reps]
            .iter()
            .filter_map(OnceLock::get)
        {
            let eval = traced.spans.len();
            traced.spans.push(Span {
                layer: Layer::Eval,
                start: item.eval.0,
                end: item.eval.1,
                parent: None,
                work: 0,
            });
            traced
                .spans
                .push(span(Layer::Scenario, item.scenario, eval, 0));
            traced
                .spans
                .push(span(Layer::Testbed, item.testbed, eval, item.frames));
            if let Some((model_start, model_end, contention_end)) = item.constants {
                traced
                    .spans
                    .push(span(Layer::Model, (model_start, model_end), eval, 0));
                traced.spans.push(span(
                    Layer::Contention,
                    (model_end, contention_end),
                    eval,
                    0,
                ));
            }
            on_workers.push((item.thread, item.eval.0, item.eval.1));
            ready = ready.max(item.eval.1);
            cost += item.testbed.1 - item.testbed.0;
        }
        traced.ready.push(ready);
        traced.point_cost.push((cost, *index));
    }
    for sink in &sinks {
        let parent = traced.spans.len();
        traced.spans.push(Span {
            layer: Layer::Sink,
            start: sink.received,
            end: sink.written,
            parent: None,
            work: 0,
        });
        traced.spans.push(span(
            Layer::Aggregate,
            (sink.received, sink.aggregated),
            parent,
            0,
        ));
        traced.spans.push(span(
            Layer::Render,
            (sink.aggregated, sink.rendered),
            parent,
            sink.bytes as u64,
        ));
        traced
            .spans
            .push(span(Layer::Write, (sink.rendered, sink.written), parent, 0));
        traced.received.push(sink.received);
        on_workers.push((sink.thread, sink.received, sink.written));
    }
    (traced.wait_ns, traced.drain_ns) = crate::trace::runner_idle(&on_workers);
    // Points the sink never received (an aborted run) hold nothing back.
    traced.ready.truncate(sinks.len());
    traced
}
