//! Shared experiment context: the simulated testbed, the measurement
//! campaign, and the calibrated analytical framework.

use xr_core::{Scenario, XrPerformanceModel};
use xr_devices::DeviceCatalog;
use xr_sweep::{
    grid, runner::WORKERS_ENV, CampaignRunner, MobilityCondition, OperatingPoint, WirelessCondition,
};
use xr_testbed::{CalibratedModels, MeasurementCampaign, TestbedSimulator};
use xr_types::{ExecutionTarget, GigaHertz, MegaBitsPerSecond, Meters, MetersPerSecond, Result};

/// Everything an experiment needs: the ground-truth simulator, the calibrated
/// proposed model, and the sweep bookkeeping.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    testbed: TestbedSimulator,
    calibrated: CalibratedModels,
    proposed: XrPerformanceModel,
    frames_per_point: u64,
    seed: u64,
    reorder_cap: Option<usize>,
}

/// Parses a `--reorder-cap` / `XR_REORDER_CAP` token. The hold-back window
/// must be able to hold at least the next in-order result, so `0` is
/// rejected rather than silently clamped.
///
/// # Errors
///
/// Returns a human-readable message for non-numeric tokens and for `0`.
pub fn parse_reorder_cap(token: &str) -> std::result::Result<usize, String> {
    let cap = token
        .parse::<usize>()
        .map_err(|_| format!("invalid reorder cap `{token}`"))?;
    if cap == 0 {
        return Err("reorder cap must be at least 1".to_string());
    }
    Ok(cap)
}

/// Parses an `XR_SWEEP_WORKERS` token: a worker count, with `0` clamped
/// to one worker by the runner.
///
/// # Errors
///
/// Returns a message naming the variable and the token when the token is
/// not a non-negative integer.
fn parse_workers(token: &str) -> std::result::Result<usize, String> {
    token
        .parse::<usize>()
        .map_err(|_| format!("invalid {WORKERS_ENV} `{token}`: expected a worker count"))
}

/// Environment variable turning replication fusion on (see
/// [`parse_fused_points`]).
const FUSED_POINTS_ENV: &str = "XR_FUSED_POINTS";

/// Parses an `XR_FUSED_POINTS` token: `1` turns replication fusion on and
/// `0` leaves it off.
///
/// # Errors
///
/// Returns a message naming the variable and the token for anything else.
fn parse_fused_points(token: &str) -> std::result::Result<bool, String> {
    match token {
        "1" => Ok(true),
        "0" => Ok(false),
        _ => Err(format!(
            "invalid {FUSED_POINTS_ENV} `{token}`: expected 1 or 0"
        )),
    }
}

/// Environment variable overriding the base session seed (see
/// [`parse_seed`]).
const CAMPAIGN_SEED_ENV: &str = "XR_CAMPAIGN_SEED";

/// Parses an `XR_CAMPAIGN_SEED` token: an unsigned 64-bit seed.
///
/// # Errors
///
/// Returns a message naming the variable and the token when the token is
/// not an unsigned 64-bit integer.
fn parse_seed(token: &str) -> std::result::Result<u64, String> {
    token.parse::<u64>().map_err(|_| {
        format!("invalid {CAMPAIGN_SEED_ENV} `{token}`: expected an unsigned 64-bit seed")
    })
}

/// The token after `flag` in `args`, or `None` without the flag; exits with
/// status 2 when the flag is the last token, so a missing value is never
/// replaced by an environment variable or a default.
fn flag_value(args: &[String], flag: &str, what: &str) -> Option<String> {
    let position = args.iter().position(|a| a == flag)?;
    let Some(token) = args.get(position + 1) else {
        eprintln!("{flag} requires {what}");
        std::process::exit(2);
    };
    Some(token.clone())
}

/// Checks the value of `var`, if set, with `parse`; exits with status 2 and
/// the parser's message when the value is rejected.
fn env_or_exit<T>(var: &str, parse: fn(&str) -> std::result::Result<T, String>) -> Option<T> {
    let token = std::env::var(var).ok()?;
    Some(parse(&token).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    }))
}

impl ExperimentContext {
    /// The frame sizes swept in Figs. 4–5 (the paper's x-axis; the canonical
    /// definition lives in `xr-sweep`, the campaign engine).
    pub const FRAME_SIZES: [f64; 5] = grid::PAPER_FRAME_SIZES;
    /// The CPU clocks swept in Fig. 4 (GHz).
    pub const CPU_CLOCKS: [f64; 3] = grid::PAPER_CPU_CLOCKS;

    /// A fast context suitable for tests and benches: a small measurement
    /// campaign and 20 ground-truth frames per operating point.
    ///
    /// # Errors
    ///
    /// Propagates regression-fitting errors.
    pub fn quick(seed: u64) -> Result<Self> {
        Self::with_campaign(seed, MeasurementCampaign::small(seed), 20)
    }

    /// The paper-scale context: 119 465 training records and 100 frames of
    /// ground truth per operating point.
    ///
    /// # Errors
    ///
    /// Propagates regression-fitting errors.
    pub fn paper_scale(seed: u64) -> Result<Self> {
        Self::with_campaign(seed, MeasurementCampaign::paper_scale(seed), 100)
    }

    /// Builds the context the experiment binaries use: quick by default,
    /// paper scale when the process was invoked with `--paper-scale`, and
    /// ground-truth sessions through the scalar reference engine instead of
    /// the batched default when invoked with `--scalar-sessions` (the CI
    /// equivalence diff runs every campaign both ways and requires
    /// byte-identical artifacts).
    ///
    /// `XR_CAMPAIGN_SEED` overrides the base session seed (default 2024).
    /// Re-running the same grid under a different seed produces the
    /// *same-scheme reseed* distribution that calibrates the null rate for
    /// sanctioned draw-scheme re-keys (see `xr_stats::equivalence`).
    ///
    /// A malformed `XR_SWEEP_WORKERS`, `XR_FUSED_POINTS`,
    /// `XR_CAMPAIGN_SEED` or `XR_REORDER_CAP` value, and a `--reorder-cap`
    /// flag without a value, end the process with status 2 and a message
    /// naming the bad input, before calibration.
    ///
    /// # Panics
    ///
    /// Panics with a readable message if the regression calibration fails,
    /// which only happens when the measurement campaign is empty.
    #[must_use]
    pub fn from_args() -> Self {
        // Every input is checked before calibration, so a typo fails fast.
        // The runner reads the worker count itself (see `runner`).
        env_or_exit(WORKERS_ENV, parse_workers);
        let fused_env = env_or_exit(FUSED_POINTS_ENV, parse_fused_points).unwrap_or(false);
        let seed = env_or_exit(CAMPAIGN_SEED_ENV, parse_seed).unwrap_or(2024);
        let args: Vec<String> = std::env::args().collect();
        let cap = flag_value(&args, "--reorder-cap", "a reorder cap")
            .or_else(|| std::env::var("XR_REORDER_CAP").ok())
            .map(|token| {
                parse_reorder_cap(&token).unwrap_or_else(|message| {
                    eprintln!("{message}");
                    std::process::exit(2);
                })
            });
        let ctx = if args.iter().any(|a| a == "--paper-scale") {
            Self::paper_scale(seed)
        } else {
            Self::quick(seed)
        };
        let mut ctx = ctx.expect("failed to calibrate the analytical framework");
        if args.iter().any(|a| a == "--scalar-sessions") {
            ctx = ctx.with_scalar_sessions();
        }
        if fused_env || args.iter().any(|a| a == "--fused-points") {
            ctx = ctx.with_fused_points();
        }
        if let Some(cap) = cap {
            ctx = ctx.with_reorder_cap(cap);
        }
        ctx
    }

    /// This context with campaign points evaluated by the replication-fused
    /// engine: all replications of one grid point run as a single wide SoA
    /// pass (`TestbedSimulator::simulate_point`), with the engine falling
    /// back to per-rep dispatch wherever fusion cannot apply. Fusion is
    /// bit-identical to the per-rep path by construction, so artifacts do
    /// not change — only the per-point constant costs do. `--fused-points`
    /// / `XR_FUSED_POINTS=1` wire this up for the experiment binaries.
    #[must_use]
    pub fn with_fused_points(mut self) -> Self {
        self.testbed = self
            .testbed
            .with_engine(xr_testbed::SimulationEngine::FusedPoint {
                width: xr_testbed::DEFAULT_BATCH_WIDTH,
            });
        self
    }

    /// This context with an explicit hold-back window for the campaign
    /// runner's in-order collector (`--reorder-cap` / `XR_REORDER_CAP`).
    /// The cap bounds how many out-of-order point results a campaign may
    /// buffer before the runner fails; artifacts are unchanged for any cap
    /// that does not trip.
    #[must_use]
    pub fn with_reorder_cap(mut self, cap: usize) -> Self {
        self.reorder_cap = Some(cap.max(1));
        self
    }

    /// This context with ground-truth sessions simulated by the scalar
    /// frame-by-frame reference engine instead of the batched default. The
    /// two engines are bit-identical by contract; campaigns run both ways
    /// must produce byte-identical artifacts.
    #[must_use]
    pub fn with_scalar_sessions(mut self) -> Self {
        self.testbed = self
            .testbed
            .with_engine(xr_testbed::SimulationEngine::Scalar);
        self
    }

    /// Builds a context from an explicit measurement campaign.
    ///
    /// # Errors
    ///
    /// Propagates regression-fitting errors.
    pub fn with_campaign(
        seed: u64,
        campaign: MeasurementCampaign,
        frames_per_point: u64,
    ) -> Result<Self> {
        let testbed = TestbedSimulator::new(seed);
        let train = campaign.collect(testbed.laws(), &DeviceCatalog::training_devices());
        let calibrated = CalibratedModels::fit(&train)?;
        let proposed = calibrated.performance_model();
        Ok(Self {
            testbed,
            calibrated,
            proposed,
            frames_per_point: frames_per_point.max(1),
            seed,
            reorder_cap: None,
        })
    }

    /// The ground-truth simulator.
    #[must_use]
    pub fn testbed(&self) -> &TestbedSimulator {
        &self.testbed
    }

    /// The calibrated sub-models (for the regression report).
    #[must_use]
    pub fn calibrated(&self) -> &CalibratedModels {
        &self.calibrated
    }

    /// The calibrated proposed framework.
    #[must_use]
    pub fn proposed(&self) -> &XrPerformanceModel {
        &self.proposed
    }

    /// Number of ground-truth frames simulated per operating point.
    #[must_use]
    pub fn frames_per_point(&self) -> u64 {
        self.frames_per_point
    }

    /// The measurement-campaign size at one operating point: the point's
    /// own `frames_per_session` when its grid sweeps the campaign-size
    /// axis, this context's default otherwise.
    #[must_use]
    pub fn frames_for(&self, point: &OperatingPoint) -> u64 {
        point.frames_per_session.unwrap_or(self.frames_per_point)
    }

    /// The context's base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the evaluation scenario at one operating point of the Fig. 4/5
    /// sweep: the held-out XR2 client, a given frame size and CPU clock, and
    /// the given execution target.
    ///
    /// # Errors
    ///
    /// Propagates scenario-validation errors.
    pub fn scenario(
        &self,
        frame_size: f64,
        cpu_clock_ghz: f64,
        execution: ExecutionTarget,
    ) -> Result<Scenario> {
        self.scenario_for(&OperatingPoint {
            index: 0,
            frame_size,
            cpu_clock_ghz,
            execution,
            device: grid::PAPER_EVAL_DEVICE.to_string(),
            wireless: WirelessCondition::baseline(),
            mobility: MobilityCondition::static_device(),
            frames_per_session: None,
            users_per_edge: None,
            frame_rate_hz: None,
            topology: None,
            site_density: None,
            migration_policy: None,
        })
    }

    /// Builds the evaluation scenario for one operating point of a campaign
    /// grid: the point's client device, frame size, CPU clock and execution
    /// target, with the point's wireless condition applied to the scenario's
    /// own edge servers and the point's mobility condition applied to the
    /// device — a wireless condition overrides only the fields it names, so
    /// every non-baseline point stays pairwise comparable with its baseline
    /// twin. The baseline wireless condition applies no overrides at all;
    /// the static mobility condition equals the scenario defaults. A point
    /// on the `users_per_edge` axis turns multi-tenant edge contention on,
    /// and one on the `frame_rates` axis overrides the per-session frame
    /// rate (which is also the per-session arrival rate the shared edge
    /// queue sees). A point on any topology axis (`topology`,
    /// `site_density`, `migration_policy`) places the session on a
    /// multi-site edge map: unspecified companion axes default to a square
    /// tiling at 400 sites/km² with eager state migration.
    ///
    /// # Errors
    ///
    /// Propagates catalog-lookup and scenario-validation errors.
    pub fn scenario_for(&self, point: &OperatingPoint) -> Result<Scenario> {
        let mut builder = Scenario::builder()
            .client_from_catalog(&point.device)?
            .frame_side(point.frame_size)
            .cpu_clock(GigaHertz::new(point.cpu_clock_ghz))
            .execution(point.execution);
        if let Some(rate) = point.frame_rate_hz {
            builder = builder.frame_rate(xr_types::Hertz::new(rate));
        }
        if let Some(users) = point.users_per_edge {
            builder = builder.contention(users);
        }
        // Any topology axis turns the multi-site edge map on; unspecified
        // companions fall back to a square tiling at 400 sites/km² with
        // eager state migration, so a grid can sweep one axis alone.
        if point.topology.is_some()
            || point.site_density.is_some()
            || point.migration_policy.is_some()
        {
            builder = builder.topology(xr_core::TopologyConfig {
                layout: point.topology.unwrap_or(xr_types::TopologyLayout::Square),
                site_density: point.site_density.unwrap_or(400.0),
                migration_policy: point
                    .migration_policy
                    .unwrap_or(xr_types::MigrationPolicy::Eager),
            });
        }
        let mut scenario = builder.build()?;
        for server in &mut scenario.edge_servers {
            if let Some(distance) = point.wireless.distance_m {
                server.distance = Meters::new(distance);
            }
            if let Some(throughput) = point.wireless.throughput_mbps {
                server.throughput = Some(MegaBitsPerSecond::new(throughput));
            }
        }
        // Applied unconditionally so a static condition's coverage radius is
        // really in effect (artifact columns must state the measured
        // condition); `MobilityCondition::static_device()` equals the
        // scenario defaults, so baseline grids are unchanged.
        scenario.mobility.speed = MetersPerSecond::new(point.mobility.speed_mps);
        scenario.mobility.coverage_radius = Meters::new(point.mobility.coverage_radius_m);
        scenario.validate()?;
        Ok(scenario)
    }

    /// The ground-truth simulator reseeded for one replication of a campaign
    /// operating point: identical laws, monitor and noise configuration,
    /// only the RNG streams differ. Campaign evaluations pass
    /// `RepContext::seed` here so each replication is an independent
    /// measurement of the same operating point.
    #[must_use]
    pub fn testbed_for_seed(&self, seed: u64) -> TestbedSimulator {
        self.testbed.reseeded(seed)
    }

    /// The campaign runner every experiment drives: worker count from
    /// `XR_SWEEP_WORKERS` (default: available parallelism). Results are
    /// bit-identical for any worker count: the current experiment closures
    /// are deterministic per point because [`TestbedSimulator`] seeds every
    /// frame from its own seed, independent of evaluation order. The
    /// runner's per-point seeds (derived from this context's seed, exposed
    /// via `PointContext::seed`) are there for *stochastic* evaluations —
    /// consume them instead of any shared RNG to keep that property.
    #[must_use]
    pub fn runner(&self) -> CampaignRunner {
        let runner = CampaignRunner::from_env().with_campaign_seed(self.seed);
        match self.reorder_cap {
            Some(cap) => runner.with_reorder_cap(cap),
            None => runner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_builds_and_analyses() {
        let ctx = ExperimentContext::quick(7).unwrap();
        let scenario = ctx.scenario(500.0, 2.0, ExecutionTarget::Remote).unwrap();
        let report = ctx.proposed().analyze(&scenario).unwrap();
        assert!(report.latency.total().as_f64() > 0.0);
        let gt = ctx
            .testbed()
            .simulate_session(&scenario, ctx.frames_per_point())
            .unwrap();
        assert!(gt.mean_latency().as_f64() > 0.0);
        assert_eq!(ctx.seed(), 7);
        assert_eq!(ctx.frames_per_point(), 20);
        assert!(ctx.calibrated().training_r_squared().resource_r_squared > 0.5);
    }

    #[test]
    fn sweep_constants_match_the_paper() {
        assert_eq!(ExperimentContext::FRAME_SIZES.len(), 5);
        assert_eq!(ExperimentContext::CPU_CLOCKS, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn contended_points_carry_population_and_frame_rate_into_the_scenario() {
        let ctx = ExperimentContext::quick(7).unwrap();
        let mut point = OperatingPoint {
            index: 0,
            frame_size: 300.0,
            cpu_clock_ghz: 2.0,
            execution: ExecutionTarget::Remote,
            device: grid::PAPER_EVAL_DEVICE.to_string(),
            wireless: WirelessCondition::baseline(),
            mobility: MobilityCondition::static_device(),
            frames_per_session: None,
            users_per_edge: Some(4),
            frame_rate_hz: Some(5.0),
            topology: None,
            site_density: None,
            migration_policy: None,
        };
        let scenario = ctx.scenario_for(&point).unwrap();
        assert_eq!(
            scenario.contention,
            Some(xr_core::ContentionConfig { users_per_edge: 4 })
        );
        assert!((scenario.frame.frame_rate.as_f64() - 5.0).abs() < 1e-12);
        assert!(scenario.topology.is_none());
        // The default point keeps contention off and the 30 fps default.
        point.users_per_edge = None;
        point.frame_rate_hz = None;
        let scenario = ctx.scenario_for(&point).unwrap();
        assert!(scenario.contention.is_none());
        assert!((scenario.frame.frame_rate.as_f64() - 30.0).abs() < 1e-12);
        // Any topology axis turns the edge map on; absent companions fall
        // back to square/400/eager.
        point.site_density = Some(900.0);
        let scenario = ctx.scenario_for(&point).unwrap();
        assert_eq!(
            scenario.topology,
            Some(xr_core::TopologyConfig {
                layout: xr_types::TopologyLayout::Square,
                site_density: 900.0,
                migration_policy: xr_types::MigrationPolicy::Eager,
            })
        );
        point.topology = Some(xr_types::TopologyLayout::Hex);
        point.migration_policy = Some(xr_types::MigrationPolicy::Lazy);
        let scenario = ctx.scenario_for(&point).unwrap();
        let config = scenario.topology.unwrap();
        assert_eq!(config.layout, xr_types::TopologyLayout::Hex);
        assert_eq!(config.migration_policy, xr_types::MigrationPolicy::Lazy);
    }

    #[test]
    fn reorder_cap_tokens_parse_or_explain() {
        assert_eq!(parse_reorder_cap("8"), Ok(8));
        assert_eq!(
            parse_reorder_cap("0"),
            Err("reorder cap must be at least 1".to_string())
        );
        assert_eq!(
            parse_reorder_cap("many"),
            Err("invalid reorder cap `many`".to_string())
        );
    }

    #[test]
    fn worker_tokens_parse_or_name_the_variable() {
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(
            parse_workers("0"),
            Ok(0),
            "the runner clamps 0 to one worker"
        );
        assert_eq!(
            parse_workers("abc"),
            Err("invalid XR_SWEEP_WORKERS `abc`: expected a worker count".to_string())
        );
        assert!(parse_workers("-1").is_err());
        assert!(parse_workers("").is_err());
    }

    #[test]
    fn seed_tokens_parse_or_name_the_variable() {
        assert_eq!(parse_seed("2025"), Ok(2025));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(
            parse_seed("abc"),
            Err("invalid XR_CAMPAIGN_SEED `abc`: expected an unsigned 64-bit seed".to_string())
        );
        assert!(parse_seed("-1").is_err());
        assert!(parse_seed("").is_err());
        assert!(parse_seed("18446744073709551616").is_err());
    }

    #[test]
    fn flag_values_are_the_next_token() {
        let args: Vec<String> = ["campaign", "--reorder-cap", "8", "--progress"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            flag_value(&args, "--reorder-cap", "a reorder cap"),
            Some("8".to_string())
        );
        assert_eq!(flag_value(&args, "--grid", "a grid file"), None);
    }

    #[test]
    fn fused_point_tokens_parse_or_name_the_variable() {
        assert_eq!(parse_fused_points("1"), Ok(true));
        assert_eq!(parse_fused_points("0"), Ok(false));
        assert_eq!(
            parse_fused_points("yes"),
            Err("invalid XR_FUSED_POINTS `yes`: expected 1 or 0".to_string())
        );
        assert!(parse_fused_points("").is_err());
    }

    #[test]
    fn reorder_cap_reaches_the_runner() {
        let ctx = ExperimentContext::quick(7).unwrap();
        assert_eq!(
            ctx.runner().reorder_cap(),
            xr_sweep::DEFAULT_REORDER_CAP,
            "unset cap keeps the runner default"
        );
        assert_eq!(ctx.with_reorder_cap(3).runner().reorder_cap(), 3);
    }

    #[test]
    fn fused_points_switch_the_engine() {
        let ctx = ExperimentContext::quick(7).unwrap().with_fused_points();
        assert!(matches!(
            ctx.testbed().engine(),
            xr_testbed::SimulationEngine::FusedPoint { .. }
        ));
    }

    #[test]
    fn static_mobility_condition_equals_the_scenario_default() {
        // `scenario_for` applies the point's mobility condition
        // unconditionally, which is only override-free for baseline grids
        // because `MobilityCondition::static_device()` mirrors
        // `MobilityConfig::default()`. xr-sweep cannot depend on xr-core,
        // so this cross-crate guard keeps the two literals tied together.
        let condition = MobilityCondition::static_device();
        let default = xr_core::MobilityConfig::default();
        assert_eq!(condition.speed_mps, default.speed.as_f64());
        assert_eq!(
            condition.coverage_radius_m,
            default.coverage_radius.as_f64()
        );
    }
}
