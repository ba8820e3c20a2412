//! The replication-fused point engine's contract: for every scenario,
//! point seed, replication count, session length, and batch width,
//! `simulate_point` produces exactly the sessions that R standalone
//! per-rep runs produce — bit-identical, not statistically equal.
//!
//! Both paths run with the frame log on, and each reference asserts the log
//! is present, so every comparison covers every frame rather than only the
//! per-session sums.
//!
//! This is the same property that makes the batched engine safe: a draw
//! depends only on `(replication_seed, stage_id, frame_index)`, so fusing
//! all replications of a point into one wide SoA pass cannot change any
//! `f64`. Error behaviour must match too: a point whose scenario saturates
//! a queue refuses identically on both paths.

use proptest::prelude::*;
use xr_core::{MobilityConfig, Scenario};
use xr_testbed::{SimulationEngine, TestbedSimulator};
use xr_types::{ExecutionTarget, GigaHertz, Hertz, Meters, MetersPerSecond, Ratio};
use xr_wireless::HandoffKind;

#[allow(clippy::too_many_arguments)]
fn build_scenario(
    size: f64,
    clock: f64,
    share: f64,
    fps: f64,
    target: u8,
    updates: u32,
    speed: f64,
    radius: f64,
) -> Scenario {
    let execution = match target {
        0 => ExecutionTarget::Local,
        1 => ExecutionTarget::Remote,
        _ => ExecutionTarget::Split { client_share: 0.5 },
    };
    Scenario::builder()
        .frame_side(size)
        .cpu_clock(GigaHertz::new(clock))
        .cpu_share(Ratio::new(share))
        .frame_rate(Hertz::new(fps))
        .updates_per_frame(updates)
        .execution(execution)
        .mobility(MobilityConfig {
            speed: MetersPerSecond::new(speed),
            coverage_radius: Meters::new(radius),
            handoff_kind: HandoffKind::Vertical,
        })
        .build()
        .expect("generated scenario is valid")
}

/// Asserts that the fused engine and a sequence of standalone per-rep
/// sessions agree on `scenario` — on every frame when the point is
/// simulable, on the refusal when it is not.
fn assert_fused_matches_per_rep(
    fused: &TestbedSimulator,
    reference: &TestbedSimulator,
    scenario: &Scenario,
    point_seed: u64,
    reps: usize,
    frames: u64,
    label: &str,
) -> Result<(), TestCaseError> {
    let per_rep: xr_types::Result<Vec<_>> = (0..reps)
        .map(|rep| {
            reference
                .reseeded(xr_types::seed::mix(point_seed, rep as u64))
                .simulate_session(scenario, frames)
        })
        .collect();
    match (
        fused.simulate_point(scenario, point_seed, reps, frames),
        per_rep,
    ) {
        (Ok(fused_sessions), Ok(reference_sessions)) => {
            prop_assert!(
                reference_sessions.iter().all(|s| s.frames().is_some()),
                "the per-rep reference must carry its frame log ({label})"
            );
            prop_assert!(
                fused_sessions == reference_sessions,
                "fused point diverged from per-rep sessions ({label})"
            );
        }
        (Err(fused_err), Err(reference_err)) => {
            prop_assert!(
                format!("{fused_err:?}") == format!("{reference_err:?}"),
                "fused point refused differently ({label}): {fused_err:?} vs {reference_err:?}"
            );
        }
        (fused, reference) => {
            return Err(TestCaseError::fail(format!(
                "one path failed where the other succeeded ({label}): fused {} vs per-rep {}",
                if fused.is_ok() { "ok" } else { "err" },
                if reference.is_ok() { "ok" } else { "err" },
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_points_are_bit_identical_to_per_rep_sessions(
        size in 300.0..700.0_f64,
        clock in 1.0..3.2_f64,
        share in 0.0..1.0_f64,
        fps in 15.0..60.0_f64,
        target in prop::sample::select(vec![0u8, 1, 2]),
        updates in 1u32..8,
        speed in 0.0..30.0_f64,
        radius in 5.0..60.0_f64,
        point_seed in 0u64..1_000_000,
        frames in 1u64..48,
        reps in 1usize..9,
        width in prop::sample::select(vec![1usize, 7, 64, 256]),
        users in prop::sample::select(vec![0u32, 1, 2, 3, 5]),
        layout in prop::sample::select(vec![0u8, 1, 2, 3]),
        density in 50.0..3000.0_f64,
        lazy in prop::sample::select(vec![false, true]),
    ) {
        // The reference testbed keeps the default batched engine: its
        // `simulate_point` dispatches rep-by-rep, which is also the exact
        // path the per-rep campaign uses.
        let reference = TestbedSimulator::new(9).with_frame_log(true);
        let fused = reference
            .clone()
            .with_engine(SimulationEngine::FusedPoint { width });

        let scenario = build_scenario(size, clock, share, fps, target, updates, speed, radius);
        assert_fused_matches_per_rep(
            &fused, &reference, &scenario, point_seed, reps, frames,
            &format!("plain, reps {reps}, width {width}, frames {frames}"),
        )?;

        // Multi-tenant contention, at a frame rate low enough to generate
        // a mix of stable and saturated queues (a saturated point must
        // refuse identically on both paths).
        if users > 0 {
            let mut contended =
                build_scenario(size, clock, share, fps / 6.0, target, updates, speed, radius);
            contended.contention = Some(xr_core::ContentionConfig { users_per_edge: users });
            contended.validate().expect("contended scenario is valid");
            assert_fused_matches_per_rep(
                &fused, &reference, &contended, point_seed, reps, frames,
                &format!("contended, users {users}, reps {reps}, width {width}"),
            )?;
        }

        // Edge topology: per-rep walkers and migration state live in
        // rep-indexed banks on the fused path, so roaming sessions are the
        // sharpest divergence detector.
        let mut topologized =
            build_scenario(size, clock, share, fps / 6.0, target, updates, speed, radius);
        let topo_layout = match layout {
            0 => xr_types::TopologyLayout::Single,
            1 => xr_types::TopologyLayout::Square,
            2 => xr_types::TopologyLayout::Hex,
            _ => xr_types::TopologyLayout::Voronoi,
        };
        topologized.topology = Some(xr_core::TopologyConfig {
            layout: topo_layout,
            site_density: if topo_layout == xr_types::TopologyLayout::Single { 0.0 } else { density },
            migration_policy: if lazy {
                xr_types::MigrationPolicy::Lazy
            } else {
                xr_types::MigrationPolicy::Eager
            },
        });
        if users > 0 {
            topologized.contention = Some(xr_core::ContentionConfig { users_per_edge: users });
        }
        topologized.validate().expect("topologized scenario is valid");
        assert_fused_matches_per_rep(
            &fused, &reference, &topologized, point_seed, reps, frames,
            &format!("topologized {topo_layout:?}, density {density:.0}, reps {reps}, width {width}"),
        )?;
    }
}

#[test]
fn tail_frames_and_narrow_widths_fuse_exactly() {
    // Deterministic corners the proptest may not pin every run: a lane
    // budget narrower than the rep count (per-rep width clamps to 1), a
    // tail where the last pass is shorter than the others, and R=1 (the
    // engine falls back to a single standalone session).
    let reference = TestbedSimulator::new(4242).with_frame_log(true);
    let scenario = Scenario::builder()
        .frame_side(512.0)
        .execution(ExecutionTarget::Remote)
        .build()
        .expect("scenario is valid");
    for (reps, frames, width) in [
        (5usize, 13u64, 2usize),
        (3, 1, 256),
        (8, 19, 7),
        (1, 33, 64),
        (4, 20, 4),
    ] {
        let fused = reference
            .clone()
            .with_engine(SimulationEngine::FusedPoint { width });
        let point_seed = 77_000 + reps as u64;
        let fused_sessions = fused
            .simulate_point(&scenario, point_seed, reps, frames)
            .unwrap();
        for (rep, session) in fused_sessions.iter().enumerate() {
            let standalone = reference
                .reseeded(xr_types::seed::mix(point_seed, rep as u64))
                .simulate_session(&scenario, frames)
                .unwrap();
            assert!(standalone.frames().is_some());
            assert_eq!(
                session, &standalone,
                "rep {rep} diverged (reps {reps}, frames {frames}, width {width})"
            );
        }
    }
}
