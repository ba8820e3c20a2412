//! The streaming session accumulators' contract: every per-session mean a
//! `GroundTruthSession` reports from its running sums is bit-identical to
//! the same mean computed from the session's frame log with
//! `.iter().map(..).sum::<f64>() / n` — on the scalar engine, the batched
//! engine at every width (frame counts that no width divides, so every
//! session ends on a tail batch), and the replication-fused point engine.
//!
//! It also pins the default: a simulator built without
//! `with_frame_log(true)` keeps the same sums and no frames.

use xr_core::{MobilityConfig, Scenario, TopologyConfig};
use xr_testbed::{GroundTruthFrame, GroundTruthSession, SimulationEngine, TestbedSimulator};
use xr_types::{
    ExecutionTarget, Hertz, Meters, MetersPerSecond, MigrationPolicy, Segment, TopologyLayout,
};
use xr_wireless::HandoffKind;

/// A prime frame count, so no batch width above 1 divides it.
const FRAMES: u64 = 613;

fn scenarios() -> Vec<(&'static str, Scenario)> {
    let remote = || {
        Scenario::builder()
            .execution(ExecutionTarget::Remote)
            .frame_side(300.0)
            .frame_rate(Hertz::new(5.0))
    };
    let vehicle = MobilityConfig {
        speed: MetersPerSecond::new(25.0),
        coverage_radius: Meters::new(10.0),
        handoff_kind: HandoffKind::Vertical,
    };
    let topology = |layout| TopologyConfig {
        layout,
        site_density: 2500.0,
        migration_policy: MigrationPolicy::Eager,
    };
    vec![
        (
            "static local",
            Scenario::builder()
                .execution(ExecutionTarget::Local)
                .build()
                .unwrap(),
        ),
        (
            "static split",
            Scenario::builder()
                .execution(ExecutionTarget::Split { client_share: 0.4 })
                .build()
                .unwrap(),
        ),
        ("static remote", remote().build().unwrap()),
        ("vehicle", remote().mobility(vehicle).build().unwrap()),
        (
            "square topology",
            remote()
                .mobility(vehicle)
                .topology(topology(TopologyLayout::Square))
                .build()
                .unwrap(),
        ),
        (
            "hex topology, contended",
            remote()
                .mobility(vehicle)
                .topology(topology(TopologyLayout::Hex))
                .contention(3)
                .build()
                .unwrap(),
        ),
        ("contended", remote().contention(4).build().unwrap()),
    ]
}

/// Asserts that every stats accessor of `session` equals, bit for bit, the
/// same quantity computed from its frame log.
fn assert_stats_match_log(session: &GroundTruthSession, label: &str) {
    let frames = session
        .frames()
        .unwrap_or_else(|| panic!("{label}: the session must carry its frame log"));
    assert_eq!(session.frame_count(), frames.len() as u64, "{label}");
    let n = frames.len() as f64;
    let mean = |value: &dyn Fn(&GroundTruthFrame) -> f64| frames.iter().map(value).sum::<f64>() / n;
    let bits = |got: f64, want: f64, what: &str| {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}: {what} {got:e} differs from the frame-log mean {want:e}"
        );
    };
    bits(
        session.mean_latency().as_f64(),
        mean(&|f| f.total_latency.as_f64()),
        "mean latency",
    );
    bits(
        session.mean_energy().as_f64(),
        mean(&|f| f.total_energy.as_f64()),
        "mean energy",
    );
    for &segment in &Segment::ALL {
        bits(
            session.mean_segment_latency(segment).as_f64(),
            mean(&|f| f.segment_latency(segment).as_f64()),
            &format!("mean {segment:?} latency"),
        );
    }
    bits(
        session.handoff_rate(),
        frames.iter().filter(|f| f.handoff_occurred).count() as f64 / n,
        "handoff rate",
    );
    bits(
        session.mean_migration_latency().as_f64(),
        session.migration_time().as_f64() / n,
        "mean migration latency",
    );
}

/// Asserts that a stats-only run of the same session kept the same sums
/// and tallies and no frames.
fn assert_stats_only_agrees(stats_only: &GroundTruthSession, logged: &GroundTruthSession) {
    assert!(stats_only.frames().is_none());
    assert!(stats_only.latency_summary().is_none());
    assert_eq!(stats_only.stats(), logged.stats());
    assert_eq!(stats_only.migration_time(), logged.migration_time());
    assert_eq!(stats_only.sites_visited(), logged.sites_visited());
}

#[test]
fn scalar_and_batched_sums_match_the_frame_log() {
    for (label, scenario) in scenarios() {
        let testbed = TestbedSimulator::new(606).with_frame_log(true);
        let scalar = testbed.simulate_session_scalar(&scenario, FRAMES).unwrap();
        assert_stats_match_log(&scalar, &format!("{label}, scalar"));
        let stats_only = TestbedSimulator::new(606)
            .simulate_session_scalar(&scenario, FRAMES)
            .unwrap();
        assert_stats_only_agrees(&stats_only, &scalar);
        for width in [1, 7, 64, 256, 512] {
            let batched = testbed
                .simulate_session_batched(&scenario, FRAMES, width)
                .unwrap();
            assert_stats_match_log(&batched, &format!("{label}, width {width}"));
            let stats_only = TestbedSimulator::new(606)
                .simulate_session_batched(&scenario, FRAMES, width)
                .unwrap();
            assert_stats_only_agrees(&stats_only, &batched);
        }
    }
}

#[test]
fn fused_point_sums_match_the_frame_log() {
    let fused = TestbedSimulator::new(707).with_engine(SimulationEngine::FusedPoint {
        width: xr_testbed::DEFAULT_BATCH_WIDTH,
    });
    let logged = fused.clone().with_frame_log(true);
    for (label, scenario) in scenarios() {
        for reps in [2, 3, 8] {
            let point_seed = 9_000 + reps as u64;
            let sessions = logged
                .simulate_point(&scenario, point_seed, reps, 97)
                .unwrap();
            let stats_only = fused
                .simulate_point(&scenario, point_seed, reps, 97)
                .unwrap();
            assert_eq!(sessions.len(), reps);
            for (rep, (session, stats_only)) in sessions.iter().zip(&stats_only).enumerate() {
                assert_stats_match_log(session, &format!("{label}, reps {reps}, rep {rep}"));
                assert_stats_only_agrees(stats_only, session);
            }
        }
    }
}

#[test]
fn the_scenarios_exercise_handoffs_migrations_and_contention() {
    // Guards the coverage above: the mobile and topologized sessions really
    // hand off and migrate, so their sums are not trivially zero.
    let testbed = TestbedSimulator::new(606);
    let scenarios = scenarios();
    let session = |name: &str| {
        let (_, scenario) = scenarios.iter().find(|(label, _)| *label == name).unwrap();
        testbed.simulate_session(scenario, FRAMES).unwrap()
    };
    assert!(session("vehicle").handoff_rate() > 0.0);
    assert!(session("square topology").sites_visited() > 1);
    assert!(session("hex topology, contended").migration_time().as_f64() > 0.0);
    assert!(
        session("contended")
            .mean_segment_latency(Segment::RemoteInference)
            .as_f64()
            > 0.0
    );
}

#[test]
fn default_sessions_carry_no_frames() {
    let scenario = Scenario::builder().build().unwrap();
    let testbed = TestbedSimulator::new(1);
    assert!(!testbed.keeps_frame_log());
    let session = testbed.simulate_session(&scenario, 64).unwrap();
    assert_eq!(session.frames(), None);
    assert_eq!(session.energy_summary(), None);
    assert_eq!(session.frame_count(), 64);
    // Replications keep the setting of the simulator they were cloned from.
    assert!(!testbed.reseeded(2).keeps_frame_log());
    assert!(testbed.with_frame_log(true).reseeded(2).keeps_frame_log());
}
