//! The within-session frame-range contract: simulating a session as any
//! partition of contiguous frame ranges — on either engine — reproduces the
//! whole-session [`GroundTruthFrame`] stream **bit for bit**, including the
//! cumulative mobility tallies (`migration_time`, `sites_visited`).
//!
//! Every session here is built with the frame log on, so each comparison
//! covers every frame, not only the per-session sums.
//!
//! This closes the seam the lane layer left open: per-stage draws are keyed
//! by `(session_seed, stage, frame_index)`, so a range `a..b` only has to
//! fast-forward the strictly sequential state (the mobility walker and the
//! migration-cost draws of the skipped prefix) to land on exactly the
//! trajectory a full run would have reached at frame `a`.

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
    speed: f64,
    radius: f64,
    users: u32,
    layout: u8,
    density: f64,
    lazy: bool,
) -> Scenario {
    let execution = match target {
        0 => ExecutionTarget::Local,
        1 => ExecutionTarget::Remote,
        _ => ExecutionTarget::Split { client_share: 0.5 },
    };
    let mut scenario = Scenario::builder()
        .frame_side(size)
        .cpu_clock(GigaHertz::new(clock))
        .cpu_share(Ratio::new(share))
        .frame_rate(Hertz::new(fps))
        .execution(execution)
        .mobility(MobilityConfig {
            speed: MetersPerSecond::new(speed),
            coverage_radius: Meters::new(radius),
            handoff_kind: HandoffKind::Vertical,
        })
        .build()
        .expect("generated scenario is valid");
    if users > 0 {
        scenario.contention = Some(xr_core::ContentionConfig {
            users_per_edge: users,
        });
    }
    if layout > 0 {
        let topo_layout = match layout {
            1 => xr_types::TopologyLayout::Square,
            2 => xr_types::TopologyLayout::Hex,
            _ => xr_types::TopologyLayout::Voronoi,
        };
        scenario.topology = Some(xr_core::TopologyConfig {
            layout: topo_layout,
            site_density: density,
            migration_policy: if lazy {
                xr_types::MigrationPolicy::Lazy
            } else {
                xr_types::MigrationPolicy::Eager
            },
        });
    }
    scenario.validate().expect("generated scenario is valid");
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Random split points, chunk counts, widths, and both engines: every
    // decomposition of a session into contiguous ranges is bit-identical
    // to the one-shot run. (A plain comment: the proptest shim's matcher
    // expects `#[test]` immediately.)
    #[test]
    fn range_splits_are_bit_identical_to_whole_sessions(
        size in 300.0..700.0_f64,
        clock in 1.0..3.2_f64,
        share in 0.0..1.0_f64,
        fps in 4.0..60.0_f64,
        target in prop::sample::select(vec![0u8, 1, 2]),
        speed in 0.0..30.0_f64,
        radius in 5.0..60.0_f64,
        users in prop::sample::select(vec![0u32, 1, 3]),
        layout in prop::sample::select(vec![0u8, 1, 2, 3]),
        density in 50.0..3000.0_f64,
        lazy in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
        frames in 2u64..72,
        split in 1u64..71,
        chunks in 1usize..9,
        width in 1usize..80,
        scalar_engine in prop::sample::select(vec![false, true]),
    ) {
        let scenario = build_scenario(
            size, clock, share, fps, target, speed, radius, users, layout, density, lazy,
        );
        let testbed = if scalar_engine {
            TestbedSimulator::new(seed).with_engine(SimulationEngine::Scalar)
        } else {
            TestbedSimulator::new(seed).with_engine(SimulationEngine::Batched { width })
        }
        .with_frame_log(true);
        // Saturated queues refuse to run; range decompositions of a refused
        // session must refuse too (checked on the trivial full range).
        let full = match testbed.simulate_session(&scenario, frames) {
            Ok(full) => full,
            Err(full_err) => {
                let range_err = testbed
                    .simulate_session_range(&scenario, 0..frames)
                    .unwrap_err();
                prop_assert_eq!(format!("{full_err:?}"), format!("{range_err:?}"));
                return Ok(());
            }
        };

        prop_assert!(full.frames().is_some(), "the reference must carry its frame log");

        // The full range is the whole session.
        let full_range = testbed.simulate_session_range(&scenario, 0..frames).unwrap();
        prop_assert_eq!(&full_range, &full);

        // An arbitrary two-way split stitches back bit for bit: frames
        // concatenate, tallies come from the last (cumulative) range.
        let split = 1 + split % (frames - 1);
        let head = testbed.simulate_session_range(&scenario, 0..split).unwrap();
        let tail = testbed.simulate_session_range(&scenario, split..frames).unwrap();
        let stitched: Vec<_> = head
            .frames()
            .unwrap()
            .iter()
            .chain(tail.frames().unwrap())
            .cloned()
            .collect();
        prop_assert_eq!(Some(stitched.as_slice()), full.frames());
        prop_assert_eq!(tail.migration_time(), full.migration_time());
        prop_assert_eq!(tail.sites_visited(), full.sites_visited());
        // The head alone matches the same-length prefix session exactly.
        let prefix = testbed.simulate_session(&scenario, split).unwrap();
        prop_assert_eq!(&head, &prefix);

        // Multi-threaded chunked execution — explicit and via the
        // `with_session_chunks` builder — agrees at every chunk count.
        let chunked = testbed
            .simulate_session_split(&scenario, frames, chunks)
            .unwrap();
        prop_assert_eq!(&chunked, &full);
        let via_builder = testbed
            .clone()
            .with_session_chunks(chunks)
            .simulate_session(&scenario, frames)
            .unwrap();
        prop_assert_eq!(&via_builder, &full);
        // Without the log the split still folds its parts' frames in order,
        // so the sums match the whole session bit for bit.
        let stats_only = testbed
            .clone()
            .with_frame_log(false)
            .simulate_session_split(&scenario, frames, chunks)
            .unwrap();
        prop_assert!(stats_only.frames().is_none());
        prop_assert_eq!(stats_only.stats(), full.stats());
        prop_assert_eq!(stats_only.migration_time(), full.migration_time());
        prop_assert_eq!(stats_only.sites_visited(), full.sites_visited());

        // Cross-engine: a scalar range equals a batched range of the same
        // frames (the range API preserves the PR-5 engine equivalence).
        let scalar_tail = testbed
            .simulate_session_range_scalar(&scenario, split..frames)
            .unwrap();
        let batched_tail = testbed
            .simulate_session_range_batched(&scenario, split..frames, width)
            .unwrap();
        prop_assert_eq!(&scalar_tail, &batched_tail);
    }
}

#[test]
// A reversed range is exactly the malformed input under test.
#[allow(clippy::reversed_empty_ranges)]
fn empty_ranges_and_zero_frames_are_rejected() {
    let scenario = build_scenario(512.0, 2.0, 0.8, 30.0, 1, 5.0, 20.0, 0, 0, 0.0, false);
    let testbed = TestbedSimulator::new(7);
    let err = testbed
        .simulate_session_range(&scenario, 5..5)
        .unwrap_err()
        .to_string();
    assert!(err.contains("range 5..5 must be non-empty"), "got: {err}");
    let err = testbed
        .simulate_session_range(&scenario, 9..3)
        .unwrap_err()
        .to_string();
    assert!(err.contains("range 9..3 must be non-empty"), "got: {err}");
    let err = testbed
        .simulate_session_split(&scenario, 0, 4)
        .unwrap_err()
        .to_string();
    assert!(err.contains("at least 1"), "got: {err}");
}

#[test]
fn chunk_counts_beyond_the_frame_count_clamp() {
    // 3 frames split 16 ways degenerates to (at most) 3 single-frame
    // ranges — still bit-identical, never an empty range.
    let scenario = build_scenario(480.0, 2.4, 0.7, 8.0, 2, 12.0, 18.0, 1, 1, 800.0, true);
    let testbed = TestbedSimulator::new(99).with_frame_log(true);
    let full = testbed.simulate_session(&scenario, 3).unwrap();
    assert!(full.frames().is_some());
    let chunked = testbed.simulate_session_split(&scenario, 3, 16).unwrap();
    assert_eq!(chunked, full);
    assert_eq!(
        testbed.with_session_chunks(0).session_chunks(),
        1,
        "chunk counts clamp to at least 1"
    );
}
