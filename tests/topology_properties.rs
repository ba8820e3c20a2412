//! Property harness for the multi-site edge topology: the single-site map
//! must be invisible, and the per-site contention queues must match M/M/1
//! closed form.
//!
//! Three contracts pin the topology generalisation to the legacy
//! single-zone stack:
//!
//! 1. **Walker equivalence.** Over [`EdgeTopology::single`] the
//!    [`TopologyWalker`] replays [`RandomWalker`] on the same RNG stream
//!    bit for bit — same positions, same crossing counts, and the stream
//!    itself left in the same state (checked by drawing more steps from
//!    both afterwards).
//! 2. **Session equivalence.** A scenario whose topology is the explicit
//!    `Single` layout produces a `GroundTruthSession` bit-identical to the
//!    same scenario with no topology at all, in both engines, with and
//!    without contention (the single site hosts exactly `users_per_edge`
//!    tenants, so its per-site queue equals the base queue).
//! 3. **Per-site queue closed form.** A static session attached to one
//!    site of a tiled map draws its remote stage from that site's M/M/1
//!    queue: over many frames the noiseless empirical mean converges to
//!    the snapshot's per-site analytic mean sojourn at the Monte-Carlo
//!    rate, exactly as `tests/contention_properties.rs` pins the
//!    single-queue stage against `MM1Queue::mean_time_in_system`.

use proptest::prelude::*;
use xr_core::{MobilityConfig, Scenario, TopologyConfig};
use xr_testbed::TestbedSimulator;
use xr_types::{
    ExecutionTarget, Hertz, Meters, MetersPerSecond, MigrationPolicy, Seconds, Segment,
    TopologyLayout,
};
use xr_wireless::{
    AccessTechnology, CoverageZone, EdgeTopology, HandoffKind, RandomWalkMobility, RandomWalker,
};

fn mobile_scenario(speed: f64, radius: f64, users: Option<u32>) -> Scenario {
    let mut builder = Scenario::builder()
        .execution(ExecutionTarget::Remote)
        .frame_side(300.0)
        .frame_rate(Hertz::new(5.0))
        .mobility(MobilityConfig {
            speed: MetersPerSecond::new(speed),
            coverage_radius: Meters::new(radius),
            handoff_kind: HandoffKind::Horizontal,
        });
    if let Some(users) = users {
        builder = builder.contention(users);
    }
    builder.build().expect("scenario is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Contract 1: the single-site TopologyWalker replays RandomWalker on
    // the same stream — positions, crossings, and the stream itself.
    #[test]
    fn single_site_walker_replays_the_legacy_walker(
        speed in 0.5..40.0_f64,
        radius in 3.0..60.0_f64,
        seed in 0u64..1_000_000,
        windows in prop::collection::vec(0.0..2.5_f64, 1..60),
    ) {
        let step_interval = Seconds::new(1.0);
        let zone = CoverageZone::new(Meters::new(radius));
        let mobility =
            RandomWalkMobility::new(MetersPerSecond::new(speed), step_interval, zone);
        let mut legacy = RandomWalker::new(&mobility, seed);
        let map = EdgeTopology::single(zone, AccessTechnology::WiFi5GHz, 1);
        let mut topo = map.walker(MetersPerSecond::new(speed), step_interval, seed);

        for (i, &w) in windows.iter().enumerate() {
            let window = Seconds::new(w);
            let crossings = legacy.advance(window);
            let events = topo.advance(window);
            prop_assert!(
                events.crossings == crossings,
                "crossing counts diverged at window {}", i
            );
            prop_assert!(events.migrations == 0, "a 1-site map cannot migrate");
            prop_assert_eq!(events.site, 0);
            prop_assert!(
                (legacy.radius().as_f64() - topo.radius().as_f64()).abs() < 1e-12,
                "positions diverged at window {}: legacy r {} vs topology r {}",
                i, legacy.radius().as_f64(), topo.radius().as_f64()
            );
        }
        prop_assert_eq!(topo.site_index(), 0);
        prop_assert_eq!(topo.sites_visited(), 1);
        // The RNG streams are in lockstep: further draws agree bit for bit.
        for _ in 0..16 {
            prop_assert!(legacy.step() == topo.step(), "streams fell out of lockstep");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Contract 2: the explicit Single layout is invisible — same session,
    // bit for bit, in both engines, contended or not.
    #[test]
    fn single_layout_sessions_match_the_untopologized_reference(
        speed in 0.0..35.0_f64,
        radius in 4.0..40.0_f64,
        seed in 0u64..1_000_000,
        frames in 1u64..96,
        width in 1usize..64,
        users in prop::sample::select(vec![0u32, 1, 3, 5]),
    ) {
        let users = (users > 0).then_some(users);
        let legacy = mobile_scenario(speed, radius, users);
        let mut single = legacy.clone();
        single.topology = Some(TopologyConfig {
            layout: TopologyLayout::Single,
            site_density: 0.0,
            migration_policy: MigrationPolicy::Eager,
        });
        let testbed = TestbedSimulator::new(seed).with_frame_log(true);
        let reference = testbed.simulate_session_scalar(&legacy, frames).unwrap();
        prop_assert!(reference.frames().is_some(), "the reference must carry its frame log");
        let scalar = testbed.simulate_session_scalar(&single, frames).unwrap();
        prop_assert!(scalar == reference, "scalar single-layout session diverged");
        prop_assert_eq!(scalar.sites_visited(), 1);
        prop_assert!(scalar.migration_time() == Seconds::ZERO);
        let batched = testbed
            .simulate_session_batched(&single, frames, width)
            .unwrap();
        prop_assert!(batched == reference, "batched single-layout session diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Contract 3: a static session on a tiled map draws its remote stage
    // from its start site's repopulated M/M/1 queue — the noiseless
    // empirical mean converges to that site's analytic mean sojourn.
    #[test]
    fn static_site_queue_converges_to_the_per_site_closed_form(
        users in 2u32..8,
        density in 100.0..2500.0_f64,
        seed in 0u64..1_000_000,
    ) {
        let mut scenario = mobile_scenario(0.0, 30.0, Some(users));
        scenario.topology = Some(TopologyConfig {
            layout: TopologyLayout::Square,
            site_density: density,
            migration_policy: MigrationPolicy::Eager,
        });
        scenario.validate().expect("topologized scenario is valid");
        let testbed = TestbedSimulator::new(seed).with_noise(0.0);
        let snapshot = testbed
            .contention_snapshot(&scenario)
            .unwrap()
            .expect("contention configured");
        let map =
            TestbedSimulator::edge_topology(&scenario).expect("topology configured");
        let start = map.start_site();
        let (tenants, queues) = &snapshot.site_queues()[start];
        prop_assert_eq!(*tenants, map.sites()[start].tenants());
        // The site's analytic mean contention delay: the max over the
        // scenario's edge servers of the tagged session's weighted mean
        // sojourn, mirroring ContentionSnapshot::mean_contention_delay.
        let closed = queues
            .iter()
            .fold(0.0_f64, |acc, &(weight, contention)| {
                acc.max(contention.mean_sojourn().as_f64() * weight)
            });
        prop_assert!(closed > 0.0);
        let frames = 4_000u64;
        let session = testbed.simulate_session(&scenario, frames).unwrap();
        let mean = session
            .mean_segment_latency(Segment::RemoteInference)
            .as_f64();
        #[allow(clippy::cast_precision_loss)]
        let tolerance = 5.0 * closed / (frames as f64).sqrt();
        prop_assert!(
            (mean - closed).abs() < tolerance,
            "simulated {} vs site closed form {} ({} tenants, tolerance {})",
            mean, closed, tenants, tolerance
        );
    }
}

#[test]
fn eager_migration_costs_more_than_lazy_on_the_same_walk() {
    // Same map, same walk, same noise streams — only the per-migration
    // base differs, so the eager session's migration bill strictly
    // dominates the lazy one's while every migration count matches.
    let mut eager = mobile_scenario(25.0, 8.0, None);
    eager.topology = Some(TopologyConfig {
        layout: TopologyLayout::Hex,
        site_density: 1600.0,
        migration_policy: MigrationPolicy::Eager,
    });
    let mut lazy = eager.clone();
    lazy.topology = Some(TopologyConfig {
        migration_policy: MigrationPolicy::Lazy,
        ..eager.topology.unwrap()
    });
    let testbed = TestbedSimulator::new(7);
    let eager_session = testbed.simulate_session(&eager, 400).unwrap();
    let lazy_session = testbed.simulate_session(&lazy, 400).unwrap();
    assert!(eager_session.sites_visited() > 1, "walker never migrated");
    assert_eq!(
        eager_session.sites_visited(),
        lazy_session.sites_visited(),
        "policies must not change the walk"
    );
    assert!(eager_session.migration_time() > lazy_session.migration_time());
    assert!(lazy_session.migration_time() > Seconds::ZERO);
}
