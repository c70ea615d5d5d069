//! Packet front-end equivalence: the SoA ray packet must visit exactly
//! the voxel sequence of the scalar Amanatides–Woo DDA for every ray,
//! and the front-end choice must be invisible in every map it feeds —
//! same leaves, same operation counters, across all update engines and
//! both backends. This is the contract that lets `FrontEnd::Packet` be
//! the default: it is a pure speed knob, not a semantic one.

use omu::accel::{verify, OmuAccelerator, OmuConfig};
use omu::geometry::{KeyConverter, Point3, PointCloud, Scan};
use omu::octree::OctreeF32;
use omu::raycast::{
    compute_ray_keys, FrontEnd, IntegrationMode, KeyRay, LaneOutcome, RayPacket, ScanIntegrator,
    VoxelUpdate, PACKET_LANES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Casts `points` through one packet and demands each lane reproduce the
/// scalar `compute_ray_keys` voxel sequence exactly (all endpoints must
/// be inside the addressable map).
fn assert_packet_matches_scalar_dda(conv: &KeyConverter, origin: Point3, points: &[Point3]) {
    let key_origin = conv.coord_to_key(origin).unwrap();
    let mut packet = RayPacket::new();
    packet.cast(conv, origin, key_origin, points, None);
    assert_eq!(packet.lanes(), points.len());
    let mut scalar = KeyRay::new();
    for (lane, &p) in points.iter().enumerate() {
        compute_ray_keys(conv, origin, p, &mut scalar).unwrap();
        assert_eq!(
            packet.keys(lane),
            scalar.keys(),
            "lane {lane} diverged from the scalar DDA (origin {origin:?}, endpoint {p:?})"
        );
        let end_key = conv.coord_to_key(p).unwrap();
        assert_eq!(packet.outcome(lane), LaneOutcome::Hit(end_key));
    }
}

/// Streams one scan through the integrator under both front ends and
/// demands identical update sequences and identical statistics.
fn assert_integrator_streams_match(scan: &Scan, max_range: Option<f64>, mode: IntegrationMode) {
    let conv = KeyConverter::new(0.1).unwrap();
    let run = |front_end: FrontEnd| {
        let mut updates: Vec<VoxelUpdate> = Vec::new();
        let mut it = ScanIntegrator::with_front_end(conv, max_range, mode, front_end);
        let stats = it.integrate(scan, |u| updates.push(u)).unwrap();
        (updates, stats)
    };
    let (scalar_updates, scalar_stats) = run(FrontEnd::Scalar);
    let (packet_updates, packet_stats) = run(FrontEnd::Packet);
    assert_eq!(
        scalar_updates, packet_updates,
        "update streams diverged (max_range {max_range:?}, mode {mode:?})"
    );
    assert_eq!(scalar_stats, packet_stats);
}

fn random_scan(rng: &mut StdRng, points: usize) -> Scan {
    let origin = Point3::new(
        rng.random_range(-0.5..0.5),
        rng.random_range(-0.5..0.5),
        rng.random_range(-0.3..0.3),
    );
    let cloud: PointCloud = (0..points)
        .map(|_| {
            Point3::new(
                rng.random_range(-4.0..4.0),
                rng.random_range(-4.0..4.0),
                rng.random_range(-1.5..1.5),
            )
        })
        .collect();
    Scan::new(origin, cloud)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Core DDA contract: for random in-bounds rays, every packet lane
    // walks the exact voxel sequence of the scalar Amanatides–Woo DDA.
    #[test]
    fn packet_lanes_visit_the_scalar_voxel_sequence(
        seed in any::<u64>(),
        lanes in 1usize..=PACKET_LANES,
    ) {
        let conv = KeyConverter::new(0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let origin = Point3::new(
            rng.random_range(-3.0..3.0),
            rng.random_range(-3.0..3.0),
            rng.random_range(-3.0..3.0),
        );
        let points: Vec<Point3> = (0..lanes)
            .map(|_| {
                Point3::new(
                    rng.random_range(-8.0..8.0),
                    rng.random_range(-8.0..8.0),
                    rng.random_range(-8.0..8.0),
                )
            })
            .collect();
        assert_packet_matches_scalar_dda(&conv, origin, &points);
    }

    // Integrator-level contract, including max-range truncation and
    // out-of-bounds endpoint discarding: the per-voxel update stream is
    // identical element-for-element under either front end.
    #[test]
    fn integrator_update_streams_are_identical(
        seed in any::<u64>(),
        points in 1usize..40,
        range_tenths in 0u32..60,
    ) {
        // range_tenths 0 means "no max range"; otherwise 0.5..6.0 m.
        let max_range = (range_tenths >= 5).then(|| f64::from(range_tenths) / 10.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let scan = random_scan(&mut rng, points);
        assert_integrator_streams_match(&scan, max_range, IntegrationMode::Raywise);
        assert_integrator_streams_match(&scan, max_range, IntegrationMode::DedupPerScan);
    }
}

#[test]
fn axis_aligned_and_degenerate_rays_match_the_scalar_dda() {
    let conv = KeyConverter::new(0.1).unwrap();
    let origin = Point3::new(0.05, 0.05, 0.05);
    // One ray per axis direction, a diagonal, and a sub-voxel ray — the
    // cases where the DDA's tie-break order between axes shows up.
    let points = [
        Point3::new(2.0, 0.05, 0.05),
        Point3::new(-2.0, 0.05, 0.05),
        Point3::new(0.05, 2.0, 0.05),
        Point3::new(0.05, -2.0, 0.05),
        Point3::new(0.05, 0.05, 2.0),
        Point3::new(0.05, 0.05, -2.0),
        Point3::new(1.7, 1.7, 1.7),
        Point3::new(0.08, 0.06, 0.07),
    ];
    assert_packet_matches_scalar_dda(&conv, origin, &points);
    // Voxel-boundary origin: exercises the t_max initialisation ties.
    let boundary = Point3::new(0.1, 0.2, 0.3);
    assert_packet_matches_scalar_dda(&conv, boundary, &points);
}

#[test]
fn zero_length_rays_are_empty_hits() {
    let conv = KeyConverter::new(0.1).unwrap();
    let origin = Point3::new(0.25, 0.25, 0.25);
    let key_origin = conv.coord_to_key(origin).unwrap();
    // Exact zero-length plus a same-voxel neighbour: both must produce
    // an empty traversal with a hit on the origin's own voxel, exactly
    // like the scalar integrator's same-voxel short-circuit.
    let points = [origin, Point3::new(0.26, 0.24, 0.25)];
    let mut packet = RayPacket::new();
    packet.cast(&conv, origin, key_origin, &points, None);
    for lane in 0..points.len() {
        assert!(packet.keys(lane).is_empty());
        assert_eq!(packet.steps(lane), 0);
        assert_eq!(packet.outcome(lane), LaneOutcome::Hit(key_origin));
    }
    let scan = Scan::new(origin, points.iter().copied().collect::<PointCloud>());
    assert_integrator_streams_match(&scan, None, IntegrationMode::Raywise);
}

/// Inserts the same random workload through every software update engine
/// under both front ends and demands bit-identical trees *and*
/// bit-identical operation counters — the packet front end must not even
/// change what the CPU timing model sees.
#[test]
fn software_engines_are_bit_identical_across_front_ends() {
    let scans: Vec<Scan> = {
        let mut rng = StdRng::seed_from_u64(4242);
        (0..12).map(|_| random_scan(&mut rng, 48)).collect()
    };
    // `None` is the scalar oracle, `Some(n)` the batched insert at n
    // shards.
    let build = |front_end: FrontEnd, engine: Option<usize>| {
        let mut tree = OctreeF32::new(0.1).unwrap();
        tree.set_max_range(Some(5.0));
        tree.set_front_end(front_end);
        for scan in &scans {
            match engine {
                None => tree.insert_scan(scan).unwrap(),
                Some(shards) => tree
                    .insert_points(scan.origin, scan.cloud.points(), shards)
                    .unwrap(),
            };
        }
        tree
    };
    for engine in [None, Some(1), Some(4)] {
        let scalar_fe = build(FrontEnd::Scalar, engine);
        let packet_fe = build(FrontEnd::Packet, engine);
        assert_eq!(
            scalar_fe.snapshot(),
            packet_fe.snapshot(),
            "{engine:?} engine maps diverged across front ends"
        );
        assert_eq!(
            scalar_fe.counters(),
            packet_fe.counters(),
            "{engine:?} engine op counters diverged across front ends"
        );
    }
}

/// Runs the accelerator's three update engines under both front ends and
/// checks each against the same software baseline: all six runs must
/// land on the identical map.
#[test]
fn accelerator_engines_are_bit_identical_across_front_ends() {
    let scans: Vec<Scan> = {
        let mut rng = StdRng::seed_from_u64(77);
        (0..10).map(|_| random_scan(&mut rng, 40)).collect()
    };
    let config = |front_end: FrontEnd| {
        OmuConfig::builder()
            .resolution(0.1)
            .max_range(Some(5.0))
            .front_end(front_end)
            .build()
            .unwrap()
    };
    let mut baseline = verify::baseline_for(&config(FrontEnd::Scalar));
    for scan in &scans {
        baseline.insert_scan(scan).unwrap();
    }
    let mut voxel_updates = Vec::new();
    for front_end in [FrontEnd::Scalar, FrontEnd::Packet] {
        for engine in ["scalar", "batched", "sharded"] {
            let mut omu = OmuAccelerator::new(config(front_end)).unwrap();
            for scan in &scans {
                match engine {
                    "scalar" => omu.integrate_scan(scan).unwrap(),
                    "batched" => omu.integrate_scan_batched(scan).unwrap(),
                    "sharded" => omu.integrate_scan_sharded(scan).unwrap(),
                    _ => unreachable!(),
                };
            }
            verify::check_equivalence(&baseline, &omu).unwrap_or_else(|m| {
                panic!("{engine}/{front_end} diverged from the baseline:\n{m}")
            });
            voxel_updates.push(omu.stats().voxel_updates);
        }
    }
    // The paper's Table II work metric must be front-end independent.
    assert!(voxel_updates.iter().all(|&v| v == voxel_updates[0]));
}

/// The packet front end reports its own stats (packets, supersteps, lane
/// occupancy) while leaving `IntegrationStats` untouched — the scalar
/// stats are the cross-engine equality currency.
#[test]
fn packet_stats_report_lane_occupancy() {
    let conv = KeyConverter::new(0.1).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let scan = random_scan(&mut rng, 64);
    let mut it =
        ScanIntegrator::with_front_end(conv, None, IntegrationMode::Raywise, FrontEnd::Packet);
    it.integrate(&scan, |_| {}).unwrap();
    let stats = it.packet_stats();
    assert_eq!(stats.packets, 64u64.div_ceil(PACKET_LANES as u64));
    assert!(stats.lane_steps > 0);
    let occ = stats.lane_occupancy();
    assert!(occ > 0.0 && occ <= 1.0, "lane occupancy {occ} out of range");

    let mut scalar =
        ScanIntegrator::with_front_end(conv, None, IntegrationMode::Raywise, FrontEnd::Scalar);
    scalar.integrate(&scan, |_| {}).unwrap();
    assert_eq!(scalar.packet_stats().packets, 0);
}
