//! CI's performance guards: five paired timing ratios on the FR-079
//! corridor dataset, each with the floor or ceiling that fails the
//! build. Writes `BENCH_guards.json` (in the current directory) and
//! exits non-zero when a ratio breaches its bound.
//!
//! | stage | scale | sides (same output) | gated ratio | bound |
//! |---|---|---|---|---|
//! | `front_end` | 0.1 | scalar DDA, 8-lane packet (update streams) | packet/scalar throughput | ≥ 1.0 |
//! | `sharded` | 0.02 | `apply_update_batch_parallel` at 1, 8 shards (`to_bytes`) | 8/1-shard throughput | ≥ 0.93 |
//! | `snapshot` | 0.1 | 100 k random probes, direct and through a `Snapshot` (occupied count) | snapshot/direct throughput | ≥ 0.9 |
//! | `durability` | 0.1 | `MapService` ingest with no WAL, a WAL, a checkpoint every epoch (final snapshot) | wal_on/wal_off, ckpt_on/wal_on time | ≤ 1.10 |
//!
//! Each stage times its sides in [`ROUNDS`] rounds whose order rotates
//! (two sides alternate), and a gated ratio is the median of its
//! per-round ratios, so host drift moves both sides of a round alike.
//! The snapshot and durability stages, whose ratios sit nearest their
//! bounds, re-measure once before failing. On a host with fewer cores
//! than shards the sharded ratio is pool dispatch overhead. At 7 scans
//! the writer publishes only 2–3 times, so `ckpt_on` checkpoints every
//! epoch, and each of its runs must leave a checkpoint file behind.
//!
//! Usage: `cargo run --release -p omu-bench --bin bench_guards` (no
//! flags).

use std::time::Instant;

use omu_datasets::DatasetKind;
use omu_geometry::{Occupancy, Scan, VoxelKey};
use omu_map::{DurabilityPolicy, MapBuilder, MapService};
use omu_octree::OctreeF32;
use omu_raycast::{FrontEnd, IntegrationMode, ScanIntegrator, VoxelUpdate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Timed rounds per stage; every side runs once per round.
const ROUNDS: usize = 21;
/// Random probe keys, and passes over them per timed run, in the
/// snapshot stage.
const PROBE_KEYS: usize = 100_000;
const READ_REPS: usize = 10;

/// The bound a gated ratio's median must keep.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Bound {
    Floor(f64),
    Ceiling(f64),
}

impl Bound {
    fn holds(self, ratio: f64) -> bool {
        match self {
            Bound::Floor(floor) => ratio >= floor,
            Bound::Ceiling(ceiling) => ratio <= ceiling,
        }
    }
}

/// A gated ratio `(name, num, den, bound)`: per round, side `num`'s
/// seconds over side `den`'s, so a throughput ratio "a/b" is b's time
/// over a's.
type Ratio = (&'static str, usize, usize, Bound);

/// One guard stage: its corridor scale, the sides it times, the ratios
/// it gates, and whether a breach is re-measured once before it fails.
struct Stage {
    name: &'static str,
    scale: f64,
    sides: &'static [&'static str],
    ratios: &'static [Ratio],
    rerun: bool,
}

const FRONT_END: Stage = Stage {
    name: "front_end",
    scale: 0.1,
    sides: &["scalar_dda", "packet"],
    ratios: &[("packet/scalar_dda", 0, 1, Bound::Floor(1.0))],
    rerun: false,
};
const SHARDED: Stage = Stage {
    name: "sharded",
    scale: 0.02,
    sides: &["sharded_1", "sharded_8"],
    ratios: &[("sharded_8/sharded_1", 0, 1, Bound::Floor(0.93))],
    rerun: false,
};
const SNAPSHOT: Stage = Stage {
    name: "snapshot",
    scale: 0.1,
    sides: &["direct", "snapshot"],
    ratios: &[("snapshot/direct", 0, 1, Bound::Floor(0.9))],
    rerun: true,
};
const DURABILITY: Stage = Stage {
    name: "durability",
    scale: 0.1,
    sides: &["wal_off", "wal_on", "ckpt_on"],
    ratios: &[
        ("wal_on/wal_off", 1, 0, Bound::Ceiling(1.10)),
        ("ckpt_on/wal_on", 2, 1, Bound::Ceiling(1.10)),
    ],
    rerun: true,
};

/// One measurement of a stage: each side's seconds per round, and each
/// gated ratio's per-round values and median.
struct Measured {
    secs: Vec<Vec<f64>>,
    ratios: Vec<(Vec<f64>, f64)>,
}

impl Measured {
    fn breaches(&self, stage: &Stage) -> usize {
        let judged = stage.ratios.iter().zip(&self.ratios);
        judged
            .filter(|((.., bound), (_, m))| !bound.holds(*m))
            .count()
    }
}

/// The pairing, median and verdict logic behind every guard.
/// `time(side)` runs one side once and returns its seconds and output.
/// Round `r` runs every side once, from side `r % n` on, and asserts
/// that all sides produced equal output. A ratio is the median of its
/// per-round values. A stage with `rerun` measures once more when a
/// ratio breaches, and the second measurement stands. Returns the
/// standing measurement and the number taken.
fn judge<O: PartialEq>(
    stage: &Stage,
    mut time: impl FnMut(usize) -> (f64, O),
) -> (Measured, usize) {
    let n = stage.sides.len();
    let mut measure = || {
        let mut secs = vec![Vec::with_capacity(ROUNDS); n];
        for round in 0..ROUNDS {
            let mut outputs: Vec<Option<O>> = (0..n).map(|_| None).collect();
            for side in (0..n).map(|i| (round + i) % n) {
                let (s, out) = time(side);
                secs[side].push(s);
                outputs[side] = Some(out);
            }
            assert!(
                outputs.windows(2).all(|w| w[0] == w[1]),
                "{}: round {round}: the sides {:?} produced different output",
                stage.name,
                stage.sides
            );
        }
        let ratios = stage.ratios.iter().map(|&(_, num, den, _)| {
            let per_round: Vec<f64> = (0..ROUNDS).map(|r| secs[num][r] / secs[den][r]).collect();
            let m = median(&per_round);
            (per_round, m)
        });
        let ratios = ratios.collect();
        Measured { secs, ratios }
    };
    let first = measure();
    if stage.rerun && first.breaches(stage) > 0 {
        let medians: Vec<f64> = first.ratios.iter().map(|&(_, m)| m).collect();
        eprintln!(
            "{}: medians {medians:.3?} out of bounds; re-measuring once",
            stage.name
        );
        (measure(), 2)
    } else {
        (first, 1)
    }
}

/// The median of `xs` (upper median for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_unstable_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Seconds taken by `run`, and its result.
fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = run();
    (start.elapsed().as_secs_f64(), out)
}

/// The corridor scans at `scale`, and an empty raywise tree for them.
fn corridor(scale: f64) -> (Vec<Scan>, impl Fn() -> OctreeF32) {
    let dataset = DatasetKind::Fr079Corridor.build_scaled(scale);
    let spec = *dataset.spec();
    let scans: Vec<Scan> = dataset.scans().collect();
    eprintln!("corridor @ scale {scale}: {} scans", scans.len());
    let fresh_tree = move || {
        let mut t = OctreeF32::new(spec.resolution).expect("valid resolution");
        t.set_integration_mode(IntegrationMode::Raywise);
        t.set_max_range(Some(spec.max_range));
        t
    };
    (scans, fresh_tree)
}

fn integrator(tree: &OctreeF32, front_end: FrontEnd) -> ScanIntegrator {
    let mode = IntegrationMode::Raywise;
    ScanIntegrator::with_front_end(*tree.converter(), tree.max_range(), mode, front_end)
}

fn front_end() -> (Measured, usize) {
    let (scans, fresh_tree) = corridor(FRONT_END.scale);
    let mut sides =
        [FrontEnd::Scalar, FrontEnd::Packet].map(|fe| (integrator(&fresh_tree(), fe), Vec::new()));
    judge(&FRONT_END, |side| {
        let (it, out) = &mut sides[side];
        out.clear();
        let (secs, ()) = timed(|| {
            for s in &scans {
                it.integrate_into(s, out).expect("in-map scan");
            }
        });
        (secs, out.clone())
    })
}

fn sharded() -> (Measured, usize) {
    let (scans, fresh_tree) = corridor(SHARDED.scale);
    let mut it = integrator(&fresh_tree(), FrontEnd::Packet);
    let batches: Vec<Vec<VoxelUpdate>> = scans
        .iter()
        .map(|s| {
            let mut v = Vec::new();
            it.integrate_into(s, &mut v).expect("in-map scan");
            v
        })
        .collect();
    judge(&SHARDED, |side| {
        let (secs, tree) = timed(|| {
            let mut tree = fresh_tree();
            for batch in &batches {
                tree.apply_update_batch_parallel(batch, [1, 8][side])
                    .expect("no worker panics");
            }
            tree
        });
        (secs, tree.to_bytes())
    })
}

fn snapshot() -> (Measured, usize) {
    let (scans, fresh_tree) = corridor(SNAPSHOT.scale);
    let mut tree = fresh_tree();
    for scan in &scans {
        tree.insert_points(scan.origin, scan.cloud.points(), 1)
            .expect("in-map scan");
    }
    // Uniform probes over the mapped bounding box: collision checks
    // arrive unsorted.
    let (lo, hi) = tree
        .snapshot()
        .iter()
        .fold((u16::MAX, 0), |(lo, hi), &(k, _, _)| {
            (lo.min(k.x).min(k.y).min(k.z), hi.max(k.x).max(k.y).max(k.z))
        });
    let mut rng = StdRng::seed_from_u64(0x51AB);
    let mut coord = || rng.random_range(lo..=hi);
    let keys: Vec<VoxelKey> = (0..PROBE_KEYS)
        .map(|_| VoxelKey::new(coord(), coord(), coord()))
        .collect();
    let snap = tree.publish_snapshot();
    let occupied = |occupancy: &dyn Fn(VoxelKey) -> Occupancy| {
        timed(|| {
            let probes = (0..READ_REPS).flat_map(|_| &keys);
            probes
                .filter(|&&k| occupancy(k) == Occupancy::Occupied)
                .count()
        })
    };
    judge(&SNAPSHOT, |side| match side {
        0 => occupied(&|k| tree.occupancy(k)),
        _ => occupied(&|k| snap.occupancy(k)),
    })
}

fn durability() -> (Measured, usize) {
    let (scans, fresh_tree) = corridor(DURABILITY.scale);
    let resolution = fresh_tree().resolution();
    let dir = std::env::temp_dir().join(format!("omu_bench_guards_{}", std::process::id()));
    let policies = [
        None,
        Some(DurabilityPolicy::Manual),
        Some(DurabilityPolicy::EveryNEpochs(1)),
    ];
    judge(&DURABILITY, |side| {
        let _ = std::fs::remove_dir_all(&dir);
        let mut builder = MapBuilder::new(resolution);
        if let Some(policy) = policies[side] {
            builder = builder.durability(&dir, policy);
        }
        let service = MapService::spawn(builder).expect("service spawns");
        // From the first ingest to a completed shutdown: the flush, the
        // WAL sync and the durable thread's join all count.
        let (secs, last) = timed(|| {
            for scan in &scans {
                service.ingest(scan.clone()).expect("ingest");
            }
            let last = service.flush().expect("drain writer");
            service.shutdown().expect("clean shutdown");
            last
        });
        let checkpoints = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|entry| {
                let name = entry.file_name().to_string_lossy().into_owned();
                name.starts_with("ckpt-") && name.ends_with(".omut")
            })
            .count();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            checkpoints > 0 || !matches!(policies[side], Some(DurabilityPolicy::EveryNEpochs(_))),
            "durability: a ckpt_on run left no checkpoint file"
        );
        (secs, last.to_bytes())
    })
}

fn stage_json(stage: &Stage, measured: &Measured, measurements: usize) -> String {
    let sides = stage.sides.iter().zip(&measured.secs);
    let sides: Vec<String> = sides
        .map(|(side, s)| format!("\"{side}\": {:.6}", median(s)))
        .collect();
    let ratios = stage.ratios.iter().zip(&measured.ratios).map(|(&(name, _, _, bound), (rounds, m))| {
        let (kind, b) = match bound {
            Bound::Floor(b) => ("floor", b),
            Bound::Ceiling(b) => ("ceiling", b),
        };
        let holds = bound.holds(*m);
        format!("        {{ \"ratio\": \"{name}\", \"{kind}\": {b}, \"median\": {m:.4}, \"holds\": {holds}, \"rounds\": {rounds:.4?} }}")
    });
    let ratios = ratios.collect::<Vec<_>>().join(",\n");
    let (name, scale) = (stage.name, stage.scale);
    format!(
        "    {{\n      \"stage\": \"{name}\",\n      \"scale\": {scale},\n      \"measurements\": {measurements},\n      \
         \"median_seconds\": {{ {} }},\n      \"ratios\": [\n{ratios}\n      ]\n    }}",
        sides.join(", ")
    )
}

fn main() {
    let runs: [fn() -> (Measured, usize); 4] = [front_end, sharded, snapshot, durability];
    let mut breaches = 0;
    let mut entries = Vec::new();
    for (stage, run) in [&FRONT_END, &SHARDED, &SNAPSHOT, &DURABILITY]
        .into_iter()
        .zip(runs)
    {
        let (measured, measurements) = run();
        for (&(name, _, _, bound), (_, m)) in stage.ratios.iter().zip(&measured.ratios) {
            let verdict = if bound.holds(*m) { "ok" } else { "BREACH" };
            eprintln!(
                "{:<10} {name:<20} {m:.3}x  ({bound:?}, median of {ROUNDS})  {verdict}",
                stage.name
            );
        }
        breaches += measured.breaches(stage);
        entries.push(stage_json(stage, &measured, measurements));
    }
    let json = format!(
        "{{\n  \"bench\": \"guards\",\n  \"dataset\": \"{}\",\n  \"rounds\": {ROUNDS},\n  \
         \"breaches\": {breaches},\n  \"stages\": [\n{}\n  ]\n}}\n",
        DatasetKind::Fr079Corridor.name(),
        entries.join(",\n"),
    );
    std::fs::write("BENCH_guards.json", &json).expect("write BENCH_guards.json");
    println!("{json}");
    if breaches > 0 {
        eprintln!("{breaches} guarded ratio(s) breached their bound");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `judge` on synthetic timings: side `s` of round `r` (counted
    /// across a re-run) takes `secs(r, s)`. Returns the standing
    /// measurement, the number taken and the order the sides ran in.
    fn judge_synthetic(
        stage: &Stage,
        secs: impl Fn(usize, usize) -> f64,
    ) -> (Measured, usize, Vec<usize>) {
        let mut order = Vec::new();
        let (measured, taken) = judge(stage, |side| {
            let round = order.len() / stage.sides.len();
            order.push(side);
            (secs(round, side), ())
        });
        (measured, taken, order)
    }

    #[test]
    fn a_median_outside_its_bound_fails() {
        // 8 shards 10 % slower in a bare majority of rounds: the fast
        // rest cannot lift the median over the 0.93 floor.
        let slow = |round, side| match side {
            1 if round <= ROUNDS / 2 => 1.1,
            1 => 0.5,
            _ => 1.0,
        };
        let (m, _, _) = judge_synthetic(&SHARDED, slow);
        assert!((m.ratios[0].1 - 1.0 / 1.1).abs() < 1e-12);
        assert_eq!(m.breaches(&SHARDED), 1);
        let (m, _, _) = judge_synthetic(&SHARDED, |_, side| [1.0, 1.05][side]);
        assert_eq!(m.breaches(&SHARDED), 0, "0.952 holds the 0.93 floor");
        // WAL on 20 % slower than off; checkpoints add nothing on top.
        let (m, _, _) = judge_synthetic(&DURABILITY, |_, side| [1.0, 1.2, 1.2][side]);
        assert!((m.ratios[0].1 - 1.2).abs() < 1e-12 && (m.ratios[1].1 - 1.0).abs() < 1e-12);
        assert_eq!(m.breaches(&DURABILITY), 1);
        let (m, _, _) = judge_synthetic(&DURABILITY, |_, side| [1.0, 1.05, 1.1][side]);
        assert_eq!(m.breaches(&DURABILITY), 0);
    }

    #[test]
    fn only_the_snapshot_and_durability_guards_re_run() {
        // Side 1 is twice as slow in the first measurement only, which
        // breaches every stage's first measurement.
        let slow_first = |round, side| {
            if side == 1 && round < ROUNDS {
                2.0
            } else {
                1.0
            }
        };
        for (stage, rerun) in [
            (&FRONT_END, false),
            (&SHARDED, false),
            (&SNAPSHOT, true),
            (&DURABILITY, true),
        ] {
            assert_eq!(stage.rerun, rerun, "{}", stage.name);
            let (m, taken, order) = judge_synthetic(stage, slow_first);
            let runs = order.len() / (ROUNDS * stage.sides.len());
            // A re-run's passing measurement stands.
            let expect = if rerun { (2, 2, 0) } else { (1, 1, 1) };
            assert_eq!((taken, runs, m.breaches(stage)), expect, "{}", stage.name);
        }
        let (_, taken, _) = judge_synthetic(&SNAPSHOT, |_, _| 1.0);
        assert_eq!(taken, 1, "a passing measurement is not repeated");
    }

    #[test]
    fn the_side_order_rotates_every_round() {
        let (_, _, order) = judge_synthetic(&SNAPSHOT, |_, _| 1.0);
        let alternating: Vec<usize> = (0..ROUNDS).flat_map(|r| [r % 2, 1 - r % 2]).collect();
        assert_eq!(order, alternating);
        let (_, _, order) = judge_synthetic(&DURABILITY, |_, _| 1.0);
        assert_eq!(order[..9], [0, 1, 2, 1, 2, 0, 2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "produced different output")]
    fn sides_that_disagree_fail_the_round() {
        judge(&FRONT_END, |side| (1.0, side));
    }
}
