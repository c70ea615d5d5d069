//! The planner: a closed-loop reader on one harness thread.
//!
//! Every 10 ms a tick grabs a snapshot and runs one occupancy batch
//! around the robot's latest pose, a fan of `cast_rays` and a few
//! `collides_sphere` probes. Ticks fall on a fixed grid that starts at a
//! given instant, so their phase against the scan clock is the same in
//! every run; a tick that overruns its slot skips the slots it missed
//! instead of bunching ticks up. The thread is a pool service thread;
//! the latest pose comes in through a mutex and the stop signal through
//! a channel.

use std::f64::consts::TAU;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use omu_geometry::Point3;
use omu_map::MapService;
use omu_pool::{spawn_service, ServiceThread};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{span, Tracer};

/// Points in a tick's occupancy batch (a box around the pose).
const BATCH_POINTS: usize = 8192;
/// Rays in a tick's `cast_rays` fan.
const FAN_RAYS: usize = 128;
/// `collides_sphere` probes per tick.
const SPHERES: usize = 8;
/// Half-extent of the occupancy box, metres (z is a third of it).
const BOX_HALF: f64 = 4.0;
/// Range of the ray fan, metres.
const FAN_RANGE: f64 = 6.0;
/// Radius of a collision probe, metres.
const SPHERE_RADIUS: f64 = 0.4;
/// Tick period of the closed loop, a 20th of the corridor scan period,
/// so every scan meets the ticks at the same phase.
const TICK: Duration = Duration::from_millis(10);
/// Phase against the scan clock: ticks start half a tick after the first
/// main-phase scan is due, so no tick starts together with a scan and
/// the overlap of ticks with the writer does not depend on thread
/// start-up timing.
const TICK_OFFSET: Duration = Duration::from_millis(5);

/// What the planner saw over its run.
#[derive(Debug, Default)]
pub struct PlannerReport {
    /// Tick latencies in microseconds, start to return.
    pub tick_us: Vec<f64>,
    /// Ticks in which a query returned an error.
    pub failed: u64,
}

/// A running planner.
pub struct Planner {
    thread: ServiceThread,
    stop: mpsc::Sender<()>,
    report: mpsc::Receiver<PlannerReport>,
}

impl Planner {
    /// Starts ticking against `service` around the pose in `pose`, on a
    /// grid anchored at `phase`, the due time of the first main-phase
    /// scan.
    pub fn start(
        service: Arc<MapService>,
        pose: Arc<Mutex<Point3>>,
        phase: Instant,
        seed: u64,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let (stop, stopped) = mpsc::channel();
        let (report_tx, report) = mpsc::channel();
        let thread = spawn_service("planner", move || {
            let report = run(
                &service,
                &pose,
                phase + TICK_OFFSET,
                seed,
                tracer.as_deref(),
                &stopped,
            );
            let _ = report_tx.send(report);
        });
        Planner {
            thread,
            stop,
            report,
        }
    }

    /// Stops the loop, waits for the thread and returns its report.
    pub fn stop(self) -> Result<PlannerReport, String> {
        let _ = self.stop.send(());
        self.thread
            .join()
            .map_err(|p| format!("planner thread panicked: {p}"))?;
        self.report
            .recv()
            .map_err(|_| "planner sent no report".to_owned())
    }
}

fn run(
    service: &MapService,
    pose: &Mutex<Point3>,
    first: Instant,
    seed: u64,
    tracer: Option<&Tracer>,
    stopped: &mpsc::Receiver<()>,
) -> PlannerReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x091A_77E4);
    let mut report = PlannerReport::default();
    let mut offsets = vec![Point3::ZERO; BATCH_POINTS];
    let mut points = vec![Point3::ZERO; BATCH_POINTS];
    let mut rays = vec![(Point3::ZERO, Point3::ZERO); FAN_RAYS];
    let mut spheres = [Point3::ZERO; SPHERES];
    let mut next = first;
    for tick in 0u64.. {
        let wait = next.saturating_duration_since(Instant::now());
        match stopped.recv_timeout(wait) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
        }
        // Draw this tick's query pattern before the clock starts.
        for o in offsets.iter_mut() {
            *o = Point3::new(
                rng.random_range(-BOX_HALF..BOX_HALF),
                rng.random_range(-BOX_HALF..BOX_HALF),
                rng.random_range(-BOX_HALF / 3.0..BOX_HALF / 3.0),
            );
        }
        let yaw0 = rng.random::<f64>() * TAU;
        for s in spheres.iter_mut() {
            *s = Point3::new(
                rng.random_range(-2.0..2.0),
                rng.random_range(-2.0..2.0),
                rng.random_range(-0.5..0.5),
            );
        }
        let at = *pose.lock().expect("pose mutex poisoned");

        let start = Instant::now();
        let tick_span = tracer.map(|t| t.open("planner.tick", tick, None));
        let snap = span(tracer, "query.snapshot_grab", tick, tick_span, || {
            service.snapshot()
        });
        for (p, o) in points.iter_mut().zip(&offsets) {
            *p = at + *o;
        }
        for (j, r) in rays.iter_mut().enumerate() {
            let a = yaw0 + TAU * j as f64 / FAN_RAYS as f64;
            *r = (
                at,
                Point3::new(a.cos(), a.sin(), 0.1 * (j % 3) as f64 - 0.1),
            );
        }
        let mut ok = span(tracer, "query.occupancy_batch", tick, tick_span, || {
            snap.occupancy_batch(&points)
        })
        .is_ok_and(|occ| occ.len() == BATCH_POINTS);
        ok &= span(tracer, "query.cast_rays", tick, tick_span, || {
            snap.cast_rays(&rays, FAN_RANGE, true)
        })
        .is_ok_and(|hits| hits.len() == FAN_RAYS);
        for s in &spheres {
            ok &= span(tracer, "query.collides_sphere", tick, tick_span, || {
                snap.collides_sphere(at + *s, SPHERE_RADIUS)
            })
            .is_ok();
        }
        if let (Some(t), Some(span)) = (tracer, tick_span) {
            t.close(span);
        }
        report.tick_us.push(start.elapsed().as_secs_f64() * 1e6);
        report.failed += u64::from(!ok);
        let now = Instant::now();
        while next <= now {
            next += TICK;
        }
    }
    report
}
