//! One pass of a workload through a durable `MapService`: setup, the
//! main phase under the planner, crash prep, and timed recoveries.
//!
//! With a tracer the same pass runs on a timing `DurableDir` and records
//! a span around every service call; without one it runs on `RealDir`
//! through `MapBuilder::durability` and `MapService::recover`, the
//! production path, and records nothing.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use omu_geometry::{Point3, Scan, VoxelKey};
use omu_map::{MapService, MapSnapshot, RecoveryReport};

use crate::inputs::Inputs;
use crate::planner::Planner;
use crate::stats::{reset_peak_rss, rss_bytes};
use crate::trace::{span, TimedDir, Tracer};
use crate::workload::{Feed, Plan, RECOVERIES, RECOVERY_SPACING};

/// A canonical leaf list, the map-equality format.
pub type Leaves = Vec<(VoxelKey, u8, f32)>;

/// The main phase starts this long after the planner is started, so the
/// planner thread is up before its first tick.
const PHASE_LEAD: Duration = Duration::from_millis(20);

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Seconds from spawn to the last warm-up ack, one per setup.
    pub setup_s: Vec<f64>,
    /// Milliseconds from each main-phase scan's due time to the flush
    /// ack that made it visible.
    pub visible_ms: Vec<f64>,
    /// How late the generator sent each main-phase scan, ms.
    pub gen_late_ms: Vec<f64>,
    /// Main-phase scans ÷ seconds from the first scan's due time to the
    /// last ack.
    pub ingest_fps: f64,
    /// Planner tick latencies, µs.
    pub tick_us: Vec<f64>,
    /// Seconds per `MapService::recover` call.
    pub recover_s: Vec<f64>,
    /// Peak RSS over the pass minus RSS after input generation, MiB.
    pub mem_peak_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks.
    pub mismatches: Vec<String>,
    /// The last acked snapshot's leaves.
    pub last_leaves: Leaves,
    /// Batches the last recovery replayed.
    pub replayed_batches: u64,
    /// Main-phase window on the tracer's clock (traced passes only).
    pub main_window_ns: (u64, u64),
    /// Largest `rows_awaiting_reclaim` seen after a main-phase ack
    /// (traced passes only).
    pub rows_awaiting_reclaim_max: u64,
    /// Main-phase scans ÷ main-phase publishes.
    pub scans_per_publish: f64,
}

/// Runs one pass. `work` is an empty scratch directory it may fill.
pub fn run(
    plan: &Plan,
    inputs: Inputs,
    seed: u64,
    work: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<PassResult, String> {
    let Inputs {
        warmups,
        main,
        tail,
    } = inputs;
    let (rss_after_gen, _) = rss_bytes().map_err(|e| format!("read RSS: {e}"))?;
    reset_peak_rss().map_err(|e| format!("reset peak RSS: {e}"))?;
    let mut pass = Pass {
        plan,
        tracer,
        out: PassResult::default(),
    };
    let (service, dir, pose) = pass.setup(warmups, work)?;
    let service = Arc::new(service);
    pass.main_phase(&service, main, pose, seed)?;

    // Crash prep: checkpoint, a fixed tail acked scan by scan, drop.
    let checkpointed = span(pass.t(), "service.checkpoint", 0, None, || {
        service.checkpoint()
    });
    pass.note(checkpointed.is_ok() && service.health().is_healthy());
    let mut last = None;
    let first_tail = (
        plan.warmup + plan.main_scans(),
        plan.batches().len() - plan.tail,
    );
    for (i, scan) in tail.into_iter().enumerate() {
        last = pass.send_and_ack(&service, scan, (first_tail.0 + i, first_tail.1 + i));
    }
    drop(Arc::into_inner(service).ok_or("the planner still holds the service")?);
    match last {
        Some(snap) => pass.out.last_leaves = snap.canonical_leaves(),
        None => pass.fail("the last tail scan was not acked".to_owned()),
    }

    pass.recover(&dir, work)?;
    let _ = fs::remove_dir_all(&dir);
    let (_, peak) = rss_bytes().map_err(|e| format!("read RSS: {e}"))?;
    pass.out.mem_peak_mb = peak.saturating_sub(rss_after_gen) as f64 / (1024.0 * 1024.0);
    Ok(pass.out)
}

/// The state of a pass in progress.
struct Pass<'a> {
    plan: &'a Plan,
    tracer: Option<&'a Arc<Tracer>>,
    out: PassResult,
}

impl Pass<'_> {
    fn t(&self) -> Option<&Tracer> {
        self.tracer.map(|t| &**t)
    }

    /// Counts one operation; returns `ok`.
    fn note(&mut self, ok: bool) -> bool {
        self.out.attempted += 1;
        self.out.failed += u64::from(!ok);
        ok
    }

    /// Records a failed correctness check.
    fn fail(&mut self, why: String) {
        self.out.mismatches.push(why);
    }

    /// Sends scan `scan_id` and waits for the flush ack of writer batch
    /// `batch_id`. Returns the acked snapshot, or `None` when the ingest,
    /// the flush or the service health failed.
    fn send_and_ack(
        &mut self,
        service: &MapService,
        scan: Scan,
        (scan_id, batch_id): (usize, usize),
    ) -> Option<MapSnapshot> {
        let sent = span(self.t(), "service.ingest", scan_id as u64, None, || {
            service.ingest(scan)
        });
        let sent = self.note(sent.is_ok());
        let flushed = span(self.t(), "service.flush", batch_id as u64, None, || {
            service.flush()
        });
        let acked = flushed
            .ok()
            .filter(|_| sent && service.health().is_healthy());
        self.note(acked.is_some());
        acked
    }

    /// After a main-phase ack on a traced pass, samples how many retired
    /// rows wait for reclamation.
    fn sample_reclaim(&mut self, service: &MapService) {
        if self.tracer.is_some() {
            let waiting = service.service_stats().snapshot.rows_awaiting_reclaim;
            self.out.rows_awaiting_reclaim_max = self.out.rows_awaiting_reclaim_max.max(waiting);
        }
    }

    /// Setup, once per warm-up copy: spawn a durable service in a fresh
    /// directory and ack the warm-up prefix scan by scan. Returns the
    /// last service, its directory and the last warm-up origin.
    fn setup(
        &mut self,
        warmups: Vec<Vec<Scan>>,
        work: &Path,
    ) -> Result<(MapService, PathBuf, Point3), String> {
        let (plan, setups) = (self.plan, warmups.len());
        let mut live = None;
        for (k, warmup) in warmups.into_iter().enumerate() {
            let dir = work.join(format!("setup-{k}"));
            let builder = match self.tracer {
                Some(t) => {
                    let store = TimedDir::create(dir.clone(), Arc::clone(t))
                        .map_err(|e| format!("create {}: {e}", dir.display()))?;
                    plan.builder()
                        .durability_store(Arc::new(store), plan.policy)
                }
                None => plan.builder().durability(&dir, plan.policy),
            };
            let start = Instant::now();
            let service = span(self.t(), "service.spawn", k as u64, None, || {
                MapService::spawn(builder)
            })
            .map_err(|e| format!("spawn: {e}"))?;
            let mut pose = None;
            for (i, scan) in warmup.into_iter().enumerate() {
                pose = Some(scan.origin);
                self.send_and_ack(&service, scan, (i, i));
            }
            self.out.setup_s.push(start.elapsed().as_secs_f64());
            if k + 1 < setups {
                service.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                let _ = fs::remove_dir_all(&dir);
            } else {
                let pose = pose.ok_or("the warm-up prefix is empty")?;
                live = Some((service, dir, pose));
            }
        }
        live.ok_or_else(|| "the plan has no setup".to_owned())
    }

    /// The main phase: feeds `main` while the planner ticks.
    fn main_phase(
        &mut self,
        service: &Arc<MapService>,
        main: Vec<Scan>,
        pose: Point3,
        seed: u64,
    ) -> Result<(), String> {
        let pose = Arc::new(Mutex::new(pose));
        let stats_before = service.service_stats();
        let phase = Instant::now() + PHASE_LEAD;
        let planner = Planner::start(
            Arc::clone(service),
            Arc::clone(&pose),
            phase,
            seed,
            self.tracer.cloned(),
        );
        self.out.main_window_ns.0 = self.t().map_or(0, Tracer::now_ns);
        let scans = main.len();
        let busy = match self.plan.feed {
            Feed::Stream { period, .. } => self.stream(service, main, &pose, phase, period),
            Feed::Backlog { .. } => self.backlog(service, main, phase)?,
        };
        let report = planner.stop()?;
        self.out.main_window_ns.1 = self.t().map_or(0, Tracer::now_ns);
        let stats_after = service.service_stats();
        let publishes = stats_after.publishes - stats_before.publishes;
        if matches!(self.plan.feed, Feed::Backlog { .. }) && publishes != 1 {
            self.fail(format!(
                "the backlog was drained in {publishes} publishes, not one"
            ));
        }
        self.out.ingest_fps = scans as f64 / busy.as_secs_f64().max(f64::MIN_POSITIVE);
        self.out.scans_per_publish = (stats_after.scans_ingested - stats_before.scans_ingested)
            as f64
            / publishes.max(1) as f64;
        self.out.attempted += report.tick_us.len() as u64;
        self.out.failed += report.failed;
        self.out.tick_us = report.tick_us;
        Ok(())
    }

    /// Open loop, one scan in flight: scan `i` is due at
    /// `phase + i × period`. Returns the time from the first due time to
    /// the last ack.
    fn stream(
        &mut self,
        service: &MapService,
        main: Vec<Scan>,
        pose: &Mutex<Point3>,
        phase: Instant,
        period: Duration,
    ) -> Duration {
        let mut busy = Duration::ZERO;
        for (i, scan) in main.into_iter().enumerate() {
            let due = phase + period * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.out.gen_late_ms.push(ms(due.elapsed()));
            *pose.lock().expect("pose mutex poisoned") = scan.origin;
            let id = self.plan.warmup + i;
            self.send_and_ack(service, scan, (id, id));
            self.out.visible_ms.push(ms(due.elapsed()));
            busy = phase.elapsed();
            self.sample_reclaim(service);
        }
        busy
    }

    /// One backlog, queued while the writer is parked so it drains the
    /// whole backlog as one batch (otherwise the writer may wake after the
    /// first scan and split it in a timing-dependent way). The writer is
    /// told to park before the phase lead, so it parks alone, with an
    /// empty queue, long before the first scan is sent; `main_phase`
    /// checks that the backlog cost exactly one publish. Every scan is
    /// due when the backlog is queued. The planner's pose stays at the
    /// warm-up origin, inside the published map. Returns the drain time.
    fn backlog(
        &mut self,
        service: &MapService,
        main: Vec<Scan>,
        phase: Instant,
    ) -> Result<Duration, String> {
        let gate = service
            .debug_stall_writer()
            .map_err(|e| format!("park writer: {e}"))?;
        if let Some(wait) = phase.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let n = main.len();
        let due = Instant::now();
        let mut sent = true;
        for (i, scan) in main.into_iter().enumerate() {
            let id = (self.plan.warmup + i) as u64;
            let ok = span(self.t(), "service.ingest", id, None, || {
                service.ingest(scan)
            });
            sent &= self.note(ok.is_ok());
        }
        drop(gate);
        let batch = self.plan.warmup as u64;
        let flushed = span(self.t(), "service.flush", batch, None, || service.flush());
        self.note(flushed.is_ok() && sent && service.health().is_healthy());
        let drained = due.elapsed();
        self.out
            .visible_ms
            .extend(std::iter::repeat_n(ms(drained), n));
        self.out.gen_late_ms.extend(std::iter::repeat_n(0.0, n));
        self.sample_reclaim(service);
        Ok(drained)
    }

    /// Recovers `RECOVERIES` times, `RECOVERY_SPACING` apart, each from a
    /// byte-identical copy of the crashed directory `dir`, and checks
    /// every result.
    fn recover(&mut self, dir: &Path, work: &Path) -> Result<(), String> {
        let plan = self.plan;
        let copies: Vec<PathBuf> = (0..RECOVERIES)
            .map(|r| copy_dir(dir, &work.join(format!("recover-{r}"))))
            .collect::<Result<_, _>>()?;
        let first = Instant::now();
        for (r, copy) in copies.iter().enumerate() {
            let due = first + RECOVERY_SPACING * r as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let builder = plan.builder().durability(copy, plan.policy);
            let start = Instant::now();
            let recovered = match self.tracer {
                Some(t) => t.time("recover.recover", r as u64, None, || {
                    let store = TimedDir::create(copy.clone(), Arc::clone(t))?;
                    MapService::recover_with_store(Arc::new(store), builder).map_err(io_error)
                }),
                None => MapService::recover(copy, builder).map_err(io_error),
            };
            let secs = start.elapsed().as_secs_f64();
            match recovered {
                Ok((service, report)) => {
                    self.out.recover_s.push(secs);
                    self.check_recovery(&service, &report);
                    self.note(!report.truncated_tail && service.health().is_healthy());
                    self.out.replayed_batches = report.replayed_batches;
                    if let Err(e) = service.shutdown() {
                        self.fail(format!("recovered service shutdown: {e}"));
                    }
                }
                Err(e) => {
                    self.note(false);
                    eprintln!("recovery {r} failed: {e}");
                }
            }
            let _ = fs::remove_dir_all(copy);
        }
        if self.out.recover_s.len() < RECOVERIES {
            self.fail(format!(
                "only {} of {RECOVERIES} recoveries succeeded",
                self.out.recover_s.len()
            ));
        }
        Ok(())
    }

    /// The correctness checks on one recovered service.
    fn check_recovery(&mut self, service: &MapService, report: &RecoveryReport) {
        let tail = self.plan.tail as u64;
        if report.replayed_batches != tail {
            self.fail(format!(
                "recovery replayed {} batches, the tail has {tail}",
                report.replayed_batches
            ));
        }
        if !service.health().is_healthy() {
            self.fail(format!("recovered health: {:?}", service.health()));
        }
        if service.snapshot().canonical_leaves() != self.out.last_leaves {
            self.fail("recovered leaves differ from the last acked snapshot".to_owned());
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn io_error(e: omu_map::MapError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Copies every file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<PathBuf, String> {
    let fail = |e: std::io::Error| format!("copy {} to {}: {e}", from.display(), to.display());
    fs::create_dir_all(to).map_err(fail)?;
    for entry in fs::read_dir(from).map_err(fail)? {
        let entry = entry.map_err(fail)?;
        fs::copy(entry.path(), to.join(entry.file_name())).map_err(fail)?;
    }
    Ok(to.to_path_buf())
}
