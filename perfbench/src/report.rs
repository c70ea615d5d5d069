//! Turning pass results and spans into named metrics, and printing them.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;

use crate::replica::{batch_scans, SplitCounts, WriterCounts};
use crate::service_pass::PassResult;
use crate::stats::{median, quantile};
use crate::trace::{self, Span};
use crate::workload::Plan;

const MIB: f64 = 1024.0 * 1024.0;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes (1 for a count or ratio).
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// `q`-quantile of `samples` as a metric. With no samples the value is
/// NaN, which `Report::correct` rejects, so a phase that measured
/// nothing cannot read as a fast one.
fn quantile_metric(name: &'static str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
    metric(
        name,
        unit,
        quantile(samples, q).unwrap_or(f64::NAN),
        samples.len(),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of one untraced pass.
///
/// The host switches between a fast and a slow state for seconds at a
/// time, so a median of per-scan or per-tick latencies flips between the
/// two from run to run. Nearly every run measured spent at least a tenth
/// of its main phase in the fast state, so the 10th percentile is the
/// steadier measure of the program's own path and the 90th its tail;
/// `recover_s` is the fastest of recoveries spread over 15 s for the
/// same reason.
/// The medians are printed by the traced run. Measurements are in
/// `perfbench/README.md`.
pub fn end_to_end(pass: &PassResult) -> Vec<Metric> {
    let ok = ratio((pass.attempted - pass.failed) as f64, pass.attempted as f64);
    vec![
        quantile_metric("setup_s", "s", &pass.setup_s, 0.5),
        quantile_metric("visible_p10_ms", "ms", &pass.visible_ms, 0.1),
        quantile_metric("visible_p90_ms", "ms", &pass.visible_ms, 0.9),
        metric(
            "ingest_fps",
            "scans/s",
            pass.ingest_fps,
            pass.visible_ms.len(),
        ),
        quantile_metric("read_p10_us", "us", &pass.tick_us, 0.1),
        quantile_metric("read_p90_us", "us", &pass.tick_us, 0.9),
        quantile_metric("recover_s", "s", &pass.recover_s, 0.0),
        metric("mem_peak_mb", "MiB", pass.mem_peak_mb, 1),
        metric("ok_frac", "ratio", ok, pass.attempted as usize),
    ]
}

/// Durations in `unit_scale` units of spans `name` whose id is in `ids`.
fn by_id(spans: &[Span], name: &str, ids: &Range<usize>, unit_scale: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && ids.contains(&(s.id as usize)))
        .map(|s| s.dur_ns() as f64 / unit_scale)
        .collect()
}

/// Spans `name` that started inside `window`.
fn in_window<'a>(spans: &'a [Span], name: &'a str, window: (u64, u64)) -> Vec<&'a Span> {
    spans
        .iter()
        .filter(|s| s.name == name && (window.0..=window.1).contains(&s.start_ns))
        .collect()
}

/// The per-layer metrics of a traced run. `base` is the untraced pass
/// of the same invocation, `traced` the traced one.
pub fn per_layer(
    plan: &Plan,
    base: &PassResult,
    traced: &PassResult,
    writer: &WriterCounts,
    split: &SplitCounts,
    spans: &[Span],
) -> Vec<Metric> {
    const MS: f64 = 1e6;
    const US: f64 = 1e3;
    let (main_batches, scans_of) = batch_scans(plan);
    let main_scans = plan.warmup..plan.warmup + plan.main_scans();
    let n = plan.main_scans() as f64;
    let nb = main_batches.len();
    let ns = main_scans.len();
    let med_id = |name, ids: &Range<usize>, scale| median(&by_id(spans, name, ids, scale));

    // Flush wait minus the replica's insert, change drain and publish,
    // batch by batch.
    let stages = [
        "service.flush",
        "octree.insert",
        "snapshot.change_drain",
        "snapshot.publish",
    ];
    let stage: HashMap<(&str, u64), f64> = spans
        .iter()
        .filter(|s| stages.contains(&s.name))
        .map(|s| ((s.name, s.id), s.dur_ns() as f64 / MS))
        .collect();
    let stage_ms = |name, id: usize| stage.get(&(name, id as u64)).copied().unwrap_or(0.0);
    let unattributed: Vec<f64> = main_batches
        .clone()
        .map(|b| {
            let inserts: f64 = scans_of[b]
                .clone()
                .map(|i| stage_ms("octree.insert", i))
                .sum();
            stage_ms("service.flush", b)
                - inserts
                - stage_ms("snapshot.change_drain", b)
                - stage_ms("snapshot.publish", b)
        })
        .collect();

    let window = traced.main_window_ns;
    let appends = in_window(spans, "durable.append", window);
    let syncs: Vec<f64> = in_window(spans, "durable.sync", window)
        .iter()
        .map(|s| s.dur_ns() as f64 / MS)
        .collect();
    let append_bytes: u64 = appends.iter().map(|s| s.bytes).sum();
    let ckpt_bytes: u64 = in_window(spans, "durable.write_atomic", window)
        .iter()
        .map(|s| s.bytes)
        .sum();
    let is_recover = |s: &Span| s.parent.is_some_and(|p| spans[p].layer() == "recover");
    let writes: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "durable.write_atomic" && !is_recover(s))
        .map(|s| s.dur_ns() as f64 / MS)
        .collect();

    // Recovery breakdown, per recover span: its storage children, and
    // the rest less the replica's decode time.
    let decode_ms = median(&trace::durations_ms(spans, "serialize.decode"));
    let recoveries: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "recover.recover")
        .collect();
    let child_ms = |p: usize, name: Option<&str>| -> f64 {
        spans
            .iter()
            .filter(|s| s.parent == Some(p) && name.is_none_or(|n| s.name == n))
            .map(|s| s.dur_ns() as f64 / MS)
            .sum()
    };
    let per_recovery =
        |f: &dyn Fn(usize) -> f64| recoveries.iter().map(|&p| f(p)).collect::<Vec<_>>();
    let read_ms = per_recovery(&|p| child_ms(p, Some("durable.read")));
    let write_ms = per_recovery(&|p| child_ms(p, Some("durable.write_atomic")));
    let replay_ms =
        per_recovery(&|p| spans[p].dur_ns() as f64 / MS - child_ms(p, None) - decode_ms);

    let snap = &writer.snapshot_main;
    let rows_copied = (snap.1.node_rows_copied + snap.1.leaf_rows_copied)
        - (snap.0.node_rows_copied + snap.0.leaf_rows_copied);
    let epochs = snap.1.snapshots_published - snap.0.snapshots_published;
    let (integ, batch, ops) = (&split.integration, &split.batch, &split.ops);
    let self_ms = |layer| trace::self_time_ns(spans, layer) as f64 / MS;
    let all = |name| trace::durations_ms(spans, name);
    let us = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();

    vec![
        metric(
            "raycast.front_end_ms",
            "ms",
            med_id("raycast.integrate", &main_scans, MS),
            ns,
        ),
        metric(
            "raycast.dda_steps_per_scan",
            "count",
            ratio(integ.dda_steps as f64, n),
            ns,
        ),
        metric(
            "raycast.updates_per_scan",
            "count",
            ratio(integ.total_updates() as f64, n),
            ns,
        ),
        metric(
            "octree.apply_ms",
            "ms",
            med_id("octree.apply", &main_scans, MS),
            ns,
        ),
        metric(
            "octree.unique_leaves_per_scan",
            "count",
            ratio(batch.unique_leaves as f64, n),
            ns,
        ),
        metric(
            "octree.coalesced_frac",
            "ratio",
            ratio(batch.coalesced as f64, batch.updates as f64),
            ns,
        ),
        metric(
            "octree.prefix_reuse_frac",
            "ratio",
            ratio(
                batch.reused_levels as f64,
                (batch.reused_levels + batch.descended_levels) as f64,
            ),
            ns,
        ),
        metric(
            "octree.saturated_skip_frac",
            "ratio",
            ratio(ops.saturated_skips as f64, integ.total_updates() as f64),
            ns,
        ),
        metric(
            "octree.node_creations_per_scan",
            "count",
            ratio(ops.node_creations as f64, n),
            ns,
        ),
        metric(
            "octree.prunes_per_scan",
            "count",
            ratio(ops.prunes as f64, n),
            ns,
        ),
        metric(
            "octree.expands_per_scan",
            "count",
            ratio(ops.expands as f64, n),
            ns,
        ),
        metric(
            "octree.insert_ms",
            "ms",
            med_id("octree.insert", &main_scans, MS),
            ns,
        ),
        metric(
            "octree.arena_mb",
            "MiB",
            writer.memory.arena_bytes as f64 / MIB,
            1,
        ),
        metric(
            "octree.bytes_per_node",
            "B",
            writer.memory.bytes_per_node(),
            1,
        ),
        metric(
            "snapshot.publish_us",
            "us",
            med_id("snapshot.publish", &main_batches, US),
            nb,
        ),
        metric(
            "snapshot.rows_copied_per_epoch",
            "count",
            ratio(rows_copied as f64, epochs as f64),
            nb,
        ),
        metric(
            "snapshot.change_drain_us",
            "us",
            med_id("snapshot.change_drain", &main_batches, US),
            nb,
        ),
        metric(
            "snapshot.changed_keys_per_scan",
            "count",
            ratio(writer.changed_keys as f64, n),
            ns,
        ),
        metric(
            "snapshot.rows_awaiting_reclaim_max",
            "count",
            traced.rows_awaiting_reclaim_max as f64,
            nb,
        ),
        metric(
            "service.ingest_us",
            "us",
            med_id("service.ingest", &main_scans, US),
            ns,
        ),
        metric(
            "service.flush_wait_ms",
            "ms",
            med_id("service.flush", &main_batches, MS),
            nb,
        ),
        metric(
            "service.scans_per_publish",
            "ratio",
            traced.scans_per_publish,
            nb,
        ),
        metric(
            "service.checkpoint_ms",
            "ms",
            median(&all("service.checkpoint")),
            1,
        ),
        quantile_metric("service.unattributed_ms", "ms", &unattributed, 0.5),
        metric(
            "durable.append_us",
            "us",
            median(
                &appends
                    .iter()
                    .map(|s| s.dur_ns() as f64 / US)
                    .collect::<Vec<_>>(),
            ),
            appends.len(),
        ),
        metric(
            "durable.append_kb_per_scan",
            "KiB",
            ratio(append_bytes as f64 / 1024.0, n),
            ns,
        ),
        quantile_metric("durable.sync_p50_ms", "ms", &syncs, 0.5),
        quantile_metric("durable.sync_p99_ms", "ms", &syncs, 0.99),
        quantile_metric("durable.write_atomic_ms", "ms", &writes, 0.5),
        metric(
            "durable.bytes_written_per_scan",
            "B",
            ratio((append_bytes + ckpt_bytes) as f64, n),
            ns,
        ),
        quantile_metric("serialize.encode_ms", "ms", &all("serialize.encode"), 0.5),
        metric(
            "serialize.ckpt_mb",
            "MiB",
            writer.ckpt_bytes as f64 / MIB,
            1,
        ),
        quantile_metric("serialize.decode_ms", "ms", &all("serialize.decode"), 0.5),
        quantile_metric(
            "query.snapshot_grab_us",
            "us",
            &us(all("query.snapshot_grab")),
            0.5,
        ),
        quantile_metric(
            "query.occupancy_batch_us",
            "us",
            &us(all("query.occupancy_batch")),
            0.5,
        ),
        quantile_metric("query.cast_rays_us", "us", &us(all("query.cast_rays")), 0.5),
        quantile_metric(
            "query.collides_sphere_us",
            "us",
            &us(all("query.collides_sphere")),
            0.5,
        ),
        metric(
            "recover.replayed_batches",
            "count",
            traced.replayed_batches as f64,
            recoveries.len(),
        ),
        quantile_metric("recover.read_ms", "ms", &read_ms, 0.5),
        quantile_metric("recover.replay_ms", "ms", &replay_ms, 0.5),
        quantile_metric("recover.ckpt_write_ms", "ms", &write_ms, 0.5),
        quantile_metric("bench.visible_p50_ms", "ms", &base.visible_ms, 0.5),
        quantile_metric("bench.read_p50_us", "us", &base.tick_us, 0.5),
        quantile_metric("bench.read_p99_us", "us", &base.tick_us, 0.99),
        quantile_metric("bench.recover_p50_s", "s", &base.recover_s, 0.5),
        quantile_metric("bench.gen_late_p99_ms", "ms", &base.gen_late_ms, 0.99),
        metric(
            "bench.trace_overhead_frac",
            "ratio",
            ratio(median(&traced.visible_ms), median(&base.visible_ms)) - 1.0,
            traced.visible_ms.len(),
        ),
        metric("raycast.self_ms", "ms", self_ms("raycast"), 1),
        metric("octree.self_ms", "ms", self_ms("octree"), 1),
        metric("snapshot.self_ms", "ms", self_ms("snapshot"), 1),
        metric("query.self_ms", "ms", self_ms("query"), 1),
        metric("serialize.self_ms", "ms", self_ms("serialize"), 1),
        metric("service.self_ms", "ms", self_ms("service"), 1),
        metric("durable.self_ms", "ms", self_ms("durable"), 1),
        metric("recover.self_ms", "ms", self_ms("recover"), 1),
    ]
}

/// Everything one invocation prints.
#[derive(Debug)]
pub struct Report {
    pub header: String,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Report {
    /// True when every correctness check passed and every value is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints one line per metric, then the result object as the last
    /// line of standard output.
    pub fn print(&self) {
        println!("{}", self.header);
        for m in &self.metrics {
            println!(
                "  {:<36} {:>16.6} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for e in &self.mismatches {
            println!("  MISMATCH: {e}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
