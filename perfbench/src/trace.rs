//! The traced run's span recorder and the timing storage wrapper.
//!
//! Spans are recorded by this benchmark around the calls it makes into
//! each layer's public functions; nothing inside the library is
//! instrumented. A span has a name (`<layer>.<call>`), an id (scan,
//! batch, tick or recovery index), a start and end, a parent, and the
//! bytes it moved. Spans stay in memory until the run ends, then are
//! written out as JSON lines.
//!
//! Storage is traced at its public trait: [`TimedDir`] wraps `RealDir`
//! and is handed to the service through `MapBuilder::durability_store`
//! and `MapService::recover_with_store`, so every append, sync,
//! write_atomic, read, list and remove becomes a `durable.*` span. Those
//! calls run on the service's durable thread; after the run each one is
//! parented to the harness call (spawn, ingest, flush, checkpoint,
//! recover) that was in progress when it started, which attributes WAL
//! appends to scans in WAL order because one scan (or one backlog) is in
//! flight at a time.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use omu_map::{DurableDir, DurableFile, RealDir};

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    /// `0` while the span is still open.
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub bytes: u64,
}

impl Span {
    /// The layer is the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by the harness, planner and durable
/// threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn spans(&self) -> MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that children can name as their parent.
    pub fn open(&self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: 0,
            parent,
            bytes: 0,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Self::open`].
    pub fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        self.spans()[index].end_ns = end_ns;
    }

    /// Times `f` as one leaf span.
    pub fn time<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.time_bytes(name, id, parent, || (f(), 0))
    }

    /// Times `f`, which also reports the bytes it moved.
    fn time_bytes<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let start_ns = self.now_ns();
        let (value, bytes) = f();
        let end_ns = self.now_ns();
        self.spans().push(Span {
            name,
            id,
            start_ns,
            end_ns,
            parent,
            bytes,
        });
        value
    }

    /// Parents every unparented `durable.*` span to the `service.*` or
    /// `recover.*` span (made on the harness thread) in progress when it
    /// started, then returns all spans.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = self.spans().clone();
        let mut harness: Vec<(u64, u64, usize)> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.layer(), "service" | "recover"))
            .map(|(i, s)| (s.start_ns, s.end_ns, i))
            .collect();
        harness.sort_unstable();
        for s in spans.iter_mut() {
            if s.layer() != "durable" || s.parent.is_some() {
                continue;
            }
            let at = harness.partition_point(|h| h.0 <= s.start_ns);
            if let Some(&(_, end, i)) = at.checked_sub(1).map(|k| &harness[k]) {
                if s.start_ns <= end {
                    s.parent = Some(i);
                }
            }
        }
        spans
    }
}

/// Times `f` as a span when `tracer` is set; otherwise just runs it.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, id, parent, f),
        None => f(),
    }
}

/// Per-layer self time in nanoseconds: each span's duration minus the
/// part of its interval that its children cover.
pub fn self_time_ns(spans: &[Span], layer: &str) -> u64 {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .filter(|(s, _)| s.layer() == layer)
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .sum()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Durations (ms) of the spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Writes the spans as JSON lines to `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"bytes\":{}}}",
            s.name,
            s.id,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            parent,
            s.bytes
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// A `RealDir` whose every call is recorded as a `durable.*` span.
#[derive(Debug)]
pub struct TimedDir {
    inner: RealDir,
    tracer: Arc<Tracer>,
}

impl TimedDir {
    pub fn create(root: PathBuf, tracer: Arc<Tracer>) -> io::Result<Self> {
        Ok(TimedDir {
            inner: RealDir::create(root)?,
            tracer,
        })
    }
}

impl DurableDir for TimedDir {
    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let len = data.len() as u64;
        self.tracer.time_bytes("durable.write_atomic", 0, None, || {
            (self.inner.write_atomic(name, data), len)
        })
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn DurableFile>> {
        let file = self.tracer.time("durable.open_append", 0, None, || {
            self.inner.open_append(name)
        })?;
        Ok(Box::new(TimedFile {
            inner: file,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.tracer.time_bytes("durable.read", 0, None, || {
            let data = self.inner.read(name);
            let len = data.as_ref().map_or(0, |d| d.len() as u64);
            (data, len)
        })
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.tracer
            .time("durable.list", 0, None, || self.inner.list())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.tracer
            .time("durable.remove", 0, None, || self.inner.remove(name))
    }
}

/// A WAL segment handle of a [`TimedDir`].
struct TimedFile {
    inner: Box<dyn DurableFile>,
    tracer: Arc<Tracer>,
}

impl DurableFile for TimedFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let len = data.len() as u64;
        let inner = &mut self.inner;
        self.tracer
            .time_bytes("durable.append", 0, None, || (inner.append(data), len))
    }

    fn sync(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.tracer.time("durable.sync", 0, None, || inner.sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            id: 0,
            start_ns,
            end_ns,
            parent,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = [
            at("service.flush", 100, 200, None),
            at("durable.append", 110, 130, Some(0)),
            at("durable.sync", 120, 150, Some(0)),
            at("durable.write_atomic", 190, 260, Some(0)),
        ];
        // Children cover 110..150 and 190..200 of the parent.
        assert_eq!(self_time_ns(&spans, "service"), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, "durable"), 20 + 30 + 70);
    }
}
