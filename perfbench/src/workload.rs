//! The two workloads and the phase plan each one runs.
//!
//! Every size here is fixed by the workload and `--seconds` alone, so
//! two runs with the same arguments do the same amount of work. Why each
//! number was chosen is in `perfbench/README.md`.

use std::time::Duration;

use omu_datasets::DatasetKind;
use omu_map::{DurabilityPolicy, MapBuilder};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Live indoor mapping: FR-079 corridor scans at 5 Hz, one in flight.
    Corridor,
    /// Offline build: a Freiburg-campus backlog queued at once and drained.
    Campus,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "corridor" => Some(Workload::Corridor),
            "campus" => Some(Workload::Campus),
            _ => None,
        }
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Corridor => "corridor",
            Workload::Campus => "campus",
        }
    }
}

/// How the main phase feeds scans to the service.
#[derive(Debug, Clone, Copy)]
pub enum Feed {
    /// Open loop with one scan in flight: scan `i` is due at
    /// `i × period` after the phase starts, and is sent at its due time
    /// or as soon as the previous scan's flush returns, whichever is
    /// later.
    Stream { period: Duration, scans: usize },
    /// One backlog of `scans` scans, queued while the writer is parked so
    /// it drains the whole backlog as one batch.
    Backlog { scans: usize },
}

/// The phase sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub dataset: DatasetKind,
    pub policy: DurabilityPolicy,
    /// Scans in the warm-up prefix each setup acks one by one.
    pub warmup: usize,
    pub feed: Feed,
    /// Scans sent after `checkpoint()`, each acked, before the crash.
    pub tail: usize,
}

/// Setups per run; `setup_s` is their median and the last one serves the
/// main phase.
pub const SETUPS: usize = 7;
/// Timed recoveries per run, each from its own copy of the crashed
/// directory; `recover_s` is the fastest.
pub const RECOVERIES: usize = 11;
/// Recovery `r` starts `r × RECOVERY_SPACING` after the first, so the
/// recoveries sample the host over 15 s instead of a few seconds of one
/// host state (see `perfbench/README.md`, "Host noise").
pub const RECOVERY_SPACING: Duration = Duration::from_millis(1500);

impl Plan {
    /// The plan for `workload` with a main phase of about `seconds`.
    pub fn new(workload: Workload, seconds: u64) -> Self {
        let seconds = seconds.max(1) as usize;
        match workload {
            Workload::Corridor => Plan {
                dataset: DatasetKind::Fr079Corridor,
                policy: DurabilityPolicy::EveryNEpochs(64),
                warmup: 5,
                // At least 100 stream scans, so p90 has 10 beyond it.
                feed: Feed::Stream {
                    period: Duration::from_millis(200),
                    scans: (5 * seconds).max(100),
                },
                tail: 6,
            },
            Workload::Campus => Plan {
                dataset: DatasetKind::FreiburgCampus,
                policy: DurabilityPolicy::EveryNEpochs(64),
                warmup: 1,
                feed: Feed::Backlog {
                    scans: (8 * seconds / 5).max(1),
                },
                tail: 2,
            },
        }
    }

    /// Scans sent in the main phase.
    pub fn main_scans(&self) -> usize {
        match self.feed {
            Feed::Stream { scans, .. } => scans,
            Feed::Backlog { scans } => scans,
        }
    }

    /// The builder every service and replica of this plan uses: the
    /// dataset's resolution and maximum range, everything else default.
    pub fn builder(&self) -> MapBuilder {
        let spec = self.dataset.spec();
        MapBuilder::new(spec.resolution).max_range(Some(spec.max_range))
    }

    /// Scan counts of the live service's writer batches in WAL order:
    /// the warm-up and tail scans one by one, the main phase as fed.
    pub fn batches(&self) -> Vec<usize> {
        let mut batches = vec![1; self.warmup];
        match self.feed {
            Feed::Stream { scans, .. } => batches.extend(std::iter::repeat_n(1, scans)),
            Feed::Backlog { scans } => batches.push(scans),
        }
        batches.extend(std::iter::repeat_n(1, self.tail));
        batches
    }
}
