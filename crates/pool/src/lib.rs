//! A persistent, lazily-spawned worker pool for the OMU reproduction's
//! parallel engines.
//!
//! Every parallel path in the workspace used to pay a full
//! `std::thread::scope` spawn/join per call — at scan rate that is pure
//! overhead, and on a 1-CPU container it made the sharded engines
//! *slower* than single-shard. [`WorkerPool`] replaces that with:
//!
//! - **per-worker task queues** (`Mutex<VecDeque>` + `Condvar`), mirroring
//!   the accelerator's one-issue-queue-per-PE layout: branch shard *i*
//!   always lands on worker `i % threads`, so a shard's tasks never
//!   migrate between workers;
//! - **lazy spawning** — a worker thread is created the first time a task
//!   is pushed to its queue, so `sharded_1` never pays for eight threads;
//! - **condvar parking** — idle workers sleep; waking one is a single
//!   futex operation, orders of magnitude cheaper than a thread spawn;
//! - **optional core pinning** (Linux `sched_setaffinity`, best-effort,
//!   no extra dependency) for stable scaling curves on multi-core hosts;
//! - a **scope-safe borrow API** ([`WorkerPool::scope`]) with the same
//!   shape as `std::thread::scope`, so call sites that lend `&mut`
//!   borrows to workers port without lifetime gymnastics;
//! - **caller help**: while a scope waits for its tasks, the calling
//!   thread pops queued tasks and runs them itself. On a single CPU the
//!   caller usually drains the whole scope before any worker is
//!   scheduled, which is what makes pooled dispatch cost comparable to
//!   the inline path instead of a spawn storm.
//!
//! Worker panics never poison the pool: each task runs under
//! `catch_unwind`, and [`WorkerPool::try_scope`] reports them as a typed
//! [`TaskPanic`] so callers (the octree, the map facade) can surface a
//! structured error while restoring their own invariants.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Lock a mutex, recovering from poisoning instead of panicking.
///
/// Every mutex in this crate guards state that is consistent at each
/// instant a lock is released: tasks execute under `catch_unwind`
/// *outside* any pool lock, so a poisoned flag carries no information
/// about the guarded data — recovering is always sound, and it keeps the
/// pool's own code free of panic paths (the workspace `no-panic` rule).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison-recovery policy.
fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A heap-allocated unit of work queued on one worker.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One worker's queue: tasks plus the shutdown latch, guarded together so
/// a parked worker can atomically observe "no tasks and shutting down".
struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct WorkerQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

impl WorkerQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        }
    }
}

/// Cumulative pool counters (monotonic; snapshot via [`WorkerPool::stats`]).
///
/// `threads_spawned` is the load-bearing one for the perf story: after
/// warm-up it must stay flat across calls — the engine paths perform
/// *zero* per-call thread spawns (asserted in the integration tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads created so far (lazy; at most the pool's capacity).
    pub threads_spawned: u64,
    /// Workers successfully pinned to a core (Linux only, best-effort).
    pub workers_pinned: u64,
    /// `scope`/`try_scope` invocations.
    pub scopes: u64,
    /// Tasks pushed to worker queues.
    pub tasks_dispatched: u64,
    /// Tasks executed by pool worker threads.
    pub tasks_run_by_workers: u64,
    /// Tasks the waiting scope caller popped and ran itself.
    pub tasks_run_by_caller: u64,
    /// Times an idle worker parked on its condvar.
    pub parks: u64,
    /// Scopes that ran with the task-order shuffle engaged (the
    /// deterministic stress knob; see [`WorkerPool::set_shuffle_seed`]).
    pub shuffled_scopes: u64,
}

impl PoolStats {
    /// Total tasks that finished, regardless of which thread ran them.
    pub fn tasks_completed(&self) -> u64 {
        self.tasks_run_by_workers + self.tasks_run_by_caller
    }
}

#[derive(Default)]
struct StatCells {
    threads_spawned: AtomicU64,
    workers_pinned: AtomicU64,
    scopes: AtomicU64,
    tasks_dispatched: AtomicU64,
    tasks_run_by_workers: AtomicU64,
    tasks_run_by_caller: AtomicU64,
    parks: AtomicU64,
    shuffled_scopes: AtomicU64,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    queues: Box<[WorkerQueue]>,
    pin_workers: bool,
    /// Task-order shuffle knob: `shuffle_on` gates whether
    /// `shuffle_seed` is live (so every `u64` remains a usable seed).
    shuffle_on: AtomicBool,
    shuffle_seed: AtomicU64,
    stats: StatCells,
}

/// Lazily-spawned worker slot; `spawned` is a lock-free fast check so the
/// dispatch hot path takes the handle mutex only once per worker lifetime.
struct WorkerSlot {
    spawned: AtomicBool,
    handle: Mutex<Option<JoinHandle<()>>>,
}

/// A persistent pool of worker threads with per-worker task queues and a
/// scoped borrow API. See the crate docs for the design rationale.
///
/// The pool is `Send + Sync`; engines share one via `Arc<WorkerPool>` so
/// the read and write paths reuse the same warmed-up workers. Dropping
/// the pool signals shutdown and joins every spawned worker.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Box<[WorkerSlot]>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .field("stats", &self.stats())
            .finish()
    }
}

impl WorkerPool {
    /// Create a pool with capacity for `threads` workers (`0` resolves to
    /// the host's available parallelism). No thread is spawned until a
    /// task is first pushed to its queue.
    pub fn new(threads: usize) -> Self {
        Self::with_flags(threads, false)
    }

    /// Like [`WorkerPool::new`], but each worker pins itself to core
    /// `index % num_cores` on spawn (Linux; a silent no-op elsewhere).
    pub fn pinned(threads: usize) -> Self {
        Self::with_flags(threads, true)
    }

    fn with_flags(threads: usize, pin_workers: bool) -> Self {
        let threads = resolve_threads(threads);
        let queues: Box<[WorkerQueue]> = (0..threads).map(|_| WorkerQueue::new()).collect();
        let workers: Box<[WorkerSlot]> = (0..threads)
            .map(|_| WorkerSlot {
                spawned: AtomicBool::new(false),
                handle: Mutex::new(None),
            })
            .collect();
        let env_seed = shuffle_seed_from_env();
        Self {
            shared: Arc::new(Shared {
                queues,
                pin_workers,
                shuffle_on: AtomicBool::new(env_seed.is_some()),
                shuffle_seed: AtomicU64::new(env_seed.unwrap_or(0)),
                stats: StatCells::default(),
            }),
            workers,
        }
    }

    /// Engage (or disarm, with `None`) the deterministic task-order
    /// shuffle: while set, each scope holds its spawned tasks back,
    /// publishes them to their worker queues in a seeded permuted order,
    /// and the caller-help drain sweeps queues in a permuted order too.
    ///
    /// This is a debug/stress knob: the engines' bit-identity contract
    /// must hold for *every* execution order, and the shuffle flushes
    /// ordering bugs (merge order, finish order, counter order) that the
    /// default round-robin schedule would mask. Runs with the same seed
    /// permute identically; the equivalence suite re-runs under several
    /// seeds in CI. Also settable at pool creation via the
    /// `OMU_POOL_SHUFFLE_SEED` environment variable (decimal or `0x` hex).
    pub fn set_shuffle_seed(&self, seed: Option<u64>) {
        match seed {
            Some(s) => {
                self.shared.shuffle_seed.store(s, Ordering::Relaxed);
                self.shared.shuffle_on.store(true, Ordering::Release);
            }
            None => self.shared.shuffle_on.store(false, Ordering::Release),
        }
    }

    /// The active shuffle seed, or `None` when the shuffle is off.
    pub fn shuffle_seed(&self) -> Option<u64> {
        if self.shared.shuffle_on.load(Ordering::Acquire) {
            Some(self.shared.shuffle_seed.load(Ordering::Relaxed))
        } else {
            None
        }
    }

    /// Worker capacity (queues), not the number of threads spawned so far.
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared.stats;
        PoolStats {
            threads_spawned: s.threads_spawned.load(Ordering::Relaxed),
            workers_pinned: s.workers_pinned.load(Ordering::Relaxed),
            scopes: s.scopes.load(Ordering::Relaxed),
            tasks_dispatched: s.tasks_dispatched.load(Ordering::Relaxed),
            tasks_run_by_workers: s.tasks_run_by_workers.load(Ordering::Relaxed),
            tasks_run_by_caller: s.tasks_run_by_caller.load(Ordering::Relaxed),
            parks: s.parks.load(Ordering::Relaxed),
            shuffled_scopes: s.shuffled_scopes.load(Ordering::Relaxed),
        }
    }

    /// Run `f` with a [`Scope`] on which tasks borrowing from the caller's
    /// environment can be spawned; returns once every spawned task has
    /// completed. If any task panicked, the panic is resumed on the caller
    /// (matching `std::thread::scope`); use [`WorkerPool::try_scope`] for
    /// a typed error instead.
    pub fn scope<'env, T>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> T) -> T {
        match self.try_scope(f) {
            Ok(value) => value,
            // omu-lint: allow(no-panic) — documented contract: `scope`
            // resumes task panics on the caller exactly like
            // `std::thread::scope`; `try_scope` is the typed-error form.
            Err(panic) => panic!("{panic}"),
        }
    }

    /// Like [`WorkerPool::scope`], but task panics are captured and
    /// returned as [`TaskPanic`] instead of unwinding, so the caller can
    /// restore its own invariants and surface a structured error. A panic
    /// in the scope body `f` itself (not in a task) still unwinds — but
    /// only after every already-spawned task has completed, preserving
    /// the borrow-safety guarantee.
    pub fn try_scope<'env, T>(
        &self,
        f: impl FnOnce(&Scope<'_, 'env>) -> T,
    ) -> Result<T, TaskPanic> {
        self.shared.stats.scopes.fetch_add(1, Ordering::Relaxed);
        // Each shuffled scope draws its own permutation stream so a
        // multi-scope run (scan after scan) explores different task
        // orders while staying reproducible from the one seed.
        let shuffle = self.shuffle_seed().map(|seed| {
            let nth = self
                .shared
                .stats
                .shuffled_scopes
                .fetch_add(1, Ordering::Relaxed);
            splitmix64(seed ^ nth.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        });
        let state = Arc::new(ScopeState::new());
        let scope = Scope {
            pool: self,
            state: &state,
            next_worker: std::cell::Cell::new(0),
            deferred: RefCell::new(Vec::new()),
            shuffle,
            _env: PhantomData,
        };
        let body = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Shuffle mode: tasks were held back by `spawn_on`; publish them
        // to their queues in a seeded permuted order. This happens even
        // when the body panicked — the tasks exist and hold borrows, so
        // they must run before the scope unwinds.
        let deferred = std::mem::take(&mut *scope.deferred.borrow_mut());
        if !deferred.is_empty() {
            let mut rng = shuffle.unwrap_or(1);
            let order = permuted_indices(&mut rng, deferred.len());
            let mut slots: Vec<Option<(usize, Task)>> = deferred.into_iter().map(Some).collect();
            for i in order {
                // omu-lint: allow(no-panic) — every index from
                // `permuted_indices` appears exactly once, so each slot
                // is taken exactly once.
                let (worker, task) = slots[i].take().expect("permutation visits each slot once");
                self.push_task(worker, task);
            }
        }
        // Always wait for spawned tasks, even when the body panicked:
        // the tasks hold borrows into the caller's frame.
        self.drain_and_wait(&state, shuffle);
        match body {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                let panics = std::mem::take(&mut *lock_unpoisoned(&state.panics));
                if panics.is_empty() {
                    Ok(value)
                } else {
                    Err(TaskPanic { messages: panics })
                }
            }
        }
    }

    /// Caller-help wait loop: run queued tasks on this thread until the
    /// scope's pending count reaches zero, then park on the scope condvar
    /// for any still in flight on workers.
    ///
    /// Under shuffle mode the sweep visits queues in a freshly permuted
    /// order each round: on a single CPU the caller usually drains the
    /// whole scope itself, so without this the queue-index sweep order
    /// would fix the execution order no matter how publication was
    /// permuted.
    fn drain_and_wait(&self, state: &ScopeState, shuffle: Option<u64>) {
        let nqueues = self.shared.queues.len();
        let mut rng = shuffle.unwrap_or(0);
        loop {
            if *lock_unpoisoned(&state.pending) == 0 {
                return;
            }
            let mut ran = false;
            let sweep: Vec<usize> = match shuffle {
                Some(_) => permuted_indices(&mut rng, nqueues),
                None => (0..nqueues).collect(),
            };
            for qi in sweep {
                let queue = &self.shared.queues[qi];
                let task = lock_unpoisoned(&queue.state).tasks.pop_front();
                if let Some(task) = task {
                    task();
                    self.shared
                        .stats
                        .tasks_run_by_caller
                        .fetch_add(1, Ordering::Relaxed);
                    ran = true;
                }
            }
            if !ran {
                // Queues are empty; whatever is still pending is running
                // on a worker right now. Sleep until the last one signals.
                let mut pending = lock_unpoisoned(&state.pending);
                while *pending != 0 {
                    pending = wait_unpoisoned(&state.done, pending);
                }
                return;
            }
        }
    }

    fn push_task(&self, worker: usize, task: Task) {
        self.shared
            .stats
            .tasks_dispatched
            .fetch_add(1, Ordering::Relaxed);
        self.ensure_worker(worker);
        let queue = &self.shared.queues[worker];
        lock_unpoisoned(&queue.state).tasks.push_back(task);
        queue.available.notify_one();
    }

    /// Spawn worker `index` if it has not been spawned yet (lazy).
    fn ensure_worker(&self, index: usize) {
        let slot = &self.workers[index];
        if slot.spawned.load(Ordering::Acquire) {
            return;
        }
        let mut handle = lock_unpoisoned(&slot.handle);
        if handle.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let joiner = std::thread::Builder::new()
            .name(format!("omu-pool-{index}"))
            .spawn(move || worker_loop(shared, index))
            // omu-lint: allow(no-panic) — thread-spawn failure is
            // unrecoverable resource exhaustion; a typed error here
            // would leave the scope's pending count permanently stuck.
            .expect("spawn pool worker thread");
        *handle = Some(joiner);
        slot.spawned.store(true, Ordering::Release);
        self.shared
            .stats
            .threads_spawned
            .fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for queue in self.shared.queues.iter() {
            lock_unpoisoned(&queue.state).shutdown = true;
            queue.available.notify_all();
        }
        for slot in self.workers.iter() {
            if let Some(handle) = lock_unpoisoned(&slot.handle).take() {
                let _ = handle.join();
            }
        }
    }
}

/// Seed for the task-order shuffle from `OMU_POOL_SHUFFLE_SEED`
/// (decimal or `0x`-prefixed hex); unset or unparsable means off.
fn shuffle_seed_from_env() -> Option<u64> {
    parse_shuffle_seed(&std::env::var("OMU_POOL_SHUFFLE_SEED").ok()?)
}

/// Parse a shuffle seed: decimal or `0x`-prefixed hex, whitespace-tolerant.
fn parse_shuffle_seed(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// One step of the splitmix64 sequence — the permutation stream behind
/// the shuffle knob. Small, seedable, and dependency-free; statistical
/// quality far beyond what a stress-order scrambler needs.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advance `state` and return the next pseudo-random word.
fn next_rand(state: &mut u64) -> u64 {
    *state = splitmix64(*state);
    *state
}

/// A seeded Fisher–Yates permutation of `0..n`, advancing `state`.
fn permuted_indices(state: &mut u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next_rand(state) % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    if shared.pin_workers && pin_to_core(index) {
        shared.stats.workers_pinned.fetch_add(1, Ordering::Relaxed);
    }
    let queue = &shared.queues[index];
    let mut state = lock_unpoisoned(&queue.state);
    loop {
        if let Some(task) = state.tasks.pop_front() {
            drop(state);
            // Counted before the run: the task signals its scope as its
            // last step, so a count taken after it could still be missing
            // when the scope returns and its caller reads the stats. The
            // scope's pending-count mutex (released by the task, acquired
            // by the waiting caller) orders this relaxed add first.
            shared
                .stats
                .tasks_run_by_workers
                .fetch_add(1, Ordering::Relaxed);
            // Tasks are wrapped in catch_unwind by Scope::spawn_on, so
            // this call never unwinds through the worker loop.
            task();
            state = lock_unpoisoned(&queue.state);
        } else if state.shutdown {
            return;
        } else {
            shared.stats.parks.fetch_add(1, Ordering::Relaxed);
            state = wait_unpoisoned(&queue.available, state);
        }
    }
}

/// Pin the calling thread to `core % num_cores`. Linux-only; std already
/// links libc, so binding `sched_setaffinity` directly avoids a crate
/// dependency. Best-effort: failures are reported, never fatal.
#[cfg(target_os = "linux")]
fn pin_to_core(core: usize) -> bool {
    // glibc's cpu_set_t is 1024 bits.
    const CPU_SET_WORDS: usize = 16;
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let ncpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(CPU_SET_WORDS * 64);
    let core = core % ncpus;
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[core / 64] |= 1u64 << (core % 64);
    // SAFETY: pid 0 targets the calling thread; the mask pointer is valid
    // for the advertised size for the duration of the call.
    unsafe {
        sched_setaffinity(
            0,
            std::mem::size_of::<[u64; CPU_SET_WORDS]>(),
            mask.as_ptr(),
        ) == 0
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: usize) -> bool {
    false
}

/// Completion tracking for one `scope` call.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panics: Mutex<Vec<String>>,
}

impl ScopeState {
    fn new() -> Self {
        Self {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panics: Mutex::new(Vec::new()),
        }
    }

    fn finish_task(&self, panic_payload: Option<Box<dyn Any + Send>>) {
        if let Some(payload) = panic_payload {
            // `payload.as_ref()` (not `&payload`): a `&Box<dyn Any>` would
            // unsize the Box itself into `dyn Any` and defeat the downcasts.
            lock_unpoisoned(&self.panics).push(panic_message(payload.as_ref()));
        }
        let mut pending = lock_unpoisoned(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker task panicked with a non-string payload".to_owned()
    }
}

/// Error returned by [`WorkerPool::try_scope`] when one or more tasks
/// panicked. Carries the extracted panic messages; the pool itself stays
/// fully usable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    messages: Vec<String>,
}

impl TaskPanic {
    /// Builds a `TaskPanic` from a caught unwind payload (as returned
    /// by `std::panic::catch_unwind`). For service loops that catch
    /// their own panics in order to record a typed error before the
    /// thread exits — e.g. the map service's writer — instead of
    /// letting the payload reach the joiner.
    pub fn from_payload(payload: &(dyn Any + Send)) -> Self {
        TaskPanic {
            messages: vec![panic_message(payload)],
        }
    }

    /// Number of tasks that panicked in the scope.
    pub fn count(&self) -> usize {
        self.messages.len()
    }

    /// Message extracted from the first panic payload.
    pub fn first_message(&self) -> &str {
        self.messages.first().map(String::as_str).unwrap_or("")
    }
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.messages.len() {
            1 => write!(f, "worker task panicked: {}", self.messages[0]),
            n => write!(
                f,
                "{n} worker tasks panicked; first: {}",
                self.first_message()
            ),
        }
    }
}

impl std::error::Error for TaskPanic {}

/// A dedicated long-lived thread running one service loop to completion
/// — e.g. the map service's writer thread. Service threads live outside
/// the worker-pool queues (a service loop parks on its own channel and
/// must never occupy a pool worker slot), but they are spawned and
/// joined through this crate so thread management stays confined here
/// (the workspace thread-confinement lint).
///
/// Join explicitly with [`ServiceThread::join`] to observe a panic as a
/// typed [`TaskPanic`]; dropping the handle joins implicitly and
/// swallows the outcome.
#[derive(Debug)]
pub struct ServiceThread {
    handle: Option<JoinHandle<()>>,
}

/// Spawn `f` on a dedicated OS thread named `name` and return its
/// [`ServiceThread`] handle.
pub fn spawn_service<F>(name: &str, f: F) -> ServiceThread
where
    F: FnOnce() + Send + 'static,
{
    let handle = std::thread::Builder::new()
        .name(format!("omu-svc-{name}"))
        .spawn(f)
        // omu-lint: allow(no-panic) — same policy as pool workers:
        // thread-spawn failure is unrecoverable resource exhaustion and
        // a typed error would leave the service permanently absent.
        .expect("spawn service thread");
    ServiceThread {
        handle: Some(handle),
    }
}

impl ServiceThread {
    /// Wait for the service loop to finish. A panic inside the loop is
    /// reported as a [`TaskPanic`] (message extracted from the payload);
    /// the panic does not propagate to the caller.
    pub fn join(mut self) -> Result<(), TaskPanic> {
        match self.handle.take() {
            None => Ok(()),
            Some(handle) => match handle.join() {
                Ok(()) => Ok(()),
                Err(payload) => Err(TaskPanic {
                    messages: vec![panic_message(payload.as_ref())],
                }),
            },
        }
    }
}

impl Drop for ServiceThread {
    /// Joining on drop (rather than detaching) keeps service shutdown
    /// deterministic: by the time the owner is gone, the loop has exited.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Handle passed to the closure of [`WorkerPool::scope`]; spawns tasks
/// that may borrow from the enclosing environment (`'env`).
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: &'pool Arc<ScopeState>,
    next_worker: std::cell::Cell<usize>,
    /// Shuffle mode holds spawned tasks here (with their target worker)
    /// instead of publishing immediately; `try_scope` releases them in a
    /// seeded permuted order once the scope body returns.
    deferred: RefCell<Vec<(usize, Task)>>,
    /// Per-scope shuffle stream; `None` when the shuffle is off.
    shuffle: Option<u64>,
    /// Invariant over `'env`, like `std::thread::Scope`, so the borrow
    /// checker cannot shrink the environment lifetime under us.
    _env: PhantomData<&'env mut &'env ()>,
}

impl fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope")
            .field("next_worker", &self.next_worker.get())
            .field("shuffle", &self.shuffle)
            .finish_non_exhaustive()
    }
}

impl<'env> Scope<'_, 'env> {
    /// Spawn `f` on the next worker (round-robin). Completion is awaited
    /// by the enclosing `scope`/`try_scope` before it returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let worker = self.next_worker.get();
        self.next_worker.set(worker.wrapping_add(1));
        self.spawn_on(worker, f);
    }

    /// Spawn `f` on worker `worker % threads`. Pinning a shard to a fixed
    /// worker keeps its queue — and therefore its cache working set — on
    /// one thread across calls.
    pub fn spawn_on<F>(&self, worker: usize, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let worker = worker % self.pool.threads();
        *lock_unpoisoned(&self.state.pending) += 1;
        let state = Arc::clone(self.state);
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            state.finish_task(result.err());
        });
        // SAFETY: `try_scope` does not return before this task has run to
        // completion (`drain_and_wait` blocks on the pending count even
        // when the scope body panics — deferred tasks are published first
        // and then awaited the same way), so every borrow captured by `f`
        // strictly outlives the task. Erasing `'env` to `'static` is the
        // same containment argument `std::thread::scope` relies on.
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        if self.shuffle.is_some() {
            self.deferred.borrow_mut().push((worker, task));
        } else {
            self.pool.push_task(worker, task);
        }
    }

    /// Worker capacity of the owning pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorkerPool>();
        assert_send_sync::<Arc<WorkerPool>>();
    }

    #[test]
    fn scope_runs_borrowing_tasks_to_completion() {
        let pool = WorkerPool::new(4);
        let mut outputs = [0usize; 16];
        let total = pool.scope(|s| {
            for (i, slot) in outputs.iter_mut().enumerate() {
                s.spawn(move || *slot = i * i);
            }
            42
        });
        assert_eq!(total, 42);
        for (i, v) in outputs.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        let stats = pool.stats();
        assert_eq!(stats.tasks_dispatched, 16);
        assert_eq!(stats.tasks_completed(), 16);
        assert_eq!(stats.scopes, 1);
    }

    #[test]
    fn workers_spawn_lazily_and_only_once() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.stats().threads_spawned, 0);
        pool.scope(|s| s.spawn_on(0, || {}));
        assert_eq!(pool.stats().threads_spawned, 1);
        // Repeated scopes on the same worker spawn nothing new.
        for _ in 0..32 {
            pool.scope(|s| s.spawn_on(0, || {}));
        }
        assert_eq!(pool.stats().threads_spawned, 1);
        // Touching all eight queues tops out at the capacity.
        pool.scope(|s| {
            for w in 0..8 {
                s.spawn_on(w, || {});
            }
        });
        assert_eq!(pool.stats().threads_spawned, 8);
        for _ in 0..32 {
            pool.scope(|s| {
                for w in 0..8 {
                    s.spawn_on(w, || {});
                }
            });
        }
        assert_eq!(pool.stats().threads_spawned, 8);
    }

    #[test]
    fn idle_workers_park_after_a_scope() {
        let pool = WorkerPool::new(2);
        pool.scope(|s| {
            s.spawn_on(0, || {});
            s.spawn_on(1, || {});
        });
        // Workers park once their queues drain; give the scheduler a
        // moment (polling, not a fixed sleep, so the test stays fast).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().parks < pool.stats().threads_spawned {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never parked: {:?}",
                pool.stats()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn try_scope_reports_task_panics_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let mut done = [false; 4];
        let err = pool
            .try_scope(|s| {
                for (i, flag) in done.iter_mut().enumerate() {
                    s.spawn_on(i, move || {
                        if i == 2 {
                            panic!("injected failure {i}");
                        }
                        *flag = true;
                    });
                }
            })
            .unwrap_err();
        assert_eq!(err.count(), 1);
        assert!(err.first_message().contains("injected failure 2"));
        assert_eq!(done, [true, true, false, true]);
        // The pool keeps working after a panic.
        let sum = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    sum.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn scope_resumes_task_panics_on_the_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| s.spawn(|| panic!("boom")));
        }));
        let payload = result.unwrap_err();
        assert!(panic_message(payload.as_ref()).contains("boom"));
    }

    #[test]
    fn body_panic_still_waits_for_spawned_tasks() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body failed");
            });
        }));
        assert!(result.is_err());
        // The borrow-safety contract: all spawned tasks finished before
        // the panic escaped the scope.
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn drop_joins_spawned_workers() {
        let marker = Arc::new(());
        let pool = WorkerPool::new(4);
        pool.scope(|s| {
            for w in 0..4 {
                let m = Arc::clone(&marker);
                s.spawn_on(w, move || drop(m));
            }
        });
        drop(pool);
        // All worker threads exited and released their shared state.
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn zero_threads_resolves_to_host_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn pinned_pool_runs_tasks() {
        let pool = WorkerPool::pinned(2);
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            for w in 0..2 {
                s.spawn_on(w, || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn permutations_are_deterministic_per_seed() {
        let mut a = 0xDEAD_BEEF;
        let mut b = 0xDEAD_BEEF;
        let pa = permuted_indices(&mut a, 64);
        let pb = permuted_indices(&mut b, 64);
        assert_eq!(pa, pb, "same seed must give the same permutation");
        let mut sorted = pa.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "must be a permutation");
        // Consecutive draws from one stream differ (the per-scope streams).
        let pc = permuted_indices(&mut a, 64);
        assert_ne!(pa, pc, "stream must advance between draws");
    }

    #[test]
    fn parse_shuffle_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_shuffle_seed("42"), Some(42));
        assert_eq!(parse_shuffle_seed(" 0xFF \n"), Some(255));
        assert_eq!(parse_shuffle_seed("0X10"), Some(16));
        assert_eq!(parse_shuffle_seed("banana"), None);
        assert_eq!(parse_shuffle_seed(""), None);
    }

    #[test]
    fn shuffle_seed_round_trips_and_disarms() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.shuffle_seed(), None);
        pool.set_shuffle_seed(Some(7));
        assert_eq!(pool.shuffle_seed(), Some(7));
        pool.set_shuffle_seed(None);
        assert_eq!(pool.shuffle_seed(), None);
    }

    #[test]
    fn shuffled_scopes_run_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        pool.set_shuffle_seed(Some(0x5EED));
        for round in 0..8u64 {
            let mut outputs = [0u64; 32];
            pool.scope(|s| {
                for (i, slot) in outputs.iter_mut().enumerate() {
                    s.spawn(move || *slot = round * 1000 + i as u64);
                }
            });
            for (i, v) in outputs.iter().enumerate() {
                assert_eq!(*v, round * 1000 + i as u64);
            }
        }
        assert_eq!(pool.stats().shuffled_scopes, 8);
        assert_eq!(pool.stats().tasks_completed(), 8 * 32);
    }

    #[test]
    fn shuffled_try_scope_still_reports_panics() {
        let pool = WorkerPool::new(2);
        pool.set_shuffle_seed(Some(99));
        let err = pool
            .try_scope(|s| {
                s.spawn(|| panic!("shuffled boom"));
                s.spawn(|| {});
            })
            .unwrap_err();
        assert_eq!(err.count(), 1);
        assert!(err.first_message().contains("shuffled boom"));
    }

    #[test]
    fn shuffled_body_panic_still_runs_deferred_tasks() {
        let pool = WorkerPool::new(2);
        pool.set_shuffle_seed(Some(3));
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body failed under shuffle");
            });
        }));
        assert!(result.is_err());
        // Deferred tasks were published and completed before the panic
        // escaped — the borrow-safety contract holds under shuffle too.
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn nested_values_round_trip_through_scope() {
        let pool = WorkerPool::new(3);
        let inputs: Vec<u64> = (0..24).collect();
        let mut outputs: Vec<Option<u64>> = vec![None; inputs.len()];
        pool.scope(|s| {
            for (slot, v) in outputs.iter_mut().zip(&inputs) {
                s.spawn(move || *slot = Some(v * 3));
            }
        });
        for (i, v) in outputs.iter().enumerate() {
            assert_eq!(*v, Some(i as u64 * 3));
        }
    }

    #[test]
    fn service_thread_runs_to_completion_and_joins_clean() {
        let flag = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&flag);
        let svc = spawn_service("test", move || {
            seen.store(7, Ordering::Release);
        });
        assert!(svc.join().is_ok());
        assert_eq!(flag.load(Ordering::Acquire), 7);
    }

    #[test]
    fn service_thread_panic_surfaces_as_task_panic() {
        let svc = spawn_service("test-panic", || {
            panic!("service loop died");
        });
        let err = svc.join().unwrap_err();
        assert_eq!(err.count(), 1);
        assert!(err.first_message().contains("service loop died"));
    }

    #[test]
    fn service_thread_drop_joins_implicitly() {
        let flag = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&flag);
        drop(spawn_service("test-drop", move || {
            seen.store(3, Ordering::Release);
        }));
        // Drop joined: the store is guaranteed visible afterwards.
        assert_eq!(flag.load(Ordering::Acquire), 3);
    }
}
