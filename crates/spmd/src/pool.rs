//! Resident SPMD worker pool: persistent node threads, a reusable
//! channel fabric, and per-node buffer arenas.
//!
//! The simulated machine historically paid a full `thread::scope`
//! spawn/join of `p` OS threads on every [`crate::Machine::run`] and
//! [`crate::CommSchedule::execute`] call. For the small-`k`,
//! many-statement workloads whose *planning* cost the schedule cache
//! already removed, that per-statement *launch* cost dominates. The pool
//! makes the runtime behave like the paper's iPSC/860: nodes boot once,
//! statements stream through them.
//!
//! Architecture:
//!
//! - **Workers** — `p` detached threads named `node-<m>`, created once per
//!   (machine size, transport) by [`global`] (or eagerly by [`warm`]) and
//!   resident for the process lifetime. The thread name doubles as the
//!   trace-lane label, so counters recorded on a worker aggregate on one
//!   persistent `node-<m>` lane exactly as scoped threads' per-launch
//!   lanes would sum.
//! - **Fabric** — each node owns a [`crate::transport::Endpoint`] on the
//!   pool's fabric ([`TransportKind::Mpsc`] inboxes or the lock-free
//!   SPSC rings of [`TransportKind::Shm`]/[`TransportKind::Proc`]); node
//!   jobs exchange [`Envelope`]s (type-erased boxed payloads) without
//!   creating channels per call.
//! - **Arena** — each node owns a [`BufferArena`] recycling pack/unpack
//!   `Vec` allocations across statements; steady-state batched execution
//!   allocates nothing once buffers reach their high-water mark.
//! - **Dispatch / epoch barrier** — [`Pool::dispatch`] ships a borrowed
//!   `&dyn Fn(usize, &mut NodeCtx)` to every worker as a raw-pointer job
//!   and blocks on an ack channel until all `p` jobs complete (one
//!   *epoch*). The barrier is also an unwind guard: the borrow cannot
//!   escape the dispatching frame while any job might still use it.
//! - **Poison protocol** — a panicking node job broadcasts a [`Poison`]
//!   envelope to its peers before acknowledging, so nodes blocked in
//!   [`NodeCtx::recv`] fail fast with a clear message instead of hanging
//!   a counted receive loop. After the epoch completes the dispatcher
//!   drains every inbox and re-raises the original panic; the pool
//!   itself stays usable.
//!
//! [`launch`] is the single entry point: `LaunchMode::Pooled` routes
//! through the resident pool, `LaunchMode::Scoped` reproduces the
//! historical per-call `thread::scope` path (kept for A/B benchmarking).
//! Both modes run the *same* node body, so deterministic counter totals
//! (`messages_sent`, `bytes_packed`, …) are bit-identical by
//! construction.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use bcag_core::error::Result;
use bcag_core::method::Method;
use bcag_core::params::Problem;
use bcag_core::pattern::AccessPattern;

use crate::transport::{self, BarrierArrive, BarrierRelease, Endpoint, Poison, TransportKind};

pub use crate::transport::Envelope;

/// How SPMD node bodies are launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchMode {
    /// Dispatch to the resident worker pool (default): zero thread
    /// spawns and recycled buffers on the steady-state path.
    Pooled,
    /// Spawn a fresh `thread::scope` per call — the historical launch
    /// path, kept selectable for A/B benchmarking.
    Scoped,
}

impl LaunchMode {
    /// Stable lowercase name, used in bench labels.
    pub fn name(&self) -> &'static str {
        match self {
            LaunchMode::Pooled => "pooled",
            LaunchMode::Scoped => "scoped",
        }
    }
}

/// Process-default launch mode: 0 = unset, 1 = pooled, 2 = scoped.
static DEFAULT_LAUNCH: AtomicU8 = AtomicU8::new(0);

/// The process-wide default [`LaunchMode`], used by `Machine::new` and
/// `CommSchedule::execute_with`. Initialized lazily from the
/// `BCAG_LAUNCH` env var (`scoped` selects the per-call thread path;
/// anything else, or unset, selects the pool).
pub fn default_launch() -> LaunchMode {
    match DEFAULT_LAUNCH.load(Ordering::Relaxed) {
        1 => LaunchMode::Pooled,
        2 => LaunchMode::Scoped,
        _ => {
            let mode = match std::env::var("BCAG_LAUNCH").as_deref() {
                Ok("scoped") => LaunchMode::Scoped,
                _ => LaunchMode::Pooled,
            };
            set_default_launch(mode);
            mode
        }
    }
}

/// Overrides the process-wide default [`LaunchMode`] (benchmarks use
/// this to A/B the two paths within one process).
pub fn set_default_launch(mode: LaunchMode) {
    let v = match mode {
        LaunchMode::Pooled => 1,
        LaunchMode::Scoped => 2,
    };
    DEFAULT_LAUNCH.store(v, Ordering::Relaxed);
}

/// Arena shelves hold at most this many idle buffers per payload type;
/// beyond the high-water working set, extra buffers are dropped rather
/// than hoarded.
const ARENA_SHELF_CAP: usize = 64;

/// Per-node recycling store for pack/unpack buffers, keyed by payload
/// type. `take` pops an idle buffer (counting a `pool_buffer_reuses`
/// trace event) or allocates a fresh one; `put` returns a buffer to its
/// shelf. Buffers keep their capacity across statements, so steady-state
/// loops stop allocating once every shelf reaches its high-water mark.
#[derive(Default)]
pub struct BufferArena {
    shelves: HashMap<std::any::TypeId, Vec<Envelope>>,
}

impl BufferArena {
    /// Takes a cleared `Vec<T>` from the shelf, or allocates one.
    pub fn take<T: Send + 'static>(&mut self) -> Vec<T> {
        let shelf = self.shelves.entry(std::any::TypeId::of::<Vec<T>>());
        if let std::collections::hash_map::Entry::Occupied(mut e) = shelf {
            if let Some(env) = e.get_mut().pop() {
                let mut buf = *env.downcast::<Vec<T>>().expect("shelf keyed by TypeId");
                buf.clear();
                bcag_trace::count("pool_buffer_reuses", 1);
                return buf;
            }
        }
        Vec::new()
    }

    /// Shelves a buffer for reuse. Zero-capacity buffers and overflow
    /// beyond [`ARENA_SHELF_CAP`] are dropped.
    pub fn put<T: Send + 'static>(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        let shelf = self
            .shelves
            .entry(std::any::TypeId::of::<Vec<T>>())
            .or_default();
        if shelf.len() < ARENA_SHELF_CAP {
            shelf.push(Box::new(buf));
        }
    }
}

/// Per-node execution context handed to every launched body: the node's
/// fabric endpoint and its buffer arena.
pub struct NodeCtx {
    m: usize,
    kind: TransportKind,
    link: Box<dyn Endpoint>,
    arena: BufferArena,
}

impl NodeCtx {
    fn new(m: usize, kind: TransportKind, link: Box<dyn Endpoint>) -> NodeCtx {
        NodeCtx {
            m,
            kind,
            link,
            arena: BufferArena::default(),
        }
    }

    /// This node's index in `0..p`.
    pub fn node(&self) -> usize {
        self.m
    }

    /// The machine size.
    pub fn p(&self) -> usize {
        self.link.p()
    }

    /// Which fabric this context's envelopes travel over.
    pub fn transport(&self) -> TransportKind {
        self.kind
    }

    /// Whether executors should ship the serialized wire format instead
    /// of boxed in-memory buffers on this fabric.
    pub fn serializes(&self) -> bool {
        self.kind.serializes()
    }

    /// Sends an envelope to node `dst`.
    pub fn send(&mut self, dst: usize, env: Envelope) {
        self.link.send(dst, env);
    }

    /// Blocks for the next envelope. Panics with a clear message if a
    /// peer's poison arrives instead — a node job panicked mid-exchange
    /// and this node's expected data will never come.
    pub fn recv(&mut self) -> Envelope {
        let env = self.link.recv();
        if env.is::<Poison>() {
            panic!(
                "spmd node {}: a peer node job panicked mid-exchange",
                self.m
            );
        }
        env
    }

    /// Full barrier over all nodes of the machine, built on the fabric's
    /// envelope exchange (every backend inherits it): each node reports
    /// to node 0, node 0 releases everyone. Only valid at quiescent
    /// points — no data envelopes may be in flight.
    pub fn barrier(&mut self) {
        let p = self.p();
        if self.m == 0 {
            for _ in 1..p {
                let env = self.recv();
                assert!(env.is::<BarrierArrive>(), "barrier crossed in-flight data");
            }
            for dst in 1..p {
                self.send(dst, Box::new(BarrierRelease));
            }
        } else {
            self.send(0, Box::new(BarrierArrive));
            let env = self.recv();
            assert!(env.is::<BarrierRelease>(), "barrier crossed in-flight data");
        }
    }

    /// This node's buffer arena.
    pub(crate) fn arena(&mut self) -> &mut BufferArena {
        &mut self.arena
    }

    /// Takes a recycled buffer from this node's arena.
    pub fn take_buf<T: Send + 'static>(&mut self) -> Vec<T> {
        self.arena.take()
    }

    /// Returns a buffer to this node's arena for reuse.
    pub fn put_buf<T: Send + 'static>(&mut self, buf: Vec<T>) {
        self.arena.put(buf)
    }

    /// Non-blocking poison check for bodies that receive on their own
    /// typed channels (the per-element executor): panics if a peer's
    /// poison is queued on the fabric.
    pub(crate) fn check_poison(&mut self) {
        if let Some(env) = self.link.try_recv() {
            if env.is::<Poison>() {
                panic!(
                    "spmd node {}: a peer node job panicked mid-exchange",
                    self.m
                );
            }
            panic!(
                "spmd node {}: unexpected fabric message during typed exchange",
                self.m
            );
        }
    }

    /// Whether anything is queued on the fabric (post-panic hygiene
    /// checks in tests).
    #[cfg(test)]
    pub(crate) fn fabric_is_clean(&mut self) -> bool {
        match self.link.try_recv() {
            None => true,
            Some(_) => false,
        }
    }

    /// Discards everything queued on the inbox (post-panic cleanup).
    fn drain_inbox(&mut self) {
        while self.link.try_recv().is_some() {}
    }

    /// Broadcasts poison to every other node. Best-effort with a bounded
    /// retry: a peer blocked in `recv` keeps draining its rings, so a
    /// full ring clears quickly, but a departed peer (scoped-mode
    /// teardown) must not block the panicking node's acknowledgement
    /// forever.
    fn poison_peers(&mut self) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(100);
        for dst in 0..self.p() {
            if dst == self.m {
                continue;
            }
            let mut env: Envelope = Box::new(Poison);
            loop {
                if self.link.offer(dst, env) {
                    break;
                }
                if std::time::Instant::now() >= deadline {
                    break;
                }
                std::thread::yield_now();
                env = Box::new(Poison);
            }
        }
    }
}

/// A unit of work shipped to one worker.
type Job = Box<dyn FnOnce(&mut NodeCtx) + Send>;

/// A resident pool of `p` node workers. Obtain one via [`global`]; all
/// launches for a given (machine size, transport) share it.
pub struct Pool {
    p: usize,
    kind: TransportKind,
    workers: Vec<Sender<Job>>,
    /// Serializes dispatches: interleaving jobs from two epochs on
    /// shared workers could deadlock nodes that exchange data.
    gate: Mutex<()>,
    /// [`POOL_TICK`] stamp of the last registry hit or dispatch — the
    /// recency signal admission control's LRU eviction scans.
    last_used: AtomicU64,
}

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True on pool worker threads. Nested launches from inside a node body
/// fall back to the scoped path — dispatching to the (busy) pool from
/// one of its own workers would deadlock on the gate.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Borrowed node body, erased to a raw pointer so the `'static` [`Job`]
/// channel can carry it. Soundness: the dispatching frame blocks in
/// [`EpochBarrier`] until every job holding a copy has acknowledged, so
/// the pointee strictly outlives every dereference.
#[derive(Clone, Copy)]
struct BodyPtr(*const (dyn Fn(usize, &mut NodeCtx) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// fine) and the epoch barrier keeps it alive for the job's lifetime.
#[allow(unsafe_code)]
unsafe impl Send for BodyPtr {}

/// Completion barrier for one dispatch epoch; doubles as an unwind
/// guard — its `Drop` blocks until every shipped job has acknowledged,
/// so a borrowed body can never dangle while a worker might call it.
struct EpochBarrier {
    ack_rx: Receiver<Option<Box<dyn Any + Send>>>,
    outstanding: usize,
}

impl EpochBarrier {
    /// Blocks until every outstanding job acknowledges; returns the
    /// first panic payload observed, if any.
    fn wait(&mut self) -> Option<Box<dyn Any + Send>> {
        let mut first = None;
        while self.outstanding > 0 {
            match self.ack_rx.recv() {
                Ok(payload) => {
                    self.outstanding -= 1;
                    if first.is_none() {
                        first = payload;
                    }
                }
                // All ack senders dropped: no job can still reference
                // the dispatched body.
                Err(_) => self.outstanding = 0,
            }
        }
        first
    }
}

impl Drop for EpochBarrier {
    fn drop(&mut self) {
        let _ = self.wait();
    }
}

impl Pool {
    /// Boots `p` resident workers with a fresh fabric of the given kind.
    fn new(p: usize, kind: TransportKind) -> Pool {
        assert!(p >= 1, "machine needs at least one node");
        let endpoints = transport::connect(kind, p);
        let mut workers = Vec::with_capacity(p);
        for (m, link) in endpoints.into_iter().enumerate() {
            let (jtx, jrx) = channel::<Job>();
            workers.push(jtx);
            let mut ctx = NodeCtx::new(m, kind, link);
            std::thread::Builder::new()
                // The thread name is the default trace-lane label, so
                // pooled counters land on `node-<m>` lanes exactly like
                // scoped ones.
                .name(format!("node-{m}"))
                .spawn(move || {
                    IN_WORKER.with(|f| f.set(true));
                    while let Ok(job) = jrx.recv() {
                        job(&mut ctx);
                    }
                })
                .expect("spawn pool worker");
        }
        Pool {
            p,
            kind,
            workers,
            gate: Mutex::new(()),
            last_used: AtomicU64::new(0),
        }
    }

    /// Stamps this pool as the most recently used resident pool.
    fn touch(&self) {
        let tick = POOL_TICK.fetch_add(1, Ordering::Relaxed) + 1;
        self.last_used.store(tick, Ordering::Relaxed);
    }

    /// Whether no dispatch currently holds the epoch gate. Admission
    /// control only evicts idle pools; a busy pool stays resident no
    /// matter how stale its stamp is.
    fn is_idle(&self) -> bool {
        // `Ok` (briefly acquired, dropped immediately) and `Poisoned`
        // both mean nobody is dispatching right now.
        !matches!(
            self.gate.try_lock(),
            Err(std::sync::TryLockError::WouldBlock)
        )
    }

    /// The machine size this pool serves.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The fabric this pool's node contexts exchange envelopes over.
    pub fn transport(&self) -> TransportKind {
        self.kind
    }

    /// Runs `body(m, ctx)` once on every node and blocks until all have
    /// finished (one epoch). If any node job panicked, drains the fabric
    /// and re-raises the first panic; the pool remains usable.
    pub fn dispatch(&self, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) {
        self.dispatch_lanes(self.p, body)
    }

    /// [`Pool::dispatch`] on the first `lanes` workers only: `body(m,
    /// ctx)` runs for `m < lanes`. The other workers stay parked, and
    /// the epoch still holds the whole pool's gate.
    pub(crate) fn dispatch_lanes(&self, lanes: usize, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) {
        assert!(
            (1..=self.p).contains(&lanes),
            "a dispatch runs on 1..=p workers"
        );
        use std::sync::atomic::{AtomicU64, Ordering};
        static INFLIGHT: AtomicU64 = AtomicU64::new(0);
        /// Decrements the in-flight depth and samples the gauge on the way
        /// out, so the track returns to its resting level.
        struct DepthGuard;
        impl Drop for DepthGuard {
            fn drop(&mut self) {
                let depth = INFLIGHT.fetch_sub(1, Ordering::Relaxed) - 1;
                bcag_trace::gauge("pool_dispatch_inflight", depth);
            }
        }
        let _sp = bcag_trace::span("pool.dispatch");
        let _t = bcag_trace::timed_span("pool_dispatch_ns");
        // Sampled before the gate: concurrent drivers queued on the same
        // pool show up as depth > 1 in the timeline.
        let _depth = bcag_trace::enabled().then(|| {
            let depth = INFLIGHT.fetch_add(1, Ordering::Relaxed) + 1;
            bcag_trace::gauge("pool_dispatch_inflight", depth);
            DepthGuard
        });
        self.touch();
        let _gate = lock_clean(&self.gate);
        if let Some(payload) = self.run_epoch(lanes, body) {
            // Jobs stopped mid-protocol: stray data and poison envelopes
            // may still sit in inboxes. Scrub before releasing the gate
            // so the next dispatch starts clean.
            let _ = self.run_epoch(self.p, &|_, ctx| ctx.drain_inbox());
            resume_unwind(payload);
        }
    }

    /// Ships one job to each of the first `lanes` workers and waits out
    /// the epoch, returning the first panic payload if any job panicked.
    fn run_epoch(
        &self,
        lanes: usize,
        body: &(dyn Fn(usize, &mut NodeCtx) + Sync),
    ) -> Option<Box<dyn Any + Send>> {
        // SAFETY (lifetime erasure): a plain `as` cast cannot widen the
        // trait-object lifetime to the pointer's `'static` default, so
        // the fat pointer is transmuted instead. The pointer is only
        // dereferenced inside a job, strictly before that job's ack.
        #[allow(unsafe_code)]
        let ptr = BodyPtr(unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, &mut NodeCtx) + Sync),
                *const (dyn Fn(usize, &mut NodeCtx) + Sync),
            >(body)
        });
        let (ack_tx, ack_rx) = channel();
        let mut barrier = EpochBarrier {
            ack_rx,
            outstanding: 0,
        };
        for (m, worker) in self.workers.iter().take(lanes).enumerate() {
            let ack = ack_tx.clone();
            let job: Job = Box::new(move |ctx| {
                // Capture the whole `BodyPtr` (which is `Send`), not the
                // disjoint raw-pointer field (which is not).
                let ptr = ptr;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    // SAFETY: the dispatching frame is blocked in the
                    // epoch barrier until this job's ack below, so the
                    // pointee outlives this call.
                    #[allow(unsafe_code)]
                    let body = unsafe { &*ptr.0 };
                    body(m, ctx)
                }));
                let payload = match outcome {
                    Ok(()) => None,
                    Err(payload) => {
                        ctx.poison_peers();
                        Some(payload)
                    }
                };
                let _ = ack.send(payload);
            });
            worker.send(job).expect("pool worker thread alive");
            barrier.outstanding += 1;
        }
        drop(ack_tx);
        barrier.wait()
    }
}

/// Global recency clock for pool admission control: every registry hit
/// and dispatch takes a tick and stamps it on the pool it used.
static POOL_TICK: AtomicU64 = AtomicU64::new(0);

/// Resolves the resident-pool cap from `BCAG_MAX_POOLS`. An explicit
/// positive integer is respected verbatim; unset or unparseable falls
/// back to the host's core count (floor 2, so single-core CI machines
/// can still keep a pool per transport under A/B tests without churn).
fn parse_max_pools(var: Option<&str>) -> usize {
    match var.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => host_threads().max(2),
    }
}

/// The process-wide resident-pool cap (see [`parse_max_pools`]), read
/// once from the environment.
fn max_pools() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| parse_max_pools(std::env::var("BCAG_MAX_POOLS").ok().as_deref()))
}

/// Counts pools currently registered across all shards.
fn resident_pools() -> usize {
    registry().iter().map(|shard| read_clean(shard).len()).sum()
}

/// Admission control for pool boot: while at least `cap` pools are
/// resident, evicts the least-recently-used *idle* pool so the caller's
/// boot doesn't grow the fleet past the cap. Pools matching the caller's
/// own `(keep_p, keep_kind)` key are never victims — a racing booter of
/// the same key must find the freshly booted pool, not evict it.
///
/// Best-effort by design: if every resident pool is mid-dispatch the new
/// pool is admitted over the cap rather than blocking the caller. The
/// registry drops only its own `Arc`; in-flight holders keep an evicted
/// pool (and its worker threads) alive until their dispatches finish,
/// after which the workers exit when the last `Arc` drops.
fn enforce_pool_cap(cap: usize, keep_p: usize, keep_kind: TransportKind) {
    while resident_pools() >= cap {
        // Scan for the stalest idle pool. Read locks only, one shard at
        // a time, nothing held across the eviction below — no ordering
        // hazard against concurrent lookups or boots.
        let mut victim: Option<(usize, u64, Arc<Pool>)> = None;
        for (i, shard) in registry().iter().enumerate() {
            for pool in read_clean(shard).iter() {
                if pool.p == keep_p && pool.kind == keep_kind {
                    continue;
                }
                if !pool.is_idle() {
                    continue;
                }
                let stamp = pool.last_used.load(Ordering::Relaxed);
                if victim.as_ref().map_or(true, |(_, s, _)| stamp < *s) {
                    victim = Some((i, stamp, Arc::clone(pool)));
                }
            }
        }
        let Some((i, _, victim)) = victim else {
            // Every pool is busy (or matches the caller's key): admit
            // over the cap rather than stall the boot.
            return;
        };
        write_clean(&registry()[i]).retain(|q| !Arc::ptr_eq(q, &victim));
        bcag_trace::count("pool_evictions", 1);
    }
}

/// Lock domains of the pool registry. Every `Machine::new` and
/// `CommSchedule` execution resolves its pool through the registry, so
/// like the schedule cache it must not funnel concurrent drivers through
/// one exclusive lock; 16 shards is far past the handful of
/// (machine size, transport) pairs a process ever runs.
const REGISTRY_SHARDS: usize = 16;

/// Registry of resident pools, one per (machine size, transport) ever
/// requested: a sharded read-mostly map. The steady-state path (pool
/// already booted) takes one shared lock on the key's shard; the
/// write lock doubles as single-flight arbitration for the one-time
/// worker boot.
fn registry() -> &'static [RwLock<Vec<Arc<Pool>>>; REGISTRY_SHARDS] {
    static REGISTRY: OnceLock<[RwLock<Vec<Arc<Pool>>>; REGISTRY_SHARDS]> = OnceLock::new();
    REGISTRY.get_or_init(|| std::array::from_fn(|_| RwLock::new(Vec::new())))
}

/// The registry shard for a (machine size, transport) key: high FxHash
/// bits, like the schedule cache's shard selection.
fn registry_shard(p: usize, kind: TransportKind) -> &'static RwLock<Vec<Arc<Pool>>> {
    let hash = bcag_harness::hash::hash_one(&(p, kind));
    &registry()[(hash >> 32) as usize & (REGISTRY_SHARDS - 1)]
}

/// The resident pool for machine size `p` on the process-default
/// transport, booting it on first use.
pub fn global(p: i64) -> Arc<Pool> {
    global_with(p, transport::default_transport())
}

/// The resident pool for machine size `p` on an explicit transport.
///
/// Boots are admission-controlled: at most `BCAG_MAX_POOLS` pools
/// (default: host core count) stay registered, with idle
/// least-recently-used pools evicted to make room — a long-lived driver
/// cycling through many machine sizes doesn't accumulate `Σpᵢ` parked
/// worker threads.
pub fn global_with(p: i64, kind: TransportKind) -> Arc<Pool> {
    assert!(p >= 1, "machine needs at least one node");
    let p = p as usize;
    let shard = registry_shard(p, kind);
    {
        let pools = read_clean(shard);
        if let Some(pool) = pools.iter().find(|pool| pool.p == p && pool.kind == kind) {
            pool.touch();
            return Arc::clone(pool);
        }
    }
    // Make room before booting: evict idle LRU pools (never this key's)
    // while the fleet is at the cap. No locks held here, so the scan's
    // shard reads and the eviction's shard write cannot deadlock against
    // the write lock below.
    enforce_pool_cap(max_pools(), p, kind);
    let mut pools = write_clean(shard);
    // Double-check under the write lock: a racing driver may have booted
    // this pool between our read probe and here. The write lock makes
    // the boot single-flight — `p` worker threads spawn exactly once.
    if let Some(pool) = pools.iter().find(|pool| pool.p == p && pool.kind == kind) {
        pool.touch();
        return Arc::clone(pool);
    }
    let pool = Arc::new(Pool::new(p, kind));
    pool.touch();
    pools.push(Arc::clone(&pool));
    drop(pools);
    if bcag_trace::enabled() {
        bcag_trace::gauge("resident_pools", resident_pools() as u64);
    }
    pool
}

/// Eagerly boots the pool for machine size `p`, so the first statement
/// of a script doesn't pay the one-time worker spawn. No-op inside an
/// `spmd` node process, where node bodies run inline (each process *is*
/// one node).
pub fn warm(p: i64) {
    if transport::proc::active().is_some() {
        return;
    }
    let _ = global(p);
}

/// Runs `body(m, ctx)` on every node of a `p`-node machine on the
/// process-default transport and blocks until all finish.
pub fn launch<F>(p: i64, mode: LaunchMode, body: F)
where
    F: Fn(usize, &mut NodeCtx) + Sync,
{
    launch_with(p, mode, transport::default_transport(), body)
}

/// Runs `body(m, ctx)` on every node of a `p`-node machine and blocks
/// until all finish. `Pooled` dispatches to the resident pool for
/// `(p, kind)`; `Scoped` (or any launch from inside a pool worker)
/// spawns a per-call `thread::scope` with a fresh fabric and arenas.
///
/// Inside an `spmd` node process (multi-process session installed), the
/// process *is* one node: bodies run inline on the calling thread for
/// every node index, against a loopback fabric. Node-to-node data of
/// comm executors never reaches this path there — `CommSchedule`
/// execution detects the session first and uses the serialized wire —
/// so inline bodies are compute-only and the replicated execution keeps
/// every node's local-memory image consistent within each process.
pub fn launch_with<F>(p: i64, mode: LaunchMode, kind: TransportKind, body: F)
where
    F: Fn(usize, &mut NodeCtx) + Sync,
{
    assert!(p >= 1, "machine needs at least one node");
    if transport::proc::active().is_some() {
        return launch_inline(p as usize, &body);
    }
    match mode {
        LaunchMode::Pooled if !in_worker() => global_with(p, kind).dispatch(&body),
        _ => launch_scoped(p as usize, kind, &body),
    }
}

/// Hardware threads of the host, read once.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Whether the caller is itself a pool worker or a multi-process node,
/// where launches must not dispatch to a pool.
fn nested() -> bool {
    in_worker() || transport::proc::active().is_some()
}

/// How many lanes [`launch_lanes`] should run a `p`-node epoch on: one
/// per hardware thread, at most `p` — and one, inline on the caller,
/// when the caller is itself a pool worker or a multi-process node.
pub(crate) fn lanes_for(p: usize) -> usize {
    if nested() {
        1
    } else {
        p.min(host_threads())
    }
}

/// Runs `body(lane, arena)` on `lanes` concurrent lanes of a `p`-node
/// machine and blocks until all finish; the body decides which node
/// programs each lane runs. `Pooled` dispatches to the first `lanes`
/// workers of the `(p, kind)` resident pool, so the lanes use those
/// workers' buffer arenas and no pool of another size boots. A single
/// lane requested from inside a pool worker or a multi-process node
/// runs inline on the caller; anything else that cannot use the pool
/// spawns `lanes` scoped threads with fresh arenas. The body must not
/// panic: lanes meet at barriers the body owns, so it has to catch its
/// own panics and keep arriving.
pub(crate) fn launch_lanes(
    p: usize,
    lanes: usize,
    mode: LaunchMode,
    kind: TransportKind,
    body: &(dyn Fn(usize, &mut BufferArena) + Sync),
) {
    assert!((1..=p).contains(&lanes), "an epoch runs on 1..=p lanes");
    let nested = nested();
    if lanes == 1 && nested {
        return body(0, &mut BufferArena::default());
    }
    if mode == LaunchMode::Pooled && !nested {
        return global_with(p as i64, kind)
            .dispatch_lanes(lanes, &|lane, ctx| body(lane, ctx.arena()));
    }
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            scope.spawn(move || {
                let _lane = bcag_trace::enabled()
                    .then(|| bcag_trace::set_lane_label(&format!("node-{lane}")));
                body(lane, &mut BufferArena::default());
            });
        }
    });
}

/// The historical launch path: fresh threads, fresh fabric, fresh
/// arenas, one `thread::scope` per call.
fn launch_scoped(p: usize, kind: TransportKind, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) {
    let mut ctxs: Vec<NodeCtx> = transport::connect(kind, p)
        .into_iter()
        .enumerate()
        .map(|(m, link)| NodeCtx::new(m, kind, link))
        .collect();
    // Same poison protocol as the pooled epoch: a panicking body must
    // release peers blocked in `recv` instead of deadlocking the scope
    // join, and the first panic is re-raised after everyone returns.
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for ctx in ctxs.iter_mut() {
            let first_panic = &first_panic;
            scope.spawn(move || {
                let _lane = bcag_trace::enabled()
                    .then(|| bcag_trace::set_lane_label(&format!("node-{}", ctx.m)));
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(ctx.m, ctx))) {
                    ctx.poison_peers();
                    let mut slot = lock_clean(first_panic);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            });
        }
    });
    if let Some(payload) = into_clean(first_panic) {
        resume_unwind(payload);
    }
}

/// The multi-process session path: runs every node body sequentially on
/// the calling thread (this process's trace lane is its node's lane).
/// Each body gets a fresh single-node loopback context; fabric traffic
/// would deadlock by construction, which is exactly right — compute
/// bodies must not communicate here.
fn launch_inline(p: usize, body: &(dyn Fn(usize, &mut NodeCtx) + Sync)) {
    for m in 0..p {
        let link = transport::connect(TransportKind::Mpsc, 1)
            .pop()
            .expect("one endpoint");
        let mut ctx = NodeCtx::new(m, TransportKind::Mpsc, link);
        body(m, &mut ctx);
    }
}

/// Builds the access patterns of all `p` processors with per-processor
/// construction fanned out over the SPMD workers (pool-parallel
/// counterpart of `bcag_core::method::build` in a loop).
pub fn build_all(problem: &Problem, method: Method) -> Result<Vec<AccessPattern>> {
    let _sp = bcag_trace::span("pool.build_all");
    let slots: Vec<Mutex<Option<Result<AccessPattern>>>> =
        (0..problem.p()).map(|_| Mutex::new(None)).collect();
    launch(problem.p(), default_launch(), |m, _ctx| {
        let result = bcag_core::method::build(problem, m as i64, method);
        *lock_clean(&slots[m]) = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| into_clean(slot).expect("node completed"))
        .collect()
}

/// Locks a mutex, ignoring poisoning: node bodies are panic-isolated by
/// the epoch barrier, so a poisoned flag carries no extra information.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unwraps a mutex into its value, ignoring poisoning (see
/// [`lock_clean`]).
pub(crate) fn into_clean<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Shared-locks an `RwLock`, ignoring poisoning (see [`lock_clean`]).
pub(crate) fn read_clean<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks an `RwLock`, ignoring poisoning (see [`lock_clean`]).
pub(crate) fn write_clean<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_runs_every_node_once() {
        let pool = global(6);
        let hits: Vec<Mutex<u32>> = (0..6).map(|_| Mutex::new(0)).collect();
        pool.dispatch(&|m, _ctx| {
            *lock_clean(&hits[m]) += 1;
        });
        pool.dispatch(&|m, _ctx| {
            *lock_clean(&hits[m]) += 10;
        });
        for h in &hits {
            assert_eq!(*lock_clean(h), 11);
        }
    }

    #[test]
    fn fabric_ring_pass() {
        for kind in TransportKind::ALL {
            for mode in [LaunchMode::Pooled, LaunchMode::Scoped] {
                let p = 5usize;
                let got: Vec<Mutex<i64>> = (0..p).map(|_| Mutex::new(-1)).collect();
                launch_with(p as i64, mode, kind, |m, ctx| {
                    ctx.send((m + 1) % p, Box::new(m as i64));
                    let env = ctx.recv();
                    *lock_clean(&got[m]) = *env.downcast::<i64>().expect("ring payload");
                });
                for (m, slot) in got.iter().enumerate() {
                    let want = ((m + p - 1) % p) as i64;
                    assert_eq!(*lock_clean(slot), want, "{} {mode:?} node {m}", kind.name());
                }
            }
        }
    }

    #[test]
    fn barrier_synchronizes_all_backends() {
        for kind in TransportKind::ALL {
            let p = 4usize;
            let after: Vec<Mutex<u32>> = (0..p).map(|_| Mutex::new(0)).collect();
            launch_with(p as i64, LaunchMode::Scoped, kind, |m, ctx| {
                ctx.barrier();
                *lock_clean(&after[m]) += 1;
                ctx.barrier();
                // After the second barrier every node observed every
                // other node's first increment.
                let sum: u32 = after.iter().map(|s| *lock_clean(s)).sum();
                assert_eq!(sum, p as u32, "{} node {m}", kind.name());
            });
        }
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena = BufferArena::default();
        let mut buf: Vec<i64> = arena.take();
        assert_eq!(buf.capacity(), 0);
        buf.extend(0..100);
        let cap = buf.capacity();
        arena.put(buf);
        let again: Vec<i64> = arena.take();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "capacity survives recycling");
        // Different payload types use different shelves.
        let other: Vec<u8> = arena.take();
        assert_eq!(other.capacity(), 0);
    }

    #[test]
    fn nested_launch_falls_back_to_scoped() {
        let outer: Vec<Mutex<usize>> = (0..3).map(|_| Mutex::new(0)).collect();
        launch(3, LaunchMode::Pooled, |m, _ctx| {
            // A body that itself launches a machine must not dead-lock
            // on the pool gate.
            let inner: Vec<Mutex<usize>> = (0..2).map(|_| Mutex::new(0)).collect();
            launch(2, LaunchMode::Pooled, |j, _ctx| {
                *lock_clean(&inner[j]) += 1;
            });
            let total: usize = inner.iter().map(|s| *lock_clean(s)).sum();
            *lock_clean(&outer[m]) = total;
        });
        for slot in &outer {
            assert_eq!(*lock_clean(slot), 2);
        }
    }

    #[test]
    fn panic_poisons_and_pool_survives() {
        let pool = global(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(&|m, ctx| {
                if m == 1 {
                    panic!("node job exploded");
                }
                if m == 2 {
                    // Blocked on data that will never come: must be
                    // released by node 1's poison, not hang.
                    let _ = ctx.recv();
                }
            });
        }));
        assert!(err.is_err(), "dispatch re-raises the node panic");
        // The pool stays usable and the fabric is clean.
        let clean: Vec<Mutex<bool>> = (0..4).map(|_| Mutex::new(false)).collect();
        pool.dispatch(&|m, ctx| {
            *lock_clean(&clean[m]) = ctx.fabric_is_clean();
        });
        for (m, slot) in clean.iter().enumerate() {
            assert!(*lock_clean(slot), "node {m} inbox drained after panic");
        }
    }

    #[test]
    fn registry_shares_one_pool_per_key() {
        let _serial = lock_clean(&REGISTRY_TEST_LOCK);
        let a = global_with(3, TransportKind::Mpsc);
        let b = global_with(3, TransportKind::Mpsc);
        assert!(Arc::ptr_eq(&a, &b));
        let other_kind = global_with(3, TransportKind::Shm);
        assert!(!Arc::ptr_eq(&a, &other_kind));
        let other_p = global_with(2, TransportKind::Mpsc);
        assert!(!Arc::ptr_eq(&a, &other_p));
    }

    #[test]
    fn concurrent_lookups_boot_one_pool() {
        let _serial = lock_clean(&REGISTRY_TEST_LOCK);
        // The shard write lock is the boot arbiter: 8 racing drivers
        // must share a single pool (worker threads spawn exactly once).
        let gate = std::sync::Barrier::new(8);
        let pools: Vec<Arc<Pool>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        global_with(9, TransportKind::Shm)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pool in &pools[1..] {
            assert!(Arc::ptr_eq(&pools[0], pool));
        }
    }

    /// Serializes the tests that assert on registry identity against
    /// the admission test's evictions (parallel test threads otherwise
    /// race on the shared process-wide registry).
    static REGISTRY_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Whether a pool for `(p, kind)` is currently registered.
    fn registered(p: usize, kind: TransportKind) -> bool {
        read_clean(registry_shard(p, kind))
            .iter()
            .any(|pool| pool.p == p && pool.kind == kind)
    }

    #[test]
    fn max_pools_parses_env_with_core_count_fallback() {
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(2);
        assert_eq!(parse_max_pools(Some("3")), 3);
        assert_eq!(parse_max_pools(Some(" 12 ")), 12);
        assert_eq!(parse_max_pools(Some("1")), 1);
        assert_eq!(parse_max_pools(Some("0")), fallback);
        assert_eq!(parse_max_pools(Some("lots")), fallback);
        assert_eq!(parse_max_pools(None), fallback);
        assert!(max_pools() >= 1);
    }

    #[test]
    fn admission_evicts_idle_lru_pools() {
        let _serial = lock_clean(&REGISTRY_TEST_LOCK);
        // Machine sizes unique to this test, so concurrent tests' pools
        // are unrelated and cross-test Arc identities stay unaffected
        // (evicted pools survive through held Arcs anyway). Registered
        // directly rather than via `global_with`, whose own boot-time
        // admission would evict the earlier keys before the scenario is
        // even set up; the stamp order is 31 < 32 < 33 < 34.
        let held: Vec<Arc<Pool>> = [31usize, 32, 33, 34]
            .iter()
            .map(|&p| {
                let pool = Arc::new(Pool::new(p, TransportKind::Shm));
                pool.touch();
                write_clean(registry_shard(p, TransportKind::Shm)).push(Arc::clone(&pool));
                pool
            })
            .collect();
        for &p in &[31usize, 32, 33, 34] {
            assert!(registered(p, TransportKind::Shm));
        }
        // Cap of 2 with a keep-key matching none of them: the three
        // stalest idle pools must be evicted, leaving the fleet under
        // the cap with only the most recently used survivor.
        enforce_pool_cap(2, 0, TransportKind::Mpsc);
        assert!(!registered(31, TransportKind::Shm), "LRU pool evicted");
        assert!(!registered(32, TransportKind::Shm));
        assert!(!registered(33, TransportKind::Shm));
        // Eviction drops only the registry's Arc: held pools still
        // dispatch fine, and a fresh lookup re-boots a new pool.
        held[0].dispatch(&|_m, _ctx| {});
        let reborn = global_with(31, TransportKind::Shm);
        assert!(!Arc::ptr_eq(&held[0], &reborn), "evicted key re-boots");
    }

    #[test]
    fn build_all_matches_sequential() {
        let problem = Problem::new(7, 5, 3, 4).unwrap();
        let pooled = build_all(&problem, Method::Lattice).unwrap();
        let seq: Vec<AccessPattern> = (0..7)
            .map(|m| bcag_core::method::build(&problem, m, Method::Lattice).unwrap())
            .collect();
        assert_eq!(pooled, seq);
    }
}
