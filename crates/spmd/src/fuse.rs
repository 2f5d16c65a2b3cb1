//! The plan compiler: fuse a whole statement's schedule, pack and compute
//! into one per-node epoch that runs the paper's periodic tables.
//!
//! The interpreted statement path ([`crate::statement::assign_expr`])
//! pays per-statement orchestration every epoch: one full schedule
//! execution — pool dispatch, whole-array staging clone, per-run shape
//! dispatch — *per operand*, plus a final compute dispatch. The paper's
//! point is that all of that structure is computable ahead of execution,
//! and that it is small: a node's access sequence is a start address plus
//! a gap table whose period is at most `k`, repeated with a constant
//! local-address advance.
//!
//! This module compiles a statement shape once into a [`FusedStatement`]:
//! a per-node program whose every phase is a plain index loop over such a
//! periodic table (a `Walk`: element `i` sits at
//! `base + (i / L)·advance + offs[i % L]`).
//!
//! - **Transfer rows are built folded to their period.** For operand `B`
//!   against LHS `A`, the owners of section rank `t` on both sides repeat
//!   every `T = lcm(p·k_a / gcd(s_a, p·k_a), p·k_b / gcd(s_b, p·k_b))`
//!   ranks, and the local addresses advance by `(T·s_b/p, T·s_a/p)` (the
//!   periodicity lemma, pinned by a unit test). So every `(src, dst)` row
//!   of the communication schedule is its first `L` entries repeated with
//!   that advance, and the compiler never builds the schedule: it places
//!   the ranks `t < min(T, count)` with `Layout::owner`/`local_addr` on
//!   both sides, buckets them by row with one counting sort, and derives
//!   each row's length from `count / T` whole periods plus the ranks of a
//!   partial last one — `O(min(T, count))` work and memory per operand.
//!   On shapes whose period outlasts the section the rows are whole, so
//!   nothing is lost. Each row's run count (for the canonical wire
//!   charge and `runs_coalesced`) streams the schedule's greedy run rule
//!   over the expanded row in `O(1)` memory.
//! - **Staging by LHS ordinal.** The receiving side of every row is
//!   stored as LHS *ordinals*: the position of the destination element in
//!   the node's own access sequence, counted per receiver while the ranks
//!   are placed. Each node stages its operands in one buffer of
//!   `owned × operands` values (one ordinal block of them when blocked,
//!   below), interleaved so that the apply loop reads an element's
//!   argument list as one contiguous slice. The transfers are a
//!   bijection between the sections, so every slot is written exactly
//!   once per epoch: no snapshot of the LHS is taken.
//! - **Apply walks the node's ΔM table** ([`NodePlan::delta_m`]) in access
//!   order, reading the staging buffer sequentially.
//!
//! Gather, same-node move and scatter copy a whole period as one slice
//! when its table is contiguous on both sides, and index through the
//! table otherwise. Because the compiler sees every operand at once it
//! also **coalesces messages by destination**: all logical (operand,
//! peer) messages of the statement merge into one physical message per
//! peer and block — an optimization the interpreted path structurally
//! cannot perform, since it exchanges operand by operand in separate
//! epochs. Trace counters are still charged per logical message at
//! canonical wire size, so deterministic totals keep parity.
//!
//! **Execution: block rounds on a few lanes.** Every node's sends and
//! receives are known at compile time down to the block, so no node has
//! to wait to learn what it gets, and the `p` node programs need not be
//! `p` blocked threads. [`FusedStatement::execute`] runs them on
//! `W = min(p, hardware threads)` lanes — the first `W` workers of the
//! statement's `(p, kind)` pool, in one dispatch — in rounds: round `b`
//! gathers every node's block-`b` messages into the lanes' outboxes, the
//! lanes meet at a barrier, and every node then moves, scatters and
//! applies its block `b`. Node programs are claimed one at a time within
//! a phase, messages never touch the transport fabric, and at most one
//! block per `(src, dst)` pair is in flight (see [`Epoch`]). An epoch
//! launched from inside a pool worker runs inline on that worker. A
//! panic in `f` is caught per node program; the lanes keep meeting their
//! barriers, the caller re-raises the first payload, and the pool stays
//! usable.
//!
//! Programs are cached in the sharded plan cache ([`crate::cache::fused`])
//! next to the LHS node plans they walk, so single-flight builds and LRU
//! eviction cover them for free; no schedule is cached for them. Each
//! node program keeps its period tables, block splits and outbox layout
//! in one arena; nothing an execution needs beyond them is kept on the
//! program — outboxes and staging come from the lanes' buffer arenas.
//! The fused path is selected by
//! [`default_fused`] (`BCAG_FUSE=on|off`, default on) and keeps **bit-exact
//! parity** with the interpreted path: every LHS element is computed from
//! the same argument values, and every deterministic trace counter total
//! (`elements_moved`, `messages_sent`, `transport_bytes_tx/_rx`,
//! `runs_coalesced`, …) matches the interpreted path's by construction.
//!
//! Under [`bcag_core::tune::TuneMode::Auto`] (the default) epochs whose
//! working set spills L2 are **blocked** by ranges of the receiving
//! node's ordinals: [`epoch_block_elems`] derives an L2-resident block
//! size, and each block is one round. Every peer sends one message per
//! non-empty block of the receiver, cut at element indices of the same
//! table walks (sender and receiver share the split points from compile
//! time, so a message carries only values), and the receiver moves,
//! scatters and applies one block at a time through a block-sized
//! staging buffer. An unblocked epoch is a single round. The block size
//! is part of the fused cache key, so `BCAG_TUNE` A/B flips never reuse
//! programs compiled for the other regime.
//!
//! Inside a `bcag spmd` node process the fused path is not used — the
//! multi-process executor has its own shadow-application protocol — so
//! [`crate::statement::assign_expr`] falls back to the interpreted path
//! whenever a proc session is active.
//!
//! [`NodePlan::delta_m`]: crate::assign::NodePlan::delta_m

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use bcag_core::error::{BcagError, Result};
use bcag_core::method::Method;
use bcag_core::numth::gcd;
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;
use bcag_core::tune::{self, TuneMode};
use bcag_core::Layout;

use crate::assign::NodePlan;
use crate::cache;
use crate::comm::schedule::{check_sections, transfer_runs};
use crate::comm::wire::{self, PackValue};
use crate::comm::{ExecMode, Transfer};
use crate::darray::DistArray;
use crate::pack::{self, PackMode};
use crate::pool::{self, into_clean, lock_clean, read_clean, write_clean, BufferArena, LaunchMode};
use crate::transport::{self, TransportKind};

/// Whether [`crate::statement::assign_expr`] routes statements through
/// the fused plan compiler or the interpreted per-operand path — the A/B
/// switch of the fusion work, in the spirit of [`LaunchMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedMode {
    /// Compile and run fused per-node epochs (the default).
    On,
    /// Interpret the statement operand by operand (the historical path).
    Off,
}

impl FusedMode {
    /// Short human-readable name (used by benches and the flight
    /// recorder).
    pub fn name(&self) -> &'static str {
        match self {
            FusedMode::On => "fused",
            FusedMode::Off => "interp",
        }
    }
}

/// 0 = unset (read the env var on first use), 1 = On, 2 = Off.
static DEFAULT_FUSED: AtomicU8 = AtomicU8::new(0);

/// The process-default [`FusedMode`]. First use reads `BCAG_FUSE`
/// (`off`/`0` disable fusion, anything else — including unset — keeps it
/// on); later uses return the cached choice.
pub fn default_fused() -> FusedMode {
    match DEFAULT_FUSED.load(Ordering::Relaxed) {
        1 => FusedMode::On,
        2 => FusedMode::Off,
        _ => {
            let mode = match std::env::var("BCAG_FUSE") {
                Ok(v) if v.trim().eq_ignore_ascii_case("off") || v.trim() == "0" => FusedMode::Off,
                _ => FusedMode::On,
            };
            set_default_fused(mode);
            mode
        }
    }
}

/// Overrides the process-default [`FusedMode`] (benches and differential
/// tests flip this around [`crate::statement::assign_expr`] calls).
pub fn set_default_fused(mode: FusedMode) {
    let v = match mode {
        FusedMode::On => 1,
        FusedMode::Off => 2,
    };
    DEFAULT_FUSED.store(v, Ordering::Relaxed);
}

/// 0 = no fused epoch ran yet, 1 = last epoch was unblocked, 2 = last
/// epoch ran L2-blocked — the flight recorder's companion to
/// [`crate::pack::last_pack_mode`]. Process-global, so under concurrent
/// drivers it may report another statement's epoch; ask the program
/// itself ([`FusedStatement::blocked`]) where that matters.
static LAST_BLOCKED: AtomicU8 = AtomicU8::new(0);

pub(crate) fn note_blocked(blocked: bool) {
    LAST_BLOCKED.store(if blocked { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether the most recent fused epoch on this process ran L2-blocked;
/// `None` before any fused epoch executed.
pub fn last_blocked() -> Option<bool> {
    match LAST_BLOCKED.load(Ordering::Relaxed) {
        1 => Some(false),
        2 => Some(true),
        _ => None,
    }
}

/// Transfer block size (in elements) for a statement whose LHS section
/// is `sec_a`: zero (unblocked) under [`TuneMode::Fixed`], otherwise the
/// L2-residency cap of [`tune::block_elems_for`] — zero again when the
/// statement's working set fits. The value feeds [`compile`] and is part
/// of the fused cache key ([`crate::cache::fused`]), so `BCAG_TUNE` A/B
/// flips and test-local L2 overrides never share compiled programs.
pub fn epoch_block_elems<T: PackValue>(sec_a: &RegularSection) -> usize {
    match tune::default_tune() {
        TuneMode::Fixed => 0,
        TuneMode::Auto => tune::block_elems_for(
            sec_a.count() as u64,
            std::mem::size_of::<T>(),
            tune::l2_bytes(),
        ),
    }
}

/// Calls `f(q, j0, j1)` once for every period `q` of a period-`period`
/// table that the element-index range `[lo, hi)` touches, with the slice
/// `j0..j1` of the table the range covers in that period.
#[inline]
fn for_each_period(period: usize, lo: usize, hi: usize, mut f: impl FnMut(usize, usize, usize)) {
    if lo >= hi {
        return;
    }
    let (mut q, mut j) = (lo / period, lo % period);
    let mut left = hi - lo;
    while left > 0 {
        let end = period.min(j + left);
        f(q, j, end);
        left -= end - j;
        q += 1;
        j = 0;
    }
}

/// A range of a node program's table arena, which holds every period
/// table and block split of the program back to back.
#[derive(Debug, Clone, Copy)]
struct Span {
    at: usize,
    len: usize,
}

impl Span {
    /// Appends `vals` to `arena` and returns where they landed.
    fn push(arena: &mut Vec<u32>, vals: &[u32]) -> Span {
        let at = arena.len();
        arena.extend_from_slice(vals);
        Span {
            at,
            len: vals.len(),
        }
    }

    fn of(self, arena: &[u32]) -> &[u32] {
        &arena[self.at..self.at + self.len]
    }

    /// Elements `splits[b]..splits[b + 1]` of a span holding block
    /// splits.
    fn block(self, arena: &[u32], b: usize) -> (usize, usize) {
        let s = self.of(arena);
        (s[b] as usize, s[b + 1] as usize)
    }
}

/// A periodic index stream — the paper's access-sequence form: element
/// `i` sits at `base + (i / L)·advance + offs[i % L]`, with `L` the
/// table's length and `offs[0] == 0`. Every gather, scatter, move and
/// apply loop of a fused epoch walks one of these. The one-period table
/// `offs` lives in the owning node program's arena, which every method
/// takes as `tables`.
#[derive(Debug, Clone, Copy)]
struct Walk {
    base: usize,
    /// Address advance per period (unused when the stream never wraps).
    advance: usize,
    /// One period of offsets from the period's base, strictly increasing.
    offs: Span,
    /// `offs[j] == j`: each period is one contiguous slice.
    contiguous: bool,
}

/// Narrows a table offset; local images past `u32::MAX` elements are out
/// of the fused path's range.
fn offset(v: usize) -> Result<u32> {
    u32::try_from(v)
        .map_err(|_| BcagError::Precondition("fused epochs address at most 2^32 elements per node"))
}

impl Walk {
    /// A walk over the one-period table `offs`, appended to `tables`.
    fn push(tables: &mut Vec<u32>, base: usize, advance: usize, offs: &[u32]) -> Walk {
        Walk {
            base,
            advance,
            contiguous: offs.iter().enumerate().all(|(j, &o)| o as usize == j),
            offs: Span::push(tables, offs),
        }
    }

    /// Address of element `i`.
    fn at(&self, tables: &[u32], i: usize) -> usize {
        let offs = self.offs.of(tables);
        let l = offs.len();
        self.base + (i / l) * self.advance + offs[i % l] as usize
    }

    /// Calls `f(base, offs)` once per period the element range `[lo, hi)`
    /// touches: those elements sit at `base + offs[..]`.
    #[inline]
    fn periods(&self, tables: &[u32], lo: usize, hi: usize, mut f: impl FnMut(usize, &[u32])) {
        let offs = self.offs.of(tables);
        for_each_period(offs.len(), lo, hi, |q, j0, j1| {
            f(self.base + q * self.advance, &offs[j0..j1])
        });
    }

    /// Appends elements `[lo, hi)` of the walk over `src` onto `out`.
    fn gather<T: Clone>(&self, tables: &[u32], out: &mut Vec<T>, src: &[T], lo: usize, hi: usize) {
        self.periods(tables, lo, hi, |base, offs| {
            if self.contiguous {
                let at = base + offs[0] as usize;
                out.extend_from_slice(&src[at..at + offs.len()]);
            } else {
                out.extend(offs.iter().map(|&o| src[base + o as usize].clone()));
            }
        });
    }

    /// Writes `vals` to elements `[lo, hi)` of the walk over `dst`, whose
    /// first element is address `origin`.
    fn scatter<T: Clone>(
        &self,
        tables: &[u32],
        dst: &mut [T],
        vals: &[T],
        (lo, hi): (usize, usize),
        origin: usize,
    ) {
        let mut vals = vals;
        self.periods(tables, lo, hi, |base, offs| {
            let (now, rest) = vals.split_at(offs.len());
            vals = rest;
            if self.contiguous {
                let at = base + offs[0] as usize - origin;
                dst[at..at + now.len()].clone_from_slice(now);
            } else {
                for (&o, v) in offs.iter().zip(now) {
                    dst[base + o as usize - origin] = v.clone();
                }
            }
        });
    }
}

/// Ranks after which the owners of a stride-`s` section on a `(p, k)`
/// layout repeat: `p·k / gcd(s, p·k)`.
fn rank_period(p: i64, k: i64, s: i64) -> Option<i64> {
    let pk = p.checked_mul(k)?;
    Some(pk / gcd(s, pk))
}

/// The joint rank period `T = lcm(T_a, T_b)` of `A(sec_a) = B(sec_b)`,
/// `T_x` the [`rank_period`] of each side. The periodicity lemma (tested
/// below): rank `t + T` has the same owner as rank `t` on both sides, and
/// local addresses advanced by `(T·s_b/p, T·s_a/p)` — `T·s` is a multiple
/// of `p·k`, so the element moves whole rounds of the layout. `None` when
/// `T` overflows; it then outlasts every section.
fn joint_period(p: i64, k_a: i64, s_a: i64, k_b: i64, s_b: i64) -> Option<i64> {
    let (ta, tb) = (rank_period(p, k_a, s_a)?, rank_period(p, k_b, s_b)?);
    (ta / gcd(ta, tb)).checked_mul(tb)
}

/// One rank of an operand's first joint period: the local addresses of
/// its element on the source (operand) and destination (LHS) nodes, and
/// the destination's ordinal — its position in the receiving node's
/// access sequence.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    rank: usize,
    src: i64,
    dst: i64,
    ord: usize,
}

/// The transfer rows of `A(sec_a) = B(sec_b)` folded to their first
/// period, without materializing the schedule: the section ranks
/// `t < min(T, count)` for the [`joint_period`] `T`, each placed by
/// `Layout::owner`/`local_addr` on both sides and bucketed by
/// `(source, destination)` row in rank order with one counting sort.
/// By the periodicity lemma rank `t + T` lands in the same row as rank
/// `t`, its addresses advanced by `step` and its ordinal by the ranks
/// below `T` the receiver owns, so these entries are every row's first
/// period. Work and memory are `O(min(T, count))`.
struct Fold {
    p: usize,
    count: usize,
    /// Ranks enumerated: `min(T, count)`.
    period: usize,
    /// `(source, destination)` local-address advance per period; zero
    /// when the section ends within the first period.
    step: (i64, i64),
    /// Per destination node: ordinal advance per period (the ranks below
    /// `period` it owns).
    ord_step: Vec<usize>,
    /// Row `src·p + dst` is `entries[rows[r]..rows[r + 1]]`.
    rows: Vec<usize>,
    entries: Vec<Entry>,
}

impl Fold {
    fn new(
        p: i64,
        k_a: i64,
        sec_a: &RegularSection,
        k_b: i64,
        sec_b: &RegularSection,
    ) -> Result<Fold> {
        check_sections(sec_a, sec_b)?;
        Problem::new(p, k_a, sec_a.l, sec_a.s)?;
        Problem::new(p, k_b, sec_b.l, sec_b.s)?;
        let (pu, count) = (p as usize, sec_a.count() as usize);
        let t = joint_period(p, k_a, sec_a.s, k_b, sec_b.s);
        let period = t.map_or(count, |t| count.min(t as usize));
        // Past the first period `T < count`, so `T·s` spans no more than
        // the section and cannot overflow.
        let step = if period < count {
            let t = period as i64;
            (t * sec_b.s / p, t * sec_a.s / p)
        } else {
            (0, 0)
        };
        let (lay_a, lay_b) = (Layout::from_raw(p, k_a), Layout::from_raw(p, k_b));
        let mut ord_step = vec![0usize; pu];
        let mut rows = vec![0usize; pu * pu + 1];
        let mut tagged = Vec::with_capacity(period);
        for t in 0..period {
            let (a, b) = (sec_a.l + t as i64 * sec_a.s, sec_b.l + t as i64 * sec_b.s);
            let dst = lay_a.owner(a) as usize;
            let r = lay_b.owner(b) as usize * pu + dst;
            let entry = Entry {
                rank: t,
                src: lay_b.local_addr(b),
                dst: lay_a.local_addr(a),
                ord: ord_step[dst],
            };
            ord_step[dst] += 1;
            rows[r + 1] += 1;
            tagged.push((r, entry));
        }
        for r in 0..pu * pu {
            rows[r + 1] += rows[r];
        }
        // Stable counting sort: each row keeps rank order.
        let mut cursor = rows[..pu * pu].to_vec();
        let mut entries = vec![Entry::default(); period];
        for (r, entry) in tagged {
            entries[cursor[r]] = entry;
            cursor[r] += 1;
        }
        Ok(Fold {
            p: pu,
            count,
            period,
            step,
            ord_step,
            rows,
            entries,
        })
    }

    /// The `src → dst` row.
    fn row(&self, src: usize, dst: usize) -> Row<'_> {
        let r = src * self.p + dst;
        let entries = &self.entries[self.rows[r]..self.rows[r + 1]];
        // Whole periods, then the ranks of a partial last one.
        let len = match self.period {
            0 => 0,
            t => {
                self.count / t * entries.len()
                    + entries.partition_point(|e| e.rank < self.count % t)
            }
        };
        Row {
            entries,
            len,
            step: self.step,
        }
    }
}

/// One folded transfer row: its first-period entries, and its length
/// over the whole section.
struct Row<'a> {
    entries: &'a [Entry],
    len: usize,
    step: (i64, i64),
}

/// What the greedy run rule makes of a row: the runs the interpreted
/// path would pack it into, and the coalesced (multi-element) ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RowRuns {
    runs: usize,
    segs: u64,
    seg_elems: u64,
}

impl Row<'_> {
    /// The row's transfers, expanded on the fly from the first period.
    fn transfers(&self) -> impl Iterator<Item = Transfer> + '_ {
        let (ds, dd) = self.step;
        (0i64..)
            .flat_map(move |q| {
                self.entries.iter().map(move |e| Transfer {
                    src_local: e.src + q * ds,
                    dst_local: e.dst + q * dd,
                })
            })
            .take(self.len)
    }

    /// Streams the row through the greedy run rule in `O(1)` memory.
    fn runs(&self) -> RowRuns {
        let mut out = RowRuns::default();
        transfer_runs(self.transfers(), |run| {
            out.runs += 1;
            if run.len >= 2 {
                out.segs += 1;
                out.seg_elems += run.len as u64;
            }
        });
        out
    }
}

/// A node's own access sequence as a walk appended to `tables`, and its
/// element count: the one-period offset table of the ΔM gaps, advancing
/// by their sum. A sequence shorter than one period keeps only the
/// offsets it visits.
fn lhs_walk(plan: &NodePlan, tables: &mut Vec<u32>) -> Result<(Walk, usize)> {
    let count = plan.runs.count();
    let Some(start) = plan.runs.start() else {
        return Ok((Walk::push(tables, 0, 0, &[]), 0));
    };
    let period = plan.delta_m.len().max(1).min(count);
    let mut offs = Vec::with_capacity(period);
    let mut at = 0usize;
    offs.push(0);
    for &gap in &plan.delta_m[..period - 1] {
        at += gap as usize;
        offs.push(offset(at)?);
    }
    let advance = if count > period {
        at + plan.delta_m[period - 1] as usize
    } else {
        0
    };
    Ok((Walk::push(tables, start as usize, advance, &offs), count))
}

/// One operand's share of a peer stream: a walk over operand `op`'s
/// local memory on the sender, over the staging buffer on the receiver,
/// split at the receiver's ordinal blocks (`splits`, see
/// [`Span::block`]; the last split is the element count). `charge` is
/// the canonical wire size of the logical (operand, peer) message, so
/// trace totals still match the interpreted path.
struct Part {
    op: usize,
    walk: Walk,
    splits: Span,
    charge: u64,
}

/// Everything one node exchanges with one peer per epoch: every
/// operand's part back to back in operand order, one physical message
/// per non-empty ordinal block of the receiver. The interpreted path
/// exchanges operand by operand in separate epochs; the fused compiler
/// sees the whole statement, so it merges them. Sender and receiver
/// share the split points, so a message carries only values.
struct PeerStream {
    peer: usize,
    /// On an inbound stream, its index among the sender's outgoing
    /// streams: where its message sits in the sender's outbox.
    slot: usize,
    parts: Vec<Part>,
}

impl PeerStream {
    /// Ordinal blocks of the receiver (messages, counting empty ones).
    fn blocks(&self) -> usize {
        self.parts.first().map_or(0, |p| p.splits.len - 1)
    }

    /// Elements the message of block `b` carries.
    fn block_len(&self, tables: &[u32], b: usize) -> usize {
        self.parts
            .iter()
            .map(|p| {
                let (lo, hi) = p.splits.block(tables, b);
                hi - lo
            })
            .sum()
    }

    /// Physical messages per epoch (non-empty blocks).
    fn messages(&self, tables: &[u32]) -> usize {
        (0..self.blocks())
            .filter(|&b| self.block_len(tables, b) > 0)
            .count()
    }

    /// Operand `op`'s part, if it has traffic on this stream.
    fn part(&self, op: usize) -> Option<&Part> {
        self.parts.iter().find(|p| p.op == op)
    }
}

/// Outgoing traffic to one peer, with its interned message-size key.
struct SendPlan {
    key: &'static str,
    stream: PeerStream,
}

/// One operand's same-node transfers: source addresses in the operand's
/// local memory, destinations in the staging buffer, both folded to the
/// same period and split at the node's ordinal blocks.
struct Move {
    op: usize,
    src: Walk,
    dst: Walk,
    splits: Span,
}

impl Move {
    /// Copies transfers `[lo, hi)` into the staging buffer, whose first
    /// element is slot `origin`.
    fn run<T: Clone>(
        &self,
        tables: &[u32],
        staging: &mut [T],
        src: &[T],
        (lo, hi): (usize, usize),
        origin: usize,
    ) {
        let (s, d) = (&self.src, &self.dst);
        let (s_offs, d_offs) = (s.offs.of(tables), d.offs.of(tables));
        for_each_period(s_offs.len(), lo, hi, |q, j0, j1| {
            let (sb, db) = (s.base + q * s.advance, d.base + q * d.advance);
            let (so, dof) = (&s_offs[j0..j1], &d_offs[j0..j1]);
            if s.contiguous && d.contiguous {
                let (sa, da) = (sb + so[0] as usize, db + dof[0] as usize - origin);
                staging[da..da + so.len()].clone_from_slice(&src[sa..sa + so.len()]);
            } else {
                for (&o, &t) in so.iter().zip(dof) {
                    staging[db + t as usize - origin] = src[sb + o as usize].clone();
                }
            }
        });
    }
}

/// The compiled epoch of one node, plus the precomputed trace counter
/// totals the epoch charges (identical to the interpreted path's
/// per-operand emissions, summed).
struct NodeProgram {
    /// The arena: every period table and block split of the program
    /// back to back, addressed by [`Span`]s — one allocation per node
    /// instead of two per row.
    tables: Vec<u32>,
    /// The node's LHS access sequence; staging slot `i × nops + op` holds
    /// operand `op`'s value for its element `i`.
    lhs: Walk,
    /// LHS elements this node owns in the section.
    count: usize,
    /// Ordinals per block: moves, inbound messages and apply run one
    /// block of the node's ordinals at a time (one block when
    /// unblocked), so the staging buffer holds one block.
    block: usize,
    /// Same-node transfers, one per operand that has any.
    moves: Vec<Move>,
    /// Outgoing streams, one per destination with traffic.
    sends: Vec<SendPlan>,
    /// Expected inbound streams, one per source with traffic.
    recvs: Vec<PeerStream>,
    /// Outbox layout, `sends.len() + 1` entries per round the node
    /// sends in: the offset of each outgoing message from the start of
    /// the node's messages that round, then their total length.
    outbox: Span,
    /// Total outgoing transfers (all destinations, self included).
    moved: u64,
    /// Non-empty non-self destinations (messages really sent).
    msgs: u64,
    /// Elements leaving this node.
    nonlocal: u64,
    /// Coalesced (multi-element) outgoing runs.
    seg_count: u64,
    /// Elements covered by those coalesced runs.
    seg_elems: u64,
}

impl NodeProgram {
    /// Ordinal blocks of the epoch.
    fn blocks(&self) -> usize {
        self.count.div_ceil(self.block)
    }

    /// The outbox offsets of round `b` (see [`NodeProgram::outbox`]);
    /// empty past the node's last sending round.
    fn outbox_at(&self, b: usize) -> &[u32] {
        let width = self.sends.len() + 1;
        let offs = self.outbox.of(&self.tables);
        offs.get(b * width..(b + 1) * width).unwrap_or(&[])
    }

    /// Charges the epoch's trace counters for this node. They were
    /// folded at compile time: one emission per epoch instead of one per
    /// (operand, destination), with identical totals. Transport bytes
    /// are charged per *logical* (operand, peer) message at the
    /// canonical run-encoded size (span headers included even though
    /// fused messages carry no spans), so counts and totals match the
    /// interpreted path on every backend.
    fn charge<T>(&self) {
        bcag_trace::count("elements_moved", self.moved);
        bcag_trace::count("bytes_packed", self.moved * std::mem::size_of::<T>() as u64);
        if self.msgs > 0 {
            bcag_trace::count("messages_sent", self.msgs);
            bcag_trace::count("elements_nonlocal", self.nonlocal);
        }
        bcag_core::runs::count_coalesced(self.seg_count, self.seg_elems);
        if bcag_trace::enabled() {
            for send in &self.sends {
                for tx in send.stream.parts.iter().map(|p| p.charge) {
                    bcag_trace::count("transport_bytes_tx", tx);
                    bcag_trace::record("msg_bytes", tx);
                    bcag_trace::record(send.key, tx);
                }
            }
            for rx in self.recvs.iter().flat_map(|r| &r.parts).map(|p| p.charge) {
                bcag_trace::count("transport_bytes_rx", rx);
            }
        }
    }

    /// Writes to `out` the element indices at which this node's ordinal
    /// blocks split an inbound row of `count` elements whose staging walk
    /// is `to`: block `b` holds the row's elements `out[b]..out[b + 1]`.
    /// Rows run in rank order, and so in ordinal order, so each split is
    /// one binary search.
    fn block_splits(&self, to: &Walk, count: usize, nops: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        out.push(0);
        let mut lo = 0usize;
        for b in 1..self.blocks() {
            // The first element whose slot lies in block `b` or later.
            let first_slot = b * self.block * nops;
            let mut hi = count;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if to.at(&self.tables, mid) < first_slot {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            out.push(offset(lo)?);
        }
        out.push(offset(count)?);
        Ok(())
    }

    /// Period-table entries across every walk of the program.
    fn table_entries(&self) -> usize {
        let parts = |s: &PeerStream| s.parts.iter().map(|p| p.walk.offs.len).sum::<usize>();
        self.lhs.offs.len
            + self
                .moves
                .iter()
                .map(|m| m.src.offs.len + m.dst.offs.len)
                .sum::<usize>()
            + self.sends.iter().map(|s| parts(&s.stream)).sum::<usize>()
            + self.recvs.iter().map(parts).sum::<usize>()
    }
}

/// A whole statement `A(sec_a) = f(B₀(sec₀), …)` compiled to per-node
/// epochs: built once per statement shape by [`compile`], cached in the
/// sharded plan cache, executed many times by [`FusedStatement::execute`].
pub struct FusedStatement<T: PackValue> {
    p: i64,
    nops: usize,
    nodes: Vec<NodeProgram>,
    /// Whether any node's epoch is L2-blocked (more than one ordinal
    /// block).
    blocked: bool,
    /// Block rounds of an epoch that exchanges messages (the most
    /// ordinal blocks of any node); zero when no node sends anything.
    rounds: usize,
    _elem: PhantomData<fn() -> T>,
}

/// Structural summary of a compiled [`FusedStatement`] — totals over all
/// nodes, for `bcag stats` and planning tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuseCensus {
    /// Outgoing messages compiled across all nodes and operands.
    pub sends: usize,
    /// Inbound message plans compiled across all nodes.
    pub recvs: usize,
    /// Same-node transfer streams (one per node and operand with any).
    pub self_moves: usize,
    /// Nodes with an owner-computes walk (nodes owning LHS elements).
    pub applies: usize,
    /// Physical messages per epoch across all nodes — one per peer when
    /// unblocked, more when L2-blocked.
    pub send_blocks: usize,
    /// Ordinal blocks across all nodes — equals `applies` when
    /// unblocked, larger when L2-blocked.
    pub apply_blocks: usize,
    /// Period-table entries across every walk of every node — the
    /// program's size, `O(period)` rather than `O(section)` once the
    /// section spans more than a period.
    pub table_entries: usize,
}

impl<T: PackValue> FusedStatement<T> {
    /// Structural totals of the compiled program. `sends`/`recvs` count
    /// *logical* (operand, peer) messages — the interpreted path's unit —
    /// even though the fused epoch coalesces them into one physical
    /// message per peer and block.
    pub fn census(&self) -> FuseCensus {
        let mut c = FuseCensus::default();
        for n in &self.nodes {
            c.sends += n.sends.iter().map(|s| s.stream.parts.len()).sum::<usize>();
            c.recvs += n.recvs.iter().map(|r| r.parts.len()).sum::<usize>();
            c.self_moves += n.moves.len();
            c.applies += usize::from(n.count > 0);
            c.send_blocks += n
                .sends
                .iter()
                .map(|s| s.stream.messages(&n.tables))
                .sum::<usize>();
            c.apply_blocks += n.blocks();
            c.table_entries += n.table_entries();
        }
        c
    }

    /// Whether this program's epochs run L2-blocked — a property of the
    /// compiled program, so it stays right under concurrent drivers.
    pub fn blocked(&self) -> bool {
        self.blocked
    }

    /// The `src → dst` transfer row of operand `op` as the compiled
    /// tables expand it: source addresses from the sender's gather (or
    /// move) table, destination addresses from the receiver's ordinal
    /// table mapped back through its access sequence. It equals
    /// [`CommSchedule::transfers`] of the same statement shape, which the
    /// compiler never builds — the check that folding rows to their first
    /// period lost nothing.
    ///
    /// [`CommSchedule::transfers`]: crate::comm::CommSchedule::transfers
    pub fn transfers(&self, op: usize, src: usize, dst: usize) -> Vec<Transfer> {
        let (sender, receiver) = (&self.nodes[src], &self.nodes[dst]);
        let (from, to, splits) = if src == dst {
            match sender.moves.iter().find(|m| m.op == op) {
                Some(m) => (m.src, m.dst, m.splits),
                None => return Vec::new(),
            }
        } else {
            let out = sender
                .sends
                .iter()
                .map(|s| &s.stream)
                .find(|s| s.peer == dst);
            let inn = receiver.recvs.iter().find(|s| s.peer == src);
            match (out.and_then(|s| s.part(op)), inn.and_then(|s| s.part(op))) {
                (Some(from), Some(to)) => (from.walk, to.walk, to.splits),
                _ => return Vec::new(),
            }
        };
        let tables = &receiver.tables;
        let count = *splits.of(tables).last().expect("splits end at the count") as usize;
        (0..count)
            .map(|i| Transfer {
                src_local: from.at(&sender.tables, i) as i64,
                dst_local: receiver.lhs.at(tables, (to.at(tables, i) - op) / self.nops) as i64,
            })
            .collect()
    }

    /// Runs the fused epoch on `min(p, hardware threads)` lanes (see
    /// [`Epoch`]). `operands` must be the arrays the program was
    /// compiled for, in compile order (same `p`, `k`, and sections);
    /// contents are free to vary. A panic in `f` fails the statement
    /// after every lane has finished, and leaves the pool usable.
    pub fn execute<F>(
        &self,
        a: &mut DistArray<T>,
        operands: &[&DistArray<T>],
        f: F,
        launch: LaunchMode,
        kind: TransportKind,
    ) where
        F: Fn(&[T]) -> T + Sync,
    {
        let lanes = pool::lanes_for(self.nodes.len());
        self.execute_on(a, operands, f, launch, kind, lanes);
    }

    /// [`FusedStatement::execute`] on an explicit number of lanes
    /// (clamped to `1..=p`).
    fn execute_on<F>(
        &self,
        a: &mut DistArray<T>,
        operands: &[&DistArray<T>],
        f: F,
        launch: LaunchMode,
        kind: TransportKind,
        lanes: usize,
    ) where
        F: Fn(&[T]) -> T + Sync,
    {
        assert_eq!(a.p(), self.p, "LHS machine size mismatch");
        assert_eq!(operands.len(), self.nops, "operand count mismatch");
        let _sp = bcag_trace::span("fuse.execute");
        let _t = bcag_trace::timed_span("fuse_execute_ns");
        bcag_trace::set_tag("transport", kind.name());
        bcag_trace::count("fused_epochs", 1);
        // Fused epochs pack coalesced runs; note mode and blocking for
        // the flight recorder and the tuning counters.
        pack::note_pack_mode(PackMode::Runs);
        note_blocked(self.blocked);
        if self.blocked && bcag_trace::enabled() {
            bcag_trace::count("tune_decision_blocked", 1);
        }
        let p = self.nodes.len();
        let lanes = lanes.clamp(1, p);
        let epoch = Epoch::new(self, a, operands, &f, lanes);
        pool::launch_lanes(p, lanes, launch, kind, &|lane, arena| {
            epoch.lane(lane, arena)
        });
        if let Some(payload) = into_clean(epoch.panic) {
            resume_unwind(payload);
        }
    }
}

/// One execution of a [`FusedStatement`]: the state its lanes share,
/// built per call and dropped with it.
///
/// The epoch runs in block rounds: round `b` moves ordinal block `b` of
/// every receiver, in two phases split by lane barriers. In the gather
/// phase every node appends its block-`b` messages to the outbox of the
/// lane that claimed it; in the apply phase every node runs its block
/// `b` — same-node moves, scatters from its senders' messages, apply.
/// Nodes are claimed one at a time within a phase, so the `p` node
/// programs run on however many lanes there are, and no receive ever
/// waits. The barrier after an apply phase frees the outboxes for the
/// next round, so at most one block per `(src, dst)` pair is in flight;
/// after the last round it lets every lane shelve its outbox in its own
/// arena. An epoch without messages needs no rounds: each claimed node
/// runs all its blocks in one phase.
struct Epoch<'a, T: PackValue, F> {
    prog: &'a FusedStatement<T>,
    lhs: Vec<Mutex<&'a mut Vec<T>>>,
    operands: &'a [&'a DistArray<T>],
    f: &'a F,
    /// Per lane, every message it gathered this round, node after node.
    outboxes: Vec<RwLock<Vec<T>>>,
    /// Per node, where its messages of this round start: the lane (high
    /// 16 bits) and the offset in that lane's outbox. Stored and loaded
    /// `Relaxed`: the barrier between the gather phase and the apply
    /// phase orders them, as it orders the outbox contents.
    placed: Vec<AtomicU64>,
    /// Per phase, the next node to claim (`Relaxed`: a claim publishes
    /// no data).
    claims: Vec<AtomicUsize>,
    barrier: Barrier,
    /// The first panic caught in a node program; later node programs
    /// are skipped once one is caught, but every lane keeps meeting the
    /// barriers.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Whether `panic` holds a payload (`Relaxed`: only a hint to skip
    /// work; the payload itself travels through the mutex).
    failed: AtomicBool,
}

/// Bits of [`Epoch::placed`] holding the outbox offset.
const PLACED_BITS: u32 = 48;

impl<'a, T: PackValue, F: Fn(&[T]) -> T + Sync> Epoch<'a, T, F> {
    fn new(
        prog: &'a FusedStatement<T>,
        a: &'a mut DistArray<T>,
        operands: &'a [&'a DistArray<T>],
        f: &'a F,
        lanes: usize,
    ) -> Self {
        let phases = (2 * prog.rounds).max(1);
        Epoch {
            prog,
            lhs: a.locals_mut().iter_mut().map(Mutex::new).collect(),
            operands,
            f,
            outboxes: (0..lanes).map(|_| RwLock::new(Vec::new())).collect(),
            placed: prog.nodes.iter().map(|_| AtomicU64::new(0)).collect(),
            claims: (0..phases).map(|_| AtomicUsize::new(0)).collect(),
            barrier: Barrier::new(lanes),
            panic: Mutex::new(None),
            failed: AtomicBool::new(false),
        }
    }

    /// Lane `lane`'s run through every phase: with messages, phase `2b`
    /// gathers round `b` and phase `2b + 1` applies it.
    fn lane(&self, lane: usize, arena: &mut BufferArena) {
        let _sp = bcag_trace::span("fuse.epoch.lane");
        let exchanges = self.prog.rounds > 0;
        let mut staging: Vec<T> = arena.take();
        let mut waited = 0u64;
        for phase in 0..self.claims.len() {
            let gathering = exchanges && phase % 2 == 0;
            // The lane's wait for the slowest lane to finish gathering:
            // what every message it consumes in this phase waited.
            let mut wait_ns = 0;
            if phase > 0 {
                let t0 = bcag_trace::enabled().then(Instant::now);
                self.barrier.wait();
                if !gathering {
                    wait_ns = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                    waited += wait_ns;
                }
            }
            // An apply phase reads every lane's outbox; a gather phase
            // refills this lane's own.
            let inbox: Vec<_> = match exchanges && !gathering {
                true => self.outboxes.iter().map(read_clean).collect(),
                false => Vec::new(),
            };
            let mut out = gathering.then(|| {
                let mut out = write_clean(&self.outboxes[lane]);
                if out.capacity() == 0 {
                    *out = arena.take();
                }
                out.clear();
                out
            });
            loop {
                let m = self.claims[phase].fetch_add(1, Ordering::Relaxed);
                if m >= self.prog.nodes.len() {
                    break;
                }
                if self.failed.load(Ordering::Relaxed) {
                    continue;
                }
                let run = || {
                    // Node `m`'s counters and spans land on its own lane,
                    // whichever lane runs it.
                    let _node =
                        bcag_trace::enabled().then(|| bcag_trace::enter_lane(&format!("node-{m}")));
                    let _sp = bcag_trace::span("fuse.epoch.node");
                    let node = &self.prog.nodes[m];
                    if phase == 0 {
                        node.charge::<T>();
                    }
                    let b = phase / 2;
                    if let Some(out) = out.as_deref_mut() {
                        self.gather(m, b, lane, out);
                    } else if !exchanges {
                        for b in 0..node.blocks() {
                            self.run_block(m, b, 0, &inbox, &mut staging);
                        }
                    } else if b < node.blocks() {
                        self.run_block(m, b, wait_ns, &inbox, &mut staging);
                    }
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
                    self.failed.store(true, Ordering::Relaxed);
                    lock_clean(&self.panic).get_or_insert(payload);
                }
            }
        }
        if exchanges {
            // Once every lane is past its last read, each outbox goes
            // back to the arena of the lane that filled it.
            self.barrier.wait();
            arena.put(std::mem::take(&mut *write_clean(&self.outboxes[lane])));
            bcag_trace::count("recv_wait_ns", waited);
        }
        arena.put(staging);
    }

    /// Appends node `m`'s round-`b` messages to lane `lane`'s outbox
    /// `out`: one per peer with traffic in the peer's block `b`, every
    /// operand's part back to back in operand order.
    fn gather(&self, m: usize, b: usize, lane: usize, out: &mut Vec<T>) {
        let node = &self.prog.nodes[m];
        let Some(&total) = node.outbox_at(b).last() else {
            return;
        };
        if total == 0 {
            return;
        }
        let tables = &node.tables;
        let start = out.len();
        out.reserve(total as usize);
        for send in node.sends.iter().map(|s| &s.stream) {
            if b < send.blocks() {
                for part in &send.parts {
                    let (lo, hi) = part.splits.block(tables, b);
                    part.walk
                        .gather(tables, out, self.operand(part.op, m), lo, hi);
                }
            }
        }
        let placed = (lane as u64) << PLACED_BITS | start as u64;
        self.placed[m].store(placed, Ordering::Relaxed);
    }

    /// Node `m`'s local memory of operand `op`.
    fn operand(&self, op: usize, m: usize) -> &'a [T] {
        self.operands[op].local(m as i64)
    }

    /// Node `m`'s ordinal block `b`: same-node moves and inbound
    /// messages fill the block's staging slots — each exactly once —
    /// then the owner-computes loop walks the node's access sequence
    /// over the block, reading each element's arguments as one slice of
    /// the staging buffer.
    fn run_block(
        &self,
        m: usize,
        b: usize,
        wait_ns: u64,
        inbox: &[RwLockReadGuard<'_, Vec<T>>],
        staging: &mut Vec<T>,
    ) {
        let (prog, node) = (self.prog, &self.prog.nodes[m]);
        let (nops, tables) = (prog.nops, &node.tables);
        let lo = b * node.block;
        let hi = node.count.min(lo + node.block);
        let origin = lo * nops;
        let mut lhs = lock_clean(&self.lhs[m]);
        let need = (hi - lo) * nops;
        if staging.len() < need {
            let fill = lhs[node.lhs.base].clone();
            staging.resize(need, fill);
        }
        for mv in &node.moves {
            let range = mv.splits.block(tables, b);
            mv.run(tables, staging, self.operand(mv.op, m), range, origin);
        }
        for stream in &node.recvs {
            if stream.block_len(tables, b) == 0 {
                continue;
            }
            let src = stream.peer;
            let placed = self.placed[src].load(Ordering::Relaxed);
            let vals = &inbox[(placed >> PLACED_BITS) as usize];
            let start = (placed & ((1 << PLACED_BITS) - 1)) as usize;
            let mut off = start + prog.nodes[src].outbox_at(b)[stream.slot] as usize;
            for part in &stream.parts {
                let (from, to) = part.splits.block(tables, b);
                let now = &vals[off..off + to - from];
                part.walk.scatter(tables, staging, now, (from, to), origin);
                off += to - from;
            }
            bcag_trace::record("recv_wait_ns", wait_ns);
        }
        let mut at = 0usize;
        node.lhs.periods(tables, lo, hi, |base, offs| {
            for &o in offs {
                lhs[base + o as usize] = (self.f)(&staging[at..at + nops]);
                at += nops;
            }
        });
    }
}

/// The streams that carry traffic, every buffer sized exactly: a cached
/// program holds no growth slack.
fn live_streams(streams: impl Iterator<Item = PeerStream>) -> Vec<PeerStream> {
    let mut live: Vec<PeerStream> = streams
        .filter(|s| !s.parts.is_empty())
        .map(|mut s| {
            s.parts.shrink_to_fit();
            s
        })
        .collect();
    live.shrink_to_fit();
    live
}

/// Appends `node`'s outbox layout (see [`NodeProgram::outbox`]) to its
/// arena: per round, the prefix sums of its outgoing messages' lengths.
fn outbox_layout(node: &mut NodeProgram) -> Result<Span> {
    let rounds = node.sends.iter().map(|s| s.stream.blocks()).max();
    let mut offs = Vec::new();
    for b in 0..rounds.unwrap_or(0) {
        let mut at = 0usize;
        offs.push(0);
        for send in node.sends.iter().map(|s| &s.stream) {
            if b < send.blocks() {
                at += send.block_len(&node.tables, b);
            }
            offs.push(offset(at)?);
        }
    }
    Ok(Span::push(&mut node.tables, &offs))
}

/// Compiles the statement shape `A(sec_a) = f(ops…)` on a `(p, k_a)` LHS
/// layout into per-node fused epochs. `ops` lists each operand's
/// `(k, section)`. The LHS node plans come from — and warm — the
/// process-wide cache, so the locality analytics recorded at plan build
/// time stay live under the fused path; every operand's transfer rows
/// are folded to their first period directly (see the module docs), so no
/// communication schedule is built or cached. `block` caps each node's
/// ordinal blocks, and so its physical message payloads, at that many
/// elements (`0` = unblocked); callers derive it from
/// [`epoch_block_elems`]. The program does not depend on `mode` and
/// `kind`: they are the execution context [`cached_program`] keys it by.
pub fn compile<T: PackValue>(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    ops: &[(i64, RegularSection)],
    _mode: ExecMode,
    _kind: TransportKind,
    block: usize,
) -> Result<FusedStatement<T>> {
    let _sp = bcag_trace::span("fuse.compile");
    let _t = bcag_trace::timed_span("fuse_compile_ns");
    let plans = cache::plans(p, k_a, sec_a, Method::Lattice)?;
    let pu = p as usize;
    let nops = ops.len();
    // Ordinal block size of a node owning `count` elements.
    let block_of = |count: usize| if block == 0 { count.max(1) } else { block };
    let mut nodes = Vec::with_capacity(pu);
    for plan in plans.iter() {
        let mut tables = Vec::new();
        let (lhs, count) = lhs_walk(plan, &mut tables)?;
        nodes.push(NodeProgram {
            tables,
            lhs,
            count,
            block: block_of(count),
            moves: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
            outbox: Span { at: 0, len: 0 },
            moved: 0,
            msgs: 0,
            nonlocal: 0,
            seg_count: 0,
            seg_elems: 0,
        });
    }
    // Streams indexed `from * p + to`, outgoing and inbound.
    let stream = |i: usize| PeerStream {
        peer: i % pu,
        slot: 0,
        parts: Vec::new(),
    };
    let mut outs: Vec<PeerStream> = (0..pu * pu).map(stream).collect();
    let mut ins: Vec<PeerStream> = (0..pu * pu).map(stream).collect();
    // Scratch for one row's offsets and block splits before they land in
    // the node arenas.
    let (mut offs, mut splits) = (Vec::new(), Vec::new());
    for (op, (k_b, sec_b)) in ops.iter().enumerate() {
        let fold = Fold::new(p, k_a, sec_a, *k_b, sec_b)?;
        for src in 0..pu {
            for dst in 0..pu {
                let row = fold.row(src, dst);
                let runs = row.runs();
                let sender = &mut nodes[src];
                sender.moved += row.len as u64;
                sender.seg_count += runs.segs;
                sender.seg_elems += runs.seg_elems;
                let Some(&first) = row.entries.first() else {
                    continue;
                };
                // The destination side: slots of operand `op` in the
                // receiver's interleaved staging buffer (`ordinal × nops
                // + op`), advancing by the ordinals it owns per period.
                // (A row that ends within its first period never uses
                // its walks' advance.)
                offs.clear();
                for e in row.entries {
                    offs.push(offset((e.ord - first.ord) * nops)?);
                }
                let receiver = &mut nodes[dst];
                let advance = fold.ord_step[dst] * nops;
                let staged =
                    Walk::push(&mut receiver.tables, first.ord * nops + op, advance, &offs);
                receiver.block_splits(&staged, row.len, nops, &mut splits)?;
                let to = Span::push(&mut receiver.tables, &splits);
                // The source side: local addresses in the sender's
                // operand memory.
                offs.clear();
                for e in row.entries {
                    offs.push(offset((e.src - first.src) as usize)?);
                }
                let sender = &mut nodes[src];
                let advance = fold.step.0 as usize;
                let from = Walk::push(&mut sender.tables, first.src as usize, advance, &offs);
                if src == dst {
                    sender.moves.push(Move {
                        op,
                        src: from,
                        dst: staged,
                        splits: to,
                    });
                    continue;
                }
                sender.msgs += 1;
                sender.nonlocal += row.len as u64;
                let charge = wire::wire_size::<T>(runs.runs, row.len) as u64;
                outs[src * pu + dst].parts.push(Part {
                    op,
                    walk: from,
                    splits: Span::push(&mut sender.tables, &splits),
                    charge,
                });
                ins[dst * pu + src].parts.push(Part {
                    op,
                    walk: staged,
                    splits: to,
                    charge,
                });
            }
        }
    }
    let mut outs = outs.into_iter();
    let mut ins = ins.into_iter();
    for node in nodes.iter_mut() {
        node.sends = live_streams(outs.by_ref().take(pu))
            .into_iter()
            .map(|stream| SendPlan {
                key: wire::msg_bytes_key(stream.peer),
                stream,
            })
            .collect();
        node.recvs = live_streams(ins.by_ref().take(pu));
    }
    // Sends are in peer order, so a receiver finds its slot in each
    // sender's outbox by binary search.
    for dst in 0..pu {
        for r in 0..nodes[dst].recvs.len() {
            let src = nodes[dst].recvs[r].peer;
            nodes[dst].recvs[r].slot = nodes[src]
                .sends
                .binary_search_by_key(&dst, |s| s.stream.peer)
                .expect("every inbound stream has a sender");
        }
    }
    for node in nodes.iter_mut() {
        node.outbox = outbox_layout(node)?;
        node.moves.shrink_to_fit();
        node.tables.shrink_to_fit();
    }
    let blocked = nodes.iter().any(|n| n.blocks() > 1);
    let rounds = if nodes.iter().any(|n| !n.sends.is_empty()) {
        nodes.iter().map(NodeProgram::blocks).max().unwrap_or(0)
    } else {
        0
    };
    if bcag_trace::enabled() {
        let entries: usize = nodes.iter().map(NodeProgram::table_entries).sum();
        bcag_trace::count("fuse_programs", 1);
        bcag_trace::count("fuse_table_entries", entries as u64);
    }
    Ok(FusedStatement {
        p,
        nops,
        nodes,
        blocked,
        rounds,
        _elem: PhantomData,
    })
}

/// [`compile`] through the sharded plan cache: the program is built once
/// per (statement shape × element type × execution context × block size)
/// and shared.
pub fn cached_program<T: PackValue>(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    ops: &[(i64, RegularSection)],
    mode: ExecMode,
    kind: TransportKind,
    block: usize,
) -> Result<Arc<FusedStatement<T>>> {
    cache::fused::<FusedStatement<T>>(p, k_a, sec_a, ops, mode, kind, block, || {
        compile::<T>(p, k_a, sec_a, ops, mode, kind, block).map(Arc::new)
    })
}

/// Executes `A(sec_a) = f(operand values…)` through the fused plan
/// compiler on the process-default launch mode and transport — the fused
/// twin of [`crate::statement::assign_expr`], which routes here when
/// [`default_fused`] is [`FusedMode::On`]. Callers must have validated
/// the statement (ascending LHS section, conforming operands on one
/// machine) as `assign_expr` does.
pub fn assign_fused<T, F>(
    a: &mut DistArray<T>,
    sec_a: &RegularSection,
    operands: &[(&DistArray<T>, RegularSection)],
    f: F,
) -> Result<()>
where
    T: PackValue,
    F: Fn(&[T]) -> T + Sync,
{
    assign_fused_on(
        a,
        sec_a,
        operands,
        f,
        pool::default_launch(),
        transport::active_transport(),
    )
}

/// [`assign_fused`] with an explicit launch mode and transport — the A/B
/// entry point of the differential suite.
pub fn assign_fused_on<T, F>(
    a: &mut DistArray<T>,
    sec_a: &RegularSection,
    operands: &[(&DistArray<T>, RegularSection)],
    f: F,
    launch: LaunchMode,
    kind: TransportKind,
) -> Result<()>
where
    T: PackValue,
    F: Fn(&[T]) -> T + Sync,
{
    if transport::proc::active().is_some() {
        // The multi-process executor shadow-applies pairs across its
        // replicated image; a fused epoch has no equivalent protocol.
        // `assign_expr` routes proc sessions to the interpreted path.
        return Err(BcagError::Precondition(
            "fused epochs do not run inside a multi-process session",
        ));
    }
    let ops: Vec<(i64, RegularSection)> = operands.iter().map(|(b, s)| (b.k(), *s)).collect();
    let block = epoch_block_elems::<T>(sec_a);
    let program = cached_program::<T>(a.p(), a.k(), sec_a, &ops, ExecMode::Batched, kind, block)?;
    let arrays: Vec<&DistArray<T>> = operands.iter().map(|(b, _)| *b).collect();
    program.execute(a, &arrays, f, launch, kind);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommSchedule;

    #[test]
    fn mode_names_and_flip() {
        assert_eq!(FusedMode::On.name(), "fused");
        assert_eq!(FusedMode::Off.name(), "interp");
        let before = default_fused();
        set_default_fused(FusedMode::Off);
        assert_eq!(default_fused(), FusedMode::Off);
        set_default_fused(before);
        assert_eq!(default_fused(), before);
    }

    #[test]
    fn walks_expand_their_period_tables() {
        // Two walks in one arena. Period 3, advance 10: 4, 5, 7 | 14, 15,
        // 17 | 24, …
        let mut tables = vec![99];
        let w = Walk::push(&mut tables, 4, 10, &[0, 1, 3]);
        let c = Walk::push(&mut tables, 2, 8, &[0, 1, 2]);
        assert_eq!(tables, [99, 0, 1, 3, 0, 1, 2]);
        assert!(!w.contiguous);
        let addrs: Vec<usize> = (0..8).map(|i| w.at(&tables, i)).collect();
        assert_eq!(addrs, [4, 5, 7, 14, 15, 17, 24, 25]);
        let src: Vec<i64> = (0..40).collect();
        for (lo, hi) in [(0, 8), (1, 7), (2, 3), (3, 6), (5, 5)] {
            let mut got = Vec::new();
            w.gather(&tables, &mut got, &src, lo, hi);
            let want: Vec<i64> = (lo..hi).map(|i| w.at(&tables, i) as i64).collect();
            assert_eq!(got, want, "gather {lo}..{hi}");
            let mut dst = vec![-1i64; 40];
            w.scatter(&tables, &mut dst, &want, (lo, hi), 0);
            for i in lo..hi {
                assert_eq!(dst[w.at(&tables, i)], w.at(&tables, i) as i64);
            }
            assert_eq!(dst.iter().filter(|&&v| v >= 0).count(), hi - lo);
        }
        // Contiguous periods copy as slices and agree with the index walk.
        assert!(c.contiguous);
        let mut got = Vec::new();
        c.gather(&tables, &mut got, &src, 1, 7);
        assert_eq!(got, [3, 4, 10, 11, 12, 18]);
    }

    /// The periodicity lemma the fold rests on, in place of checking
    /// every row against a materialized one: rank `t + T` has the same
    /// owners as rank `t` on both sides, with local addresses advanced by
    /// `(T·s_b/p, T·s_a/p)`.
    #[test]
    fn joint_period_advances_owners_and_addresses() {
        let mut rng = bcag_harness::Rng::seed_from_u64(0x7e51);
        for _ in 0..400 {
            let p = *rng.choice(&[1i64, 2, 3, 4, 5, 8, 32]);
            let side = |rng: &mut bcag_harness::Rng| {
                let k = rng.random_range(1..=64);
                (
                    Layout::from_raw(p, k),
                    k,
                    rng.random_range(0..=20),
                    rng.random_range(1..=40),
                )
            };
            let (a, b) = (side(&mut rng), side(&mut rng));
            let t = joint_period(p, a.1, a.3, b.1, b.3).unwrap();
            for (lay, k, l, s) in [a, b] {
                assert_eq!(t * s % (p * k), 0, "T·s is a whole number of rounds");
                for _ in 0..8 {
                    let r = rng.random_range(0..3 * t);
                    let (now, next) = (l + r * s, l + (r + t) * s);
                    assert_eq!(lay.owner(next), lay.owner(now));
                    assert_eq!(lay.local_addr(next), lay.local_addr(now) + t * s / p);
                }
            }
        }
        // The steady triad's shapes: cyclic(8) against itself, and
        // cyclic(8) against cyclic(5) at stride 9.
        assert_eq!(joint_period(4, 8, 1, 8, 1), Some(32));
        assert_eq!(joint_period(4, 8, 9, 5, 9), Some(160));
    }

    /// Every folded row expands to the schedule's row and streams to the
    /// schedule's runs: length, transfers, run count, coalesced segments
    /// and their elements, and the canonical wire charge.
    #[test]
    fn folded_rows_match_the_schedule() {
        let mut rng = bcag_harness::Rng::seed_from_u64(0xf01d);
        // Regimes seen: partial last period, T >= count, l > 0,
        // s_a != s_b, an empty row, an empty section.
        let mut seen = [false; 6];
        for trial in 0..160 {
            let (p, k_max, count) = match trial % 3 {
                // Several periods of a small machine.
                0 => (rng.random_range(1..=5), 9, rng.random_range(1..=700)),
                // The paper's machine: periods outlast the section.
                1 => (32, 512, rng.random_range(1..=400)),
                // Mid-size machine, a handful of periods.
                _ => (rng.random_range(2..=8), 24, rng.random_range(100..=1500)),
            };
            let count = if trial == 7 { 0 } else { count };
            let sec = |rng: &mut bcag_harness::Rng| {
                let (l, s) = (rng.random_range(0..=13), rng.random_range(1..=11));
                // An empty section has its upper bound below its lower.
                let u = if count == 0 { l } else { l + (count - 1) * s };
                RegularSection::new(l + i64::from(count == 0), u, s).unwrap()
            };
            let (sec_a, sec_b) = (sec(&mut rng), sec(&mut rng));
            let (k_a, k_b) = (rng.random_range(1..=k_max), rng.random_range(1..=k_max));
            let sched = CommSchedule::build(p, k_a, &sec_a, k_b, &sec_b, Method::Lattice).unwrap();
            let fold = Fold::new(p, k_a, &sec_a, k_b, &sec_b).unwrap();
            let t = joint_period(p, k_a, sec_a.s, k_b, sec_b.s).unwrap();
            let count = count as usize;
            seen[0] |= (t as usize) < count && !count.is_multiple_of(t as usize);
            seen[1] |= t as usize >= count && p == 32;
            seen[2] |= sec_a.l > 0 && sec_b.l > 0;
            seen[3] |= sec_a.s != sec_b.s;
            seen[5] |= count == 0;
            for src in 0..p as usize {
                for dst in 0..p as usize {
                    let row = fold.row(src, dst);
                    let want = sched.transfers(src as i64, dst as i64);
                    let runs = sched.transfer_runs(src as i64, dst as i64);
                    seen[4] |= want.is_empty();
                    let shape =
                        format!("p={p} k=({k_a},{k_b}) {sec_a:?} {sec_b:?} row {src}->{dst}");
                    assert_eq!(row.len, want.len(), "{shape}");
                    assert!(row.transfers().eq(want.iter().copied()), "{shape}");
                    let coalesced = runs.iter().filter(|r| r.len >= 2);
                    let got = row.runs();
                    let expect = RowRuns {
                        runs: runs.len(),
                        segs: coalesced.clone().count() as u64,
                        seg_elems: coalesced.map(|r| r.len as u64).sum(),
                    };
                    assert_eq!(got, expect, "{shape}");
                    assert_eq!(
                        wire::wire_size::<f64>(got.runs, row.len),
                        wire::wire_size::<f64>(runs.len(), want.len()),
                        "{shape}"
                    );
                }
            }
        }
        assert_eq!(seen, [true; 6], "regimes covered");
    }

    #[test]
    fn fused_statement_matches_interpreted_triad() {
        let n = 400i64;
        let alpha = 3.0f64;
        let bg: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let cg: Vec<f64> = (0..n).map(|i| (i * i % 97) as f64).collect();
        let b = DistArray::from_global(4, 5, &bg).unwrap();
        let c = DistArray::from_global(4, 16, &cg).unwrap();
        let sec_a = RegularSection::new(0, 357, 3).unwrap();
        let sec_b = RegularSection::new(2, 240, 2).unwrap();
        let sec_c = RegularSection::new(10, 129, 1).unwrap();

        let mut fused = DistArray::new(4, 8, n, 0.0f64).unwrap();
        assign_fused(&mut fused, &sec_a, &[(&b, sec_b), (&c, sec_c)], |args| {
            args[0] * alpha + args[1]
        })
        .unwrap();

        let got = fused.to_global();
        for t in 0..120i64 {
            let ia = (3 * t) as usize;
            let ib = (2 + 2 * t) as usize;
            let ic = (10 + t) as usize;
            assert_eq!(got[ia], bg[ib] * alpha + cg[ic], "t={t}");
        }
        assert_eq!(got[1], 0.0);
        assert_eq!(got[2], 0.0);
    }

    #[test]
    fn compiled_programs_are_cached_and_shared() {
        // A shape unlike anything else in the suite, so the first call
        // is a genuine build.
        let sec_a = RegularSection::new(1, 1171, 26).unwrap();
        let sec_b = RegularSection::new(3, 1173, 26).unwrap();
        let ops = vec![(9i64, sec_b)];
        let build = |block: usize| {
            cached_program::<i64>(
                3,
                11,
                &sec_a,
                &ops,
                ExecMode::Batched,
                TransportKind::Mpsc,
                block,
            )
            .unwrap()
        };
        let first = build(0);
        assert!(Arc::ptr_eq(&first, &build(0)));
        // A different element type is a distinct cache entry.
        let other = cached_program::<f64>(
            3,
            11,
            &sec_a,
            &ops,
            ExecMode::Batched,
            TransportKind::Mpsc,
            0,
        )
        .unwrap();
        assert!(other.census() == first.census());
        // A different block size is a distinct cache entry too: tune
        // A/B flips must never reuse the other regime's programs.
        assert!(!Arc::ptr_eq(&first, &build(7)));
    }

    #[test]
    fn census_counts_structure() {
        let sec = RegularSection::new(0, 239, 1).unwrap();
        let prog = compile::<i64>(
            4,
            8,
            &sec,
            &[(3, sec)],
            ExecMode::Batched,
            TransportKind::Mpsc,
            0,
        )
        .unwrap();
        let census = prog.census();
        assert!(census.sends > 0, "redistribution must send messages");
        assert_eq!(census.sends, census.recvs, "every send has a receiver");
        assert_eq!(census.applies, 4, "every node owns LHS elements");
        assert_eq!(
            census.send_blocks, census.sends,
            "unblocked single-operand sends are one block each"
        );
        assert_eq!(
            census.apply_blocks, census.applies,
            "unblocked programs run one ordinal block per node"
        );
        assert!(!prog.blocked());
        assert!(census.table_entries > 0);
    }

    /// The program-size guard: the ledger's steady triad shape
    /// (`A(0:n-1:s) = α·B + C` on p=4 with cyclic(8)/cyclic(5)/cyclic(64))
    /// compiles to the same census — table entries included — whether the
    /// section spans 2^16 or 2^21 elements. Program size is O(period),
    /// not O(n).
    #[test]
    fn steady_triad_program_size_is_independent_of_n() {
        let census = |n: i64, s: i64| {
            let sec = RegularSection::new(0, (n - 1) / s * s, s).unwrap();
            compile::<f64>(
                4,
                8,
                &sec,
                &[(5, sec), (64, sec)],
                ExecMode::Batched,
                TransportKind::Mpsc,
                0,
            )
            .unwrap()
            .census()
        };
        for s in [1i64, 9] {
            let small = census(1 << 16, s);
            assert!(
                small.table_entries <= 1024,
                "s={s}: {} table entries",
                small.table_entries
            );
            assert_eq!(small, census(1 << 21, s), "s={s}");
        }
    }

    #[test]
    fn blocked_messages_match_unblocked() {
        // k mismatch forces redistribution; tiny block caps split every
        // physical message into many chunks, which must stay bit-exact.
        let n = 600i64;
        let bg: Vec<i64> = (0..n).map(|i| 7 * i - 3).collect();
        let b = DistArray::from_global(3, 4, &bg).unwrap();
        let sec_a = RegularSection::new(0, 597, 3).unwrap();
        let sec_b = RegularSection::new(1, 399, 2).unwrap();
        let ops = vec![(b.k(), sec_b)];
        let run = |block: usize| {
            let prog = compile::<i64>(
                3,
                7,
                &sec_a,
                &ops,
                ExecMode::Batched,
                TransportKind::Mpsc,
                block,
            )
            .unwrap();
            let mut a = DistArray::new(3, 7, n, 0i64).unwrap();
            prog.execute(
                &mut a,
                &[&b],
                |v| v[0] * 2 + 1,
                pool::default_launch(),
                TransportKind::Mpsc,
            );
            (prog.census(), a.to_global())
        };
        let (base_census, want) = run(0);
        for block in [1usize, 5, 64] {
            let (census, got) = run(block);
            assert_eq!(got, want, "block={block}");
            assert_eq!(
                census.sends, base_census.sends,
                "logical messages are cap-independent"
            );
            assert_eq!(census.table_entries, base_census.table_entries);
            if block < 64 {
                assert!(
                    census.send_blocks > base_census.send_blocks,
                    "small caps must chunk messages (block={block})"
                );
            }
        }
    }

    #[test]
    fn blocked_local_epochs_match_unblocked() {
        // Same layout on both sides: every transfer is a self-move, so
        // blocking takes the local-epoch range path.
        let n = 1200i64;
        let bg: Vec<f64> = (0..n).map(|i| (i * 13 % 101) as f64).collect();
        let b = DistArray::from_global(2, 8, &bg).unwrap();
        let sec = RegularSection::new(2, 1195, 3).unwrap();
        let ops = vec![(8i64, sec)];
        let run = |block: usize| {
            let prog = compile::<f64>(
                2,
                8,
                &sec,
                &ops,
                ExecMode::Batched,
                TransportKind::Mpsc,
                block,
            )
            .unwrap();
            let mut a = DistArray::new(2, 8, n, -1.0f64).unwrap();
            prog.execute(
                &mut a,
                &[&b],
                |v| v[0] * 0.5,
                pool::default_launch(),
                TransportKind::Mpsc,
            );
            (prog.census(), prog.blocked(), a.to_global())
        };
        let (base_census, base_blocked, want) = run(0);
        assert_eq!(base_census.sends, 0, "same-layout copy never communicates");
        assert!(!base_blocked);
        for block in [16usize, 100, 4096] {
            let (census, blocked, got) = run(block);
            assert_eq!(got, want, "block={block}");
            // Each node owns 199 or 200 of the 398 elements.
            assert_eq!(blocked, block < 199, "block={block}");
            if block < 199 {
                assert!(
                    census.apply_blocks > 2,
                    "small caps must split the local epoch (block={block})"
                );
            }
        }
        // Zero-operand fills block too.
        let fill = |block: usize| {
            let prog = compile::<f64>(
                2,
                8,
                &sec,
                &[],
                ExecMode::Batched,
                TransportKind::Mpsc,
                block,
            )
            .unwrap();
            let mut a = DistArray::new(2, 8, n, 0.0f64).unwrap();
            prog.execute(
                &mut a,
                &[],
                |_| 9.0,
                pool::default_launch(),
                TransportKind::Mpsc,
            );
            a.to_global()
        };
        assert_eq!(fill(0), fill(32));
    }

    /// Random statement shapes, blocked and unblocked, run on 1, 2, 3
    /// and `p` lanes, bit for bit against a sequential reference: the
    /// result must not depend on how many lanes run the node programs.
    #[test]
    fn lane_counts_match_sequential_reference() {
        let mut rng = bcag_harness::Rng::seed_from_u64(0x1a9e5);
        let mut seen = [false; 3];
        for trial in 0..48 {
            // The paper's machine every third shape; otherwise a small
            // one, sometimes with no operands at all.
            let (p, k_max, count, nops) = if trial % 3 == 0 {
                (32, 512, rng.random_range(1..=400), rng.random_range(1..=2))
            } else {
                (
                    rng.random_range(1..=5),
                    10,
                    rng.random_range(1..=300),
                    rng.random_range(0..=3),
                )
            };
            let sec = |rng: &mut bcag_harness::Rng| {
                let (l, s) = (rng.random_range(0..=13), rng.random_range(1..=6));
                RegularSection::new(l, l + (count - 1) * s, s).unwrap()
            };
            let sec_a = sec(&mut rng);
            let ops: Vec<(i64, RegularSection)> = (0..nops)
                .map(|_| (rng.random_range(1..=k_max), sec(&mut rng)))
                .collect();
            let k_a = rng.random_range(1..=k_max);
            let n = ops.iter().map(|(_, s)| s.u).fold(sec_a.u, i64::max) + 4;
            let value = |i: i64, j: usize| (i * 7 + 13 * j as i64) % 113 - 50;
            let f = |args: &[i64]| {
                args.iter()
                    .enumerate()
                    .fold(5i64, |acc, (j, v)| acc * 3 + v * (j as i64 + 1))
            };
            let globals: Vec<Vec<i64>> = (0..=nops as usize)
                .map(|j| (0..n).map(|i| value(i, j)).collect())
                .collect();
            let arrays: Vec<DistArray<i64>> = ops
                .iter()
                .zip(&globals[1..])
                .map(|((k, _), g)| DistArray::from_global(p, *k, g).unwrap())
                .collect();
            let refs: Vec<&DistArray<i64>> = arrays.iter().collect();
            let mut want = globals[0].clone();
            for t in 0..count {
                let args: Vec<i64> = ops
                    .iter()
                    .zip(&globals[1..])
                    .map(|((_, s), g)| g[(s.l + t * s.s) as usize])
                    .collect();
                want[(sec_a.l + t * sec_a.s) as usize] = f(&args);
            }
            let block = *rng.choice(&[0usize, 1, 5, 17]);
            let prog = compile::<i64>(
                p,
                k_a,
                &sec_a,
                &ops,
                ExecMode::Batched,
                TransportKind::Mpsc,
                block,
            )
            .unwrap();
            seen[0] |= prog.blocked();
            seen[1] |= !prog.blocked() && prog.rounds > 0;
            seen[2] |= nops == 0;
            let launch = if trial % 4 == 3 {
                LaunchMode::Scoped
            } else {
                LaunchMode::Pooled
            };
            for lanes in [1, 2, 3, p as usize] {
                let mut a = DistArray::from_global(p, k_a, &globals[0]).unwrap();
                prog.execute_on(&mut a, &refs, f, launch, TransportKind::Mpsc, lanes);
                assert_eq!(
                    a.to_global(),
                    want,
                    "p={p} k_a={k_a} {sec_a:?} ops={ops:?} block={block} lanes={lanes}"
                );
            }
        }
        assert_eq!(
            seen, [true; 3],
            "blocked, unblocked and zero-operand shapes"
        );
    }

    #[test]
    fn zero_operand_fused_fill() {
        let mut a = DistArray::new(2, 4, 50, 0i64).unwrap();
        let sec = RegularSection::new(1, 49, 4).unwrap();
        assign_fused(&mut a, &sec, &[], |_| 9).unwrap();
        let g = a.to_global();
        for i in 0..50i64 {
            assert_eq!(g[i as usize], if sec.contains(i) { 9 } else { 0 });
        }
    }
}
