//! Locality analytics over compiled [`RunPlan`]s: reuse-distance
//! histogram, working-set size and bytes-touched-per-cache-line.
//!
//! The paper's access sequences are *address streams*; whether a schedule
//! is memory-bound depends on how those streams map onto cache lines. This
//! module replays a plan's traversal at cache-line granularity through a
//! small LRU stack and reports distribution-shaped locality metrics:
//!
//! * **reuse distance** — for every re-touch of a line, the number of
//!   *distinct* lines accessed since its previous touch (the classic LRU
//!   stack distance; a fully-associative cache of `C` lines hits exactly
//!   the re-touches with distance `< C`);
//! * **working set** — the count of distinct lines the traversal touches;
//! * **bytes per line** — distinct bytes touched divided by lines
//!   touched: 64 means every fetched line is fully consumed, 8 means a
//!   gap-64 stride wastes 87.5% of each fetch.
//!
//! Analysis is bounded by [`MAX_ANALYZED`] elements (one prefix of the
//! traversal), so compiling a plan for a huge array never turns into an
//! unbounded simulation. [`record`] folds the results into the active
//! `bcag-trace` session as the `reuse_distance_lines` histogram plus
//! `locality_*` counters.

use std::collections::HashMap;

use bcag_trace::Histogram;

use crate::runs::RunPlan;

/// Cache-line size the analysis assumes, in bytes.
pub const CACHE_LINE_BYTES: u64 = 64;

/// Upper bound on traversal elements replayed per analysis.
pub const MAX_ANALYZED: usize = 1 << 14;

/// Distribution-shaped locality metrics of one plan traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityStats {
    /// Elements replayed (min of the plan's count and [`MAX_ANALYZED`]).
    pub elements: u64,
    /// Distinct cache lines touched — the working-set size in lines.
    pub lines: u64,
    /// Distinct bytes touched (`elements * elem_bytes`; traversal
    /// addresses are distinct within a plan).
    pub bytes_touched: u64,
    /// First-touch accesses (compulsory misses at line granularity).
    pub cold_misses: u64,
    /// LRU stack distances (in lines) of every line re-touch.
    pub reuse: Histogram,
}

impl LocalityStats {
    /// Average distinct bytes consumed per touched cache line (0 when the
    /// plan is empty). At most [`CACHE_LINE_BYTES`].
    pub fn bytes_per_line(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.bytes_touched as f64 / self.lines as f64
        }
    }
}

/// Replays (a bounded prefix of) the plan's address stream at cache-line
/// granularity and returns its locality metrics. `elem_bytes` is the
/// element width the addresses index (8 for the `f64`/`i64` arrays the
/// runtime moves).
///
/// Stack distances are counted, not found by scanning an LRU stack: a
/// Fenwick tree over access times marks each line's most recent access,
/// so the distinct lines touched since a line's previous access `t0` are
/// the marks after `t0` — `O(log n)` per access, `O(n log n)` per replay
/// rather than `O(n × working set)`.
pub fn analyze(plan: &RunPlan, elem_bytes: usize) -> LocalityStats {
    let elem_bytes = elem_bytes.max(1) as u64;
    let n = plan.count().min(MAX_ANALYZED);
    let mut marks = Fenwick::new(n);
    // Each line's most recent access time.
    let mut last: HashMap<u64, usize> = HashMap::new();
    let mut reuse = Histogram::new();
    let mut elements = 0usize;
    plan.for_each_segment(|seg| {
        for j in 0..seg.len {
            if elements >= n {
                return;
            }
            let byte_addr = (seg.addr + j * seg.gap) as u64 * elem_bytes;
            let line = byte_addr / CACHE_LINE_BYTES;
            // A multi-byte element can straddle a line; charging the
            // first line keeps the replay one-access-per-element.
            if let Some(t0) = last.insert(line, elements) {
                reuse.record(marks.prefix(elements) - marks.prefix(t0 + 1));
                marks.add(t0, -1);
            }
            marks.add(elements, 1);
            elements += 1;
        }
    });
    let lines = last.len() as u64;
    LocalityStats {
        elements: elements as u64,
        lines,
        bytes_touched: elements as u64 * elem_bytes,
        cold_misses: lines,
        reuse,
    }
}

/// A Fenwick (binary indexed) tree of counts over positions `0..n`.
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(n: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at position `i`.
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// The sum over positions `0..i`.
    fn prefix(&self, i: usize) -> u64 {
        let (mut i, mut sum) = (i, 0i64);
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum as u64
    }
}

/// Histogram-free locality summary for the tuning pass: distinct lines
/// and bytes over (a bounded prefix of) the traversal, skipping the LRU
/// replay entirely — [`analyze`] is `O(elements × log elements)` plus a
/// histogram, more than the plan-compile path needs, while a
/// distinct-line count is `O(elements)`. The returned stats carry an empty `reuse`
/// histogram and `cold_misses == lines`; `max_elems` bounds the replay
/// (the gap table is periodic, so a few periods converge).
pub fn analyze_lines(plan: &RunPlan, elem_bytes: usize, max_elems: usize) -> LocalityStats {
    let elem_bytes = elem_bytes.max(1) as u64;
    let mut lines = std::collections::HashSet::new();
    let mut elements = 0u64;
    plan.for_each_segment(|seg| {
        for j in 0..seg.len {
            if elements >= max_elems as u64 {
                return;
            }
            elements += 1;
            let byte_addr = (seg.addr + j * seg.gap) as u64 * elem_bytes;
            lines.insert(byte_addr / CACHE_LINE_BYTES);
        }
    });
    LocalityStats {
        elements,
        lines: lines.len() as u64,
        bytes_touched: elements * elem_bytes,
        cold_misses: lines.len() as u64,
        reuse: Histogram::new(),
    }
}

/// [`analyze`]s the plan and folds the results into the active trace
/// session: the `reuse_distance_lines` histogram plus the
/// `locality_elements` / `locality_lines_touched` /
/// `locality_bytes_touched` / `locality_cold_misses` counters. One
/// relaxed atomic load when tracing is disabled. Returns the stats so
/// callers can also inspect them directly.
pub fn record(plan: &RunPlan, elem_bytes: usize) -> Option<LocalityStats> {
    if !bcag_trace::enabled() {
        return None;
    }
    let stats = analyze(plan, elem_bytes);
    if stats.elements == 0 {
        return Some(stats);
    }
    bcag_trace::record_hist("reuse_distance_lines", &stats.reuse);
    bcag_trace::count("locality_elements", stats.elements);
    bcag_trace::count("locality_lines_touched", stats.lines);
    bcag_trace::count("locality_bytes_touched", stats.bytes_touched);
    bcag_trace::count("locality_cold_misses", stats.cold_misses);
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear LRU-stack replay [`analyze`] replaced: most recently
    /// used line at the back, each re-touch found by a backward scan.
    /// `O(elements × working set)`; kept as the oracle.
    fn analyze_linear(plan: &RunPlan, elem_bytes: usize) -> LocalityStats {
        let elem_bytes = elem_bytes.max(1) as u64;
        let mut stack: Vec<u64> = Vec::new();
        let mut reuse = Histogram::new();
        let mut elements = 0u64;
        let mut cold = 0u64;
        plan.for_each_segment(|seg| {
            for j in 0..seg.len {
                if elements >= MAX_ANALYZED as u64 {
                    return;
                }
                elements += 1;
                let line = (seg.addr + j * seg.gap) as u64 * elem_bytes / CACHE_LINE_BYTES;
                if let Some(pos) = stack.iter().rposition(|&l| l == line) {
                    reuse.record((stack.len() - 1 - pos) as u64);
                    stack.remove(pos);
                } else {
                    cold += 1;
                }
                stack.push(line);
            }
        });
        LocalityStats {
            elements,
            lines: stack.len() as u64,
            bytes_touched: elements * elem_bytes,
            cold_misses: cold,
            reuse,
        }
    }

    /// The Fenwick replay reports exactly what the linear stack scan
    /// does — counters and the whole reuse histogram — on random plans,
    /// bounded ones included.
    #[test]
    fn fenwick_replay_matches_linear_stack() {
        let mut rng = bcag_harness::Rng::seed_from_u64(0x10ca1);
        for trial in 0..120 {
            let period = rng.random_range(1..=12) as usize;
            let gaps: Vec<i64> = (0..period).map(|_| rng.random_range(1..=40)).collect();
            let start = rng.random_range(0..=100i64);
            // Every tenth plan runs past the analysis bound.
            let span = if trial % 10 == 0 {
                1 << 20
            } else {
                rng.random_range(0..=6000)
            };
            let plan = RunPlan::compile(Some(start), start + span, &gaps);
            let eb = *rng.choice(&[1usize, 4, 8, 32]);
            let (got, want) = (analyze(&plan, eb), analyze_linear(&plan, eb));
            assert_eq!(got, want, "gaps {gaps:?} start {start} span {span} eb {eb}");
        }
    }

    fn uniform_plan(start: i64, last: i64, gap: i64) -> RunPlan {
        // A one-period gap table with a constant gap compiles to Uniform.
        RunPlan::compile(Some(start), last, &[gap, gap])
    }

    #[test]
    fn contiguous_traversal_fills_lines() {
        // 64 contiguous f64 elements = 512 bytes = 8 full lines.
        let plan = uniform_plan(0, 63, 1);
        let s = analyze(&plan, 8);
        assert_eq!(s.elements, 64);
        assert_eq!(s.lines, 8);
        assert_eq!(s.cold_misses, 8);
        assert_eq!(s.bytes_touched, 512);
        assert_eq!(s.bytes_per_line(), 64.0);
        // 8 elements share each line: 56 same-line re-touches at
        // distance 0.
        assert_eq!(s.reuse.count(), 56);
        assert_eq!(s.reuse.max(), 0);
    }

    #[test]
    fn wide_stride_wastes_lines() {
        // Gap 8 on f64: every element lands on its own line.
        let plan = uniform_plan(0, 8 * 31, 8);
        let s = analyze(&plan, 8);
        assert_eq!(s.elements, 32);
        assert_eq!(s.lines, 32);
        assert_eq!(s.cold_misses, 32);
        assert!(s.reuse.is_empty());
        assert_eq!(s.bytes_per_line(), 8.0);
    }

    #[test]
    fn cyclic_plan_interleaves_reuse() {
        // Two-run period: 4 contiguous then skip ahead — the skip
        // revisits no line, so reuse stays same-line spatial hits.
        let plan = RunPlan::compile(Some(0), 199, &[1, 1, 1, 17]);
        let s = analyze(&plan, 8);
        assert!(s.elements > 0);
        assert!(s.lines >= s.cold_misses.min(s.lines));
        assert_eq!(s.cold_misses + s.reuse.count(), s.elements);
    }

    #[test]
    fn empty_plan_yields_zeroes() {
        let s = analyze(&RunPlan::empty(), 8);
        assert_eq!(s.elements, 0);
        assert_eq!(s.lines, 0);
        assert_eq!(s.bytes_per_line(), 0.0);
        assert!(s.reuse.is_empty());
    }

    #[test]
    fn analysis_is_bounded() {
        let plan = uniform_plan(0, i64::MAX / 4, 1);
        let s = analyze(&plan, 8);
        assert_eq!(s.elements, MAX_ANALYZED as u64);
    }

    #[test]
    fn analyze_lines_agrees_with_full_analysis() {
        for (start, last, am, eb) in [
            (0i64, 63i64, vec![1i64], 8usize),
            (0, 8 * 31, vec![8, 8], 8),
            (0, 199, vec![1, 1, 1, 17], 8),
            (5, 900, vec![3, 12, 15, 12, 3, 12, 3, 12], 4),
        ] {
            let plan = RunPlan::compile(Some(start), last, &am);
            let fast = analyze_lines(&plan, eb, MAX_ANALYZED);
            let full = analyze(&plan, eb);
            assert_eq!(fast.elements, full.elements);
            assert_eq!(fast.lines, full.lines);
            assert_eq!(fast.bytes_touched, full.bytes_touched);
            assert_eq!(fast.bytes_per_line(), full.bytes_per_line());
            assert!(fast.reuse.is_empty());
        }
        // Bounded, like the full analysis.
        let huge = RunPlan::compile(Some(0), i64::MAX / 4, &[1, 1]);
        assert_eq!(analyze_lines(&huge, 8, 1000).elements, 1000);
        // Empty plan yields zeroes.
        let empty = analyze_lines(&RunPlan::empty(), 8, 100);
        assert_eq!(empty.elements, 0);
        assert_eq!(empty.bytes_per_line(), 0.0);
    }

    #[test]
    fn record_lands_histogram_and_counters_in_trace() {
        let plan = uniform_plan(0, 63, 1);
        let ((), trace) = bcag_trace::capture(|| {
            let stats = record(&plan, 8).expect("tracing enabled");
            assert_eq!(stats.lines, 8);
        });
        assert_eq!(trace.counter_total("locality_lines_touched"), 8);
        assert_eq!(trace.counter_total("locality_elements"), 64);
        let h = trace.histogram_total("reuse_distance_lines");
        assert_eq!(h.count(), 56);
    }

    #[test]
    fn record_is_inert_when_disabled() {
        // No capture session: must not record (and must not panic).
        assert!(record(&uniform_plan(0, 9, 1), 8).is_none());
    }
}
