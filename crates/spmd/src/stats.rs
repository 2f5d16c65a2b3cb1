//! Workload statistics for sections over block-cyclic layouts.
//!
//! Compiler writers and library designers pick `k` to balance load against
//! communication (the tension behind Dongarra et al.'s block-scattered
//! advocacy in the paper's introduction). All the figures here come from
//! the closed forms the access machinery provides — no element scanning:
//! per-processor section counts from [`bcag_core::start::count_owned`],
//! message volumes from [`crate::comm::CommSchedule`]. The trace-derived
//! cross-checks below work in both launch modes: resident pool workers
//! carry persistent `node-<m>` lanes whose counters sum exactly like the
//! per-launch lanes of scoped threads.

use bcag_core::error::Result;
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;
use bcag_core::start::count_owned;

use crate::comm::{CommSchedule, ExecMode};
use crate::fuse::{self, FuseCensus};
use crate::transport;

/// Load distribution of a section over a `(p, k)` layout.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Owned section elements per processor.
    pub per_proc: Vec<i64>,
    /// Total section elements.
    pub total: i64,
    /// Maximum per-processor count.
    pub max: i64,
    /// Minimum per-processor count.
    pub min: i64,
    /// `max / (total / p)`: 1.0 is perfect balance; the parallel-time
    /// slowdown factor relative to ideal.
    pub imbalance: f64,
}

/// Computes the per-processor load of `section` under `(p, k)`, in closed
/// form (one `O(k)` pass per processor).
pub fn load_stats(p: i64, k: i64, section: &RegularSection) -> Result<LoadStats> {
    let norm = section.normalized();
    let per_proc: Vec<i64> = if norm.count == 0 {
        vec![0; p as usize]
    } else {
        let problem = Problem::new(p, k, norm.lo, norm.step)?;
        (0..p)
            .map(|m| count_owned(&problem, m, norm.hi))
            .collect::<Result<_>>()?
    };
    let total: i64 = per_proc.iter().sum();
    let max = per_proc.iter().copied().max().unwrap_or(0);
    let min = per_proc.iter().copied().min().unwrap_or(0);
    let ideal = total as f64 / p as f64;
    let imbalance = if total == 0 { 1.0 } else { max as f64 / ideal };
    Ok(LoadStats {
        per_proc,
        total,
        max,
        min,
        imbalance,
    })
}

/// Communication summary of an assignment `A(sec_a) = B(sec_b)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommStats {
    /// Elements staying on their processor.
    pub local_elements: usize,
    /// Elements crossing processors.
    pub nonlocal_elements: usize,
    /// Number of nonempty (src ≠ dst) messages.
    pub messages: usize,
    /// Largest single message (elements).
    pub max_message: usize,
}

/// Summarizes the communication of an assignment from the closed-form
/// message matrix — counts only, no transfer list is ever materialized,
/// so this works at any section size.
pub fn comm_stats(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    k_b: i64,
    sec_b: &RegularSection,
) -> Result<CommStats> {
    let matrix = CommSchedule::message_matrix(p, k_a, sec_a, k_b, sec_b)?;
    let mut local = 0i64;
    let mut nonlocal = 0i64;
    let mut messages = 0usize;
    let mut max_message = 0i64;
    for (src, dst, n) in matrix.entries() {
        if src == dst {
            local += n;
        } else {
            nonlocal += n;
            if n > 0 {
                messages += 1;
                max_message = max_message.max(n);
            }
        }
    }
    Ok(CommStats {
        local_elements: local as usize,
        nonlocal_elements: nonlocal as usize,
        messages,
        max_message: max_message as usize,
    })
}

/// Per-node owned-element counts observed in a collected trace: the
/// `elements_packed` totals of the `node-<m>` lanes, padded with zeros to
/// `p` entries (a node that owned nothing may never have registered a
/// lane). Running an instrumented per-node [`crate::pack::pack`] under
/// [`bcag_trace::capture`] and passing the trace here cross-checks the
/// closed-form [`LoadStats::per_proc`] against what the node programs
/// actually enumerated.
pub fn per_node_packed_from_trace(trace: &bcag_trace::Trace, p: i64) -> Vec<i64> {
    let mut out: Vec<i64> = trace
        .per_node_counter("elements_packed")
        .into_iter()
        .map(|v| v as i64)
        .collect();
    out.resize(p as usize, 0);
    out
}

/// Structure census of the fused per-node epoch a statement shape
/// compiles to: how many send, receive, local-move and apply segments
/// the compiled program executes per epoch. The analytics counterpart
/// of [`comm_stats`] for the fused path — a shape whose census shows
/// many `Wide` exchanges and few self-moves is communication-bound no
/// matter how fast the kernels run.
///
/// The census is a property of the statement *shape* alone (element
/// type only selects kernels, not structure), so this compiles a
/// throwaway `f64` program — schedules still come from the shared
/// cache, but nothing is installed in the fused-program cache.
pub fn fuse_census(
    p: i64,
    k_a: i64,
    sec_a: &RegularSection,
    ops: &[(i64, RegularSection)],
) -> Result<FuseCensus> {
    let program = fuse::compile::<f64>(
        p,
        k_a,
        sec_a,
        ops,
        ExecMode::Batched,
        transport::default_transport(),
        // Census under the current tune regime, so `bcag stats` shows
        // the blocking the fused path would actually run with.
        fuse::epoch_block_elems::<f64>(sec_a),
    )?;
    Ok(program.census())
}

/// Sweeps block sizes and reports `(k, imbalance, nonlocal fraction)` for a
/// same-layout copy shifted by `shift` — the classic "choose k" tradeoff
/// table: small `k` balances load; large `k` keeps shifted neighbors local.
pub fn block_size_tradeoff(p: i64, ks: &[i64], n: i64, shift: i64) -> Result<Vec<(i64, f64, f64)>> {
    let mut out = Vec::with_capacity(ks.len());
    let sec_a = RegularSection::new(0, n - 1 - shift, 1)?;
    let sec_b = RegularSection::new(shift, n - 1, 1)?;
    for &k in ks {
        let load = load_stats(p, k, &sec_a)?;
        let comm = comm_stats(p, k, &sec_a, k, &sec_b)?;
        let nonlocal_frac =
            comm.nonlocal_elements as f64 / (comm.local_elements + comm.nonlocal_elements) as f64;
        out.push((k, load.imbalance, nonlocal_frac));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_stats_match_enumeration() {
        let sec = RegularSection::new(3, 977, 7).unwrap();
        let stats = load_stats(8, 16, &sec).unwrap();
        let lay = bcag_core::Layout::from_raw(8, 16);
        for m in 0..8 {
            let expect = sec.iter().filter(|&g| lay.owner(g) == m).count() as i64;
            assert_eq!(stats.per_proc[m as usize], expect, "m={m}");
        }
        assert_eq!(stats.total, sec.count());
        assert!(stats.imbalance >= 1.0);
    }

    #[test]
    fn dense_unit_stride_is_balanced_for_small_k() {
        // n a multiple of pk: perfect balance.
        let sec = RegularSection::new(0, 255, 1).unwrap();
        let stats = load_stats(4, 8, &sec).unwrap();
        assert_eq!(stats.max, stats.min);
        assert!((stats.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_distribution_concentrates_strided_sections() {
        // Stride pk with block ~ n/p: all accesses on processor 0.
        let n = 256i64;
        let sec = RegularSection::new(0, 63, 1).unwrap(); // first quarter
        let stats = load_stats(4, 64, &sec).unwrap(); // block distribution
        assert_eq!(stats.per_proc, vec![64, 0, 0, 0]);
        assert_eq!(stats.imbalance, 4.0);
        let _ = n;
    }

    #[test]
    fn comm_stats_shift() {
        // Shift by exactly k: every element moves one processor over.
        let sec_a = RegularSection::new(0, 91, 1).unwrap();
        let sec_b = RegularSection::new(8, 99, 1).unwrap();
        let stats = comm_stats(4, 8, &sec_a, 8, &sec_b).unwrap();
        assert_eq!(stats.local_elements, 0);
        assert_eq!(stats.nonlocal_elements, 92);
        // Identity copy: all local.
        let same = comm_stats(4, 8, &sec_a, 8, &sec_a).unwrap();
        assert_eq!(same.nonlocal_elements, 0);
        assert_eq!(same.messages, 0);
    }

    #[test]
    fn tradeoff_trends() {
        // Shifted copy: nonlocal fraction decreases as k grows.
        let rows = block_size_tradeoff(4, &[1, 4, 16, 64], 1024, 1).unwrap();
        let fracs: Vec<f64> = rows.iter().map(|r| r.2).collect();
        assert!(fracs.windows(2).all(|w| w[0] >= w[1]), "{fracs:?}");
        // k = 1: every shifted element crosses; k = 64: only block edges.
        assert!(fracs[0] > 0.99);
        assert!(fracs[3] < 0.05);
    }

    #[test]
    fn fuse_census_agrees_with_comm_stats() {
        // Shift by exactly k: every element crosses one processor, so
        // the fused program's send/recv plan counts equal the message
        // matrix's nonempty-pair count.
        let sec_a = RegularSection::new(0, 91, 1).unwrap();
        let sec_b = RegularSection::new(8, 99, 1).unwrap();
        let comm = comm_stats(4, 8, &sec_a, 8, &sec_b).unwrap();
        let census = fuse_census(4, 8, &sec_a, &[(8, sec_b)]).unwrap();
        assert_eq!(census.sends, comm.messages);
        assert_eq!(census.recvs, comm.messages);
        assert!(census.applies > 0, "{census:?}");
        // Identity copy: all traffic is self-moves.
        let same = fuse_census(4, 8, &sec_a, &[(8, sec_a)]).unwrap();
        assert_eq!(same.sends, 0);
        assert!(same.self_moves > 0, "{same:?}");
    }

    #[test]
    fn empty_section() {
        let sec = RegularSection::new(10, 5, 1).unwrap();
        let stats = load_stats(4, 8, &sec).unwrap();
        assert_eq!(stats.total, 0);
        assert_eq!(stats.imbalance, 1.0);
    }
}
