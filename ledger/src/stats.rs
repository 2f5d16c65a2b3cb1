//! Per-operation latency and CPU samples and the end-to-end summary built
//! from them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bcag_harness::json::Json;
use bcag_spmd::DistArray;

/// Tail percentiles the ledger may report, highest first. The reported
/// tail is the highest of these, up to the workload's cap, with at least
/// [`TAIL_BEYOND`] samples above it. The cap keeps the reported
/// percentile fixed from run to run: each workload caps at the highest
/// percentile its usual sample count supports.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples a reported tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Driver busy time per throughput window. Throughput is the median over
/// windows, so a burst of interference from outside the process moves it
/// less than a mean over the whole phase.
const WINDOW_NS: u64 = 500_000_000;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads the CPU-time clocks as a 64-bit Linux timespec");

/// Reads a CPU-time clock, in nanoseconds.
fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) and the clock ids passed in
    // are the kernel's constants, so the call writes only within `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor steals
/// from a virtual CPU is not charged to it, so on a shared host this
/// clock keeps its pace while wall time stretches.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(2)
}

/// CPU time consumed so far by the calling thread, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(3)
}

/// Runs the ledger's own work `body` (input generation, reference
/// computation, output checks) on the calling thread and returns its
/// result with the thread CPU time it took, so that time can be kept out
/// of the program's figures.
pub fn ledger_work<R>(body: impl FnOnce() -> R) -> (R, u64) {
    let c0 = thread_cpu_ns();
    let out = body();
    (out, thread_cpu_ns() - c0)
}

/// A `/proc/self/status` field in KiB, converted to MiB.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a workload's constructor spent on the ledger's own inputs and
/// references before the program ran: the thread CPU time generating
/// them, and the resident memory of the process once they exist. Set-up
/// time and peak memory are reported net of these.
#[derive(Debug, Default, Clone, Copy)]
pub struct Baseline {
    pub cpu_ns: u64,
    pub rss_mib: f64,
}

/// Generates a workload's inputs and references with `make` and returns
/// them with their [`Baseline`].
pub fn inputs<R>(make: impl FnOnce() -> R) -> (R, Baseline) {
    let (out, cpu_ns) = ledger_work(make);
    let rss_mib = status_mib("VmRSS:");
    (out, Baseline { cpu_ns, rss_mib })
}

/// Wall time and process CPU time of one operation, nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Runs `op` with panics caught and returns its cost with its result
/// (`None` when it panicked).
pub fn timed<R>(op: impl FnOnce() -> R) -> (Cost, Option<R>) {
    let c0 = process_cpu_ns();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(op)).ok();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - c0;
    (Cost { wall_ns, cpu_ns }, out)
}

/// The outcome of every operation one measured phase attempted.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Wall time of each attempted operation, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Section elements assigned by the operations that succeeded.
    pub elems: u64,
    /// Operations that returned a wrong result or an error.
    pub wrong: u64,
    /// Operations that panicked.
    pub panicked: u64,
    /// Operand elements the operations read: section elements times
    /// operands, the plan's minimum data movement in elements.
    pub operand_elems: u64,
    /// Plan-cache hits and misses the output checks caused (subtracted
    /// from the program's cache counters).
    pub check_hits: u64,
    /// See [`Tally::check_hits`].
    pub check_misses: u64,
    /// Process CPU time the operations consumed: their readings summed
    /// with one driver; with several, whose readings overlap, the
    /// process's CPU time over the phase less [`Tally::ledger_cpu_ns`]
    /// (set by the workload).
    pub cpu_ns: u64,
    /// Thread CPU time the ledger's own work between operations took:
    /// drawing inputs, computing references, checking outputs.
    pub ledger_cpu_ns: u64,
    /// Closed throughput windows, and the one filling up.
    windows: Vec<Window>,
    open: Window,
}

/// Operations, elements and driver busy time of one throughput window.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    ops: u64,
    elems: u64,
    ns: u64,
}

impl Tally {
    /// Records one operation: its cost, the elements it assigned, and
    /// whether its output checked out.
    pub fn push(&mut self, cost: Cost, elems: u64, outcome: Outcome) {
        self.lat_ns.push(cost.wall_ns);
        self.open.ops += 1;
        self.open.ns += cost.wall_ns;
        self.cpu_ns += cost.cpu_ns;
        match outcome {
            Outcome::Ok => {
                self.elems += elems;
                self.open.elems += elems;
            }
            Outcome::Wrong => self.wrong += 1,
            Outcome::Panicked => self.panicked += 1,
        }
        if self.open.ns >= WINDOW_NS {
            self.windows.push(std::mem::take(&mut self.open));
        }
    }

    /// Folds another driver's tally into this one. The other tally's
    /// unfilled window is dropped unless it has no full one.
    pub fn merge(&mut self, other: Tally) {
        self.windows.extend(other.closed_windows());
        self.lat_ns.extend(other.lat_ns);
        self.cpu_ns += other.cpu_ns;
        self.ledger_cpu_ns += other.ledger_cpu_ns;
        self.elems += other.elems;
        self.wrong += other.wrong;
        self.panicked += other.panicked;
        self.operand_elems += other.operand_elems;
        self.check_hits += other.check_hits;
        self.check_misses += other.check_misses;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Operations that were wrong or panicked.
    pub fn failed(&self) -> u64 {
        self.wrong + self.panicked
    }

    /// Full windows, or the unfilled one when there is no full one.
    fn closed_windows(&self) -> Vec<Window> {
        if self.windows.is_empty() && self.open.ops > 0 {
            vec![self.open]
        } else {
            self.windows.clone()
        }
    }

    /// Summed operation time, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.lat_ns.iter().sum()
    }

    /// The end-to-end summary of this tally, for `drivers` closed-loop
    /// drivers that ran concurrently, with the tail percentile capped at
    /// `tail_cap`. Throughput is the median over windows of one driver's
    /// operations per second of busy time, times the number of drivers,
    /// so checking outputs between operations never counts against the
    /// program. CPU costs are totals over the phase, which weigh every
    /// operation of a mixed workload alike.
    pub fn summary(&self, drivers: usize, tail_cap: f64) -> Summary {
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        let windows = self.closed_windows();
        let rates = |count: fn(&Window) -> u64| -> Vec<f64> {
            windows
                .iter()
                .map(|w| count(w) as f64 * 1e9 / w.ns.max(1) as f64)
                .collect()
        };
        let op_rates = rates(|w| w.ops);
        let cpu_ns = self.cpu_ns as f64;
        let (q1, q3) = (quantile(&op_rates, 0.25), quantile(&op_rates, 0.75));
        let (tail_pct, tail_ns) = tail(&sorted, tail_cap);
        Summary {
            ops_per_s: median(&op_rates) * drivers as f64,
            elems_per_s: median(&rates(|w| w.elems)) * drivers as f64,
            op_p50_us: percentile(&sorted, 50.0) / 1e3,
            op_tail_us: tail_ns / 1e3,
            tail_pct,
            samples: sorted.len(),
            fail_ratio: self.failed() as f64 / self.attempted().max(1) as f64,
            windows: windows.len(),
            window_spread: (q3 - q1) / median(&op_rates),
            cpu_us_per_op: cpu_ns / self.attempted().max(1) as f64 / 1e3,
            cpu_ns_per_elem: cpu_ns / self.elems.max(1) as f64,
        }
    }
}

/// How one operation's output checked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Output matched the reference.
    Ok,
    /// Output differed from the reference, or the program returned an
    /// error.
    Wrong,
    /// The operation panicked.
    Panicked,
}

/// End-to-end figures of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Operations per second.
    pub ops_per_s: f64,
    /// Section elements assigned per second.
    pub elems_per_s: f64,
    /// Median operation latency, microseconds.
    pub op_p50_us: f64,
    /// Tail operation latency at [`Summary::tail_pct`], microseconds.
    pub op_tail_us: f64,
    /// The percentile `op_tail_us` reports.
    pub tail_pct: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Wrong or panicked operations over operations attempted.
    pub fail_ratio: f64,
    /// Throughput windows behind the rates.
    pub windows: usize,
    /// Quartile spread of the windows' operation rates over their median:
    /// the noise within this one phase.
    pub window_spread: f64,
    /// Process CPU time per operation, microseconds.
    pub cpu_us_per_op: f64,
    /// Process CPU time per section element assigned, nanoseconds.
    pub cpu_ns_per_elem: f64,
}

impl Summary {
    /// The summary as a JSON object.
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("ops_per_s", Json::Num(self.ops_per_s)),
            ("elems_per_s", Json::Num(self.elems_per_s)),
            ("op_p50_us", Json::Num(self.op_p50_us)),
            ("op_tail_us", Json::Num(self.op_tail_us)),
            ("tail_pct", Json::Num(self.tail_pct)),
            ("samples", Json::Int(self.samples as i64)),
            ("fail_ratio", Json::Num(self.fail_ratio)),
            ("windows", Json::Int(self.windows as i64)),
            ("window_spread", Json::Num(self.window_spread)),
            ("cpu_us_per_op", Json::Num(self.cpu_us_per_op)),
            ("cpu_ns_per_elem", Json::Num(self.cpu_ns_per_elem)),
        ])
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The highest ladder percentile up to `cap` with at least
/// [`TAIL_BEYOND`] samples above its rank, and its value.
fn tail(sorted: &[u64], cap: f64) -> (f64, f64) {
    let n = sorted.len();
    for pct in TAIL_LADDER.into_iter().filter(|&p| p <= cap) {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if n >= rank + TAIL_BEYOND {
            return (pct, percentile(sorted, pct));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// Whether a distributed array holds exactly `want`, compared one
/// contiguous local block at a time.
pub fn holds(arr: &DistArray<f64>, want: &[f64]) -> bool {
    let (p, k) = (arr.p() as usize, arr.k() as usize);
    if arr.len() as usize != want.len() {
        return false;
    }
    (0..p).all(|m| {
        arr.local(m as i64).chunks(k).enumerate().all(|(row, blk)| {
            let g = row * p * k + m * k;
            want.get(g..g + blk.len()) == Some(blk)
        })
    })
}

/// Linearly interpolated quantile `q` of unsorted values (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99.9 would leave 1 sample beyond, p99 leaves 10.
        assert_eq!(tail(&v, 99.9), (99.0, 990.0));
        assert_eq!(tail(&v, 90.0), (90.0, 900.0));
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(tail(&v, 99.9), (90.0, 180.0));
    }

    #[test]
    fn holds_compares_by_global_index() {
        let want: Vec<f64> = (0..103).map(f64::from).collect();
        let mut arr = DistArray::from_global(4, 5, &want).unwrap();
        assert!(holds(&arr, &want));
        arr.set(77, -1.0).unwrap();
        assert!(!holds(&arr, &want));
        assert!(!holds(&arr, &want[..100]));
    }

    #[test]
    fn summary_counts_failures() {
        let mut t = Tally::default();
        let cost = |wall_ns| Cost {
            wall_ns,
            cpu_ns: 2 * wall_ns,
        };
        t.push(cost(1_000), 10, Outcome::Ok);
        t.push(cost(3_000), 10, Outcome::Wrong);
        t.push(cost(2_000), 10, Outcome::Panicked);
        let s = t.summary(1, 99.0);
        assert_eq!(t.attempted(), 3);
        assert_eq!(t.failed(), 2);
        assert!((s.fail_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.windows, 1);
        assert!((s.ops_per_s - 3.0 / 6e-6).abs() < 1e-3);
        assert!((s.elems_per_s - 10.0 / 6e-6).abs() < 1e-3);
        assert_eq!(s.op_p50_us, 2.0);
        assert_eq!(s.cpu_us_per_op, 4.0);
        assert_eq!(s.cpu_ns_per_elem, 1_200.0);
    }

    #[test]
    fn throughput_is_the_median_window() {
        let mut t = Tally::default();
        // Three windows of 1, 2 and 4 ops in 0.5 s each, then a partial one.
        for ops in [1u64, 2, 4] {
            for _ in 0..ops {
                t.push(
                    Cost {
                        wall_ns: WINDOW_NS / ops,
                        cpu_ns: 0,
                    },
                    1,
                    Outcome::Ok,
                );
            }
        }
        t.push(
            Cost {
                wall_ns: 1,
                cpu_ns: 0,
            },
            1,
            Outcome::Ok,
        );
        let s = t.summary(2, 99.0);
        assert_eq!(s.windows, 3);
        assert!((s.ops_per_s - 2.0 * 4.0).abs() < 1e-9);
    }
}
