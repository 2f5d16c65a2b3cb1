//! `traffic_mix`: `nproc` closed-loop driver threads, each running
//! randomized HPF scripts through `bcag_rt::Interp::run`. Scripts are
//! drawn the way the repository's `traffic` bench draws them
//! (`crates/bench/benches/traffic.rs`): every parameter uniform over a
//! small pool, p ∈ {4, 32}. Those pools give 576 statement shapes, more
//! than the plan cache holds, so cache hits, inserts and evictions
//! interleave. Statements are small (n = 384), so dispatch and fixed
//! per-statement cost dominate.

use bcag_core::section::RegularSection;
use bcag_harness::rng::{mix_seed, Rng};
use bcag_rt::Interp;

use crate::layers::{Shape, DRIVER_LANE};
use crate::stats::{ledger_work, process_cpu_ns, status_mib, timed, Baseline, Outcome, Tally};
use crate::Workload;

const N: i64 = 384;
/// Machine sizes scripts run on.
const PS: [i64; 2] = [4, 32];
/// Scripts per machine size in the warm-up, and the stream they come
/// from.
const WARM_SCRIPTS: usize = 8;
const WARM_STREAM: u64 = 0x7a11;

/// One script with its expected `PRINT` output.
struct Script {
    text: String,
    expected: Vec<String>,
    /// Section elements its statements assign.
    elems: u64,
    /// Section elements times operands, over its statements.
    operand_elems: u64,
    shapes: Vec<Shape>,
}

/// Draws a script on `p` processors as the `traffic` bench's
/// `random_script` does: A and B aligned to one template in cyclic(k),
/// one to three `ASSIGN`s on one section, each `A = 2·B` or `A = A + B`
/// with even odds, a `REDISTRIBUTE` of A with even odds. A `PRINT` of all
/// of A is appended so the output can be checked; the expected output
/// comes from a sequential global-array reference.
fn script(rng: &mut Rng, p: i64) -> Script {
    let k = *rng.choice(&[3i64, 5, 8]);
    let k2 = *rng.choice(&[2i64, 4, 7]);
    let s = *rng.choice(&[1i64, 3, 4, 9]);
    let l = *rng.choice(&[0i64, 1, 2, 5]);
    let u = N - 1 - *rng.choice(&[0i64, 1, 3]);
    let mut text = format!(
        "PROCESSORS P({p})\n\
         TEMPLATE T({N})\n\
         REAL A({N})\n\
         REAL B({N})\n\
         ALIGN A(i) WITH T(i)\n\
         ALIGN B(i) WITH T(i)\n\
         DISTRIBUTE T(CYCLIC({k})) ONTO P\n\
         INIT A LINEAR 1 0\n\
         INIT B LINEAR 2 1\n"
    );
    let sec = RegularSection::new(l, u, s).expect("in bounds");
    let count = sec.count();
    let mut a: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let b: Vec<f64> = (0..N).map(|i| (2 * i + 1) as f64).collect();
    let (mut elems, mut operand_elems) = (0u64, 0u64);
    let mut shapes = Vec::new();
    for _ in 0..rng.random_range(1..=3) {
        let ops = if rng.random_bool(0.5) {
            text.push_str(&format!("ASSIGN A({l}:{u}:{s}) = B({l}:{u}:{s}) * 2\n"));
            for t in 0..count {
                let g = (l + t * s) as usize;
                a[g] = b[g] * 2.0;
            }
            vec![(k, sec)]
        } else {
            text.push_str(&format!(
                "ASSIGN A({l}:{u}:{s}) = A({l}:{u}:{s}) + B({l}:{u}:{s})\n"
            ));
            for t in 0..count {
                let g = (l + t * s) as usize;
                a[g] += b[g];
            }
            vec![(k, sec), (k, sec)]
        };
        elems += count as u64;
        operand_elems += count as u64 * ops.len() as u64;
        shapes.push(Shape {
            p,
            k_a: k,
            sec_a: sec,
            ops,
            n: N,
        });
    }
    if rng.random_bool(0.5) {
        text.push_str(&format!("REDISTRIBUTE A CYCLIC({k2})\n"));
        operand_elems += N as u64;
    }
    let all = format!("A(0:{}:1)", N - 1);
    text.push_str(&format!("PRINT {all}\n"));
    Script {
        text,
        expected: vec![format!("{all} = {a:?}")],
        elems,
        operand_elems,
        shapes,
    }
}

/// Runs one script, checks its output outside the timed region, and
/// records it; drawing the script and checking it are the ledger's work.
fn step(rng: &mut Rng, p: i64, tally: &mut Tally) {
    let (sc, draw_ns) = ledger_work(|| script(rng, p));
    let (cost, res) = timed(|| {
        let _op = bcag_trace::span("ledger.op");
        Interp::run(&sc.text)
    });
    let (outcome, check_ns) = ledger_work(|| match res {
        None => Outcome::Panicked,
        Some(Ok(out)) if out == sc.expected => Outcome::Ok,
        Some(_) => Outcome::Wrong,
    });
    tally.ledger_cpu_ns += draw_ns + check_ns;
    tally.push(cost, sc.elems, outcome);
    tally.operand_elems += sc.operand_elems;
}

pub struct TrafficMix {
    seed: u64,
    drivers: usize,
    /// Measured phases run so far (each draws from its own streams).
    phases: u64,
    baseline: Baseline,
}

impl TrafficMix {
    pub fn new(seed: u64) -> TrafficMix {
        TrafficMix {
            seed,
            drivers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            phases: 0,
            // Scripts are drawn as they run; there are no inputs up front.
            baseline: Baseline {
                cpu_ns: 0,
                rss_mib: status_mib("VmRSS:"),
            },
        }
    }
}

impl Workload for TrafficMix {
    fn drivers(&self) -> usize {
        self.drivers
    }

    fn baseline(&self) -> Baseline {
        self.baseline
    }

    fn tail_cap(&self) -> f64 {
        99.0
    }

    fn warm(&mut self) -> Tally {
        // Boot the pool of each machine size through its first scripts.
        // They come from a stream no seed changes: script costs differ
        // several-fold, so seeded warm-up scripts would make set-up time
        // compare draws rather than programs.
        let mut rng = Rng::seed_from_u64(mix_seed(WARM_STREAM));
        let mut tally = Tally::default();
        for p in PS {
            for _ in 0..WARM_SCRIPTS {
                step(&mut rng, p, &mut tally);
            }
        }
        tally
    }

    fn run(&mut self, seconds: f64) -> Tally {
        self.phases += 1;
        let (seed, phases) = (self.seed, self.phases);
        let cpu0 = process_cpu_ns();
        let mut total = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.drivers)
                .map(|d| {
                    let stream = seed ^ (phases << 32) ^ d as u64;
                    std::thread::Builder::new()
                        .name(format!("{DRIVER_LANE}-{d}"))
                        .spawn_scoped(s, move || {
                            let mut rng = Rng::seed_from_u64(mix_seed(stream));
                            let mut tally = Tally::default();
                            let t0 = std::time::Instant::now();
                            while t0.elapsed().as_secs_f64() < seconds {
                                let p = *rng.choice(&PS);
                                step(&mut rng, p, &mut tally);
                            }
                            tally
                        })
                        .expect("spawn driver thread")
                })
                .collect();
            let mut total = Tally::default();
            for h in handles {
                total.merge(h.join().expect("driver threads catch operation panics"));
            }
            total
        });
        // Each driver's per-script CPU reading also covers the other
        // drivers' concurrent scripts; the process's CPU time over the
        // phase counts everything once. The drivers' own drawing and
        // checking is taken out.
        total.cpu_ns = process_cpu_ns() - cpu0 - total.ledger_cpu_ns;
        total
    }

    fn shapes(&self) -> Vec<Shape> {
        // Statement shapes of a few scripts from a stream of their own.
        let mut rng = Rng::seed_from_u64(mix_seed(!self.seed));
        let mut shapes = Vec::new();
        while shapes.len() < 8 {
            let p = *rng.choice(&PS);
            shapes.extend(script(&mut rng, p).shapes);
        }
        shapes.truncate(8);
        shapes
    }
}
