//! `cold_shapes`: one closed-loop driver issuing `A(sec_a) = 2·B(sec_b) + 1`
//! where every statement has a shape the process has not seen: p = 32
//! (the paper's machine), block sizes uniform in [4, 512], strides from
//! Table 1's five families (7, 99, k+1, pk−1, pk+1), n = 2^16. Table
//! construction, plan compile and cache inserts dominate; execution is
//! small.

use std::collections::HashSet;

use bcag_core::method::Method;
use bcag_core::oracle;
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;
use bcag_harness::rng::{mix_seed, Rng};
use bcag_spmd::{cache, statement, DistArray};

use crate::layers::Shape;
use crate::stats::{holds, inputs, ledger_work, timed, Baseline, Outcome, Tally};
use crate::Workload;

const P: i64 = 32;
const N: i64 = 1 << 16;
/// Shapes kept for the probes.
const PROBE_SHAPES: usize = 8;
/// Table 1's stride families.
const FAMILIES: i64 = 5;
/// Block sizes are uniform in `[K_MIN, K_MAX]`.
const K_MIN: i64 = 4;
const K_MAX: i64 = 512;

/// The stride of Table 1's family `family` on a `(p, k)` layout.
fn stride(family: i64, p: i64, k: i64) -> i64 {
    match family {
        0 => 7,
        1 => 99,
        2 => k + 1,
        3 => p * k - 1,
        _ => p * k + 1,
    }
}

pub struct ColdShapes {
    rng: Rng,
    /// Statements drawn so far.
    drawn: i64,
    /// Seeded phases of the two block-size sequences.
    phase: [f64; 2],
    a_g: Vec<f64>,
    b_g: Vec<f64>,
    seen: HashSet<(i64, RegularSection, i64, RegularSection)>,
    recent: Vec<Shape>,
    /// Scratch for the expected contents of A.
    want: Vec<f64>,
    baseline: Baseline,
}

impl ColdShapes {
    pub fn new(seed: u64) -> ColdShapes {
        let ((mut rng, [a_g, b_g], want), baseline) = inputs(|| {
            let mut rng = Rng::seed_from_u64(mix_seed(seed));
            let arrays = [(); 2].map(|_| {
                (0..N)
                    .map(|_| rng.random_range(-4096..=4096) as f64 / 64.0)
                    .collect::<Vec<f64>>()
            });
            let want = arrays[0].clone();
            (rng, arrays, want)
        });
        let phase = [rng.random_f64(), rng.random_f64()];
        ColdShapes {
            rng,
            drawn: 0,
            phase,
            a_g,
            b_g,
            seen: HashSet::new(),
            recent: Vec::new(),
            want,
            baseline,
        }
    }

    /// Draws a statement shape not drawn before. Every window of 25
    /// statements pairs each of A's stride families with each of B's, and
    /// the block sizes follow additive recurrences (golden ratio and
    /// √2 − 1) from seeded phases, uniform on [4, 512] and evenly spread
    /// within any run. Every seed thus gets the same mix of work; the
    /// seed picks the exact sizes and the lower bounds.
    fn draw(&mut self) -> (i64, RegularSection, i64, RegularSection) {
        const STEPS: [f64; 2] = [0.618_033_988_749_894_9, 0.414_213_562_373_095_1];
        loop {
            let i = self.drawn;
            self.drawn += 1;
            let [k_a, k_b] = std::array::from_fn(|j| {
                let u = (self.phase[j] + i as f64 * STEPS[j]).fract();
                K_MIN + (u * (K_MAX - K_MIN + 1) as f64) as i64
            });
            let s_a = stride(i % FAMILIES, P, k_a);
            let s_b = stride(i / FAMILIES % FAMILIES, P, k_b);
            let r = &mut self.rng;
            let (l_a, l_b) = (r.random_range(0..256), r.random_range(0..256));
            let count = ((N - 1 - l_a) / s_a + 1).min((N - 1 - l_b) / s_b + 1);
            let sec_a = RegularSection::new(l_a, l_a + (count - 1) * s_a, s_a).expect("in bounds");
            let sec_b = RegularSection::new(l_b, l_b + (count - 1) * s_b, s_b).expect("in bounds");
            if self.seen.insert((k_a, sec_a, k_b, sec_b)) {
                return (k_a, sec_a, k_b, sec_b);
            }
        }
    }

    /// Issues one fresh-shape statement, checks A against the sequential
    /// reference and one sampled node's cached table against the oracle,
    /// outside the timed region, and records it.
    fn step(&mut self, tally: &mut Tally) {
        let ((k_a, sec_a, k_b, sec_b), draw_ns) = ledger_work(|| self.draw());
        let mut a = DistArray::from_global(P, k_a, &self.a_g).expect("valid layout");
        let b = DistArray::from_global(P, k_b, &self.b_g).expect("valid layout");
        let (cost, res) = timed(|| {
            let _op = bcag_trace::span("ledger.op");
            statement::assign_expr(&mut a, &sec_a, &[(&b, sec_b)], |x| 2.0 * x[0] + 1.0)
        });
        let count = sec_a.count();
        let (outcome, check_ns) = ledger_work(|| match res {
            None => Outcome::Panicked,
            Some(Err(_)) => Outcome::Wrong,
            Some(Ok(())) => {
                self.want.clone_from(&self.a_g);
                for t in 0..count {
                    self.want[(sec_a.l + t * sec_a.s) as usize] =
                        2.0 * self.b_g[(sec_b.l + t * sec_b.s) as usize] + 1.0;
                }
                let node = self.rng.random_range(0..P);
                if holds(&a, &self.want) && self.table_matches_oracle(k_a, &sec_a, node, tally) {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
        });
        tally.ledger_cpu_ns += draw_ns + check_ns;
        tally.push(cost, count as u64, outcome);
        tally.operand_elems += count as u64;
        if self.recent.len() == PROBE_SHAPES {
            self.recent.remove(0);
        }
        self.recent.push(Shape {
            p: P,
            k_a,
            sec_a,
            ops: vec![(k_b, sec_b)],
            n: N,
        });
    }

    /// Whether the plan the program cached for `A(sec)` on `(P, k)` holds
    /// the oracle's table for `node`. Books the cache traffic this lookup
    /// causes to the tally, so the layer counters exclude it.
    fn table_matches_oracle(
        &self,
        k: i64,
        sec: &RegularSection,
        node: i64,
        tally: &mut Tally,
    ) -> bool {
        let before = cache::stats();
        let plans = cache::plans(P, k, sec, Method::Lattice);
        let after = cache::stats();
        tally.check_hits += after.hits - before.hits;
        tally.check_misses += after.misses - before.misses;
        let Ok(plans) = plans else { return false };
        let problem = Problem::new(P, k, sec.l, sec.s).expect("valid problem");
        let Ok(want) = oracle::build(&problem, node) else {
            return false;
        };
        let plan = &plans[node as usize];
        plan.delta_m == want.gaps() && plan.start.is_none_or(|s| Some(s) == want.start_local())
    }
}

impl Workload for ColdShapes {
    fn drivers(&self) -> usize {
        1
    }

    fn baseline(&self) -> Baseline {
        self.baseline
    }

    fn tail_cap(&self) -> f64 {
        99.0
    }

    fn warm(&mut self) -> Tally {
        // One window of the draw schedule: every pair of stride families
        // once, so set-up does the same mix of work at every seed.
        let mut tally = Tally::default();
        for _ in 0..FAMILIES * FAMILIES {
            self.step(&mut tally);
        }
        tally
    }

    fn run(&mut self, seconds: f64) -> Tally {
        crate::single_driver(|| {
            let mut tally = Tally::default();
            let t0 = std::time::Instant::now();
            while t0.elapsed().as_secs_f64() < seconds {
                self.step(&mut tally);
            }
            tally
        })
    }

    fn shapes(&self) -> Vec<Shape> {
        self.recent.clone()
    }
}
