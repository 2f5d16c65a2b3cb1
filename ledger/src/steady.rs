//! `steady_triad`: one closed-loop driver repeating
//! `A(0:n-1:s) = α·B(0:n-1:s) + C(0:n-1:s)` on 4 processors, A, B and C in
//! cyclic(8), cyclic(5) and cyclic(64), n = 2^21 f64 (8× a 2 MiB L2).
//! Strides cycle 1, 9, 9: dense slice copies under L2 blocking against
//! sparse tuned dispatch. After set-up every statement hits the plan
//! cache, so the time is data movement: pack, transport, epoch.

use bcag_core::section::RegularSection;
use bcag_harness::rng::{mix_seed, Rng};
use bcag_spmd::{statement, DistArray};

use crate::layers::Shape;
use crate::stats::{holds, inputs, ledger_work, timed, Baseline, Outcome, Tally};
use crate::Workload;

const P: i64 = 4;
const N: i64 = 1 << 21;
/// Block sizes of A, B and C.
const K: [i64; 3] = [8, 5, 64];
const STRIDES: [i64; 2] = [1, 9];
/// Stride index of each statement in one cycle of the loop. Two sparse
/// statements per dense one keep the median inside one latency mode and
/// the tail inside the other, instead of on the boundary between them.
const CYCLE: [usize; 3] = [0, 1, 1];

pub struct SteadyTriad {
    a: DistArray<f64>,
    b: DistArray<f64>,
    c: DistArray<f64>,
    /// Sequential reference of A's global contents.
    a_ref: Vec<f64>,
    b_g: Vec<f64>,
    c_g: Vec<f64>,
    /// `[A, B, C]` sections for each stride.
    secs: [[RegularSection; 3]; 2],
    /// Statements issued so far.
    issued: u64,
    baseline: Baseline,
}

impl SteadyTriad {
    pub fn new(seed: u64) -> SteadyTriad {
        let ([a_ref, b_g, c_g], baseline) = inputs(|| {
            let mut rng = Rng::seed_from_u64(mix_seed(seed));
            [(); 3].map(|_| {
                (0..N)
                    .map(|_| rng.random_range(-4096..=4096) as f64 / 64.0)
                    .collect::<Vec<f64>>()
            })
        });
        // The seed draws contents only: the shapes, and so the work, are
        // the same in every run.
        let secs =
            STRIDES.map(|s| [RegularSection::new(0, N - 1, s).expect("in-bounds section"); 3]);
        SteadyTriad {
            a: DistArray::from_global(P, K[0], &a_ref).expect("valid layout"),
            b: DistArray::from_global(P, K[1], &b_g).expect("valid layout"),
            c: DistArray::from_global(P, K[2], &c_g).expect("valid layout"),
            a_ref,
            b_g,
            c_g,
            secs,
            issued: 0,
            baseline,
        }
    }

    /// Issues the next statement of the cycle, checks A against the
    /// sequential reference outside the timed region, and records it.
    fn step(&mut self, tally: &mut Tally) {
        let which = CYCLE[(self.issued % CYCLE.len() as u64) as usize];
        // A different scale each statement, so every output is fresh.
        let alpha = 2.5 + 0.5 * (self.issued % 4) as f64;
        self.issued += 1;
        let [sa, sb, sc] = self.secs[which];
        let (a, b, c) = (&mut self.a, &self.b, &self.c);
        let (cost, res) = timed(|| {
            let _op = bcag_trace::span("ledger.op");
            statement::assign_expr(a, &sa, &[(b, sb), (c, sc)], move |x| alpha * x[0] + x[1])
        });
        let count = sa.count();
        let (outcome, check_ns) = ledger_work(|| {
            for t in 0..count {
                self.a_ref[(sa.l + t * sa.s) as usize] = alpha
                    * self.b_g[(sb.l + t * sb.s) as usize]
                    + self.c_g[(sc.l + t * sc.s) as usize];
            }
            let outcome = match res {
                None => Outcome::Panicked,
                Some(Err(_)) => Outcome::Wrong,
                Some(Ok(())) if holds(&self.a, &self.a_ref) => Outcome::Ok,
                Some(Ok(())) => Outcome::Wrong,
            };
            if outcome != Outcome::Ok {
                // Resynchronize so one bad statement is counted once.
                self.a_ref = self.a.to_global();
            }
            outcome
        });
        tally.ledger_cpu_ns += check_ns;
        tally.push(cost, count as u64, outcome);
        tally.operand_elems += 2 * count as u64;
    }
}

impl Workload for SteadyTriad {
    fn drivers(&self) -> usize {
        1
    }

    fn baseline(&self) -> Baseline {
        self.baseline
    }

    fn tail_cap(&self) -> f64 {
        90.0
    }

    fn warm(&mut self) -> Tally {
        let mut tally = Tally::default();
        for _ in 0..CYCLE.len() {
            self.step(&mut tally);
        }
        tally
    }

    fn run(&mut self, seconds: f64) -> Tally {
        crate::single_driver(|| {
            let mut tally = Tally::default();
            let t0 = std::time::Instant::now();
            // Whole cycles only, so every run has the same stride mix.
            while t0.elapsed().as_secs_f64() < seconds
                || !self.issued.is_multiple_of(CYCLE.len() as u64)
            {
                self.step(&mut tally);
            }
            tally
        })
    }

    fn shapes(&self) -> Vec<Shape> {
        self.secs
            .iter()
            .map(|[sa, sb, sc]| Shape {
                p: P,
                k_a: K[0],
                sec_a: *sa,
                ops: vec![(K[1], *sb), (K[2], *sc)],
                n: N,
            })
            .collect()
    }
}
