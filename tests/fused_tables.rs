//! Fused statements run the paper's periodic tables: each node's program
//! keeps one period of every transfer row and stages operands by LHS
//! ordinal. These randomized cases check the compiled programs against a
//! sequential global-array reference, bit for bit, across the regimes the
//! folding has to get right — rows that repeat with a partial last
//! period, block caps that split a period, the paper's machine (p = 32,
//! large k) where the joint rank period outlasts the section and rows
//! never repeat, communication-free copies and zero-operand fills — on
//! the mpsc and shm fabrics, and check that the tables expand back to
//! the communication schedule's rows, which the compiler never builds.
//! `crates/spmd/tests/fuse_exec.rs` holds the larger property suite.

use bcag::core::method::Method;
use bcag::core::RegularSection;
use bcag::spmd::comm::ExecMode;
use bcag::spmd::{fuse, CommSchedule, DistArray, LaunchMode, TransportKind};
use bcag_harness::Rng;

struct Case {
    p: i64,
    k_a: i64,
    n: i64,
    sec_a: RegularSection,
    ops: Vec<(i64, RegularSection)>,
    kind: TransportKind,
}

fn section(rng: &mut Rng, count: i64, max_stride: i64) -> RegularSection {
    let stride = rng.random_range(1..=max_stride);
    let lo = rng.random_range(0..=11);
    RegularSection::new(lo, lo + (count - 1) * stride, stride).unwrap()
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Ranks after which the owners of both sides of `A(s_a) = B(s_b)`
/// repeat: the lcm of `p·k / gcd(s, p·k)` over the two sides.
fn joint_period(p: i64, (k_a, s_a): (i64, i64), (k_b, s_b): (i64, i64)) -> i64 {
    let side = |k: i64, s: i64| p * k / gcd(s, p * k);
    let (ta, tb) = (side(k_a, s_a), side(k_b, s_b));
    ta / gcd(ta, tb) * tb
}

fn random_case(rng: &mut Rng, trial: usize) -> Case {
    let kind = [TransportKind::Mpsc, TransportKind::Shm][trial / 6 % 2];
    let (p, k_a, sec_a, ops) = match trial % 6 {
        // Several periods of a small machine, with a partial last one.
        0 => {
            let count = rng.random_range(200..=1500);
            let sec_a = section(rng, count, 9);
            let sec_b = section(rng, count, 9);
            let p = rng.random_range(2..=4);
            (
                p,
                rng.random_range(1..=8),
                sec_a,
                vec![(rng.random_range(1..=8), sec_b)],
            )
        }
        // The paper's machine: periods outlast the section.
        1 => {
            let count = rng.random_range(1..=300);
            let sec_a = section(rng, count, 40);
            let sec_b = section(rng, count, 40);
            let k_b = rng.random_range(1..=512);
            (32, rng.random_range(1..=512), sec_a, vec![(k_b, sec_b)])
        }
        // A partial last period: whole periods of the joint rank period
        // `T`, then some of the next.
        2 => {
            let p = rng.random_range(1..=4);
            let (k_a, k_b) = (rng.random_range(1..=8), rng.random_range(1..=8));
            let (s_a, s_b) = (rng.random_range(1..=9), rng.random_range(1..=9));
            let t = joint_period(p, (k_a, s_a), (k_b, s_b));
            let count = rng.random_range(1..=3) * t + rng.random_range(1..t.max(2));
            let at = |rng: &mut Rng, s: i64| {
                let lo = rng.random_range(0..=11);
                RegularSection::new(lo, lo + (count - 1) * s, s).unwrap()
            };
            let (sec_a, sec_b) = (at(rng, s_a), at(rng, s_b));
            (p, k_a, sec_a, vec![(k_b, sec_b)])
        }
        // The joint period outlasts the section (`T >= count`) on the
        // paper's machine, with two operands.
        3 => {
            let (k_a, k_b, k_c) = (
                rng.random_range(1..=512),
                rng.random_range(1..=512),
                rng.random_range(1..=512),
            );
            let stride = |rng: &mut Rng| rng.random_range(1..=40);
            let (s_a, s_b, s_c) = (stride(rng), stride(rng), stride(rng));
            let t = joint_period(32, (k_a, s_a), (k_b, s_b)).min(joint_period(
                32,
                (k_a, s_a),
                (k_c, s_c),
            ));
            let count = rng.random_range(1..=t.min(600));
            let at = |rng: &mut Rng, s: i64| {
                let lo = rng.random_range(0..=11);
                RegularSection::new(lo, lo + (count - 1) * s, s).unwrap()
            };
            let sec_a = at(rng, s_a);
            let ops = vec![(k_b, at(rng, s_b)), (k_c, at(rng, s_c))];
            (32, k_a, sec_a, ops)
        }
        // Communication-free copy.
        4 => {
            let k = rng.random_range(1..=12);
            let count = rng.random_range(1..=900);
            let sec = section(rng, count, 5);
            (rng.random_range(1..=4), k, sec, vec![(k, sec)])
        }
        // Zero-operand fill.
        _ => {
            let count = rng.random_range(1..=900);
            let sec = section(rng, count, 5);
            (
                rng.random_range(1..=4),
                rng.random_range(1..=12),
                sec,
                Vec::new(),
            )
        }
    };
    let hi = ops.iter().map(|(_, s)| s.u).fold(sec_a.u, i64::max);
    Case {
        p,
        k_a,
        n: hi + 1 + rng.random_range(0..=3),
        sec_a,
        ops,
        kind,
    }
}

/// Runs one case at several block caps over element type `T` and
/// compares with the sequential reference.
fn check_case<T, F>(case: &Case, value: impl Fn(i64, usize) -> T, f: F)
where
    T: bcag::spmd::PackValue + PartialEq + std::fmt::Debug,
    F: Fn(&[T]) -> T + Sync + Copy,
{
    let globals: Vec<Vec<T>> = (0..=case.ops.len())
        .map(|j| (0..case.n).map(|i| value(i, j)).collect())
        .collect();
    let arrays: Vec<DistArray<T>> = case
        .ops
        .iter()
        .zip(&globals[1..])
        .map(|((k, _), g)| DistArray::from_global(case.p, *k, g).unwrap())
        .collect();
    let refs: Vec<&DistArray<T>> = arrays.iter().collect();
    let mut want = globals[0].clone();
    for t in 0..case.sec_a.count() {
        let args: Vec<T> = case
            .ops
            .iter()
            .zip(&globals[1..])
            .map(|((_, s), g)| g[(s.l + t * s.s) as usize].clone())
            .collect();
        want[(case.sec_a.l + t * case.sec_a.s) as usize] = f(&args);
    }
    for block in [0usize, 1, 7, 64] {
        let prog = fuse::compile::<T>(
            case.p,
            case.k_a,
            &case.sec_a,
            &case.ops,
            ExecMode::Batched,
            case.kind,
            block,
        )
        .unwrap();
        let mut a = DistArray::from_global(case.p, case.k_a, &globals[0]).unwrap();
        prog.execute(&mut a, &refs, f, LaunchMode::Pooled, case.kind);
        assert_eq!(a.to_global(), want, "block={block}");
        if block == 0 {
            for (op, (k_b, sec_b)) in case.ops.iter().enumerate() {
                let sched = CommSchedule::build(
                    case.p,
                    case.k_a,
                    &case.sec_a,
                    *k_b,
                    sec_b,
                    Method::Lattice,
                )
                .unwrap();
                for src in 0..case.p {
                    for dst in 0..case.p {
                        assert_eq!(
                            prog.transfers(op, src as usize, dst as usize),
                            sched.transfers(src, dst),
                            "operand {op} row {src}->{dst}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn fused_tables_match_sequential_reference() {
    let mut rng = Rng::seed_from_u64(12);
    for trial in 0..24 {
        let case = random_case(&mut rng, trial);
        check_case(
            &case,
            |i, j| ((i * 7 + 13 * j as i64) % 113) as f64 * 0.25 - 3.5,
            |args: &[f64]| args.iter().sum::<f64>() * 1.5 + 0.125,
        );
        check_case(
            &case,
            |i, j| (i * 31 + 7 * j as i64) as u8,
            |args: &[u8]| {
                args.iter()
                    .fold(5u8, |acc, v| acc.wrapping_mul(3).wrapping_add(*v))
            },
        );
    }
}

/// The program for a long section is no larger than for a short one of
/// the same shape: one period per transfer row.
#[test]
fn fused_program_size_is_one_period() {
    let census = |n: i64| {
        let sec = RegularSection::new(0, n - 1, 3).unwrap();
        fuse::compile::<f64>(
            4,
            8,
            &sec,
            &[(5, sec)],
            ExecMode::Batched,
            TransportKind::Mpsc,
            0,
        )
        .unwrap()
        .census()
    };
    let small = census(1 << 12);
    assert_eq!(small, census(1 << 16));
    assert!(small.table_entries <= 2 * 160 + 4 * 8, "{small:?}");
}
