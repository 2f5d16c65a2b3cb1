//! Randomized differential suite: fused epochs vs the interpreted path.
//!
//! [`bcag_spmd::fuse`] promises bit-exact results with the interpreted
//! gather/compute statement executor. These properties draw random
//! statement shapes — machine size, block sizes, sections, operand
//! count, transport, launch mode — run both executors on identical
//! inputs and compare the full global images bit for bit (`f64` compares
//! `to_bits`, so `-0.0`/`NaN` drift would fail too). A panicking
//! statement body then checks the poison protocol clears a fused epoch
//! the same way it clears an interpreted one.

use std::sync::Mutex;

use bcag_core::method::Method;
use bcag_core::section::RegularSection;
use bcag_harness::prop::{self, Config};
use bcag_harness::rng::Rng;
use bcag_spmd::comm::ExecMode;
use bcag_spmd::fuse::{self, assign_fused_on};
use bcag_spmd::pool::LaunchMode;
use bcag_spmd::{
    assign_expr, set_default_fused, CommSchedule, DistArray, FusedMode, TransportKind,
};

/// The fused-mode default is process-global and the interpreted
/// reference runs need it `Off`; every test here flips it, so they
/// serialize on this lock (other test binaries are separate processes).
static FUSE_FLAG: Mutex<()> = Mutex::new(());

fn lock_flag() -> std::sync::MutexGuard<'static, ()> {
    FUSE_FLAG.lock().unwrap_or_else(|e| e.into_inner())
}

/// One random statement shape.
#[derive(Debug, Clone)]
struct Case {
    p: i64,
    k_a: i64,
    n: i64,
    sec_a: RegularSection,
    /// Operand block sizes and sections (all conforming to `sec_a`).
    ops: Vec<(i64, RegularSection)>,
    kind: TransportKind,
    launch: LaunchMode,
}

fn random_section(rng: &mut Rng, count: i64) -> (i64, RegularSection) {
    let stride = rng.random_range(1..=5);
    let lo = rng.random_range(0..=23);
    let hi = lo + (count - 1) * stride;
    (hi, RegularSection::new(lo, hi, stride).unwrap())
}

fn random_case(rng: &mut Rng) -> Case {
    let p = rng.random_range(1..=5);
    let k_a = rng.random_range(1..=10);
    let count = rng.random_range(1..=48);
    let (mut max_hi, sec_a) = random_section(rng, count);
    let nops = rng.random_range(0..=3);
    let mut ops = Vec::with_capacity(nops as usize);
    for _ in 0..nops {
        let k_b = rng.random_range(1..=10);
        let (hi, sec_b) = random_section(rng, count);
        max_hi = max_hi.max(hi);
        ops.push((k_b, sec_b));
    }
    let n = max_hi + 1 + rng.random_range(0..=9);
    let kind = *rng.choice(&TransportKind::ALL);
    let launch = *rng.choice(&[LaunchMode::Pooled, LaunchMode::Scoped]);
    Case {
        p,
        k_a,
        n,
        sec_a,
        ops,
        kind,
        launch,
    }
}

/// Runs one case through both executors over element type `T` and
/// compares the resulting global images with `eq`.
fn differential<T, F>(
    case: &Case,
    value: impl Fn(i64, usize) -> T,
    f: F,
    eq: impl Fn(&T, &T) -> bool,
) where
    T: bcag_spmd::PackValue + std::fmt::Debug,
    F: Fn(&[T]) -> T + Sync + Copy,
{
    let base: Vec<T> = (0..case.n).map(|i| value(i, 0)).collect();
    let mut fused = DistArray::from_global(case.p, case.k_a, &base).unwrap();
    let op_arrays: Vec<DistArray<T>> = case
        .ops
        .iter()
        .enumerate()
        .map(|(j, (k_b, _))| {
            let vals: Vec<T> = (0..case.n).map(|i| value(i, j + 1)).collect();
            DistArray::from_global(case.p, *k_b, &vals).unwrap()
        })
        .collect();
    let operands: Vec<(&DistArray<T>, RegularSection)> = op_arrays
        .iter()
        .zip(&case.ops)
        .map(|(a, (_, s))| (a, *s))
        .collect();
    let mut interp = fused.clone();
    assign_fused_on(
        &mut fused,
        &case.sec_a,
        &operands,
        f,
        case.launch,
        case.kind,
    )
    .unwrap();
    set_default_fused(FusedMode::Off);
    let r = assign_expr(&mut interp, &case.sec_a, &operands, f);
    set_default_fused(FusedMode::On);
    r.unwrap();
    let (fg, ig) = (fused.to_global(), interp.to_global());
    assert!(
        fg.len() == ig.len() && fg.iter().zip(&ig).all(|(a, b)| eq(a, b)),
        "fused image diverges from interpreted\n fused:  {fg:?}\n interp: {ig:?}"
    );
}

#[test]
fn fused_matches_interpreted_f64() {
    let _serial = lock_flag();
    prop::check("fuse-diff-f64", &prop::from_fn(random_case), |case| {
        differential(
            case,
            |i, j| ((i * 7 + 13 * j as i64) % 113) as f64 * 0.25 - 3.5,
            |args: &[f64]| {
                args.iter()
                    .enumerate()
                    .map(|(j, v)| (j as f64 + 1.0) * v)
                    .sum::<f64>()
                    + 0.125
            },
            |a: &f64, b: &f64| a.to_bits() == b.to_bits(),
        );
    });
}

#[test]
fn fused_matches_interpreted_i64() {
    let _serial = lock_flag();
    let cfg = Config {
        cases: 64,
        ..Config::default()
    };
    prop::check_with(&cfg, "fuse-diff-i64", &prop::from_fn(random_case), |case| {
        differential(
            case,
            |i, j| i * 31 + 7 * j as i64 - 11,
            |args: &[i64]| {
                args.iter().enumerate().fold(5i64, |acc, (j, v)| {
                    acc.wrapping_mul(3).wrapping_add(v * (j as i64 + 1))
                })
            },
            |a: &i64, b: &i64| a == b,
        );
    });
}

/// `String` payloads have no fixed wire size (`WIRE_BYTES` is `None`),
/// so the fused epoch ships boxed in-memory messages on every fabric —
/// including the serializing `proc` fabric, where the wire fast path
/// must correctly step aside.
#[test]
fn fused_matches_interpreted_strings() {
    let _serial = lock_flag();
    let cfg = Config {
        cases: 24,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "fuse-diff-string",
        &prop::from_fn(random_case),
        |case| {
            differential(
                case,
                |i, j| format!("v{j}.{i}"),
                |args: &[String]| {
                    let mut out = String::from("(");
                    for a in args {
                        out.push_str(a);
                        out.push('|');
                    }
                    out.push(')');
                    out
                },
                |a: &String, b: &String| a == b,
            );
        },
    );
}

/// A statement body that panics mid-epoch must poison its peers, fail
/// the fused statement cleanly, and leave the pool and fabric reusable:
/// the very next fused statement on the same machine must run correctly.
#[test]
fn panic_poison_recovers_through_a_fused_epoch() {
    let _serial = lock_flag();
    let n = 120i64;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let sec = RegularSection::new(0, n - 1, 1).unwrap();
    for kind in TransportKind::ALL {
        let src = DistArray::from_global(4, 7, &data).unwrap();
        let mut dst = DistArray::from_global(4, 5, &data).unwrap();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assign_fused_on(
                &mut dst,
                &sec,
                &[(&src, sec)],
                |args: &[f64]| {
                    if args[0] == 60.0 {
                        panic!("injected fused-epoch failure");
                    }
                    args[0]
                },
                LaunchMode::Pooled,
                kind,
            )
        }));
        assert!(
            boom.is_err(),
            "{}: the node panic must propagate",
            kind.name()
        );
        // Pool survived and the fabric is clean: the next fused
        // statement over the same machine computes the exact image.
        let mut again = DistArray::from_global(4, 5, &data).unwrap();
        assign_fused_on(
            &mut again,
            &sec,
            &[(&src, sec)],
            |args: &[f64]| args[0] * 2.0 + 1.0,
            LaunchMode::Pooled,
            kind,
        )
        .unwrap();
        let got = again.to_global();
        for i in 0..n {
            assert_eq!(
                got[i as usize],
                i as f64 * 2.0 + 1.0,
                "{} i={i}",
                kind.name()
            );
        }
        late_round_panic_recovers(kind);
    }
}

/// A blocked p = 32 epoch whose panic comes in its last block round.
/// On hosts with fewer than 32 hardware threads the 32 node programs
/// share fewer lanes; the lanes that caught nothing must keep meeting
/// the round barriers, the original payload must reach the caller, and
/// the pool must run the next epoch correctly.
fn late_round_panic_recovers(kind: TransportKind) {
    let (p, n) = (32i64, 4096i64);
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let sec = RegularSection::new(0, n - 1, 1).unwrap();
    let src = DistArray::from_global(p, 3, &data).unwrap();
    // Each node owns 128 LHS elements: 8 rounds of 16.
    let prog = fuse::compile::<f64>(p, 8, &sec, &[(3, sec)], ExecMode::Batched, kind, 16).unwrap();
    assert!(prog.blocked());
    let last = (n - 1) as f64;
    let mut dst = DistArray::new(p, 8, n, 0.0f64).unwrap();
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        prog.execute(
            &mut dst,
            &[&src],
            |args: &[f64]| {
                if args[0] == last {
                    panic!("injected late-round failure");
                }
                args[0]
            },
            LaunchMode::Pooled,
            kind,
        )
    }));
    let payload = boom.expect_err("the node panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"injected late-round failure"),
        "{}: the first payload is re-raised",
        kind.name()
    );
    let mut again = DistArray::new(p, 8, n, 0.0f64).unwrap();
    prog.execute(
        &mut again,
        &[&src],
        |args: &[f64]| args[0] * 2.0 + 1.0,
        LaunchMode::Pooled,
        kind,
    );
    let got = again.to_global();
    for i in 0..n {
        assert_eq!(
            got[i as usize],
            i as f64 * 2.0 + 1.0,
            "{} i={i}",
            kind.name()
        );
    }
}

/// Two driver threads execute one cached program at once on the same
/// pool: every epoch's outboxes and staging belong to its own call, so
/// neither driver sees the other's values.
#[test]
fn concurrent_drivers_share_one_cached_program() {
    let (p, n) = (4i64, 900i64);
    let sec_a = RegularSection::new(1, 1 + 299 * 3, 3).unwrap();
    let sec_b = RegularSection::new(0, 299, 1).unwrap();
    let sec_c = RegularSection::new(7, 7 + 299 * 2, 2).unwrap();
    let ops = vec![(5i64, sec_b), (3i64, sec_c)];
    for block in [0usize, 7] {
        let program = || {
            fuse::cached_program::<i64>(
                p,
                8,
                &sec_a,
                &ops,
                ExecMode::Batched,
                TransportKind::Mpsc,
                block,
            )
            .unwrap()
        };
        std::thread::scope(|scope| {
            for driver in 0..2i64 {
                let (prog, ops) = (program(), &ops);
                assert!(std::sync::Arc::ptr_eq(&prog, &program()));
                scope.spawn(move || {
                    let bg: Vec<i64> = (0..n).map(|i| i * 3 + driver).collect();
                    let cg: Vec<i64> = (0..n).map(|i| 1000 * driver - i).collect();
                    let b = DistArray::from_global(p, ops[0].0, &bg).unwrap();
                    let c = DistArray::from_global(p, ops[1].0, &cg).unwrap();
                    for round in 0..40i64 {
                        let mut a = DistArray::new(p, 8, n, -1i64).unwrap();
                        prog.execute(
                            &mut a,
                            &[&b, &c],
                            |v: &[i64]| v[0] * 2 + v[1] + round,
                            LaunchMode::Pooled,
                            TransportKind::Mpsc,
                        );
                        let got = a.to_global();
                        for t in 0..300i64 {
                            let (ia, ib, ic) = (1 + 3 * t, t, 7 + 2 * t);
                            let want = bg[ib as usize] * 2 + cg[ic as usize] + round;
                            assert_eq!(got[ia as usize], want, "driver {driver} t={t}");
                        }
                    }
                });
            }
        });
    }
}

/// A fused statement issued from inside a pool worker runs its rounds
/// inline on that worker, without dispatching to the busy pool.
#[test]
fn fused_statement_runs_inside_a_pool_worker() {
    let n = 400i64;
    let bg: Vec<i64> = (0..n).map(|i| i * i % 101).collect();
    let sec_a = RegularSection::new(0, 357, 3).unwrap();
    let sec_b = RegularSection::new(2, 240, 2).unwrap();
    let got: Vec<Mutex<Vec<i64>>> = (0..3).map(|_| Mutex::new(Vec::new())).collect();
    bcag_spmd::pool::launch(3, LaunchMode::Pooled, |m, _ctx| {
        let b = DistArray::from_global(4, 5, &bg).unwrap();
        let mut a = DistArray::new(4, 8, n, 0i64).unwrap();
        assign_fused_on(
            &mut a,
            &sec_a,
            &[(&b, sec_b)],
            |v: &[i64]| v[0] + m as i64,
            LaunchMode::Pooled,
            TransportKind::Mpsc,
        )
        .unwrap();
        *got[m].lock().unwrap() = a.to_global();
    });
    for (m, slot) in got.iter().enumerate() {
        let g = slot.lock().unwrap();
        for t in 0..120usize {
            assert_eq!(g[3 * t], bg[2 + 2 * t] + m as i64, "worker {m} t={t}");
        }
        assert_eq!(g[1], 0);
    }
}

/// The fused path must snapshot operands before writing (`A = shift(A)`
/// through the same array), exactly like the interpreted staging copy.
#[test]
fn fused_self_assignment_snapshots() {
    let _serial = lock_flag();
    let n = 100i64;
    let data: Vec<i64> = (0..n).collect();
    let mut a = DistArray::from_global(4, 4, &data).unwrap();
    let src = a.clone();
    let sec_dst = RegularSection::new(0, 89, 1).unwrap();
    let sec_src = RegularSection::new(10, 99, 1).unwrap();
    assign_fused_on(
        &mut a,
        &sec_dst,
        &[(&src, sec_src)],
        |args: &[i64]| args[0],
        LaunchMode::Pooled,
        TransportKind::Shm,
    )
    .unwrap();
    let g = a.to_global();
    for i in 0..90 {
        assert_eq!(g[i as usize], i + 10);
    }
    for i in 90..100 {
        assert_eq!(g[i as usize], i);
    }
}

/// One random statement shape for the period-table suite, drawn from
/// four regimes: rows that repeat many times with a partial last period;
/// the paper's machine (p = 32, k up to 512), where periods outlast the
/// section and rows keep themselves whole; communication-free copies;
/// and zero-operand fills.
#[derive(Debug, Clone)]
struct TableCase {
    p: i64,
    k_a: i64,
    n: i64,
    sec_a: RegularSection,
    ops: Vec<(i64, RegularSection)>,
    kind: TransportKind,
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Ranks after which the owners of a stride-`s` section on `(p, k)` repeat.
fn rank_period(p: i64, k: i64, s: i64) -> i64 {
    p * k / gcd(s, p * k)
}

fn random_table_case(rng: &mut Rng) -> TableCase {
    let kind = *rng.choice(&[TransportKind::Mpsc, TransportKind::Shm]);
    let section = |rng: &mut Rng, count: i64, max_stride: i64| {
        let stride = rng.random_range(1..=max_stride);
        let lo = rng.random_range(0..=17);
        RegularSection::new(lo, lo + (count - 1) * stride, stride).unwrap()
    };
    let regime = rng.random_range(0..4);
    let (p, k_a, sec_a, ops) = match regime {
        // Repeating rows: one to three whole joint periods plus a
        // partial one.
        0 => {
            let p = rng.random_range(1..=4);
            let k_a = rng.random_range(1..=8);
            let k_b = rng.random_range(1..=8);
            let (s_a, s_b) = (rng.random_range(1..=9), rng.random_range(1..=9));
            let (ta, tb) = (rank_period(p, k_a, s_a), rank_period(p, k_b, s_b));
            let t = ta / gcd(ta, tb) * tb;
            let count = t * rng.random_range(1..=3) + rng.random_range(1..=t);
            let lo_a = rng.random_range(0..=17);
            let lo_b = rng.random_range(0..=17);
            let sec_a = RegularSection::new(lo_a, lo_a + (count - 1) * s_a, s_a).unwrap();
            let sec_b = RegularSection::new(lo_b, lo_b + (count - 1) * s_b, s_b).unwrap();
            let mut ops = vec![(k_b, sec_b)];
            if rng.random_bool(0.5) {
                ops.push((k_a, sec_a));
            }
            (p, k_a, sec_a, ops)
        }
        // No repeat: the paper's machine with large blocks.
        1 => {
            let count = rng.random_range(1..=400);
            let sec_a = section(rng, count, 40);
            let sec_b = section(rng, count, 40);
            (
                32,
                rng.random_range(1..=512),
                sec_a,
                vec![(rng.random_range(1..=512), sec_b)],
            )
        }
        // Communication-free: the operand shares the LHS layout and
        // section, so every transfer is a same-node move.
        2 => {
            let p = rng.random_range(1..=4);
            let k = rng.random_range(1..=12);
            let count = rng.random_range(1..=900);
            let sec = section(rng, count, 6);
            (p, k, sec, vec![(k, sec); rng.random_range(1..=2) as usize])
        }
        // Zero-operand fill.
        _ => {
            let p = rng.random_range(1..=4);
            let count = rng.random_range(1..=900);
            let sec = section(rng, count, 6);
            (p, rng.random_range(1..=12), sec, Vec::new())
        }
    };
    let hi = ops.iter().map(|(_, s)| s.u).fold(sec_a.u, i64::max);
    TableCase {
        p,
        k_a,
        n: hi + 1 + rng.random_range(0..=5),
        sec_a,
        ops,
        kind,
    }
}

/// Block caps that fall mid-period: 1, 7, and one either side of node
/// 0's ordinals per joint period `L` (when the period is short enough
/// to count), plus `0` (unblocked).
fn block_caps(case: &TableCase) -> Vec<usize> {
    let mut t = rank_period(case.p, case.k_a, case.sec_a.s);
    for (k, s) in &case.ops {
        let tb = rank_period(case.p, *k, s.s);
        t = t / gcd(t, tb) * tb;
    }
    let mut caps = vec![0usize, 1, 7];
    if t <= 100_000 {
        let owner = |g: i64| (g / case.k_a) % case.p;
        let l = (0..t)
            .filter(|r| owner(case.sec_a.l + r * case.sec_a.s) == 0)
            .count();
        caps.extend(
            [l.saturating_sub(1), l, l + 1]
                .into_iter()
                .filter(|&c| c > 0),
        );
    }
    caps.sort_unstable();
    caps.dedup();
    caps
}

/// Runs one case's compiled programs at every block cap against a
/// sequential global-array reference, bit for bit (`eq`), and checks
/// that the program's period tables expand to the schedule's transfer
/// rows exactly.
fn table_differential<T, F>(
    case: &TableCase,
    value: impl Fn(i64, usize) -> T,
    f: F,
    eq: impl Fn(&T, &T) -> bool,
) where
    T: bcag_spmd::PackValue + std::fmt::Debug,
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
    let mut args = Vec::with_capacity(case.ops.len());
    for t in 0..case.sec_a.count() {
        args.clear();
        for ((_, s), g) in case.ops.iter().zip(&globals[1..]) {
            args.push(g[(s.l + t * s.s) as usize].clone());
        }
        want[(case.sec_a.l + t * case.sec_a.s) as usize] = f(&args);
    }
    for block in block_caps(case) {
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
        let mut a = DistArray::from_global(case.p, case.k_a, &globals[0]).unwrap();
        prog.execute(&mut a, &refs, f, LaunchMode::Pooled, case.kind);
        let got = a.to_global();
        assert!(
            got.iter().zip(&want).all(|(x, y)| eq(x, y)),
            "block={block}: fused image diverges from the sequential reference"
        );
    }
}

#[test]
fn period_tables_match_sequential_reference_f64() {
    let _serial = lock_flag();
    let cfg = Config {
        cases: 48,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "fuse-tables-f64",
        &prop::from_fn(random_table_case),
        |case| {
            table_differential(
                case,
                |i, j| ((i * 7 + 13 * j as i64) % 113) as f64 * 0.25 - 3.5,
                |args: &[f64]| {
                    args.iter()
                        .enumerate()
                        .map(|(j, v)| (j as f64 + 1.0) * v)
                        .sum::<f64>()
                        + 0.125
                },
                |a: &f64, b: &f64| a.to_bits() == b.to_bits(),
            );
        },
    );
}

#[test]
fn period_tables_match_sequential_reference_u8() {
    let _serial = lock_flag();
    let cfg = Config {
        cases: 24,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "fuse-tables-u8",
        &prop::from_fn(random_table_case),
        |case| {
            table_differential(
                case,
                |i, j| (i * 31 + 7 * j as i64) as u8,
                |args: &[u8]| {
                    args.iter()
                        .fold(5u8, |acc, v| acc.wrapping_mul(3).wrapping_add(*v))
                },
                |a: &u8, b: &u8| a == b,
            );
        },
    );
}

#[test]
fn period_tables_match_sequential_reference_f64x4() {
    let _serial = lock_flag();
    let cfg = Config {
        cases: 16,
        ..Config::default()
    };
    prop::check_with(
        &cfg,
        "fuse-tables-f64x4",
        &prop::from_fn(random_table_case),
        |case| {
            table_differential(
                case,
                |i, j| [i as f64, j as f64, -(i as f64) * 0.5, 1.0 / (i + 1) as f64],
                |args: &[[f64; 4]]| {
                    let mut out = [0.25f64; 4];
                    for (j, v) in args.iter().enumerate() {
                        for (o, x) in out.iter_mut().zip(v) {
                            *o += (j as f64 + 1.0) * x;
                        }
                    }
                    out
                },
                |a: &[f64; 4], b: &[f64; 4]| {
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                },
            );
        },
    );
}

/// The fused epoch charges the interpreted path's deterministic trace
/// counter totals, case by case.
#[test]
fn period_tables_keep_counter_parity_with_interpreted() {
    let _serial = lock_flag();
    let cfg = Config {
        cases: 24,
        ..Config::default()
    };
    const COUNTERS: [&str; 8] = [
        "elements_moved",
        "bytes_packed",
        "elements_nonlocal",
        "messages_sent",
        "transport_bytes_tx",
        "transport_bytes_rx",
        "runs_coalesced",
        "run_len_total",
    ];
    prop::check_with(
        &cfg,
        "fuse-tables-counters",
        &prop::from_fn(random_table_case),
        |case| {
            let base: Vec<f64> = (0..case.n).map(|i| i as f64).collect();
            let arrays: Vec<DistArray<f64>> = case
                .ops
                .iter()
                .map(|(k, _)| DistArray::from_global(case.p, *k, &base).unwrap())
                .collect();
            let operands: Vec<(&DistArray<f64>, RegularSection)> = arrays
                .iter()
                .zip(&case.ops)
                .map(|(a, (_, s))| (a, *s))
                .collect();
            let f = |args: &[f64]| args.iter().sum::<f64>() + 1.0;
            let totals = |fused: bool| {
                let mut a = DistArray::from_global(case.p, case.k_a, &base).unwrap();
                let ((), trace) = bcag_trace::capture(|| {
                    if fused {
                        assign_fused_on(
                            &mut a,
                            &case.sec_a,
                            &operands,
                            f,
                            LaunchMode::Pooled,
                            case.kind,
                        )
                        .unwrap();
                    } else {
                        set_default_fused(FusedMode::Off);
                        let r = assign_expr(&mut a, &case.sec_a, &operands, f);
                        set_default_fused(FusedMode::On);
                        r.unwrap();
                    }
                });
                COUNTERS.map(|c| trace.counter_total(c))
            };
            assert_eq!(totals(true), totals(false), "{COUNTERS:?}");
        },
    );
}
