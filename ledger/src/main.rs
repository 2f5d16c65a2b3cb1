//! The bcag performance ledger: runs one workload in this process and
//! prints one JSON line with its end-to-end figures, and with `--trace 1`
//! the per-layer split of a traced phase.
//!
//! ```text
//! bcag-ledger --workload steady_triad|cold_shapes|traffic_mix
//!             [--seed N] [--seconds S] [--trace 0|1] [--setup-only]
//! ```
//!
//! Each workload runs in a process of its own: the plan cache, the pool
//! registry and the trace session are process-global, so no warm state
//! carries from one workload into the next. `run.py` next to this crate
//! builds it, runs the workloads and aggregates the results.

mod cold;
mod layers;
mod stats;
mod steady;
mod traffic;

use std::time::Instant;

use bcag_harness::json::Json;
use bcag_spmd::{cache, transport};

use crate::layers::{Layers, Shape, DRIVER_LANE};
use crate::stats::{status_mib, Baseline, Tally};

/// One benchmark workload: inputs generated from a seed, a warm-up that
/// ends set-up, and closed-loop measured phases.
pub trait Workload {
    /// Concurrent closed-loop drivers.
    fn drivers(&self) -> usize;
    /// What generating the workload's inputs and references cost.
    fn baseline(&self) -> Baseline;
    /// Highest tail percentile this workload's sample count supports.
    fn tail_cap(&self) -> f64;
    /// The operations that end set-up (each distinct cold statement of a
    /// steady loop, or the first cold one), checked like any other.
    fn warm(&mut self) -> Tally;
    /// Runs operations for `seconds` and returns their tally.
    fn run(&mut self, seconds: f64) -> Tally;
    /// Statement shapes the workload ran, for the layer probes.
    fn shapes(&self) -> Vec<Shape>;
}

/// Runs `body` on one thread named as a driver lane, so traced phases of
/// single-driver workloads attribute like multi-driver ones.
pub fn single_driver<R: Send>(body: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(format!("{DRIVER_LANE}-0"))
            .spawn_scoped(s, body)
            .expect("spawn driver thread")
            .join()
            .expect("the driver catches operation panics")
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Size in bytes of the last-level cache cpu0 sees, from sysfs.
fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(|s| {
            let s = s.trim();
            let (num, mult) = match s.chars().last()? {
                'K' => (&s[..s.len() - 1], 1024),
                'M' => (&s[..s.len() - 1], 1024 * 1024),
                _ => (s, 1),
            };
            num.parse::<u64>().ok().map(|v| v * mult)
        })
        .max()
        .unwrap_or(0)
}

/// The host and configuration this process measured under.
fn host() -> Json {
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BCAG_"))
        .collect();
    env.sort();
    let cache = cache::stats();
    Json::obj(vec![
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
        ),
        ("l2_bytes", Json::Int(bcag_core::tune::l2_bytes() as i64)),
        ("llc_bytes", Json::Int(llc_bytes() as i64)),
        (
            "transport",
            Json::Str(transport::active_transport().name().into()),
        ),
        ("cache_capacity", Json::Int(cache.capacity as i64)),
        ("cache_shards", Json::Int(cache.shards as i64)),
        (
            "bcag_env",
            Json::Obj(env.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
        ),
    ])
}

fn main() {
    let t_main = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bcag-ledger: {e}");
            std::process::exit(2);
        }
    };
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "steady_triad" => Box::new(steady::SteadyTriad::new(args.seed)),
        "cold_shapes" => Box::new(cold::ColdShapes::new(args.seed)),
        "traffic_mix" => Box::new(traffic::TrafficMix::new(args.seed)),
        other => {
            eprintln!("bcag-ledger: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut total = w.warm();
    let setup_wall_s = t_main.elapsed().as_secs_f64();
    // The ledger's own input generation and warm-up checks are not the
    // program's set-up.
    let base = w.baseline();
    let setup_cpu_ns = stats::process_cpu_ns() - base.cpu_ns - total.ledger_cpu_ns;
    let setup_cpu_s = setup_cpu_ns as f64 / 1e9;
    let mut fields = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("setup_s", Json::Num(setup_cpu_s)),
        ("setup_wall_s", Json::Num(setup_wall_s)),
    ];
    if !args.setup_only {
        let drivers = w.drivers();
        if args.trace {
            // Half the time untraced, half traced: the difference between
            // the two halves is the tracing overhead.
            let plain = w.run(args.seconds / 2.0);
            bcag_trace::start();
            let traced = w.run(args.seconds / 2.0);
            let trace = bcag_trace::stop();
            let (plain_s, traced_s) = (
                plain.summary(drivers, w.tail_cap()),
                traced.summary(drivers, w.tail_cap()),
            );
            let mut layers = Layers::default();
            layers::attribute(trace, &traced, &mut layers);
            layers.set(
                "trace.overhead_ratio",
                traced_s.cpu_us_per_op / plain_s.cpu_us_per_op,
                "ratio",
            );
            layers::probe(&w.shapes(), &mut layers);
            fields.push(("e2e", plain_s.json()));
            fields.push(("traced_e2e", traced_s.json()));
            fields.push(("layers", layers.json()));
            total.merge(plain);
            total.merge(traced);
        } else {
            let tally = w.run(args.seconds);
            fields.push(("e2e", tally.summary(drivers, w.tail_cap()).json()));
            total.merge(tally);
        }
    }
    fields.push(("attempted", Json::Int(total.attempted() as i64)));
    fields.push(("failed", Json::Int(total.failed() as i64)));
    fields.push(("panicked", Json::Int(total.panicked as i64)));
    // The program's peak memory: the high-water mark above what the
    // ledger's inputs and references held once generated.
    fields.push((
        "peak_rss_mib",
        Json::Num(status_mib("VmHWM:") - base.rss_mib),
    ));
    fields.push(("host", host()));
    println!("{}", Json::obj(fields).to_string());
}
