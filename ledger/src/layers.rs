//! The per-layer split of a traced phase, and the unit-cost probes that
//! time each layer's public functions on the workload's own shapes.
//!
//! Attribution reads spans from the threads that issued operations (the
//! *driver lanes*). Every span there maps to one layer; a layer's time is
//! the self time of its spans, so nested calls are counted once, and
//! whatever the spans do not cover is `unattributed_ns`. Counters come
//! from every lane, node threads included.

use std::collections::BTreeMap;
use std::time::Instant;

use bcag_core::method::{build, Method};
use bcag_core::params::Problem;
use bcag_core::runs::RunPlan;
use bcag_core::section::RegularSection;
use bcag_core::start::last_location;
use bcag_core::{locality, lower_plan, tune, Layout};
use bcag_harness::json::Json;
use bcag_spmd::comm::ExecMode;
use bcag_spmd::pool::LaunchMode;
use bcag_spmd::{cache, fuse, pack, pool, transport, DistArray};
use bcag_trace::Trace;

use crate::stats::{median, Tally};

/// Thread-name prefix of the threads that issue timed operations.
pub const DRIVER_LANE: &str = "ledger-driver";

/// One statement shape a workload runs: the LHS layout and section, each
/// operand's block size and section, and the array extent.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Processors.
    pub p: i64,
    /// LHS block size.
    pub k_a: i64,
    /// LHS section.
    pub sec_a: RegularSection,
    /// Operand `(block size, section)` pairs, in statement order.
    pub ops: Vec<(i64, RegularSection)>,
    /// Array extent.
    pub n: i64,
}

/// Layers of the runtime a driver-lane span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    Construct,
    Compile,
    Epoch,
    Interp,
}

/// The layer a span on a driver lane belongs to; `None` leaves its self
/// time unattributed. The self time of the ledger's `ledger.op` span is
/// among it: the statement path's argument checks and plan-cache lookup,
/// which open no span of their own.
fn layer_of(span: &str) -> Option<Layer> {
    match span {
        "core.build" | "core.build_all" | "pool.build_all" => Some(Layer::Construct),
        "fuse.compile" | "comm.build" | "comm.build_lattice" | "comm.message_matrix" => {
            Some(Layer::Compile)
        }
        "fuse.execute" | "pool.dispatch" | "comm.execute" => Some(Layer::Epoch),
        s if s == "hpf.parse" || s.starts_with("rt.") => Some(Layer::Interp),
        _ => None,
    }
}

/// Named per-layer figures with units, in report order.
#[derive(Debug, Default)]
pub struct Layers {
    rows: Vec<(String, f64, &'static str)>,
}

impl Layers {
    /// Records one figure.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit));
    }

    /// Every figure as `{"name": {"value": v, "unit": u}}`.
    pub fn json(&self) -> Json {
        Json::Obj(
            self.rows
                .iter()
                .map(|(n, v, u)| {
                    let obj = Json::obj(vec![
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str(u.to_string())),
                    ]);
                    (n.clone(), obj)
                })
                .collect(),
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Splits a traced phase's time and work across the layers. `tally` is
/// the same phase's operations; its busy time is the end-to-end time the
/// layers and `unattributed_ns` add up to.
pub fn attribute(trace: Trace, tally: &Tally, out: &mut Layers) {
    let counter = |name: &str| trace.counter_total(name) as f64;
    let spans_all = |name: &str| trace.span_count(name) as f64;
    let boots = trace
        .lanes
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.name == "resident_pools")
        .count();
    let parse_ns: u64 = trace
        .lanes
        .iter()
        .filter(|l| l.label.starts_with(DRIVER_LANE))
        .flat_map(|l| &l.events)
        .filter(|e| e.name == "hpf.parse")
        .map(|e| e.dur_ns)
        .sum();

    let drivers = Trace {
        lanes: trace
            .lanes
            .iter()
            .filter(|l| l.label.starts_with(DRIVER_LANE))
            .cloned()
            .collect(),
        tags: Vec::new(),
    };
    let mut self_ns: BTreeMap<Layer, u64> = BTreeMap::new();
    let mut covered = 0u64;
    for s in drivers.span_rollup() {
        if let Some(layer) = layer_of(s.name) {
            *self_ns.entry(layer).or_default() += s.self_ns;
            covered += s.self_ns;
        }
    }
    let layer_ns = |l: Layer| self_ns.get(&l).copied().unwrap_or(0) as f64;
    let loop_ns = tally.busy_ns();

    let hits = counter("schedule_cache_hits") - tally.check_hits as f64;
    let lookups = hits + counter("schedule_cache_misses") - tally.check_misses as f64;
    let epochs = counter("fused_epochs");
    let min_bytes = tally.operand_elems as f64 * 8.0;

    out.set("loop_ns", loop_ns as f64, "ns");
    out.set(
        "construct.calls",
        drivers.span_count("core.build") as f64,
        "count",
    );
    out.set("construct.self_ns", layer_ns(Layer::Construct), "ns");
    out.set("compile.calls", spans_all("fuse.compile"), "count");
    out.set("compile.self_ns", layer_ns(Layer::Compile), "ns");
    out.set("cache.lookups", lookups, "count");
    out.set("cache.hits", hits, "count");
    out.set("cache.hit_ratio", ratio(hits, lookups), "ratio");
    out.set(
        "cache.evictions",
        counter("schedule_cache_evictions"),
        "count",
    );
    out.set("pool.dispatches", spans_all("pool.dispatch"), "count");
    out.set("pool.boots", boots as f64, "count");
    out.set("pool.evictions", counter("pool_evictions"), "count");
    out.set(
        "pack.elems",
        counter("elements_moved") + counter("elements_packed"),
        "count",
    );
    out.set("pack.bytes", counter("bytes_packed"), "bytes");
    out.set(
        "pack.bytes_over_min",
        ratio(
            counter("bytes_packed") + counter("transport_bytes_tx"),
            min_bytes,
        ),
        "ratio",
    );
    out.set("transport.msgs", counter("messages_sent"), "count");
    out.set("transport.bytes", counter("transport_bytes_tx"), "bytes");
    out.set("transport.recv_wait_ns", counter("recv_wait_ns"), "ns");
    out.set("epoch.calls", epochs, "count");
    out.set("epoch.self_ns", layer_ns(Layer::Epoch), "ns");
    out.set(
        "epoch.blocked_ratio",
        ratio(counter("tune_decision_blocked"), epochs),
        "ratio",
    );
    out.set(
        "interp.scripts",
        drivers.span_count("rt.run") as f64,
        "count",
    );
    out.set("interp.parse_ns", parse_ns as f64, "ns");
    out.set("interp.self_ns", layer_ns(Layer::Interp), "ns");
    out.set(
        "unattributed_ns",
        loop_ns.saturating_sub(covered) as f64,
        "ns",
    );
}

/// Repeats `body` (which returns the units of work it did) in rounds of
/// at least `round_ns`, and returns the median nanoseconds per unit over
/// `rounds` rounds.
fn ns_per_unit(rounds: usize, round_ns: u64, mut body: impl FnMut() -> u64) -> f64 {
    let mut per_unit = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let mut units = 0u64;
        loop {
            units += body();
            if t0.elapsed().as_nanos() as u64 >= round_ns {
                break;
            }
        }
        per_unit.push(t0.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(&per_unit)
}

/// Every distinct `(p, k, l, s)` table a set of shapes builds.
fn problems(shapes: &[Shape]) -> Vec<Problem> {
    let mut out: Vec<Problem> = Vec::new();
    for sh in shapes {
        let secs = std::iter::once((sh.k_a, sh.sec_a)).chain(sh.ops.iter().copied());
        for (k, sec) in secs {
            let norm = sec.normalized();
            let pr =
                Problem::new(sh.p, k, norm.lo, norm.step).expect("workload sections are valid");
            if !out.contains(&pr) {
                out.push(pr);
            }
        }
    }
    out
}

/// Times each layer's public functions on `shapes` (statement shapes the
/// workload ran), outside any timed loop, and records the unit costs.
/// Clears the plan cache, so it runs last.
pub fn probe(shapes: &[Shape], out: &mut Layers) {
    const ROUNDS: usize = 7;
    const ROUND_NS: u64 = 20_000_000;

    // Construction: the paper's Table 1 cost, per table entry.
    let probs = problems(shapes);
    let construct = ns_per_unit(ROUNDS, ROUND_NS, || {
        let mut entries = 0u64;
        for pr in &probs {
            for m in 0..pr.p() {
                let pat = build(pr, m, Method::Lattice).expect("valid problem");
                entries += pat.len() as u64;
                std::hint::black_box(&pat);
            }
        }
        entries
    });
    out.set("construct.ns_per_entry", construct, "ns");

    // Compile sub-stages on each LHS plan, per section element.
    let mut stage_ns = [0u64; 4];
    let mut stage_elems = 0u64;
    for sh in shapes {
        let norm = sh.sec_a.normalized();
        let pr = Problem::new(sh.p, sh.k_a, norm.lo, norm.step).expect("valid problem");
        let lay = Layout::from_raw(sh.p, sh.k_a);
        for m in 0..sh.p {
            let pat = build(&pr, m, Method::Lattice).expect("valid problem");
            let last_g = last_location(&pr, m, norm.hi).expect("valid problem");
            let start = match (pat.start_local(), last_g) {
                (Some(s), Some(lg)) if s <= lay.local_addr(lg) => Some(s),
                _ => None,
            };
            let last = last_g.map_or(-1, |g| lay.local_addr(g));
            let t = Instant::now();
            let runs = RunPlan::compile(start, last, pat.gaps());
            stage_ns[0] += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            std::hint::black_box(lower_plan(&runs));
            stage_ns[1] += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let stats = locality::analyze_lines(&runs, 8, tune::ANALYZE_BOUND);
            stage_ns[2] += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            std::hint::black_box(tune::decide(&stats, &runs, 8));
            stage_ns[3] += t.elapsed().as_nanos() as u64;
        }
        stage_elems += sh.sec_a.count() as u64;
    }
    for (name, ns) in ["runs", "lower", "locality", "tune"].iter().zip(stage_ns) {
        out.set(
            &format!("compile.{name}_ns_per_elem"),
            ratio(ns as f64, stage_elems as f64),
            "ns",
        );
    }

    // Whole fused compile from a cold cache, less the table construction
    // inside it, per LHS element.
    let kind = transport::active_transport();
    let mut compile_ns = 0u64;
    for sh in shapes {
        cache::clear();
        let block = fuse::epoch_block_elems::<f64>(&sh.sec_a);
        let (wall, tr) = bcag_trace::capture(|| {
            let t = Instant::now();
            let prog = fuse::compile::<f64>(
                sh.p,
                sh.k_a,
                &sh.sec_a,
                &sh.ops,
                ExecMode::Batched,
                kind,
                block,
            )
            .expect("workload statements compile");
            std::hint::black_box(&prog);
            t.elapsed().as_nanos() as u64
        });
        let construct_ns: u64 = tr
            .lanes
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.name == "core.build")
            .map(|e| e.dur_ns)
            .sum();
        compile_ns += wall.saturating_sub(construct_ns);
    }
    out.set(
        "compile.ns_per_elem",
        ratio(compile_ns as f64, stage_elems as f64),
        "ns",
    );

    // Plan-cache hit: a fused-program lookup on a resident key.
    let sh = &shapes[0];
    let block = fuse::epoch_block_elems::<f64>(&sh.sec_a);
    let lookup = || {
        fuse::cached_program::<f64>(
            sh.p,
            sh.k_a,
            &sh.sec_a,
            &sh.ops,
            ExecMode::Batched,
            kind,
            block,
        )
    };
    lookup().expect("workload statements compile");
    let hit = ns_per_unit(ROUNDS, ROUND_NS / 4, || {
        for _ in 0..256 {
            let prog = lookup().expect("resident");
            std::hint::black_box(&prog);
        }
        256
    });
    out.set("cache.hit_ns", hit, "ns");

    // Pool: one empty-body dispatch round trip at each machine size.
    let mut ps: Vec<i64> = shapes.iter().map(|sh| sh.p).collect();
    ps.sort_unstable();
    ps.dedup();
    let mut dispatch = Vec::new();
    for &p in &ps {
        pool::global_with(p, kind);
        dispatch.push(ns_per_unit(ROUNDS, ROUND_NS / 2, || {
            for _ in 0..16 {
                pool::launch_with(p, LaunchMode::Pooled, kind, |_, _| {});
            }
            16
        }));
    }
    out.set(
        "pool.dispatch_ns",
        dispatch.iter().sum::<f64>() / dispatch.len().max(1) as f64,
        "ns",
    );

    // Pack and unpack of each operand section, per element.
    let arrays: Vec<(DistArray<f64>, RegularSection)> = shapes
        .iter()
        .flat_map(|sh| {
            sh.ops.iter().map(move |(k, sec)| {
                let arr = DistArray::new(sh.p, *k, sh.n, 1.5).expect("valid layout");
                (arr, *sec)
            })
        })
        .collect();
    let mut bufs: Vec<Vec<Vec<f64>>> = arrays
        .iter()
        .map(|(a, _)| vec![Vec::new(); a.p() as usize])
        .collect();
    let packed = ns_per_unit(ROUNDS, ROUND_NS, || {
        let mut elems = 0u64;
        for ((arr, sec), bs) in arrays.iter().zip(bufs.iter_mut()) {
            for (m, buf) in bs.iter_mut().enumerate() {
                elems += pack::pack_with_buf(arr, sec, m as i64, Method::Lattice, buf)
                    .expect("valid pack") as u64;
            }
        }
        elems
    });
    out.set("pack.ns_per_elem", packed, "ns");
    let mut targets: Vec<DistArray<f64>> = arrays.iter().map(|(a, _)| a.clone()).collect();
    let unpacked = ns_per_unit(ROUNDS, ROUND_NS, || {
        let mut elems = 0u64;
        for (((_, sec), bs), target) in arrays.iter().zip(&bufs).zip(targets.iter_mut()) {
            for (m, buf) in bs.iter().enumerate() {
                pack::unpack(target, sec, m as i64, Method::Lattice, buf).expect("valid unpack");
                elems += buf.len() as u64;
            }
        }
        elems
    });
    out.set("pack.unpack_ns_per_elem", unpacked, "ns");
}
