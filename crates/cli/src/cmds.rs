//! Implementations of the `bcag` subcommands.

use bcag_core::method::{build, Method};
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;
use bcag_core::viz;
use bcag_spmd::assign::plan_section;

use crate::args::Flags;

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    2
}

fn parse_method(name: Option<&str>) -> Result<Method, String> {
    match name.unwrap_or("lattice") {
        "lattice" => Ok(Method::Lattice),
        "sorting" => Ok(Method::SortingAuto),
        "sorting-cmp" => Ok(Method::SortingComparison),
        "sorting-radix" => Ok(Method::SortingRadix),
        "hiranandani" => Ok(Method::Hiranandani),
        "oracle" => Ok(Method::Oracle),
        other => Err(format!("unknown method `{other}`")),
    }
}

/// `bcag table`: start location + AM table per processor.
pub fn table(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["p", "k", "l", "s", "m", "method"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let p = flags.req_i64("p")?;
        let k = flags.req_i64("k")?;
        let l = flags.req_i64("l")?;
        let s = flags.req_i64("s")?;
        let method = parse_method(flags.opt_str("method"))?;
        let problem = Problem::new(p, k, l, s).map_err(|e| e.to_string())?;
        let procs: Vec<i64> = match flags.opt_i64("m", -1)? {
            -1 => (0..p).collect(),
            m => vec![m],
        };
        println!(
            "p={p} k={k} l={l} s={s} d={}, method={}",
            problem.d(),
            method.name()
        );
        for m in procs {
            let pat = build(&problem, m, method).map_err(|e| e.to_string())?;
            match pat.start_global() {
                None => println!("proc {m}: no section elements"),
                Some(g) => println!(
                    "proc {m}: start global={g} local={} length={} AM={:?}",
                    pat.start_local().unwrap(),
                    pat.len(),
                    pat.gaps()
                ),
            }
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag layout`: Figure-1 rendering.
pub fn layout(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["p", "k", "l", "s", "rows"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let p = flags.req_i64("p")?;
        let k = flags.req_i64("k")?;
        let l = flags.req_i64("l")?;
        let s = flags.req_i64("s")?;
        let rows = flags.opt_i64("rows", 10)?;
        let problem = Problem::new(p, k, l, s).map_err(|e| e.to_string())?;
        print!("{}", viz::render_section(&problem, rows));
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag visits`: Figure-6 rendering for one processor.
pub fn visits(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["p", "k", "l", "s", "m", "rows"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let p = flags.req_i64("p")?;
        let k = flags.req_i64("k")?;
        let l = flags.req_i64("l")?;
        let s = flags.req_i64("s")?;
        let m = flags.req_i64("m")?;
        let rows = flags.opt_i64("rows", 10)?;
        let problem = Problem::new(p, k, l, s).map_err(|e| e.to_string())?;
        let pat = build(&problem, m, Method::Lattice).map_err(|e| e.to_string())?;
        print!("{}", viz::render_visits(&pat, rows));
        println!("legend: (l)=lower bound  <i>=visited by proc {m}  [i]=other section element");
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag basis`: R and L.
pub fn basis(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["p", "k", "s"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let p = flags.req_i64("p")?;
        let k = flags.req_i64("k")?;
        let s = flags.req_i64("s")?;
        let problem = Problem::new(p, k, 0, s).map_err(|e| e.to_string())?;
        println!("{}", viz::describe_basis(&problem));
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag run`: interpret a directive + statement script.
pub fn run_script(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["file"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let file = flags
            .opt_str("file")
            .ok_or("missing required flag `--file`")?;
        let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let out = bcag_rt::Interp::run(&src).map_err(|e| e.to_string())?;
        for line in out {
            println!("{line}");
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag codegen`: emit C node code for a shape (paper Figure 8).
pub fn codegen(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["p", "k", "l", "u", "s", "m", "shape", "value"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let p = flags.req_i64("p")?;
        let k = flags.req_i64("k")?;
        let l = flags.req_i64("l")?;
        let u = flags.req_i64("u")?;
        let s = flags.req_i64("s")?;
        let m = flags.req_i64("m")?;
        let shape = match flags.opt_str("shape").unwrap_or("b") {
            "a" | "mod" => bcag_core::codegen::Shape::ModLoop,
            "b" | "branch" => bcag_core::codegen::Shape::BranchLoop,
            "c" | "split" => bcag_core::codegen::Shape::SplitLoop,
            "d" | "two-table" => bcag_core::codegen::Shape::TwoTableLoop,
            other => return Err(format!("unknown shape `{other}` (a|b|c|d)")),
        };
        let value = flags.opt_str("value").unwrap_or("100.0").to_string();
        let problem = Problem::new(p, k, l, s).map_err(|e| e.to_string())?;
        let pattern = build(&problem, m, Method::Lattice).map_err(|e| e.to_string())?;
        let c = bcag_core::codegen::emit_c(&problem, m, u, &pattern, shape, &value)
            .map_err(|e| e.to_string())?;
        print!("{c}");
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag verify`: differential check of all methods over a parameter sweep.
pub fn verify(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["max-p", "max-k", "max-s", "trials", "seed"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let max_p = flags.opt_i64("max-p", 8)?;
        let max_k = flags.opt_i64("max-k", 32)?;
        let max_s = flags.opt_i64("max-s", 0)?; // 0 => 4·p·k
        let trials = flags.opt_i64("trials", 500)?;
        let mut state = flags.opt_i64("seed", 0x5EED)? as u64 | 1;
        let mut next = move |bound: i64| -> i64 {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as i64).rem_euclid(bound.max(1))
        };
        let mut checked = 0u64;
        for _ in 0..trials {
            let p = 1 + next(max_p);
            let k = 1 + next(max_k);
            let s_bound = if max_s > 0 { max_s } else { 4 * p * k };
            let s = 1 + next(s_bound);
            let l = next(3 * s);
            let problem = Problem::new(p, k, l, s).map_err(|e| e.to_string())?;
            if problem.period_elements() > 100_000 {
                continue; // keep the oracle affordable
            }
            for m in 0..p {
                let reference = build(&problem, m, Method::Oracle).map_err(|e| e.to_string())?;
                for method in [
                    Method::Lattice,
                    Method::SortingComparison,
                    Method::SortingRadix,
                ] {
                    let pat = build(&problem, m, method).map_err(|e| e.to_string())?;
                    if pat != reference {
                        return Err(format!(
                            "MISMATCH: {} vs oracle at p={p} k={k} l={l} s={s} m={m}",
                            method.name()
                        ));
                    }
                }
                checked += 1;
            }
        }
        println!("verified {checked} (parameters, processor) pairs: all methods agree ✓");
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag hpf`: parse an HPF directive file and enumerate a section.
pub fn hpf(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["file", "section", "proc"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let file = flags
            .opt_str("file")
            .ok_or("missing required flag `--file`")?;
        let section = flags
            .opt_str("section")
            .ok_or("missing required flag `--section` (e.g. \"A(4:301:9)\")")?;
        let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let prog = bcag_hpf::Program::parse(&src).map_err(|e| e.to_string())?;
        let (name, secs) = bcag_hpf::Program::parse_section(section).map_err(|e| e.to_string())?;
        let map = prog.array_map(&name).map_err(|e| e.to_string())?;
        let procs: Vec<i64> = match flags.opt_i64("proc", -1)? {
            -1 => (0..map.grid().size()).collect(),
            m => vec![m],
        };
        println!(
            "array {name}: rank {}, grid {:?}, block sizes {:?}",
            map.rank(),
            map.grid().extents(),
            map.dims()
                .iter()
                .map(|d| d.block_size())
                .collect::<Vec<_>>()
        );
        for rank in procs {
            let coords = map.grid().delinearize(rank).map_err(|e| e.to_string())?;
            let accesses = map
                .section_accesses(&coords, &secs, Method::Lattice)
                .map_err(|e| e.to_string())?;
            print!("proc {rank} {coords:?}: {} accesses;", accesses.len());
            for (idx, local) in accesses.iter().take(12) {
                print!(" {idx:?}@{local}");
            }
            if accesses.len() > 12 {
                print!(" ...");
            }
            println!();
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// Splits an argv into one optional positional word plus `--flag value`
/// pairs (the script path may come before, between or after the pairs).
fn split_positional(argv: &[String]) -> Result<(Option<String>, Vec<String>), String> {
    let mut positional: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") {
            rest.push(a.clone());
            if let Some(v) = it.next() {
                rest.push(v.clone());
            }
        } else if positional.is_none() {
            positional = Some(a.clone());
        } else {
            return Err(format!("unexpected extra argument `{a}`"));
        }
    }
    Ok((positional, rest))
}

/// `bcag trace`: run a workload with tracing enabled and write the
/// `bcag-trace/v2` summary plus a chrome://tracing event file (and, with
/// `--prom`, a Prometheus text exposition).
pub fn trace(argv: &[String], global_out: Option<&str>) -> i32 {
    let (positional, rest) = match split_positional(argv) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let flags = match Flags::parse(&rest, &["file", "p", "k", "prom"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let out = global_out.unwrap_or("TRACE.json").to_string();
    let run = || -> Result<(), String> {
        let p = flags.opt_i64("p", 0)?;
        let k = flags.opt_i64("k", 0)?;
        let script = match (&positional, flags.opt_str("file")) {
            (Some(_), Some(_)) => {
                return Err("give the script either positionally or via --file, not both".into())
            }
            (Some(a), None) => Some(a.clone()),
            (None, Some(f)) => Some(f.to_string()),
            (None, None) => None,
        };
        bcag_trace::start();
        let result = match &script {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|src| {
                    let src = override_directives(&src, p, k);
                    bcag_rt::Interp::run(&src).map_err(|e| e.to_string())
                })
                .map(|lines| format!("script `{path}` ({} output lines)", lines.len())),
            None => synthetic_workload(if p >= 1 { p } else { 4 }, if k >= 1 { k } else { 8 }),
        };
        let trace = bcag_trace::stop();
        let desc = result?;
        write_trace_artifacts(&trace, &out)?;
        if let Some(prom) = flags.opt_str("prom") {
            let text = bcag_trace::export::prometheus(&trace);
            std::fs::write(prom, text).map_err(|e| format!("{prom}: {e}"))?;
        }
        println!("traced {desc}");
        println!(
            "lanes={} spans={} messages_sent={} bytes_packed={} critical_path_ns={}",
            trace.lanes.len(),
            trace.lanes.iter().map(|l| l.events.len()).sum::<usize>(),
            trace.counter_total("messages_sent"),
            trace.counter_total("bytes_packed"),
            trace.critical_path_ns()
        );
        print_human_summary(&trace);
        println!("summary: {out}");
        println!("chrome:  {}", chrome_path_for(&out));
        if let Some(prom) = flags.opt_str("prom") {
            println!("prom:    {prom}");
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// Prints the human-facing digest of a trace: the top spans by total
/// time (with self time, i.e. minus nested children) and the headline
/// percentiles of every histogram. Per-destination `msg_bytes_to_<dst>`
/// histograms are folded into the `msg_bytes` row to keep the table
/// readable at p=32 (they remain in the JSON artifacts).
fn print_human_summary(trace: &bcag_trace::Trace) {
    let rollup = trace.span_rollup();
    if !rollup.is_empty() {
        println!("top spans by total time:");
        println!(
            "  {:<22} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for s in rollup.iter().take(10) {
            println!(
                "  {:<22} {:>8} {:>12.3} {:>12.3}",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    let names: Vec<&str> = trace
        .histogram_names()
        .into_iter()
        .filter(|n| !n.starts_with("msg_bytes_to_"))
        .collect();
    if !names.is_empty() {
        println!("histogram percentiles:");
        println!(
            "  {:<22} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "p50", "p90", "p95", "p99", "max"
        );
        for name in names {
            let h = trace.histogram_total(name);
            println!(
                "  {:<22} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count(),
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max()
            );
        }
    }
}

/// The built-in script `bcag stats` interprets when none is given: a few
/// mixed-layout statements so the flight recorder and every histogram
/// site have something to show.
const STATS_SCRIPT: &str = "\
PROCESSORS P(4)
TEMPLATE T(256)
REAL A(256)
REAL B(256)
ALIGN A(i) WITH T(i)
ALIGN B(i) WITH T(i)
DISTRIBUTE T(CYCLIC(8)) ONTO P
INIT A LINEAR 1 0
INIT B LINEAR 2 1
ASSIGN A(0:252:3) = B(0:252:3) * 2
ASSIGN A(1:253:4) = A(1:253:4) + B(1:253:4)
REDISTRIBUTE A CYCLIC(5)
";

/// `bcag stats`: interpret a script with tracing on and print the flight
/// recorder's last-statements table, schedule-cache effectiveness and the
/// headline latency percentiles — the operator's at-a-glance view, no
/// JSON artifacts.
pub fn stats(argv: &[String]) -> i32 {
    let (positional, rest) = match split_positional(argv) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let flags = match Flags::parse(&rest, &["file", "p", "k", "last"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let p = flags.opt_i64("p", 0)?;
        let k = flags.opt_i64("k", 0)?;
        let last = flags.opt_i64("last", 16)?.max(1) as usize;
        let script = match (&positional, flags.opt_str("file")) {
            (Some(_), Some(_)) => {
                return Err("give the script either positionally or via --file, not both".into())
            }
            (Some(a), None) => Some(a.clone()),
            (None, Some(f)) => Some(f.to_string()),
            (None, None) => None,
        };
        let src = match &script {
            Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
            None => STATS_SCRIPT.to_string(),
        };
        let src = override_directives(&src, p, k);
        bcag_rt::flight::clear();
        bcag_trace::start();
        let result = bcag_rt::Interp::run(&src);
        let trace = bcag_trace::stop();
        result.map_err(|e| e.to_string())?;
        let records = bcag_rt::flight::snapshot();
        let tail = &records[records.len().saturating_sub(last)..];
        println!(
            "flight recorder: last {} of {} statements",
            tail.len(),
            records.len()
        );
        print!("{}", bcag_rt::flight::render(tail));
        println!(
            "statement compiler: mode={} (BCAG_FUSE=on|off), transport={}, launch={}",
            bcag_spmd::default_fused().name(),
            bcag_spmd::transport::active_transport().name(),
            bcag_spmd::pool::default_launch().name()
        );
        println!(
            "tune: mode={} (BCAG_TUNE=auto|fixed) l2={}KiB (BCAG_L2_KB) decisions: runs={} per-element={} blocked={}",
            bcag_core::tune::default_tune().name(),
            bcag_core::tune::l2_bytes() / 1024,
            trace.counter_total("tune_decision_runs"),
            trace.counter_total("tune_decision_per_element"),
            trace.counter_total("tune_decision_blocked"),
        );
        println!(
            "fused programs: compiled={} period-table entries={}",
            trace.counter_total("fuse_programs"),
            trace.counter_total("fuse_table_entries"),
        );
        let cs = bcag_spmd::cache::stats();
        println!(
            "schedule cache: hits={} misses={} hit_rate={:.1}% entries={}/{} evictions={}",
            cs.hits,
            cs.misses,
            cs.hit_rate() * 100.0,
            cs.entries,
            cs.capacity,
            cs.evictions
        );
        let occ = bcag_spmd::cache::shard_entries();
        let max = occ.iter().copied().max().unwrap_or(0);
        let mean = cs.entries as f64 / occ.len().max(1) as f64;
        // Balance is the max/mean occupancy ratio: 1.0 is a perfectly
        // even key spread; high values flag a skewed hash distribution
        // that would re-serialize lookups on one shard.
        let balance = if cs.entries == 0 {
            1.0
        } else {
            max as f64 / mean
        };
        println!(
            "cache shards: {} occupancy={:?} balance(max/mean)={:.2}",
            cs.shards, occ, balance
        );
        print_human_summary(&trace);
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// Writes the `bcag-trace/v1` summary to `out` and the Chrome Trace Event
/// file next to it (`foo.json` → `foo.chrome.json`).
pub fn write_trace_artifacts(trace: &bcag_trace::Trace, out: &str) -> Result<(), String> {
    let summary = bcag_trace::export::summary(trace);
    std::fs::write(out, summary.to_pretty_string()).map_err(|e| format!("{out}: {e}"))?;
    let chrome_path = chrome_path_for(out);
    let chrome = bcag_trace::export::chrome(trace);
    std::fs::write(&chrome_path, chrome.to_string()).map_err(|e| format!("{chrome_path}: {e}"))?;
    Ok(())
}

/// Derives the Chrome Trace Event file path from the summary path.
fn chrome_path_for(out: &str) -> String {
    match out.strip_suffix(".json") {
        Some(stem) => format!("{stem}.chrome.json"),
        None => format!("{out}.chrome.json"),
    }
}

/// Rewrites `PROCESSORS NAME(n)` (1-D only) and `CYCLIC(n)` directive sizes
/// so one script can be traced at several machine scales. `p`/`k` of 0 mean
/// "leave the script as written".
fn override_directives(src: &str, p: i64, k: i64) -> String {
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        let mut l = line.to_string();
        if p >= 1
            && l.trim_start()
                .to_ascii_uppercase()
                .starts_with("PROCESSORS")
        {
            l = replace_single_paren_number(&l, p);
        }
        if k >= 1 {
            l = replace_cyclic_numbers(&l, k);
        }
        out.push_str(&l);
        out.push('\n');
    }
    out
}

/// Replaces `(n)` with `(p)` when the parenthesized content is one integer
/// (multidimensional grids are left untouched).
fn replace_single_paren_number(line: &str, p: i64) -> String {
    let (Some(open), Some(close)) = (line.find('('), line.rfind(')')) else {
        return line.to_string();
    };
    if open >= close || line[open + 1..close].trim().parse::<i64>().is_err() {
        return line.to_string();
    }
    format!("{}({}){}", &line[..open], p, &line[close + 1..])
}

/// Replaces the block size in every `CYCLIC(n)` occurrence with `k`.
fn replace_cyclic_numbers(line: &str, k: i64) -> String {
    let upper = line.to_ascii_uppercase();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while let Some(rel) = upper[i..].find("CYCLIC(") {
        let inner_start = i + rel + "CYCLIC(".len();
        out.push_str(&line[i..inner_start]);
        let Some(close_rel) = line[inner_start..].find(')') else {
            out.push_str(&line[inner_start..]);
            return out;
        };
        let inner = &line[inner_start..inner_start + close_rel];
        if inner.trim().parse::<i64>().is_ok() {
            out.push_str(&k.to_string());
        } else {
            out.push_str(inner);
        }
        i = inner_start + close_rel;
    }
    out.push_str(&line[i..]);
    out
}

/// Built-in workload for `bcag trace` with no script: per-node table builds
/// on the SPMD machine followed by a two-distribution remapping assignment
/// through [`CommSchedule`], so every instrumented layer shows up.
fn synthetic_workload(p: i64, k: i64) -> Result<String, String> {
    use bcag_spmd::{CommSchedule, DistArray};
    let problem = Problem::new(p, k, 4, 9).map_err(|e| e.to_string())?;
    let patterns =
        bcag_spmd::pool::build_all(&problem, Method::Lattice).map_err(|e| e.to_string())?;
    let table_total: usize = patterns.iter().map(|pat| pat.len()).sum();
    // A(0:3c-3:3) = B(1:2c-1:2) across two different blockings.
    let n = (p * k * 8).max(64);
    let c = n / 4;
    let k_b = k + 1;
    let sec_a = RegularSection::new(0, 3 * (c - 1), 3).map_err(|e| e.to_string())?;
    let sec_b = RegularSection::new(1, 1 + 2 * (c - 1), 2).map_err(|e| e.to_string())?;
    let sched =
        CommSchedule::build_lattice(p, k, &sec_a, k_b, &sec_b).map_err(|e| e.to_string())?;
    let mut a = DistArray::new(p, k, 3 * c, 0.0f64).map_err(|e| e.to_string())?;
    let src: Vec<f64> = (0..2 * c).map(|i| i as f64).collect();
    let b = DistArray::from_global(p, k_b, &src).map_err(|e| e.to_string())?;
    sched.execute(&mut a, &b).map_err(|e| e.to_string())?;
    Ok(format!(
        "synthetic workload (p={p} k={k}): {table_total} table entries, {} elements remapped",
        sched.total_elements()
    ))
}

/// `bcag spmd`: run a script across real OS processes, one per node.
/// The parent routes serialized frames between the children (star
/// topology); with the global `--trace OUT.json` flag each child records
/// its own lane and the parent merges them into one timeline.
pub fn spmd(argv: &[String], trace_out: Option<&str>) -> i32 {
    let flags = match Flags::parse(argv, &["file", "procs"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let file = flags
            .opt_str("file")
            .ok_or("missing required flag `--file`")?;
        let procs = flags.req_i64("procs")?;
        if procs < 1 {
            return Err("--procs must be at least 1".into());
        }
        let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let declared = bcag_rt::spmd::script_processors(&src)?;
        if declared != procs as usize {
            return Err(format!(
                "script declares PROCESSORS({declared}) but --procs is {procs}; \
                 every node process interprets the directives itself, so the \
                 sizes must agree"
            ));
        }
        let exe = std::env::current_exe().map_err(|e| format!("locating bcag binary: {e}"))?;
        let outcome = bcag_rt::spmd::launch(&exe, file, procs as usize, trace_out.is_some())?;
        for line in &outcome.output {
            println!("{line}");
        }
        if let Some(out) = trace_out {
            let mut traces = Vec::new();
            for (node, json) in &outcome.node_traces {
                let doc = bcag_harness::json::Json::parse(json)
                    .map_err(|e| format!("node {node} trace: {e}"))?;
                traces.push(
                    bcag_trace::export::from_json(&doc)
                        .map_err(|e| format!("node {node} trace: {e}"))?,
                );
            }
            let merged = bcag_trace::Trace::merged(traces);
            write_trace_artifacts(&merged, out)?;
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag spmd-node`: the hidden child subcommand `bcag spmd` forks. Not
/// for interactive use — stdin/stdout are the frame pipe to the parent
/// router, so anything else on them would corrupt the stream.
pub fn spmd_node(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["me", "procs", "file", "traced"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let me = flags.req_i64("me")?;
        let procs = flags.req_i64("procs")?;
        let file = flags
            .opt_str("file")
            .ok_or("missing required flag `--file`")?;
        let traced = flags.opt_i64("traced", 0)? != 0;
        if me < 0 || procs < 1 {
            return Err("--me must be >= 0 and --procs >= 1".into());
        }
        let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        bcag_rt::spmd::run_node(me as usize, procs as usize, &src, traced)
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

/// `bcag plan`: bounded-section node plans.
pub fn plan(argv: &[String]) -> i32 {
    let flags = match Flags::parse(argv, &["p", "k", "l", "u", "s"]) {
        Ok(f) => f,
        Err(e) => return fail(&e),
    };
    let run = || -> Result<(), String> {
        let p = flags.req_i64("p")?;
        let k = flags.req_i64("k")?;
        let l = flags.req_i64("l")?;
        let u = flags.req_i64("u")?;
        let s = flags.req_i64("s")?;
        let section = RegularSection::new(l, u, s).map_err(|e| e.to_string())?;
        let plans = plan_section(p, k, &section, Method::Lattice).map_err(|e| e.to_string())?;
        println!(
            "section {l}:{u}:{s} over p={p} k={k} ({} elements)",
            section.count()
        );
        for (m, plan) in plans.iter().enumerate() {
            match plan.start {
                None => println!("proc {m}: idle"),
                Some(start) => println!(
                    "proc {m}: start_local={start} last_local={} table_len={}",
                    plan.last,
                    plan.delta_m.len()
                ),
            }
        }
        Ok(())
    };
    match run() {
        Ok(()) => 0,
        Err(e) => fail(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_path_derivation() {
        assert_eq!(chrome_path_for("out.json"), "out.chrome.json");
        assert_eq!(chrome_path_for("trace"), "trace.chrome.json");
        assert_eq!(chrome_path_for("a/b/t.json"), "a/b/t.chrome.json");
    }

    #[test]
    fn directive_overrides_rewrite_sizes() {
        let src =
            "PROCESSORS P(4)\n!HPF$ DISTRIBUTE TA(CYCLIC(8)) ONTO P\nREDISTRIBUTE A CYCLIC(4)\n";
        let got = override_directives(src, 32, 5);
        assert!(got.contains("PROCESSORS P(32)"));
        assert!(got.contains("CYCLIC(5)) ONTO P"));
        assert!(got.contains("REDISTRIBUTE A CYCLIC(5)"));
        // 0 means leave alone.
        assert_eq!(override_directives(src, 0, 0), src);
    }

    #[test]
    fn directive_overrides_leave_grids_and_pure_cyclic() {
        // 2-D processor grids are not rewritten by --p.
        let grid = "PROCESSORS G(2, 2)\n";
        assert_eq!(override_directives(grid, 32, 0), grid);
        // CYCLIC without a block size is untouched.
        let pure = "!HPF$ DISTRIBUTE T(CYCLIC) ONTO P\n";
        assert_eq!(override_directives(pure, 0, 7), pure);
        // Both sizes in a rank-2 distribution are rewritten.
        let two = "!HPF$ DISTRIBUTE TM(CYCLIC(3), CYCLIC(4)) ONTO G\n";
        let got = override_directives(two, 0, 6);
        assert_eq!(got, "!HPF$ DISTRIBUTE TM(CYCLIC(6), CYCLIC(6)) ONTO G\n");
    }

    #[test]
    fn synthetic_workload_runs_and_traces() {
        let ((), tr) = bcag_trace::capture(|| {
            synthetic_workload(3, 4).unwrap();
        });
        assert!(tr.counter_total("table_entries") > 0);
        assert!(tr.counter_total("elements_moved") > 0);
        assert!(tr.lane("node-0").is_some());
    }
}
