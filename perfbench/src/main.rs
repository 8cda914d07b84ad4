//! End-to-end and per-layer host-time benchmark of the T3D simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload em3d_scale|paper_micro --seed N --seconds S --trace 0|1
//! ```
//!
//! At most two worker threads (the phase driver is pinned to `Par(2)`;
//! `T3D_PAR` is never read). With `--trace 0` it times the set-up of
//! several child processes of its own, runs whole rounds of verified
//! points until `--seconds` have passed, and prints the end-to-end
//! metrics; with `--trace 1` it also runs the points again with
//! host-time spans around every layer call, probes each layer's public
//! functions, and prints the per-layer metrics. The end-to-end times
//! are process CPU times at reference speed (see `calib`); the raw CPU
//! and wall-clock figures are printed beside them. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod calib;
mod layers;
mod spans;
mod stats;
mod workloads;

use calib::Reference;
use spans::{Spans, LAYERS, NO_POINT};
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use t3d_perf::json::Value;
use t3d_perf::CostClass;
use workloads::{fnv, PointStats, Workload, FNV_OFFSET};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Reference runs before each set-up child.
const REF_REPS: usize = 8;
/// The line a set-up child prints where its first timed point would
/// start.
const READY: &str = "ready";
/// Samples the tail percentile must leave above it.
const TAIL_BEYOND: usize = 10;
/// Pinned round-0 fingerprints per workload and seed.
const PINNED: &str = include_str!("../fingerprints.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up, print `READY` and exit (the child of a set-up timing).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--setup-only" => setup_only = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// What one timed loop measured.
struct LoopOut {
    /// Per-point CPU ms at reference speed, ascending.
    samples_ms: Vec<f64>,
    /// Per-point CPU ms as measured, ascending.
    cpu_ms: Vec<f64>,
    /// Per-point wall-clock ms, ascending.
    wall_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// CPU seconds of the rounds (reference runs excluded).
    cpu_s: f64,
    /// Wall-clock seconds of the rounds (reference runs excluded).
    wall_s: f64,
    /// The factor from CPU time to reference speed.
    scale: f64,
    fingerprint: u64,
}

impl LoopOut {
    fn verified(&self) -> f64 {
        (self.attempted - self.failed) as f64
    }

    /// Adds the work since `since` (from `clocks`) to the loop's time.
    fn add_work(&mut self, since: (Instant, f64)) {
        self.wall_s += since.0.elapsed().as_secs_f64();
        self.cpu_s += calib::process_cpu_s() - since.1;
    }

    /// Verified points per CPU second at reference speed.
    fn points_per_cpu_s(&self) -> f64 {
        self.verified() / (self.cpu_s * self.scale)
    }
}

/// The wall clock and the process CPU clock, now.
fn clocks() -> (Instant, f64) {
    (Instant::now(), calib::process_cpu_s())
}

/// Runs `f`, turning a panic into an error message.
fn checked(f: impl FnOnce() -> Result<u64, String>) -> Result<u64, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "panic".to_string())),
    }
}

/// Runs whole rounds of points until `seconds` have passed (at least
/// one); each point is timed on its own. A reference run before every
/// point samples the host's speed over the same stretch of time, and the
/// mean scales the loop's CPU times to reference speed.
fn timed_loop(w: &mut dyn Workload, seconds: u64, sp: &mut Spans, st: &mut PointStats) -> LoopOut {
    let len = w.round_len();
    let limit = Duration::from_secs(seconds);
    let reference = Reference::new();
    let mut ref_ms = Vec::new();
    let t0 = Instant::now();
    let mut out = LoopOut {
        samples_ms: Vec::new(),
        cpu_ms: Vec::new(),
        wall_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        cpu_s: 0.0,
        wall_s: 0.0,
        scale: 1.0,
        fingerprint: FNV_OFFSET,
    };
    let mut round = 0;
    while round == 0 || t0.elapsed() < limit {
        // Wall and CPU clocks of the round's work, outside the reference.
        let mut t_part = clocks();
        sp.set_point(NO_POINT);
        sp.open("round");
        w.begin_round(round, sp);
        for j in 0..len {
            out.add_work(t_part);
            ref_ms.push(reference.run_ms());
            t_part = clocks();
            sp.set_point(round * len as u64 + j as u64);
            let depth = sp.depth();
            sp.open("point");
            let (t, c) = clocks();
            let r = checked(|| w.point(round, j, sp, st));
            out.cpu_ms.push((calib::process_cpu_s() - c) * 1e3);
            out.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
            sp.unwind_to(depth);
            out.attempted += 1;
            match r {
                Ok(word) if round == 0 => out.fingerprint = fnv(out.fingerprint, &[word]),
                Ok(_) => {}
                Err(e) => {
                    out.failed += 1;
                    eprintln!("point {round}/{j} failed: {e}");
                }
            }
        }
        sp.set_point(NO_POINT);
        sp.close();
        out.add_work(t_part);
        round += 1;
    }
    out.scale = calib::scale(&ref_ms);
    out.cpu_ms.sort_by(f64::total_cmp);
    out.wall_ms.sort_by(f64::total_cmp);
    out.samples_ms = out.cpu_ms.iter().map(|ms| ms * out.scale).collect();
    out
}

/// Builds the workload and warms it up.
fn set_up(args: &Args) -> Result<Box<dyn Workload>, String> {
    let mut w = workloads::make(&args.workload, args.seed).expect("workload name checked");
    checked(|| w.warm_up().map(|()| 0))?;
    Ok(w)
}

/// What the set-up children measured.
struct SetUps {
    /// Each child's CPU seconds at reference speed.
    scaled_s: Vec<f64>,
    /// Each child's CPU seconds as measured.
    cpu_s: Vec<f64>,
    /// Wall-clock seconds from each spawn to the child's `READY` line.
    wall_s: Vec<f64>,
    failed: u64,
}

/// Times `SETUP_REPS` child processes of this program that each set the
/// workload up and, where their first timed point would start, print
/// `READY` and the CPU seconds their process has used since it started.
fn time_set_ups(args: &Args) -> SetUps {
    let mut out = SetUps {
        scaled_s: Vec::new(),
        cpu_s: Vec::new(),
        wall_s: Vec::new(),
        failed: 0,
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find this program to time its set-up: {e}");
            out.failed = SETUP_REPS as u64;
            return out;
        }
    };
    let reference = Reference::new();
    let mut ref_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        ref_ms.extend((0..REF_REPS).map(|_| reference.run_ms()));
        let t = Instant::now();
        let child = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--setup-only", "1"])
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                out.failed += 1;
                eprintln!("set-up child did not start: {e}");
                continue;
            }
        };
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| std::io::BufReader::new(out).read_line(&mut line));
        let wall = t.elapsed().as_secs_f64();
        let exited_ok = child.wait().is_ok_and(|st| st.success());
        let cpu = match (read, line.split_once(' ')) {
            (Some(Ok(_)), Some((READY, cpu))) if exited_ok => cpu.trim().parse::<f64>().ok(),
            _ => None,
        };
        match cpu {
            Some(cpu) => {
                out.cpu_s.push(cpu);
                out.wall_s.push(wall);
            }
            None => {
                out.failed += 1;
                eprintln!("set-up child failed");
            }
        }
    }
    let scale = calib::scale(&ref_ms);
    out.scaled_s = out.cpu_s.iter().map(|s| s * scale).collect();
    out
}

/// Peak resident set size (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn pinned_fingerprint(workload: &str, seed: u64) -> Option<u64> {
    let doc = t3d_perf::json::parse(PINNED).expect("fingerprints.json parses");
    let hex = doc.get(workload)?.get(&seed.to_string())?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<32} {value:>16.6} {unit:<6} {note}");
}

/// The traced run: the same points again with spans around every layer
/// call, then the per-layer probes. Returns the per-layer metrics and
/// the traced points attempted and failed.
fn traced_run(w: &mut dyn Workload, args: &Args, plain: &LoopOut) -> (layers::Metrics, u64, u64) {
    let pps = plain.points_per_cpu_s();
    // The probes take wall-clock time, so the shares below do too.
    let p50 = stats::median(&plain.wall_ms);
    let mut metrics: layers::Metrics = Vec::new();
    let mut sp = Spans::new(true);
    let mut tst = PointStats::default();
    let traced = timed_loop(w, args.seconds, &mut sp, &mut tst);
    let mut failed = traced.failed;
    if traced.fingerprint != plain.fingerprint {
        failed += 1;
        eprintln!("traced fingerprint differs from the untraced one");
    }
    sp.set_point(NO_POINT);
    sp.open("probes");
    let size = w.pes();
    println!("# per-layer probes at {size} PEs");
    let (probe_ops, probe_host_s) = layers::machine(size, &mut sp, &mut metrics);
    layers::em3d_splitc_micro(size, args.seed, &mut sp, &mut metrics);
    layers::sched(args.seed, &mut sp, &mut metrics);
    let us_per_edge = if tst.us_per_edge.is_empty() {
        layers::em3d_reference(size, args.seed, &mut sp)
    } else {
        stats::median_of(&tst.us_per_edge)
    };
    w.virtual_reference(&mut tst);
    sp.close();

    metrics.push(("em3d.us_per_edge".into(), us_per_edge, "us"));
    // Operations per host second: the points' own where they are
    // visible, else the direct-op probes'.
    let (ops, ops_s, ops_src) = if tst.ops > 0 {
        (tst.ops, tst.ops_host_s, "the traced points")
    } else {
        (probe_ops, probe_host_s, "the machine.op_ns probes")
    };
    println!("# machine.ops and machine.ops_per_s from {ops_src}");
    metrics.push(("machine.ops".into(), ops as f64, "count"));
    metrics.push(("machine.ops_per_s".into(), ops as f64 / ops_s, "1/s"));
    metrics.push((
        "trace.overhead_ratio".into(),
        traced.points_per_cpu_s() / pps,
        "ratio",
    ));
    let self_ms = sp.self_ms_by_layer();
    for layer in LAYERS {
        let v = self_ms.get(layer).copied().unwrap_or(0.0);
        metrics.push((format!("self_ms.{layer}"), v, "ms"));
    }
    let mem = |k: &str| tst.mem.get(k).copied().unwrap_or(0);
    let l1 = mem("mem.l1.hits") + mem("mem.l1.misses");
    let ratio = if l1 > 0 {
        mem("mem.l1.hits") as f64 / l1 as f64
    } else {
        0.0
    };
    metrics.push(("memsys.l1_hit_ratio".into(), ratio, "ratio"));
    metrics.push(("memsys.l1_accesses".into(), l1 as f64, "count"));
    for k in ["mem.tlb.misses", "mem.wbuf.merges", "mem.wbuf.stalls"] {
        metrics.push((k.into(), mem(k) as f64, "count"));
    }
    for c in CostClass::ALL {
        metrics.push((format!("cy.{}", c.label()), tst.ledger.get(c) as f64, "cy"));
    }

    // The traffic record: how much of a point the fixed phase cost and
    // the machine construction explain.
    let get = |k: &str| metrics.iter().find(|(n, _, _)| n == k).map_or(0.0, |m| m.1);
    let phases = w.phases_per_point();
    let phase_ms = get("machine.phase_empty_ms");
    println!(
        "# traffic: {phases:.2} sharded phases per point x {phase_ms:.4} ms empty phase = {:.3} of point p50 {p50:.4} ms; machine.new {:.4} ms = {:.3} of p50",
        phase_ms * phases / p50,
        get("machine.new_ms"),
        get("machine.new_ms") / p50
    );

    let dir = std::path::Path::new("perfbench/out");
    let file = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, sp.chrome_trace().render()))
    {
        Ok(()) => println!("# chrome trace: {} ({} spans)", file.display(), sp.len()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
    println!(
        "# traced run: {} points, {:.4} points/s traced vs {:.4} untraced (reference speed)",
        traced.attempted,
        traced.points_per_cpu_s(),
        pps
    );
    for (k, v, u) in &metrics {
        print_metric(k, *v, u, "");
    }
    (metrics, traced.attempted, failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match set_up(&args) {
            Ok(_) => {
                println!("{READY} {}", calib::process_cpu_s());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut t3d_env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("T3D_"))
        .collect();
    t3d_env.sort();
    if t3d_env.is_empty() {
        println!("# env: no T3D_* variable set (simulator defaults)");
    } else {
        for (k, v) in &t3d_env {
            println!("# env: {k}={v}");
        }
    }
    println!(
        "# host: available_parallelism={} phase driver=Par(2) (T3D_PAR not read)",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );

    // The in-process set-up the timed points run on; a failed one counts
    // as one failed attempt, like each failed set-up child.
    let (mut attempted, mut failed) = (1, 0);
    let mut w = match set_up(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            failed += 1;
            workloads::make(&args.workload, args.seed).expect("workload name checked")
        }
    };
    let setups = time_set_ups(&args);
    attempted += SETUP_REPS as u64;
    failed += setups.failed;
    let mut st = PointStats::default();
    let plain = timed_loop(w.as_mut(), args.seconds, &mut Spans::new(false), &mut st);
    attempted += plain.attempted;
    failed += plain.failed;

    let n = plain.samples_ms.len();
    let pinned = pinned_fingerprint(&args.workload, args.seed);
    // A pinned fingerprint that no longer matches fails the run: a change
    // to simulated behaviour re-pins perfbench/fingerprints.json.
    attempted += 1;
    let fp_note = match pinned {
        Some(p) if p == plain.fingerprint => format!("pinned {p:#018x} match"),
        Some(p) => {
            failed += 1;
            eprintln!("fingerprint differs from its pin");
            format!("pinned {p:#018x} MISMATCH: simulated behaviour changed")
        }
        None => "unpinned seed".to_string(),
    };
    println!(
        "# fingerprint {} seed={} {:#018x} ({fp_note})",
        args.workload, args.seed, plain.fingerprint
    );
    println!(
        "# host: reference runs took {:.4} x {} ms of CPU over the timed rounds; CPU {:.3} s, wall {:.3} s",
        1.0 / plain.scale,
        calib::REF_MS,
        plain.cpu_s,
        plain.wall_s
    );

    let metrics = if args.trace {
        let (m, a, f) = traced_run(w.as_mut(), &args, &plain);
        attempted += a;
        failed += f;
        m
    } else {
        let median_or_0 = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                stats::median_of(v)
            }
        };
        let list = |v: &[f64]| {
            let v: Vec<String> = v.iter().map(|t| format!("{t:.4}")).collect();
            v.join(", ")
        };
        let tail = stats::tail(&plain.samples_ms, TAIL_BEYOND);
        let tail_note = if tail.defined {
            format!(
                "p{:.2} (rank {} of {n}, {TAIL_BEYOND} beyond); raw CPU {:.4}, wall {:.4}",
                tail.pct,
                tail.rank,
                stats::tail(&plain.cpu_ms, TAIL_BEYOND).value,
                stats::tail(&plain.wall_ms, TAIL_BEYOND).value
            )
        } else {
            format!("too few points ({n}) for 10 beyond the median: median stands in")
        };
        let e2e: layers::Metrics = vec![
            ("setup_s".into(), median_or_0(&setups.scaled_s), "s"),
            ("points_per_cpu_s".into(), plain.points_per_cpu_s(), "1/s"),
            (
                "point_cpu_p50_ms".into(),
                stats::median(&plain.samples_ms),
                "ms",
            ),
            ("point_cpu_tail_ms".into(), tail.value, "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ];
        let notes = [
            format!(
                "median CPU of {SETUP_REPS} child set-ups to their first timed point; raw CPU [{}], wall [{}]",
                list(&setups.cpu_s),
                list(&setups.wall_s)
            ),
            format!(
                "{} verified points; raw CPU {:.4}, wall {:.4}",
                plain.verified(),
                plain.verified() / plain.cpu_s,
                plain.verified() / plain.wall_s
            ),
            format!(
                "nearest rank of {n}; raw CPU {:.4}, wall {:.4}",
                stats::median(&plain.cpu_ms),
                stats::median(&plain.wall_ms)
            ),
            tail_note,
            "VmHWM".to_string(),
        ];
        for ((k, v, u), note) in e2e.iter().zip(&notes) {
            print_metric(k, *v, u, note);
        }
        e2e
    };
    let error_rate = failed as f64 / attempted as f64;
    print_metric(
        "error_rate",
        error_rate,
        "ratio",
        &format!("{failed} failed of {attempted} attempted"),
    );

    let metrics_json = Value::Obj(
        metrics
            .iter()
            .map(|(k, v, u)| {
                (
                    k.clone(),
                    Value::obj(vec![
                        ("value", Value::Float(*v)),
                        ("unit", Value::Str((*u).to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Int(attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", metrics_json),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
