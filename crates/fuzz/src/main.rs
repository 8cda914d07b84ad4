//! The `t3d-fuzz` command line.
//!
//! ```text
//! t3d-fuzz [--cases N] [--seed S] [--threads T] [--out DIR]
//!          [--inject-fault]
//! ```
//!
//! Runs `N` generated programs through the full differential oracle
//! (Seq driver vs Par driver — memory, clocks, results, op counters and
//! attribution ledgers — vs flat reference model vs sanitizer).
//! Failures are shrunk and written to `DIR` as self-contained
//! reproducers; the exit code is the failure count (clamped to 1).
//!
//! `--inject-fault` is the self-test: it flips one byte of the Par
//! run's settled memory, requires the oracle to catch it, shrinks the
//! case and fails unless the reproducer lowers to at most 12 ops.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use t3d_fuzz::{
    case_seed, check_case, fault_for_seed, parse_seed, program_for_seed, shrink, Program,
    DEFAULT_BUDGET,
};

struct Args {
    cases: usize,
    seed: u64,
    threads: usize,
    out: PathBuf,
    inject_fault: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 100,
        seed: 0x7E3D,
        threads: 3,
        out: PathBuf::from("target/fuzz-reproducers"),
        inject_fault: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => args.seed = parse_seed(&value("--seed")?),
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if args.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--inject-fault" => args.inject_fault = true,
            "--help" | "-h" => {
                println!(
                    "t3d-fuzz [--cases N] [--seed S] [--threads T] [--out DIR] [--inject-fault]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Silences the default panic printer for the process lifetime: the
/// harness converts panics into oracle messages, and a 300-case run
/// that probes panic paths shouldn't spray backtraces.
fn hush_panics() {
    std::panic::set_hook(Box::new(|_| {}));
}

/// The first token of an action's debug form ("Store", "BulkGet", …).
fn kind_name(prog: &Program) -> Vec<&'static str> {
    prog.phases
        .iter()
        .flat_map(|p| p.actions.iter())
        .map(|a| {
            let d = format!("{:?}", a.kind);
            // Leak-free static mapping: match on the leading token.
            let tok = d.split([' ', '{']).next().unwrap_or("").to_string();
            NAMES.iter().find(|n| **n == tok).copied().unwrap_or("?")
        })
        .collect()
}

const NAMES: [&str; 21] = [
    "Advance",
    "Read",
    "ReadU32",
    "ByteRead",
    "Write",
    "WriteU32",
    "ByteWrite",
    "Put",
    "Store",
    "Get",
    "BulkRead",
    "BulkGet",
    "BulkWrite",
    "BulkPut",
    "BulkReadStrided",
    "BulkWriteStrided",
    "AmAdd",
    "LockGuardedWrite",
    "LockHold",
    "LockFree",
    "LockProbe",
];

fn region_base(prog: &Program) -> u64 {
    use splitc::{SplitC, SplitcConfig};
    use t3d_machine::MachineConfig;
    let mut sc = SplitC::with_config(MachineConfig::t3d(prog.nodes), SplitcConfig::t3d());
    sc.alloc(prog.region_bytes(), 8)
}

fn save_reproducer(out: &PathBuf, seed: u64, prog: &Program, why: &str) -> PathBuf {
    let path = out.join(format!("case-{seed:#018x}.txt"));
    let mut text = prog.render_reproducer(seed, region_base(prog));
    text.push_str(&format!("\n# failure: {why}\n"));
    if let Err(e) = std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not save reproducer {}: {e}", path.display());
    }
    path
}

fn run_fuzz(args: &Args) -> ExitCode {
    let mut histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut failures = 0usize;
    for i in 0..args.cases {
        let seed = case_seed(args.seed, i);
        let prog = program_for_seed(seed);
        for name in kind_name(&prog) {
            *histogram.entry(name).or_default() += 1;
        }
        if let Some(why) = check_case(&prog, args.threads, None) {
            failures += 1;
            eprintln!("case {i} (seed {seed:#x}) FAILED: {why}");
            let small = shrink(&prog, args.threads, None, DEFAULT_BUDGET);
            let why_small = check_case(&small, args.threads, None).unwrap_or_else(|| why.clone());
            let path = save_reproducer(&args.out, seed, &small, &why_small);
            eprintln!(
                "  shrunk reproducer ({} actions): {}",
                small.action_count(),
                path.display()
            );
            println!("{}", small.render_reproducer(seed, region_base(&small)));
        }
    }
    println!(
        "t3d-fuzz: {} cases, seed {:#x}, {} threads, {} failure(s)",
        args.cases, args.seed, args.threads, failures
    );
    let covered = histogram.len();
    let actions: usize = histogram.values().sum();
    println!(
        "  action mix ({actions} actions, {covered}/{} kinds):",
        NAMES.len()
    );
    for (name, count) in &histogram {
        println!("    {name:<18} {count}");
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_inject_fault(args: &Args) -> ExitCode {
    let seed = case_seed(args.seed, 0);
    let prog = program_for_seed(seed);
    let fault = fault_for_seed(seed);
    println!(
        "self-test: flipping one byte after phase {} on PE {} (seed {seed:#x})",
        fault.phase, fault.pe
    );
    let Some(why) = check_case(&prog, args.threads, Some(fault)) else {
        eprintln!("self-test FAILED: the injected fault was not detected");
        return ExitCode::FAILURE;
    };
    println!("caught: {why}");
    let small = shrink(&prog, args.threads, Some(fault), DEFAULT_BUDGET);
    let ops: usize = small
        .lower(region_base(&small))
        .iter()
        .map(|p| p.op_count())
        .sum();
    println!("{}", small.render_reproducer(seed, region_base(&small)));
    let path = save_reproducer(&args.out, seed, &small, &why);
    println!("self-test reproducer saved to {}", path.display());
    if ops > 12 {
        eprintln!("self-test FAILED: shrunk reproducer has {ops} lowered ops (> 12)");
        return ExitCode::FAILURE;
    }
    println!("self-test OK: shrunk to {ops} lowered ops");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("t3d-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    hush_panics();
    if args.inject_fault {
        run_inject_fault(&args)
    } else {
        run_fuzz(&args)
    }
}
