//! The `t3d-sched-v1` saturation-sweep document and its comparator.
//!
//! A sweep runs the same job bodies at a ladder of offered loads and
//! records one [`SweepPoint`] per load: the wait/run/turnaround
//! distributions (exact nearest-rank percentiles), utilization, queue depth,
//! and the job-ledger FNV fingerprint. The checked-in
//! `BENCH_sched.json` is such a document; [`compare`] holds the
//! ledger fingerprints **strictly** (the whole scheduling run is
//! virtual-time deterministic) and the latency figures to a tolerance
//! that only absorbs deliberate timing-model changes — the same
//! two-discipline split as `t3d_perf::bench`.

use t3d_perf::json::{self, Value};

use crate::metrics::HistSummary;
use t3d_torus::subcube::Dims;

/// Document schema tag, bumped on incompatible layout changes.
pub const SCHED_SCHEMA: &str = "t3d-sched-v1";

/// One load point of a saturation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Target offered load (mean PE demand over machine capacity).
    pub load: f64,
    /// Mean inter-arrival gap the generator was given, cycles.
    pub mean_interarrival_cy: u64,
    /// Jobs in the trace.
    pub jobs: u32,
    /// Queue-wait distribution, cycles.
    pub wait: HistSummary,
    /// Service-time distribution, cycles.
    pub run: HistSummary,
    /// Turnaround distribution, cycles.
    pub turnaround: HistSummary,
    /// Machine utilization over the run (0–1).
    pub utilization: f64,
    /// Time-averaged queue depth.
    pub queue_mean: f64,
    /// Peak queue depth.
    pub queue_max: u64,
    /// Virtual cycle of the last completion.
    pub makespan_cy: u64,
    /// Job-ledger FNV fingerprint — compared strictly.
    pub ledger_fnv: u64,
}

/// A full sweep document.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedDoc {
    /// Machine shape the sweep ran on.
    pub machine: Dims,
    /// Master seed the traces derive from.
    pub seed: u64,
    /// Whether backfill was enabled.
    pub backfill: bool,
    /// The load ladder, lightest first.
    pub points: Vec<SweepPoint>,
}

fn summary_json(s: &HistSummary) -> Value {
    Value::obj(vec![
        ("p50", Value::Int(s.p50 as i64)),
        ("p95", Value::Int(s.p95 as i64)),
        ("p99", Value::Int(s.p99 as i64)),
        ("mean", Value::Float(s.mean)),
    ])
}

fn summary_from(v: Option<&Value>, what: &str) -> Result<HistSummary, String> {
    let v = v.ok_or(format!("point missing {what} summary"))?;
    let int = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_i64)
            .map(|x| x as u64)
            .ok_or(format!("{what} summary missing {key}"))
    };
    Ok(HistSummary {
        p50: int("p50")?,
        p95: int("p95")?,
        p99: int("p99")?,
        mean: v
            .get("mean")
            .and_then(Value::as_f64)
            .ok_or(format!("{what} summary missing mean"))?,
    })
}

impl SchedDoc {
    /// The document as JSON.
    pub fn to_json(&self) -> Value {
        let points = self
            .points
            .iter()
            .map(|p| {
                Value::obj(vec![
                    ("load", Value::Float(p.load)),
                    (
                        "mean_interarrival_cy",
                        Value::Int(p.mean_interarrival_cy as i64),
                    ),
                    ("jobs", Value::Int(i64::from(p.jobs))),
                    ("wait_cy", summary_json(&p.wait)),
                    ("run_cy", summary_json(&p.run)),
                    ("turnaround_cy", summary_json(&p.turnaround)),
                    ("utilization", Value::Float(p.utilization)),
                    ("queue_mean", Value::Float(p.queue_mean)),
                    ("queue_max", Value::Int(p.queue_max as i64)),
                    ("makespan_cy", Value::Int(p.makespan_cy as i64)),
                    // Hex string: ledger fingerprints use the full u64
                    // range, which a JSON i64 cannot carry.
                    ("ledger_fnv", Value::Str(format!("{:#018x}", p.ledger_fnv))),
                ])
            })
            .collect();
        Value::obj(vec![
            ("schema", Value::Str(SCHED_SCHEMA.to_string())),
            (
                "machine",
                Value::Arr(vec![
                    Value::Int(i64::from(self.machine.0)),
                    Value::Int(i64::from(self.machine.1)),
                    Value::Int(i64::from(self.machine.2)),
                ]),
            ),
            ("seed", Value::Str(format!("{:#018x}", self.seed))),
            ("backfill", Value::Bool(self.backfill)),
            ("points", Value::Arr(points)),
        ])
    }

    /// Parses a `t3d-sched-v1` document.
    ///
    /// # Errors
    ///
    /// Returns the first structural problem.
    pub fn from_json(v: &Value) -> Result<SchedDoc, String> {
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SCHED_SCHEMA {
            return Err(format!("expected schema {SCHED_SCHEMA:?}, got {schema:?}"));
        }
        let m = v
            .get("machine")
            .and_then(Value::as_arr)
            .ok_or("document missing machine")?;
        if m.len() != 3 {
            return Err(format!("machine must have 3 extents, got {}", m.len()));
        }
        let ext = |i: usize| -> Result<u32, String> {
            m[i].as_i64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or(format!("bad machine extent {:?}", m[i]))
        };
        let seed_text = v
            .get("seed")
            .and_then(Value::as_str)
            .ok_or("document missing seed")?;
        let seed = parse_hex(seed_text).map_err(|e| format!("bad seed: {e}"))?;
        let backfill = match v.get("backfill") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("document missing backfill flag".to_string()),
        };
        let raw = v
            .get("points")
            .and_then(Value::as_arr)
            .ok_or("document missing points")?;
        let mut points = Vec::with_capacity(raw.len());
        for pv in raw {
            let f = |key: &str| -> Result<f64, String> {
                pv.get(key)
                    .and_then(Value::as_f64)
                    .ok_or(format!("point missing {key}"))
            };
            let int = |key: &str| -> Result<u64, String> {
                pv.get(key)
                    .and_then(Value::as_i64)
                    .map(|x| x as u64)
                    .ok_or(format!("point missing {key}"))
            };
            let fnv_text = pv
                .get("ledger_fnv")
                .and_then(Value::as_str)
                .ok_or("point missing ledger_fnv")?;
            points.push(SweepPoint {
                load: f("load")?,
                mean_interarrival_cy: int("mean_interarrival_cy")?,
                jobs: u32::try_from(int("jobs")?).map_err(|e| format!("bad jobs: {e}"))?,
                wait: summary_from(pv.get("wait_cy"), "wait_cy")?,
                run: summary_from(pv.get("run_cy"), "run_cy")?,
                turnaround: summary_from(pv.get("turnaround_cy"), "turnaround_cy")?,
                utilization: f("utilization")?,
                queue_mean: f("queue_mean")?,
                queue_max: int("queue_max")?,
                makespan_cy: int("makespan_cy")?,
                ledger_fnv: parse_hex(fnv_text).map_err(|e| format!("bad ledger_fnv: {e}"))?,
            });
        }
        Ok(SchedDoc {
            machine: (ext(0)?, ext(1)?, ext(2)?),
            seed,
            backfill,
            points,
        })
    }

    /// Renders the document as pretty JSON text.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses document text.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or structural problem.
    pub fn parse(text: &str) -> Result<SchedDoc, String> {
        SchedDoc::from_json(&json::parse(text)?)
    }

    /// The point for a given target load, matched at per-mille
    /// resolution (loads are ladder labels like 0.25, not measured
    /// values; exact f64 comparison would be brittle across edits).
    pub fn point_at(&self, load: f64) -> Option<&SweepPoint> {
        let key = load_key(load);
        self.points.iter().find(|p| load_key(p.load) == key)
    }
}

fn load_key(load: f64) -> i64 {
    (load * 1000.0).round() as i64
}

fn parse_hex(text: &str) -> Result<u64, String> {
    let digits = text.strip_prefix("0x").unwrap_or(text);
    u64::from_str_radix(digits, 16).map_err(|e| format!("{text:?}: {e}"))
}

/// Compares a fresh sweep against the checked-in baseline. Returns one
/// message per problem; empty = pass.
///
/// Gates, in decreasing strictness:
///
/// * machine shape, seed and backfill flag must match exactly — a
///   sweep against a different configuration is not comparable;
/// * every baseline load point must be present (matched by target
///   load); new points never fail;
/// * **ledger fingerprints** compare strictly: scheduling is
///   virtual-time deterministic, so any difference means the scheduler
///   or a kernel computed something else;
/// * **p99 turnaround** may grow by at most `tol` (fractional) — the
///   headline saturation figure, with the tolerance only absorbing
///   deliberate timing-model changes;
/// * **utilization** may drop by at most `tol` (absolute).
pub fn compare(baseline: &SchedDoc, fresh: &SchedDoc, tol: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if baseline.machine != fresh.machine {
        problems.push(format!(
            "machine {:?} -> {:?}: sweeps are not comparable",
            baseline.machine, fresh.machine
        ));
        return problems;
    }
    if baseline.seed != fresh.seed {
        problems.push(format!(
            "seed {:#018x} -> {:#018x}: sweeps are not comparable",
            baseline.seed, fresh.seed
        ));
        return problems;
    }
    if baseline.backfill != fresh.backfill {
        problems.push(format!(
            "backfill {} -> {}: sweeps are not comparable",
            baseline.backfill, fresh.backfill
        ));
        return problems;
    }
    for old in &baseline.points {
        let Some(new) = fresh.point_at(old.load) else {
            problems.push(format!(
                "load {:.2}: present in baseline but missing from new sweep",
                old.load
            ));
            continue;
        };
        if old.ledger_fnv != new.ledger_fnv {
            problems.push(format!(
                "load {:.2}: job ledger {:#018x} -> {:#018x} (strict; the \
                 scheduler's virtual-time behaviour diverged from the baseline)",
                old.load, old.ledger_fnv, new.ledger_fnv
            ));
        }
        let limit = old.turnaround.p99 as f64 * (1.0 + tol);
        if new.turnaround.p99 as f64 > limit {
            problems.push(format!(
                "load {:.2}: p99 turnaround {} -> {} cycles (> allowed {:+.1}%)",
                old.load,
                old.turnaround.p99,
                new.turnaround.p99,
                tol * 100.0
            ));
        }
        if new.utilization < old.utilization - tol {
            problems.push(format!(
                "load {:.2}: utilization {:.3} -> {:.3} (dropped more than {tol})",
                old.load, old.utilization, new.utilization
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(load: f64, p99: u64, fnv: u64) -> SweepPoint {
        let s = HistSummary {
            p50: p99 / 2,
            p95: p99,
            p99,
            mean: p99 as f64 / 2.0,
        };
        SweepPoint {
            load,
            mean_interarrival_cy: 1000,
            jobs: 16,
            wait: s,
            run: s,
            turnaround: s,
            utilization: load.min(0.9),
            queue_mean: load,
            queue_max: 3,
            makespan_cy: 1_000_000,
            ledger_fnv: fnv,
        }
    }

    fn doc() -> SchedDoc {
        SchedDoc {
            machine: (4, 4, 2),
            seed: 0x5EED,
            backfill: false,
            points: vec![point(0.25, 1000, 0xAA), point(0.75, 8000, 0xBB)],
        }
    }

    #[test]
    fn json_round_trips() {
        let d = doc();
        let back = SchedDoc::parse(&d.render()).expect("round trip");
        assert_eq!(d, back);
    }

    #[test]
    fn identical_sweeps_pass() {
        assert!(compare(&doc(), &doc(), 0.1).is_empty());
    }

    #[test]
    fn ledger_divergence_fails_strictly() {
        let mut fresh = doc();
        fresh.points[1].ledger_fnv ^= 1;
        let problems = compare(&doc(), &fresh, 10.0);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("job ledger"), "{problems:?}");
    }

    #[test]
    fn p99_regression_fails_past_tolerance() {
        let mut fresh = doc();
        fresh.points[0].turnaround.p99 = 1200;
        assert!(!compare(&doc(), &fresh, 0.1).is_empty());
        assert!(compare(&doc(), &fresh, 0.25).is_empty());
    }

    #[test]
    fn a_ten_percent_p99_turnaround_regression_fails_at_five_percent() {
        // A load point's worth of jobs whose turnarounds all share one
        // log₂ bucket: a bucket-bound p99 could not see them move.
        let base: Vec<u64> = (0..100u64).map(|i| 600_000 + i * 3_000).collect();
        let slow: Vec<u64> = base.iter().map(|t| t + t / 10).collect();
        let with = |turnaround: &[u64]| {
            let mut d = doc();
            d.points[0].turnaround = HistSummary::of(turnaround);
            d
        };
        let problems = compare(&with(&base), &with(&slow), 0.05);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("p99 turnaround"), "{problems:?}");
        assert!(compare(&with(&base), &with(&slow), 0.15).is_empty());
    }

    #[test]
    fn missing_point_and_mismatched_config_fail() {
        let mut fresh = doc();
        fresh.points.pop();
        assert!(compare(&doc(), &fresh, 0.1)
            .iter()
            .any(|p| p.contains("missing")));
        let mut other = doc();
        other.seed ^= 1;
        assert!(compare(&doc(), &other, 0.1)[0].contains("not comparable"));
    }

    #[test]
    fn extra_points_never_fail() {
        let mut fresh = doc();
        fresh.points.push(point(0.95, 100_000, 0xCC));
        assert!(compare(&doc(), &fresh, 0.1).is_empty());
    }
}
