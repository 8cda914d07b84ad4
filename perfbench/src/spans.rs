//! Host-time spans recorded around calls into the simulator's layers.
//!
//! Spans live in memory while the benchmark runs (name, start, end,
//! parent, point id) and are written once at exit in the Chrome
//! trace-event format `Machine::perf_chrome_trace` emits. A layer's self
//! time is its spans' durations minus the time their direct children
//! cover. A disabled recorder records nothing, so the untraced run pays
//! one branch per boundary.

use std::collections::BTreeMap;
use std::time::Instant;
use t3d_perf::json::Value;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Rec {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    point: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
    point: u64,
}

/// Point id carried by spans outside any workload point (probes).
pub const NO_POINT: u64 = u64::MAX;

impl Spans {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            point: NO_POINT,
        }
    }

    /// Tags spans opened from now on with `point`.
    pub fn set_point(&mut self, point: u64) {
        self.point = point;
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let start_us = self.now_us();
        self.recs.push(Rec {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            point: self.point,
        });
        self.open.push(self.recs.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_us();
        let i = self.open.pop().expect("close without a matching open");
        self.recs[i].end_us = end;
    }

    /// Open-span depth (to restore after a caught panic).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes spans until only `depth` remain open.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// its direct children's, summed by [`layer_of`] its name.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0f64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_us[p] += r.end_us - r.start_us;
            }
        }
        let mut out = BTreeMap::new();
        for (r, c) in self.recs.iter().zip(&child_us) {
            *out.entry(layer_of(&r.name)).or_insert(0.0) += (r.end_us - r.start_us - c) / 1e3;
        }
        out
    }

    /// The spans as a Chrome trace-event document (timestamps in host
    /// microseconds since the recorder was created), each event carrying
    /// its point id and parent index in `args`.
    pub fn chrome_trace(&self) -> Value {
        let spans: Vec<t3d_perf::Span> = self
            .recs
            .iter()
            .map(|r| t3d_perf::Span {
                name: r.name.clone(),
                cat: layer_of(&r.name).to_string(),
                tid: 0,
                start: r.start_us as u64,
                dur: (r.end_us - r.start_us) as u64,
            })
            .collect();
        let mut doc = t3d_perf::chrome_trace(&spans);
        if let Value::Obj(top) = &mut doc {
            if let Some(Value::Arr(events)) = top.get_mut("traceEvents") {
                for (i, (ev, r)) in events.iter_mut().zip(&self.recs).enumerate() {
                    if let Value::Obj(fields) = ev {
                        let point = if r.point == NO_POINT {
                            Value::Null
                        } else {
                            Value::Int(r.point as i64)
                        };
                        let parent = r.parent.map_or(Value::Null, |p| Value::Int(p as i64));
                        fields.insert(
                            "args".to_string(),
                            Value::obj(vec![
                                ("id", Value::Int(i as i64)),
                                ("point", point),
                                ("parent", parent),
                            ]),
                        );
                    }
                }
            }
        }
        doc
    }
}

/// The layers self time is reported for, in report order.
pub const LAYERS: [&str; 6] = ["bench", "em3d", "sched", "microbench", "machine", "splitc"];

/// The layer a span belongs to: its name up to the first `.`, with the
/// benchmark's own spans (`point`, `round`, `probes`, …) under `bench`.
pub fn layer_of(name: &str) -> &'static str {
    let head = name.split('.').next().unwrap_or(name);
    LAYERS
        .iter()
        .copied()
        .find(|l| *l == head)
        .unwrap_or("bench")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new(true);
        s.recs = vec![
            Rec {
                name: "point".into(),
                start_us: 0.0,
                end_us: 10_000.0,
                parent: None,
                point: 0,
            },
            Rec {
                name: "em3d.run".into(),
                start_us: 1_000.0,
                end_us: 9_000.0,
                parent: Some(0),
                point: 0,
            },
            Rec {
                name: "machine.new".into(),
                start_us: 2_000.0,
                end_us: 5_000.0,
                parent: Some(1),
                point: 0,
            },
        ];
        let by = s.self_ms_by_layer();
        assert_eq!(by["bench"], 2.0);
        assert_eq!(by["em3d"], 5.0);
        assert_eq!(by["machine"], 3.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.time("em3d.run", || ());
        s.open("point");
        s.close();
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn chrome_trace_carries_parent_and_point() {
        let mut s = Spans::new(true);
        s.set_point(3);
        s.open("point");
        s.time("sched.kernel", || ());
        s.close();
        let doc = s.chrome_trace();
        let text = doc.render();
        let back = t3d_perf::json::parse(&text).expect("trace parses");
        let ev = back.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("cat").and_then(Value::as_str), Some("sched"));
        let args = ev[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Value::as_i64), Some(0));
        assert_eq!(args.get("point").and_then(Value::as_i64), Some(3));
    }

    #[test]
    fn layer_names() {
        assert_eq!(layer_of("machine.phase_empty"), "machine");
        assert_eq!(layer_of("point"), "bench");
        assert_eq!(layer_of("other.thing"), "bench");
    }
}
