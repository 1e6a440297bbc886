//! `compare A.json B.json`: apply each metric's bound and direction to
//! two result files (A the parent, B the change), one row per
//! (metric, workload).

use crate::json::{self, Value};
use crate::metrics::{self, Better, Gate, MetricDef};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or, for an exact metric, identical).
    Ok,
    /// Worse by more than the bound (or, exact, different at all).
    Worse,
    /// The passes inside either file spread wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
    /// Not judged: a tracked metric, or an exact one across two seeds.
    Tracked,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Tracked => "tracked",
        }
    }
}

/// One row of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// `(min, q1, median, q3, max)` of the passes, where recorded.
    pub passes: Option<[f64; 5]>,
}

impl Reading {
    fn spread(&self) -> f64 {
        self.passes
            .map_or(0.0, |[_, q1, median, q3, _]| (q3 - q1) / median)
    }
}

/// Judge `b` against `a`. `same_inputs` says whether both files were
/// run on one seed and scale, which exact metrics need.
pub fn judge(def: &MetricDef, a: &Reading, b: &Reading, same_inputs: bool) -> Verdict {
    match def.gate {
        Gate::Tracked => Verdict::Tracked,
        Gate::Exact if !same_inputs => Verdict::Tracked,
        Gate::Exact if a.value == b.value => Verdict::Ok,
        Gate::Exact => Verdict::Worse,
        Gate::Bound(bound) => {
            if a.spread().max(b.spread()) > bound {
                // Still resolved if every pass of B beats every pass of A.
                let clear_win = match (def.better, a.passes, b.passes) {
                    (Better::Lower, Some(pa), Some(pb)) => pb[4] < pa[0],
                    (Better::Higher, Some(pa), Some(pb)) => pb[0] > pa[4],
                    _ => false,
                };
                return if clear_win {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                };
            }
            if worsening(def.better, a.value, b.value) > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
    }
}

/// By what share of `a` the reading `b` is worse (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

struct ResultFile {
    /// What fixes the inputs: seed, scale, and which run it was.
    inputs: String,
    rows: Vec<(String, String, Reading)>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("perfbench/result-v1") {
        return Err(format!("{path}: not a perfbench/result-v1 file"));
    }
    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let text_of = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{path}: a row has no {key:?}"))
    };
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no rows"))?
        .iter()
        .map(|r| {
            let passes = ["min", "q1", "median", "q3", "max"].map(|k| number(r, k));
            Ok((
                text_of(r, "workload")?,
                text_of(r, "metric")?,
                Reading {
                    value: number(r, "value").unwrap_or(f64::NAN),
                    passes: passes
                        .iter()
                        .all(Option::is_some)
                        .then(|| passes.map(|p| p.unwrap_or(f64::NAN))),
                },
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(ResultFile {
        inputs: format!(
            "{:?} {:?} {:?}",
            doc.get("mode"),
            doc.get("seed"),
            doc.get("smoke")
        ),
        rows,
    })
}

/// Compare two result files; the report, and whether any row is worse.
///
/// # Errors
///
/// Returns a description when a file is missing or not a result file.
pub fn run(path_a: &str, path_b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let same_inputs = a.inputs == b.inputs;
    let mut out = format!(
        "{:<22} {:<34} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "change"
    );
    let mut any_worse = false;
    for (workload, metric, reading_a) in &a.rows {
        let Some(def) = metrics::find(metric) else {
            continue;
        };
        let Some((_, _, reading_b)) = b.rows.iter().find(|(w, m, _)| w == workload && m == metric)
        else {
            continue;
        };
        let verdict = judge(def, reading_a, reading_b, same_inputs);
        any_worse |= verdict == Verdict::Worse;
        let _ = writeln!(
            out,
            "{workload:<22} {metric:<34} {:>16.6} {:>16.6} {:>+8.2}%  {}",
            reading_a.value,
            reading_b.value,
            -worsening(def.better, reading_a.value, reading_b.value) * 100.0,
            verdict.label(),
        );
    }
    if !same_inputs {
        out.push_str(
            "note: the files differ in seed, scale or mode; exact metrics are not judged\n",
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(value: f64, passes: [f64; 5]) -> Reading {
        Reading {
            value,
            passes: Some(passes),
        }
    }

    fn tight(value: f64) -> Reading {
        reading(
            value,
            [value, value, value * 1.01, value * 1.02, value * 1.05],
        )
    }

    const LOWER: MetricDef = MetricDef {
        name: "t_ms",
        unit: "ms",
        better: Better::Lower,
        gate: Gate::Bound(0.10),
    };
    const HIGHER: MetricDef = MetricDef {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        gate: Gate::Bound(0.10),
    };

    #[test]
    fn bound_and_direction_decide_ok_or_worse() {
        assert_eq!(
            judge(&LOWER, &tight(100.0), &tight(109.0), true),
            Verdict::Ok
        );
        assert_eq!(
            judge(&LOWER, &tight(100.0), &tight(111.0), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(&LOWER, &tight(100.0), &tight(50.0), true),
            Verdict::Ok
        );
        assert_eq!(
            judge(&HIGHER, &tight(100.0), &tight(91.0), true),
            Verdict::Ok
        );
        assert_eq!(
            judge(&HIGHER, &tight(100.0), &tight(89.0), true),
            Verdict::Worse
        );
        assert_eq!(
            judge(&HIGHER, &tight(100.0), &tight(300.0), true),
            Verdict::Ok
        );
        assert!((worsening(Better::Higher, 100.0, 89.0) - 0.11).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 89.0) + 0.11).abs() < 1e-12);
    }

    #[test]
    fn wide_pass_spread_is_unresolved_unless_every_pass_wins() {
        // q3 − q1 is 30% of the median: wider than the 10% bound.
        let noisy = reading(100.0, [100.0, 105.0, 120.0, 141.0, 160.0]);
        assert_eq!(
            judge(&LOWER, &noisy, &tight(150.0), true),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LOWER, &tight(100.0), &noisy, true),
            Verdict::Unresolved
        );
        // Every pass of B (max 94.5) is below every pass of A (min 100).
        assert_eq!(judge(&LOWER, &noisy, &tight(90.0), true), Verdict::Ok);
        let fast = reading(200.0, [170.0, 180.0, 190.0, 195.0, 200.0]);
        let noisy_rate = reading(160.0, [100.0, 105.0, 120.0, 141.0, 160.0]);
        assert_eq!(judge(&HIGHER, &noisy_rate, &fast, true), Verdict::Ok);
        assert_eq!(
            judge(&HIGHER, &fast, &noisy_rate, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_allow_no_difference_and_need_the_same_inputs() {
        let exact = MetricDef {
            gate: Gate::Exact,
            ..LOWER
        };
        let at = |value| Reading {
            value,
            passes: None,
        };
        assert_eq!(judge(&exact, &at(16.4), &at(16.4), true), Verdict::Ok);
        assert_eq!(
            judge(&exact, &at(16.4), &at(16.400001), true),
            Verdict::Worse
        );
        assert_eq!(judge(&exact, &at(16.4), &at(12.0), true), Verdict::Worse);
        assert_eq!(judge(&exact, &at(16.4), &at(12.0), false), Verdict::Tracked);
        let tracked = MetricDef {
            gate: Gate::Tracked,
            ..LOWER
        };
        assert_eq!(judge(&tracked, &at(1.0), &at(9.0), true), Verdict::Tracked);
    }

    #[test]
    fn files_are_compared_row_by_row() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let file = |name: &str, p50: f64| {
            let path = dir.join(name);
            let text = format!(
                "{{\"schema\":\"perfbench/result-v1\",\"mode\":\"run\",\"seed\":1,\"smoke\":false,\"rows\":[\n\
                 {{\"workload\":\"server_warm\",\"metric\":\"req_p50_ms\",\"unit\":\"ms\",\"value\":{p50},\
                 \"passes\":5,\"min\":{p50},\"q1\":{p50},\"median\":{p50},\"q3\":{p50},\"max\":{p50}}},\n\
                 {{\"workload\":\"server_warm\",\"metric\":\"not_a_metric\",\"unit\":\"x\",\"value\":1}}\n]}}"
            );
            std::fs::write(&path, text).expect("write");
            path.to_str().expect("utf-8 path").to_owned()
        };
        let (a, same, slow) = (
            file("a.json", 0.70),
            file("b.json", 0.72),
            file("c.json", 0.90),
        );
        let (report, worse) = run(&a, &same).expect("both load");
        assert!(!worse && report.contains("ok"), "{report}");
        let (report, worse) = run(&a, &slow).expect("both load");
        assert!(worse && report.contains("worse"), "{report}");
        assert!(run(&a, "/nonexistent.json").is_err());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
