//! `--compare A B`: two result sets of the same commit must agree — the
//! timings within the benchmark's own bounds, everything the program
//! computes exactly.

use crate::metrics::{END_TO_END, PER_LAYER};
use propeller_telemetry::JsonValue;
use std::path::Path;

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn at<'a>(v: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Metrics the program computes rather than measures: any difference
/// is a determinism bug, not noise.
fn exact(name: &str, unit: &str) -> bool {
    matches!(name, "speedup_pct" | "text_kib" | "fail_share")
        || matches!(unit, "count" | "KiB" | "ratio")
}

/// Prints one line per difference; `Ok(true)` when the sets agree.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = at(&a, &["workloads"])
        .and_then(JsonValue::as_obj)
        .ok_or("no workloads in the first set")?;
    let mut ok = true;
    for (w, _) in workloads {
        for pass in ["end_to_end", "per_layer"] {
            for key in ["digests", "failed", "correct"] {
                let (x, y) = (
                    at(&a, &["workloads", w, pass, key]),
                    at(&b, &["workloads", w, pass, key]),
                );
                if x != y || x.is_none() {
                    println!("DIFF {w}/{pass}/{key}: {x:?} vs {y:?}");
                    ok = false;
                }
            }
        }
        let value = |set: &JsonValue, pass: &str, name: &str| {
            at(set, &["workloads", w, pass, "metrics", name]).and_then(JsonValue::as_f64)
        };
        let fail_share = [("fail_share", "share", 0.0)];
        for (name, unit, bound) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.bound))
            .chain(fail_share)
        {
            let (Some(x), Some(y)) = (value(&a, "end_to_end", name), value(&b, "end_to_end", name))
            else {
                println!("DIFF {w}/{name}: missing");
                ok = false;
                continue;
            };
            if exact(name, unit) {
                if x != y {
                    println!("DIFF {w}/{name}: {x} vs {y} must be equal");
                    ok = false;
                }
            } else {
                let share = (x - y).abs() / x.min(y);
                let verdict = if share > bound { "DIFF" } else { "ok  " };
                println!(
                    "{verdict} {w}/{name}: {x:.6} vs {y:.6} {unit} ({:.2}% apart, bound {:.2}%)",
                    share * 100.0,
                    bound * 100.0
                );
                ok &= share <= bound;
            }
        }
        // The pool's busy share is the one measured ratio.
        for m in PER_LAYER
            .iter()
            .filter(|m| exact(m.name, m.unit) && m.name != "buildsys.pool_busy_share")
        {
            let (x, y) = (
                value(&a, "per_layer", m.name),
                value(&b, "per_layer", m.name),
            );
            if x != y {
                println!("DIFF {w}/{}: {x:?} vs {y:?} must be equal", m.name);
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "repeat check: the two sets agree"
        } else {
            "repeat check: FAILED"
        }
    );
    Ok(ok)
}
