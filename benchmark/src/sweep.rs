//! `--scale-sweep`: how each layer's time grows with program size. Not
//! part of the default run or its time cap.

use crate::staged::{Counts, Stage};
use crate::stats::{log_log_slope, median};
use crate::trace::Tracer;
use crate::workloads::clang;
use propeller::{PropellerOptions, WpaOptions};
use propeller_telemetry::json::obj;
use propeller_telemetry::JsonValue;
use std::path::Path;

/// ×0.25, ×0.5, ×1 and ×2 of `cold_build`'s scale.
const SCALES: [f64; 4] = [0.0125, 0.025, 0.05, 0.1];
const REPEATS: usize = 3;

/// The spans each swept layer sums.
const LAYERS: [(&str, &[&str]); 5] = [
    ("codegen", &["codegen.pm", "codegen.po"]),
    ("linker", &["linker.pm_link", "linker.po_link"]),
    ("wpa_intra", &["wpa.run"]),
    ("wpa_interproc", &["wpa.interproc"]),
    ("sim", &["sim.profile"]),
];

pub fn run(out: &Path) -> Result<(), String> {
    let tracer = Tracer::new();
    let counts = Counts::default();
    let stage = Stage {
        tr: &tracer,
        counts: &counts,
    };
    let mut points: Vec<Vec<(f64, f64)>> = vec![Vec::new(); LAYERS.len()];
    // WPA works on the hot set, which at a fixed load does not grow in
    // step with the program: its layers are also fitted against that.
    let mut hot_points: Vec<Vec<(f64, f64)>> = vec![Vec::new(); LAYERS.len()];
    let mut rows = Vec::new();
    for scale in SCALES {
        let bench = clang(scale, 1);
        let blocks = bench.program.stats().num_blocks as f64;
        let opts = PropellerOptions {
            seed: 7,
            jobs: 1,
            ..PropellerOptions::default()
        };
        let mut ops = Vec::new();
        for _ in 0..REPEATS {
            ops.push(tracer.next_op());
            let run = stage.run_all(&bench.program, &bench.entries, &opts)?;
            tracer.span("wpa.interproc", || {
                propeller_wpa::run_wpa(
                    &bench.program,
                    &run.pm,
                    &run.profile,
                    &WpaOptions::interprocedural(),
                )
            });
        }
        let hot_blocks =
            counts.take().get("wpa.hot_blocks").copied().unwrap_or(0.0) / REPEATS as f64;
        let mut members = vec![
            ("scale".to_string(), JsonValue::Num(scale)),
            ("blocks".to_string(), JsonValue::Num(blocks)),
            ("hot_blocks".to_string(), JsonValue::Num(hot_blocks)),
        ];
        for (i, (layer, spans)) in LAYERS.iter().enumerate() {
            let secs: Vec<f64> = ops
                .iter()
                .map(|&op| spans.iter().map(|s| tracer.total(op, s)).sum())
                .collect();
            let secs = median(&secs);
            points[i].push((blocks, secs));
            hot_points[i].push((hot_blocks, secs));
            members.push((format!("{layer}_s"), JsonValue::Num(secs)));
        }
        eprintln!("scale {scale}: {blocks} blocks, {hot_blocks} hot");
        rows.push(JsonValue::Obj(members));
    }
    let mut members: Vec<(String, JsonValue)> = LAYERS
        .iter()
        .zip(&points)
        .map(|((layer, _), pts)| {
            let k = log_log_slope(pts);
            println!("{layer}.scale_exp {k:.3}");
            (format!("{layer}.scale_exp"), JsonValue::Num(k))
        })
        .collect();
    for ((layer, _), pts) in LAYERS
        .iter()
        .zip(&hot_points)
        .filter(|((l, _), _)| l.starts_with("wpa"))
    {
        let k = log_log_slope(pts);
        println!("{layer}.hot_block_exp {k:.3}");
        members.push((format!("{layer}.hot_block_exp"), JsonValue::Num(k)));
    }
    members.push(("points".into(), JsonValue::Arr(rows)));
    let path = out.join("scale_sweep.json");
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::write(&path, obj(members).to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}
