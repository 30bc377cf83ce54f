//! The modes that run workloads as child processes: the full
//! benchmark, `--check`, and the A/A comparison.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{host, stats, Args};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Output};

/// Window of the full benchmark's untraced runs, seconds; `paper_sim`
/// iterates fast enough that a third of it gives as many samples.
const FULL_SECONDS: f64 = 15.0;
const FULL_SECONDS_SIM: f64 = 5.0;
/// Window of the full benchmark's traced runs, seconds.
const TRACED_SECONDS: f64 = 5.0;

/// Lowest `models.span_cover` the whole-model workloads may show.
const MIN_SPAN_COVER: f64 = 0.95;
const WHOLE_MODEL: [&str; 2] = ["alexnet_infer_unroll", "alexnet_infer_nchwc"];

/// A/A differences above this share demote a metric to a diagnostic
/// instead of earning it a wider bound.
const DEMOTE_ABOVE: f64 = 0.10;

/// The result object a child printed as its last line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("result line is not JSON: {e:?}"))?;
    let obj = v.as_object().ok_or("result is not an object")?;
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result has keys {keys:?}"));
    }
    let mut metrics = BTreeMap::new();
    for (name, m) in v["metrics"].as_object().ok_or("metrics is not an object")? {
        let value = m["value"]
            .as_f64()
            .ok_or(format!("{name}: value is not a number"))?;
        let unit = m["unit"]
            .as_str()
            .ok_or(format!("{name}: unit is not a string"))?;
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    Ok(ChildResult {
        correct: v["correct"] == true,
        attempted: v["attempted"]
            .as_u64()
            .ok_or("attempted is not a whole number")?,
        failed: v["failed"].as_u64().ok_or("failed is not a whole number")?,
        metrics,
    })
}

/// Run this executable with `args` as a child process and wait for it.
pub fn run_self(args: &[&str]) -> Result<Output, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot start a child with {args:?}: {e}"))
}

/// Run one workload in a child process of this executable and wait for
/// it. The child's report is echoed when `echo`; its result is checked
/// against `table` and for correctness.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    extra: &[String],
    echo: bool,
) -> Result<ChildResult, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace_arg = if trace { "1" } else { "0" };
    let mut args = vec!["--workload", workload, "--seed", &seed];
    args.extend(["--seconds", &seconds, "--trace", trace_arg]);
    args.extend(extra.iter().map(String::as_str));
    let out = run_self(&args)?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{report}");
    }
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            stderr.trim_end()
        ));
    }
    let result = parse_result(last).map_err(|e| format!("{workload}: {e}"))?;
    let table: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = result.metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = table.iter().map(|d| d.name).collect();
    want.sort_unstable();
    if names != want {
        return Err(format!(
            "{workload}: printed metrics {names:?}, tables say {want:?}"
        ));
    }
    for d in table {
        if result.metrics[d.name].1 != d.unit {
            return Err(format!(
                "{workload}: {} printed in {}",
                d.name, result.metrics[d.name].1
            ));
        }
    }
    if !result.correct || result.failed > 0 {
        return Err(format!(
            "{workload}: {} of {} items failed",
            result.failed, result.attempted
        ));
    }
    Ok(result)
}

fn host_peaks_arg() -> Vec<String> {
    let p = host::probe();
    println!(
        "host: peak_fma {:.1} GFLOP/s  stream {:.1} GB/s",
        p.fma_gflops, p.stream_gbps
    );
    vec![
        "--host-peaks".into(),
        format!("{},{}", p.fma_gflops, p.stream_gbps),
    ]
}

/// Every workload untraced (and, with `--traced`, traced), then one
/// table of everything measured.
pub fn all(a: &Args) -> Result<(), String> {
    let mut rows: Vec<(&str, ChildResult, Option<ChildResult>)> = Vec::new();
    let peaks = if a.traced {
        host_peaks_arg()
    } else {
        Vec::new()
    };
    for w in WORKLOADS {
        let default = if w == "paper_sim" {
            FULL_SECONDS_SIM
        } else {
            FULL_SECONDS
        };
        let untraced = run_child(w, a.seed, a.seconds.unwrap_or(default), false, &[], true)?;
        let traced = if a.traced {
            Some(run_child(w, a.seed, TRACED_SECONDS, true, &peaks, true)?)
        } else {
            None
        };
        rows.push((w, untraced, traced));
    }

    println!("\n== end to end (seed {}) ==", a.seed);
    print!("{:<24}", "metric");
    for (w, ..) in &rows {
        print!(" {w:>22}");
    }
    println!();
    for d in &END_TO_END {
        print!("{:<24}", format!("{} [{}]", d.name, d.unit));
        for (_, r, _) in &rows {
            print!(" {:>22.4}", r.metrics[d.name].0);
        }
        println!();
    }
    print!("{:<24}", "fail_share [ratio]");
    for (_, r, _) in &rows {
        print!(" {:>22}", r.failed as f64 / r.attempted as f64);
    }
    println!();
    if a.traced {
        println!("\n== per layer (0 = the workload does not touch the layer) ==");
        for d in &PER_LAYER {
            print!("{:<36}", format!("{} [{}]", d.name, d.unit));
            for (_, _, t) in &rows {
                print!(
                    " {:>22.4}",
                    t.as_ref().expect("traced run").metrics[d.name].0
                );
            }
            println!();
        }
    }
    Ok(())
}

fn table_matches(v: &Value, key: &str, table: &[MetricDef], bounded: bool) -> Result<(), String> {
    let listed = v[key].as_array().ok_or(format!("{key} is not a list"))?;
    if listed.len() != table.len() {
        return Err(format!(
            "{key} lists {} metrics, the binary prints {}",
            listed.len(),
            table.len()
        ));
    }
    for (entry, d) in listed.iter().zip(table) {
        if entry["name"] != d.name || entry["unit"] != d.unit || entry["better"] != d.better {
            return Err(format!(
                "{key}: entry for {} disagrees with the binary",
                d.name
            ));
        }
        let keys = entry.as_object().map_or(0, |o| o.len());
        if bounded {
            let bound = entry["bound"]
                .as_f64()
                .ok_or(format!("{}: no bound", d.name))?;
            if !(bound > 0.0 && bound <= 0.25) || keys != 4 {
                return Err(format!("{}: bound {bound} or extra keys", d.name));
            }
        } else if keys != 3 {
            return Err(format!(
                "{}: a per-layer metric has exactly name, unit, better",
                d.name
            ));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` as parsed, after checking it against the contract's
/// shape and against what this binary prints.
fn load_benchmark_json() -> Result<Value, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let keys: Vec<&str> = v
        .as_object()
        .ok_or("BENCHMARK.json is not an object")?
        .keys()
        .map(String::as_str)
        .collect();
    if keys
        != [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ]
    {
        return Err(format!("BENCHMARK.json has keys {keys:?}"));
    }
    let secs = v["run_seconds"]
        .as_u64()
        .ok_or("run_seconds is not a whole number")?;
    if !(1..=60).contains(&secs) {
        return Err(format!("run_seconds {secs} is outside 1..=60"));
    }
    let listed: Vec<&str> = v["workloads"]
        .as_array()
        .ok_or("workloads is not a list")?
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    if listed != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {listed:?}, the binary runs {WORKLOADS:?}"
        ));
    }
    for w in v["workloads"].as_array().into_iter().flatten() {
        let why = w["why"].as_str().unwrap_or("");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {:?}: why must be one line of at most 200 characters",
                w["name"]
            ));
        }
    }
    table_matches(&v, "end_to_end", &END_TO_END, true)?;
    table_matches(&v, "per_layer", &PER_LAYER, false)?;
    Ok(v)
}

/// `--check`: short windows, every correctness check, the span-cover
/// assertion and the schema check.
pub fn check() -> Result<(), String> {
    load_benchmark_json()?;
    println!("BENCHMARK.json agrees with the binary's metric and workload tables");
    let peaks = host_peaks_arg();
    // A traced run drives the product path first (reference window) and
    // the walker second, so one run makes both sets of checks. Nothing
    // here is a timing claim, so the children run side by side.
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w, s.spawn(|| run_child(w, 1, 1.0, true, &peaks, false))))
            .collect();
        handles
            .into_iter()
            .map(|(w, h)| (*w, h.join().expect("a check thread panicked")))
            .collect()
    });
    for (w, r) in results {
        let mut r = r?;
        let cover_of = |r: &ChildResult| r.metrics["models.span_cover"].0;
        if WHOLE_MODEL.contains(&w) && cover_of(&r) < MIN_SPAN_COVER {
            // Six processes on two cores: a descheduled gap between two
            // spans is the host's, not the walker's. Judge it alone.
            r = run_child(w, 1, 1.0, true, &peaks, false)?;
        }
        let cover = cover_of(&r);
        if WHOLE_MODEL.contains(&w) && cover < MIN_SPAN_COVER {
            return Err(format!(
                "{w}: layer spans cover {cover:.3} of the iteration, below {MIN_SPAN_COVER}"
            ));
        }
        println!("ok {w}: {} items, span_cover {cover:.3}", r.attempted);
    }
    let r = run_child("paper_sim", 1, 1.0, false, &[], false)?;
    println!(
        "ok paper_sim untraced: {} items, end-to-end metrics as listed",
        r.attempted
    );
    Ok(())
}

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
fn worse_by(d: &MetricDef, a: f64, b: f64) -> f64 {
    if d.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// `--aa`: the full benchmark twice on the same code, `--seeds` seeds
/// per set, compared with the bounds `BENCHMARK.json` fixes.
pub fn aa(a: &Args) -> Result<(), String> {
    let bench = load_benchmark_json()?;
    let seconds = a
        .seconds
        .unwrap_or(bench["run_seconds"].as_u64().expect("checked") as f64);
    let bounds: BTreeMap<&str, f64> = END_TO_END
        .iter()
        .zip(bench["end_to_end"].as_array().expect("checked"))
        .map(|(d, e)| (d.name, e["bound"].as_f64().expect("checked")))
        .collect();
    println!(
        "A/A: 2 sets x {} seeds x {} workloads, {seconds} s windows",
        a.seeds,
        WORKLOADS.len()
    );

    // values[set][workload][metric] = one value per seed
    let mut values: Vec<BTreeMap<&str, BTreeMap<&str, Vec<f64>>>> =
        vec![BTreeMap::new(), BTreeMap::new()];
    for (set, per_set) in values.iter_mut().enumerate() {
        for w in WORKLOADS {
            for seed in 0..a.seeds as u64 {
                let r = run_child(w, a.seed + seed, seconds, false, &[], false)?;
                for d in &END_TO_END {
                    let per_metric = per_set.entry(w).or_default();
                    per_metric
                        .entry(d.name)
                        .or_default()
                        .push(r.metrics[d.name].0);
                }
            }
            println!("set {} {w}: {} runs done", set + 1, a.seeds);
        }
    }

    println!(
        "\n{:<22} {:<12} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
    );
    let mut breaches = Vec::new();
    let mut demoted = Vec::new();
    for w in WORKLOADS {
        for d in &END_TO_END {
            let (va, vb) = (&values[0][w][d.name], &values[1][w][d.name]);
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let diff = worse_by(d, ma, mb);
            let bound = bounds[d.name];
            // A quartile spread of fewer than four values says nothing.
            let spread = |v: &[f64]| (v.len() >= 4).then(|| stats::iqr_share(v));
            let (sa, sb) = (spread(va), spread(vb));
            let wide = d.name != "setup_s" && [sa, sb].iter().flatten().any(|s| *s > bound);
            let verdict = if diff > bound {
                breaches.push(format!(
                    "{w} {}: second median worse by {:.1} %",
                    d.name,
                    diff * 100.0
                ));
                "BREACH"
            } else if wide {
                breaches.push(format!("{w} {}: spread above its bound", d.name));
                "BREACH (spread)"
            } else if diff.abs() > DEMOTE_ABOVE {
                demoted.push(format!("{w} {}", d.name));
                "demote"
            } else {
                "ok"
            };
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{w:<22} {:<12} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>9} {:>9} {:>6.0}%  {verdict}",
                d.name,
                diff * 100.0,
                pct(sa),
                pct(sb),
                bound * 100.0
            );
        }
    }
    if !demoted.is_empty() {
        println!(
            "\nfailed to repeat within {:.0} %, demote to a diagnostic: {demoted:?}",
            DEMOTE_ABOVE * 100.0
        );
    }
    if breaches.is_empty() {
        println!("\nA/A: every end-to-end metric repeats within its bound");
        Ok(())
    } else {
        Err(format!("A/A breaches: {breaches:#?}"))
    }
}
