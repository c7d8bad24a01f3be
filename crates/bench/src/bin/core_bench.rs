//! `core_bench` — the layer-bench suite behind `BENCH_CORE.json`.
//!
//! ```text
//! core_bench [--smoke] [--update PATH] [--date D] [--pr N] [--gate PATH]
//! ```
//!
//! Runs every case of `CORE_CASES` (event-queue churn; DSM hit storm,
//! batched scan, drain, write ping-pong, read-share fan-out and first
//! touch; the `PsCpu` add→complete cycle; `Fabric::send`; FragBFF replay;
//! the VM dispatch cycle; serial and parallel fleet runs) with
//! `std::time` timing and prints Melem/s per case. `--smoke` selects tiny
//! CI shapes.
//!
//! * `--update PATH` appends this run to the trajectory document at
//!   `PATH` (creating it if missing), under the run's mode key.
//! * `--gate PATH` compares this run against the **latest** trajectory
//!   entry's numbers for the same mode and exits non-zero if any metric
//!   regressed by more than 20%. Metrics missing from the baseline pass
//!   trivially, so adding a case never breaks the gate retroactively.

use std::process::ExitCode;
use std::time::Instant;

use bench_harness::experiments::{CoreSizes, CORE_CASES};

/// How far (percent) a case may fall below its baseline before the gate
/// fails.
const TOLERANCE_PCT: f64 = 20.0;

/// One measured case: name plus millions of elements per second.
struct Measurement {
    name: &'static str,
    melem_s: f64,
}

/// Provenance recorded with `--update` (`--date` / `--pr` flags).
struct TrajectoryStamp {
    date: String,
    pr: u64,
}

/// Times `f` `reps` times and keeps the best run. Best-of-N is the
/// standard defence against scheduler noise for short workloads: the
/// minimum time is the closest observable to the true cost, and it is
/// what makes a fixed-percentage gate usable on shared CI runners.
fn measure(name: &'static str, reps: u32, f: impl Fn() -> u64) -> Measurement {
    let mut melem_s = 0.0f64;
    for _ in 0..reps {
        let started = Instant::now();
        let elems = f();
        let secs = started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            elems as f64 / secs / 1e6
        } else {
            f64::INFINITY
        };
        melem_s = melem_s.max(rate);
    }
    Measurement { name, melem_s }
}

fn run_suite(sizes: &CoreSizes, reps: u32) -> Vec<Measurement> {
    CORE_CASES
        .iter()
        .map(|&(name, case)| measure(name, reps, || case(sizes)))
        .collect()
}

/// Extracts `"key": <number>` pairs from the given JSON object body.
/// Hand-rolled on purpose: the workspace has no JSON dependency, and the
/// trajectory document is flat within each mode object.
fn parse_metrics(body: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(q0) = rest.find('"') {
        let after = &rest[q0 + 1..];
        let Some(q1) = after.find('"') else { break };
        let key = &after[..q1];
        let tail = &after[q1 + 1..];
        let Some(colon) = tail.find(':') else { break };
        let val = tail[colon + 1..].trim_start();
        let end = val
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(val.len());
        if let Ok(num) = val[..end].parse::<f64>() {
            out.push((key.to_string(), num));
        }
        rest = &tail[colon + 1..];
    }
    out
}

/// Finds the metric object for `mode` in the **last** trajectory entry of
/// the document (entries are appended, so the last `"<mode>": {` wins).
fn baseline_metrics(doc: &str, mode: &str) -> Vec<(String, f64)> {
    let needle = format!("\"{mode}\": {{");
    let Some(at) = doc.rfind(&needle) else {
        return Vec::new();
    };
    let body = &doc[at + needle.len()..];
    let end = body.find('}').unwrap_or(body.len());
    parse_metrics(&body[..end])
}

fn metrics_json(results: &[Measurement]) -> String {
    let fields: Vec<String> = results
        .iter()
        .map(|m| format!("      \"{}\": {:.3}", m.name, m.melem_s))
        .collect();
    fields.join(",\n")
}

fn update_trajectory(
    path: &str,
    mode: &str,
    stamp: &TrajectoryStamp,
    results: &[Measurement],
) -> Result<(), String> {
    let entry = format!(
        "    {{\n      \"date\": \"{}\", \"pr\": {},\n      \"{mode}\": {{\n{}\n      }}\n    }}",
        stamp.date,
        stamp.pr,
        metrics_json(results)
            .lines()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let doc = match std::fs::read_to_string(path) {
        Ok(old) => {
            // Append before the closing "  ]\n}" of the trajectory array.
            let Some(cut) = old.rfind("\n  ]") else {
                return Err(format!("{path}: unrecognized trajectory layout"));
            };
            format!("{},\n{}{}", &old[..cut], entry, &old[cut..])
        }
        Err(_) => format!("{{\n  \"trajectory\": [\n{entry}\n  ]\n}}\n"),
    };
    std::fs::write(path, doc).map_err(|e| format!("write {path}: {e}"))?;
    println!("updated {path}");
    Ok(())
}

fn gate(path: &str, mode: &str, results: &[Measurement]) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let base = baseline_metrics(&doc, mode);
    if base.is_empty() {
        return Err(format!("{path}: no committed {mode} baseline to gate on"));
    }
    let mut failures = Vec::new();
    for m in results {
        let Some((_, b)) = base.iter().find(|(k, _)| k == m.name) else {
            continue; // New case: no baseline yet, passes trivially.
        };
        let floor = b * (1.0 - TOLERANCE_PCT / 100.0);
        if m.melem_s < floor {
            failures.push(format!(
                "{}: {:.3} Melem/s < floor {:.3} (baseline {:.3}, tolerance {TOLERANCE_PCT}%)",
                m.name, m.melem_s, floor, b
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "gate: all {} metrics within {TOLERANCE_PCT}% of {path}",
            results.len()
        );
        Ok(())
    } else {
        Err(format!(
            "regression gate failed:\n  {}",
            failures.join("\n  ")
        ))
    }
}

fn run() -> Result<(), String> {
    let mut smoke = false;
    let mut update_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut stamp = TrajectoryStamp {
        date: "unknown".to_string(),
        pr: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--update" => {
                update_path = Some(it.next().ok_or("--update needs a path")?);
            }
            "--gate" => {
                gate_path = Some(it.next().ok_or("--gate needs a path")?);
            }
            "--date" => {
                stamp.date = it.next().ok_or("--date needs a value")?;
            }
            "--pr" => {
                stamp.pr = it
                    .next()
                    .ok_or("--pr needs a value")?
                    .parse()
                    .map_err(|_| "--pr: bad number".to_string())?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let sizes = if smoke {
        CoreSizes::smoke()
    } else {
        CoreSizes::full()
    };
    let mode = if smoke { "smoke" } else { "full" };
    // Short smoke cases need more repetitions to shake off scheduler
    // noise; full cases run for whole seconds and settle in three.
    let reps = if smoke { 5 } else { 3 };
    println!("core_bench ({mode} mode, best of {reps})");
    let results = run_suite(&sizes, reps);
    for m in &results {
        println!("  {:<22} {:>10.3} Melem/s", m.name, m.melem_s);
    }
    if let Some(path) = update_path {
        update_trajectory(&path, mode, &stamp, &results)?;
    }
    if let Some(path) = gate_path {
        gate(&path, mode, &results)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
