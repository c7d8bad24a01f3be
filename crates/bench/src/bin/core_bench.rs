//! `core_bench` — the DES-core throughput suite behind `BENCH_CORE.json`.
//!
//! ```text
//! core_bench [--smoke] [--update PATH] [--date D] [--pr N]
//!            [--gate PATH] [--tolerance PCT]
//! ```
//!
//! Runs the `core_hotpath` workloads (event-queue churn, DSM
//! hit storm, batched scan, drain, FragBFF replay) with `std::time`
//! timing and prints Melem/s per case. `CORE_SMOKE=1` (or `--smoke`)
//! selects tiny CI shapes.
//!
//! * `--update PATH` appends this run to the trajectory document at
//!   `PATH` (creating it if missing), under the run's mode key.
//! * `--gate PATH` compares this run against the **latest** trajectory
//!   entry's numbers for the same mode and exits non-zero if any metric
//!   regressed by more than the tolerance (default 20%; `--tolerance 30`
//!   loosens it, `CORE_GATE_TOLERANCE` is the env equivalent). Metrics
//!   missing from the baseline pass trivially, so adding a case never
//!   breaks the gate retroactively.

use std::process::ExitCode;
use std::time::Instant;

use bench_harness::experiments::{
    dsm_batch_scan, dsm_drain, dsm_hit_storm, fleet_run, fragbff_replay, queue_churn, vm_dispatch,
    CoreSizes,
};

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
    let s = *sizes;
    vec![
        measure("queue_churn_heap", reps, move || {
            queue_churn(s.queue_occupancy, s.queue_churn)
        }),
        measure("dsm_hit_storm", reps, move || {
            dsm_hit_storm(s.storm_pages, s.storm_accesses)
        }),
        measure("dsm_batch_scan", reps, move || {
            dsm_batch_scan(s.scan_pages, s.scan_passes)
        }),
        measure("dsm_drain", reps, move || {
            dsm_drain(s.drain_total, s.drain_owned)
        }),
        measure("fragbff_replay", reps, move || fragbff_replay(&s.fragbff)),
        measure("vm_dispatch", reps, move || {
            vm_dispatch(s.dispatch_vcpus, s.dispatch_cycles)
        }),
        measure("fleet_serial", reps, move || {
            fleet_run(s.fleet_shards, s.fleet_tenants, s.fleet_rounds, 1)
        }),
        measure("fleet_parallel", reps, move || {
            fleet_run(
                s.fleet_shards,
                s.fleet_tenants,
                s.fleet_rounds,
                s.fleet_jobs,
            )
        }),
    ]
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

fn gate(path: &str, mode: &str, results: &[Measurement], tolerance: f64) -> Result<(), String> {
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
        let floor = b * (1.0 - tolerance / 100.0);
        if m.melem_s < floor {
            failures.push(format!(
                "{}: {:.3} Melem/s < floor {:.3} (baseline {:.3}, tolerance {tolerance}%)",
                m.name, m.melem_s, floor, b
            ));
        }
    }
    if failures.is_empty() {
        println!(
            "gate: all {} metrics within {tolerance}% of {path}",
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
    let mut smoke = std::env::var_os("CORE_SMOKE").is_some();
    let mut update_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut stamp = TrajectoryStamp {
        date: "unknown".to_string(),
        pr: 0,
    };
    let mut tolerance: f64 = std::env::var("CORE_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
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
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|_| "--tolerance: bad number".to_string())?;
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
        gate(&path, mode, &results, tolerance)?;
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
