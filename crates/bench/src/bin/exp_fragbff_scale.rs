//! `exp_fragbff_scale` — the trace-driven data-center cluster study
//! (ROADMAP item 1); see `DESIGN.md` §11.
//!
//! ```text
//! exp_fragbff_scale [--nodes N] [--arrivals N] [--seed N]
//!                   [--sample-every N] [--json PATH]
//! ```
//!
//! Runs the full scale by default, or the CI smoke scale when
//! `FRAGBFF_SMOKE=1`; the flags override either. `--json` additionally
//! writes the `BENCH_SCHED.json` trajectory document.

use std::process::ExitCode;

use bench_harness::experiments::{run_all, scale_json, scale_table, ScaleConfig};

fn run() -> Result<(), String> {
    let mut cfg = ScaleConfig::from_env();
    let mut json_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument: {a}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        let num = || {
            v.parse::<u64>()
                .map_err(|_| format!("--{key}: bad number {v}"))
        };
        match key {
            "nodes" => cfg.nodes = num()? as usize,
            "arrivals" => cfg.arrivals = num()? as usize,
            "seed" => cfg.seed = num()?,
            "sample-every" => cfg.sample_every = num()?.max(1),
            "json" => json_path = Some(v),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    // Flag-driven size changes re-derive the decimation rate unless the
    // rate itself was pinned.
    if !std::env::args().any(|a| a == "--sample-every") {
        cfg.sample_every = 0;
        cfg = cfg.autosample();
    }
    let runs = run_all(&cfg);
    scale_table(&cfg, &runs).print();
    if let Some(path) = json_path {
        let doc = scale_json(&cfg, &runs);
        std::fs::write(&path, doc).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
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
