//! `avmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress to stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`).
//!
//! `avmbench --bless` prints the golden digests at the default seed, for
//! both scales, in the format of `golden.txt`.

use std::process::{Command, ExitCode, Stdio};

use avmbench::run::golden_lines;
use avmbench::workload::setup;
use avmbench::{golden, run_traced, run_untraced, Options, Scale, Workload};

#[global_allocator]
static ALLOC: avmbench::alloc::CountingAlloc = avmbench::alloc::CountingAlloc;

const USAGE: &str = "usage: avmbench --workload <figures|fleet_uniform|fleet_incast|fragbff> \
--seed <n> --seconds <s> --trace <0|1> | --bless";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                let valid = s.is_finite() && s >= 0.0;
                seconds = Some(if valid { s } else { return Err(bad()) });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One set-up in a fresh process: start, build the inputs, exit.
fn spawn_setup(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate benchmark binary: {e}"))?;
    let status = Command::new(exe)
        .args([
            "--setup-probe",
            args.workload.name(),
            &args.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("start set-up probe: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("set-up probe exited with {status}"))
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    match argv {
        [flag] if flag == "--bless" => {
            for scale in [Scale::Full, Scale::Tiny] {
                golden_lines(scale)?.iter().for_each(|l| println!("{l}"));
            }
            return Ok(());
        }
        [flag, workload, seed] if flag == "--setup-probe" => {
            let workload = Workload::parse(workload).ok_or("bad set-up probe workload")?;
            let seed = seed.parse().map_err(|_| "bad set-up probe seed")?;
            std::hint::black_box(setup(workload, Scale::Full, seed));
            return Ok(());
        }
        _ => {}
    }
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let goldens = golden::parse(golden::GOLDEN)?;
    let opts = Options {
        workload: args.workload,
        scale: Scale::Full,
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = if args.trace {
        run_traced(&opts, &goldens)
    } else {
        run_untraced(&opts, &goldens, &mut || spawn_setup(&args))?
    };
    for m in &result.metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
