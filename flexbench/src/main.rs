//! `flexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). Reference figures and the traced ledger go to
//! standard error. Exits 0 once the result is printed (failed checks
//! are reported in it), 2 on bad arguments.

use flexbench::{Settings, Size, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: flexbench --workload <nat-linerate|city-soak|rack> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut s = Settings {
        workload: Workload::NatLinerate,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        tamper: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => s.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                s.seconds = value
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite() && *v > 0.0 && *v <= 3600.0)
                    .ok_or(format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                s.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    s.workload = workload.ok_or("--workload is required")?;
    Ok(s)
}

fn main() -> ExitCode {
    flexbench::mem::fix_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = flexbench::run(&settings);
    for line in &report.log {
        eprintln!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
