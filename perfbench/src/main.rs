//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload construct|serve-wire|store-cycle --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH --work-dir DIR
//! ```
//!
//! Prints the sizes, every named metric with its unit and any failure,
//! then, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{llc_size, nproc};
use perfbench::serve_wire::{Target, LRU_CAPACITY};
use perfbench::{Options, Scales, Workload};

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut serve_bin, mut work_dir) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve: Target::Binary(serve_bin.ok_or("--serve-bin is required")?),
        work_dir: work_dir.ok_or("--work-dir is required")?,
        scales: Scales::FULL,
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}; nproc {}; LLC {}; LRU capacity {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        nproc(),
        llc_size(),
        LRU_CAPACITY
    );
    let out = perfbench::run(&opts);
    for line in &out.notes {
        println!("{line}");
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let metrics = if opts.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in metrics {
        println!("metric {} = {:?} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac = {} ({} of {} operations)",
        out.failed_frac(),
        out.failed,
        out.attempted
    );
    println!("{}", out.json(metrics));
    ExitCode::SUCCESS
}
