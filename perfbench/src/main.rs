//! `perfbench`: the end-to-end and per-layer benchmark of `tfd infer`,
//! typed access through `tfd_runtime::Node`, and `tfd serve`.
//!
//! ```text
//! perfbench --tfd PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --tfd PATH --workload NAME --seed N --baseline 1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! then one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--baseline 1` prints raw-second reference figures on larger corpora.
//! `perfbench/run.py` builds this binary and `tfd`, then runs it.

mod access;
mod baseline;
mod bench;
mod gen;
mod layers;
mod oracle;
mod proc;
mod refclock;
mod replay;
mod schema;
mod stats;
mod trace;

use bench::{Args, Outcome};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

enum Run {
    EndToEnd,
    Traced,
    Baseline,
}

fn parse_args() -> Result<(Args, Run), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut run = Run::EndToEnd;
    let mut tfd = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(gen::Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" if value == "1" => run = Run::Traced,
            "--trace" => {}
            "--baseline" if value == "1" => run = Run::Baseline,
            "--baseline" => {}
            "--tfd" => tfd = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // Started first, while this process is still small.
    let dir = proc::work_dir(workload.name()).map_err(|e| format!("work directory: {e}"))?;
    let spawner = proc::Spawner::start(&dir).map_err(|e| format!("starting the spawner: {e}"))?;
    let args = Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: match run {
            Run::EndToEnd => seconds.ok_or("--seconds is required")?,
            _ => seconds.unwrap_or(0.0),
        },
        tfd: tfd.ok_or("--tfd is required")?,
        spawner: std::sync::Mutex::new(spawner),
    };
    Ok((args, run))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--spawner") {
        if let Err(e) = proc::spawner_main() {
            eprintln!("perfbench spawner: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (args, run) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::new();
    let result = match run {
        Run::EndToEnd => bench::run(&args, &mut out),
        Run::Traced => layers::run(&args, &mut out),
        Run::Baseline => match baseline::run(&args) {
            Ok(()) => return,
            Err(e) => Err(e),
        },
    };
    // Stops and reaps the spawner.
    drop(args);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    for e in &out.errors {
        println!("check failed: {}", e.replace('\n', "\\n"));
    }
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    );
}
