//! Raw-second reference figures on larger corpora, for comparison with
//! the ROADMAP's baseline facts: `--jobs 1` against `--jobs 2` wall time
//! and total CPU, and the boundary scan's share of streaming time.
//! Wall-clock seconds, minimum and median of interleaved runs; not a
//! gated metric.

use crate::bench::{infer_args, tfd, Args, Mode, MB};
use crate::gen::{Generator, Workload};
use crate::proc::work_dir;
use crate::replay::scan;
use crate::stats::median;
use std::time::Instant;

const RUNS: usize = 9;

fn size(w: Workload) -> usize {
    match w {
        Workload::JsonlEvents => 32 << 20,
        Workload::CsvDirty => 22 << 20,
        Workload::XmlOrders => 24 << 20,
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut g = Generator::sized(w, args.seed, size(w));
    while g.batch(4096) {}
    let corpus = g.finish(args.seed);
    let file = work_dir(w.name())
        .map_err(|e| e.to_string())?
        .join(format!("baseline.{}", w.ext()));
    std::fs::write(&file, &corpus.text).map_err(|e| e.to_string())?;
    let mb = corpus.text.len() as f64 / MB;

    let (mut wall, mut cpu) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    let mut scan_s = Vec::new();
    for i in 0..RUNS {
        // Alternate which of the two goes first.
        let order = if i % 2 == 0 { [1, 2] } else { [2, 1] };
        for jobs in order {
            let r = tfd(args, &infer_args(w, &file, Mode::Stream(jobs)))?;
            if r.code != 0 {
                return Err(format!("--jobs {jobs}: exit {} {}", r.code, r.stderr));
            }
            wall[jobs - 1].push(r.wall_s);
            cpu[jobs - 1].push(r.cpu_s);
        }
        let t = Instant::now();
        std::hint::black_box(scan(w, &corpus.text));
        scan_s.push(t.elapsed().as_secs_f64());
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "| {} | {:.1} MB | {:.3} s (median {:.3}) | {:.3} s (median {:.3}) | {:.2}x | {:.2}x | {:.0} MB/s, {:.0}% |",
        w.name(),
        mb,
        min(&wall[0]),
        median(&wall[0]),
        min(&wall[1]),
        median(&wall[1]),
        min(&wall[0]) / min(&wall[1]),
        median(&cpu[1]) / median(&cpu[0]),
        mb / min(&scan_s),
        min(&scan_s) / min(&wall[0]) * 100.0
    );
    std::fs::remove_file(&file).map_err(|e| e.to_string())?;
    Ok(())
}
