//! The traced run: per-layer figures from spans around the layers'
//! public entry points, plus the CLI and daemon figures that only make
//! sense next to them. It does a fixed amount of work, so its counts of
//! attempted and failed operations never vary.

use crate::bench::{
    check_ingest, check_read, conformance_op, default_mode_failed, infer_args, part_doc, read,
    setup, tfd, verify, Args, Mode, Outcome, MB, READ_CYCLE,
};
use crate::gen::{Totals, Workload};
use crate::proc::{json_field, request, work_dir};
use crate::refclock::RefClock;
use crate::replay::{parse_in, replay};
use crate::stats::{median, percentile};
use crate::trace::{alloc_counts, count_allocs, layer, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use tfd_codegen::{generate_global, CodegenOptions};
use tfd_core::conforms_in;
use tfd_value::Interner;

/// Traced and untraced replays and CLI runs, alternated.
const PASSES: usize = 5;
/// Pairs of two-thread parses, one on a shared arena and one on an arena
/// per thread.
const ARENA_PAIRS: usize = 5;
const IDLE_READS: usize = 300;
/// Enough ingests for a p90 with ten samples beyond it.
const LOADED_INGESTS: usize = 100;
/// Enough reads for a p99 with ten samples beyond it.
const LOADED_READS: usize = 1200;

fn ms(s: f64) -> f64 {
    s * 1000.0
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut clock = RefClock::new();
    let (mut env, _) = setup(args, &mut clock, out)?;
    verify(&mut env, out)?;
    // Allocations are counted only in the traced replays and the typed
    // reads, where they are reported.
    count_allocs(false);
    let w = env.w;
    let text = &env.corpus.text;
    let bytes = text.len() as f64;

    // --- scan, parse, infer, csh, global: traced and untraced replays,
    // each pass beside one `--jobs 1` and one `--jobs 2` CLI run.
    let j1a = infer_args(w, &env.file, Mode::Stream(1));
    let j2a = infer_args(w, &env.file, Mode::Stream(2));
    let (mut j1_s, mut j2_s, mut j1_cpu, mut j2_cpu) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut j1_out = String::new();
    let mut per_pass: Vec<Vec<(&'static str, crate::trace::LayerTotals)>> = Vec::new();
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    for pass in 0..PASSES {
        out.attempted += 4;
        let j1 = tfd(args, &j1a)?;
        let j2 = tfd(args, &j2a)?;
        if j1.code != 0 || j1.stdout.trim_end() != env.expected || j2.stdout != j1.stdout {
            out.wrong(format!("CLI shapes: {:?} / {:?}", j1.stdout, j2.stdout));
        }
        j1_s.push(j1.wall_s);
        j2_s.push(j2.wall_s);
        j1_cpu.push(j1.cpu_s);
        j2_cpu.push(j2.cpu_s);
        j1_out = j1.stdout;

        let mut tr = Tracer::new(true);
        count_allocs(true);
        let t = Instant::now();
        let r = replay(w, text, &mut tr, false)?;
        traced_s.push(t.elapsed().as_secs_f64());
        count_allocs(false);
        if pass == 0 {
            kept = Some(r);
        }
        per_pass.push(tr.layers());
        if pass == 0 {
            let path = work_dir(w.name())
                .map_err(|e| e.to_string())?
                .join("spans.tsv");
            tr.write(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("spans of one traced pass: {}", path.display());
        }
        let t = Instant::now();
        replay(w, text, &mut Tracer::new(false), false)?;
        plain_s.push(t.elapsed().as_secs_f64());
    }
    let kept = kept.ok_or("no replay ran")?;
    let med = |name: &str, f: &dyn Fn(crate::trace::LayerTotals) -> f64| {
        median(
            &per_pass
                .iter()
                .map(|p| f(layer(p, name)))
                .collect::<Vec<_>>(),
        )
    };
    let records = kept.records as f64;
    let self_ms = |name: &str| med(name, &|l| ms(l.self_s));
    out.metric("scan.mb_s", med("scan", &|l| bytes / MB / l.self_s), "MB/s");
    out.metric(
        "parse.mb_s",
        med("parse", &|l| bytes / MB / l.self_s),
        "MB/s",
    );
    out.metric(
        "parse.allocs_per_record",
        med("parse", &|l| l.allocs as f64 / records),
        "count",
    );
    out.metric(
        "parse.alloc_kb_per_mb",
        med("parse", &|l| l.alloc_bytes as f64 / 1024.0 / (bytes / MB)),
        "KB/MB",
    );
    out.metric(
        "infer.records_s",
        med("infer", &|l| records / l.self_s),
        "1/s",
    );
    out.metric("csh.joins_s", med("csh", &|l| records / l.self_s), "1/s");
    out.metric("csh.self_ms", self_ms("csh"), "ms");
    out.metric("global.self_ms", self_ms("global"), "ms");
    let traced_med = median(&traced_s);
    let plain_med = median(&plain_s);
    out.metric(
        "trace.overhead_pct",
        (traced_med - plain_med) / plain_med * 100.0,
        "%",
    );
    // The layers `tfd infer --stream --jobs 1` runs. The boundary scan
    // is the parallel driver's pass, and only by-name inference
    // globalizes. The tracer inflates the self times of the spans it
    // nests per record, so they are scaled to the untraced replay.
    let mut left_out = self_ms("scan");
    let mut traced_layers = self_ms("parse") + self_ms("infer") + self_ms("csh");
    if w.global() {
        traced_layers += self_ms("global");
    } else {
        left_out += self_ms("global");
    }
    let accounted = traced_layers * (ms(plain_med) - left_out) / (ms(traced_med) - left_out);

    // --- intern: two threads parse the corpus's halves on one shared
    // arena, as the parallel drivers' workers do, and on an arena each.
    let mid = env.corpus.spans[env.corpus.spans.len() / 2].0;
    let halves: [Vec<u8>; 2] = [text[..mid].to_vec(), {
        let mut h = Vec::new();
        if w.has_header() {
            let header_end = text.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
            h.extend_from_slice(&text[..header_end]);
        }
        h.extend_from_slice(&text[mid..]);
        h
    }];
    let two_threads = |arenas: [Interner; 2]| -> Result<(f64, usize), String> {
        let t = Instant::now();
        let counts = std::thread::scope(|s| {
            let jobs: Vec<_> = halves
                .iter()
                .zip(arenas)
                .map(|(h, a)| s.spawn(move || parse_in(w, h, a)))
                .collect();
            jobs.into_iter()
                .map(|j| {
                    j.join()
                        .unwrap_or_else(|_| Err("parse thread panicked".into()))
                })
                .collect::<Result<Vec<usize>, String>>()
        })?;
        Ok((t.elapsed().as_secs_f64(), counts.iter().sum()))
    };
    let (mut shared_s, mut own_s) = (Vec::new(), Vec::new());
    for _ in 0..ARENA_PAIRS {
        out.attempted += 2;
        let shared = Interner::new();
        let (s1, n1) = two_threads([shared.clone(), shared])?;
        let (s2, n2) = two_threads([Interner::new(), Interner::new()])?;
        if n1 != kept.records || n2 != kept.records {
            out.wrong(format!(
                "two-thread parses saw {n1} and {n2} records of {}",
                kept.records
            ));
        }
        shared_s.push(s1);
        own_s.push(s2);
    }
    out.metric(
        "intern.shared_arena_x.j2",
        median(&shared_s) / median(&own_s),
        "x",
    );

    // --- conforms: every record against the inferred shape.
    let g = env
        .conformance_shape
        .as_ref()
        .ok_or("no inferred shape to check records against")?;
    let mut conf_s = Vec::new();
    for _ in 0..PASSES {
        out.attempted += 1;
        let t = Instant::now();
        let n = env
            .values
            .iter()
            .filter(|v| conforms_in(&g.root, v, Some(&g.env)))
            .count();
        conf_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(n);
        if conformance_op(&env, out) {
            out.failed += 1;
        }
    }
    out.metric("conforms.records_s", records / median(&conf_s), "1/s");

    // --- provider and codegen.
    let (mut prov_s, mut gen_s, mut code_len) = (Vec::new(), Vec::new(), 0);
    for _ in 0..PASSES {
        out.attempted += 2;
        let t = Instant::now();
        let provided = tfd_provider::provide_global(g, "Root");
        prov_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(provided);
        let t = Instant::now();
        let code = generate_global(g, "provided", "Root", &CodegenOptions::default());
        gen_s.push(t.elapsed().as_secs_f64());
        code_len = code.len();
        for a in &env.accessors {
            if !code.contains(&format!("pub fn {a}(&self)")) {
                out.wrong(format!("generated code declares no accessor {a}"));
            }
        }
    }
    out.metric("provider.self_ms", ms(median(&prov_s)), "ms");
    out.metric("codegen.self_ms", ms(median(&gen_s)), "ms");
    out.metric("codegen.kb", code_len as f64 / 1024.0, "KB");

    // --- runtime: the generated parse entry point, then Node access.
    {
        out.attempted += 1;
        count_allocs(true);
        let ty = w.record_schema();
        let spans = &env.corpus.spans;
        let (mut parse_s, mut walk_s, mut calls, mut walk_allocs) = (0.0, 0.0, 0u64, 0u64);
        let mut totals = Totals::default();
        // Parse and read one record (CSV: one 64-row file) at a time, so
        // the two can be timed apart.
        let step = if w == Workload::CsvDirty { 64 } else { 1 };
        for part in spans.chunks(step) {
            let t = Instant::now();
            let mut parts_totals = Totals::default();
            let doc = part_doc(w, text, part);
            let value = crate::access::parse(w, &doc)?;
            parse_s += t.elapsed().as_secs_f64();
            let (a0, _) = alloc_counts();
            let t = Instant::now();
            let node = tfd_runtime::Node::new(value);
            let mut recs = Vec::new();
            let c = if w == Workload::CsvDirty {
                let mut c = 0;
                for row in node.elements().map_err(|e| e.to_string())? {
                    c += crate::access::walk(&ty, &row, &mut parts_totals, &mut recs)
                        .map_err(|e| e.to_string())?;
                }
                c
            } else {
                crate::access::walk(&ty, &node, &mut parts_totals, &mut recs)
                    .map_err(|e| e.to_string())?
            };
            walk_s += t.elapsed().as_secs_f64();
            walk_allocs += alloc_counts().0 - a0;
            calls += c;
            totals.add(&parts_totals);
        }
        if !totals.matches(&env.corpus.totals) {
            out.wrong(format!(
                "typed access read {totals:?}, wrote {:?}",
                env.corpus.totals
            ));
        }
        count_allocs(false);
        out.metric("runtime.parse_mb_s", bytes / MB / parse_s, "MB/s");
        out.metric("runtime.ns_per_access", walk_s * 1e9 / calls as f64, "ns");
        out.metric(
            "runtime.allocs_per_access",
            walk_allocs as f64 / calls as f64,
            "count",
        );
    }

    // --- engine: the CLI around the layers.
    out.metric("engine.overhead_ms", ms(median(&j1_s)) - accounted, "ms");
    out.metric("engine.speedup.j2", median(&j1_s) / median(&j2_s), "x");
    out.metric(
        "engine.cpu_ratio.j2",
        median(&j2_cpu) / median(&j1_cpu),
        "x",
    );
    println!(
        "accounting: CLI --jobs 1 {:.2} ms = layers {:.2} ms + engine {:.2} ms",
        ms(median(&j1_s)),
        accounted,
        ms(median(&j1_s)) - accounted
    );
    out.attempted += 1;
    let d = tfd(args, &infer_args(w, &env.file, Mode::Default))?;
    let j1_run = crate::proc::Run {
        code: 0,
        stdout: j1_out,
        stderr: String::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        rss_mb: 0.0,
    };
    if default_mode_failed(w, &d, &j1_run, out) {
        out.failed += 1;
    }

    // --- intern: the tenant's arena after the warm ingest.
    out.attempted += 1;
    let stats = request(&env.daemon.addr, "GET", "/v1/stats", b"")
        .map_err(|e| format!("/v1/stats: {e}"))?;
    let stats = String::from_utf8_lossy(&stats.1).into_owned();
    let tenant_part = stats.split("\"tenants\"").nth(1).unwrap_or("");
    let field = |k: &str| json_field(tenant_part, k).and_then(|v| v.parse::<f64>().ok());
    out.metric(
        "intern.symbols",
        field("symbols").ok_or("no tenant symbols")?,
        "count",
    );
    out.metric(
        "intern.retained_kb",
        field("retained_bytes").ok_or("no tenant retained_bytes")? / 1024.0,
        "KB",
    );

    // --- serve: idle reads, then one writer beside one reader.
    let mut idle = Vec::new();
    for i in 0..IDLE_READS {
        out.attempted += 1;
        let kind = READ_CYCLE[i % READ_CYCLE.len()];
        let t = Instant::now();
        let r = read(&env, kind);
        idle.push(ms(t.elapsed().as_secs_f64()));
        if check_read(&env, kind, &r, out) {
            out.failed += 1;
        }
    }
    out.attempted += (LOADED_INGESTS + LOADED_READS) as u64;
    let writing = AtomicBool::new(true);
    let (ingests, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut lat = Vec::new();
            let mut results = Vec::new();
            let path = format!("/v1/{}/ingest?format={}", env.tenant, w.format());
            for i in 0..LOADED_INGESTS {
                let (body, n) = &env.corpus.bodies[i % env.corpus.bodies.len()];
                let t = Instant::now();
                let r = request(&env.daemon.addr, "POST", &path, body);
                lat.push((ms(t.elapsed().as_secs_f64()), i % env.corpus.bodies.len()));
                results.push((r, *n));
            }
            writing.store(false, Ordering::SeqCst);
            (lat, results)
        });
        let mut reads = Vec::new();
        for i in 0..LOADED_READS {
            let kind = READ_CYCLE[i % READ_CYCLE.len()];
            let under = writing.load(Ordering::SeqCst);
            let t = Instant::now();
            let r = read(&env, kind);
            let lat = ms(t.elapsed().as_secs_f64());
            reads.push((kind, r, lat, under));
        }
        let ingests = writer.join().unwrap_or_else(|_| (Vec::new(), Vec::new()));
        (ingests, reads)
    });
    let (ingest_lat, ingest_results) = ingests;
    if ingest_results.len() != LOADED_INGESTS {
        out.wrong("the writer thread stopped early".to_owned());
    }
    for (r, n) in ingest_results {
        check_ingest(r, n, out);
    }
    let mut loaded = Vec::new();
    let mut all_reads = Vec::new();
    for (kind, r, lat, under) in &reads {
        if check_read(&env, *kind, r, out) {
            out.failed += 1;
        }
        all_reads.push(*lat);
        if *under {
            loaded.push(*lat);
        }
    }
    let il: Vec<f64> = ingest_lat.iter().map(|(l, _)| *l).collect();
    out.metric("serve.ingest_p50_ms", median(&il), "ms");
    out.metric("serve.ingest_p90_ms", percentile(&il, 90.0), "ms");
    out.metric("serve.ingest_samples", il.len() as f64, "count");
    out.metric("serve.read_p50_ms", median(&all_reads), "ms");
    out.metric("serve.read_p99_ms", percentile(&all_reads, 99.0), "ms");
    out.metric("serve.read_samples", all_reads.len() as f64, "count");
    out.metric("serve.read_wait_ms", median(&loaded) - median(&idle), "ms");
    out.metric(
        "serve.read_under_ingest_samples",
        loaded.len() as f64,
        "count",
    );

    // HTTP overhead: each body's loopback ingest against the in-process
    // parse+infer+csh+globalize of the same bytes: the untraced replay
    // without its boundary scan, which ingest does not run.
    let mut overhead = Vec::new();
    for (bi, (body, _)) in env.corpus.bodies.iter().enumerate() {
        let mut tr = Tracer::new(true);
        replay(w, body, &mut tr, false)?;
        let scan_s = layer(&tr.layers(), "scan").self_s;
        let mut plain = Vec::new();
        for _ in 0..PASSES {
            let t = Instant::now();
            replay(w, body, &mut Tracer::new(false), false)?;
            plain.push(t.elapsed().as_secs_f64());
        }
        let inproc = ms(median(&plain) - scan_s);
        let lat: Vec<f64> = ingest_lat
            .iter()
            .filter(|(_, b)| *b == bi)
            .map(|(l, _)| *l)
            .collect();
        let m = median(&lat);
        overhead.push((m - inproc) / m * 100.0);
    }
    out.metric("serve.http_overhead_pct", median(&overhead), "%");

    let [(speed, spread), (speed2, _)] = clock.summary();
    out.metric("refclock.speed", speed, "x");
    out.metric("refclock.speed_2t", speed2, "x");
    out.metric("refclock.spread_pct", spread * 100.0, "%");
    env.daemon.stop();
    Ok(())
}
