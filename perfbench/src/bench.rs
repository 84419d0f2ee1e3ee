//! Set-up, the correctness oracles and the end-to-end measured run.

use crate::access;
use crate::gen::{Corpus, Generator, Totals, Workload};
use crate::oracle::conformance;
use crate::proc::{json_field, request, work_dir, Daemon, Run, Spawner};
use crate::refclock::{Cores, RefClock, Slice};
use crate::replay::{conformance_shape, replay};
use crate::schema;
use crate::stats::median;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tfd_core::GlobalShape;
use tfd_runtime::Node;
use tfd_value::Value;

pub const MB: f64 = 1e6;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Typed-access passes are timed in this many slices.
const ACCESS_SLICES: usize = 4;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tfd: PathBuf,
    pub spawner: Mutex<Spawner>,
}

/// The outcome of one run: the result line's fields plus notes.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }
    /// Records a failed correctness check.
    pub fn wrong(&mut self, what: String) {
        self.correct = false;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.wrong(format!("metric {name} is not a number ({value})"));
        }
        self.metrics.push((name, value, unit));
    }
}

/// Everything a run needs after set-up.
pub struct Env {
    pub w: Workload,
    pub corpus: Corpus,
    pub expected: String,
    /// The shape a by-name fold gives the corpus, where it differs from
    /// `expected`: the registry folds by name (a known fault), so it
    /// serves this shape instead.
    pub by_name_expected: Option<String>,
    pub file: PathBuf,
    pub daemon: Daemon,
    pub tenant: String,
    pub accessors: Vec<String>,
    pub posted_records: u64,
    pub failures_text: String,
    /// The `check` failures while numbers sent as strings are rejected.
    pub failures_strings_rejected: Option<String>,
    /// The parsed records and the shape they are checked against, once
    /// `verify` has run.
    pub values: Vec<Value>,
    pub conformance_shape: Option<GlobalShape>,
}

pub fn infer_args(w: Workload, file: &Path, mode: Mode) -> Vec<String> {
    let mut a = vec![
        "infer".to_owned(),
        "--format".to_owned(),
        w.format().to_owned(),
    ];
    if w.global() {
        a.push("--global".to_owned());
    }
    match mode {
        Mode::Stream(jobs) => {
            a.push("--stream".to_owned());
            a.push("--jobs".to_owned());
            a.push(jobs.to_string());
        }
        Mode::Default => {}
    }
    a.push(file.display().to_string());
    a
}

#[derive(Clone, Copy)]
pub enum Mode {
    /// `--stream --jobs N`.
    Stream(usize),
    /// No `--stream` and no `--jobs`: the one-shot driver.
    Default,
}

pub fn tfd(args: &Args, a: &[String]) -> Result<Run, String> {
    let refs: Vec<&str> = a.iter().map(String::as_str).collect();
    let mut spawner = args
        .spawner
        .lock()
        .map_err(|_| "the spawner lock is poisoned")?;
    spawner
        .run(&args.tfd, &refs)
        .map_err(|e| format!("running tfd {a:?}: {e}"))
}

fn ingest_path(env_tenant: &str, w: Workload) -> String {
    format!("/v1/{env_tenant}/ingest?format={}", w.format())
}

/// Generates the corpus, writes it, starts the daemon and warms it and
/// the CLI. Returns the environment and the timed slices of set-up.
pub fn setup(
    args: &Args,
    clock: &mut RefClock,
    out: &mut Outcome,
) -> Result<(Env, Vec<Slice>), String> {
    let w = args.workload;
    let mut slices = Vec::new();
    let mut add = |s: Slice| slices.push(s);

    let mut g = Generator::new(w, args.seed);
    loop {
        let (more, s) = clock.timed(|| g.batch(256));
        add(s);
        if !more {
            break;
        }
    }
    let (corpus, s) = clock.timed(|| g.finish(args.seed));
    add(s);

    let dir = work_dir(w.name()).map_err(|e| format!("work directory: {e}"))?;
    let file = dir.join(format!("corpus.{}", w.ext()));
    let (written, s) = clock.timed(|| std::fs::write(&file, &corpus.text));
    add(s);
    written.map_err(|e| format!("writing {}: {e}", file.display()))?;

    let (daemon, s) = clock.timed(|| Daemon::start(&args.tfd));
    add(s);
    let daemon = daemon.map_err(|e| format!("starting tfd serve: {e}"))?;

    let expected = schema::expected(&w.schema()).to_string();
    let mut fields = Vec::new();
    schema::declared_fields(&w.schema(), &mut fields);
    let accessors = fields.iter().map(|f| schema::accessor_name(f)).collect();
    let list = |xs: &[usize]| {
        xs.iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let failures_text = list(&corpus.probe_failures);
    let failures_strings_rejected = corpus.probe_failures_strings_rejected.as_deref().map(list);
    let by_name_expected = w
        .by_name_fold_differs()
        .then(|| schema::by_name(&w.schema()).to_string());
    let mut env = Env {
        w,
        corpus,
        expected,
        by_name_expected,
        file,
        daemon,
        tenant: format!("t-{}", w.name()),
        accessors,
        posted_records: 0,
        failures_text,
        failures_strings_rejected,
        values: Vec::new(),
        conformance_shape: None,
    };

    // Warm: ingest the whole corpus once, so the tenant's shape is the
    // corpus shape from here on, then touch every read endpoint and the CLI.
    let path = ingest_path(&env.tenant, w);
    for (body, n) in &env.corpus.bodies {
        let (resp, s) = clock.timed(|| request(&env.daemon.addr, "POST", &path, body));
        add(s);
        check_ingest(resp, *n, out);
        env.posted_records += *n as u64;
    }
    for kind in [Read::Shape, Read::Provider, Read::Check] {
        let (r, s) = clock.timed(|| read(&env, kind));
        add(s);
        check_read(&env, kind, &r, out);
    }
    let a = infer_args(w, &env.file, Mode::Stream(1));
    let (run, s) = clock.timed(|| tfd(args, &a));
    add(s);
    let run = run?;
    if run.code != 0 || run.stdout.trim_end() != env.expected {
        out.wrong(format!(
            "tfd infer --stream: exit {} shape {:?}, schema gives {:?} ({})",
            run.code,
            run.stdout.trim_end(),
            env.expected,
            run.stderr.trim_end()
        ));
    }
    Ok((env, slices))
}

/// The last set-up's environment, each set-up's timed slices and each
/// daemon's peak RSS after the warm-up.
type Setups = (Env, Vec<Vec<Slice>>, Vec<f64>);

/// Runs set-up `SETUPS` times and keeps the last environment. Also
/// returns each set-up's timed slices and the peak RSS of its daemon
/// after the warm-up, which sends the whole corpus and one of each read
/// one request at a time. The peak after the concurrent serve phase
/// depends on whether a `check` and an ingest happened to peak together,
/// and was bimodal between runs.
pub fn setups(args: &Args, clock: &mut RefClock, out: &mut Outcome) -> Result<Setups, String> {
    let mut all = Vec::new();
    let mut peaks = Vec::new();
    let mut last: Option<Env> = None;
    for _ in 0..SETUPS {
        if let Some(env) = last.take() {
            env.daemon.stop();
        }
        let (env, slices) = setup(args, clock, out)?;
        all.push(slices);
        peaks.push(
            env.daemon
                .memory_mb("VmHWM:")
                .ok_or("no peak RSS for tfd serve")?,
        );
        last = Some(env);
    }
    let env = last.ok_or("no set-up ran")?;
    Ok((env, all, peaks))
}

/// An HTTP status and body, or the I/O error that prevented them.
pub type Response = std::io::Result<(u16, Vec<u8>)>;

pub fn check_ingest(resp: Response, records: usize, out: &mut Outcome) {
    match resp {
        Ok((200, body)) => {
            let body = String::from_utf8_lossy(&body);
            let got = json_field(&body, "records").and_then(|r| r.parse::<usize>().ok());
            if got != Some(records) {
                out.wrong(format!("ingest took {got:?} records of {records}: {body}"));
            }
        }
        Ok((status, body)) => {
            out.wrong(format!(
                "ingest: HTTP {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        Err(e) => out.wrong(format!("ingest: {e}")),
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Read {
    Check,
    Shape,
    Provider,
}

pub const READ_CYCLE: [Read; 3] = [Read::Check, Read::Shape, Read::Provider];

pub fn read(env: &Env, kind: Read) -> Response {
    let t = &env.tenant;
    match kind {
        Read::Check => request(
            &env.daemon.addr,
            "POST",
            &format!("/v1/{t}/check?format={}", env.w.format()),
            &env.corpus.probe,
        ),
        Read::Shape => request(&env.daemon.addr, "GET", &format!("/v1/{t}/shape"), b""),
        Read::Provider => request(
            &env.daemon.addr,
            "GET",
            &format!("/v1/{t}/provider/rust"),
            b"",
        ),
    }
}

/// The read oracles: `check` returns the generator's verdicts, `shape`
/// is the schema's shape, and the provider declares every accessor.
/// Two known faults pass as failed reads, each on its exact symptom:
/// `check` rejecting exactly the probes that send numbers as strings
/// besides the broken ones, and `shape` serving the by-name fold the
/// schema gives. Returns true when the read failed.
pub fn check_read(env: &Env, kind: Read, r: &Response, out: &mut Outcome) -> bool {
    let (status, body) = match r {
        Ok((s, b)) => (*s, String::from_utf8_lossy(b)),
        Err(e) => {
            out.wrong(format!("{kind:?}: {e}"));
            return true;
        }
    };
    if status != 200 {
        out.wrong(format!("{kind:?}: HTTP {status}: {body}"));
        return true;
    }
    match kind {
        Read::Check => {
            let records = json_field(&body, "records").and_then(|r| r.parse::<usize>().ok());
            let failures = json_field(&body, "failures").unwrap_or("-");
            if records == Some(env.corpus.probe_records) {
                if failures == env.failures_text {
                    return false;
                }
                if env.failures_strings_rejected.as_deref() == Some(failures) {
                    return true;
                }
            }
            out.wrong(format!(
                "check: {body} (want {} records, failures [{}])",
                env.corpus.probe_records, env.failures_text
            ));
            true
        }
        Read::Shape => {
            let got = body.trim_end();
            if got == env.expected {
                return false;
            }
            if env.by_name_expected.as_deref() == Some(got) {
                return true;
            }
            out.wrong(format!("serve shape {got:?} != {:?}", env.expected));
            true
        }
        Read::Provider => {
            let missing: Vec<&String> = env
                .accessors
                .iter()
                .filter(|a| !body.contains(&format!("pub fn {a}(&self)")))
                .collect();
            if !missing.is_empty() {
                out.wrong(format!("provider/rust declares no accessor {missing:?}"));
            }
            !missing.is_empty()
        }
    }
}

/// The in-process oracles: the replay through the layers' entry points
/// prints the schema's shape and sees every record. Keeps the parsed
/// records and the shape they are checked against in `env`.
pub fn verify(env: &mut Env, out: &mut Outcome) -> Result<(), String> {
    let w = env.w;
    let r = replay(w, &env.corpus.text, &mut Tracer::new(false), true)?;
    if r.shape.to_string() != env.expected {
        out.wrong(format!("in-process shape {} != {}", r.shape, env.expected));
    }
    // The CSV scanner reports the header line's boundary too.
    let header = usize::from(w.has_header());
    if r.records != env.corpus.records || r.boundaries != env.corpus.records + header {
        out.wrong(format!(
            "records: parsed {}, scanned {}, generated {}",
            r.records, r.boundaries, env.corpus.records
        ));
    }
    env.conformance_shape = Some(conformance_shape(w, &r.local));
    env.values = r.values;
    Ok(())
}

/// The relative-safety oracle over every record of the corpus; true when
/// the operation failed.
pub fn conformance_op(env: &Env, out: &mut Outcome) -> bool {
    match &env.conformance_shape {
        Some(g) => conformance(env.w, &env.values, g, out),
        None => {
            out.wrong("no inferred shape to check records against".to_owned());
            true
        }
    }
}

/// One full typed read of the corpus, timed in slices: adds each slice's
/// MB to `samples`.
pub fn access_pass(env: &Env, clock: &mut RefClock, out: &mut Outcome, samples: &mut Vec<Sample>) {
    let w = env.w;
    let ty = w.record_schema();
    let mut totals = Totals::default();
    let text = &env.corpus.text;
    let parts: Vec<&[(usize, usize)]> = {
        let per = env.corpus.spans.len().div_ceil(ACCESS_SLICES);
        env.corpus.spans.chunks(per).collect()
    };
    for part in parts {
        let bytes = (part.last().map_or(0, |l| l.1) - part.first().map_or(0, |f| f.0)) as f64;
        let (res, s) = clock.timed(|| access_part(w, &ty, text, part, &mut totals));
        if let Err(e) = res {
            out.wrong(format!("typed access: {e}"));
        }
        samples.push(Sample::new(bytes / MB, s));
    }
    if !totals.matches(&env.corpus.totals) {
        out.wrong(format!(
            "typed access read {totals:?}, generator wrote {:?}",
            env.corpus.totals
        ));
    }
}

/// Parses and reads the records in `part`. CSV is one document, so its
/// part is parsed as a CSV file of its own (header plus rows).
pub fn access_part(
    w: Workload,
    ty: &schema::Ty,
    text: &[u8],
    part: &[(usize, usize)],
    totals: &mut Totals,
) -> Result<u64, String> {
    let mut calls = 0;
    let mut recs = Vec::new();
    let mut read = |value, totals: &mut Totals| {
        let node = Node::new(value);
        access::walk(ty, &node, totals, &mut recs).map_err(|e| e.to_string())
    };
    if w == Workload::CsvDirty {
        let value = access::parse(w, &part_doc(w, text, part))?;
        for row in Node::new(value).elements().map_err(|e| e.to_string())? {
            calls += read(row.raw().clone(), totals)?;
        }
    } else {
        for &(s, e) in part {
            let doc = std::str::from_utf8(&text[s..e]).map_err(|e| e.to_string())?;
            calls += read(access::parse(w, doc)?, totals)?;
        }
    }
    Ok(calls)
}

/// The records in `part` as one document; a CSV part gets the header
/// line in front.
pub fn part_doc(w: Workload, text: &[u8], part: &[(usize, usize)]) -> String {
    let (s, e) = (part[0].0, part[part.len() - 1].1);
    let mut doc = String::with_capacity(e - s + 256);
    if w.has_header() {
        let header_end = text.iter().position(|&b| b == b'\n').map_or(0, |p| p + 1);
        doc.push_str(&String::from_utf8_lossy(&text[..header_end]));
    }
    doc.push_str(&String::from_utf8_lossy(&text[s..e]));
    doc
}

/// Work done in one timed slice (MB, requests), or CPU seconds spent.
#[derive(Clone, Copy)]
pub struct Sample {
    pub amount: f64,
    pub slice: Slice,
}

impl Sample {
    pub fn new(amount: f64, slice: Slice) -> Sample {
        Sample { amount, slice }
    }
}

/// Median rate over the samples: per reference second, and per wall
/// second for the raw figure.
fn rate(clock: &RefClock, xs: &[Sample], cores: Cores) -> (f64, f64) {
    let r: Vec<f64> = xs
        .iter()
        .map(|x| x.amount / clock.ref_s(x.slice, cores))
        .collect();
    let w: Vec<f64> = xs.iter().map(|x| x.amount / x.slice.wall_s).collect();
    (median(&r), median(&w))
}

/// Pooled rate: all the work over all the time, for samples too small
/// to stand alone (a round's few reads).
fn pooled(clock: &RefClock, xs: &[Sample], cores: Cores) -> (f64, f64) {
    let work: f64 = xs.iter().map(|x| x.amount).sum();
    let r: f64 = xs.iter().map(|x| clock.ref_s(x.slice, cores)).sum();
    let w: f64 = xs.iter().map(|x| x.slice.wall_s).sum();
    (work / r, work / w)
}

#[derive(Default)]
struct Samples {
    j1: Vec<Sample>,
    j2: Vec<Sample>,
    /// CPU seconds of each `--jobs 2` run, with the slice it ran in.
    j2_cpu: Vec<(f64, Slice)>,
    j2_rss: Vec<f64>,
    access: Vec<Sample>,
    ingest: Vec<Sample>,
    reads: Vec<Sample>,
}

/// The measured run: whole rounds of the same operations until the time
/// is up. Each round is one `--jobs 1` and one `--jobs 2` CLI run, one
/// default-mode CLI run, one typed-access pass, one conformance check of
/// every record and one serve round.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut clock = RefClock::new();
    let (mut env, setup_slices, warm_peaks) = setups(args, &mut clock, out)?;
    verify(&mut env, out)?;
    let w = env.w;
    let mb = env.corpus.text.len() as f64 / MB;
    let j1_args = infer_args(w, &env.file, Mode::Stream(1));
    let j2_args = infer_args(w, &env.file, Mode::Stream(2));
    let default_args = infer_args(w, &env.file, Mode::Default);

    let mut m = Samples::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut rounds = 0u64;
    let mut posted = env.posted_records;
    while rounds == 0 || start.elapsed() < budget {
        out.attempted += 3;
        let (j1, s1) = clock.timed(|| tfd(args, &j1_args));
        let j1 = j1?;
        if j1.code != 0 || j1.stdout.trim_end() != env.expected {
            out.wrong(format!(
                "--jobs 1: exit {} {:?} {}",
                j1.code, j1.stdout, j1.stderr
            ));
        }
        m.j1.push(Sample::new(mb, s1));

        let (j2, s2) = clock.timed(|| tfd(args, &j2_args));
        let j2 = j2?;
        if j2.code != 0 || j2.stdout != j1.stdout {
            out.wrong(format!(
                "--jobs 2 differs: exit {} {:?} {}",
                j2.code, j2.stdout, j2.stderr
            ));
        }
        m.j2.push(Sample::new(mb, s2));
        m.j2_cpu.push((j2.cpu_s, s2));
        m.j2_rss.push(j2.rss_mb);

        let d = tfd(args, &default_args)?;
        if default_mode_failed(w, &d, &j1, out) {
            out.failed += 1;
        }

        out.attempted += 1;
        access_pass(&env, &mut clock, out, &mut m.access);

        out.attempted += 1;
        if conformance_op(&env, out) {
            out.failed += 1;
        }

        // Two operations: the ingest, and the batch of reads one
        // connection completes while it runs (every read is checked).
        out.attempted += 2;
        let (body, n) = &env.corpus.bodies[rounds as usize % env.corpus.bodies.len()];
        let (round, s) = clock.timed(|| serve_round(&env, body));
        check_ingest(round.ingest, *n, out);
        posted += *n as u64;
        let mut read_failed = false;
        for (kind, r) in &round.reads {
            read_failed |= check_read(&env, *kind, r, out);
        }
        if read_failed {
            out.failed += 1;
        }
        // Each side's own busy time, on the round's reference scale.
        let side = |secs: f64| Slice {
            wall_s: secs,
            tick: s.tick,
        };
        m.ingest
            .push(Sample::new(body.len() as f64 / MB, side(round.ingest_s)));
        m.reads
            .push(Sample::new(round.reads.len() as f64, side(round.reads_s)));
        rounds += 1;
    }

    // Every ingested record is in the tenant.
    match request(&env.daemon.addr, "GET", "/v1/stats", b"") {
        Ok((200, body)) => {
            let body = String::from_utf8_lossy(&body);
            let got = json_field(&body, "records").and_then(|r| r.parse::<u64>().ok());
            if got != Some(posted) {
                out.wrong(format!(
                    "tenant holds {got:?} records, {posted} were posted"
                ));
            }
        }
        other => out.wrong(format!("/v1/stats: {other:?}")),
    }
    let peak = env
        .daemon
        .memory_mb("VmHWM:")
        .ok_or("no peak RSS for tfd serve")?;
    env.daemon.stop();

    let setup_ref: Vec<f64> = setup_slices
        .iter()
        .map(|ss| ss.iter().map(|s| clock.ref_s(*s, Cores::One)).sum())
        .collect();
    let setup_wall: Vec<f64> = setup_slices
        .iter()
        .map(|ss| ss.iter().map(|s| s.wall_s).sum())
        .collect();
    let cpu_ref: Vec<f64> = m
        .j2_cpu
        .iter()
        // CPU seconds leave out the time the process waited for a core:
        // the one-core scale is the speed of the cores it did get.
        .map(|(cpu, s)| cpu * clock.scale(*s, Cores::One) * 1000.0 / mb)
        .collect();
    let cpu_raw: Vec<f64> = m.j2_cpu.iter().map(|(cpu, _)| cpu * 1000.0 / mb).collect();
    let (j1, j1_raw) = rate(&clock, &m.j1, Cores::One);
    let (j2, j2_raw) = rate(&clock, &m.j2, Cores::Two);
    let (access, access_raw) = rate(&clock, &m.access, Cores::One);
    let (ingest, ingest_raw) = rate(&clock, &m.ingest, Cores::One);
    let (reads, reads_raw) = pooled(&clock, &m.reads, Cores::Two);

    for ((speed, spread), threads) in clock.summary().into_iter().zip(["one", "two"]) {
        println!(
            "refclock ({threads} thread): speed {speed:.4} of nominal, \
             tick spread (IQR/median) {:.2}%, {} ticks",
            spread * 100.0,
            clock.rates.len()
        );
    }
    println!(
        "rounds {rounds}; corpus {mb:.3} MB, {} records; {} ingest bodies",
        env.corpus.records,
        env.corpus.bodies.len()
    );
    for (name, v) in [
        ("setup_s", median(&setup_wall)),
        ("infer_mb_s", j1_raw),
        ("infer_mb_s.j2", j2_raw),
        ("infer_cpu_ms_per_mb.j2", median(&cpu_raw)),
        ("access_mb_s", access_raw),
        ("serve_ingest_mb_s", ingest_raw),
        ("serve_read_req_s", reads_raw),
    ] {
        println!("raw {name}: {v:.4} (wall clock)");
    }

    out.metric("setup_s", median(&setup_ref), "s");
    out.metric("infer_mb_s", j1, "MB/s");
    out.metric("infer_mb_s.j2", j2, "MB/s");
    out.metric("infer_cpu_ms_per_mb.j2", median(&cpu_ref), "ms/MB");
    out.metric("infer_rss_mb.j2", median(&m.j2_rss), "MB");
    out.metric("access_mb_s", access, "MB/s");
    out.metric("serve_ingest_mb_s", ingest, "MB/s");
    out.metric("serve_read_req_s", reads, "req/s");
    println!("raw serve peak RSS after the serve phase (VmHWM): {peak:.4} MB");
    out.metric("serve_rss_mb", median(&warm_peaks), "MB");
    Ok(())
}

/// The default-mode run (no `--stream`, no `--jobs`). On JSON lines and
/// concatenated XML documents it fails today: the one-shot driver reads
/// one document and rejects the rest. Returns true for that known
/// failure; any other outcome must print the `--stream` shape.
pub fn default_mode_failed(w: Workload, d: &Run, j1: &Run, out: &mut Outcome) -> bool {
    let known = match w {
        Workload::JsonlEvents => Some("unexpected '{' after end of document"),
        Workload::XmlOrders => Some("content after root element"),
        Workload::CsvDirty => None,
    };
    if d.code == 0 {
        if d.stdout != j1.stdout {
            out.wrong(format!(
                "default mode shape {:?} != --stream {:?}",
                d.stdout, j1.stdout
            ));
        }
        return false;
    }
    match known {
        Some(msg) if d.code == 2 && d.stderr.contains(msg) => true,
        _ => {
            out.wrong(format!(
                "default mode: exit {} {}",
                d.code,
                d.stderr.trim_end()
            ));
            true
        }
    }
}

pub struct Round {
    pub ingest: Response,
    pub ingest_s: f64,
    pub reads: Vec<(Read, Response)>,
    pub reads_s: f64,
}

/// One writer connection posts `body` while one reader connection runs
/// reads until the ingest has completed (and at least one cycle of
/// check, shape and provider); both closed loop.
pub fn serve_round(env: &Env, body: &[u8]) -> Round {
    let path = ingest_path(&env.tenant, env.w);
    let writing = AtomicBool::new(true);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let t = Instant::now();
            let r = request(&env.daemon.addr, "POST", &path, body);
            let secs = t.elapsed().as_secs_f64();
            writing.store(false, Ordering::SeqCst);
            (r, secs)
        });
        let mut reads = Vec::new();
        let mut reads_s = 0.0;
        let mut i = 0;
        while i < READ_CYCLE.len() || writing.load(Ordering::SeqCst) {
            let kind = READ_CYCLE[i % READ_CYCLE.len()];
            let t = Instant::now();
            let r = read(env, kind);
            reads_s += t.elapsed().as_secs_f64();
            reads.push((kind, r));
            i += 1;
        }
        let (ingest, ingest_s) = writer.join().unwrap_or_else(|_| {
            (
                Err(std::io::Error::other("writer thread panicked")),
                f64::NAN,
            )
        });
        Round {
            ingest,
            ingest_s,
            reads,
            reads_s,
        }
    })
}
