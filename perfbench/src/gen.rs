//! Seeded corpus generators for the three workloads.
//!
//! Each generator declares its schema ([`crate::schema::Ty`]) and keeps,
//! while it writes, the totals a full typed read of every leaf must
//! reproduce ([`Totals`]). The first two records of every corpus are
//! pinned so that each declared variant occurs (a present and an absent
//! optional field, a null and a non-null nullable leaf, both kinds of a
//! mixed leaf); the rest are drawn from the seed.

use crate::schema::{list, nullable, optional, prim, Child, Prim::*, Ty};
use std::fmt::Write as _;

/// Sums over every leaf a typed reader visits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    pub ints: i64,
    pub floats: f64,
    pub trues: u64,
    pub str_bytes: u64,
    pub dates: i64,
    pub nulls: u64,
    pub leaves: u64,
}

impl Totals {
    pub fn add(&mut self, o: &Totals) {
        self.ints = self.ints.wrapping_add(o.ints);
        self.floats += o.floats;
        self.trues += o.trues;
        self.str_bytes += o.str_bytes;
        self.dates = self.dates.wrapping_add(o.dates);
        self.nulls += o.nulls;
        self.leaves += o.leaves;
    }

    /// Exact on every count; float sums may differ by summation order.
    pub fn matches(&self, o: &Totals) -> bool {
        let scale = self.floats.abs().max(1.0);
        self.ints == o.ints
            && self.trues == o.trues
            && self.str_bytes == o.str_bytes
            && self.dates == o.dates
            && self.nulls == o.nulls
            && self.leaves == o.leaves
            && (self.floats - o.floats).abs() <= 1e-9 * scale
    }

    fn int(&mut self, v: i64) {
        self.ints = self.ints.wrapping_add(v);
        self.leaves += 1;
    }
    fn float(&mut self, text: &str) {
        self.floats += text.parse::<f64>().unwrap_or(f64::NAN);
        self.leaves += 1;
    }
    fn boolean(&mut self, v: bool) {
        self.trues += u64::from(v);
        self.leaves += 1;
    }
    fn string(&mut self, s: &str) {
        self.str_bytes += s.len() as u64;
        self.leaves += 1;
    }
    fn date(&mut self, y: i64, m: i64, d: i64) {
        self.dates = self.dates.wrapping_add(y * 10_000 + m * 100 + d);
        self.leaves += 1;
    }
    fn null(&mut self) {
        self.nulls += 1;
    }
}

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
    pub fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    JsonlEvents,
    CsvDirty,
    XmlOrders,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "jsonl-events" => Some(Workload::JsonlEvents),
            "csv-dirty" => Some(Workload::CsvDirty),
            "xml-orders" => Some(Workload::XmlOrders),
            _ => None,
        }
    }
    pub fn name(self) -> &'static str {
        match self {
            Workload::JsonlEvents => "jsonl-events",
            Workload::CsvDirty => "csv-dirty",
            Workload::XmlOrders => "xml-orders",
        }
    }
    pub fn format(self) -> &'static str {
        match self {
            Workload::JsonlEvents => "json",
            Workload::CsvDirty => "csv",
            Workload::XmlOrders => "xml",
        }
    }
    pub fn ext(self) -> &'static str {
        match self {
            Workload::JsonlEvents => "jsonl",
            Workload::CsvDirty => "csv",
            Workload::XmlOrders => "xml",
        }
    }
    /// XML is inferred by name (`--global`, μ-shapes); the others locally.
    pub fn global(self) -> bool {
        self == Workload::XmlOrders
    }
    /// Corpus size: one `tfd infer` of it takes a few tens of
    /// milliseconds, short enough for the reference clock to bracket.
    pub fn target_bytes(self) -> usize {
        match self {
            Workload::JsonlEvents => 3 << 20,
            Workload::CsvDirty => 1 << 20,
            Workload::XmlOrders => 2 << 20,
        }
    }
    /// JSON records are all named `•`: a by-name fold (`--global`, and the
    /// registry's fold) merges the nested ones into one μ-class, so it
    /// differs from the local shape `tfd infer` prints.
    pub fn by_name_fold_differs(self) -> bool {
        self == Workload::JsonlEvents
    }
    /// Leaves sent as strings that inference types as numbers (§2.3).
    pub fn numbers_as_strings(self) -> bool {
        self == Workload::JsonlEvents
    }
    /// A body of the CSV corpus needs the header line in front.
    pub fn has_header(self) -> bool {
        self == Workload::CsvDirty
    }
    pub fn schema(self) -> Ty {
        match self {
            Workload::JsonlEvents => json_schema(),
            Workload::CsvDirty => list(csv_schema()),
            Workload::XmlOrders => xml_schema(),
        }
    }
    /// The schema of one record, as a typed reader walks it.
    pub fn record_schema(self) -> Ty {
        match self {
            Workload::CsvDirty => csv_schema(),
            w => w.schema(),
        }
    }
}

const BULLET: &str = "\u{2022}";

fn json_schema() -> Ty {
    let rec = |fields| Ty::Record(BULLET, fields);
    rec(vec![
        ("id", prim(&[Int])),
        ("type", prim(&[Str])),
        ("ts", prim(&[Str])),
        ("version", prim(&[Int])),
        ("amount", prim(&[Float])),
        ("public", prim(&[Bool])),
        (
            "actor",
            rec(vec![
                ("id", prim(&[Int])),
                ("login", prim(&[Str])),
                ("email", nullable(prim(&[Str]))),
                ("site_admin", prim(&[Bool])),
                (
                    "org",
                    rec(vec![
                        ("id", prim(&[Int])),
                        ("name", prim(&[Str])),
                        ("plan", prim(&[Str])),
                    ]),
                ),
            ]),
        ),
        (
            "repo",
            rec(vec![
                ("id", prim(&[Int])),
                ("name", prim(&[Str])),
                ("stars", prim(&[Int])),
                ("score", prim(&[Int, Float])),
            ]),
        ),
        (
            "payload",
            rec(vec![
                ("action", prim(&[Str])),
                ("size", prim(&[Int])),
                ("ref", nullable(prim(&[Str]))),
                ("labels", list(prim(&[Str]))),
                (
                    "commits",
                    list(rec(vec![
                        ("sha", prim(&[Str])),
                        ("message", prim(&[Str])),
                        (
                            "author",
                            rec(vec![("name", prim(&[Str])), ("email", prim(&[Str]))]),
                        ),
                        ("distinct", prim(&[Bool])),
                    ])),
                ),
                (
                    "pr",
                    optional(rec(vec![
                        ("number", prim(&[Int])),
                        ("merged", prim(&[Bool])),
                        ("title", prim(&[Str])),
                    ])),
                ),
            ]),
        ),
        ("tags", list(prim(&[Str]))),
        ("retries", optional(prim(&[Int]))),
        ("latency_ms", prim(&[Float])),
        ("region", prim(&[Str])),
    ])
}

fn csv_schema() -> Ty {
    Ty::Record(
        BULLET,
        vec![
            ("id", prim(&[Int])),
            ("name", prim(&[Str])),
            ("flag", prim(&[Bit])),
            ("active", prim(&[Bit])),
            ("score", prim(&[Int, Float])),
            ("price", nullable(prim(&[Float]))),
            ("qty", nullable(prim(&[Int]))),
            ("date", prim(&[Date])),
            ("updated", nullable(prim(&[Date]))),
            ("city", prim(&[Str])),
            ("note", nullable(prim(&[Str]))),
            ("ratio", prim(&[Float])),
            ("code", prim(&[Str])),
            ("count", prim(&[Int])),
            ("amount", nullable(prim(&[Int]))),
            ("category", prim(&[Str])),
        ],
    )
}

const CSV_HEADER: &str =
    "id,name,flag,active,score,price,qty,date,updated,city,note,ratio,code,count,amount,category\n";

fn category_schema() -> Ty {
    Ty::Record(
        "category",
        vec![
            ("name", prim(&[Str])),
            (
                BULLET,
                optional(Ty::Children(vec![Child {
                    tag: "category",
                    min: 1,
                    max: 1,
                    ty: Ty::Rec("category"),
                }])),
            ),
        ],
    )
}

fn xml_schema() -> Ty {
    Ty::Record(
        "order",
        vec![
            ("id", prim(&[Int])),
            ("date", prim(&[Date])),
            ("status", prim(&[Str])),
            ("express", prim(&[Bool])),
            ("total", prim(&[Float])),
            (
                BULLET,
                Ty::Children(vec![
                    Child {
                        tag: "customer",
                        min: 1,
                        max: 1,
                        ty: Ty::Record(
                            "customer",
                            vec![
                                ("id", prim(&[Int])),
                                ("name", prim(&[Str])),
                                ("email", optional(prim(&[Str]))),
                            ],
                        ),
                    },
                    Child {
                        tag: "item",
                        min: 1,
                        max: 4,
                        ty: Ty::Record(
                            "item",
                            vec![
                                ("sku", prim(&[Str])),
                                ("qty", prim(&[Int])),
                                ("price", prim(&[Float])),
                                ("discount", optional(prim(&[Float]))),
                            ],
                        ),
                    },
                    Child {
                        tag: "category",
                        min: 1,
                        max: 1,
                        ty: category_schema(),
                    },
                    Child {
                        tag: "note",
                        min: 0,
                        max: 1,
                        ty: Ty::Record("note", vec![(BULLET, prim(&[Str]))]),
                    },
                    Child {
                        tag: "shipping",
                        min: 1,
                        max: 1,
                        ty: Ty::Record(
                            "shipping",
                            vec![("method", prim(&[Str])), ("cost", prim(&[Float]))],
                        ),
                    },
                ]),
            ),
        ],
    )
}

/// A generated corpus with everything the oracles need.
pub struct Corpus {
    /// The corpus file: JSON lines, one CSV file, or concatenated XML
    /// documents one per line.
    pub text: Vec<u8>,
    pub records: usize,
    /// Byte range of each record in `text` (CSV: each row, header excluded).
    pub spans: Vec<(usize, usize)>,
    /// Ingest bodies of about 1 MB, with their record counts.
    pub bodies: Vec<(Vec<u8>, usize)>,
    /// A `check` batch and the indices of the records that must fail.
    pub probe: Vec<u8>,
    pub probe_records: usize,
    pub probe_failures: Vec<usize>,
    /// The failures `check` reports while `conforms` rejects numbers sent
    /// as strings (a known fault): the broken probes and every probe
    /// that sends a number as a string. `None` where no probe does.
    pub probe_failures_strings_rejected: Option<Vec<usize>>,
    pub totals: Totals,
}

pub const BODY_BYTES: usize = 1 << 20;

/// Writes records one at a time; `batch` lets set-up time generation in
/// short slices.
pub struct Generator {
    workload: Workload,
    target: usize,
    rng: Rng,
    index: u64,
    pub corpus: Corpus,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        Generator::sized(workload, seed, workload.target_bytes())
    }

    /// A generator of a corpus of about `target` bytes.
    pub fn sized(workload: Workload, seed: u64, target: usize) -> Generator {
        let mut text = Vec::with_capacity(target + (64 << 10));
        if workload.has_header() {
            text.extend_from_slice(CSV_HEADER.as_bytes());
        }
        Generator {
            workload,
            target,
            rng: Rng::new(seed.wrapping_mul(3).wrapping_add(workload as u64)),
            index: 0,
            corpus: Corpus {
                text,
                records: 0,
                spans: Vec::new(),
                bodies: Vec::new(),
                probe: Vec::new(),
                probe_records: 0,
                probe_failures: Vec::new(),
                probe_failures_strings_rejected: None,
                totals: Totals::default(),
            },
        }
    }

    pub fn done(&self) -> bool {
        self.corpus.text.len() >= self.target
    }

    /// Writes up to `n` more records; returns false once the corpus is full.
    pub fn batch(&mut self, n: usize) -> bool {
        for _ in 0..n {
            if self.done() {
                return false;
            }
            let start = self.corpus.text.len();
            let c = &mut self.corpus;
            write_record(
                self.workload,
                &mut self.rng,
                self.index,
                None,
                false,
                &mut c.text,
                &mut c.totals,
            );
            self.corpus.spans.push((start, self.corpus.text.len()));
            self.corpus.records += 1;
            self.index += 1;
        }
        !self.done()
    }

    /// Cuts the bodies and writes the probe batch.
    pub fn finish(mut self, seed: u64) -> Corpus {
        let w = self.workload;
        let c = &mut self.corpus;
        let mut body = Vec::new();
        let mut count = 0;
        for &(s, e) in &c.spans {
            if body.is_empty() && w.has_header() {
                body.extend_from_slice(CSV_HEADER.as_bytes());
            }
            body.extend_from_slice(&c.text[s..e]);
            count += 1;
            if body.len() >= BODY_BYTES {
                c.bodies.push((std::mem::take(&mut body), count));
                count = 0;
            }
        }
        if count > 0 {
            c.bodies.push((body, count));
        }

        let mut rng = Rng::new(seed ^ 0x005e_ed0f_9e0b);
        // About 600 KB of records, so one `check` is tens of milliseconds
        // of real work rather than a sub-millisecond round trip, whose
        // time on a busy 2-core host is mostly scheduling.
        let (n, broken): (usize, &[usize]) = match w {
            Workload::JsonlEvents => (768, &[3, 300, 700]),
            Workload::CsvDirty => (6144, &[2, 3000, 6000]),
            Workload::XmlOrders => (1536, &[1, 700, 1500]),
        };
        if w.has_header() {
            c.probe.extend_from_slice(CSV_HEADER.as_bytes());
        }
        let mut scratch = Totals::default();
        let mut strings_rejected = Vec::new();
        for i in 0..n {
            let fault = broken.iter().position(|&b| b == i);
            // A quarter of the JSON probes send their numbers as numbers,
            // so they conform whether or not numbers sent as strings do.
            let plain = w.numbers_as_strings() && i % 4 == 1;
            if w.numbers_as_strings() && (fault.is_some() || !plain) {
                strings_rejected.push(i);
            }
            // Index 2 and up: probes take the drawn (unpinned) variants.
            write_record(
                w,
                &mut rng,
                2 + i as u64,
                fault,
                plain,
                &mut c.probe,
                &mut scratch,
            );
        }
        c.probe_records = n;
        c.probe_failures = broken.to_vec();
        if w.numbers_as_strings() {
            c.probe_failures_strings_rejected = Some(strings_rejected);
        }
        self.corpus
    }
}

fn write_record(
    w: Workload,
    rng: &mut Rng,
    index: u64,
    fault: Option<usize>,
    plain_numbers: bool,
    out: &mut Vec<u8>,
    t: &mut Totals,
) {
    let mut s = String::with_capacity(1024);
    match w {
        Workload::JsonlEvents => json_record(rng, index, fault, plain_numbers, &mut s, t),
        Workload::CsvDirty => csv_record(rng, index, fault, &mut s, t),
        Workload::XmlOrders => xml_record(rng, index, fault, &mut s, t),
    }
    s.push('\n');
    out.extend_from_slice(s.as_bytes());
}

const WORDS: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima", "mike", "november", "oscar", "papa", "quebec", "romeo", "sierra", "tango",
];
const EVENT_TYPES: &[&str] = &[
    "PushEvent",
    "PullRequestEvent",
    "IssuesEvent",
    "WatchEvent",
    "ForkEvent",
    "ReleaseEvent",
];
const REGIONS: &[&str] = &["eu-west", "us-east", "ap-south", "sa-east"];
const CITIES: &[&str] = &[
    "Praha",
    "Cambridge",
    "Lisboa",
    "Zürich",
    "Kraków",
    "Oslo",
    "Dublin",
];

/// Digits with two decimals, e.g. `12.50`: always read as a float.
fn decimal(cents: u64) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

fn json_str(out: &mut String, s: &str, t: &mut Totals) {
    t.string(s);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn sentence(rng: &mut Rng, words: usize) -> String {
    let mut s = String::new();
    for i in 0..words {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(rng.pick(WORDS));
    }
    s
}

/// `plain_numbers` writes the numbers this schema sends as strings
/// (`version`, `amount`) as JSON numbers.
fn json_record(
    rng: &mut Rng,
    index: u64,
    fault: Option<usize>,
    plain_numbers: bool,
    o: &mut String,
    t: &mut Totals,
) {
    // Record 0 carries every optional part, record 1 none of them.
    let present = |rng: &mut Rng, p: u64| match index {
        0 => true,
        1 => false,
        _ => rng.chance(p),
    };
    let id = 1_000_000 + index as i64 * 7 + rng.below(7) as i64;
    o.push_str("{\"id\":");
    if fault == Some(0) {
        o.push_str("true");
    } else {
        let _ = write!(o, "{id}");
        t.int(id);
    }
    o.push_str(",\"type\":");
    json_str(o, rng.pick(EVENT_TYPES), t);
    o.push_str(",\"ts\":");
    let ts = format!(
        "2024-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        1 + rng.below(12),
        1 + rng.below(28),
        rng.below(24),
        rng.below(60),
        rng.below(60)
    );
    json_str(o, &ts, t);
    let version = 1 + rng.below(9) as i64;
    let q = if plain_numbers { "" } else { "\"" };
    let _ = write!(o, ",\"version\":{q}{version}{q}");
    t.int(version);
    let amount = decimal(rng.below(100_000));
    let _ = write!(o, ",\"amount\":{q}{amount}{q}");
    t.float(&amount);
    let public = rng.chance(70);
    let _ = write!(o, ",\"public\":{public}");
    t.boolean(public);

    o.push_str(",\"actor\":");
    if fault == Some(1) {
        o.push_str("42");
    } else {
        let actor_id = rng.below(50_000) as i64 + 2;
        let _ = write!(o, "{{\"id\":{actor_id},\"login\":");
        t.int(actor_id);
        let login = format!("{}{}", rng.pick(WORDS), rng.below(1000));
        json_str(o, &login, t);
        o.push_str(",\"email\":");
        if present(rng, 80) {
            json_str(o, &format!("{login}@example.org"), t);
        } else {
            o.push_str("null");
            t.null();
        }
        let admin = rng.chance(5);
        let _ = write!(o, ",\"site_admin\":{admin},\"org\":{{\"id\":");
        t.boolean(admin);
        let org = rng.below(500) as i64 + 2;
        let _ = write!(o, "{org},\"name\":");
        t.int(org);
        json_str(o, &format!("org-{}", rng.pick(WORDS)), t);
        o.push_str(",\"plan\":");
        json_str(o, rng.pick(&["free", "team", "enterprise"]), t);
        o.push_str("}}");
    }

    let repo = rng.below(1_000_000) as i64 + 2;
    let _ = write!(o, ",\"repo\":{{\"id\":{repo},\"name\":");
    t.int(repo);
    json_str(o, &format!("{}/{}", rng.pick(WORDS), rng.pick(WORDS)), t);
    let stars = rng.below(90_000) as i64;
    let _ = write!(o, ",\"stars\":{stars},\"score\":");
    t.int(stars);
    let score = if index == 1 || (index > 1 && rng.chance(50)) {
        format!("{}", rng.below(100))
    } else {
        decimal(rng.below(10_000))
    };
    o.push_str(&score);
    t.float(&score);
    o.push('}');

    o.push_str(",\"payload\":{\"action\":");
    json_str(o, rng.pick(&["opened", "closed", "created", "started"]), t);
    let size = rng.below(40) as i64;
    let _ = write!(o, ",\"size\":{size},\"ref\":");
    t.int(size);
    if present(rng, 60) {
        json_str(o, &format!("refs/heads/{}", rng.pick(WORDS)), t);
    } else {
        o.push_str("null");
        t.null();
    }
    o.push_str(",\"labels\":[");
    let labels = if index == 0 { 2 } else { rng.below(4) };
    for i in 0..labels {
        if i > 0 {
            o.push(',');
        }
        json_str(o, &format!("area-{}", rng.pick(WORDS)), t);
    }
    o.push_str("],\"commits\":[");
    let commits = if index == 0 { 2 } else { rng.below(4) };
    for i in 0..commits {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"sha\":");
        json_str(o, &format!("c{:012x}", rng.next() >> 16), t);
        o.push_str(",\"message\":");
        // Escapes and non-ASCII text exercise the string decoder.
        let msg = format!(
            "{} \"{}\"\nfix: naïve {} \\ path",
            sentence(rng, 4),
            rng.pick(WORDS),
            rng.pick(WORDS)
        );
        json_str(o, &msg, t);
        o.push_str(",\"author\":{\"name\":");
        json_str(o, &sentence(rng, 2), t);
        o.push_str(",\"email\":");
        json_str(o, &format!("{}@example.com", rng.pick(WORDS)), t);
        let distinct = rng.chance(90);
        let _ = write!(o, "}},\"distinct\":{distinct}}}");
        t.boolean(distinct);
    }
    o.push(']');
    if present(rng, 30) {
        let number = rng.below(20_000) as i64 + 2;
        let merged = rng.chance(50);
        let _ = write!(
            o,
            ",\"pr\":{{\"number\":{number},\"merged\":{merged},\"title\":"
        );
        t.int(number);
        t.boolean(merged);
        json_str(o, &sentence(rng, 5), t);
        o.push('}');
    } else {
        t.null();
    }
    o.push_str("},\"tags\":[");
    let tags = if index == 0 { 1 } else { rng.below(3) };
    for i in 0..tags {
        if i > 0 {
            o.push(',');
        }
        json_str(o, rng.pick(WORDS), t);
    }
    o.push(']');
    if present(rng, 50) {
        let retries = rng.below(5) as i64;
        let _ = write!(o, ",\"retries\":{retries}");
        t.int(retries);
    } else {
        t.null();
    }
    o.push_str(",\"latency_ms\":");
    if fault == Some(2) {
        o.push_str("\"fast\"");
    } else {
        let latency = decimal(rng.below(500_000));
        o.push_str(&latency);
        t.float(&latency);
    }
    o.push_str(",\"region\":");
    json_str(o, rng.pick(REGIONS), t);
    o.push('}');
}

fn csv_cell(o: &mut String, s: &str, t: &mut Totals) {
    t.string(s);
    if s.contains([',', '"']) {
        o.push('"');
        o.push_str(&s.replace('"', "\"\""));
        o.push('"');
    } else {
        o.push_str(s);
    }
}

fn csv_record(rng: &mut Rng, index: u64, fault: Option<usize>, o: &mut String, t: &mut Totals) {
    let present = |rng: &mut Rng, p: u64| match index {
        0 => true,
        1 => false,
        _ => rng.chance(p),
    };
    let id = index as i64 + 2;
    if fault == Some(0) {
        o.push_str("abc");
    } else {
        let _ = write!(o, "{id}");
        t.int(id);
    }
    o.push(',');
    // Quoted commas and doubled quotes in about a third of the names.
    let name = match rng.below(3) {
        0 => format!("{}, {}", rng.pick(WORDS), rng.pick(WORDS)),
        1 => format!("{} \"{}\"", rng.pick(WORDS), rng.pick(WORDS)),
        _ => rng.pick(WORDS).to_owned(),
    };
    csv_cell(o, &name, t);
    for _ in 0..2 {
        let bit = rng.chance(50);
        let _ = write!(o, ",{}", u8::from(bit));
        t.boolean(bit);
    }
    let score = if index == 1 || (index > 1 && rng.chance(50)) {
        format!("{}", rng.below(100) + 2)
    } else {
        decimal(rng.below(10_000))
    };
    let _ = write!(o, ",{score}");
    t.float(&score);
    if present(rng, 85) {
        let price = decimal(rng.below(100_000) + 1);
        let _ = write!(o, ",{price}");
        t.float(&price);
    } else {
        o.push_str(",#N/A");
        t.null();
    }
    if present(rng, 85) {
        let qty = rng.below(500) as i64 + 2;
        let _ = write!(o, ",{qty}");
        t.int(qty);
    } else {
        o.push(',');
        t.null();
    }
    let (y, m, d) = (
        2000 + rng.below(25) as i64,
        1 + rng.below(12) as i64,
        1 + rng.below(28) as i64,
    );
    if fault == Some(1) {
        o.push_str(",notadate");
    } else {
        let _ = write!(o, ",{y:04}-{m:02}-{d:02}");
        t.date(y, m, d);
    }
    if present(rng, 70) {
        let (y, m, d) = (2024, 1 + rng.below(12) as i64, 1 + rng.below(28) as i64);
        let _ = write!(o, ",{y:04}-{m:02}-{d:02}");
        t.date(y, m, d);
    } else {
        o.push(',');
        t.null();
    }
    o.push(',');
    csv_cell(o, rng.pick(CITIES), t);
    o.push(',');
    if present(rng, 50) {
        csv_cell(o, &sentence(rng, 3), t);
    } else {
        t.null();
    }
    if fault == Some(2) {
        o.push_str(",x");
    } else {
        let ratio = format!("0.{:03}", rng.below(1000));
        let _ = write!(o, ",{ratio}");
        t.float(&ratio);
    }
    let code = format!("{}{}", rng.pick(&["A", "B", "QX", "Z"]), rng.below(100));
    o.push(',');
    csv_cell(o, &code, t);
    let count = if index == 0 {
        4242
    } else {
        rng.below(5000) as i64
    };
    let _ = write!(o, ",{count}");
    t.int(count);
    if present(rng, 90) {
        let amount = rng.below(1_000_000) as i64 + 2;
        let _ = write!(o, ",{amount}");
        t.int(amount);
    } else {
        o.push_str(",#N/A");
        t.null();
    }
    o.push(',');
    csv_cell(o, rng.pick(&["retail", "wholesale", "online", "export"]), t);
}

fn xml_text(o: &mut String, s: &str, t: &mut Totals) {
    t.string(s);
    for ch in s.chars() {
        match ch {
            '&' => o.push_str("&amp;"),
            '<' => o.push_str("&lt;"),
            '"' => o.push_str("&quot;"),
            c => o.push(c),
        }
    }
}

fn xml_record(rng: &mut Rng, index: u64, fault: Option<usize>, o: &mut String, t: &mut Totals) {
    let present = |rng: &mut Rng, p: u64| match index {
        0 => true,
        1 => false,
        _ => rng.chance(p),
    };
    let id = index as i64 + 2;
    if fault == Some(0) {
        o.push_str("<order id=\"abc\"");
    } else {
        let _ = write!(o, "<order id=\"{id}\"");
        t.int(id);
    }
    let (y, m, d) = (2024, 1 + rng.below(12) as i64, 1 + rng.below(28) as i64);
    let _ = write!(o, " date=\"{y:04}-{m:02}-{d:02}\" status=\"");
    t.date(y, m, d);
    xml_text(o, rng.pick(&["new", "paid", "shipped", "returned"]), t);
    let express = rng.chance(30);
    if fault == Some(2) {
        o.push_str("\" express=\"maybe\"");
    } else {
        let _ = write!(o, "\" express=\"{express}\"");
        t.boolean(express);
    }
    if fault == Some(1) {
        o.push_str(" total=\"x\">");
    } else {
        let total = decimal(rng.below(1_000_000) + 1);
        let _ = write!(o, " total=\"{total}\">");
        t.float(&total);
    }

    let cust = rng.below(10_000) as i64 + 2;
    let _ = write!(o, "<customer id=\"{cust}\" name=\"");
    t.int(cust);
    xml_text(o, &format!("{} & {}", rng.pick(WORDS), rng.pick(WORDS)), t);
    o.push('"');
    if present(rng, 60) {
        o.push_str(" email=\"");
        xml_text(o, &format!("{}@shop.example", rng.pick(WORDS)), t);
        o.push('"');
    } else {
        t.null();
    }
    o.push_str("/>");

    let items = if index == 0 { 2 } else { 1 + rng.below(4) };
    for i in 0..items {
        let _ = write!(o, "<item sku=\"");
        xml_text(o, &format!("sku-{}-{}", rng.pick(WORDS), i), t);
        let qty = rng.below(9) as i64 + 2;
        let price = decimal(rng.below(50_000) + 1);
        let _ = write!(o, "\" qty=\"{qty}\" price=\"{price}\"");
        t.int(qty);
        t.float(&price);
        if (index == 0 && i == 0) || (index > 1 && rng.chance(25)) {
            let discount = decimal(rng.below(1_000) + 1);
            let _ = write!(o, " discount=\"{discount}\"");
            t.float(&discount);
        } else {
            t.null();
        }
        o.push_str("/>");
    }

    // A recursive category path one to three levels deep.
    let depth = if index == 0 { 3 } else { 1 + rng.below(3) };
    for level in 0..depth {
        o.push_str("<category name=\"");
        xml_text(o, &format!("{}-{level}", rng.pick(WORDS)), t);
        o.push_str("\">");
        if level + 1 == depth {
            // The leaf has no child category: its `•` field is absent.
            t.null();
        }
    }
    for _ in 0..depth {
        o.push_str("</category>");
    }

    if present(rng, 50) {
        o.push_str("<note>");
        xml_text(o, &sentence(rng, 6), t);
        o.push_str("</note>");
    } else {
        t.null();
    }

    o.push_str("<shipping method=\"");
    xml_text(o, rng.pick(&["post", "courier", "pickup"]), t);
    let cost = decimal(rng.below(5_000) + 1);
    let _ = write!(o, "\" cost=\"{cost}\"/>");
    t.float(&cost);
    o.push_str("</order>");
}
