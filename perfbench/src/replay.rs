//! The sequential parse→infer pipeline, replayed through the layers'
//! public entry points in the order the sequential driver uses them:
//! the boundary scan (`BoundaryScanner`, the parallel driver's only
//! sequential pass), chunk-fed parsing (`Streamer`), per-record
//! inference (`infer_with`), the document-order fold (`csh`) and, for
//! by-name inference, `globalize`. Every call can be wrapped in a span.

use crate::gen::Workload;
use crate::trace::Tracer;
use tfd_core::{csh, globalize, globalize_env, infer_with, GlobalShape, InferOptions, Shape};
use tfd_value::{Interner, Value};

/// The CLI's default `--chunk-size`.
pub const CHUNK: usize = 64 << 10;

enum Streamer {
    Json(tfd_json::Streamer),
    Xml(tfd_xml::Streamer),
    Csv(tfd_csv::Streamer),
}

impl Streamer {
    fn new(w: Workload) -> Streamer {
        match w {
            Workload::JsonlEvents => Streamer::Json(tfd_json::Streamer::new()),
            Workload::XmlOrders => Streamer::Xml(tfd_xml::Streamer::new()),
            Workload::CsvDirty => Streamer::Csv(tfd_csv::Streamer::new()),
        }
    }
    /// A streamer that interns into `interner` rather than an arena of
    /// its own.
    fn new_in(w: Workload, interner: Interner) -> Streamer {
        match w {
            Workload::JsonlEvents => Streamer::Json(tfd_json::Streamer::with_options_in(
                tfd_json::ParserOptions::default(),
                interner,
            )),
            Workload::XmlOrders => Streamer::Xml(tfd_xml::Streamer::with_options_in(
                &tfd_xml::XmlOptions::default(),
                &tfd_xml::EncodeOptions::default(),
                interner,
            )),
            Workload::CsvDirty => Streamer::Csv(tfd_csv::Streamer::with_options_in(
                &tfd_csv::CsvOptions::default(),
                &tfd_csv::LiteralOptions::default(),
                interner,
            )),
        }
    }
    fn feed(&mut self, chunk: &[u8], sink: &mut impl FnMut(Value)) -> Result<(), String> {
        match self {
            Streamer::Json(s) => s.feed(chunk, sink).map_err(|e| e.to_string()),
            Streamer::Xml(s) => s.feed(chunk, sink).map_err(|e| e.to_string()),
            Streamer::Csv(s) => s.feed(chunk, sink).map_err(|e| e.to_string()),
        }
    }
    fn finish(&mut self, sink: &mut impl FnMut(Value)) -> Result<(), String> {
        match self {
            Streamer::Json(s) => s.finish(sink).map_err(|e| e.to_string()),
            Streamer::Xml(s) => s.finish(sink).map_err(|e| e.to_string()),
            Streamer::Csv(s) => s.finish(sink).map_err(|e| e.to_string()),
        }
    }
}

/// Counts record boundaries with the format's scan-only pass.
pub fn scan(w: Workload, text: &[u8]) -> usize {
    let mut n = 0usize;
    let mut on_boundary = |_| n += 1;
    match w {
        Workload::JsonlEvents => {
            let mut s = tfd_json::BoundaryScanner::new();
            text.chunks(CHUNK).for_each(|c| s.feed(c, &mut on_boundary));
        }
        Workload::XmlOrders => {
            let mut s = tfd_xml::BoundaryScanner::new();
            text.chunks(CHUNK).for_each(|c| s.feed(c, &mut on_boundary));
        }
        Workload::CsvDirty => {
            let mut s = tfd_csv::BoundaryScanner::new();
            text.chunks(CHUNK).for_each(|c| s.feed(c, &mut on_boundary));
        }
    }
    n
}

/// Parses `text` into `interner`'s arena and counts the records.
pub fn parse_in(w: Workload, text: &[u8], interner: Interner) -> Result<usize, String> {
    let mut streamer = Streamer::new_in(w, interner);
    let mut n = 0usize;
    let mut sink = |_: Value| n += 1;
    for chunk in text.chunks(CHUNK) {
        streamer.feed(chunk, &mut sink)?;
    }
    streamer.finish(&mut sink)?;
    Ok(n)
}

pub fn infer_options(w: Workload) -> InferOptions {
    match w {
        Workload::JsonlEvents => InferOptions::json(),
        Workload::XmlOrders => InferOptions::xml(),
        Workload::CsvDirty => InferOptions::csv(),
    }
}

pub struct Replayed {
    /// The shape `tfd infer` prints for the corpus.
    pub shape: Shape,
    /// The fold of the records' shapes, before any wrapping.
    pub local: Shape,
    pub records: usize,
    pub boundaries: usize,
    /// The parsed records, when asked for.
    pub values: Vec<Value>,
}

/// Replays `text` through scan, parse, infer, csh and globalize.
pub fn replay(w: Workload, text: &[u8], tr: &mut Tracer, keep: bool) -> Result<Replayed, String> {
    let boundaries = tr.span("scan", 0, text.len() as u64, |_| scan(w, text));
    let options = infer_options(w);
    let mut streamer = Streamer::new(w);
    let mut acc = Shape::Bottom;
    let mut records = 0usize;
    let mut kept = Vec::new();
    let mut chunks: Vec<&[u8]> = text.chunks(CHUNK).collect();
    chunks.push(&[]); // the final `finish`
    for (i, chunk) in chunks.into_iter().enumerate() {
        let i = i as u32;
        // As in the sequential driver, each record is inferred and folded
        // as the parser completes it: the `infer` and `csh` spans nest in
        // the chunk's `parse` span, whose self time is the parse alone.
        tr.span("parse", i, chunk.len() as u64, |tr| {
            let mut sink = |v: Value| {
                records += 1;
                let s = tr.span("infer", i, 1, |_| infer_with(&v, &options));
                tr.span("csh", i, 1, |_| {
                    acc = csh(std::mem::replace(&mut acc, Shape::Bottom), s);
                });
                if keep {
                    kept.push(v);
                }
            };
            if chunk.is_empty() {
                streamer.finish(&mut sink)
            } else {
                streamer.feed(chunk, &mut sink)
            }
        })?;
    }
    // By-name inference runs on every workload so the layer is always
    // measured; only XML prints its result.
    let global = tr.span("global", 0, 1, |_| globalize(acc.clone()));
    let shape = match w {
        Workload::JsonlEvents => acc.clone(),
        Workload::CsvDirty => Shape::list(acc.clone()),
        Workload::XmlOrders => global,
    };
    Ok(Replayed {
        shape,
        local: acc,
        records,
        boundaries,
        values: kept,
    })
}

/// The shape records are checked against: the printed one, with the
/// μ-definitions table for XML.
pub fn conformance_shape(w: Workload, local: &Shape) -> GlobalShape {
    match w {
        Workload::XmlOrders => globalize_env(local.clone()),
        _ => GlobalShape::plain(local.clone()),
    }
}
