//! Spans around calls into the program's layers, and the allocation
//! counts taken at the same boundaries.
//!
//! Spans are recorded from the benchmark's own code only: name, start,
//! end, parent span and chunk id, plus the work count and the
//! allocations made inside. They stay in memory until the run ends. A
//! disabled tracer calls straight through, so the same replay can run
//! untraced and the difference is the tracing overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator, counting calls and bytes while counting is on.
/// The counters publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(true);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Turns allocation counting on (the default) or off. Off, an allocation
/// costs one plain load more than the system allocator's, so work timed
/// against the `tfd` binary runs at the speed it sees, and two threads
/// do not contend for the counters.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn counted(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and allocated bytes so far in this process.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub chunk: u32,
    /// Work done: bytes for scan, parse and chunk; records otherwise.
    pub count: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        chunk: u32,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let (a0, b0) = alloc_counts();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            chunk,
            count,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.t0.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc_counts();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.allocs = a1 - a0;
        s.alloc_bytes = b1 - b0;
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "id\tname\tstart_ns\tend_ns\tparent\tchunk\tcount\tallocs\talloc_bytes"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.chunk, s.count, s.allocs, s.alloc_bytes
            )?;
        }
        f.flush()
    }

    /// Totals per span name. Self time (and self allocation) is a span's
    /// own minus what its child spans cover.
    pub fn layers(&self) -> Vec<(&'static str, LayerTotals)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![(0u64, 0u64); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p].0 += s.allocs;
                child_allocs[p].1 += s.alloc_bytes;
            }
        }
        let mut out: Vec<(&'static str, LayerTotals)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let slot = match out.iter().position(|(n, _)| *n == s.name) {
                Some(j) => j,
                None => {
                    out.push((s.name, LayerTotals::default()));
                    out.len() - 1
                }
            };
            let l = &mut out[slot].1;
            l.self_s += own as f64 * 1e-9;
            l.allocs += s.allocs - child_allocs[i].0;
            l.alloc_bytes += s.alloc_bytes - child_allocs[i].1;
        }
        out
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    pub self_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

pub fn layer(layers: &[(&'static str, LayerTotals)], name: &str) -> LayerTotals {
    layers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, l)| *l)
        .unwrap_or_default()
}
