//! A reference clock that cancels host-speed drift.
//!
//! On a shared host the machine's speed changes by tens of percent within
//! minutes, so seconds measured at different times do not compare. The
//! reference clock runs a fixed, std-only kernel after every slice of
//! measured work, a few tens of milliseconds apart. A slice's time is
//! then expressed in *reference seconds*: its wall time times the
//! kernel's speed around it, over the kernel's nominal speed. When the
//! host slows down, both the slice and the kernel slow, and the product
//! stays put.
//!
//! The kernel does what the measured layers do, at their scale: it
//! streams text from a buffer larger than the L2 cache, tokenizes it,
//! allocates each token, and interns token hashes into a table of a few
//! megabytes. A tight kernel that fits in L1 was tried first; it tracked
//! the clock speed but not the memory contention the parsers feel, and
//! drifted apart from them by 20% within minutes.
//!
//! Each tick runs the kernel on one thread, the scale for work on one
//! core, and then on two threads at once, the scale for work that keeps
//! both cores busy (`--jobs 2`, reads beside an ingest): other tenants
//! take one core or both, and two-core work feels both. The second thread is a
//! long-lived helper; one spawned per tick spent a varying share of the
//! tick being placed, and its speed varied 1.2-1.6x between calm runs.
//!
//! One tick is too short to stand for the host: single ticks move by tens
//! of percent from one to the next. The speed around a slice is the
//! median of the `WINDOW` ticks nearest to it, a second or two of the
//! run, which follows drift over seconds and minutes but not the
//! sub-second turbulence no adjacent kernel run can track.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Kernel bytes per second on one thread of the nominal host (a 2-vCPU
/// x86-64 cloud VM); reference seconds are close to wall seconds there.
pub const NOMINAL_RATE: f64 = 2.9e7;
/// The same for both threads together.
pub const NOMINAL_RATE_2: f64 = 3.8e7;

const TEXT_BYTES: usize = 8 << 20;
/// Bytes per sweep: about 7 ms on the nominal host.
const SWEEP: usize = 256 << 10;
const TABLE_SLOTS: usize = 1 << 18;
/// Ticks whose median gives the speed around a slice.
const WINDOW: usize = 9;

/// How many cores the measured slice keeps busy.
#[derive(Clone, Copy, Debug)]
pub enum Cores {
    One,
    Two,
}

/// The second thread of the two-thread tick: sweeps at the offsets it is
/// sent and answers each.
struct Helper {
    requests: Option<Sender<usize>>,
    done: Receiver<()>,
    thread: Option<JoinHandle<()>>,
}

pub struct RefClock {
    text: Arc<[u8]>,
    tables: [Vec<u64>; 2],
    offset: usize,
    helper: Helper,
    /// Every tick's one-thread rate, in order.
    pub rates: Vec<f64>,
    /// Every tick's two-thread rate, in order.
    pub rates2: Vec<f64>,
}

/// One timed slice: its wall time and the tick that followed it.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub wall_s: f64,
    pub tick: usize,
}

/// Tokenizes `text`, allocating each token and interning its hash into
/// `table`.
fn sweep(text: &[u8], table: &mut [u64]) {
    let mut tokens: Vec<Box<[u8]>> = Vec::new();
    let mut word = 0;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &b) in text.iter().enumerate() {
        if b.is_ascii_alphabetic() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            continue;
        }
        if i > word {
            tokens.push(text[word..i].into());
            // Linear probing, bounded.
            let mut slot = (h as usize) & (TABLE_SLOTS - 1);
            for _ in 0..16 {
                let v = table[slot];
                if v == 0 || v == h {
                    break;
                }
                slot = (slot + 1) & (TABLE_SLOTS - 1);
            }
            table[slot] = h;
        }
        word = i + 1;
        h = 0xcbf2_9ce4_8422_2325;
    }
    black_box(&tokens);
}

impl RefClock {
    pub fn new() -> RefClock {
        // Words of 2-10 letters between quotes and punctuation.
        let mut text = Vec::with_capacity(TEXT_BYTES + 16);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        while text.len() < TEXT_BYTES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            for i in 0..2 + (x % 9) as usize {
                text.push(b'a' + ((x >> (i * 5)) % 26) as u8);
            }
            text.push(match (x >> 50) % 4 {
                0 => b'"',
                1 => b',',
                2 => b':',
                _ => b' ',
            });
        }
        let text: Arc<[u8]> = text.into();
        let (requests, inbox) = channel::<usize>();
        let (done_tx, done) = channel();
        let shared = Arc::clone(&text);
        let thread = std::thread::spawn(move || {
            let mut table = vec![0; TABLE_SLOTS];
            for at in inbox {
                sweep(&shared[at..at + SWEEP], &mut table);
                if done_tx.send(()).is_err() {
                    break;
                }
            }
        });
        let mut clock = RefClock {
            text,
            tables: [vec![0; TABLE_SLOTS], vec![0; TABLE_SLOTS]],
            offset: 0,
            helper: Helper {
                requests: Some(requests),
                done,
                thread: Some(thread),
            },
            rates: Vec::new(),
            rates2: Vec::new(),
        };
        clock.tick();
        clock
    }

    /// The offset of the next `SWEEP` bytes of text, wrapping at the end.
    fn advance(&mut self) -> usize {
        if self.offset + SWEEP > self.text.len() {
            self.offset = 0;
        }
        let at = self.offset;
        self.offset += SWEEP;
        at
    }

    /// Runs the kernel on one thread, then on two at once, and records
    /// both rates (bytes per second).
    pub fn tick(&mut self) {
        let at = self.advance();
        let start = Instant::now();
        sweep(&self.text[at..at + SWEEP], &mut self.tables[0]);
        let dt = start.elapsed().as_secs_f64().max(1e-9);
        self.rates.push(SWEEP as f64 / dt);

        let (mine, theirs) = (self.advance(), self.advance());
        let start = Instant::now();
        let sent = self
            .helper
            .requests
            .as_ref()
            .is_some_and(|r| r.send(theirs).is_ok());
        sweep(&self.text[mine..mine + SWEEP], &mut self.tables[1]);
        // A helper that has gone away did no work: the tick counts one sweep.
        let helped = sent && self.helper.done.recv().is_ok();
        let dt = start.elapsed().as_secs_f64().max(1e-9);
        let bytes = if helped { 2 * SWEEP } else { SWEEP };
        self.rates2.push(bytes as f64 / dt);
    }

    /// Times `f` as one slice, then ticks.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, Slice) {
        let start = Instant::now();
        let out = f();
        let wall_s = start.elapsed().as_secs_f64();
        self.tick();
        let tick = self.rates.len() - 1;
        (out, Slice { wall_s, tick })
    }

    /// Reference seconds per wall second around `slice`: the median
    /// speed of the `WINDOW` ticks centred on it, over nominal. Read it
    /// once the run's ticks are all taken.
    pub fn scale(&self, slice: Slice, cores: Cores) -> f64 {
        let (rates, nominal) = match cores {
            Cores::One => (&self.rates, NOMINAL_RATE),
            Cores::Two => (&self.rates2, NOMINAL_RATE_2),
        };
        let n = rates.len();
        let lo = slice
            .tick
            .saturating_sub(WINDOW / 2)
            .min(n.saturating_sub(WINDOW));
        let hi = (lo + WINDOW).min(n);
        crate::stats::median(&rates[lo..hi]) / nominal
    }

    /// `slice`'s duration in reference seconds.
    pub fn ref_s(&self, slice: Slice, cores: Cores) -> f64 {
        slice.wall_s * self.scale(slice, cores)
    }

    /// Each kernel's median speed relative to nominal, and the spread of
    /// its ticks (interquartile range over median): one thread, then two.
    pub fn summary(&self) -> [(f64, f64); 2] {
        let one = |rates: &[f64], nominal: f64| {
            let (q1, med, q3) = crate::stats::quartiles(rates);
            (med / nominal, (q3 - q1) / med)
        };
        [
            one(&self.rates, NOMINAL_RATE),
            one(&self.rates2, NOMINAL_RATE_2),
        ]
    }
}

impl Drop for RefClock {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        self.helper.requests = None;
        if let Some(t) = self.helper.thread.take() {
            let _ = t.join();
        }
    }
}
