//! Gauging the host's speed next to every timing. The benchmark's host
//! runs other tenants, whose load slows everything on it by up to 1.6×
//! for minutes at a time, longer than a run. A fixed reference workload
//! — the same kinds of work the simulator does (random reads across a
//! buffer larger than the caches, an event heap, an ordered map,
//! short-lived strings), built from the standard library only, so that
//! no change to the simulator changes it — runs before and after every
//! timed operation, and the operation's time is scaled by how much
//! slower than [`NOMINAL_SECS`] the reference ran around it.

use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;
use std::hint::black_box;

/// The reference workload's time on a host that no other tenant slows
/// [s]: a 2-core Intel Xeon container on a quiet moment. Timings are
/// reported as they would read on such a host.
pub const NOMINAL_SECS: f64 = 0.040;

/// Words in the random-read buffer: 16 MiB.
const BUFFER_WORDS: usize = 1 << 21;
/// Operations of each kind per call.
const OPS: usize = 100_000;

/// The reference workload's state: the buffer, allocated once.
struct Reference {
    buffer: Vec<u64>,
}

impl Reference {
    /// Allocates and fills the buffer.
    fn new() -> Self {
        let mut x = 1u64;
        let buffer = (0..BUFFER_WORDS).map(|_| xorshift(&mut x)).collect();
        Reference { buffer }
    }

    /// Runs the reference workload once and returns a checksum.
    fn run(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut sum = 0u64;
        // Random read-modify-writes across the buffer.
        let mask = BUFFER_WORDS - 1;
        for _ in 0..OPS {
            let i = (xorshift(&mut x) as usize) & mask;
            self.buffer[i] = self.buffer[i].wrapping_add(1);
            sum = sum.wrapping_add(self.buffer[i]);
        }
        // An event heap: push everything, pop everything.
        let mut heap = BinaryHeap::with_capacity(OPS);
        for seq in 0..OPS as u32 {
            heap.push((xorshift(&mut x) >> 40, seq));
        }
        while let Some((t, seq)) = heap.pop() {
            sum = sum.wrapping_add(t ^ u64::from(seq));
        }
        // An ordered map: inserts, then lookups.
        let mut map = BTreeMap::new();
        for _ in 0..OPS / 2 {
            let k = xorshift(&mut x) & 0xF_FFFF;
            map.insert(k, k);
        }
        for _ in 0..OPS / 2 {
            let k = xorshift(&mut x) & 0xF_FFFF;
            sum = sum.wrapping_add(map.get(&k).copied().unwrap_or(1));
        }
        // Short-lived strings.
        let mut s = String::new();
        for _ in 0..OPS / 4 {
            s.clear();
            let _ = write!(
                s,
                "{{\"t\":{},\"v\":{:.3}}}",
                xorshift(&mut x),
                (x >> 11) as f64
            );
            sum = sum.wrapping_add(s.len() as u64);
        }
        black_box(sum)
    }
}

/// Readings of the reference workload around timed operations.
pub struct Gauge {
    reference: Reference,
    /// The latest reading, which is also the next operation's "before".
    last: Option<f64>,
    readings: Vec<f64>,
}

impl Gauge {
    /// Builds the reference workload and runs it once, untimed, so the
    /// first reading does not pay for the buffer's page faults.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        reference.run();
        Gauge {
            reference,
            last: None,
            readings: Vec::new(),
        }
    }

    fn read(&mut self) -> f64 {
        let t0 = crate::now();
        self.reference.run();
        let secs = t0.elapsed().as_secs_f64();
        self.readings.push(secs);
        secs
    }

    /// Runs `f` between two readings — the first shared with the previous
    /// call's last — and returns its result with the host's slowness over
    /// it: the mean of the two readings over [`NOMINAL_SECS`]. Divide a
    /// time by the slowness, or multiply a rate by it, to get its value on
    /// the nominal host.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some(secs) => secs,
            None => self.read(),
        };
        let out = f();
        let after = self.read();
        self.last = Some(after);
        (out, (before + after) / (2.0 * NOMINAL_SECS))
    }

    /// Every reading so far [s].
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
