//! A fixed reference workload that tells host speed from program speed.
//!
//! The benchmark runs on small shared hosts whose speed moves by up to
//! 2× over minutes, while the process keeps its CPU (CPU time tracks
//! wall time), so neither wall nor CPU time of the program alone can be
//! compared between runs. The reference is a small discrete-event loop
//! of the same kinds of work as the simulator: a binary-heap event
//! queue, a hash-map table and short-lived message buffers. It lives in
//! the benchmark, not the program, so no change to the program moves
//! it. The recorder runs one [`Reference::tick`] between calls into the
//! program every [`TICK_EVERY`]; a pass's median tick over
//! [`REFERENCE_TICK_MS`] is the host's slowdown while it ran, and every
//! host time the pass measured is divided by it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// Host time between two ticks, at most; a call into the program that
/// runs longer delays the next tick until it returns.
pub const TICK_EVERY: Duration = Duration::from_millis(50);

/// Events one tick processes.
const TICK_EVENTS: usize = 1_000;

/// The median tick on the host the reported times are scaled to: a
/// 2-core Intel Xeon VM (x86-64), release build, in a calm period.
pub const REFERENCE_TICK_MS: f64 = 1.0;

/// Pending events in the queue.
const QUEUE: u32 = 65_536;

/// Entries in the table.
const TABLE: u64 = 262_144;

pub struct Reference {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    table: HashMap<u64, u64>,
    rng: u64,
    /// Folds every buffer in, so the work cannot be optimized away.
    sink: u64,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference {
            queue: BinaryHeap::with_capacity(QUEUE as usize),
            table: HashMap::with_capacity(TABLE as usize),
            rng: 0x9e37_79b9_7f4a_7c15,
            sink: 0,
        };
        for id in 0..QUEUE {
            let at = r.next() % 1_000_000;
            r.queue.push(Reverse((at, id)));
        }
        for k in 0..TABLE {
            r.table.insert(key(k), k);
        }
        r
    }

    /// xorshift64: the same sequence on every run.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Processes [`TICK_EVENTS`] events and returns the host
    /// milliseconds it took. Each event pops the earliest entry, reads
    /// and updates a table entry, fills and folds a message buffer of
    /// 64–1463 bytes, and schedules a later event. The queue and the
    /// table keep their sizes, so every tick does the same work.
    pub fn tick(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..TICK_EVENTS {
            let Reverse((at, id)) = self.queue.pop().expect("the queue never drains");
            let r = self.next();
            let k = key(r % TABLE);
            let v = self.table.get(&k).copied().unwrap_or(0);
            let len = 64 + (r >> 20) as usize % 1_400;
            let mut buf = std::hint::black_box(vec![0u8; len]);
            buf[len / 2] = v as u8;
            self.sink = buf
                .iter()
                .fold(self.sink, |s, &b| s.wrapping_add(u64::from(b)));
            self.table.insert(k, v.wrapping_add(1));
            self.queue.push(Reverse((at + 1 + (r >> 40) % 10_000, id)));
        }
        std::hint::black_box(self.sink);
        start.elapsed().as_secs_f64() * 1e3
    }
}

fn key(k: u64) -> u64 {
    k.wrapping_mul(0x9e37_79b9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tick_does_the_same_work() {
        let mut r = Reference::new();
        for _ in 0..3 {
            assert!(r.tick() > 0.0);
            assert_eq!(r.queue.len(), QUEUE as usize);
            assert_eq!(r.table.len(), TABLE as usize);
        }
    }
}
