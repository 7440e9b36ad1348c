//! A fixed reference kernel that measures how fast the host is right now.
//!
//! The benchmark runs on a few cores of a host it shares with others.
//! Their load slows cache-heavy code, such as the simulator's, by up to
//! about 1.7× for seconds to minutes at a time, while a pure arithmetic
//! loop barely moves. This kernel does the same kind of work as the
//! simulator: random reads from a table larger than a core's L2. It is
//! part of the benchmark and not of the program under test, so no change
//! to the program moves it. The benchmark times it around every call and
//! divides the call's host time by it, which cancels the host's speed of
//! the moment.

use std::hint::black_box;
use std::time::Instant;

/// Table size: 4 MiB of `u64`, twice a core's L2.
const TABLE_WORDS: usize = 1 << 19;

/// Random reads per timing: about a millisecond on a 2.1 GHz Xeon.
const READS: usize = 200_000;

/// The reference kernel and its table.
pub struct Reference {
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            table: (0..TABLE_WORDS as u64).collect(),
        }
    }
}

impl Reference {
    /// Host seconds of one timing. The table is first read through,
    /// untimed, so the time does not depend on how much of it the
    /// previous call evicted.
    pub fn time_s(&self) -> f64 {
        let t = &self.table;
        let mut acc = t.iter().fold(0u64, |a, &x| a.wrapping_add(x));
        let mask = (TABLE_WORDS - 1) as u64;
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..READS / 2 {
            // xorshift64: two independent indices per step.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(t[(x & mask) as usize]);
            acc ^= t[((x >> 32) & mask) as usize];
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
