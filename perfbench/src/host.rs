//! The host-speed reference: a fixed kernel, owned by the benchmark and
//! independent of the simulator, timed next to every pass and set-up
//! repetition.
//!
//! On a shared host the speed of one core drifts with other tenants' load
//! by tens of percent over minutes, and the drift slows every workload
//! alike. The end-to-end times divide each measurement by the reference
//! time taken around it and scale by [`NOMINAL_S`], so they read in
//! seconds of a host on which the reference takes [`NOMINAL_S`]. A change
//! to the simulator cannot move the reference, so it moves the normalised
//! times exactly as it moves the raw ones.
//!
//! The kernel is a hold-model event loop shaped like the simulator's
//! inner loop: a binary heap of pending events, where every event also
//! takes one dependent step of a pointer chase through a 64 MiB table,
//! so it waits on the shared cache and memory the way the simulator does.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use baldur_bench::perf::monotonic_ns;

/// Seconds the reference kernel takes on the nominal host. Normalised
/// times are raw times scaled by `NOMINAL_S / measured reference time`.
pub const NOMINAL_S: f64 = 0.1;

/// Entries of the pointer-chase table (64 MiB of `u32`).
const TABLE: usize = 1 << 24;
/// Events pending in the heap throughout.
const PENDING: u32 = 100_000;
/// Events executed per timing.
const EVENTS: u32 = 500_000;

/// The reference kernel's state, built once per process.
pub struct Reference {
    /// One cycle through every entry, in random order.
    next: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// A xorshift64 step.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Builds the chase table with Sattolo's algorithm, which yields a
    /// single cycle, so a chase never settles into a short loop.
    pub fn new() -> Reference {
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15;
        for i in (1..TABLE).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            next.swap(i, j);
        }
        Reference {
            next,
            heap: BinaryHeap::with_capacity(PENDING as usize + 1),
        }
    }

    /// Runs the kernel once and returns the host ns it took.
    pub fn time_ns(&mut self) -> u64 {
        let t0 = monotonic_ns();
        std::hint::black_box(self.run());
        (monotonic_ns() - t0).max(1)
    }

    /// The kernel: the same events in the same order on every call.
    /// Returns the chase position, so the work cannot be elided.
    fn run(&mut self) -> u32 {
        let mut x = 0x2545_F491_4F6C_DD1D;
        self.heap.clear();
        for id in 0..PENDING {
            self.heap.push(Reverse((xorshift(&mut x) % 1_000_000, id)));
        }
        let mut at = 0u32;
        for _ in 0..EVENTS {
            let Some(Reverse((t, id))) = self.heap.pop() else {
                unreachable!("the heap always holds PENDING events");
            };
            at = self.next[at as usize];
            let delay = 1 + xorshift(&mut x) % 1_000_000 + u64::from(at & 7);
            self.heap.push(Reverse((t + delay, id)));
        }
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_table_is_one_cycle_and_the_kernel_repeats() {
        let mut r = Reference::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = r.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE, "Sattolo's algorithm gives a single cycle");
        assert_eq!(r.run(), r.run(), "every call does the same work");
        assert!(r.time_ns() > 0);
    }
}
