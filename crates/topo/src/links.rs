//! The flat inter-stage wiring every staged topology shares.
//!
//! A staged network numbers its switch output ports once, with
//! [`PortLayout`]: port `(stage, switch, dir, path)` sits at
//! `stage * stride + switch * 2m + dir * m + path`, where `stride` is
//! `switches_per_stage * 2m`. The wiring ([`LinkTable`]) is one `Vec<u32>`
//! in that order: entry `i` is the next-stage `(switch, port)` that output
//! port `i` leads to, packed as `switch << PORT_BITS | port`. Per-port
//! model state (Baldur's busy-until table) uses the same index, so a
//! packet that has claimed an output port finds its next switch with one
//! load at the index it already holds. The final stage's outputs go to
//! nodes, so the table covers the `stages - 1` inner stages only.

use serde::{Deserialize, Serialize};

/// Low bits of a packed target holding the input port.
pub const PORT_BITS: u32 = 8;

/// Ports per switch side a packed target can name (`2m <= MAX_PORTS`, so
/// `m <= 128`).
pub const MAX_PORTS: u32 = 1 << PORT_BITS;

/// Switches per stage a packed target can name (`2^24`, so at most `2^25`
/// nodes).
pub const MAX_SWITCHES: u32 = 1 << (u32::BITS - PORT_BITS);

/// One inter-stage link target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTarget {
    /// Switch index (within the whole next stage).
    pub switch: u32,
    /// Input port on that switch (0..2m).
    pub port: u32,
}

impl LinkTarget {
    fn pack(self) -> u32 {
        self.switch << PORT_BITS | self.port
    }

    fn unpack(packed: u32) -> Self {
        LinkTarget {
            switch: packed >> PORT_BITS,
            port: packed & (MAX_PORTS - 1),
        }
    }
}

/// The port numbering of a staged network: `switches_per_stage` radix-2
/// switches per stage, each with `m` output ports per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortLayout {
    switches: u32,
    multiplicity: u32,
}

impl PortLayout {
    /// The layout of `switches_per_stage` switches with multiplicity `m`.
    ///
    /// # Panics
    ///
    /// Panics if a switch id or an input port would not fit a packed
    /// [`LinkTable`] entry: more than [`MAX_SWITCHES`] switches per stage,
    /// or `2m` above [`MAX_PORTS`].
    pub fn new(switches_per_stage: u32, m: u32) -> Self {
        assert!(
            switches_per_stage <= MAX_SWITCHES,
            "{switches_per_stage} switches per stage exceed the packed wiring's \
             {MAX_SWITCHES} (at most {} nodes)",
            2 * u64::from(MAX_SWITCHES)
        );
        assert!(
            u64::from(m) * 2 <= u64::from(MAX_PORTS),
            "multiplicity {m} exceeds the packed wiring's {} ports per switch side \
             (m <= {})",
            MAX_PORTS,
            MAX_PORTS / 2
        );
        PortLayout {
            switches: switches_per_stage,
            multiplicity: m,
        }
    }

    /// Output ports per switch per direction (`m`).
    pub fn multiplicity(&self) -> u32 {
        self.multiplicity
    }

    /// Output ports per stage (`switches_per_stage * 2m`).
    pub fn stride(&self) -> usize {
        self.switches as usize * 2 * self.multiplicity as usize
    }

    /// The flat index of output port `(stage, switch, dir, path)`.
    #[inline]
    pub fn index(&self, stage: u32, switch: u32, dir: u32, path: u32) -> usize {
        let m = self.multiplicity as usize;
        stage as usize * self.stride() + switch as usize * 2 * m + dir as usize * m + path as usize
    }
}

/// The inter-stage wiring of a staged network, flat and packed (see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTable {
    layout: PortLayout,
    packed: Vec<u32>,
}

impl LinkTable {
    /// An all-zero table for the inner stages of a `stages`-stage network;
    /// the builder fills every entry with [`LinkTable::set`].
    pub(crate) fn new(layout: PortLayout, stages: u32) -> Self {
        LinkTable {
            layout,
            packed: vec![0; stages.saturating_sub(1) as usize * layout.stride()],
        }
    }

    /// Wires output port `port` (a [`PortLayout::index`]) to `target`.
    pub(crate) fn set(&mut self, port: usize, target: LinkTarget) {
        self.packed[port] = target.pack();
    }

    /// The port numbering the table is indexed by, shared with per-port
    /// model state.
    pub fn layout(&self) -> PortLayout {
        self.layout
    }

    /// The switch that inner-stage output port `port` (a
    /// [`PortLayout::index`]) leads to in the next stage.
    #[inline]
    pub fn next_switch(&self, port: usize) -> u32 {
        self.packed[port] >> PORT_BITS
    }

    /// Where the `path`-th direction-`dir` output of (`stage`, `switch`)
    /// leads.
    ///
    /// # Panics
    ///
    /// Panics at the final stage (its outputs go to nodes) or past it.
    pub(crate) fn target(&self, stage: u32, switch: u32, dir: u32, path: u32) -> LinkTarget {
        LinkTarget::unpack(self.packed[self.layout.index(stage, switch, dir, path)])
    }

    /// The `m` direction-`dir` targets of (`stage`, `switch`), in path
    /// order.
    ///
    /// # Panics
    ///
    /// Panics at the final stage or past it.
    pub(crate) fn targets(
        &self,
        stage: u32,
        switch: u32,
        dir: u32,
    ) -> impl ExactSizeIterator<Item = LinkTarget> + '_ {
        let first = self.layout.index(stage, switch, dir, 0);
        let m = self.layout.multiplicity as usize;
        self.packed[first..first + m]
            .iter()
            .map(|&p| LinkTarget::unpack(p))
    }

    /// Bytes the table reserves.
    pub(crate) fn state_bytes(&self) -> u64 {
        (self.packed.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_round_trips_at_the_limits() {
        for t in [
            LinkTarget { switch: 0, port: 0 },
            LinkTarget {
                switch: MAX_SWITCHES - 1,
                port: MAX_PORTS - 1,
            },
            LinkTarget {
                switch: 12_345,
                port: 9,
            },
        ] {
            assert_eq!(LinkTarget::unpack(t.pack()), t);
        }
    }

    #[test]
    fn index_is_stage_major_then_switch_dir_path() {
        let l = PortLayout::new(8, 3);
        assert_eq!(l.stride(), 48);
        assert_eq!(l.index(0, 0, 0, 0), 0);
        assert_eq!(l.index(0, 0, 0, 2), 2);
        assert_eq!(l.index(0, 0, 1, 0), 3);
        assert_eq!(l.index(0, 1, 0, 0), 6);
        assert_eq!(l.index(2, 7, 1, 2), 2 * 48 + 7 * 6 + 3 + 2);
    }

    /// The switch limit itself is too large to build a network at; the
    /// layout check is what `MultiButterfly::with_wiring` runs first.
    #[test]
    fn layout_accepts_the_packing_limits() {
        let l = PortLayout::new(MAX_SWITCHES, MAX_PORTS / 2);
        assert_eq!(l.stride(), MAX_SWITCHES as usize * MAX_PORTS as usize);
    }
}
