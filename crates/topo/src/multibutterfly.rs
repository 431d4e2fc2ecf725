//! The randomized multi-butterfly (paper Sec. IV, after Chong et al. \[14\]
//! and Upfal \[18\]).
//!
//! Structure: `log2(N)` stages of radix-2 switches with path multiplicity
//! `m` (each switch has `2m` input and `2m` output ports, `m` per logical
//! direction). At stage `s` the switches are partitioned into `2^s` sorting
//! groups by the destination bits already consumed; each switch's `m`
//! direction-`d` outputs connect to *random* switches in the direction-`d`
//! sub-group of the next stage, balanced so every next-stage switch receives
//! exactly `2m` links. This balanced random wiring is what gives the
//! "expansion" property that makes the network immune to worst-case
//! permutations.
//!
//! The same object describes both Baldur (bufferless optical switches) and
//! the electrical multi-butterfly baseline (buffered routers) — they differ
//! only in the switch model applied by `baldur-net`.
//!
//! The wiring is stored as one flat [`LinkTable`]: a packed `u32` per
//! inner-stage output port, at [`PortLayout::index`] — no per-switch
//! allocation, 4 bytes per link. The builder fills it in a fixed order
//! (stage, sorting group, direction, round), drawing every shuffle from
//! the `mbwire` stream of its (stage, group, direction), so a seed always
//! yields the same wiring.

use baldur_sim::rng::StreamRng;
use serde::{Deserialize, Serialize};

use crate::graph::NodeId;
use crate::links::{LinkTable, LinkTarget, PortLayout};

/// How the inter-stage links are arranged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Wiring {
    /// Balanced random wiring between sorting groups — the paper's
    /// multi-butterfly with the "expansion" property.
    Randomized,
    /// Conventional (dilated) butterfly wiring: all `m` direction-`d`
    /// links of a switch go to its single structural successor. Kept as
    /// the ablation baseline that *lacks* expansion and is therefore
    /// vulnerable to worst-case permutations.
    Dilated,
}

/// A randomized multi-butterfly topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiButterfly {
    nodes: u32,
    stages: u32,
    multiplicity: u32,
    wiring: Wiring,
    /// Where every inner-stage output port leads, one flat packed table
    /// (see [`crate::links`]); the final stage's outputs go to nodes.
    links: LinkTable,
}

impl MultiButterfly {
    /// Builds a multi-butterfly for `nodes` servers (a power of two ≥ 4)
    /// with path multiplicity `multiplicity`, wiring randomized by `seed`.
    ///
    /// # Panics
    ///
    /// As [`MultiButterfly::with_wiring`].
    pub fn new(nodes: u32, multiplicity: u32, seed: u64) -> Self {
        Self::with_wiring(nodes, multiplicity, seed, Wiring::Randomized)
    }

    /// Builds with an explicit [`Wiring`] mode (`seed` is unused for
    /// [`Wiring::Dilated`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a power of two ≥ 4, `multiplicity` is 0,
    /// or a switch id or port would not fit the packed wiring table
    /// (see [`PortLayout::new`]).
    pub fn with_wiring(nodes: u32, multiplicity: u32, seed: u64, wiring: Wiring) -> Self {
        assert!(
            nodes >= 4 && nodes.is_power_of_two(),
            "nodes must be a power of two >= 4"
        );
        assert!(multiplicity >= 1, "multiplicity must be >= 1");
        let stages = nodes.trailing_zeros();
        let switches = nodes / 2;
        let m = multiplicity;
        let layout = PortLayout::new(switches, m);
        let mut links = LinkTable::new(layout, stages);
        // One shuffle buffer for every (stage, group, dir, round).
        let mut slots: Vec<LinkTarget> = Vec::with_capacity(switches as usize);

        for s in 0..stages - 1 {
            let groups = 1u32 << s;
            let group_width = switches / groups; // switches per group at s
            let next_width = group_width / 2; // switches per subgroup at s+1

            for g in 0..groups {
                for dir in 0..2u32 {
                    // Next-stage group `2g + dir` starts at this switch
                    // index (groups are contiguous destination-row blocks).
                    let next_group_base = (2 * g + dir) * next_width;
                    match wiring {
                        Wiring::Randomized => {
                            // Balanced random wiring: the m direction-`dir`
                            // outputs of the group_width source switches
                            // fill exactly the 2m inputs of the next_width
                            // target switches. Build m rounds; each round
                            // matches sources to target slots two-to-one
                            // via a shuffled slot list.
                            let mut rng = StreamRng::named(
                                seed,
                                "mbwire",
                                (u64::from(s) << 40) | (u64::from(g) << 8) | u64::from(dir),
                            );
                            for round in 0..m {
                                // Each round hands every target switch
                                // exactly 2 links, on its input ports
                                // (2*round) and (2*round + 1); round r
                                // wires path r of every source.
                                slots.clear();
                                slots.extend((0..next_width).flat_map(|t| {
                                    let switch = next_group_base + t;
                                    [
                                        LinkTarget {
                                            switch,
                                            port: 2 * round,
                                        },
                                        LinkTarget {
                                            switch,
                                            port: 2 * round + 1,
                                        },
                                    ]
                                }));
                                rng.shuffle(&mut slots);
                                for src in 0..group_width {
                                    let switch = g * group_width + src;
                                    let port = layout.index(s, switch, dir, round);
                                    links.set(port, slots[src as usize]);
                                }
                            }
                        }
                        Wiring::Dilated => {
                            // Conventional butterfly fold: sources i and
                            // i + next_width both map to target
                            // i % next_width; each contributes m links on
                            // disjoint port halves.
                            for src in 0..group_width {
                                let switch = g * group_width + src;
                                let target = next_group_base + src % next_width;
                                let half = src / next_width; // 0 or 1
                                for round in 0..m {
                                    let port = layout.index(s, switch, dir, round);
                                    links.set(
                                        port,
                                        LinkTarget {
                                            switch: target,
                                            port: 2 * round + half,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }

        MultiButterfly {
            nodes,
            stages,
            multiplicity,
            wiring,
            links,
        }
    }

    /// The wiring mode this instance was built with.
    pub fn wiring(&self) -> Wiring {
        self.wiring
    }

    /// Number of server nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of stages (`log2(nodes)`).
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Switches per stage (`nodes / 2`).
    pub fn switches_per_stage(&self) -> u32 {
        self.nodes / 2
    }

    /// Total switches in the network.
    pub fn total_switches(&self) -> u64 {
        u64::from(self.stages) * u64::from(self.switches_per_stage())
    }

    /// Path multiplicity m.
    pub fn multiplicity(&self) -> u32 {
        self.multiplicity
    }

    /// The first-stage switch a node injects into.
    pub fn ingress_switch(&self, node: NodeId) -> u32 {
        node.0 / 2
    }

    /// The routing bits for `dst`, most-significant first: bit `s` selects
    /// the direction at stage `s`.
    pub fn routing_bits(&self, dst: NodeId) -> Vec<bool> {
        (0..self.stages)
            .rev()
            .map(|b| (dst.0 >> b) & 1 == 1)
            .collect()
    }

    /// The direction (0 or 1) a packet for `dst` takes at `stage`.
    pub fn direction(&self, dst: NodeId, stage: u32) -> u32 {
        (dst.0 >> (self.stages - 1 - stage)) & 1
    }

    /// Takes the wiring, dropping the rest.
    pub(crate) fn into_links(self) -> LinkTable {
        self.links
    }

    /// The next-stage target of the `path`-th direction-`dir` output of
    /// (`stage`, `switch`).
    ///
    /// # Panics
    ///
    /// Panics at the final stage, whose outputs exit to
    /// [`MultiButterfly::egress_node`].
    pub fn target(&self, stage: u32, switch: u32, dir: u32, path: u32) -> LinkTarget {
        self.links.target(stage, switch, dir, path)
    }

    /// The `m` candidate next-stage targets for (`stage`, `switch`,
    /// `dir`), in path order.
    ///
    /// # Panics
    ///
    /// Panics at the final stage, like [`MultiButterfly::target`].
    pub fn next_targets(
        &self,
        stage: u32,
        switch: u32,
        dir: u32,
    ) -> impl ExactSizeIterator<Item = LinkTarget> + '_ {
        self.links.targets(stage, switch, dir)
    }

    /// The node a final-stage switch's direction-`dir` outputs reach.
    pub fn egress_node(&self, final_switch: u32, dir: u32) -> NodeId {
        NodeId(2 * final_switch + dir)
    }

    /// Follows one concrete path (taking path index `path_choice % m` at
    /// every hop) and returns the switch sequence plus the destination
    /// reached — used by tests to prove deliverability.
    pub fn trace_route(&self, src: NodeId, dst: NodeId, path_choice: u32) -> (Vec<u32>, NodeId) {
        let mut switch = self.ingress_switch(src);
        let mut path = vec![switch];
        for s in 0..self.stages - 1 {
            let dir = self.direction(dst, s);
            switch = self
                .target(s, switch, dir, path_choice % self.multiplicity)
                .switch;
            path.push(switch);
        }
        let dir = self.direction(dst, self.stages - 1);
        (path, self.egress_node(switch, dir))
    }

    /// Checks the sorting-group invariants; used by tests and debug builds.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let switches = self.switches_per_stage();
        let m = self.multiplicity;
        // Each target input port must be used exactly once: one bitmap
        // over the next stage's `switch * 2m + port` inputs.
        let mut used = vec![false; self.links.layout().stride()];
        for s in 0..self.stages - 1 {
            used.fill(false);
            let groups = 1u32 << (s + 1); // target groups at stage s+1
            let next_width = switches / groups;
            for sw in 0..switches {
                let group = sw / (switches / (1 << s));
                for dir in 0..2 {
                    let want_group = 2 * group + dir;
                    for t in self.next_targets(s, sw, dir) {
                        let tg = t.switch / next_width;
                        if tg != want_group {
                            return Err(format!(
                                "stage {s} switch {sw} dir {dir}: target {} in group {tg}, want {want_group}",
                                t.switch
                            ));
                        }
                        if t.port >= 2 * m {
                            return Err(format!(
                                "stage {s} switch {sw} dir {dir}: target port {} out of range",
                                t.port
                            ));
                        }
                        let slot = &mut used[(t.switch * 2 * m + t.port) as usize];
                        if *slot {
                            return Err(format!(
                                "stage {} target {}:{} double-filled",
                                s + 1,
                                t.switch,
                                t.port
                            ));
                        }
                        *slot = true;
                    }
                }
            }
            if let Some(i) = used.iter().position(|&u| !u) {
                return Err(format!(
                    "stage {} switch {} has unfilled inputs",
                    s + 1,
                    i / (2 * m as usize)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_network_dimensions() {
        let mb = MultiButterfly::new(16, 2, 1);
        assert_eq!(mb.stages(), 4);
        assert_eq!(mb.switches_per_stage(), 8);
        assert_eq!(mb.total_switches(), 32);
        assert!(mb.validate().is_ok());
    }

    #[test]
    fn every_path_reaches_the_right_destination() {
        let mb = MultiButterfly::new(64, 3, 7);
        assert!(mb.validate().is_ok());
        for src in 0..64 {
            for dst in (0..64).step_by(7) {
                for choice in 0..3 {
                    let (_, reached) = mb.trace_route(NodeId(src), NodeId(dst), choice);
                    assert_eq!(reached, NodeId(dst), "src {src} dst {dst} path {choice}");
                }
            }
        }
    }

    #[test]
    fn routing_bits_msb_first() {
        let mb = MultiButterfly::new(16, 1, 0);
        assert_eq!(
            mb.routing_bits(NodeId(0b1010)),
            vec![true, false, true, false]
        );
        assert_eq!(mb.direction(NodeId(0b1010), 0), 1);
        assert_eq!(mb.direction(NodeId(0b1010), 3), 0);
    }

    #[test]
    fn wiring_is_deterministic_per_seed() {
        let a = MultiButterfly::new(32, 4, 99);
        let b = MultiButterfly::new(32, 4, 99);
        let c = MultiButterfly::new(32, 4, 100);
        assert_eq!(a.links, b.links);
        // A different seed rewires at least something.
        assert_ne!(a.links, c.links);
    }

    #[test]
    fn randomization_spreads_targets() {
        // With m=4 and a large first-stage group, a switch's 4 up-targets
        // should usually not all collide on one target switch.
        let mb = MultiButterfly::new(256, 4, 3);
        let mut all_same = 0;
        for sw in 0..mb.switches_per_stage() {
            let t: Vec<LinkTarget> = mb.next_targets(0, sw, 0).collect();
            if t.iter().all(|x| x.switch == t[0].switch) {
                all_same += 1;
            }
        }
        assert!(all_same < 4, "{all_same} switches had fully-collided paths");
    }

    #[test]
    fn egress_nodes_cover_all_destinations() {
        let mb = MultiButterfly::new(32, 2, 5);
        let mut seen = [false; 32];
        for sw in 0..mb.switches_per_stage() {
            for d in 0..2 {
                seen[mb.egress_node(sw, d).0 as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        MultiButterfly::new(24, 2, 0);
    }

    #[test]
    fn packing_limit_on_ports_is_exact() {
        // 2m = 256 input ports is the most a packed target can name.
        let mb = MultiButterfly::new(4, 128, 0);
        assert!(mb.validate().is_ok());
        assert!((0..2).any(|sw| mb.target(0, sw, 1, 127).port == 255));
    }

    #[test]
    #[should_panic(expected = "exceeds the packed wiring")]
    fn packing_rejects_one_path_past_the_port_limit() {
        MultiButterfly::new(4, 129, 0);
    }

    #[test]
    #[should_panic(expected = "switches per stage exceed the packed wiring")]
    fn packing_rejects_one_stage_width_past_the_switch_limit() {
        // 2^26 nodes = 2^25 switches per stage, one doubling past the
        // limit; rejected before anything is allocated.
        MultiButterfly::new(4 * crate::links::MAX_SWITCHES, 1, 0);
    }

    #[test]
    fn dilated_wiring_is_valid_and_deterministic() {
        let a = MultiButterfly::with_wiring(64, 3, 1, Wiring::Dilated);
        let b = MultiButterfly::with_wiring(64, 3, 999, Wiring::Dilated);
        assert!(a.validate().is_ok());
        // Seed-independent: the structure is fixed.
        assert_eq!(a.links, b.links);
        assert_eq!(a.wiring(), Wiring::Dilated);
    }

    #[test]
    fn dilated_wiring_still_delivers_correctly() {
        let mb = MultiButterfly::with_wiring(64, 2, 0, Wiring::Dilated);
        for src in (0..64).step_by(5) {
            for dst in (0..64).step_by(7) {
                for choice in 0..2 {
                    let (_, reached) = mb.trace_route(NodeId(src), NodeId(dst), choice);
                    assert_eq!(reached, NodeId(dst));
                }
            }
        }
    }

    #[test]
    fn dilated_lacks_path_diversity() {
        // All m links of a direction go to one successor: the defining
        // structural difference from the randomized multi-butterfly.
        let mb = MultiButterfly::with_wiring(256, 4, 0, Wiring::Dilated);
        for sw in 0..mb.switches_per_stage() {
            let t: Vec<LinkTarget> = mb.next_targets(0, sw, 0).collect();
            assert!(t.iter().all(|x| x.switch == t[0].switch));
        }
    }
}
