//! A uniform view over the staged (multi-stage, radix-2) topologies so
//! the Baldur network model can run on any of them.
//!
//! Every staged kind routes the same way (destination bit `stages-1-s`
//! picks the direction at stage `s`; final-stage switch `w` delivers to
//! nodes `2w` and `2w+1`) and differs only in where a node injects and
//! how the stages are wired. So a [`Staged`] is the wiring itself, one
//! flat [`LinkTable`] indexed by [`crate::links::PortLayout::index`], plus the kind.
//! Omega's closed-form wiring is written into the same table, so the
//! model's per-hop lookup is one load whatever the kind.

use serde::{Deserialize, Serialize};

use crate::graph::NodeId;
use crate::links::{LinkTable, LinkTarget};
use crate::multibutterfly::{MultiButterfly, Wiring};
use crate::omega::Omega;

/// Which staged topology to build (configuration-level, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StagedKind {
    /// Randomized multi-butterfly (the paper's Baldur).
    MultiButterfly,
    /// Dilated structured butterfly (randomization ablation).
    DilatedButterfly,
    /// Omega / perfect shuffle (isomorphism check).
    Omega,
}

impl StagedKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StagedKind::MultiButterfly => "multibutterfly",
            StagedKind::DilatedButterfly => "dilated_butterfly",
            StagedKind::Omega => "omega",
        }
    }
}

/// A built staged topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Staged {
    kind: StagedKind,
    nodes: u32,
    stages: u32,
    links: LinkTable,
}

impl Staged {
    /// Builds `kind` for `nodes` servers with multiplicity `m`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a power of two ≥ 4, `m` is 0, or the
    /// network is past the packed wiring's limits (see
    /// [`crate::links::PortLayout::new`]).
    pub fn build(kind: StagedKind, nodes: u32, m: u32, seed: u64) -> Staged {
        let links = match kind {
            StagedKind::MultiButterfly => {
                MultiButterfly::with_wiring(nodes, m, seed, Wiring::Randomized).into_links()
            }
            StagedKind::DilatedButterfly => {
                MultiButterfly::with_wiring(nodes, m, seed, Wiring::Dilated).into_links()
            }
            StagedKind::Omega => Omega::new(nodes, m).links(),
        };
        Staged {
            kind,
            nodes,
            stages: nodes.trailing_zeros(),
            links,
        }
    }

    /// Number of server nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of stages.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Switches per stage.
    pub fn switches_per_stage(&self) -> u32 {
        self.nodes / 2
    }

    /// Path multiplicity / dilation.
    pub fn multiplicity(&self) -> u32 {
        self.links.layout().multiplicity()
    }

    /// The flat inter-stage wiring.
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// The first-stage switch a node injects into.
    pub fn ingress_switch(&self, node: NodeId) -> u32 {
        match self.kind {
            StagedKind::MultiButterfly | StagedKind::DilatedButterfly => node.0 / 2,
            StagedKind::Omega => Omega::new(self.nodes, self.multiplicity()).ingress_switch(node),
        }
    }

    /// The direction a packet for `dst` takes at `stage`.
    #[inline]
    pub fn direction(&self, dst: NodeId, stage: u32) -> u32 {
        (dst.0 >> (self.stages - 1 - stage)) & 1
    }

    /// The `path`-th candidate target from (`stage`, `switch`, `dir`).
    ///
    /// # Panics
    ///
    /// Panics at the final stage, whose outputs exit to
    /// [`Staged::egress_node`].
    pub fn target(&self, stage: u32, switch: u32, dir: u32, path: u32) -> LinkTarget {
        self.links.target(stage, switch, dir, path)
    }

    /// The node a final-stage switch's direction-`dir` output reaches.
    pub fn egress_node(&self, final_switch: u32, dir: u32) -> NodeId {
        NodeId(2 * final_switch + dir)
    }

    /// Bytes the wiring reserves.
    pub fn state_bytes(&self) -> u64 {
        self.links.state_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_build_and_agree_on_shape() {
        for kind in [
            StagedKind::MultiButterfly,
            StagedKind::DilatedButterfly,
            StagedKind::Omega,
        ] {
            let t = Staged::build(kind, 64, 3, 9);
            assert_eq!(t.nodes(), 64, "{}", kind.name());
            assert_eq!(t.stages(), 6);
            assert_eq!(t.switches_per_stage(), 32);
            assert_eq!(t.multiplicity(), 3);
        }
    }

    #[test]
    fn targets_are_in_range_for_all_kinds() {
        for kind in [
            StagedKind::MultiButterfly,
            StagedKind::DilatedButterfly,
            StagedKind::Omega,
        ] {
            let t = Staged::build(kind, 32, 2, 1);
            for stage in 0..t.stages() - 1 {
                for sw in 0..t.switches_per_stage() {
                    for dir in 0..2 {
                        for path in 0..2 {
                            let tg = t.target(stage, sw, dir, path);
                            assert!(tg.switch < t.switches_per_stage());
                            assert!(tg.port < 2 * t.multiplicity());
                        }
                    }
                }
            }
            assert_eq!(
                t.state_bytes(),
                u64::from(t.stages() - 1) * u64::from(t.switches_per_stage()) * 2 * 2 * 4
            );
        }
    }

    #[test]
    fn staged_delivery_via_manual_walk() {
        for kind in [
            StagedKind::MultiButterfly,
            StagedKind::DilatedButterfly,
            StagedKind::Omega,
        ] {
            let t = Staged::build(kind, 64, 2, 5);
            for (src, dst) in [(0u32, 63u32), (17, 4), (33, 33), (5, 40)] {
                let mut sw = t.ingress_switch(NodeId(src));
                for s in 0..t.stages() - 1 {
                    let dir = t.direction(NodeId(dst), s);
                    sw = t.target(s, sw, dir, 1 % t.multiplicity()).switch;
                }
                let dir = t.direction(NodeId(dst), t.stages() - 1);
                assert_eq!(
                    t.egress_node(sw, dir),
                    NodeId(dst),
                    "{}: {src}->{dst}",
                    kind.name()
                );
            }
        }
    }
}
