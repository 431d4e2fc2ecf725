//! Bit-level reproducibility: a run is a pure function of its config.

use baldur::prelude::*;

fn run_twice(network: NetworkKind, workload: Workload) {
    let name = network.name();
    let mk = || {
        let mut cfg = RunConfig::new(64, network.clone(), workload);
        cfg.seed = 1234;
        baldur::run(&cfg)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.avg_ns.to_bits(), b.avg_ns.to_bits(), "{name}");
    assert_eq!(a.p99_ns.to_bits(), b.p99_ns.to_bits(), "{name}");
    assert_eq!(a.delivered, b.delivered, "{name}");
    assert_eq!(a.drop_attempts, b.drop_attempts, "{name}");
    assert_eq!(a.sim_end_ns.to_bits(), b.sim_end_ns.to_bits(), "{name}");
}

#[test]
fn every_network_is_deterministic() {
    let wl = Workload::Synthetic {
        pattern: Pattern::Bisection,
        load: 0.6,
        packets_per_node: 40,
    };
    for (_, network) in NetworkKind::paper_lineup(64) {
        run_twice(network, wl);
    }
}

#[test]
fn seeds_actually_matter() {
    let wl = Workload::Synthetic {
        pattern: Pattern::RandomPermutation,
        load: 0.6,
        packets_per_node: 40,
    };
    let mut cfg = RunConfig::new(64, NetworkKind::Baldur(BaldurParams::paper_for(64)), wl);
    cfg.seed = 1;
    let a = baldur::run(&cfg);
    cfg.seed = 2;
    let b = baldur::run(&cfg);
    assert_ne!(a.avg_ns.to_bits(), b.avg_ns.to_bits());
}

#[test]
fn trace_workloads_are_deterministic() {
    let wl = Workload::Hpc {
        app: HpcApp::Amg,
        params: TraceParams::default_scale(),
    };
    run_twice(NetworkKind::Baldur(BaldurParams::paper_for(64)), wl);
}

/// Two fresh runs of the same seed must agree on the *entire serialized
/// metrics struct* — every field, via the JSON rendering — not just the
/// headline numbers.
#[test]
fn full_metrics_json_is_bit_identical_across_runs() {
    let mk = || {
        let mut cfg = RunConfig::new(
            64,
            NetworkKind::Baldur(BaldurParams::paper_for(64)),
            Workload::Synthetic {
                pattern: Pattern::RandomPermutation,
                load: 0.6,
                packets_per_node: 40,
            },
        );
        cfg.seed = 4242;
        let report = baldur::run(&cfg);
        serde_json::to_string_pretty(&report).expect("serialize report")
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "serialized LatencyReport must be byte-identical");
}

/// The figure-6 CSV — the artifact the paper's plots are drawn from — must
/// be byte-identical across two same-seed regenerations.
#[test]
fn figure_csv_bytes_are_identical_across_runs() {
    let mk = || {
        let cfg = baldur::experiments::EvalConfig::tiny();
        let rows = baldur::experiments::figure6(&cfg, &[0.3]);
        baldur::csv::fig6(&rows).into_bytes()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "fig6 CSV bytes must be identical for a fixed seed");
}

/// The wiring of every staged topology, pinned: SHA-256 over each
/// (stage, switch, dir, path) → (switch, port) entry in index order, as
/// two little-endian `u32`s. The digests were recorded from the nested
/// per-switch layout that preceded the flat packed table, so they prove
/// the table wires exactly what the old layout did.
#[test]
fn staged_wiring_digests_are_pinned() {
    use baldur::topo::staged::{Staged, StagedKind};
    // Per kind, one digest per (nodes, m), nodes-major.
    const NODES: [u32; 3] = [64, 1024, 16384];
    const MS: [u32; 3] = [1, 4, 5];
    const PINNED: [(StagedKind, [&str; 9]); 3] = [
        (
            StagedKind::MultiButterfly,
            [
                "8e35f83e371f82dc3802d4ac0c2d74c8d57015276feed809ebf60b308908cf80",
                "3deb65f5cf507f695405be03b612f7e3874ae410717e0eb3e9f787043b63536d",
                "a385031c76e7b7344364886f0c2d857210dc0d38a81ed8fe91df05dbd7d115d0",
                "50ca18f07fe09f3983579c7d66e9b2e748cee53bfb03ce20e181a990cf71411b",
                "0b4afcc33ca69f30e82e2fc8c95df2585bafd543983cba43e6eb6d7aca6c2647",
                "1a670d42314a0784028718f5e459afa189ecbbdc9172c0f95ee197cac70aa8ef",
                "c640cfac42a37ddd2701ed8539687399451701a81d9e2102063a8314ef8db225",
                "8fbfc219883903b3ca6a263ec1a10e61c16cacb2e4f9f5490d6988da88e40d3c",
                "8bec894c3e31cf1a6e8938239c1e7e6e9600bed9bbc08b10550bc9d91a44d39c",
            ],
        ),
        (
            StagedKind::DilatedButterfly,
            [
                "1358cc79b5eab2a75de48e49d3c3d512dae01f78a33e09e9abd2642d7ba5a29e",
                "2e50050d0d8914b31063776fe4e66a20ba57a6951c5f349aa4ce971366d14bcd",
                "34aa681daccb81fce7e74d36d9721036c7fab6fcfd90a9d5d76b25de1d8bf1bc",
                "be01cd213eae0cdeb537892090b81d948ec08ce34e180476a9b674194e094642",
                "cd67f69ed8c3b59caaa4a9dd0d59f76216183a5d7436fcacc426391259df113d",
                "fdda6d33e7775047a9d16ec1db87cac0a53ab2508ee70686d482103cb8d7d565",
                "a95208784f8f6772d61fce0c297c42bb3f33b6aaa2faf826dd1fdaf48ce074d5",
                "c53bb47a5b00e198bffb3150aca38c8e11fcc5ae22b5c7be34819294ed9aa821",
                "d2c7192384aa78968a161024b583a8f057f4655589f88deb7beeb32210bdeb1e",
            ],
        ),
        (
            StagedKind::Omega,
            [
                "abc6867fd919a403b4c4500507533b1253013764358a22c3ade043265ce1d2c4",
                "5364f042eb13966773c3550e0d0ec64d72213c8b30ff9724ba5dfbaea4fd9fc2",
                "6743c3b045b431b36ff258723354ab4579fd0164f5de00cd494ea58e6ca4b46f",
                "14a9356c22b17b2f1cb03b8a7184b2cccc416fe0142b44e2c4268e471945bf41",
                "5ddd4dc0a6d6acc2c3e5714e6972a087b9e65ed37cbfffa3462d65db228f2337",
                "353ad81540d4d3d605052c7a7e800cebd77a6aa2edf9b24a9ea74d198b3c23cb",
                "76c7cfefb5b9a56a65c395cce6c28f24bc9061c468508706feb97b8f3b84e683",
                "733a5645effa39ee5428bbdcca7751dc7a9a735ad5e3e6c10c4a62002d3fc32e",
                "d21b3c9b367687b05817789eda245506c36a25370cc8e38114d97e3b030fd300",
            ],
        ),
    ];
    for (kind, digests) in PINNED {
        let cases = NODES.iter().flat_map(|&n| MS.iter().map(move |&m| (n, m)));
        for ((nodes, m), want) in cases.zip(digests) {
            let t = Staged::build(kind, nodes, m, 7);
            let mut bytes = Vec::new();
            for stage in 0..t.stages() - 1 {
                for switch in 0..t.switches_per_stage() {
                    for dir in 0..2 {
                        for path in 0..m {
                            let to = t.target(stage, switch, dir, path);
                            bytes.extend_from_slice(&to.switch.to_le_bytes());
                            bytes.extend_from_slice(&to.port.to_le_bytes());
                        }
                    }
                }
            }
            assert_eq!(
                baldur::hash::hex_digest(&bytes),
                want,
                "{} at {nodes} nodes, m = {m}",
                kind.name()
            );
        }
    }
}
