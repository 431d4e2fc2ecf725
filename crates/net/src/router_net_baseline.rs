//! The retired map-based electrical model, kept for differential testing.
//!
//! This is the pre-SoA implementation of `router_net` (per-router
//! `Vec<VecDeque>` input queues, per-NIC `VecDeque`s), frozen when the
//! hot state moved to struct-of-arrays. It is **not** a hot path: the
//! property suite runs seeded workloads through both models and asserts
//! byte-identical [`LatencyReport`]s. Behavioral semantics (paper Table
//! VI baselines):
//!
//! Virtual-cut-through, input-queued routers with credit-based flow
//! control: 24 KB of buffering per port split over 3 VCs, 90 ns
//! port-to-port switch latency (Mellanox SB7700), and per-output
//! round-robin arbitration. The same engine runs the electrical
//! multi-butterfly, dragonfly, and fat-tree — only the [`RoutingAlg`]
//! differs. Electrical networks are lossless: congestion backs packets up
//! through credits instead of dropping them.

use std::collections::VecDeque;

use baldur_sim::rng::StreamRng;
use baldur_sim::{Duration, Model, Scheduler, Time};
use baldur_topo::graph::{Endpoint, NodeId, RouterGraph};

use crate::config::{LinkParams, RouterParams};
use crate::driver::Driver;
use crate::faults::{nested_kill_set, FaultKind, FaultPlan};
use crate::metrics::{Collector, LatencyReport};
use crate::oracle::{Oracle, OracleConfig, Violation};
use crate::routing::{RouteState, RoutingAlg};
use crate::runner::{self, PacketModel};

type PktId = u32;

#[derive(Debug, Clone, Copy)]
struct RPacket {
    src: NodeId,
    dst: NodeId,
    generated_at: Time,
    route: RouteState,
    /// Output decision at the current router: (port, next vc).
    decision: (u32, u32),
}

struct Router {
    /// `queues[in_port * vcs + vc]` — packets buffered at this input.
    queues: Vec<VecDeque<PktId>>,
    /// `credits[out_port * vcs + vc]` — free slots downstream.
    credits: Vec<u32>,
    out_busy: Vec<Time>,
    /// Buffered packets routed to each output (adaptive-routing signal).
    out_pending: Vec<u32>,
    arb_scheduled: bool,
    rr: u32,
}

struct Nic {
    queue: VecDeque<PktId>,
    tx_busy_until: Time,
    credits: Vec<u32>,
    try_scheduled: bool,
}

/// Events of the electrical model.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Driver wakeup.
    Wake(u32),
    /// NIC attempts to inject.
    NicTry(u32),
    /// Packet head arrives at a router input.
    Arrive {
        /// Packet id.
        pkt: PktId,
        /// Router index.
        router: u32,
        /// Input port.
        port: u32,
        /// Virtual channel.
        vc: u32,
    },
    /// Run the router's allocation loop.
    Arb(u32),
    /// A buffer slot freed upstream (tail passed): return one credit.
    Credit {
        /// Upstream router (or `u32::MAX` for a NIC).
        router: u32,
        /// Port on the upstream router (or node id for a NIC).
        port: u32,
        /// VC whose slot freed.
        vc: u32,
    },
    /// Packet tail reaches the destination node.
    Deliver {
        /// Packet id.
        pkt: PktId,
        /// Destination node.
        node: u32,
    },
    /// Apply fault-plan event `idx` (scheduled at its `at_ps`).
    Fault(u32),
}

/// The electrical network simulation model.
pub struct RouterNet {
    graph: RouterGraph,
    alg: RoutingAlg,
    link: LinkParams,
    rp: RouterParams,
    driver: Driver,
    routers: Vec<Router>,
    nics: Vec<Nic>,
    packets: Vec<RPacket>,
    metrics: Collector,
    rng: StreamRng,
    vc_cap: u32,
    /// Dead routers (fault injection). The electrical baselines have no
    /// retransmission layer, so a packet reaching a dead router is a
    /// terminal loss (counted as abandoned) — the credit it held is
    /// returned upstream so the lossless machinery stays live.
    router_down: Vec<bool>,
    any_router_down: bool,
    /// The fault schedule this run executes (empty by default). Only
    /// router-granularity kinds apply here ([`FaultKind::FailFraction`],
    /// [`FaultKind::RouterDown`]/[`FaultKind::RouterUp`],
    /// [`FaultKind::ReviveAll`]); element-level kinds are Baldur-specific
    /// and ignored.
    plan: FaultPlan,
    /// Always-on runtime invariant oracle (credit balance, bounded
    /// queues, stuck-flow, drain conservation).
    oracle: Oracle,
    /// Per-source packets still owed a terminal outcome (admitted, not
    /// yet delivered or lost) — the starvation watermark's outstanding
    /// signal.
    flow_pending: Vec<u64>,
}

impl RouterNet {
    /// Builds the model.
    pub fn new(
        graph: RouterGraph,
        alg: RoutingAlg,
        link: LinkParams,
        rp: RouterParams,
        driver: Driver,
        seed: u64,
        sample_cap: usize,
    ) -> Self {
        let vc_cap = rp.vc_capacity(link.packet_bytes);
        let vcs = rp.vcs;
        let routers = (0..graph.router_count())
            .map(|r| {
                let radix = graph.radix(r) as usize;
                Router {
                    queues: vec![VecDeque::new(); radix * vcs as usize],
                    credits: vec![vc_cap; radix * vcs as usize],
                    out_busy: vec![Time::ZERO; radix],
                    out_pending: vec![0; radix],
                    arb_scheduled: false,
                    rr: 0,
                }
            })
            .collect();
        let nics = (0..driver.nodes())
            .map(|_| Nic {
                queue: VecDeque::new(),
                tx_busy_until: Time::ZERO,
                credits: vec![vc_cap; vcs as usize],
                try_scheduled: false,
            })
            .collect();
        let router_count = graph.router_count();
        let nodes = driver.nodes() as usize;
        RouterNet {
            graph,
            alg,
            link,
            rp,
            driver,
            routers,
            nics,
            packets: Vec::new(),
            metrics: Collector::new(sample_cap),
            rng: StreamRng::named(seed, "routernt", 0),
            vc_cap,
            router_down: vec![false; router_count as usize],
            any_router_down: false,
            plan: FaultPlan::new(seed),
            oracle: Oracle::new(OracleConfig::default()),
            flow_pending: vec![0; nodes],
        }
    }

    /// One admitted packet of `src` reached a terminal outcome
    /// (delivered or lost): retire it from the starvation signal.
    fn flow_done(&mut self, src: u32) {
        if let Some(p) = self.flow_pending.get_mut(src as usize) {
            *p = p.saturating_sub(1);
        }
    }

    #[inline]
    fn is_down(&self, router: u32) -> bool {
        self.any_router_down && self.router_down[router as usize]
    }

    /// Returns (to the upstream feeder of `(router, port, vc)`) the
    /// buffer credit a dropped packet held, so drops at dead routers do
    /// not bleed the credit pool dry.
    fn refund_credit(&self, now: Time, router: u32, port: u32, vc: u32, sched: &mut Scheduler<Ev>) {
        match self.graph.peer(router, port) {
            Endpoint::Router {
                router: ur,
                port: up,
            } => sched.schedule_at(
                now,
                Ev::Credit {
                    router: ur,
                    port: up,
                    vc,
                },
            ),
            Endpoint::Node(n) => sched.schedule_at(
                now,
                Ev::Credit {
                    router: u32::MAX,
                    port: n.0,
                    vc,
                },
            ),
            Endpoint::Unused => {}
        }
    }

    /// Kills `router`: every packet buffered in it becomes a terminal
    /// loss (credits refunded upstream) and everything arriving later is
    /// dropped on arrival.
    fn kill_router(&mut self, now: Time, router: u32, sched: &mut Scheduler<Ev>) {
        // A fault plan is external input; a router index outside this
        // topology is ignored rather than trusted to index.
        let Some(down) = self.router_down.get_mut(router as usize) else {
            return;
        };
        if *down {
            return;
        }
        *down = true;
        self.any_router_down = true;
        let vcs = self.rp.vcs.max(1);
        let nq = self
            .routers
            .get(router as usize)
            .map_or(0, |r| r.queues.len());
        for qi in 0..nq {
            loop {
                let Some(pkt) = self
                    .routers
                    .get_mut(router as usize)
                    .and_then(|r| r.queues.get_mut(qi))
                    .and_then(|q| q.pop_front())
                else {
                    break;
                };
                let out = self.packets.get(pkt as usize).map(|p| p.decision.0);
                match out.and_then(|o| {
                    self.routers
                        .get_mut(router as usize)
                        .and_then(|r| r.out_pending.get_mut(o as usize))
                }) {
                    Some(p) if *p > 0 => *p -= 1,
                    _ => self.oracle.record(
                        now.as_ps(),
                        Violation::CounterUnderflow {
                            counter: "out_pending".into(),
                        },
                    ),
                }
                self.metrics.on_forward_attempt(true);
                self.metrics.on_abandoned(now);
                if let Some(src) = self.packets.get(pkt as usize).map(|p| p.src.0) {
                    self.flow_done(src);
                }
                self.oracle
                    .note(now.as_ps(), "drop:kill", u64::from(pkt), u64::from(router));
                self.oracle.progress(now.as_ps());
                let in_port = qi as u32 / vcs;
                let in_vc = qi as u32 % vcs;
                self.refund_credit(now, router, in_port, in_vc, sched);
            }
        }
    }

    /// Revives `router`. Its queues were flushed at kill time and credit
    /// returns kept flowing to it while it was down ([`Ev::Credit`]
    /// increments regardless of health), so repair is exactly "clear the
    /// down flag": no credit reconstruction and no arbitration kick —
    /// the next arrival schedules arbitration as usual.
    fn revive_router(&mut self, router: u32) {
        if let Some(down) = self.router_down.get_mut(router as usize) {
            *down = false;
        }
        self.any_router_down = self.router_down.iter().any(|&d| d);
    }

    /// Applies one fault-plan event. Only router-granularity kinds act on
    /// the electrical model.
    fn apply_fault(&mut self, now: Time, kind: FaultKind, sched: &mut Scheduler<Ev>) {
        match kind {
            FaultKind::FailFraction { fraction } => {
                let dead = nested_kill_set(self.plan.seed, self.graph.router_count(), fraction);
                for (r, &d) in dead.iter().enumerate() {
                    if d {
                        self.kill_router(now, r as u32, sched);
                    }
                }
            }
            FaultKind::RouterDown { router } => self.kill_router(now, router, sched),
            FaultKind::RouterUp { router } => self.revive_router(router),
            FaultKind::ReviveAll => {
                self.router_down.iter_mut().for_each(|d| *d = false);
                self.any_router_down = false;
            }
            _ => {}
        }
    }

    fn qidx(&self, port: u32, vc: u32) -> usize {
        (port * self.rp.vcs + vc) as usize
    }

    fn schedule_arb(&mut self, router: u32, at: Time, sched: &mut Scheduler<Ev>) {
        let r = &mut self.routers[router as usize];
        if !r.arb_scheduled {
            r.arb_scheduled = true;
            sched.schedule_at(at, Ev::Arb(router));
        }
    }

    fn schedule_nic(&mut self, node: u32, at: Time, sched: &mut Scheduler<Ev>) {
        let nic = &mut self.nics[node as usize];
        if !nic.try_scheduled {
            nic.try_scheduled = true;
            sched.schedule_at(at, Ev::NicTry(node));
        }
    }

    fn apply_driver_output(
        &mut self,
        now: Time,
        node: u32,
        out: crate::driver::DriverOutput,
        sched: &mut Scheduler<Ev>,
    ) {
        let cap = self.rp.nic_queue_cap;
        for cmd in out.sends {
            for _ in 0..cmd.count {
                self.metrics.on_generated(now);
                self.metrics.note_flow_generated(node);
                if cap > 0 && self.nics[node as usize].queue.len() >= cap as usize {
                    // Admission control: the NIC queue is full, so the packet
                    // is refused at the edge and counted as an ingress drop.
                    self.metrics.on_ingress_drop(now);
                    self.oracle
                        .note(now.as_ps(), "drop:ingress", u64::from(node), 0);
                    self.oracle.progress(now.as_ps());
                    continue;
                }
                let pkt = self.packets.len() as PktId;
                self.packets.push(RPacket {
                    src: NodeId(node),
                    dst: cmd.dst,
                    generated_at: now,
                    route: RouteState::default(),
                    decision: (0, 0),
                });
                if let Some(p) = self.flow_pending.get_mut(node as usize) {
                    *p += 1;
                }
                self.nics[node as usize].queue.push_back(pkt);
                if self.rp.deadline_ps > 0 {
                    // Eager expiry: revisit the queue when this packet's
                    // age budget runs out, so the deadline is enforced
                    // even if no injection credit ever arrives to
                    // trigger an attempt. The handler is idempotent —
                    // a live head just retries injection.
                    sched.schedule_at(
                        now + Duration::from_ps(self.rp.deadline_ps),
                        Ev::NicTry(node),
                    );
                }
                self.oracle.check_occupancy(
                    now.as_ps(),
                    node,
                    self.nics[node as usize].queue.len() as u64,
                    u64::from(cap),
                );
            }
        }
        if !self.nics[node as usize].queue.is_empty() {
            self.schedule_nic(node, now, sched);
        }
        if let Some(t) = out.wake_at_ps {
            sched.schedule_at(Time::from_ps(t), Ev::Wake(node));
        }
    }

    /// Runs the allocation loop of one router; grants as many
    /// (input, output) matches as possible at `now`.
    fn arbitrate(&mut self, now: Time, router: u32, sched: &mut Scheduler<Ev>) {
        let radix = self.graph.radix(router);
        let vcs = self.rp.vcs;
        let nq = (radix * vcs) as usize;
        let ser = self.link.packet_time();
        let mut next_wakeup: Option<Time> = None;

        for out_port in 0..radix {
            let busy = self.routers[router as usize].out_busy[out_port as usize];
            if busy > now {
                next_wakeup = Some(next_wakeup.map_or(busy, |t: Time| t.min(busy)));
                continue;
            }
            // Round-robin over input queues for fairness.
            let start = self.routers[router as usize].rr as usize;
            let mut granted = false;
            for off in 0..nq {
                let qi = (start + off) % nq;
                let Some(&pkt) = self.routers[router as usize].queues[qi].front() else {
                    continue;
                };
                let (dport, dvc) = self.packets[pkt as usize].decision;
                if dport != out_port {
                    continue;
                }
                // Downstream space?
                let peer = self.graph.peer(router, out_port);
                let has_credit = match peer {
                    Endpoint::Router { .. } => {
                        self.routers[router as usize].credits[self.qidx(out_port, dvc)] > 0
                    }
                    Endpoint::Node(_) => true, // nodes always sink
                    Endpoint::Unused => {
                        // Can't happen with a correct routing table; record
                        // instead of panicking and let the stall detector
                        // surface the wedged flow.
                        self.oracle.record(
                            now.as_ps(),
                            Violation::ResidualState {
                                what: "route_to_unused_port".into(),
                                count: u64::from(router),
                            },
                        );
                        false
                    }
                };
                if !has_credit {
                    continue;
                }
                // Grant.
                let in_vc = (qi as u32) % vcs;
                let in_port = (qi as u32) / vcs;
                self.routers[router as usize].queues[qi].pop_front();
                self.routers[router as usize].out_pending[out_port as usize] -= 1;
                self.routers[router as usize].out_busy[out_port as usize] = now + ser;
                self.routers[router as usize].rr = (qi as u32 + 1) % nq as u32;

                // Return the freed input slot upstream once the tail passes.
                match self.graph.peer(router, in_port) {
                    Endpoint::Router {
                        router: ur,
                        port: up,
                    } => sched.schedule_at(
                        now + ser,
                        Ev::Credit {
                            router: ur,
                            port: up,
                            vc: in_vc,
                        },
                    ),
                    Endpoint::Node(n) => sched.schedule_at(
                        now + ser,
                        Ev::Credit {
                            router: u32::MAX,
                            port: n.0,
                            vc: in_vc,
                        },
                    ),
                    Endpoint::Unused => {}
                }

                // Launch downstream.
                let hop = Duration::from_ps(self.rp.switch_latency_ps)
                    + Duration::from_ps(self.graph.delay(router, out_port));
                match peer {
                    Endpoint::Router {
                        router: dr,
                        port: dp,
                    } => {
                        let idx = self.qidx(out_port, dvc);
                        self.routers[router as usize].credits[idx] -= 1;
                        sched.schedule_at(
                            now + hop,
                            Ev::Arrive {
                                pkt,
                                router: dr,
                                port: dp,
                                vc: dvc,
                            },
                        );
                    }
                    Endpoint::Node(n) => {
                        sched.schedule_at(now + hop + ser, Ev::Deliver { pkt, node: n.0 });
                    }
                    Endpoint::Unused => {} // filtered by has_credit above
                }
                granted = true;
                break;
            }
            if granted {
                // This output is now busy until now+ser; revisit then if
                // more traffic waits.
                let t = now + ser;
                next_wakeup = Some(next_wakeup.map_or(t, |x: Time| x.min(t)));
            }
        }
        if let Some(t) = next_wakeup {
            self.schedule_arb(router, t, sched);
        }
    }
}

impl Model for RouterNet {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Wake(node) => {
                let out = self.driver.wakeup(node, now.as_ps());
                self.apply_driver_output(now, node, out, sched);
            }
            Ev::NicTry(node) => {
                self.nics[node as usize].try_scheduled = false;
                // Deadline check at the head of the queue: the NIC FIFO
                // is ordered by admission time, so stale heads are shed
                // here — expiring a packet burns no transmit slot, and
                // under sustained overload it keeps the bounded queue
                // from hoarding work nobody is waiting for anymore.
                let deadline = self.rp.deadline_ps;
                if deadline > 0 {
                    while let Some(&head) = self.nics[node as usize].queue.front() {
                        let age = now.since(self.packets[head as usize].generated_at);
                        if age.as_ps() < deadline {
                            break;
                        }
                        self.nics[node as usize].queue.pop_front();
                        let src = self.packets[head as usize].src.0;
                        self.metrics.on_expired(now);
                        self.flow_done(src);
                        self.oracle.note(
                            now.as_ps(),
                            "expire:nic",
                            u64::from(head),
                            u64::from(src),
                        );
                        self.oracle.progress(now.as_ps());
                    }
                }
                let Some(&pkt) = self.nics[node as usize].queue.front() else {
                    return;
                };
                let busy = self.nics[node as usize].tx_busy_until;
                if busy > now {
                    self.schedule_nic(node, busy, sched);
                    return;
                }
                let vc = self.alg.injection_vc(u64::from(pkt));
                if self.nics[node as usize].credits[vc as usize] == 0 {
                    // Wait for a credit event to re-trigger.
                    return;
                }
                self.nics[node as usize].queue.pop_front();
                self.nics[node as usize].credits[vc as usize] -= 1;
                let ser = self.link.packet_time();
                self.nics[node as usize].tx_busy_until = now + ser;
                if !self.nics[node as usize].queue.is_empty() {
                    self.schedule_nic(node, now + ser, sched);
                }
                let (router, port) = self.graph.node_attach[node as usize];
                // UGAL decision happens at the source router's state.
                let mut route = RouteState::default();
                {
                    let pending: &[u32] = &self.routers[router as usize].out_pending;
                    self.alg.on_inject(
                        router,
                        NodeId(node),
                        self.packets[pkt as usize].dst,
                        &mut route,
                        &pending,
                        &mut self.rng,
                    );
                }
                self.packets[pkt as usize].route = route;
                self.metrics.on_injection();
                let delay = Duration::from_ps(self.graph.delay(router, port));
                sched.schedule_at(
                    now + delay,
                    Ev::Arrive {
                        pkt,
                        router,
                        port,
                        vc,
                    },
                );
            }
            Ev::Arrive {
                pkt,
                router,
                port,
                vc,
            } => {
                // A dead router eats the packet; with no retransmission
                // layer in the electrical model this is a terminal loss.
                if self.is_down(router) {
                    self.metrics.on_forward_attempt(true);
                    self.metrics.on_abandoned(now);
                    if let Some(src) = self.packets.get(pkt as usize).map(|p| p.src.0) {
                        self.flow_done(src);
                    }
                    self.oracle
                        .note(now.as_ps(), "drop:dead", u64::from(pkt), u64::from(router));
                    self.oracle.progress(now.as_ps());
                    self.refund_credit(now, router, port, vc, sched);
                    return;
                }
                // Deadline check on arrival: a packet whose age passed
                // the budget expires at the next router it reaches (the
                // same credit-refund path a dead-router drop takes), so
                // in-network staleness is bounded by one hop time. The
                // drained buffer slot goes back upstream; without this,
                // a storm's backlog spends post-storm bandwidth
                // delivering packets nobody is waiting for anymore.
                let deadline = self.rp.deadline_ps;
                if deadline > 0
                    && now.since(self.packets[pkt as usize].generated_at).as_ps() >= deadline
                {
                    self.metrics.on_forward_attempt(true);
                    self.metrics.on_expired(now);
                    if let Some(src) = self.packets.get(pkt as usize).map(|p| p.src.0) {
                        self.flow_done(src);
                    }
                    self.oracle
                        .note(now.as_ps(), "expire:hop", u64::from(pkt), u64::from(router));
                    self.oracle.progress(now.as_ps());
                    self.refund_credit(now, router, port, vc, sched);
                    return;
                }
                // Compute the forwarding decision once, on arrival.
                let dst = self.packets[pkt as usize].dst;
                let mut route = self.packets[pkt as usize].route;
                let decision = {
                    let pending: &[u32] = &self.routers[router as usize].out_pending;
                    self.alg.route(
                        &self.graph,
                        router,
                        u64::from(pkt),
                        dst,
                        &mut route,
                        &pending,
                    )
                };
                self.packets[pkt as usize].route = route;
                self.packets[pkt as usize].decision = decision;
                let qi = self.qidx(port, vc);
                self.routers[router as usize].queues[qi].push_back(pkt);
                // Credit flow control bounds every input queue by the VC
                // capacity; growth past it means a credit was minted.
                let len = self.routers[router as usize].queues[qi].len() as u64;
                if len > u64::from(self.vc_cap) {
                    self.oracle.record(
                        now.as_ps(),
                        Violation::QueueOverflow {
                            router,
                            queue: qi as u32,
                            len,
                            bound: u64::from(self.vc_cap),
                        },
                    );
                }
                self.routers[router as usize].out_pending[decision.0 as usize] += 1;
                self.metrics.on_forward_attempt(false);
                self.schedule_arb(router, now, sched);
            }
            Ev::Arb(router) => {
                self.routers[router as usize].arb_scheduled = false;
                if self.is_down(router) {
                    return; // its queues were flushed at kill time
                }
                self.arbitrate(now, router, sched);
            }
            Ev::Credit { router, port, vc } => {
                let cap = self.vc_cap;
                if router == u32::MAX {
                    let node = port;
                    match self
                        .nics
                        .get_mut(node as usize)
                        .and_then(|n| n.credits.get_mut(vc as usize))
                    {
                        Some(c) if *c < cap => *c += 1,
                        Some(c) => {
                            // A credit beyond capacity was minted somewhere:
                            // cap it (keeps the run live) and report.
                            let credits = c.saturating_add(1);
                            self.oracle.record(
                                now.as_ps(),
                                Violation::CreditOverflow {
                                    router: u32::MAX,
                                    port: node,
                                    credits,
                                    cap,
                                },
                            );
                        }
                        None => self.oracle.record(
                            now.as_ps(),
                            Violation::CounterUnderflow {
                                counter: "nic_credit_target".into(),
                            },
                        ),
                    }
                    if self
                        .nics
                        .get(node as usize)
                        .is_some_and(|n| !n.queue.is_empty())
                    {
                        self.schedule_nic(node, now, sched);
                    }
                } else {
                    let idx = self.qidx(port, vc);
                    match self
                        .routers
                        .get_mut(router as usize)
                        .and_then(|r| r.credits.get_mut(idx))
                    {
                        Some(c) if *c < cap => *c += 1,
                        Some(c) => {
                            let credits = c.saturating_add(1);
                            self.oracle.record(
                                now.as_ps(),
                                Violation::CreditOverflow {
                                    router,
                                    port,
                                    credits,
                                    cap,
                                },
                            );
                        }
                        None => self.oracle.record(
                            now.as_ps(),
                            Violation::CounterUnderflow {
                                counter: "router_credit_target".into(),
                            },
                        ),
                    }
                    self.schedule_arb(router, now, sched);
                }
            }
            Ev::Deliver { pkt, node } => {
                let latency = now.since(self.packets[pkt as usize].generated_at);
                self.metrics.on_delivered(latency, now);
                let src = self.packets[pkt as usize].src.0;
                self.metrics.note_flow_delivered(src);
                self.flow_done(src);
                self.oracle.progress(now.as_ps());
                let out = self.driver.delivered(node, now.as_ps());
                self.apply_driver_output(now, node, out, sched);
            }
            Ev::Fault(idx) => {
                if let Some(ev) = self.plan.events.get(idx as usize).copied() {
                    self.apply_fault(now, ev.kind, sched);
                    self.oracle.note(now.as_ps(), "fault", u64::from(idx), 0);
                }
            }
        }
    }
}

impl PacketModel for RouterNet {
    fn wake(node: u32) -> Ev {
        Ev::Wake(node)
    }

    fn fault(idx: u32) -> Ev {
        Ev::Fault(idx)
    }

    fn default_horizon_ns(&self, total_packets: u64) -> u64 {
        let per_node = total_packets / u64::from(self.driver.nodes().max(1)) + 1;
        100 * per_node * self.link.packet_time().as_ps() / 1_000 + 50_000_000
    }

    fn instruments(&mut self) -> (&mut Collector, &mut Oracle, &mut FaultPlan) {
        (&mut self.metrics, &mut self.oracle, &mut self.plan)
    }

    /// Finalizes the run.
    fn into_report(self, end: Time) -> LatencyReport {
        let mut r = self.metrics.report(end);
        r.oracle = self.oracle.summary();
        r
    }

    /// Periodic oracle tick from the engine's observer hook: the number
    /// of packets still owed a terminal outcome feeds the stuck-flow
    /// detector. Returns `true` when the run should abort.
    fn oracle_tick(&mut self, now: Time) -> bool {
        let outstanding = self
            .metrics
            .generated()
            .saturating_sub(self.metrics.delivered())
            .saturating_sub(self.metrics.abandoned())
            .saturating_sub(self.metrics.expired())
            .saturating_sub(self.metrics.ingress_drops());
        self.oracle.check_starvation(
            now.as_ps(),
            self.metrics.flow_delivered_counts(),
            &self.flow_pending,
        );
        self.oracle.check_stall(now.as_ps(), outstanding)
    }

    /// Release-build drain audit: with the event queue empty every packet
    /// must have a terminal outcome, every queue must be empty, and every
    /// credit counter must be back at capacity — including after
    /// kill/revive cycles, because kills flush queues with upstream
    /// refunds and credits keep returning to dead routers.
    fn oracle_check_drained(&mut self, end: Time) {
        let at = end.as_ps();
        self.oracle.check_ledger(at, &self.metrics, None);
        let cap = self.vc_cap;
        for (r, router) in self.routers.iter().enumerate() {
            let queued: u64 = router.queues.iter().map(|q| q.len() as u64).sum();
            if queued > 0 {
                self.oracle.record(
                    at,
                    Violation::ResidualState {
                        what: format!("router[{r}].queues"),
                        count: queued,
                    },
                );
            }
            for (idx, &c) in router.credits.iter().enumerate() {
                if c != cap {
                    self.oracle.record(
                        at,
                        Violation::CreditLeak {
                            element: "router".into(),
                            index: r as u32,
                            port: idx as u32,
                            credits: c,
                            cap,
                        },
                    );
                }
            }
        }
        for (n, nic) in self.nics.iter().enumerate() {
            if !nic.queue.is_empty() {
                self.oracle.record(
                    at,
                    Violation::ResidualState {
                        what: format!("nic[{n}].queue"),
                        count: nic.queue.len() as u64,
                    },
                );
            }
            for (vc, &c) in nic.credits.iter().enumerate() {
                if c != cap {
                    self.oracle.record(
                        at,
                        Violation::CreditLeak {
                            element: "nic".into(),
                            index: n as u32,
                            port: vc as u32,
                            credits: c,
                            cap,
                        },
                    );
                }
            }
        }
    }
}

/// Runs the retired model executing a [`FaultPlan`] — the
/// `run_baseline` entry point the differential tests compare against
/// `router_net::simulate_plan`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_plan(
    graph: RouterGraph,
    alg: RoutingAlg,
    link: LinkParams,
    rp: RouterParams,
    driver: Driver,
    seed: u64,
    horizon_ns: Option<u64>,
    plan: &FaultPlan,
) -> LatencyReport {
    runner::simulate(
        driver,
        horizon_ns,
        plan,
        OracleConfig::default(),
        |driver, cap| RouterNet::new(graph, alg, link, rp, driver, seed, cap),
    )
    .0
}
