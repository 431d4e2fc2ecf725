//! The retired map-based Baldur model, kept for differential testing.
//!
//! This is the pre-SoA implementation of `baldur_net` (per-NIC
//! `BTreeMap` pending-ACK and ACK-batch maps, per-node `VecDeque`
//! queues, `Vec<Vec<Time>>` port state), frozen when the hot state moved
//! to struct-of-arrays. It is **not** a hot path: the property suite
//! runs seeded workloads through both models and asserts byte-identical
//! [`LatencyReport`]s — the same retained-baseline pattern the codecs
//! use. Behavioral semantics (paper Sec. IV-E, V):
//!
//! Bufferless, cut-through, drop-and-retransmit:
//!
//! * every switch output port is modelled by a `busy_until` time; a packet
//!   head arriving at a switch checks the `m` ports of its routing
//!   direction *sequentially* (the paper's arbitration) and claims the
//!   first idle one, else the packet is **dropped**;
//! * sources keep unACKed packets in a retransmission buffer; a timeout
//!   with binary exponential backoff re-injects them; receivers ACK every
//!   delivery (ACKs traverse the network and can themselves be dropped —
//!   the source then retransmits and the receiver de-duplicates);
//! * latency charged per hop: `switch_latency` (Table V, 1.5 ns at m=4)
//!   plus a small same-cabinet stage delay; node↔network fibers add the
//!   Table VI 100 ns each way.

use std::collections::{BTreeMap, VecDeque};

use baldur_sim::rng::StreamRng;
use baldur_sim::{Duration, Model, Scheduler, Time};
use baldur_topo::graph::NodeId;
use baldur_topo::staged::Staged;

use crate::config::{BaldurParams, LinkParams};
use crate::driver::Driver;
use crate::faults::{jittered_timeout_ps, FaultPlan, FaultState};
use crate::metrics::{Collector, DeliveryOutcome, LatencyReport, OutcomeTally};
use crate::oracle::{Oracle, OracleConfig, Violation};
use crate::runner::{self, PacketModel};

/// Index into the packet table.
type PktId = u32;

#[derive(Debug, Clone, Copy)]
struct PacketState {
    src: NodeId,
    dst: NodeId,
    generated_at: Time,
    attempts: u32,
    outcome: DeliveryOutcome,
    acked: bool,
    /// The retransmission-buffer slot was given back (first ACK or retry
    /// exhaustion — whichever comes first). Guards the `outstanding`
    /// decrement so a repair racing a backoff retry (ACK arriving after
    /// the source already gave up, or after a delivered packet's timers
    /// exhausted) cannot release the same slot twice.
    released: bool,
    /// For ACK packets, the data packet being acknowledged.
    acks: Option<PktId>,
}

#[derive(Debug)]
struct Nic {
    tx_busy_until: Time,
    /// ACKs are urgent (they gate the partner's buffer), so they queue
    /// ahead of data.
    ack_queue: VecDeque<PktId>,
    data_queue: VecDeque<PktId>,
    try_scheduled: bool,
    outstanding: u32,
    backoff_exp: u32,
    /// Packets injected and awaiting their first buffer-slot release
    /// (ACK, give-up, or expiry). Source-side admission pacing defers
    /// *first* injections while this reaches
    /// `BaldurParams::pacing_window`; maintained only when pacing is on.
    in_window: u32,
    /// ACK coalescing: per source, data packets awaiting a combined ACK
    /// (the bool marks a pending flush event). Ordered so no iteration
    /// order can leak into results.
    pending_acks: BTreeMap<u32, (Vec<PktId>, bool)>,
}

impl Nic {
    fn new() -> Self {
        Nic {
            tx_busy_until: Time::ZERO,
            ack_queue: VecDeque::new(),
            data_queue: VecDeque::new(),
            try_scheduled: false,
            outstanding: 0,
            backoff_exp: 0,
            in_window: 0,
            pending_acks: BTreeMap::new(),
        }
    }

    fn pop(&mut self) -> Option<PktId> {
        self.ack_queue
            .pop_front()
            .or_else(|| self.data_queue.pop_front())
    }

    fn is_empty(&self) -> bool {
        self.ack_queue.is_empty() && self.data_queue.is_empty()
    }
}

/// Events of the Baldur model.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Driver wakeup for a node.
    Wake(u32),
    /// NIC should try to transmit.
    TryInject(u32),
    /// A packet head arrives at a switch of `stage`.
    Hop {
        /// Packet id.
        pkt: PktId,
        /// Stage index.
        stage: u32,
        /// Switch index within the stage.
        switch: u32,
    },
    /// A packet tail arrives at its destination node.
    Arrive {
        /// Packet id.
        pkt: PktId,
    },
    /// Retransmission timer for a data packet.
    Timeout {
        /// Packet id.
        pkt: PktId,
        /// The attempt this timer was armed for (stale timers no-op).
        attempt: u32,
    },
    /// Coalescing window expired: flush the combined ACK `node` owes
    /// `src`.
    AckFlush {
        /// The receiver holding the pending ACKs.
        node: u32,
        /// The data source being acknowledged.
        src: u32,
    },
    /// Apply fault-plan event `idx` (scheduled at its `at_ps`).
    Fault(u32),
}

/// The Baldur network simulation model.
pub struct BaldurNet {
    topo: Staged,
    params: BaldurParams,
    link: LinkParams,
    driver: Driver,
    active_nodes: u32,
    /// `ports[stage][switch * 2m + dir * m + path]` → busy-until.
    ports: Vec<Vec<Time>>,
    nics: Vec<Nic>,
    packets: Vec<PacketState>,
    metrics: Collector,
    in_flight: u64,
    /// Live fault state (switches, links, lasers, bit-error bursts); all
    /// healthy by default, driven by [`Ev::Fault`] events from `plan`.
    fstate: FaultState,
    /// The fault schedule this run executes (empty by default).
    plan: FaultPlan,
    /// Seed for retry-timeout jitter (the run seed).
    seed: u64,
    /// Coin flips for bit-error bursts; only drawn while a burst is
    /// active, so fault-free runs stay bit-identical.
    fault_rng: StreamRng,
    /// For combined ACK packets: every data packet they acknowledge.
    /// Ordered for the same determinism reason as `pending_acks`.
    ack_refs: BTreeMap<PktId, Vec<PktId>>,
    /// The always-on invariant oracle (release builds included); its
    /// summary rides on the run's report.
    oracle: Oracle,
}

impl BaldurNet {
    /// Builds the model over a topology sized for `active_nodes` servers.
    pub fn new(
        active_nodes: u32,
        params: BaldurParams,
        link: LinkParams,
        driver: Driver,
        seed: u64,
        sample_cap: usize,
    ) -> Self {
        let topo_nodes = active_nodes.next_power_of_two().max(4);
        let topo = Staged::build(params.staged_kind(), topo_nodes, params.multiplicity, seed);
        let m = params.multiplicity as usize;
        let ports = (0..topo.stages())
            .map(|_| vec![Time::ZERO; topo.switches_per_stage() as usize * 2 * m])
            .collect();
        let nics = (0..active_nodes).map(|_| Nic::new()).collect();
        let fstate = FaultState::healthy(
            topo.stages(),
            topo.switches_per_stage(),
            params.multiplicity,
            active_nodes,
        );
        BaldurNet {
            topo,
            params,
            link,
            driver,
            active_nodes,
            ports,
            nics,
            packets: Vec::new(),
            metrics: Collector::new(sample_cap),
            in_flight: 0,
            fstate,
            plan: FaultPlan::new(seed),
            seed,
            fault_rng: StreamRng::named(seed, "biterror", 0),
            ack_refs: BTreeMap::new(),
            oracle: Oracle::new(OracleConfig::default()),
        }
    }

    fn duration_of(&self, pkt: PktId) -> Duration {
        if self.packets[pkt as usize].acks.is_some() {
            self.link.ack_time()
        } else {
            self.link.packet_time()
        }
    }

    fn port_index(&self, switch: u32, dir: u32, path: u32) -> usize {
        let m = self.params.multiplicity;
        (switch * 2 * m + dir * m + path) as usize
    }

    fn enqueue(&mut self, now: Time, node: u32, pkt: PktId, sched: &mut Scheduler<Ev>) {
        let nic = &mut self.nics[node as usize];
        if self.packets[pkt as usize].acks.is_some() {
            nic.ack_queue.push_back(pkt);
        } else {
            nic.data_queue.push_back(pkt);
        }
        if !nic.try_scheduled {
            nic.try_scheduled = true;
            sched.schedule_at(now.max(nic.tx_busy_until), Ev::TryInject(node));
        }
    }

    fn apply_driver_output(
        &mut self,
        now: Time,
        node: u32,
        out: crate::driver::DriverOutput,
        sched: &mut Scheduler<Ev>,
    ) {
        let cap = self.params.ingress_cap;
        for cmd in out.sends {
            for _ in 0..cmd.count {
                // Admission control: a bounded ingress queue refuses new
                // packets while the source already holds `ingress_cap`
                // unreleased packets (queued or unACKed — every queued
                // data packet is unreleased, so this bounds the queue
                // too). Refused packets are counted, never stored: they
                // take no table slot, no buffer slot, no timer.
                if cap > 0 && self.nics[node as usize].outstanding >= cap {
                    self.metrics.on_generated(now);
                    self.metrics.note_flow_generated(node);
                    self.metrics.on_ingress_drop(now);
                    self.oracle
                        .note(now.as_ps(), "drop:ingress", u64::from(node), 0);
                    continue;
                }
                let pkt = self.packets.len() as PktId;
                self.packets.push(PacketState {
                    src: NodeId(node),
                    dst: cmd.dst,
                    generated_at: now,
                    attempts: 0,
                    outcome: DeliveryOutcome::Pending,
                    acked: false,
                    released: false,
                    acks: None,
                });
                self.metrics.on_generated(now);
                self.metrics.note_flow_generated(node);
                self.nics[node as usize].outstanding += 1;
                self.note_buffer(node);
                self.enqueue(now, node, pkt, sched);
                let len = self.nics[node as usize].data_queue.len() as u64;
                self.oracle
                    .check_occupancy(now.as_ps(), node, len, u64::from(cap));
            }
        }
        if let Some(t) = out.wake_at_ps {
            sched.schedule_at(Time::from_ps(t), Ev::Wake(node));
        }
    }

    /// Creates (and enqueues) one ACK packet from `node` back to `src`
    /// acknowledging every data packet in `batch`.
    fn send_ack(
        &mut self,
        now: Time,
        node: u32,
        src: u32,
        batch: Vec<PktId>,
        sched: &mut Scheduler<Ev>,
    ) {
        let first = batch[0];
        let ack = self.packets.len() as PktId;
        self.packets.push(PacketState {
            src: NodeId(node),
            dst: NodeId(src),
            generated_at: now,
            attempts: 0,
            outcome: DeliveryOutcome::Pending,
            acked: false,
            released: false,
            acks: Some(first),
        });
        if batch.len() > 1 {
            self.ack_refs.insert(ack, batch);
        }
        self.enqueue(now, node, ack, sched);
    }

    /// Takes a packet out of flight (delivery or drop). An underflow is
    /// recorded as an oracle violation (and the decrement skipped)
    /// instead of wrapping.
    fn dec_in_flight(&mut self, now: Time) {
        if self.in_flight == 0 {
            self.oracle.record(
                now.as_ps(),
                Violation::CounterUnderflow {
                    counter: "in_flight".into(),
                },
            );
            return;
        }
        self.in_flight -= 1;
    }

    /// Gives `node`'s retransmission-buffer slot for one packet back,
    /// with oracle-checked (never wrapping) arithmetic.
    fn release_outstanding(&mut self, now: Time, node: u32) {
        match self.nics.get_mut(node as usize) {
            Some(nic) if nic.outstanding > 0 => nic.outstanding -= 1,
            _ => self.oracle.record(
                now.as_ps(),
                Violation::CounterUnderflow {
                    counter: "outstanding".into(),
                },
            ),
        }
    }

    /// Closes one admission-pacing window slot for `node` (the packet's
    /// first buffer-slot release: ACK, give-up, or expiry). No-op when
    /// pacing is off, so the counter costs nothing on the paper path.
    fn release_window(&mut self, node: u32) {
        if self.params.pacing_window == 0 {
            return;
        }
        if let Some(nic) = self.nics.get_mut(node as usize) {
            nic.in_window = nic.in_window.saturating_sub(1);
        }
    }

    fn note_buffer(&mut self, node: u32) {
        let bytes =
            u64::from(self.nics[node as usize].outstanding) * u64::from(self.link.packet_bytes);
        self.metrics.on_retx_buffer(bytes);
    }
}

impl Model for BaldurNet {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Wake(node) => {
                let out = self.driver.wakeup(node, now.as_ps());
                self.apply_driver_output(now, node, out, sched);
            }
            Ev::TryInject(node) => {
                let nic = &mut self.nics[node as usize];
                nic.try_scheduled = false;
                if nic.is_empty() {
                    return;
                }
                if nic.tx_busy_until > now {
                    nic.try_scheduled = true;
                    let at = nic.tx_busy_until;
                    sched.schedule_at(at, Ev::TryInject(node));
                    return;
                }
                // `is_empty` was just checked, so the pop always succeeds;
                // the else arm keeps the handler panic-free regardless.
                let Some(mut pkt) = nic.pop() else { return };
                // Deadline check at the head of the queue: a data packet
                // that aged out while waiting for its (first or retry)
                // injection slot expires here, without burning the slot —
                // queue wait is the dominant staleness under overload and
                // carries no retry timer that could catch it.
                let deadline = self.params.deadline_ps;
                if deadline > 0
                    && self.packets[pkt as usize].acks.is_none()
                    && self.packets[pkt as usize].outcome == DeliveryOutcome::Pending
                    && now.since(self.packets[pkt as usize].generated_at).as_ps() >= deadline
                {
                    let src = self.packets[pkt as usize].src.0;
                    let in_window = self.packets[pkt as usize].attempts > 0;
                    self.packets[pkt as usize].outcome = DeliveryOutcome::Expired;
                    self.metrics.on_expired(now);
                    self.oracle
                        .note(now.as_ps(), "expire", u64::from(pkt), u64::from(src));
                    self.oracle.progress(now.as_ps());
                    if !self.packets[pkt as usize].released {
                        self.packets[pkt as usize].released = true;
                        self.release_outstanding(now, src);
                        if in_window {
                            self.release_window(src);
                        }
                    }
                    let nic = &mut self.nics[node as usize];
                    if !nic.is_empty() {
                        nic.try_scheduled = true;
                        sched.schedule_at(now, Ev::TryInject(node));
                    }
                    return;
                }
                // Source-side admission pacing: a *first* injection waits
                // while `pacing_window` packets are already out awaiting
                // their first release. Retransmissions and ACKs bypass
                // (they are the recovery path), and every in-window
                // packet carries a timer, so the poll always terminates.
                let pw = self.params.pacing_window;
                if pw > 0
                    && self.packets[pkt as usize].acks.is_none()
                    && self.packets[pkt as usize].attempts == 0
                    && self.nics[node as usize].in_window >= pw
                {
                    // A queued retransmission must jump a deferred head:
                    // it is what releases the window, so parking it behind
                    // the deferral would deadlock the NIC.
                    let bypass = self.nics[node as usize].data_queue.iter().position(|&q| {
                        self.packets.get(q as usize).is_some_and(|p| p.attempts > 0)
                    });
                    let nic = &mut self.nics[node as usize];
                    nic.data_queue.push_front(pkt);
                    match bypass.and_then(|pos| nic.data_queue.remove(pos + 1)) {
                        Some(retx) => pkt = retx,
                        None => {
                            nic.try_scheduled = true;
                            sched.schedule_at(now + self.link.packet_time(), Ev::TryInject(node));
                            return;
                        }
                    }
                }
                let dur = self.duration_of(pkt);
                let nic = &mut self.nics[node as usize];
                nic.tx_busy_until = now + dur;
                if !nic.is_empty() {
                    nic.try_scheduled = true;
                    let at = nic.tx_busy_until;
                    sched.schedule_at(at, Ev::TryInject(node));
                }
                let st = &mut self.packets[pkt as usize];
                if st.acks.is_none() {
                    st.attempts += 1;
                    let attempt = st.attempts;
                    if attempt == 1 && self.params.pacing_window > 0 {
                        self.nics[node as usize].in_window += 1;
                    }
                    let backoff = self.nics[node as usize].backoff_exp;
                    let to = Duration::from_ps(jittered_timeout_ps(
                        &self.params,
                        self.seed,
                        pkt,
                        attempt,
                        backoff,
                    ));
                    sched.schedule_at(now + dur + to, Ev::Timeout { pkt, attempt });
                }
                // A dead transmit laser eats the frame at the source: the
                // NIC still burned the serialization slot (and, for data,
                // armed its retry timer — the recovery path), but nothing
                // enters the fabric.
                if !self.fstate.is_all_healthy() && self.fstate.laser_is_down(node) {
                    self.metrics.on_laser_loss();
                    self.oracle
                        .note(now.as_ps(), "drop:laser", u64::from(pkt), u64::from(node));
                    self.ack_refs.remove(&pkt);
                    return;
                }
                // Head reaches the first-stage switch after the ingress
                // fiber.
                let switch = self.topo.ingress_switch(self.packets[pkt as usize].src);
                self.metrics.on_injection();
                self.in_flight += 1;
                sched.schedule_at(
                    now + Duration::from_ps(self.params.link_delay_ps),
                    Ev::Hop {
                        pkt,
                        stage: 0,
                        switch,
                    },
                );
            }
            Ev::Hop { pkt, stage, switch } => {
                let healthy = self.fstate.is_all_healthy();
                if !healthy && self.fstate.switch_is_down(stage, switch) {
                    self.metrics.on_forward_attempt(true);
                    self.oracle
                        .note(now.as_ps(), "drop:switch", u64::from(pkt), u64::from(stage));
                    self.dec_in_flight(now);
                    // ACKs are never retransmitted, so a dropped combined
                    // ACK must release its batch references here.
                    self.ack_refs.remove(&pkt);
                    return; // a dead switch eats the packet
                }
                let dst = self.packets[pkt as usize].dst;
                let dir = self.topo.direction(dst, stage);
                let dur = self.duration_of(pkt);
                // Sequential path arbitration: first idle port wins. With
                // the path-rotation extension the scan start varies per
                // attempt so retries explore all m paths.
                let m = self.params.multiplicity;
                let start = if self.params.path_rotation {
                    // SplitMix-style mixing so every (packet, attempt)
                    // pair explores an independent per-stage path vector.
                    let st = &self.packets[pkt as usize];
                    let mut h = (u64::from(pkt) << 32) ^ u64::from(st.attempts);
                    h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    ((h >> (stage % 8 * 8)) % u64::from(m)) as u32
                } else {
                    0
                };
                let mut claimed = None;
                for k in 0..m {
                    let path = (start + k) % m;
                    // A failed link looks like a permanently busy port:
                    // the scan skips it, shifting traffic onto the
                    // direction's surviving paths.
                    if !healthy && self.fstate.link_is_down(stage, switch, dir, path) {
                        continue;
                    }
                    let idx = self.port_index(switch, dir, path);
                    if self.ports[stage as usize][idx] <= now {
                        self.ports[stage as usize][idx] = now + dur;
                        claimed = Some(path);
                        break;
                    }
                }
                match claimed {
                    None => {
                        self.metrics.on_forward_attempt(true);
                        self.oracle.note(
                            now.as_ps(),
                            "drop:port",
                            u64::from(pkt),
                            u64::from(stage),
                        );
                        self.dec_in_flight(now);
                        self.ack_refs.remove(&pkt);
                        // Dropped: the source's timeout handles recovery.
                    }
                    Some(path) => {
                        // During a bit-error burst the traversal can
                        // corrupt the packet (the port was still burned);
                        // the destination NIC's CRC discards it and the
                        // source timeout recovers, like any drop.
                        if !healthy {
                            let p = self.fstate.corruption_prob(now.as_ps());
                            if p > 0.0 && self.fault_rng.gen_bool(p) {
                                self.metrics.on_corrupted();
                                self.metrics.on_forward_attempt(true);
                                self.oracle.note(
                                    now.as_ps(),
                                    "drop:crc",
                                    u64::from(pkt),
                                    u64::from(stage),
                                );
                                self.dec_in_flight(now);
                                self.ack_refs.remove(&pkt);
                                return;
                            }
                        }
                        self.metrics.on_forward_attempt(false);
                        let hop_delay = Duration::from_ps(
                            self.params.switch_latency_ps + self.params.stage_delay_ps,
                        );
                        if stage + 1 == self.topo.stages() {
                            // Egress: tail arrives after the fiber plus
                            // serialization.
                            let at = now
                                + hop_delay
                                + Duration::from_ps(self.params.link_delay_ps)
                                + dur;
                            sched.schedule_at(at, Ev::Arrive { pkt });
                        } else {
                            let target = self.topo.target(stage, switch, dir, path);
                            sched.schedule_at(
                                now + hop_delay,
                                Ev::Hop {
                                    pkt,
                                    stage: stage + 1,
                                    switch: target.switch,
                                },
                            );
                        }
                    }
                }
            }
            Ev::Arrive { pkt } => {
                self.dec_in_flight(now);
                let (is_ack, dst, src) = {
                    let st = &self.packets[pkt as usize];
                    (st.acks, st.dst, st.src)
                };
                match is_ack {
                    Some(data_pkt) => {
                        // ACK arrived back at the data source; a combined
                        // ACK settles its whole batch.
                        let batch = self.ack_refs.remove(&pkt).unwrap_or_else(|| vec![data_pkt]);
                        for data_pkt in batch {
                            let data = &mut self.packets[data_pkt as usize];
                            if !data.acked {
                                data.acked = true;
                                // A slot already given back by retry
                                // exhaustion (repair racing a backoff
                                // retry: the packet gave up, then a late
                                // copy delivered and this ACK returned)
                                // must not be released twice.
                                let release = !data.released;
                                data.released = true;
                                if release {
                                    self.release_outstanding(now, dst.0);
                                    self.release_window(dst.0);
                                    // Successful round trip relaxes the
                                    // backoff.
                                    let src_nic = &mut self.nics[dst.0 as usize];
                                    src_nic.backoff_exp = src_nic.backoff_exp.saturating_sub(1);
                                }
                            }
                        }
                    }
                    None => {
                        let first = self.packets[pkt as usize].outcome == DeliveryOutcome::Pending;
                        if first {
                            self.packets[pkt as usize].outcome = DeliveryOutcome::Delivered;
                            let latency = now.since(self.packets[pkt as usize].generated_at);
                            self.metrics.on_delivered(latency, now);
                            self.metrics.note_flow_delivered(src.0);
                            self.oracle.note(
                                now.as_ps(),
                                "deliver",
                                u64::from(pkt),
                                u64::from(dst.0),
                            );
                            self.oracle.progress(now.as_ps());
                            let out = self.driver.delivered(dst.0, now.as_ps());
                            self.apply_driver_output(now, dst.0, out, sched);
                        }
                        // ACK every arrival (covers lost-ACK duplicates) —
                        // immediately, or batched per source when traffic
                        // combining is on.
                        let window = self.params.ack_coalesce_ps;
                        if window == 0 {
                            self.send_ack(now, dst.0, src.0, vec![pkt], sched);
                        } else {
                            let entry = self.nics[dst.0 as usize]
                                .pending_acks
                                .entry(src.0)
                                .or_insert_with(|| (Vec::new(), false));
                            entry.0.push(pkt);
                            if !entry.1 {
                                entry.1 = true;
                                sched.schedule_in(
                                    Duration::from_ps(window),
                                    Ev::AckFlush {
                                        node: dst.0,
                                        src: src.0,
                                    },
                                );
                            }
                        }
                    }
                }
            }
            Ev::AckFlush { node, src } => {
                let Some((batch, _)) = self.nics[node as usize].pending_acks.remove(&src) else {
                    return;
                };
                if !batch.is_empty() {
                    self.send_ack(now, node, src, batch, sched);
                }
            }
            Ev::Timeout { pkt, attempt } => {
                let st = self.packets[pkt as usize];
                if st.acked || st.attempts != attempt || st.acks.is_some() {
                    return; // stale timer
                }
                // Deadline-aware retransmission: a retry whose packet has
                // outlived its age budget expires instead of retrying —
                // under overload, stale work is shed rather than
                // amplified. Delivered-but-unACKed packets only drop
                // their buffer slot (they are not a loss).
                let deadline = self.params.deadline_ps;
                if deadline > 0 && now.since(st.generated_at).as_ps() >= deadline {
                    if st.outcome != DeliveryOutcome::Delivered {
                        self.packets[pkt as usize].outcome = DeliveryOutcome::Expired;
                        self.metrics.on_expired(now);
                        self.oracle.note(
                            now.as_ps(),
                            "expire",
                            u64::from(pkt),
                            u64::from(st.src.0),
                        );
                        self.oracle.progress(now.as_ps());
                    }
                    if !st.released {
                        if let Some(p) = self.packets.get_mut(pkt as usize) {
                            p.released = true;
                        }
                        self.release_outstanding(now, st.src.0);
                        self.release_window(st.src.0);
                    }
                    return;
                }
                // Retry budget exhausted: the source gives up instead of
                // retrying forever. A packet that was delivered but whose
                // ACKs all died is only dropped from the buffer — it is
                // not a loss, so it must not count as abandoned.
                if st.attempts > self.params.max_retries {
                    if st.outcome != DeliveryOutcome::Delivered {
                        self.packets[pkt as usize].outcome = DeliveryOutcome::GaveUp;
                        self.metrics.on_abandoned(now);
                        self.oracle.note(
                            now.as_ps(),
                            "giveup",
                            u64::from(pkt),
                            u64::from(st.src.0),
                        );
                        self.oracle.progress(now.as_ps());
                    }
                    // Give the buffer slot back exactly once: a late ACK
                    // for a delivered-but-timer-exhausted packet must not
                    // release it again (see released in Ev::Arrive).
                    if !st.released {
                        if let Some(p) = self.packets.get_mut(pkt as usize) {
                            p.released = true;
                        }
                        self.release_outstanding(now, st.src.0);
                        self.release_window(st.src.0);
                    }
                    return;
                }
                self.metrics.on_retransmit();
                if self.params.backoff {
                    // Binary exponential backoff throttles the transmitter.
                    let nic = &mut self.nics[st.src.0 as usize];
                    nic.backoff_exp = (nic.backoff_exp + 1).min(self.params.max_backoff_exp);
                }
                self.enqueue(now, st.src.0, pkt, sched);
            }
            Ev::Fault(idx) => {
                if let Some(ev) = self.plan.events.get(idx as usize).copied() {
                    self.fstate.apply(self.plan.seed, now.as_ps(), &ev.kind);
                    self.oracle.note(now.as_ps(), "fault", u64::from(idx), 0);
                }
            }
        }
    }
}

impl PacketModel for BaldurNet {
    fn wake(node: u32) -> Ev {
        Ev::Wake(node)
    }

    fn fault(idx: u32) -> Ev {
        Ev::Fault(idx)
    }

    fn default_horizon_ns(&self, total_packets: u64) -> u64 {
        let per_node = total_packets / u64::from(self.active_nodes.max(1)) + 1;
        50 * per_node * self.link.packet_time().as_ps() / 1_000 + 10_000_000
    }

    fn instruments(&mut self) -> (&mut Collector, &mut Oracle, &mut FaultPlan) {
        (&mut self.metrics, &mut self.oracle, &mut self.plan)
    }

    /// Finishes the run and reports.
    fn into_report(self, end: Time) -> LatencyReport {
        let mut r = self.metrics.report(end);
        r.oracle = self.oracle.summary();
        r
    }

    /// Periodic oracle tick driven by the engine's observer hook: feeds
    /// the stuck-flow detector with the number of packets still owed a
    /// terminal outcome. Returns `true` when the run should abort.
    fn oracle_tick(&mut self, now: Time) -> bool {
        let per_nic: Vec<u64> = self.nics.iter().map(|n| u64::from(n.outstanding)).collect();
        let outstanding: u64 = per_nic.iter().sum::<u64>() + self.in_flight;
        // Each tick is one starvation observation window: a flow (source
        // node) with work outstanding and zero deliveries for N windows
        // while the rest of the machine progresses is starved.
        self.oracle
            .check_starvation(now.as_ps(), self.metrics.flow_delivered_counts(), &per_nic);
        self.oracle.check_stall(now.as_ps(), outstanding)
    }

    /// Packet-conservation audit, valid only once the event queue has
    /// drained: discrepancies become structured oracle violations on the
    /// report, in release builds too.
    fn oracle_check_drained(&mut self, end: Time) {
        let at = end.as_ps();
        let queued = self.nics.iter().filter(|n| !n.is_empty()).count() as u64;
        let outstanding: u64 = self.nics.iter().map(|n| u64::from(n.outstanding)).sum();
        let owed: u64 = self.nics.iter().map(|n| n.pending_acks.len() as u64).sum();
        self.oracle.check_residual(at, "in_flight", self.in_flight);
        self.oracle.check_residual(at, "nic_queue", queued);
        self.oracle.check_residual(at, "outstanding", outstanding);
        self.oracle.check_residual(at, "pending_acks", owed);
        self.oracle
            .check_residual(at, "ack_refs", self.ack_refs.len() as u64);
        let data = self.packets.iter().filter(|p| p.acks.is_none());
        let tally = OutcomeTally::of(data.map(|p| p.outcome));
        self.oracle.check_ledger(at, &self.metrics, Some(tally));
    }
}

/// Runs the retired model executing a full [`FaultPlan`] — the
/// `run_baseline` entry point the differential tests compare against
/// `baldur_net::simulate_plan`.
pub fn simulate_plan(
    active_nodes: u32,
    params: BaldurParams,
    link: LinkParams,
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
        |driver, cap| BaldurNet::new(active_nodes, params, link, driver, seed, cap),
    )
    .0
}
