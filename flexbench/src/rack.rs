//! `rack`: two 48-port crosspoint-queued ToRs, 94 FlexSFPs, lossy
//! access spans, flash-crowd load with 3/4 of it crossing the rack.
//!
//! Each ToR seats a pass-through FlexSFP in access cages 1..46 (cage 0
//! keeps a standard SFP, so runts reach the bridge's malformed path)
//! and an ACL firewall on its uplink cage that denies
//! [`DENY_PREFIX`] arriving from the peer. Every host's access span is
//! a `LossyLink` with a seeded fault plan (1 % drop, 0.5 % duplicate,
//! 0.5 % single-bit corruption, 200 ns mean jitter). Set-up and memory
//! scale with the module count, and each frame is driven through the
//! cages one `FlexSfp::run` call at a time.
//!
//! A round builds the links and both ToRs (set-up), then streams the
//! hosts' emissions: a warm-up broadcast per host, then the
//! `flash_crowd` trace compressed in time, each flow pinned to a source
//! host by its source IP and to a destination host by its destination
//! IP, with a 7-byte runt every [`RUNT_EVERY`] slots. Frames cross their
//! host's span as they are emitted and are injected in arrival order
//! with uplink hand-offs interleaved by time; a final drain empties the
//! crosspoints. Every round is checked as it runs: per-copy
//! conservation over the emissions and deliveries the benchmark counted
//! itself, every unicast delivery on its destination host's port, and
//! no denied frame delivered after crossing the uplink.

use crate::check::{ipv4_src, Digest};
use crate::mem::Cpus;
use crate::trace::{Every, MarkFirst, Sampled, Tracer, SAMPLE_EVERY};
use crate::{
    derive, ledger, median, new_module, per_layer, quantile, secs, timings, until, write_spans,
    Report, Settings, Size, Tamper, MIN_ROUNDS,
};
use flexsfp_apps::{AclAction, AclFirewall, AclRule};
use flexsfp_core::module::{Interface, ModuleConfig, OutputPacket, SimPacket};
use flexsfp_core::ShellKind;
use flexsfp_host::{CrossbarSwitch, FaultPlan, FiberLink, LossyLink, SwitchStats, TimedDelivery};
use flexsfp_obs::LatencyHistogram;
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::Direction;
use flexsfp_traffic::{profiles, TraceStream};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::{MacAddr, PacketArena};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Instant;

/// Ports per ToR.
pub const TOR_PORTS: usize = 48;
/// The uplink port on both ToRs.
pub const UPLINK: usize = TOR_PORTS - 1;
/// Access ports per ToR.
pub const ACCESS: usize = TOR_PORTS - 1;
/// Hosts across the rack.
pub const HOSTS: usize = 2 * ACCESS;
/// FlexSFPs seated: access cages 1..46 on both ToRs plus both uplinks.
pub const MODULES: usize = 2 * (ACCESS - 1) + 2;
/// Crosspoint queue depth.
pub const XPOINT_DEPTH: usize = 12;
/// Flow population of the flash-crowd profile.
pub const FLOWS: usize = 4_096;
/// Every `RUNT_EVERY`-th trace slot is a 7-byte runt.
pub const RUNT_EVERY: usize = 2_500;
/// The /30 each uplink ACL denies from the peer ToR.
pub const DENY_PREFIX: (u32, u8) = (0x0a64_0000, 30);
/// Access span, metres.
const ACCESS_M: f64 = 30.0;
/// Uplink span, metres.
const UPLINK_M: f64 = 3.0;
/// Spacing of the warm-up broadcasts, ns.
const WARMUP_SPACING_NS: u64 = 2_000;
/// Start of the main phase, ns.
const MAIN_OFFSET_NS: u64 = 300_000;
/// Cross-rack share of destinations, in quarters.
const CROSS_QUARTERS: u64 = 3;
/// Arrival compression `t * NUM / DEN`: each uplink direction runs at
/// about 0.9 of line rate.
const COMPRESS_NUM: u64 = 7;
const COMPRESS_DEN: u64 = 20;

/// Trace slots per round.
pub fn round_packets(size: Size) -> usize {
    match size {
        Size::Full => 100_000,
        Size::Tiny => 3_000,
    }
}

/// The two seeds of a round's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Flash-crowd trace generator seed.
    pub trace: u64,
    /// Base of every access span's fault-plan seed.
    pub links: u64,
}

impl Seeds {
    /// Seeds derived from the run seed.
    pub fn from_run(seed: u64) -> Seeds {
        Seeds {
            trace: derive(seed, 0x70),
            links: derive(seed, 0x71),
        }
    }
}

/// The MAC of the host on `port` of ToR `tor`.
pub fn host_mac(tor: usize, port: usize) -> MacAddr {
    MacAddr([0x02, 0xfc, 0xee, tor as u8, port as u8, 0x01])
}

/// The (ToR, port) of a host MAC, if `mac` is one.
fn host_of(mac: &[u8]) -> Option<(usize, usize)> {
    let (tor, port) = (usize::from(mac[3]), usize::from(mac[4]));
    (mac[..3] == [0x02, 0xfc, 0xee] && mac[5] == 0x01 && tor < 2 && port < ACCESS)
        .then_some((tor, port))
}

/// Flow-to-host mixing of a 32-bit address.
fn h32(x: u32, salt: u64) -> u64 {
    let mut v = u64::from(x) ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    v ^= v >> 33;
    v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
    v ^= v >> 33;
    v
}

/// Fingerprint of a frame's bytes.
fn fingerprint(frame: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(frame);
    d.0
}

fn denied(frame: &[u8]) -> bool {
    let (net, len) = DENY_PREFIX;
    ipv4_src(frame).is_some_and(|src| src >> (32 - len) == net >> (32 - len))
}

/// How a round's rack is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cages {
    /// FlexSFPs as described above.
    Flex,
    /// ToR 1's uplink ACL without its deny rule (a configuration fault).
    OpenAcl,
    /// Standard SFPs in every cage: the plain-cage companion.
    Plain,
}

/// Span names of a traced round: the module rack's, or the plain-cage
/// companion's, kept apart so each pass has its own sums.
struct Names {
    run: &'static str,
    gen: &'static str,
    chaos: &'static str,
    inject: &'static str,
    drain: &'static str,
    build: &'static str,
}

impl Cages {
    fn names(self) -> Names {
        match self {
            Cages::Plain => Names {
                run: "plain.run",
                gen: "plain.gen",
                chaos: "plain.chaos",
                inject: "plain.inject",
                drain: "plain.drain",
                build: "plain.tor_build",
            },
            _ => Names {
                run: "rack.run",
                gen: "rack.gen",
                chaos: "host.chaos",
                inject: "host.inject",
                drain: "host.drain",
                build: "host.tor_build",
            },
        }
    }
}

/// Build ToR `tor`.
fn build_tor(tor: usize, cages: Cages, tracer: Option<&Tracer>) -> CrossbarSwitch {
    let mut sw = CrossbarSwitch::new(TOR_PORTS, XPOINT_DEPTH);
    if cages == Cages::Plain {
        return sw;
    }
    for port in 1..ACCESS {
        let cfg = ModuleConfig {
            id: format!("tor{tor}-p{port:02}"),
            ..ModuleConfig::default()
        };
        sw.insert_flexsfp(port, new_module(cfg, Box::new(PassThrough), tracer));
    }
    let mut fw = AclFirewall::new(16);
    fw.screen_direction = Some(Direction::OpticalToEdge);
    if !(cages == Cages::OpenAcl && tor == 1) {
        fw.add_rule(AclRule {
            src: Some(DENY_PREFIX),
            dst: None,
            protocol: None,
            src_port: None,
            dst_port: None,
            priority: 1,
            action: AclAction::Deny,
        });
    }
    let cfg = ModuleConfig {
        id: format!("tor{tor}-uplink"),
        shell: ShellKind::OneWayFilter {
            ppe_direction: Direction::OpticalToEdge,
        },
        ..ModuleConfig::default()
    };
    sw.insert_flexsfp(UPLINK, new_module(cfg, Box::new(fw), tracer));
    sw
}

/// The hosts' emissions in emission order: (time, host, frame).
struct Emissions {
    trace: TraceStream,
    warmup: usize,
    slot: usize,
}

impl Iterator for Emissions {
    type Item = (u64, usize, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.warmup < HOSTS {
            let h = self.warmup;
            self.warmup += 1;
            let frame = PacketBuilder::eth_ipv4_udp(
                MacAddr([0xff; 6]),
                host_mac(h / ACCESS, h % ACCESS),
                0x0a00_0000 + h as u32,
                0xffff_ffff,
                68,
                67,
                b"warmup",
            );
            return Some((h as u64 * WARMUP_SPACING_NS, h, frame));
        }
        let tp = self.trace.next()?;
        let i = self.slot;
        self.slot += 1;
        let t_ns = MAIN_OFFSET_NS + tp.arrival_ns * COMPRESS_NUM / COMPRESS_DEN;
        if i % RUNT_EVERY == RUNT_EVERY - 1 {
            self.trace.arena().recycle(tp.frame);
            let tor = (i / RUNT_EVERY) % 2;
            return Some((t_ns, tor * ACCESS, vec![0x55; 7]));
        }
        let mut frame = tp.frame;
        let sip = u32::from_be_bytes(frame[26..30].try_into().expect("IPv4 source"));
        let dip = u32::from_be_bytes(frame[30..34].try_into().expect("IPv4 destination"));
        let src_host = (h32(sip, 1) % HOSTS as u64) as usize;
        let (src_tor, src_port) = (src_host / ACCESS, src_host % ACCESS);
        let dst_port = (h32(dip, 2) % ACCESS as u64) as usize;
        let dst_tor = if h32(dip, 3) % 4 < CROSS_QUARTERS {
            1 - src_tor
        } else {
            src_tor
        };
        frame[0..6].copy_from_slice(&host_mac(dst_tor, dst_port).0);
        frame[6..12].copy_from_slice(&host_mac(src_tor, src_port).0);
        Some((t_ns, src_host, frame))
    }
}

/// A frame due at a ToR port; ordered by (time, sequence).
struct Due {
    t_ns: u64,
    seq: u64,
    tor: usize,
    port: usize,
    frame: Vec<u8>,
}

impl PartialEq for Due {
    fn eq(&self, o: &Due) -> bool {
        (self.t_ns, self.seq) == (o.t_ns, o.seq)
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, o: &Due) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Due {
    fn cmp(&self, o: &Due) -> std::cmp::Ordering {
        (self.t_ns, self.seq).cmp(&(o.t_ns, o.seq))
    }
}

/// The counts a round's checks are built from, and its figures.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Set-up seconds (links, ToRs, generator).
    pub setup_s: f64,
    /// Packet-phase seconds.
    pub phase_s: f64,
    /// Frames the hosts emitted.
    pub emitted: u64,
    /// Frames the access spans delivered to ToR ports, counted here.
    pub link_delivered: u64,
    /// Access deliveries, counted here.
    pub delivered: u64,
    /// Frames handed across the uplink, per source ToR.
    pub uplink_tx: [u64; 2],
    /// Frames injected on the uplink port, per ToR.
    pub uplink_rx: [u64; 2],
    /// Deliveries that failed a per-delivery check.
    pub failed: u64,
    /// Unicast deliveries on another port than their destination host's,
    /// to a host whose MAC a bit-corrupted frame carried as source: the
    /// bridge learned the corrupted source address (no FCS check).
    pub misled: u64,
    /// Bit-corrupted frames from the denied prefix that crossed the
    /// uplink and were delivered: the uplink ACL forwards IPv4 that is
    /// neither TCP nor UDP without consulting its rules, and a flipped
    /// protocol byte makes such a frame.
    pub acl_passed_corrupt: u64,
    /// Failed round-level identities.
    pub bad: Vec<String>,
    /// First per-delivery failures.
    pub why: Vec<String>,
    /// Bridge counters of both ToRs, summed.
    pub sw: SwitchStats,
    /// Crosspoint drops, both ToRs.
    pub xpoint_dropped: u64,
    /// Deepest crosspoint backlog.
    pub high_water: u64,
    /// Merged enqueue→grant p99.9, ns.
    pub queue_p999_ns: u64,
    /// Frames dropped on access spans.
    pub link_dropped: u64,
    /// Arena buffers the trace allocated.
    pub arena_allocs: u64,
    /// Inject call durations, ns (traced rounds only).
    pub inject_ns: Vec<f64>,
}

/// The rack's event loop over one round.
struct Rack<'a> {
    tors: [CrossbarSwitch; 2],
    links: Vec<LossyLink>,
    handoffs: BinaryHeap<Reverse<Due>>,
    due: BinaryHeap<Reverse<Due>>,
    seq: u64,
    uplink_delay_ns: u64,
    crossed: [HashMap<u64, u32>; 2],
    /// Source MACs that bit-corrupted frames carried: the bridges learn
    /// them, so deliveries to those hosts may follow a wrong entry.
    poisoned: HashSet<[u8; 6]>,
    /// Fingerprints of frames the spans bit-corrupted.
    corrupted: HashSet<u64>,
    /// MACs each bridge has learned (its table never forgets).
    learned: [HashSet<[u8; 6]>; 2],
    /// Fingerprints of unicast frames each bridge flooded.
    flooded: [HashSet<u64>; 2],
    arena: PacketArena,
    tamper: Option<Tamper>,
    tracer: Option<&'a Tracer>,
    chaos: Every,
    names: Names,
    r: Round,
}

impl Rack<'_> {
    /// One emission: across the host's span into the due heap.
    fn emit(&mut self, t_ns: u64, host: usize, frame: Vec<u8>) {
        self.r.emitted += 1;
        let out = [OutputPacket {
            departure_ns: t_ns,
            egress: Interface::Optical,
            frame,
            latency_ns: 0.0,
        }];
        let link = &mut self.links[host];
        let carried = match self.tracer {
            Some(tr) => self.chaos.run(tr, self.names.chaos, || link.carry(&out)),
            None => link.carry(&out),
        };
        let [OutputPacket { frame, .. }] = out;
        for p in carried.iter().filter(|p| p.frame != frame) {
            self.corrupted.insert(fingerprint(&p.frame));
            if p.frame.len() >= 12 && frame.len() >= 12 && p.frame[6..12] != frame[6..12] {
                let mut mac = [0u8; 6];
                mac.copy_from_slice(&p.frame[6..12]);
                self.poisoned.insert(mac);
            }
        }
        self.arena.recycle(frame);
        for p in carried {
            self.r.link_delivered += 1;
            self.seq += 1;
            self.due.push(Reverse(Due {
                t_ns: p.arrival_ns,
                seq: self.seq,
                tor: host / ACCESS,
                port: host % ACCESS,
                frame: p.frame,
            }));
        }
    }

    fn inject(&mut self, tor: usize, port: usize, frame: Vec<u8>, t_ns: u64) {
        // Track what the bridge knows: a unicast frame to a MAC it has
        // not learned is flooded, and the only MAC an injection can
        // teach it is the frame's source.
        let mut src = None;
        if frame.len() >= 14 {
            if frame[0] & 1 == 0 && !self.learned[tor].contains(&frame[0..6]) {
                self.flooded[tor].insert(fingerprint(&frame));
            }
            src = Some(<[u8; 6]>::try_from(&frame[6..12]).expect("6-byte MAC"));
        }
        let known = self.tors[tor].learned();
        let out = match self.tracer {
            Some(tr) => {
                let t0 = Instant::now();
                let out = self.tors[tor].inject(port, frame, t_ns);
                let t1 = Instant::now();
                tr.record(self.names.inject, t0, t1, 1);
                self.r
                    .inject_ns
                    .push((t1 - t0).as_nanos() as f64 - tr.clock_ns());
                out
            }
            None => self.tors[tor].inject(port, frame, t_ns),
        };
        if let Some(src) = src.filter(|_| self.tors[tor].learned() > known) {
            self.learned[tor].insert(src);
        }
        self.route(tor, out);
    }

    /// Route a ToR's deliveries: uplink ones become hand-offs to the
    /// peer, access ones are checked and counted.
    fn route(&mut self, tor: usize, out: Vec<TimedDelivery>) {
        for d in out {
            if d.port == UPLINK {
                self.r.uplink_tx[tor] += 1;
                if denied(&d.frame) {
                    *self.crossed[1 - tor]
                        .entry(fingerprint(&d.frame))
                        .or_default() += 1;
                }
                self.seq += 1;
                self.handoffs.push(Reverse(Due {
                    t_ns: d.departure_ns + self.uplink_delay_ns,
                    seq: self.seq,
                    tor: 1 - tor,
                    port: UPLINK,
                    frame: d.frame,
                }));
            } else {
                self.access(tor, d.port, d.frame);
            }
        }
    }

    fn access(&mut self, tor: usize, port: usize, mut frame: Vec<u8>) {
        let n = self.r.delivered;
        match self.tamper {
            Some(Tamper::Drop(k)) if k == n => {
                self.tamper = None;
                return;
            }
            Some(Tamper::FlipByte(k)) if k == n && frame.len() > 4 => frame[4] ^= 0x01,
            _ => {}
        }
        self.r.delivered += 1;
        if frame.len() >= 14 && frame[0] & 1 == 0 {
            if let Some(host) = host_of(&frame[0..6]).filter(|&h| h != (tor, port)) {
                if self.flooded[tor].contains(&fingerprint(&frame)) {
                    // A flood copy of a frame to a not-yet-learned host.
                } else if self.poisoned.contains(&frame[0..6]) {
                    self.r.misled += 1;
                } else {
                    self.fail(format!(
                        "frame for host {host:?} delivered on ToR {tor} port {port}"
                    ));
                }
            }
        }
        if denied(&frame) && self.crossed[tor].contains_key(&fingerprint(&frame)) {
            if self.corrupted.contains(&fingerprint(&frame)) {
                self.r.acl_passed_corrupt += 1;
            } else {
                self.fail(format!(
                    "frame from the denied prefix crossed the uplink and left ToR {tor} port {port}"
                ));
            }
        }
        self.arena.recycle(frame);
    }

    fn fail(&mut self, why: String) {
        self.r.failed += 1;
        if self.r.why.len() < 8 {
            self.r.why.push(why);
        }
    }

    /// Inject everything due, hand-offs and access arrivals in time
    /// order, emitting from `gen` while the next arrival might still be
    /// preceded by a frame not yet emitted.
    fn drive<I: Iterator<Item = (u64, usize, Vec<u8>)>>(&mut self, gen: I) {
        let access_delay = FiberLink::new(ACCESS_M).delay_ns() as u64;
        let mut gen = gen.peekable();
        loop {
            while let Some(&(t_next, _, _)) = gen.peek() {
                let releasable = self
                    .due
                    .peek()
                    .is_some_and(|Reverse(d)| d.t_ns < t_next + access_delay);
                if releasable {
                    break;
                }
                let (t, host, frame) = gen.next().expect("peeked");
                self.emit(t, host, frame);
            }
            let take_handoff = match (self.due.peek(), self.handoffs.peek()) {
                (Some(Reverse(a)), Some(Reverse(h))) => h.t_ns <= a.t_ns,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            let Reverse(d) = if take_handoff {
                let h = self.handoffs.pop().expect("peeked");
                self.r.uplink_rx[h.0.tor] += 1;
                h
            } else {
                self.due.pop().expect("peeked")
            };
            self.inject(d.tor, d.port, d.frame, d.t_ns);
        }
    }

    /// Empty every crosspoint, re-injecting what crosses the uplink.
    fn drain(&mut self) {
        loop {
            for tor in 0..2 {
                let out = self.tors[tor].drain();
                self.route(tor, out);
            }
            while let Some(Reverse(h)) = self.handoffs.pop() {
                self.r.uplink_rx[h.tor] += 1;
                self.inject(h.tor, UPLINK, h.frame, h.t_ns);
            }
            if self.tors.iter().map(|t| t.stats().queued).sum::<u64>() == 0 {
                break;
            }
        }
    }

    /// The round-level identities, over the benchmark's own counts.
    fn close(&mut self) {
        let (s0, s1) = (self.tors[0].stats(), self.tors[1].stats());
        let r = &mut self.r;
        let chaos = self.links.iter().fold((0, 0, 0), |a, l| {
            let s = l.stats();
            (a.0 + s.offered, a.1 + s.delivered, a.2 + s.dropped)
        });
        r.link_dropped = chaos.2;
        let mut bad = Vec::new();
        for (i, s) in [s0, s1].iter().enumerate() {
            if !s.conserved() {
                bad.push(format!("ToR {i} leaked: {s:?}"));
            }
        }
        if (chaos.0, chaos.1) != (r.emitted, r.link_delivered) {
            bad.push(format!(
                "spans saw {} offered / {} delivered, the hosts emitted {} and {} arrived",
                chaos.0, chaos.1, r.emitted, r.link_delivered
            ));
        }
        if r.uplink_tx != [r.uplink_rx[1], r.uplink_rx[0]] {
            bad.push(format!(
                "uplink tx {:?} vs rx {:?}",
                r.uplink_tx, r.uplink_rx
            ));
        }
        let received = s0.sw.received + s1.sw.received;
        if r.link_delivered + r.uplink_rx[0] + r.uplink_rx[1] != received {
            bad.push(format!(
                "ToRs received {received}, spans delivered {} plus {:?} over the uplink",
                r.link_delivered, r.uplink_rx
            ));
        }
        let sum = |f: fn(&SwitchStats) -> u64| f(&s0.sw) + f(&s1.sw);
        let sources = r.link_delivered + sum(|s| s.flood_copies) + sum(|s| s.module_copies);
        let sinks = r.delivered
            + sum(|s| s.dropped_by_modules)
            + sum(|s| s.diverted_by_modules)
            + sum(|s| s.to_control)
            + sum(|s| s.absorbed_by_modules)
            + sum(|s| s.dropped_malformed)
            + sum(|s| s.filtered_hairpin)
            + s0.crosspoint_dropped
            + s1.crosspoint_dropped;
        if sources != sinks {
            bad.push(format!(
                "rack conservation: {sources} frame copies in, {sinks} accounted for"
            ));
        }
        r.bad = bad;
        r.sw = SwitchStats {
            received,
            flooded: sum(|s| s.flooded),
            flood_copies: sum(|s| s.flood_copies),
            module_copies: sum(|s| s.module_copies),
            dropped_by_modules: sum(|s| s.dropped_by_modules),
            diverted_by_modules: sum(|s| s.diverted_by_modules),
            to_control: sum(|s| s.to_control),
            absorbed_by_modules: sum(|s| s.absorbed_by_modules),
            dropped_malformed: sum(|s| s.dropped_malformed),
            filtered_hairpin: sum(|s| s.filtered_hairpin),
            delivered: sum(|s| s.delivered),
        };
        r.xpoint_dropped = s0.crosspoint_dropped + s1.crosspoint_dropped;
        let (t0, t1) = (self.tors[0].telemetry(), self.tors[1].telemetry());
        r.high_water = t0.high_water.max(t1.high_water);
        let mut q = LatencyHistogram::new();
        q.merge(self.tors[0].queue_latency());
        q.merge(self.tors[1].queue_latency());
        r.queue_p999_ns = q.p999();
        r.arena_allocs = self.arena.allocations();
    }
}

/// One round of the rack as `BENCHMARK.json` measures it, untraced.
pub fn reference_round(seeds: Seeds, packets: usize) -> Round {
    round(seeds, packets, Cages::Flex, None, None)
}

/// One round.
fn round(
    seeds: Seeds,
    packets: usize,
    cages: Cages,
    tamper: Option<Tamper>,
    tracer: Option<&Tracer>,
) -> Round {
    let t0 = Instant::now();
    let links: Vec<LossyLink> = (0..HOSTS)
        .map(|h| {
            FiberLink::new(ACCESS_M).impaired(
                FaultPlan::ideal(seeds.links ^ (h as u64).wrapping_mul(0x51ed))
                    .with_drop(0.01)
                    .with_duplicate(0.005)
                    .with_corrupt(0.005)
                    .with_jitter(200),
            )
        })
        .collect();
    let build = || [0, 1].map(|t| build_tor(t, cages, tracer));
    let tors = match tracer {
        Some(tr) => tr.span(cages.names().build, build),
        None => build(),
    };
    let arena = PacketArena::new();
    let emissions = Emissions {
        trace: profiles::flash_crowd(seeds.trace, FLOWS).stream_pooled(packets, arena.clone()),
        warmup: 0,
        slot: 0,
    };
    let mut rack = Rack {
        tors,
        links,
        handoffs: BinaryHeap::new(),
        due: BinaryHeap::new(),
        seq: 0,
        uplink_delay_ns: FiberLink::new(UPLINK_M).delay_ns() as u64,
        crossed: [HashMap::new(), HashMap::new()],
        poisoned: HashSet::new(),
        corrupted: HashSet::new(),
        learned: [HashSet::new(), HashSet::new()],
        flooded: [HashSet::new(), HashSet::new()],
        arena,
        tamper,
        tracer,
        chaos: Every::new(8),
        names: cages.names(),
        r: Round::default(),
    };
    let first = Cell::new(None);
    match tracer {
        Some(tr) => {
            let n = cages.names();
            tr.span(n.run, || {
                rack.drive(MarkFirst::new(
                    Sampled::new(emissions, tr, n.gen, SAMPLE_EVERY / 4),
                    &first,
                ));
                tr.span(n.drain, || rack.drain());
            })
        }
        None => {
            rack.drive(MarkFirst::new(emissions, &first));
            rack.drain();
        }
    }
    let end = Instant::now();
    let first = first.get().unwrap_or(end);
    rack.close();
    rack.r.setup_s = secs(t0, first);
    rack.r.phase_s = secs(first, end);
    rack.r
}

/// Log the modelled figures of a round, for reference.
fn reference(r: &mut Report, x: &Round) {
    r.log(format!(
        "rack reference: {MODULES} modules, {} frames emitted, {} delivered, {} dropped on spans, \
         {} dropped by modules, {} crosspoint drops (high water {}), queue p99.9 {} ns, \
         {} uplink frames ToR0->ToR1, {} ToR1->ToR0, {} runts refused, \
         {} deliveries misled by MAC entries learned from corrupted frames, \
         {} corrupted frames from the denied prefix passed the far uplink ACL",
        x.emitted,
        x.delivered,
        x.link_dropped,
        x.sw.dropped_by_modules,
        x.xpoint_dropped,
        x.high_water,
        x.queue_p999_ns,
        x.uplink_tx[0],
        x.uplink_tx[1],
        x.sw.dropped_malformed,
        x.misled,
        x.acl_passed_corrupt
    ));
}

/// Run `rack`.
pub fn run(s: &Settings) -> Report {
    run_seeded(s, Seeds::from_run(s.seed))
}

/// Run `rack` with explicit input seeds.
pub fn run_seeded(s: &Settings, seeds: Seeds) -> Report {
    let packets = round_packets(s.size);
    let cages = if s.tamper == Some(Tamper::OpenAcl) {
        Cages::OpenAcl
    } else {
        Cages::Flex
    };
    let mut r = Report::default();
    let untraced = || {
        let x = round(seeds, packets, cages, s.tamper, None);
        let phase = x.phase_s;
        (x, phase)
    };
    let times = |rounds: &[Round]| -> Vec<(u64, f64, f64)> {
        rounds
            .iter()
            .map(|x| (x.emitted, x.setup_s, x.phase_s))
            .collect()
    };
    if !s.trace {
        let cpus = Cpus::allowed();
        let mut k = 0;
        let rounds = until(s.seconds, MIN_ROUNDS, || {
            cpus.pin(k);
            k += 1;
            untraced()
        });
        cpus.unpin();
        for x in &rounds {
            r.round("rack round", x.emitted, x.failed, &x.bad, &x.why);
        }
        reference(&mut r, &rounds[0]);
        timings(&mut r, &times(&rounds), false);
        return r;
    }

    // Traced: each step runs an untraced round, the rack with spans,
    // and its plain-cage and PassThrough companions, so host drift
    // lands on all of them alike.
    let tr = Tracer::new();
    let (mut emitted, mut plain_emitted, mut pass_pkts) = (0u64, 0u64, 0u64);
    let (mut inject_ns, mut drain_ms, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut arena_allocs = 0u64;
    let mut rounds = Vec::new();
    let cpus = Cpus::allowed();
    let t0 = Instant::now();
    while rounds.is_empty() || secs(t0, Instant::now()) < s.seconds {
        cpus.pin(rounds.len());
        let (x, _) = untraced();
        r.round("rack round", x.emitted, x.failed, &x.bad, &x.why);
        rounds.push(x);
        let (drain0, build0) = (tr.total_ns("host.drain"), tr.total_ns("host.tor_build"));
        let x = round(seeds, packets, cages, s.tamper, Some(&tr));
        r.round("rack traced round", x.emitted, x.failed, &x.bad, &x.why);
        drain_ms.push((tr.total_ns("host.drain") - drain0) / 1e6);
        build_s.push((tr.total_ns("host.tor_build") - build0) / 1e9);
        emitted += x.emitted;
        arena_allocs = x.arena_allocs;
        inject_ns.extend(x.inject_ns);
        let p = round(seeds, packets, Cages::Plain, None, Some(&tr));
        plain_emitted += p.emitted;
        // Shell companion: the same trace through one PassThrough module.
        let mut m = new_module(ModuleConfig::default(), Box::new(PassThrough), None);
        let arena = PacketArena::new();
        let every = Every::new(SAMPLE_EVERY);
        let stream = profiles::flash_crowd(seeds.trace, FLOWS)
            .stream_pooled(packets, arena.clone())
            .map(|p| SimPacket {
                arrival_ns: p.arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: p.frame,
            });
        let report = tr.span("pass.run", || {
            m.run_stream_with(Sampled::new(stream, &tr, "pass.gen", SAMPLE_EVERY), |out| {
                every.run(&tr, "pass.sink", || arena.recycle(out.frame))
            })
        });
        pass_pkts += report.offered;
    }
    cpus.unpin();
    reference(&mut r, &rounds[0]);
    let untraced_ns = timings(&mut r, &times(&rounds), true);
    let per = |ns: f64, n: u64| ns / n as f64;
    let gen = per(tr.self_ns("rack.gen"), emitted);
    let chaos = per(tr.total_ns("host.chaos"), emitted);
    let inject = per(tr.total_ns("host.inject"), emitted);
    let drain_self = per(tr.self_ns("host.drain"), emitted);
    let traced = per(tr.total_ns("rack.run"), emitted);
    let glue = traced - gen - chaos - inject - drain_self;
    let inject_calls = tr.calls("host.inject");
    let plain_calls = tr.calls("plain.inject");
    let cage =
        tr.total_ns("host.inject") / inject_calls - tr.total_ns("plain.inject") / plain_calls;
    ledger(
        &mut r,
        "rack",
        traced,
        &[
            ("traffic (generator)", gen),
            ("host::chaos (LossyLink::carry)", chaos),
            ("host::crossbar+cage (inject)", inject),
            ("host::crossbar (drain, self)", drain_self),
            ("bench event loop and checks", glue),
        ],
    );
    r.log(format!(
        "rack companions: plain-cage inject {:.1} ns/frame over {plain_emitted} frames, \
         module inject {:.1} ns/frame; PassThrough shell {:.1} ns/pkt",
        tr.total_ns("plain.inject") / plain_calls,
        tr.total_ns("host.inject") / inject_calls,
        per(tr.self_ns("pass.run"), pass_pkts)
    ));
    per_layer(
        &mut r,
        &[
            ("traffic.gen_ns_per_pkt", gen),
            ("wire.arena_allocs", arena_allocs as f64),
            (
                "core.shell_ns_per_pkt",
                per(tr.self_ns("pass.run"), pass_pkts),
            ),
            ("host.tor_build_s", median(&build_s)),
            ("host.chaos_ns_per_frame", chaos),
            ("host.inject_ns_p50", quantile(&inject_ns, 0.5)),
            ("host.inject_ns_p99", quantile(&inject_ns, 0.99)),
            ("host.cage_ns_per_frame", cage),
            ("host.drain_ms", median(&drain_ms)),
            ("trace.overhead_pct", (traced / untraced_ns - 1.0) * 100.0),
        ],
    );
    write_spans(&tr, s);
    r
}
