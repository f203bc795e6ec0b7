//! `city-soak`: the metro day through the two-shard dataplane.
//!
//! [`SUBSCRIBERS`] subscriber flows behind a NAT of [`TABLE_CAPACITY`]
//! slots ride a diurnal day of paced phases (overnight trough, morning
//! ramp, daytime plateau, flash crowd, evening peak), a burst-only
//! flash-crowd interlude of line-rate 1514-byte microbursts, and a
//! [`ATTACK_SOURCES`]-source DDoS from unmapped space; at each of the
//! six phase boundaries 64 authenticated control frames remap and
//! delete mappings in band. The table and flow-cache working set is far
//! larger than the CPU caches, and the NAT takes control-plane writes
//! beside its misses.
//!
//! A round builds [`SHARDS`] NAT replicas (set-up) and streams the day
//! through `run_sharded` on [`SHARDS`] worker threads. The checked
//! round runs the same stream serially through a `StreamSession`,
//! judged by [`NatChecker`]; every two-shard round must reproduce the
//! serial output stream exactly (the sharded method's defining
//! property), compared by digest after the timed phase.

use crate::check::{Digest, NatChecker};
use crate::linerate::build_nat;
use crate::trace::{Every, MarkFirst, Sampled, Tracer, SAMPLE_EVERY};
use crate::{
    derive, ledger, new_module, per_layer, secs, tamper_output, timings, until, write_spans,
    Report, Settings, Size, MIN_ROUNDS,
};
use flexsfp_bench::shard::{run_sharded, run_sharded_timed};
use flexsfp_core::control::{ControlPlane, ControlRequest, CtlTableOp, CONTROL_PORT};
use flexsfp_core::module::{FlexSfp, ModuleConfig, OutputPacket, SimPacket, SimReport};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::Direction;
use flexsfp_traffic::{profiles, TraceBuilder, TraceStream};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::{MacAddr, PacketArena};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Subscriber flows.
pub const SUBSCRIBERS: usize = 262_144;
/// NAT table slots (about half full).
pub const TABLE_CAPACITY: usize = 524_288;
/// Distinct DDoS sources, all unmapped.
pub const ATTACK_SOURCES: usize = 16_384;
/// Shards (and worker threads) of the dataplane.
pub const SHARDS: usize = 2;
/// Phase boundaries carrying churn.
pub const BOUNDARIES: usize = 6;
/// Mappings remapped per boundary.
const CHURN_REMAPS: usize = 48;
/// Mappings deleted per boundary.
const CHURN_DELETES: usize = 16;
/// Churn control frames per round.
pub const CHURN_FRAMES: u64 = (BOUNDARIES * (CHURN_REMAPS + CHURN_DELETES)) as u64;
/// Idle gap between phases, ns.
const PHASE_GAP_NS: u64 = 100_000;
/// Spacing between churn frames, ns.
const CTRL_SPACING_NS: u64 = 1_000;
/// Subscriber block (the metro profile's source base).
const SUB_BASE: u32 = 0x0a64_0000;
/// Public pool of the initial population.
const PUB_BASE: u32 = 0x6540_0000;
/// Offset of the public block boundary remaps draw from.
const REMAP_OFFSET: u32 = 0x0010_0000;

/// The day's dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Paced packets per round (bursts and churn come on top).
    pub packets: usize,
    /// Subscriber flows (and NAT mappings installed).
    pub subscribers: usize,
    /// DDoS sources.
    pub attack_sources: usize,
    /// NAT table slots.
    pub table: usize,
}

/// The scale of a round.
pub fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale {
            packets: 1_000_000,
            subscribers: SUBSCRIBERS,
            attack_sources: ATTACK_SOURCES,
            table: TABLE_CAPACITY,
        },
        Size::Tiny => Scale {
            packets: 30_000,
            subscribers: 4_096,
            attack_sources: 512,
            table: 8_192,
        },
    }
}

/// Generator seeds of the seven phases, derived from the run seed.
pub fn phase_seeds(seed: u64) -> [u64; 7] {
    std::array::from_fn(|k| derive(seed, 0x50 + k as u64))
}

/// The day: (builder, paced packets) per phase; 0 packets is the
/// burst-only interlude. Shares of the packet budget: 10, 15, 25, 20,
/// 0, 15 and the evening's remainder.
fn phases(sc: &Scale, seeds: &[u64; 7]) -> Vec<(TraceBuilder, usize)> {
    let pct = |p: usize| sc.packets * p / 100;
    let evening = sc.packets - pct(10) - pct(15) - pct(25) - pct(20) - pct(15);
    let subs = sc.subscribers;
    vec![
        (profiles::metro_subscribers(seeds[0], subs, 0.10), pct(10)),
        (profiles::metro_subscribers(seeds[1], subs, 0.40), pct(15)),
        (profiles::metro_subscribers(seeds[2], subs, 0.60), pct(25)),
        (profiles::metro_subscribers(seeds[3], subs, 0.95), pct(20)),
        (profiles::flash_crowd(seeds[4], subs.min(4_096)), 0),
        (profiles::ddos_burst(seeds[5], sc.attack_sources), pct(15)),
        (profiles::metro_subscribers(seeds[6], subs, 0.70), evening),
    ]
}

/// The churn batch of phase boundary `boundary`: remap
/// [`CHURN_REMAPS`] subscribers into a fresh public block, delete
/// [`CHURN_DELETES`] more.
pub fn churn_ops(boundary: usize, subscribers: usize) -> Vec<CtlTableOp> {
    let base = boundary * (CHURN_REMAPS + CHURN_DELETES);
    let idx = |j: usize| ((base + j) % subscribers) as u32;
    let key = |j: usize| SUB_BASE.wrapping_add(idx(j)).to_be_bytes().to_vec();
    let remaps = (0..CHURN_REMAPS).map(|j| CtlTableOp::Insert {
        table: 0,
        key: key(j),
        value: (PUB_BASE + REMAP_OFFSET)
            .wrapping_add(idx(j))
            .to_be_bytes()
            .to_vec(),
    });
    let deletes = (0..CHURN_DELETES).map(|j| CtlTableOp::Delete {
        table: 0,
        key: key(CHURN_REMAPS + j),
    });
    remaps.chain(deletes).collect()
}

/// An authenticated in-band control frame carrying `op`.
fn control_frame(config: &ModuleConfig, op: CtlTableOp) -> Vec<u8> {
    let payload = ControlPlane::encode_request(&config.auth_key, &ControlRequest::Table(op));
    PacketBuilder::eth_ipv4_udp(
        config.mgmt_mac,
        MacAddr([0xee; 6]),
        0x0a00_0101,
        config.mgmt_ip,
        40_000,
        CONTROL_PORT,
        &payload,
    )
}

/// The day in arrival order, one live generator at a time, with each
/// boundary's churn frames in the gap before the next phase.
pub struct Day {
    phases: std::vec::IntoIter<(TraceBuilder, usize)>,
    current: Option<TraceStream>,
    ctrl: VecDeque<(SimPacket, CtlTableOp)>,
    config: ModuleConfig,
    subscribers: usize,
    boundary: usize,
    started: bool,
    offset_ns: u64,
    last_ns: u64,
    arena: PacketArena,
    /// The op of the control frame `next()` returned last, if it was one.
    pub last_op: Option<CtlTableOp>,
}

impl Day {
    /// The day at `sc` with phase generators seeded from `seed`, frames
    /// leased from `arena`.
    pub fn new(sc: &Scale, seed: u64, arena: &PacketArena) -> Day {
        Day::with_seeds(sc, &phase_seeds(seed), arena)
    }

    /// The day with explicit phase seeds.
    pub fn with_seeds(sc: &Scale, seeds: &[u64; 7], arena: &PacketArena) -> Day {
        Day {
            phases: phases(sc, seeds).into_iter(),
            current: None,
            ctrl: VecDeque::new(),
            config: ModuleConfig::default(),
            subscribers: sc.subscribers,
            boundary: 0,
            started: false,
            offset_ns: 0,
            last_ns: 0,
            arena: arena.clone(),
            last_op: None,
        }
    }
}

impl Iterator for Day {
    type Item = SimPacket;

    fn next(&mut self) -> Option<SimPacket> {
        self.last_op = None;
        loop {
            if let Some((p, op)) = self.ctrl.pop_front() {
                self.last_ns = self.last_ns.max(p.arrival_ns);
                self.last_op = Some(op);
                return Some(p);
            }
            if let Some(tp) = self.current.as_mut().and_then(Iterator::next) {
                let arrival_ns = self.offset_ns + tp.arrival_ns;
                self.last_ns = self.last_ns.max(arrival_ns);
                return Some(SimPacket {
                    arrival_ns,
                    direction: Direction::EdgeToOptical,
                    frame: tp.frame,
                });
            }
            self.current = None;
            let (builder, count) = self.phases.next()?;
            if self.started {
                let mut t = self.last_ns;
                for op in churn_ops(self.boundary, self.subscribers) {
                    t += CTRL_SPACING_NS;
                    let frame = control_frame(&self.config, op.clone());
                    let pkt = SimPacket {
                        arrival_ns: t,
                        direction: Direction::EdgeToOptical,
                        frame,
                    };
                    self.ctrl.push_back((pkt, op));
                }
                self.boundary += 1;
                self.offset_ns = t + PHASE_GAP_NS;
            }
            self.started = true;
            self.current = Some(builder.stream_pooled(count, self.arena.clone()));
        }
    }
}

/// One NAT replica for the day, flow cache on.
fn nat_module(sc: &Scale, tracer: Option<&Tracer>) -> FlexSfp {
    let (nat, _) = build_nat(sc.table, sc.subscribers, SUB_BASE, PUB_BASE, 0, tracer);
    new_module(ModuleConfig::default(), Box::new(nat), tracer)
}

/// What the checked serial round leaves for the two-shard rounds.
pub struct Serial {
    /// Output digest.
    pub digest: Digest,
    /// The module's report.
    pub report: SimReport,
}

/// The checked round: the day served serially, every output judged.
fn checked_round(s: &Settings, sc: &Scale, r: &mut Report) -> Serial {
    let (nat, model) = build_nat(
        sc.table,
        sc.subscribers,
        SUB_BASE,
        PUB_BASE,
        sc.subscribers,
        None,
    );
    let mut m = FlexSfp::new(ModuleConfig::default(), Box::new(nat));
    let mut checker = NatChecker::new(model, ModuleConfig::default());
    let arena = PacketArena::new();
    let mut day = Day::new(sc, s.seed, &arena);
    let mut session = m.begin_stream();
    let mut n = 0u64;
    let mut sink = |checker: &mut NatChecker, tag: u64, mut out: OutputPacket| {
        if tamper_output(s.tamper, n, &mut out) {
            checker.output(tag, &out);
        }
        n += 1;
        arena.recycle(out.frame);
    };
    let mut tag = 0u64;
    while let Some(pkt) = day.next() {
        match day.last_op.take() {
            Some(op) => checker.offer_control(tag, op),
            None => checker.offer_data(tag, &pkt.frame),
        }
        session.offer(&mut m, tag, pkt, &mut |t, o| sink(&mut checker, t, o));
        tag += 1;
    }
    let report = session.finish(&mut m, &mut |t, o| sink(&mut checker, t, o));
    let bad = checker.finish(&report, CHURN_FRAMES);
    r.round(
        "city-soak checked serial round",
        checker.offered,
        checker.failed,
        &bad,
        &checker.why,
    );
    let cache = m.app_mut().cache_stats().unwrap_or_default();
    let table = m.telemetry_snapshot().table;
    r.log(format!(
        "city-soak serial reference: {} packets, p99.9 latency {:.0} ns, cache hit rate {:.4}, \
         evictions {}, table load {:.4} ({} of {} slots, {} inserts refused), app drops {}",
        report.offered,
        report.latency.p999_ns(),
        cache.hit_rate(),
        cache.evictions,
        table.load_factor(),
        table.occupied,
        table.capacity,
        table.insert_failures,
        report.drops.app
    ));
    Serial {
        digest: checker.digest,
        report,
    }
}

/// Does a two-shard round reproduce the serial round?
fn compare(serial: &Serial, digest: Digest, report: &SimReport) -> Vec<String> {
    let mut bad = Vec::new();
    if digest != serial.digest {
        bad.push(format!(
            "two-shard output digest {:016x} != serial {:016x}",
            digest.0, serial.digest.0
        ));
    }
    let fwd = |r: &SimReport| r.forwarded.0 + r.forwarded.1;
    if report.offered != serial.report.offered
        || fwd(report) != fwd(&serial.report)
        || report.drops.total() != serial.report.drops.total()
        || report.control_handled != CHURN_FRAMES
    {
        bad.push(format!(
            "two-shard counts offered {} forwarded {} dropped {} control {} differ from serial",
            report.offered,
            fwd(report),
            report.drops.total(),
            report.control_handled
        ));
    }
    bad
}

/// One timed two-shard round's figures.
struct Timed {
    setup_s: f64,
    phase_s: f64,
    offered: u64,
    bad: Vec<String>,
}

fn timed_round(s: &Settings, sc: &Scale, serial: &Serial) -> Timed {
    let t0 = Instant::now();
    let first = Cell::new(None);
    let modules: Vec<Mutex<Option<FlexSfp>>> = (0..SHARDS)
        .map(|_| Mutex::new(Some(nat_module(sc, None))))
        .collect();
    let arena = PacketArena::new();
    let mut digest = Digest::default();
    let mut n = 0u64;
    let run = run_sharded(
        SHARDS,
        &ModuleConfig::default(),
        |i| {
            modules[i]
                .lock()
                .expect("module slot lock is never held across a panic")
                .take()
                .expect("each shard takes its module once")
        },
        MarkFirst::new(Day::new(sc, s.seed, &arena), &first),
        |mut out| {
            if s.tamper.is_none() || tamper_output(s.tamper, n, &mut out) {
                digest.output(&out);
            }
            n += 1;
            arena.recycle(out.frame);
        },
    );
    let end = Instant::now();
    let first = first.get().unwrap_or(end);
    Timed {
        setup_s: secs(t0, first),
        phase_s: secs(first, end),
        offered: run.report.offered,
        bad: compare(serial, digest, &run.report),
    }
}

/// Run `city-soak`.
pub fn run(s: &Settings) -> Report {
    let sc = scale(s.size);
    let mut r = Report::default();
    let serial = checked_round(s, &sc, &mut r);
    let times = |rounds: &[Timed]| -> Vec<(u64, f64, f64)> {
        rounds
            .iter()
            .map(|t| (t.offered, t.setup_s, t.phase_s))
            .collect()
    };
    if !s.trace {
        let rounds = until(s.seconds, MIN_ROUNDS, || {
            let t = timed_round(s, &sc, &serial);
            let phase = t.phase_s;
            (t, phase)
        });
        for t in &rounds {
            r.round("city-soak two-shard round", t.offered, 0, &t.bad, &[]);
        }
        timings(&mut r, &times(&rounds), false);
        r.log(format!(
            "city-soak: {} two-shard rounds x {} packets, {} subscribers, {} table slots, \
             {} churn frames per round",
            rounds.len(),
            serial.report.offered,
            sc.subscribers,
            sc.table,
            CHURN_FRAMES
        ));
        return r;
    }

    // Traced: each step runs an untraced two-shard round, the same
    // sharded run with every stage timed, and serial NAT and
    // PassThrough companions over the same day, so host drift lands on
    // all of them alike.
    let tr = Tracer::new();
    let (mut pkts, mut nat_pkts, mut pass_pkts) = (0u64, 0u64, 0u64);
    let mut stages = [0f64; 4];
    let mut last = None;
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    while rounds.is_empty() || secs(t0, Instant::now()) < s.seconds {
        let t = timed_round(s, &sc, &serial);
        r.round("city-soak two-shard round", t.offered, 0, &t.bad, &[]);
        rounds.push(t);
        // Sharded, every stage timed by run_sharded_timed.
        let modules: Vec<Mutex<Option<FlexSfp>>> = (0..SHARDS)
            .map(|_| Mutex::new(Some(nat_module(&sc, Some(&tr)))))
            .collect();
        let arena = PacketArena::new();
        let mut digest = Digest::default();
        let every = Every::new(SAMPLE_EVERY);
        let (run, st) = tr.span("shard.run", || {
            run_sharded_timed(
                SHARDS,
                &ModuleConfig::default(),
                |i| {
                    modules[i]
                        .lock()
                        .expect("unpoisoned")
                        .take()
                        .expect("taken once")
                },
                Sampled::new(
                    Day::new(&sc, s.seed, &arena),
                    &tr,
                    "shard.gen",
                    SAMPLE_EVERY,
                ),
                |out| {
                    every.run(&tr, "shard.sink", || {
                        digest.output(&out);
                        arena.recycle(out.frame)
                    })
                },
            )
        });
        let bad = compare(&serial, digest, &run.report);
        r.round(
            "city-soak traced two-shard pass",
            run.report.offered,
            0,
            &bad,
            &[],
        );
        pkts += run.report.offered;
        stages[0] += st.dispatch_ns as f64;
        stages[1] += st.ring_ns as f64;
        stages[2] += st.shard_ns as f64;
        stages[3] += st.reconcile_ns as f64;
        last = Some((run.snapshot.cache, arena.allocations()));
        // Serial companions: the NAT, then PassThrough.
        for nat in [true, false] {
            let names = if nat {
                ["nat.run", "nat.gen", "nat.sink"]
            } else {
                ["pass.run", "pass.gen", "pass.sink"]
            };
            let mut m = if nat {
                nat_module(&sc, Some(&tr))
            } else {
                new_module(ModuleConfig::default(), Box::new(PassThrough), Some(&tr))
            };
            let arena = PacketArena::new();
            let mut digest = Digest::default();
            let every = Every::new(SAMPLE_EVERY);
            let report = tr.span(names[0], || {
                m.run_stream_with(
                    Sampled::new(Day::new(&sc, s.seed, &arena), &tr, names[1], SAMPLE_EVERY),
                    |out| {
                        every.run(&tr, names[2], || {
                            digest.output(&out);
                            arena.recycle(out.frame)
                        })
                    },
                )
            });
            if nat {
                nat_pkts += report.offered;
                let bad = compare(&serial, digest, &report);
                r.round("city-soak traced serial pass", report.offered, 0, &bad, &[]);
            } else {
                pass_pkts += report.offered;
            }
        }
    }
    let untraced_ns = timings(&mut r, &times(&rounds), true);
    let per = |ns: f64, n: u64| ns / n as f64;
    let gen = per(tr.self_ns("shard.gen"), pkts);
    let sink = per(tr.self_ns("shard.sink"), pkts);
    let dispatch = per(stages[0] - tr.total_ns("shard.gen"), pkts);
    let ring = per(stages[1], pkts);
    let engine = per(stages[2], pkts);
    let reconcile = per(stages[3], pkts);
    let traced = per(tr.total_ns("shard.run"), pkts);
    let shell = per(tr.self_ns("pass.run"), pass_pkts);
    let nat = per(tr.self_ns("nat.run"), nat_pkts) - shell;
    ledger(
        &mut r,
        "city-soak",
        traced,
        &[
            ("traffic (generator)", gen),
            ("bench::shard dispatch", dispatch),
            ("bench::shard ring", ring),
            ("bench::shard engine", engine),
            ("bench::shard reconcile (sink inside)", reconcile),
        ],
    );
    r.log(format!(
        "city-soak: of the reconcile stage, {sink:.1} ns/pkt is the benchmark's sink (digest); \
         serial companions: shell {shell:.1} ns/pkt (PassThrough), NAT {nat:.1} ns/pkt on top"
    ));
    let (cache, arena_allocs) = last.expect("at least one traced pass");
    per_layer(
        &mut r,
        &[
            ("traffic.gen_ns_per_pkt", gen),
            ("wire.arena_allocs", arena_allocs as f64),
            ("core.shell_ns_per_pkt", shell),
            ("apps.nat_ns_per_pkt", nat),
            (
                "apps.nat_populate_ms",
                tr.total_ns("apps.populate") / tr.calls("apps.populate") / 1e6,
            ),
            ("ppe.cache_hit_rate", cache.hit_rate()),
            ("ppe.cache_evictions", cache.evictions as f64),
            ("shard.dispatch_ns_per_pkt", dispatch),
            ("shard.ring_ns_per_pkt", ring),
            ("shard.engine_ns_per_pkt", engine),
            ("shard.reconcile_ns_per_pkt", reconcile),
            ("trace.overhead_pct", (traced / untraced_ns - 1.0) * 100.0),
        ],
    );
    write_spans(&tr, s);
    r
}
