//! `nat-linerate`: the paper's §5.1 case at the smallest frame.
//!
//! One FlexSFP running `StaticNat` over [`FLOWS`] flows, 60-byte frames
//! paced at 10 G line rate, flow cache on, serial and streaming. Nearly
//! every packet hits the cache, so the module shell and the generator
//! set the rate; big tables, sharding and the host fabric are bypassed.
//!
//! A round builds a fresh module (set-up: the NAT table, `FlexSfp::new`,
//! the generator) and streams [`round_packets`] through
//! `FlexSfp::run_stream_with`, folding every output into a
//! [`Digest`]. The first round is the checked one: it is driven through
//! a `StreamSession` so each output is matched with its input and
//! judged by [`NatChecker`]; every timed round must then reproduce its
//! digest.

use crate::check::{Digest, NatChecker, NatModel};
use crate::mem::Cpus;
use crate::trace::{Every, MarkFirst, Sampled, Tracer, SAMPLE_EVERY};
use crate::{
    derive, ledger, new_module, per_layer, secs, tamper_output, timings, until, write_spans,
    Report, Settings, Size, MIN_ROUNDS,
};
use flexsfp_apps::StaticNat;
use flexsfp_core::module::{FlexSfp, ModuleConfig, OutputPacket, SimPacket};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::{Direction, PacketProcessor};
use flexsfp_traffic::gen::ArrivalModel;
use flexsfp_traffic::{SizeModel, TraceBuilder};
use flexsfp_wire::PacketArena;
use std::cell::Cell;
use std::time::Instant;

/// Flow count and NAT population.
pub const FLOWS: usize = 64;
/// Frame length: the minimum frame without FCS.
pub const FRAME_LEN: usize = 60;
/// Private source block.
const PRIVATE_BASE: u32 = 0xc0a8_0000;
/// Public pool.
const PUBLIC_BASE: u32 = 0x6540_0000;

/// Packets per round.
pub fn round_packets(size: Size) -> usize {
    match size {
        Size::Full => 1_000_000,
        Size::Tiny => 20_000,
    }
}

/// A NAT holding `count` mappings `private_base + i → public_base + i`
/// in a `capacity`-slot table, and the benchmark's model of what the
/// table accepted. Under a tracer the insert loop is an
/// `apps.populate` span.
pub fn build_nat(
    capacity: usize,
    count: usize,
    private_base: u32,
    public_base: u32,
    model_len: usize,
    tracer: Option<&Tracer>,
) -> (StaticNat, NatModel) {
    let mut nat = StaticNat::with_capacity(capacity);
    let mut model = NatModel::new(private_base, model_len);
    let mut populate = || {
        for i in 0..count as u32 {
            let (private, public) = (private_base.wrapping_add(i), public_base.wrapping_add(i));
            if nat.add_mapping(private, public).is_ok() {
                model.set(private, public);
            }
        }
    };
    match tracer {
        Some(tr) => tr.span("apps.populate", populate),
        None => populate(),
    }
    nat.set_flow_cache(true);
    (nat, model)
}

/// The round's input stream.
fn stream(seed: u64, packets: usize, arena: &PacketArena) -> impl Iterator<Item = SimPacket> {
    TraceBuilder::new(derive(seed, 1))
        .flows(FLOWS)
        .src_base(PRIVATE_BASE)
        .sizes(SizeModel::Fixed(FRAME_LEN))
        .arrivals(ArrivalModel::Paced { utilization: 1.0 })
        .stream_pooled(packets, arena.clone())
        .map(|p| SimPacket {
            arrival_ns: p.arrival_ns,
            direction: Direction::EdgeToOptical,
            frame: p.frame,
        })
}

/// A module for one round: the NAT, or a `PassThrough` companion.
fn module(nat: bool, tracer: Option<&Tracer>) -> (FlexSfp, NatModel) {
    let (app, model): (Box<dyn PacketProcessor>, _) = if nat {
        let (nat, model) = build_nat(
            flexsfp_apps::nat::FLOW_CAPACITY,
            FLOWS,
            PRIVATE_BASE,
            PUBLIC_BASE,
            FLOWS,
            tracer,
        );
        (Box::new(nat), model)
    } else {
        (Box::new(PassThrough), NatModel::new(PRIVATE_BASE, 0))
    };
    (new_module(ModuleConfig::default(), app, tracer), model)
}

/// The checked round: every output matched with its input and judged.
fn checked_round(s: &Settings, packets: usize, r: &mut Report) -> Digest {
    let (mut m, model) = module(true, None);
    let mut checker = NatChecker::new(model, ModuleConfig::default());
    let arena = PacketArena::new();
    let mut session = m.begin_stream();
    let mut n = 0u64;
    let mut sink = |checker: &mut NatChecker, tag: u64, mut out: OutputPacket| {
        if tamper_output(s.tamper, n, &mut out) {
            checker.output(tag, &out);
        }
        n += 1;
        arena.recycle(out.frame);
    };
    for (tag, pkt) in stream(s.seed, packets, &arena).enumerate() {
        checker.offer_data(tag as u64, &pkt.frame);
        session.offer(&mut m, tag as u64, pkt, &mut |t, o| {
            sink(&mut checker, t, o)
        });
    }
    let report = session.finish(&mut m, &mut |t, o| sink(&mut checker, t, o));
    let bad = checker.finish(&report, 0);
    r.round(
        "nat-linerate checked round",
        checker.offered,
        checker.failed,
        &bad,
        &checker.why,
    );
    checker.digest
}

/// One timed round's figures.
struct Timed {
    setup_s: f64,
    phase_s: f64,
    offered: u64,
    digest: Digest,
}

/// One timed round: fresh module, stream, digest sink.
fn timed_round(s: &Settings, packets: usize) -> Timed {
    let t0 = Instant::now();
    let first = Cell::new(None);
    let (mut m, _) = module(true, None);
    let arena = PacketArena::new();
    let mut digest = Digest::default();
    let mut n = 0u64;
    let report = m.run_stream_with(
        MarkFirst::new(stream(s.seed, packets, &arena), &first),
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
        offered: report.offered,
        digest,
    }
}

/// Account a timed round, whose output must reproduce the checked
/// round's digest `want`.
fn check_timed(r: &mut Report, t: &Timed, want: Digest) {
    let bad = if t.digest == want {
        vec![]
    } else {
        vec![format!(
            "output digest {:016x} != checked {:016x}",
            t.digest.0, want.0
        )]
    };
    r.round("nat-linerate round", t.offered, 0, &bad, &[]);
}

/// What a traced pass leaves behind.
struct TracedPass {
    offered: u64,
    arena_allocs: u64,
    cache: flexsfp_obs::CacheStats,
    digest: Digest,
}

/// One traced pass of the round's stream through a NAT (`nat`) or a
/// `PassThrough` module: a `names[0]` span around the module call with
/// sampled `names[1]` (generator) and `names[2]` (sink) children.
fn traced_pass(s: &Settings, tr: &Tracer, nat: bool, names: [&'static str; 3]) -> TracedPass {
    let packets = round_packets(s.size);
    let (mut m, _) = module(nat, Some(tr));
    let arena = PacketArena::new();
    let mut digest = Digest::default();
    let every = Every::new(SAMPLE_EVERY);
    let report = tr.span(names[0], || {
        m.run_stream_with(
            Sampled::new(stream(s.seed, packets, &arena), tr, names[1], SAMPLE_EVERY),
            |out| {
                every.run(tr, names[2], || {
                    digest.output(&out);
                    arena.recycle(out.frame)
                })
            },
        )
    });
    TracedPass {
        offered: report.offered,
        arena_allocs: arena.allocations(),
        cache: m.app_mut().cache_stats().unwrap_or_default(),
        digest,
    }
}

/// Run `nat-linerate`.
pub fn run(s: &Settings) -> Report {
    let mut r = Report::default();
    let packets = round_packets(s.size);
    let want = checked_round(s, packets, &mut r);
    let times = |rounds: &[Timed]| -> Vec<(u64, f64, f64)> {
        rounds
            .iter()
            .map(|t| (t.offered, t.setup_s, t.phase_s))
            .collect()
    };
    if !s.trace {
        let cpus = Cpus::allowed();
        let mut k = 0;
        let rounds = until(s.seconds, MIN_ROUNDS, || {
            cpus.pin(k);
            k += 1;
            let t = timed_round(s, packets);
            let phase = t.phase_s;
            (t, phase)
        });
        cpus.unpin();
        for t in &rounds {
            check_timed(&mut r, t, want);
        }
        timings(&mut r, &times(&rounds), false);
        r.log(format!(
            "nat-linerate: {} rounds x {packets} packets, {FLOWS} flows, {FRAME_LEN} B frames; digest {:016x}",
            rounds.len(),
            want.0
        ));
        return r;
    }

    // Traced: each step runs an untraced round, a traced NAT pass and a
    // traced PassThrough pass, so host drift lands on all three alike.
    let tr = Tracer::new();
    let mut rounds = Vec::new();
    let mut last = None;
    let (mut nat_pkts, mut pass_pkts) = (0u64, 0u64);
    let cpus = Cpus::allowed();
    let t0 = Instant::now();
    while rounds.len() < MIN_ROUNDS || secs(t0, Instant::now()) < s.seconds {
        cpus.pin(rounds.len());
        let t = timed_round(s, packets);
        check_timed(&mut r, &t, want);
        rounds.push(t);
        let p = traced_pass(s, &tr, true, ["nat.run", "nat.gen", "nat.sink"]);
        let bad = if p.digest == want {
            vec![]
        } else {
            vec![format!(
                "traced output digest {:016x} != checked {:016x}",
                p.digest.0, want.0
            )]
        };
        r.round("nat-linerate traced pass", p.offered, 0, &bad, &[]);
        nat_pkts += p.offered;
        last = Some(p);
        pass_pkts += traced_pass(s, &tr, false, ["pass.run", "pass.gen", "pass.sink"]).offered;
    }
    cpus.unpin();
    let untraced_ns = timings(&mut r, &times(&rounds), true);
    let per = |name: &str, pkts: u64| tr.self_ns(name) / pkts as f64;
    let gen = per("nat.gen", nat_pkts);
    let sink = per("nat.sink", nat_pkts);
    let shell = per("pass.run", pass_pkts);
    let nat = per("nat.run", nat_pkts) - shell;
    let traced = tr.total_ns("nat.run") / nat_pkts as f64;
    let last = last.expect("at least one traced pass");
    ledger(
        &mut r,
        "nat-linerate",
        traced,
        &[
            ("traffic (generator)", gen),
            ("core (shell, obs inside)", shell),
            ("apps+ppe (NAT)", nat),
            ("bench sink (digest)", sink),
        ],
    );
    per_layer(
        &mut r,
        &[
            ("traffic.gen_ns_per_pkt", gen),
            ("wire.arena_allocs", last.arena_allocs as f64),
            ("core.shell_ns_per_pkt", shell),
            ("apps.nat_ns_per_pkt", nat),
            (
                "apps.nat_populate_ms",
                tr.total_ns("apps.populate") / tr.calls("apps.populate") / 1e6,
            ),
            ("ppe.cache_hit_rate", last.cache.hit_rate()),
            ("ppe.cache_evictions", last.cache.evictions as f64),
            ("trace.overhead_pct", (traced / untraced_ns - 1.0) * 100.0),
        ],
    );
    write_spans(&tr, s);
    r
}
