//! The FlexSFP simulator benchmark: three workloads, each run in its
//! own process, timed from outside the program by calling each layer's
//! public functions.
//!
//! * [`linerate`] — `nat-linerate`: one module, 64 flows, 60-byte
//!   frames at 10 G line rate, flow cache on, serial and streaming.
//! * [`soak`] — `city-soak`: the metro day over 262 144 subscribers
//!   through the two-shard dataplane.
//! * [`rack`] — `rack`: two 48-port crosspoint-queued ToRs, 94 modules,
//!   lossy access spans.
//!
//! Each run repeats whole rounds of the same operations until the
//! packet phases add up to the requested seconds, checks every round's
//! outputs against computations of its own ([`check`]), and reports
//! medians over rounds. `--trace 1` adds a traced phase ([`trace`])
//! that splits each packet's host time across the layers.

pub mod check;
pub mod linerate;
pub mod mem;
pub mod rack;
pub mod soak;
pub mod trace;

use check::{fold, ones_sum};
use flexsfp_core::module::{FlexSfp, ModuleConfig, OutputPacket};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::PacketProcessor;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// Rounds every run makes at least, so medians have something to take
/// the middle of.
pub const MIN_ROUNDS: usize = 3;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One NAT module at 10 G line rate, 64 flows, minimum frames.
    NatLinerate,
    /// The metro day through the two-shard dataplane.
    CitySoak,
    /// Two ToRs, 94 modules, lossy access spans.
    Rack,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::NatLinerate, Workload::CitySoak, Workload::Rack];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NatLinerate => "nat-linerate",
            Workload::CitySoak => "city-soak",
            Workload::Rack => "rack",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A deliberate corruption of the program's outputs, applied between
/// the program and the checks, to show that the checks fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Flip one byte of the n-th output of every round: the last byte
    /// of a module output, a host-MAC byte of a rack delivery.
    FlipByte(u64),
    /// Give the n-th module output of every round another IPv4 source,
    /// with both checksums fixed up, so only the NAT model can tell.
    WrongSource(u64),
    /// Withhold the n-th output (delivery) of every round.
    Drop(u64),
    /// Rack only: build ToR 1's uplink ACL without its deny rule.
    OpenAcl,
}

/// Apply `tamper` to output number `n` of a round; returns false when
/// the output is to be withheld.
pub fn tamper_output(tamper: Option<Tamper>, n: u64, out: &mut OutputPacket) -> bool {
    match tamper {
        Some(Tamper::FlipByte(k)) if k == n => {
            if let Some(b) = out.frame.last_mut() {
                *b ^= 0x01;
            }
        }
        Some(Tamper::WrongSource(k)) if k == n => rewrite_source(&mut out.frame),
        Some(Tamper::Drop(k)) if k == n => return false,
        _ => {}
    }
    true
}

/// Give an IPv4 frame another source address and recompute both
/// checksums from scratch, so the frame is well-formed but wrong.
fn rewrite_source(f: &mut [u8]) {
    if f.len() < 42 || f[12..14] != [0x08, 0x00] {
        return;
    }
    f[26] ^= 0x40;
    f[24..26].fill(0);
    let c = !fold(ones_sum(0, &f[14..34]));
    f[24..26].copy_from_slice(&c.to_be_bytes());
    let total = usize::from(u16::from_be_bytes([f[16], f[17]]));
    let (at, proto) = match f[23] {
        17 => (40, 17u8),
        6 => (50, 6u8),
        _ => return,
    };
    f[at..at + 2].fill(0);
    let seg_len = total - 20;
    let sum = ones_sum(0, &f[26..34]) + u64::from(proto) + seg_len as u64;
    let c = !fold(ones_sum(sum, &f[34..14 + total]));
    f[at..at + 2].copy_from_slice(&c.to_be_bytes());
}

/// Input sizes: the benchmark's, or a tiny set for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Tiny inputs of the same shape, for the benchmark's tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: derives the generated inputs, nothing else.
    pub seed: u64,
    /// Packet-phase seconds to measure.
    pub seconds: f64,
    /// Add the traced phase and print per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Output corruption, for tests.
    pub tamper: Option<Tamper>,
}

/// One metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted: packets (frames) offered, checked rounds
    /// included.
    pub attempted: u64,
    /// Operations whose output failed a check. A round-level identity
    /// that fails fails every operation of its round.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: reference figures, ledger, failures.
    pub log: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Add a log line.
    pub fn log(&mut self, line: impl Into<String>) {
        self.log.push(line.into());
    }

    /// Account one round of `ops` operations of which `failed` failed
    /// per-operation checks, and `bad` round-level identities failed.
    pub fn round(&mut self, name: &str, ops: u64, failed: u64, bad: &[String], why: &[String]) {
        self.attempted += ops;
        self.failed += if bad.is_empty() { failed.min(ops) } else { ops };
        for b in bad.iter().chain(why).take(8) {
            self.log(format!("FAILED {name}: {b}"));
        }
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Run `round` until the packet phases it reports (second element,
/// seconds) add up to `seconds`, and at least `min` times.
pub fn until<R>(seconds: f64, min: usize, mut round: impl FnMut() -> (R, f64)) -> Vec<R> {
    let mut out = Vec::new();
    let mut spent = 0.0;
    while out.len() < min || spent < seconds {
        let (r, s) = round();
        spent += s;
        out.push(r);
    }
    out
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v`; NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Host nanoseconds per packet over the packet phases of `rounds`,
/// each (packets offered, set-up s, packet-phase s). Unless `traced`,
/// also report the end-to-end timings: `sim_mpps`, every packet
/// offered over every packet-phase second, and `setup_s`, the median
/// set-up of a round.
pub fn timings(r: &mut Report, rounds: &[(u64, f64, f64)], traced: bool) -> f64 {
    let packets: u64 = rounds.iter().map(|x| x.0).sum();
    let phase_s: f64 = rounds.iter().map(|x| x.2).sum();
    if !traced {
        let mpps: Vec<f64> = rounds.iter().map(|x| x.0 as f64 / x.2 / 1e6).collect();
        let setup: Vec<f64> = rounds.iter().map(|x| x.1).collect();
        r.metric("sim_mpps", packets as f64 / phase_s / 1e6, "Mpps");
        r.metric("setup_s", median(&setup), "s");
        r.log(summary("sim_mpps", &mpps));
        r.log(summary("setup_s", &setup));
    }
    phase_s * 1e9 / packets as f64
}

/// A log line summarising per-round values: count, min, quartiles,
/// max.
fn summary(name: &str, v: &[f64]) -> String {
    format!(
        "  {name} per round (n={}): min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        v.len(),
        quantile(v, 0.0),
        quantile(v, 0.25),
        quantile(v, 0.5),
        quantile(v, 0.75),
        quantile(v, 1.0)
    )
}

/// Seconds between two instants.
pub fn secs(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Derive an independent 64-bit seed from the run seed and a stream
/// label (SplitMix64 finalizer).
pub fn derive(seed: u64, label: u64) -> u64 {
    let mut z = seed
        .wrapping_add(label.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build a module; under a tracer, as a `core.FlexSfp::new` span.
pub fn new_module(
    config: ModuleConfig,
    app: Box<dyn PacketProcessor>,
    tracer: Option<&Tracer>,
) -> FlexSfp {
    match tracer {
        Some(tr) => tr.span("core.FlexSfp::new", || FlexSfp::new(config, app)),
        None => FlexSfp::new(config, app),
    }
}

/// Modules the set-up probe builds and holds.
const PROBE_MODULES: usize = 4;

/// `FlexSfp::new` on fresh memory, as at the start of a process:
/// [`PROBE_MODULES`] pass-through modules built and held, each timed
/// and its resident-set growth read. Medians of (ms, kB). Later
/// constructions in a run may reuse memory the allocator kept, which
/// would hide the module's footprint, so the traced run probes first.
pub fn module_probe() -> (f64, f64) {
    let mut held = Vec::with_capacity(PROBE_MODULES);
    let (mut ms, mut kb) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_MODULES {
        let rss0 = mem::rss_kb();
        let t0 = Instant::now();
        held.push(FlexSfp::new(ModuleConfig::default(), Box::new(PassThrough)));
        ms.push(secs(t0, Instant::now()) * 1e3);
        kb.push(mem::rss_kb().saturating_sub(rss0) as f64);
    }
    (median(&ms), median(&kb))
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer the
/// workload does not cross reads 0.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("traffic.gen_ns_per_pkt", "ns"),
    ("wire.arena_allocs", "count"),
    ("core.shell_ns_per_pkt", "ns"),
    ("core.module_new_ms", "ms"),
    ("core.module_rss_kb", "kB"),
    ("apps.nat_ns_per_pkt", "ns"),
    ("apps.nat_populate_ms", "ms"),
    ("ppe.cache_hit_rate", "ratio"),
    ("ppe.cache_evictions", "count"),
    ("shard.dispatch_ns_per_pkt", "ns"),
    ("shard.ring_ns_per_pkt", "ns"),
    ("shard.engine_ns_per_pkt", "ns"),
    ("shard.reconcile_ns_per_pkt", "ns"),
    ("host.tor_build_s", "s"),
    ("host.chaos_ns_per_frame", "ns"),
    ("host.inject_ns_p50", "ns"),
    ("host.inject_ns_p99", "ns"),
    ("host.cage_ns_per_frame", "ns"),
    ("host.drain_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Order `r`'s per-layer metrics as [`PER_LAYER`], filling the layers
/// the workload did not cross with 0.
pub fn per_layer(r: &mut Report, measured: &[(&'static str, f64)]) {
    for (name, unit) in PER_LAYER {
        let v = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v);
        r.metric(name, v, unit);
    }
}

/// Run one workload.
pub fn run(s: &Settings) -> Report {
    let probe = s.trace.then(module_probe);
    let mut r = match s.workload {
        Workload::NatLinerate => linerate::run(s),
        Workload::CitySoak => soak::run(s),
        Workload::Rack => rack::run(s),
    };
    match probe {
        Some((ms, kb)) => {
            for m in &mut r.metrics {
                match m.name {
                    "core.module_new_ms" => m.value = ms,
                    "core.module_rss_kb" => m.value = kb,
                    _ => {}
                }
            }
        }
        None => r.metric(
            "peak_rss_mb",
            mem::peak_rss_kb() as f64 * 1024.0 / 1e6,
            "MB",
        ),
    }
    r
}

/// Log the per-packet ledger of a traced run: each layer's self time
/// and what share of the traced per-packet time the layers account for.
pub fn ledger(r: &mut Report, workload: &str, traced_ns: f64, layers: &[(&str, f64)]) {
    let sum: f64 = layers.iter().map(|l| l.1).sum();
    r.log(format!(
        "{workload} ledger: traced {traced_ns:.1} ns/pkt; layers sum to {sum:.1} ({:.1}%)",
        100.0 * sum / traced_ns
    ));
    for (name, ns) in layers {
        r.log(format!("  {name:<36} {ns:>9.1} ns/pkt"));
    }
    r.log(format!(
        "  {:<36} {:>9.1} ns/pkt",
        "unattributed",
        traced_ns - sum
    ));
}

/// Write the traced run's spans next to the benchmark's sources, under
/// `out/`.
pub fn write_spans(tr: &Tracer, s: &Settings) {
    if s.size == Size::Tiny {
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.json", s.workload.name(), s.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}
