//! Output checks computed apart from the program.
//!
//! Nothing here calls the simulator's own checksum, parsing or table
//! code: checksums are recomputed from the frame bytes (RFC 1071), the
//! NAT map is the benchmark's own model of what it installed, and the
//! output digest is a fold the benchmark owns.

use flexsfp_core::control::{ControlPlane, ControlResponse, CtlTableOp, CtlTableResult};
use flexsfp_core::module::{Interface, ModuleConfig, OutputPacket, SimReport};
use std::collections::VecDeque;

/// Ethernet header length of every frame the workloads generate
/// (untagged).
const ETH: usize = 14;

/// RFC 1071 ones'-complement sum of `data` as big-endian 16-bit words,
/// an odd trailing byte padded with zero, added to `sum`.
pub fn ones_sum(mut sum: u64, data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(2);
    for w in &mut words {
        sum += u64::from(u16::from_be_bytes([w[0], w[1]]));
    }
    if let [last] = words.remainder() {
        sum += u64::from(*last) << 8;
    }
    sum
}

/// Fold a ones'-complement sum to 16 bits.
pub fn fold(mut sum: u64) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// The IPv4 header of an untagged Ethernet frame: (header offset,
/// header length, total length), or `None` when the frame is not a
/// well-formed IPv4 frame.
fn ipv4(frame: &[u8]) -> Option<(usize, usize, usize)> {
    if frame.len() < ETH + 20 || frame[12..14] != [0x08, 0x00] {
        return None;
    }
    let ihl = usize::from(frame[ETH] & 0x0f) * 4;
    let total = usize::from(u16::from_be_bytes([frame[ETH + 2], frame[ETH + 3]]));
    if frame[ETH] >> 4 != 4 || ihl < 20 || total < ihl || frame.len() < ETH + total {
        return None;
    }
    Some((ETH, ihl, total))
}

/// True when the frame's IPv4 header checksum verifies and its TCP or
/// UDP checksum verifies over the pseudo-header and the whole segment.
/// A UDP checksum of zero means "none" (RFC 768) and passes.
pub fn checksums_ok(frame: &[u8]) -> bool {
    let Some((ip, ihl, total)) = ipv4(frame) else {
        return false;
    };
    if fold(ones_sum(0, &frame[ip..ip + ihl])) != 0xffff {
        return false;
    }
    let proto = frame[ip + 9];
    let seg = &frame[ip + ihl..ip + total];
    let min = match proto {
        17 => 8,
        6 => 20,
        _ => return true,
    };
    if seg.len() < min || (proto == 17 && seg[6..8] == [0, 0]) {
        return seg.len() >= min;
    }
    let mut sum = ones_sum(0, &frame[ip + 12..ip + 20]);
    sum += u64::from(proto) + seg.len() as u64;
    fold(ones_sum(sum, seg)) == 0xffff
}

/// IPv4 source address of a frame, if it is IPv4.
pub fn ipv4_src(frame: &[u8]) -> Option<u32> {
    ipv4(frame).map(|(ip, _, _)| u32::from_be_bytes(frame[ip + 12..ip + 16].try_into().unwrap()))
}

/// Fold constant (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Order-sensitive 64-bit fold over every output a round produced:
/// departure time, egress side and frame bytes. Cheap enough to run in
/// the timed phase; two rounds with the same digest produced the same
/// output stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(K)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(23) ^ w).wrapping_mul(K);
    }

    /// Fold raw bytes (length included): the words are combined with a
    /// rotate-xor chain and the result mixed in with one multiply, so
    /// the cost per byte stays far below the simulator's.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut acc = bytes.len() as u64;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            acc = acc.rotate_left(5) ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            acc = acc.rotate_left(5) ^ u64::from_le_bytes(tail);
        }
        self.word(acc);
    }

    /// Fold one module output.
    pub fn output(&mut self, out: &OutputPacket) {
        self.word(out.departure_ns << 1 | u64::from(out.egress == Interface::Optical));
        self.bytes(&out.frame);
    }
}

/// Digest of a frame with the fields a source NAT may rewrite zeroed:
/// the IPv4 source, the IPv4 header checksum and the TCP/UDP checksum.
/// Input and translated output must agree on it.
pub fn masked_digest(frame: &[u8]) -> u64 {
    let mut d = Digest::default();
    let Some((ip, ihl, total)) = ipv4(frame) else {
        d.bytes(frame);
        return d.0;
    };
    let mut head = [0u8; 128];
    let n = frame.len().min(head.len());
    head[..n].copy_from_slice(&frame[..n]);
    let mut zero = |at: usize| {
        if at + 2 <= n {
            head[at] = 0;
            head[at + 1] = 0;
        }
    };
    zero(ip + 10);
    zero(ip + 12);
    zero(ip + 14);
    let l4 = ip + ihl;
    match frame[ip + 9] {
        17 if total >= ihl + 8 => zero(l4 + 6),
        6 if total >= ihl + 20 => zero(l4 + 16),
        _ => {}
    }
    d.bytes(&head[..n]);
    d.bytes(&frame[n..]);
    d.0
}

/// The benchmark's own model of a static source-NAT map over one
/// contiguous private block: `public[i]` is the translation of
/// `base + i`, 0 when unmapped.
#[derive(Debug, Clone)]
pub struct NatModel {
    base: u32,
    public: Vec<u32>,
}

impl NatModel {
    /// An empty map over `len` private addresses from `base`.
    pub fn new(base: u32, len: usize) -> NatModel {
        NatModel {
            base,
            public: vec![0; len],
        }
    }

    /// Record an installed mapping; addresses outside the block are
    /// not modelled.
    pub fn set(&mut self, private: u32, public: u32) {
        let i = private.wrapping_sub(self.base) as usize;
        if let Some(p) = self.public.get_mut(i) {
            *p = public;
        }
    }

    /// Forget a mapping.
    pub fn clear(&mut self, private: u32) {
        self.set(private, 0);
    }

    /// The translation of `private`, if mapped.
    pub fn get(&self, private: u32) -> Option<u32> {
        let i = private.wrapping_sub(self.base) as usize;
        self.public.get(i).copied().filter(|&p| p != 0)
    }
}

/// What a data packet's output must look like.
struct Expect {
    tag: u64,
    len: usize,
    src: u32,
    masked: u64,
}

/// Streaming checker for one serial NAT round driven through a
/// [`flexsfp_core::StreamSession`]: told every offer, shown every
/// output with its input tag. Each data output must leave on the
/// optical side with its length and every byte but the rewritten
/// fields unchanged, a source the model predicts, and checksums that
/// verify from scratch. Each churn reply is decoded and applied to the
/// model, so packets offered after it are judged against the new map.
pub struct NatChecker {
    model: NatModel,
    config: ModuleConfig,
    pending: VecDeque<Expect>,
    ctl: VecDeque<(u64, CtlTableOp)>,
    /// Output digest, the same fold the timed rounds compute.
    pub digest: Digest,
    /// Packets offered (data and control).
    pub offered: u64,
    /// Control frames offered.
    pub ctl_offered: u64,
    /// Data packets with a checked output.
    pub data_out: u64,
    /// Data packets that produced no output.
    pub missing: u64,
    /// Control replies seen.
    pub ctl_replies: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failures, for the log.
    pub why: Vec<String>,
}

impl NatChecker {
    /// A checker starting from `model`, for modules built with `config`.
    pub fn new(model: NatModel, config: ModuleConfig) -> NatChecker {
        NatChecker {
            model,
            config,
            pending: VecDeque::new(),
            ctl: VecDeque::new(),
            digest: Digest::default(),
            offered: 0,
            ctl_offered: 0,
            data_out: 0,
            missing: 0,
            ctl_replies: 0,
            failed: 0,
            why: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.why.len() < 8 {
            self.why.push(msg);
        }
    }

    /// A data packet with input tag `tag` is about to be offered.
    pub fn offer_data(&mut self, tag: u64, frame: &[u8]) {
        self.offered += 1;
        let src = ipv4_src(frame).unwrap_or(0);
        self.pending.push_back(Expect {
            tag,
            len: frame.len(),
            src: self.model.get(src).unwrap_or(src),
            masked: masked_digest(frame),
        });
    }

    /// A churn control frame carrying `op` is about to be offered.
    pub fn offer_control(&mut self, tag: u64, op: CtlTableOp) {
        self.offered += 1;
        self.ctl_offered += 1;
        self.ctl.push_back((tag, op));
    }

    /// One output, with the tag of the input that produced it.
    pub fn output(&mut self, tag: u64, out: &OutputPacket) {
        self.digest.output(out);
        if self.ctl.front().is_some_and(|&(t, _)| t == tag) {
            let (_, op) = self.ctl.pop_front().expect("front checked");
            self.reply(op, out);
            return;
        }
        while self.pending.front().is_some_and(|e| e.tag < tag) {
            self.pending.pop_front();
            self.missing += 1;
        }
        let Some(e) = self.pending.pop_front().filter(|e| e.tag == tag) else {
            self.fail(format!("output for tag {tag} matches no pending input"));
            return;
        };
        self.data_out += 1;
        let f = &out.frame;
        if out.egress != Interface::Optical {
            self.fail(format!("tag {tag}: left on {:?}", out.egress));
        } else if f.len() != e.len || masked_digest(f) != e.masked {
            self.fail(format!("tag {tag}: bytes outside the NAT fields changed"));
        } else if ipv4_src(f) != Some(e.src) {
            self.fail(format!(
                "tag {tag}: source {:08x?}, model says {:08x}",
                ipv4_src(f),
                e.src
            ));
        } else if !checksums_ok(f) {
            self.fail(format!("tag {tag}: checksum does not verify"));
        }
    }

    /// Apply a churn reply to the model.
    fn reply(&mut self, op: CtlTableOp, out: &OutputPacket) {
        self.ctl_replies += 1;
        let payload = ipv4(&out.frame).and_then(|(ip, ihl, total)| {
            (total >= ihl + 8).then(|| &out.frame[ip + ihl + 8..ip + total])
        });
        let result =
            match payload.and_then(|p| ControlPlane::decode_response(&self.config.auth_key, p)) {
                Some(ControlResponse::Table(r)) => r,
                other => return self.fail(format!("churn reply undecodable: {other:?}")),
            };
        let ip = |k: &[u8]| u32::from_be_bytes(k.try_into().unwrap_or([0; 4]));
        match (&op, result) {
            (CtlTableOp::Insert { key, value, .. }, CtlTableResult::Ok) => {
                self.model.set(ip(key), ip(value))
            }
            // A refused insert of a key not yet mapped leaves the map
            // as it was; refusing an update of a mapped key is a fault.
            (CtlTableOp::Insert { key, .. }, CtlTableResult::TableFull)
                if self.model.get(ip(key)).is_none() => {}
            (CtlTableOp::Delete { key, .. }, CtlTableResult::Ok)
                if self.model.get(ip(key)).is_some() =>
            {
                self.model.clear(ip(key))
            }
            (CtlTableOp::Delete { key, .. }, CtlTableResult::NotFound)
                if self.model.get(ip(key)).is_none() => {}
            (op, r) => self.fail(format!("churn {op:?} answered {r:?}")),
        }
    }

    /// Close the round: whatever is still pending produced no output.
    /// Returns the round-level identities that failed: offered equals
    /// forwarded plus explained drops, nothing dropped unexplained, and
    /// every churn frame answered.
    pub fn finish(&mut self, report: &SimReport, churn_expected: u64) -> Vec<String> {
        self.missing += self.pending.len() as u64;
        self.pending.clear();
        let mut bad = Vec::new();
        let forwarded = report.forwarded.0 + report.forwarded.1;
        let unexplained = report.drops.fifo_overflow + report.drops.link + report.drops.unsorted;
        if report.offered != self.offered {
            bad.push(format!(
                "offered {} vs {} sent",
                report.offered, self.offered
            ));
        }
        if forwarded + report.drops.app + report.control_handled != report.offered {
            bad.push(format!(
                "offered {} != forwarded {forwarded} + app drops {} + control {}",
                report.offered, report.drops.app, report.control_handled
            ));
        }
        if unexplained != 0 {
            bad.push(format!("{unexplained} unexplained drops"));
        }
        if self.data_out != forwarded || self.missing != report.drops.app {
            bad.push(format!(
                "saw {} outputs and {} silent drops, module reports {forwarded} and {}",
                self.data_out, self.missing, report.drops.app
            ));
        }
        if self.ctl_offered != churn_expected
            || self.ctl_replies != churn_expected
            || report.control_handled != churn_expected
        {
            bad.push(format!(
                "churn: {} sent, {} replies, {} handled, {churn_expected} expected",
                self.ctl_offered, self.ctl_replies, report.control_handled
            ));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example_sums() {
        // RFC 1071 §3 example: 0001 f203 f4f5 f6f7 sums to ddf2.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(ones_sum(0, &data)), 0xddf2);
    }

    #[test]
    fn generated_frame_verifies_and_a_flip_does_not() {
        let frame = flexsfp_wire::builder::PacketBuilder::eth_ipv4_udp(
            flexsfp_wire::MacAddr([2; 6]),
            flexsfp_wire::MacAddr([4; 6]),
            0x0a00_0001,
            0x0a00_0002,
            1000,
            2000,
            b"checksum me",
        );
        assert!(checksums_ok(&frame));
        // Every byte the IPv4 total length covers is protected; padding
        // after it is not.
        let (_, _, total) = ipv4(&frame).unwrap();
        for at in ETH..ETH + total {
            let mut bad = frame.clone();
            bad[at] ^= 0x10;
            assert!(!checksums_ok(&bad), "flip at byte {at} not caught");
        }
    }
}
