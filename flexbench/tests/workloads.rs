//! Every workload at a tiny size passes its checks, prints the metrics
//! `BENCHMARK.json` names, and reports a corrupted output as a failed
//! operation.

use flexbench::{rack, run, Report, Settings, Size, Tamper, Workload, PER_LAYER};
use std::sync::Mutex;

/// The rack holds 94 modules of 16 MiB each: run one test at a time so
/// the suite's memory stays that of one rack.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool, tamper: Option<Tamper>) -> Report {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    run(&Settings {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        tamper,
    })
}

fn names(r: &Report) -> Vec<&str> {
    r.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_runs_tiny_and_passes_its_checks() {
    for w in Workload::ALL {
        let r = tiny(w, false, None);
        assert_eq!(r.failed, 0, "{}: {:#?}", w.name(), r.log);
        assert!(r.attempted > 0, "{}", w.name());
        assert_eq!(
            names(&r),
            ["sim_mpps", "setup_s", "peak_rss_mb"],
            "{}",
            w.name()
        );
        for m in &r.metrics {
            assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
        }
        assert!(r.json().starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let crossed: [(Workload, &[&str]); 3] = [
        (
            Workload::NatLinerate,
            &[
                "traffic.gen_ns_per_pkt",
                "core.shell_ns_per_pkt",
                "apps.nat_ns_per_pkt",
            ],
        ),
        (
            Workload::CitySoak,
            &[
                "shard.engine_ns_per_pkt",
                "apps.nat_populate_ms",
                "ppe.cache_hit_rate",
            ],
        ),
        (
            Workload::Rack,
            &[
                "host.tor_build_s",
                "host.inject_ns_p99",
                "host.chaos_ns_per_frame",
            ],
        ),
    ];
    for (w, layers) in crossed {
        let r = tiny(w, true, None);
        assert_eq!(r.failed, 0, "{}: {:#?}", w.name(), r.log);
        let want: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        assert_eq!(names(&r), want, "{}", w.name());
        // `core.module_rss_kb` is left out: it reads the growth of a
        // fresh process, and earlier tests in this one freed modules
        // the allocator may hand out again.
        for &l in layers.iter().chain(&["core.module_new_ms"]) {
            let v = r.get(l).expect("listed");
            assert!(v > 0.0, "{}: {l} = {v}", w.name());
        }
        assert!(
            r.log.iter().any(|l| l.contains("ledger")),
            "{}: no ledger in {:#?}",
            w.name(),
            r.log
        );
    }
}

#[test]
fn a_flipped_byte_is_a_failed_operation() {
    for w in [Workload::NatLinerate, Workload::CitySoak] {
        let r = tiny(w, false, Some(Tamper::FlipByte(100)));
        assert_eq!(r.failed, 1, "{}: {:#?}", w.name(), r.log);
        assert!(r.json().starts_with("{\"correct\": false"));
    }
    // In the rack the flip lands in a delivery's destination MAC, so
    // the frame has left on a port that is not its host's.
    let r = tiny(Workload::Rack, false, Some(Tamper::FlipByte(10_000)));
    assert!(r.failed > 0, "{:#?}", r.log);
    assert!(r.log.iter().any(|l| l.contains("delivered on ToR")));
}

#[test]
fn a_wrong_translation_is_caught_by_the_nat_model() {
    // The rewritten frame's checksums verify: only the model can tell.
    for w in [Workload::NatLinerate, Workload::CitySoak] {
        let r = tiny(w, false, Some(Tamper::WrongSource(100)));
        assert_eq!(r.failed, 1, "{}: {:#?}", w.name(), r.log);
        assert!(
            r.log.iter().any(|l| l.contains("model says")),
            "{:#?}",
            r.log
        );
    }
}

#[test]
fn a_dropped_delivery_is_a_failed_operation() {
    for w in Workload::ALL {
        let at = if w == Workload::Rack { 10_000 } else { 100 };
        let r = tiny(w, false, Some(Tamper::Drop(at)));
        assert!(r.failed > 0, "{}: {:#?}", w.name(), r.log);
    }
}

#[test]
fn a_frame_the_uplink_acl_should_deny_is_caught() {
    let r = tiny(Workload::Rack, false, Some(Tamper::OpenAcl));
    assert!(r.failed > 0, "{:#?}", r.log);
    assert!(r.log.iter().any(|l| l.contains("denied prefix")));
}

#[test]
fn the_streaming_rack_reproduces_the_experiments_rack() {
    // With the experiments binary's seeds, the benchmark's streaming
    // event loop must reproduce `bench::rack::run` counter for counter.
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let seeds = rack::Seeds {
        trace: 0x4ac4,
        links: 0x4ac4,
    };
    let ours = rack::reference_round(seeds, 2_000);
    let theirs = flexsfp_bench::rack::run(2_000);
    assert!(ours.bad.is_empty() && ours.failed == 0, "{ours:?}");
    assert_eq!(ours.emitted, theirs.packets);
    assert_eq!(ours.delivered, theirs.delivered_access);
    assert_eq!(ours.link_dropped, theirs.link_dropped);
    assert_eq!(ours.xpoint_dropped, theirs.crosspoint_dropped);
    assert_eq!(ours.sw.dropped_by_modules, theirs.dropped_by_modules);
    assert_eq!(ours.sw.flood_copies, theirs.flood_copies);
    assert_eq!(ours.uplink_tx, [theirs.uplink_ab, theirs.uplink_ba]);
    assert_eq!(ours.queue_p999_ns, theirs.queue_p999_ns);
}
