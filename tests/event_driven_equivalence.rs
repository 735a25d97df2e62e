//! Equivalence of the event-driven and cycle-stepped simulation drivers.
//!
//! The event-driven driver (`run_with_limit`) must execute the exact command
//! schedule of the original cycle-by-cycle loop (`run_with_limit_stepped`) —
//! this suite pins *bit-identical* `SimulationReport`s across workload
//! shapes, queue depths, and time limits, on both the conventional HBM4
//! controller and the RoMe controller. Since the engine extraction both
//! stacks run through the *same* generic loop
//! (`rome::engine::simulate::run_with_limit`), instantiated per controller
//! via the `MemoryController` trait.
//!
//! The conventional comparisons additionally pin the FR-FCFS *ready cache*
//! and the *data-oriented (SoA) scans*: the stepped baseline runs with the
//! cache and the SoA path disabled (the original per-entry scheduler) while
//! the event-driven run keeps both enabled, so any cached bound or packed
//! bitmask test that changed a single scheduling decision would surface as
//! a report mismatch here. A further arm re-runs the event-driven driver
//! with SoA off to pin that the oracle scan is inert under the fast driver
//! too.
//!
//! The multi-channel comparisons likewise pin the *event calendar*: the
//! cycle-stepped baseline system runs with the calendar disabled (the
//! pre-calendar loop that re-polls every controller and scans the whole
//! backlog) while the event-driven system keeps it enabled (cached
//! per-channel wakeups, lazy min-heap, skipped non-due channels), so a
//! wakeup cached one cycle too late — a missed event — would surface as a
//! completion mismatch here.
//!
//! The closed-loop comparisons pin the source-driven multi-channel path
//! (`MemorySystem::run_with_source`, which merges the source's next arrival
//! into the event horizon) against a per-cycle pull/submit/tick/feed-back
//! loop. Closed-loop requests keep their source arrival, so their fragments
//! sit in the queues already past the starvation threshold and both runs
//! spend most of their time in starvation mode; an event the source-driven
//! loop misses there surfaces as a mismatch here.

use rome::core::controller::{RomeController, RomeControllerConfig};
use rome::core::simulate as rome_simulate;
use rome::core::system::{RomeMemorySystem, RomeSystemConfig};
use rome::engine::simulate as engine_simulate;
use rome::mc::controller::{ChannelController, ControllerConfig};
use rome::mc::request::MemoryRequest;
use rome::mc::simulate as mc_simulate;
use rome::mc::system::{HostCompletion, MemorySystem, MemorySystemConfig};
use rome::mc::workload;
use rome::mc::ControllerStats;
use rome::workload::{
    ClosedLoopHost, MoeRoutingConfig, MoeRoutingSource, PrefillDecodeConfig,
    PrefillDecodeInterleaveSource, TrafficSource,
};

/// The workload set exercised on both systems: streaming reads, streaming
/// writes, uniformly random reads, and a read/write mix.
fn workloads(total_bytes: u64, granularity: u64) -> Vec<(&'static str, Vec<MemoryRequest>)> {
    vec![
        (
            "streaming-read",
            workload::streaming_reads(0, total_bytes, granularity),
        ),
        (
            "streaming-write",
            workload::streaming_writes(0, total_bytes, granularity),
        ),
        (
            "random-read",
            workload::random_reads(0, 1 << 24, total_bytes / granularity, granularity, 7),
        ),
        (
            "mixed",
            workload::read_write_mix(0, total_bytes, granularity, 4),
        ),
    ]
}

fn assert_mc_equivalent(
    cfg: ControllerConfig,
    requests: Vec<MemoryRequest>,
    max_ns: u64,
    label: &str,
) {
    // Event-driven with the ready cache and SoA scans (the default
    // configuration)…
    let mut cached_cfg = cfg.clone();
    cached_cfg.ready_cache = true;
    cached_cfg.soa = true;
    let mut event = ChannelController::new(cached_cfg.clone());
    // …against the cycle-stepped loop with both disabled: the original
    // per-entry scheduler, re-evaluating every candidate every tick.
    let mut plain_cfg = cfg;
    plain_cfg.ready_cache = false;
    plain_cfg.soa = false;
    let mut stepped = ChannelController::new(plain_cfg.clone());
    let mut event_plain = ChannelController::new(plain_cfg);
    // …and the event-driven driver with only SoA off (ready cache on): the
    // oracle scan under the fast driver.
    let mut soa_off_cfg = cached_cfg;
    soa_off_cfg.soa = false;
    let mut event_soa_off = ChannelController::new(soa_off_cfg);

    let fast = mc_simulate::run_with_limit(&mut event, requests.clone(), max_ns);
    let slow = mc_simulate::run_with_limit_stepped(&mut stepped, requests.clone(), max_ns);
    assert_eq!(fast, slow, "hbm4 reports diverged on {label}");
    // The cache and SoA scans must also be inert under the event-driven
    // driver alone.
    let fast_plain = mc_simulate::run_with_limit(&mut event_plain, requests.clone(), max_ns);
    assert_eq!(
        fast, fast_plain,
        "ready cache / SoA changed the hbm4 schedule on {label}"
    );
    let fast_soa_off = mc_simulate::run_with_limit(&mut event_soa_off, requests, max_ns);
    assert_eq!(
        fast, fast_soa_off,
        "SoA scan changed the hbm4 schedule on {label}"
    );
}

fn assert_rome_equivalent(
    cfg: RomeControllerConfig,
    requests: Vec<MemoryRequest>,
    max_ns: u64,
    label: &str,
) {
    let mut event = RomeController::new(cfg.clone());
    let mut stepped = RomeController::new(cfg.clone());
    // The stepped baseline also disables the packed hot arrays: the
    // original per-entry ready scan.
    stepped.set_soa(false);
    let mut event_soa_off = RomeController::new(cfg);
    event_soa_off.set_soa(false);
    let fast = rome_simulate::run_with_limit(&mut event, requests.clone(), max_ns);
    let slow = rome_simulate::run_with_limit_stepped(&mut stepped, requests.clone(), max_ns);
    assert_eq!(fast, slow, "rome reports diverged on {label}");
    let fast_soa_off = rome_simulate::run_with_limit(&mut event_soa_off, requests, max_ns);
    assert_eq!(
        fast, fast_soa_off,
        "SoA scan changed the rome schedule on {label}"
    );
}

#[test]
fn hbm4_reports_are_bit_identical_across_workloads() {
    for (label, reqs) in workloads(64 * 1024, 32) {
        assert_mc_equivalent(ControllerConfig::hbm4_baseline(), reqs, 50_000_000, label);
    }
}

#[test]
fn hbm4_reports_are_bit_identical_across_queue_depths() {
    for depth in [1usize, 2, 4, 64] {
        for (label, reqs) in workloads(16 * 1024, 32) {
            assert_mc_equivalent(
                ControllerConfig::hbm4_with_queue_depth(depth),
                reqs,
                50_000_000,
                &format!("{label}@depth{depth}"),
            );
        }
    }
}

#[test]
fn hbm4_reports_are_bit_identical_under_time_limits() {
    // Cutoffs landing mid-run, including ones far past the last event.
    for max_ns in [100u64, 1_000, 10_000, 1_000_000] {
        for (label, reqs) in workloads(32 * 1024, 32) {
            assert_mc_equivalent(
                ControllerConfig::hbm4_baseline(),
                reqs,
                max_ns,
                &format!("{label}@max{max_ns}"),
            );
        }
    }
}

#[test]
fn rome_reports_are_bit_identical_across_workloads() {
    for (label, reqs) in workloads(512 * 1024, 4096) {
        assert_rome_equivalent(
            RomeControllerConfig::paper_default(),
            reqs,
            50_000_000,
            label,
        );
    }
}

#[test]
fn rome_reports_are_bit_identical_across_queue_depths() {
    for depth in [1usize, 2, 8] {
        for (label, reqs) in workloads(256 * 1024, 4096) {
            assert_rome_equivalent(
                RomeControllerConfig::with_queue_depth(depth),
                reqs,
                50_000_000,
                &format!("{label}@depth{depth}"),
            );
        }
    }
}

#[test]
fn rome_reports_are_bit_identical_under_time_limits() {
    for max_ns in [100u64, 5_000, 1_000_000] {
        for (label, reqs) in workloads(256 * 1024, 4096) {
            assert_rome_equivalent(
                RomeControllerConfig::paper_default(),
                reqs,
                max_ns,
                &format!("{label}@max{max_ns}"),
            );
        }
    }
}

#[test]
fn generic_engine_driver_runs_both_stacks() {
    // Both stacks run through the one generic loop: calling
    // rome::engine::simulate directly on either controller type must give
    // the exact report the per-crate re-exports give.
    for (label, reqs) in workloads(16 * 1024, 32) {
        let mut a = ChannelController::new(ControllerConfig::hbm4_baseline());
        let mut b = ChannelController::new(ControllerConfig::hbm4_baseline());
        let via_engine = engine_simulate::run_with_limit(&mut a, reqs.clone(), 50_000_000);
        let via_mc = mc_simulate::run_with_limit(&mut b, reqs, 50_000_000);
        assert_eq!(via_engine, via_mc, "hbm4 engine path diverged on {label}");
    }
    for (label, reqs) in workloads(128 * 1024, 4096) {
        let mut a = RomeController::new(RomeControllerConfig::paper_default());
        let mut b = RomeController::new(RomeControllerConfig::paper_default());
        let via_engine = engine_simulate::run_with_limit(&mut a, reqs.clone(), 50_000_000);
        let via_core = rome_simulate::run_with_limit(&mut b, reqs, 50_000_000);
        assert_eq!(via_engine, via_core, "rome engine path diverged on {label}");
    }
}

#[test]
fn ready_cache_is_inert_on_the_dense_64_entry_queue() {
    // The ready cache's target workload: a 64-entry queue kept saturated, so
    // the scan sees tens of timing-blocked candidates every tick. Stepped
    // (cache off) and event-driven (cache on) must still agree bit for bit.
    for (label, reqs) in workloads(64 * 1024, 32) {
        assert_mc_equivalent(
            ControllerConfig::hbm4_with_queue_depth(64),
            reqs,
            50_000_000,
            &format!("{label}@dense64"),
        );
    }
}

#[test]
fn soa_scan_is_bit_identical_on_the_dense_64_entry_queue() {
    // The SoA path's target workload: a 64-entry queue kept saturated, so
    // every tick scans tens of candidates through the packed arrays and the
    // row-open bitmask. All four arms of assert_mc_equivalent (SoA+cache on,
    // stepped both-off, event both-off, event SoA-off) must agree bit for
    // bit on a larger backlog than the ready-cache case above.
    for (label, reqs) in workloads(128 * 1024, 32) {
        assert_mc_equivalent(
            ControllerConfig::hbm4_with_queue_depth(64),
            reqs,
            50_000_000,
            &format!("{label}@soa-dense64"),
        );
    }
}

#[test]
fn soa_scan_is_bit_identical_on_dense_multi_channel_backlogs() {
    // System-level SoA pinning under saturation: deep per-channel queues and
    // a long single-channel backlog, event calendar on in both arms so the
    // only difference is the scan representation.
    let mut cfg = MemorySystemConfig::hbm4(4);
    cfg.controller.read_queue_capacity = 64;
    cfg.controller.write_queue_capacity = 64;
    let mut soa_on = MemorySystem::new(cfg.clone());
    let mut soa_off = MemorySystem::new(cfg);
    soa_off.set_soa(false);
    for i in 0..512u64 {
        // Stride of one cache line: every channel sees a dense stream.
        let r = if i % 5 == 0 {
            MemoryRequest::write(i + 1, i * 32, 32, 0)
        } else {
            MemoryRequest::read(i + 1, i * 32, 32, 0)
        };
        soa_on.submit(r);
        soa_off.submit(r);
    }

    let drive = |sys: &mut MemorySystem| {
        let mut done: Vec<HostCompletion> = Vec::new();
        let mut now = 0u64;
        while !sys.is_idle() && now < 5_000_000 {
            let issued = sys.tick_into(now, &mut done);
            now = if issued {
                now + 1
            } else {
                sys.next_event_at(now).map_or(now + 1, |t| t.max(now + 1))
            };
        }
        done
    };
    let done_on = drive(&mut soa_on);
    let done_off = drive(&mut soa_off);
    assert_eq!(done_on, done_off);
    assert_eq!(done_on.len(), 512);
    assert_eq!(soa_on.bytes_per_channel(), soa_off.bytes_per_channel());
}

/// Host-request mix used for the multi-channel system tests: several
/// concurrent transfers of both kinds.
fn host_requests() -> Vec<MemoryRequest> {
    vec![
        MemoryRequest::read(1, 0, 48 * 1024, 0),
        MemoryRequest::write(2, 1 << 20, 32 * 1024, 0),
        MemoryRequest::read(3, 2 << 20, 8 * 1024, 0),
        MemoryRequest::write(4, 3 << 20, 4 * 1024, 0),
    ]
}

fn small_mc_system() -> MemorySystem {
    let mut cfg = MemorySystemConfig::hbm4(4);
    // Shallow queues so the backlog actually exerts back-pressure.
    cfg.controller.read_queue_capacity = 2;
    cfg.controller.write_queue_capacity = 2;
    cfg.controller.write_drain_high = 1;
    cfg.controller.write_drain_low = 0;
    MemorySystem::new(cfg)
}

fn small_rome_system() -> RomeMemorySystem {
    let mut cfg = RomeSystemConfig::with_channels(4);
    cfg.controller.queue_capacity = 2;
    RomeMemorySystem::new(cfg)
}

#[test]
fn mc_system_event_stepping_is_bit_identical_to_per_cycle_ticks() {
    // Driving the system through tick_into + next_event_at is the same
    // global scheduler, merely skipping provably idle cycles — completions
    // must match the per-cycle tick() loop exactly. The stepped baseline
    // disables the event calendar (the pre-calendar loop); the event-driven
    // run keeps it on, so stale cached wakeups would surface here.
    let mut stepped = small_mc_system();
    stepped.set_calendar(false);
    stepped.set_soa(false);
    let mut event = small_mc_system();
    for r in host_requests() {
        stepped.submit(r);
        event.submit(r);
    }

    let mut done_stepped = Vec::new();
    let mut now = 0u64;
    while !stepped.is_idle() && now < 5_000_000 {
        done_stepped.extend(stepped.tick(now));
        now += 1;
    }

    let mut done_event: Vec<HostCompletion> = Vec::new();
    let mut now = 0u64;
    while !event.is_idle() && now < 5_000_000 {
        let issued = event.tick_into(now, &mut done_event);
        now = if issued {
            now + 1
        } else {
            event.next_event_at(now).map_or(now + 1, |t| t.max(now + 1))
        };
    }

    assert_eq!(done_event, done_stepped);
    assert_eq!(event.bytes_per_channel(), stepped.bytes_per_channel());
}

#[test]
fn rome_system_event_stepping_is_bit_identical_to_per_cycle_ticks() {
    let mut stepped = small_rome_system();
    stepped.set_calendar(false);
    stepped.set_soa(false);
    let mut event = small_rome_system();
    for r in host_requests() {
        stepped.submit(r);
        event.submit(r);
    }

    let mut done_stepped = Vec::new();
    let mut now = 0u64;
    while !stepped.is_idle() && now < 5_000_000 {
        done_stepped.extend(stepped.tick(now));
        now += 1;
    }

    let mut done_event: Vec<HostCompletion> = Vec::new();
    let mut now = 0u64;
    while !event.is_idle() && now < 5_000_000 {
        let issued = event.tick_into(now, &mut done_event);
        now = if issued {
            now + 1
        } else {
            event.next_event_at(now).map_or(now + 1, |t| t.max(now + 1))
        };
    }

    assert_eq!(done_event, done_stepped);
    assert_eq!(event.bytes_per_channel(), stepped.bytes_per_channel());
}

#[test]
fn long_single_channel_backlog_stays_equivalent() {
    // Every fragment lands on the same channel (stride = channels ×
    // granularity) behind a 2-entry queue, so hundreds of fragments wait in
    // a single channel's backlog — the admission-probe case that used to
    // degenerate to O(backlog) per event step. The calendar run must still
    // match the pre-calendar stepped loop completion for completion.
    let mut stepped = small_mc_system();
    stepped.set_calendar(false);
    stepped.set_soa(false);
    let mut event = small_mc_system();
    for i in 0..256u64 {
        let r = MemoryRequest::read(i + 1, i * 4 * 32, 32, 0);
        stepped.submit(r);
        event.submit(r);
    }

    let mut done_stepped = Vec::new();
    let mut now = 0u64;
    while !stepped.is_idle() && now < 5_000_000 {
        done_stepped.extend(stepped.tick(now));
        now += 1;
    }

    let mut done_event: Vec<HostCompletion> = Vec::new();
    let mut now = 0u64;
    while !event.is_idle() && now < 5_000_000 {
        let issued = event.tick_into(now, &mut done_event);
        now = if issued {
            now + 1
        } else {
            event.next_event_at(now).map_or(now + 1, |t| t.max(now + 1))
        };
    }

    assert_eq!(done_event, done_stepped);
    assert_eq!(event.bytes_per_channel(), stepped.bytes_per_channel());
    // The workload really was single-channel: exactly one channel moved data.
    assert_eq!(
        event.bytes_per_channel().iter().filter(|&&b| b > 0).count(),
        1
    );
}

#[test]
fn mc_system_run_until_idle_preserves_totals_vs_per_cycle_ticks() {
    // run_until_idle runs channels independently (per-kind FIFO backlogs),
    // so its schedule legitimately differs from the tick() path in arrival
    // order; every total must nevertheless agree.
    let mut ticked = small_mc_system();
    ticked.set_calendar(false);
    ticked.set_soa(false);
    let mut parallel = small_mc_system();
    for r in host_requests() {
        ticked.submit(r);
        parallel.submit(r);
    }

    let mut done_ticked = Vec::new();
    let mut now = 0u64;
    while !ticked.is_idle() && now < 5_000_000 {
        done_ticked.extend(ticked.tick(now));
        now += 1;
    }
    let (done_parallel, stop) = parallel.run_until_idle(5_000_000);

    assert!(stop > 0);
    assert_eq!(done_parallel.len(), done_ticked.len());
    let mut ids_a: Vec<u64> = done_parallel.iter().map(|c| c.id.0).collect();
    let mut ids_b: Vec<u64> = done_ticked.iter().map(|c| c.id.0).collect();
    ids_a.sort_unstable();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b);
    assert_eq!(parallel.bytes_per_channel(), ticked.bytes_per_channel());
    assert_eq!(parallel.stats().bytes_read, ticked.stats().bytes_read);
    assert_eq!(parallel.stats().bytes_written, ticked.stats().bytes_written);
}

#[test]
fn rome_system_run_until_idle_preserves_totals_vs_per_cycle_ticks() {
    let mut ticked = small_rome_system();
    ticked.set_calendar(false);
    ticked.set_soa(false);
    let mut parallel = small_rome_system();
    for r in host_requests() {
        ticked.submit(r);
        parallel.submit(r);
    }

    let mut done_ticked = Vec::new();
    let mut now = 0u64;
    while !ticked.is_idle() && now < 5_000_000 {
        done_ticked.extend(ticked.tick(now));
        now += 1;
    }
    let (done_parallel, stop) = parallel.run_until_idle(5_000_000);

    assert!(stop > 0);
    assert_eq!(done_parallel.len(), done_ticked.len());
    let mut ids_a: Vec<u64> = done_parallel.iter().map(|c| c.id.0).collect();
    let mut ids_b: Vec<u64> = done_ticked.iter().map(|c| c.id.0).collect();
    ids_a.sort_unstable();
    ids_b.sort_unstable();
    assert_eq!(ids_a, ids_b);
    assert_eq!(parallel.bytes_per_channel(), ticked.bytes_per_channel());
    assert_eq!(parallel.stats().bytes_read, ticked.stats().bytes_read);
    assert_eq!(parallel.stats().bytes_written, ticked.stats().bytes_written);
}

#[test]
fn refresh_heavy_idle_windows_stay_equivalent() {
    // A tiny burst of traffic followed by a long idle window forces both
    // drivers through many refresh cycles; the event-driven driver must jump
    // between them without perturbing the schedule.
    let reqs = workload::streaming_reads(0, 2 * 1024, 32);
    assert_mc_equivalent(
        ControllerConfig::hbm4_baseline(),
        reqs,
        2_000_000,
        "refresh-idle",
    );
    let reqs = workload::streaming_reads(0, 16 * 4096, 4096);
    assert_rome_equivalent(
        RomeControllerConfig::paper_default(),
        reqs,
        2_000_000,
        "refresh-idle",
    );
}

/// The statistics that count events, not ticks: the per-tick fields differ
/// by design between an event-driven and a per-cycle driver (see
/// `ControllerStats`), so they are zeroed before comparing.
fn event_counts(stats: ControllerStats) -> ControllerStats {
    ControllerStats {
        stall_cycles: 0,
        idle_cycles: 0,
        total_cycles: 0,
        mean_queue_occupancy: 0.0,
        ..stats
    }
}

/// Serve `make_source()` through a window-16 `ClosedLoopHost` on a 4-channel
/// HBM4 system twice: through `MemorySystem::run_with_source` (event
/// calendar and SoA scans on), and through a per-cycle loop with both off
/// that pulls, submits, ticks and feeds completions back every nanosecond,
/// in the order `run_with_source` does. Completions, controller statistics
/// and the host's own figures must be bit-identical. Returns the statistics.
fn assert_closed_loop_equivalent<S: TrafficSource>(
    make_source: impl Fn() -> S,
    label: &str,
) -> ControllerStats {
    const WINDOW: usize = 16;
    const MAX_NS: u64 = 50_000_000;

    let mut event = MemorySystem::new(MemorySystemConfig::hbm4(4));
    let mut event_host = ClosedLoopHost::new(make_source(), WINDOW);
    let (done_event, _) = event.run_with_source(&mut event_host, MAX_NS);

    let mut stepped = MemorySystem::new(MemorySystemConfig::hbm4(4));
    stepped.set_calendar(false);
    stepped.set_soa(false);
    let mut stepped_host = ClosedLoopHost::new(make_source(), WINDOW);
    let mut done_stepped: Vec<HostCompletion> = Vec::new();
    let mut pulled = Vec::new();
    let mut now = 0u64;
    loop {
        stepped_host.pull_into(now, &mut pulled);
        for req in pulled.drain(..) {
            stepped.submit(req);
        }
        if (stepped_host.is_exhausted() && stepped.is_idle()) || now >= MAX_NS {
            break;
        }
        let before = done_stepped.len();
        stepped.tick_into(now, &mut done_stepped);
        for c in &done_stepped[before..] {
            stepped_host.on_completion(c);
        }
        now += 1;
    }

    assert!(stepped_host.is_exhausted(), "{label}: run did not drain");
    // The run exercises starvation: some request waited past the threshold.
    let threshold = MemorySystemConfig::hbm4(4).controller.starvation_threshold;
    assert!(
        done_stepped
            .iter()
            .any(|c| c.completed - c.arrival > threshold),
        "{label}: no request was starved"
    );
    assert_eq!(done_event, done_stepped, "{label}: completions diverged");
    assert_eq!(
        event_counts(event.stats()),
        event_counts(stepped.stats()),
        "{label}: controller statistics diverged"
    );
    assert_eq!(event.bytes_per_channel(), stepped.bytes_per_channel());
    assert_eq!(event_host.injected(), stepped_host.injected());
    assert_eq!(event_host.completed(), stepped_host.completed());
    assert_eq!(event_host.completed_bytes(), stepped_host.completed_bytes());
    assert_eq!(event_host.mean_latency_ns(), stepped_host.mean_latency_ns());
    assert_eq!(event_host.max_latency_ns(), stepped_host.max_latency_ns());
    event.stats()
}

#[test]
fn closed_loop_moe_source_is_bit_identical_to_per_cycle_ticks() {
    assert_closed_loop_equivalent(
        || {
            MoeRoutingSource::new(MoeRoutingConfig {
                experts: 16,
                top_k: 2,
                expert_bytes: 6144,
                layers: 2,
                tokens_per_step: 8,
                steps: 2,
                step_period_ns: 0,
                granularity: 32,
                base: 1 << 30,
                zipf_exponent: 1.0,
                seed: 0x4d6f45,
            })
        },
        "moe",
    );
}

#[test]
fn closed_loop_prefill_decode_with_kv_write_back_is_bit_identical_to_per_cycle_ticks() {
    let stats = assert_closed_loop_equivalent(
        || {
            PrefillDecodeInterleaveSource::new(PrefillDecodeConfig {
                prefill_bytes: 32 * 1024,
                prefill_granularity: 32,
                decode_bytes: 8 * 1024,
                decode_granularity: 32,
                decode_steps_per_prefill: 2,
                rounds: 2,
                phase_period_ns: 2_000,
                weight_base: 0,
                weight_span: 1 << 20,
                kv_base: 1 << 32,
                kv_span: 1 << 20,
                kv_write_period: 4,
                seed: 0x5e12f,
            })
        },
        "prefill/decode + kv write-back",
    );
    assert!(stats.bytes_written > 0, "no KV write-back was served");
}

#[test]
fn postponed_refreshes_park_and_unpark_identically_on_conflicting_multi_channel_traffic() {
    // Scattered 32 B reads and writes (every fourth a write) over 16 MiB: the
    // queues fill with row conflicts on every bank, so due per-bank
    // refreshes are postponed behind queued work or open rows (the rank
    // parks), and end their postponement when a column issue drains the
    // probe bank or a PRE closes it (the rank unparks). The idle tail leaves
    // rows open, which forces urgent PREs ahead of the REFpbs. The
    // event-driven system (calendar and SoA scans on) must match the
    // per-cycle loop with both off, completion for completion.
    const UNTIL: u64 = 60_000;
    let mut stepped = MemorySystem::new(MemorySystemConfig::hbm4(2));
    stepped.set_calendar(false);
    stepped.set_soa(false);
    let mut event = MemorySystem::new(MemorySystemConfig::hbm4(2));
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..8_192u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = (x % (16 << 20)) & !31;
        let r = if i % 4 == 3 {
            MemoryRequest::write(i + 1, addr, 32, 0)
        } else {
            MemoryRequest::read(i + 1, addr, 32, 0)
        };
        stepped.submit(r);
        event.submit(r);
    }

    let mut done_stepped = Vec::new();
    for now in 0..UNTIL {
        done_stepped.extend(stepped.tick(now));
    }
    let mut done_event: Vec<HostCompletion> = Vec::new();
    let mut now = 0u64;
    while now < UNTIL {
        let issued = event.tick_into(now, &mut done_event);
        now = if issued {
            now + 1
        } else {
            event.next_event_at(now).map_or(UNTIL, |t| t.max(now + 1))
        };
    }

    assert_eq!(done_event.len(), 8_192);
    // The traffic lasts over 20 µs, so refreshes come due throughout it.
    assert!(done_event.iter().any(|c| c.completed > 20_000));
    assert_eq!(done_event, done_stepped);
    assert_eq!(event_counts(event.stats()), event_counts(stepped.stats()));
    assert!(event.stats().refreshes_issued > 0);
    assert_eq!(event.bytes_per_channel(), stepped.bytes_per_channel());
}
