//! In-process per-layer probes for the traced run.
//!
//! Each probe pass walks the corpus and, for every frame, times the calls
//! the server makes into each layer for it, from the benchmark's side of
//! each crate's public API: the wire parser, the workload generators, the
//! HBM4 (`rome-mc`) and RoMe (`rome-core`) memory systems, the analytic
//! models, and the result encoder. Every call is a span whose request id is
//! the frame's corpus index. The memory-system runs go through the entry
//! points the server's engine uses for the spec, with the same channel
//! count, closed-loop window and time limit, so they simulate the traffic
//! the server simulates.

use rome_core::controller::{RomeController, RomeControllerConfig};
use rome_core::stats::RomeStats;
use rome_core::system::{RomeMemorySystem, RomeSystemConfig};
use rome_engine::{
    merge_reports, report_from_host_completions, run_cubes, MemoryRequest, RunBudget,
    SimulationReport,
};
use rome_mc::controller::{ChannelController, ControllerConfig};
use rome_mc::stats::ControllerStats;
use rome_mc::system::{MemorySystem, MemorySystemConfig};
use rome_server::{ScenarioEngine, ScenarioSpec, WorkloadSpec};
use rome_sim::{CalibrationCache, MemorySystemKind};
use rome_telemetry::LatencyHistogram;
use rome_workload::ClosedLoopHost;

use crate::reference::{Entry, EntryKind};
use crate::spans::SpanLog;

/// Repetitions of the sub-microsecond calls inside one span.
const PARSE_REPS: u32 = 64;
const ENCODE_REPS: u32 = 16;

/// Host-time figures of one probe pass over the corpus.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    pub parse_us: f64,
    pub encode_us: f64,
    pub gen_ns_per_req: f64,
    pub mc_ns_per_req: f64,
    pub core_ns_per_req: f64,
    pub analytic_us: f64,
}

/// Sim-time figures and work counts: identical on every pass.
#[derive(Debug, Clone, Default)]
pub struct WorkCounts {
    pub result_bytes: f64,
    pub mc_requests: u64,
    pub mc_row_hit_rate: f64,
    pub mc_row_conflicts: u64,
    pub mc_stall_cycles: u64,
    pub mc_mean_queue_occupancy: f64,
    pub hbm_commands_per_req: f64,
    pub core_requests: u64,
    pub core_rows_issued: u64,
    pub core_derived_activates: u64,
    pub read_latency_p99_ns: f64,
}

/// The request stream a closed-loop workload lowers to, drained with no
/// controller attached.
pub fn drain(workload: &WorkloadSpec) -> Vec<MemoryRequest> {
    let mut out = Vec::new();
    let Ok(mut source) = workload.build_source() else {
        return out;
    };
    while !source.is_exhausted() {
        let Some(at) = source.next_arrival_at() else {
            break;
        };
        let before = out.len();
        source.pull_into(at, &mut out);
        if out.len() == before && source.next_arrival_at() == Some(at) {
            break;
        }
    }
    out
}

/// The memory system a spec simulates, if it simulates one.
pub fn system_of(spec: &ScenarioSpec) -> Option<MemorySystemKind> {
    match spec {
        ScenarioSpec::ClosedLoop { system, .. }
        | ScenarioSpec::QueueDepth { system, .. }
        | ScenarioSpec::MultiCube { system, .. } => Some(*system),
        _ => None,
    }
}

/// The time limit of the server's queue-depth runs.
const QUEUE_DEPTH_MAX_NS: u64 = 50_000_000;

/// One memory-system run the server makes for a spec, made again: its host
/// time, its controller statistics and its report.
struct SystemRun<S> {
    host_ns: u64,
    stats: S,
    report: SimulationReport,
}

/// The HBM4 runs the server makes for `spec`, each timed as an `mc.run`
/// span: a `channels`-channel `MemorySystem` behind a `ClosedLoopHost` per
/// closed-loop window, a single `ChannelController` per queue depth, and a
/// `MemorySystem` per cube run by `run_cubes`.
fn hbm4_runs(
    spec: &ScenarioSpec,
    log: &mut SpanLog,
    root: usize,
    rid: u64,
) -> Result<Vec<SystemRun<ControllerStats>>, String> {
    let mut runs = Vec::new();
    match spec {
        ScenarioSpec::ClosedLoop {
            channels,
            windows,
            max_ns,
            workload,
            ..
        } => {
            for &window in windows {
                let source = workload.build_source().map_err(|e| e.to_string())?;
                let mut host = ClosedLoopHost::new(source, window);
                let mut sys = MemorySystem::new(MemorySystemConfig::hbm4(*channels));
                let span = log.begin("mc.run", Some(root), rid);
                let (done, _, aborted) =
                    sys.run_with_source_budgeted(&mut host, *max_ns, &RunBudget::unlimited());
                log.end(span);
                runs.push(SystemRun {
                    host_ns: log.spans[span].duration_ns(),
                    stats: sys.stats(),
                    report: report_from_host_completions(&sys.stats_snapshot(), &done)
                        .with_abort(aborted),
                });
            }
        }
        ScenarioSpec::QueueDepth {
            depths,
            total_bytes,
            granularity,
            ..
        } => {
            for &depth in depths {
                let reqs = rome_mc::workload::streaming_reads(0, *total_bytes, *granularity);
                let mut ctrl =
                    ChannelController::new(ControllerConfig::hbm4_with_queue_depth(depth));
                let span = log.begin("mc.run", Some(root), rid);
                let report = rome_mc::simulate::run_with_budget(
                    &mut ctrl,
                    reqs,
                    QUEUE_DEPTH_MAX_NS,
                    &RunBudget::unlimited(),
                );
                log.end(span);
                runs.push(SystemRun {
                    host_ns: log.spans[span].duration_ns(),
                    stats: ctrl.stats().clone(),
                    report,
                });
            }
        }
        ScenarioSpec::MultiCube {
            cubes,
            channels_per_cube,
            bytes_per_cube,
            max_ns,
            ..
        } => {
            let mut systems: Vec<MemorySystem> = (0..*cubes)
                .map(|_| MemorySystem::new(MemorySystemConfig::hbm4(*channels_per_cube)))
                .collect();
            for sys in &mut systems {
                sys.submit(MemoryRequest::read(1, 0, *bytes_per_cube, 0));
            }
            let span = log.begin("mc.run", Some(root), rid);
            let per_cube = run_cubes(&mut systems, |_, sys| {
                let (done, _, aborted) =
                    sys.run_until_idle_budgeted(*max_ns, &RunBudget::unlimited());
                report_from_host_completions(&sys.stats_snapshot(), &done).with_abort(aborted)
            });
            log.end(span);
            let mut stats = ControllerStats::new();
            for sys in &systems {
                stats.merge(&sys.stats());
            }
            runs.push(SystemRun {
                host_ns: log.spans[span].duration_ns(),
                stats,
                report: merge_reports(&per_cube),
            });
        }
        _ => {}
    }
    Ok(runs)
}

/// The RoMe runs the server makes for `spec`, each timed as a `core.run`
/// span; the RoMe counterparts of [`hbm4_runs`].
fn rome_runs(
    spec: &ScenarioSpec,
    log: &mut SpanLog,
    root: usize,
    rid: u64,
) -> Result<Vec<SystemRun<RomeStats>>, String> {
    let mut runs = Vec::new();
    match spec {
        ScenarioSpec::ClosedLoop {
            channels,
            windows,
            max_ns,
            workload,
            ..
        } => {
            for &window in windows {
                let source = workload.build_source().map_err(|e| e.to_string())?;
                let mut host = ClosedLoopHost::new(source, window);
                let mut sys = RomeMemorySystem::new(RomeSystemConfig::with_channels(*channels));
                let span = log.begin("core.run", Some(root), rid);
                let (done, _, aborted) =
                    sys.run_with_source_budgeted(&mut host, *max_ns, &RunBudget::unlimited());
                log.end(span);
                runs.push(SystemRun {
                    host_ns: log.spans[span].duration_ns(),
                    stats: sys.stats(),
                    report: report_from_host_completions(&sys.stats_snapshot(), &done)
                        .with_abort(aborted),
                });
            }
        }
        ScenarioSpec::QueueDepth {
            depths,
            total_bytes,
            granularity,
            ..
        } => {
            for &depth in depths {
                let reqs = rome_mc::workload::streaming_reads(0, *total_bytes, *granularity);
                let mut ctrl = RomeController::new(RomeControllerConfig::with_queue_depth(depth));
                let span = log.begin("core.run", Some(root), rid);
                let report = rome_core::simulate::run_with_budget(
                    &mut ctrl,
                    reqs,
                    QUEUE_DEPTH_MAX_NS,
                    &RunBudget::unlimited(),
                );
                log.end(span);
                runs.push(SystemRun {
                    host_ns: log.spans[span].duration_ns(),
                    stats: *ctrl.stats(),
                    report,
                });
            }
        }
        ScenarioSpec::MultiCube {
            cubes,
            channels_per_cube,
            bytes_per_cube,
            max_ns,
            ..
        } => {
            let mut systems: Vec<RomeMemorySystem> = (0..*cubes)
                .map(|_| RomeMemorySystem::new(RomeSystemConfig::with_channels(*channels_per_cube)))
                .collect();
            for sys in &mut systems {
                sys.submit(MemoryRequest::read(1, 0, *bytes_per_cube, 0));
            }
            let span = log.begin("core.run", Some(root), rid);
            let per_cube = run_cubes(&mut systems, |_, sys| {
                let (done, _, aborted) =
                    sys.run_until_idle_budgeted(*max_ns, &RunBudget::unlimited());
                report_from_host_completions(&sys.stats_snapshot(), &done).with_abort(aborted)
            });
            log.end(span);
            let mut stats = RomeStats::new();
            for sys in &systems {
                stats.merge(&sys.stats());
            }
            runs.push(SystemRun {
                host_ns: log.spans[span].duration_ns(),
                stats,
                report: merge_reports(&per_cube),
            });
        }
        _ => {}
    }
    Ok(runs)
}

/// A probe run that stopped early measured a different amount of work.
fn check_complete(spec: &ScenarioSpec, report: &SimulationReport) -> Result<(), String> {
    match report.aborted {
        Some(reason) => Err(format!("probe run of {} aborted: {reason:?}", spec.name())),
        None => Ok(()),
    }
}

/// One probe pass. `counts` is filled on the first pass only. Fails if a
/// memory-system run aborts.
pub fn probe_pass(
    engine: &ScenarioEngine,
    entries: &[Entry],
    log: &mut SpanLog,
    counts: Option<&mut WorkCounts>,
) -> Result<PassTimes, String> {
    let mut t = PassTimes::default();
    let mut c = WorkCounts::default();
    let (mut parse_ns, mut lines) = (0u64, 0u64);
    let (mut encode_ns, mut encodes, mut bytes) = (0u64, 0u64, 0u64);
    let (mut gen_ns, mut gen_reqs) = (0u64, 0u64);
    let (mut mc_ns, mut core_ns) = (0u64, 0u64);
    let (mut analytic_ns, mut analytic_reqs) = (0u64, 0u64);
    let (mut hits, mut misses, mut occupancy_sum, mut mc_runs, mut commands) =
        (0u64, 0u64, 0.0, 0u64, 0u64);
    let mut latency = LatencyHistogram::new();
    for (i, entry) in entries.iter().enumerate() {
        let rid = i as u64;
        let root = log.begin("probe.request", None, rid);
        let span = log.begin("proto.parse", Some(root), rid);
        for _ in 0..PARSE_REPS {
            std::hint::black_box(rome_server::proto::parse_frame(&entry.line).is_ok());
        }
        log.end(span);
        parse_ns += log.spans[span].duration_ns();
        lines += u64::from(PARSE_REPS);
        let EntryKind::Request(served) = &entry.kind else {
            log.end(root);
            continue;
        };
        let spec = &served.req.spec;
        if let ScenarioSpec::ClosedLoop { workload, .. } = spec {
            let span = log.begin("workload.gen", Some(root), rid);
            let n = drain(workload).len() as u64;
            log.end(span);
            gen_ns += log.spans[span].duration_ns();
            gen_reqs += n;
        }
        match system_of(spec) {
            Some(MemorySystemKind::Hbm4) => {
                for run in hbm4_runs(spec, log, root, rid)? {
                    check_complete(spec, &run.report)?;
                    let s = &run.stats;
                    mc_ns += run.host_ns;
                    c.mc_requests += s.reads_completed + s.writes_completed;
                    hits += s.row_hits;
                    misses += s.row_misses + s.row_conflicts;
                    c.mc_row_conflicts += s.row_conflicts;
                    c.mc_stall_cycles += s.stall_cycles;
                    occupancy_sum += s.mean_queue_occupancy;
                    mc_runs += 1;
                    let d = &s.dram;
                    commands += d.activates
                        + d.precharges
                        + d.precharge_alls
                        + d.reads
                        + d.writes
                        + d.refreshes_per_bank
                        + d.refreshes_all_bank;
                    latency.merge(&run.report.read_latency);
                }
            }
            Some(_) => {
                for run in rome_runs(spec, log, root, rid)? {
                    check_complete(spec, &run.report)?;
                    let s = &run.stats;
                    core_ns += run.host_ns;
                    c.core_requests += s.reads_completed + s.writes_completed;
                    c.core_rows_issued += s.rd_rows_issued + s.wr_rows_issued;
                    c.core_derived_activates += s.derived.activates;
                    latency.merge(&run.report.read_latency);
                }
            }
            None => {}
        }
        if matches!(spec, ScenarioSpec::Sweep { .. } | ScenarioSpec::Tpot { .. }) {
            let span = log.begin("sim.analytic", Some(root), rid);
            std::hint::black_box(engine.serve(spec).is_ok());
            log.end(span);
            analytic_ns += log.spans[span].duration_ns();
            analytic_reqs += 1;
        }
        if let Ok(result) = &served.result {
            let span = log.begin("result.encode", Some(root), rid);
            let mut len = 0;
            for _ in 0..ENCODE_REPS {
                len = std::hint::black_box(result.to_json().emit()).len();
            }
            log.end(span);
            encode_ns += log.spans[span].duration_ns();
            encodes += u64::from(ENCODE_REPS);
            bytes += len as u64;
        }
        log.end(root);
    }
    let per = |ns: u64, n: u64, scale: f64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / scale
        }
    };
    t.parse_us = per(parse_ns, lines, 1e3);
    t.encode_us = per(encode_ns, encodes, 1e3);
    t.gen_ns_per_req = per(gen_ns, gen_reqs, 1.0);
    t.mc_ns_per_req = per(mc_ns, c.mc_requests, 1.0);
    t.core_ns_per_req = per(core_ns, c.core_requests, 1.0);
    t.analytic_us = per(analytic_ns, analytic_reqs, 1e3);
    if let Some(out) = counts {
        c.result_bytes = ratio(bytes, encodes / u64::from(ENCODE_REPS));
        c.mc_row_hit_rate = ratio(hits, hits + misses);
        c.mc_mean_queue_occupancy = if mc_runs == 0 {
            0.0
        } else {
            occupancy_sum / mc_runs as f64
        };
        c.hbm_commands_per_req = ratio(commands, c.mc_requests);
        c.read_latency_p99_ns = latency.p99() as f64;
        *out = c;
    }
    Ok(t)
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Cold calibration of `kind` on a fresh cache, in ms.
pub fn calibrate_cold_ms(kind: MemorySystemKind, log: &mut SpanLog) -> f64 {
    let cache = CalibrationCache::new();
    let name = match kind {
        MemorySystemKind::Hbm4 => "sim.calibrate_cold.hbm4",
        _ => "sim.calibrate_cold.rome",
    };
    let span = log.begin(name, None, u64::MAX);
    std::hint::black_box(cache.get_or_calibrate(kind));
    log.end(span);
    log.spans[span].duration_ns() as f64 / 1e6
}

/// One stats snapshot of a populated registry, in µs.
pub fn snapshot_us(engine: &ScenarioEngine, log: &mut SpanLog) -> f64 {
    let span = log.begin("telemetry.snapshot", None, u64::MAX);
    std::hint::black_box(engine.stats_json().emit());
    log.end(span);
    log.spans[span].duration_ns() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draining_a_workload_yields_its_whole_stream() {
        let corpus = crate::corpus::generate("hbm4_lines", 3).unwrap();
        let mut drained = 0;
        for line in &corpus {
            if let Ok(rome_server::proto::Frame::Request(r)) = rome_server::proto::parse_frame(line)
            {
                if let ScenarioSpec::ClosedLoop { workload, .. } = &r.spec {
                    let reqs = drain(workload);
                    assert!(!reqs.is_empty());
                    assert!(reqs.iter().all(|q| q.bytes > 0));
                    assert_eq!(reqs.len(), drain(workload).len());
                    drained += 1;
                }
            }
        }
        assert!(drained > 0);
    }
}
