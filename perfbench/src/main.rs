//! `perfbench`: the end-to-end and per-layer benchmark of `rome-server`.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --server BIN [--out DIR]
//! perfbench corpus --workload W --seed N      # print the corpus frames
//! perfbench compare PARENT.jsonl CHANGE.jsonl # verdict per workload and metric
//! ```
//!
//! `run` starts `BIN --serve` on a loopback port, warms it, and drives it
//! closed loop from one connection for `S` seconds, checking every answer
//! against an in-process reference. The last stdout line is the result
//! object; every run also appends a record (with an environment stamp) to
//! `DIR/results.jsonl`, the input of `compare`. See `perfbench/README.md`.

mod client;
mod compare;
mod corpus;
mod env;
mod layers;
mod metrics;
mod reference;
mod server;
mod spans;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rome_server::{Json, ResultPayload, ScenarioEngine, ScenarioSpec};
use rome_sim::MemorySystemKind;

use client::{Outgoing, Phase, Until};
use reference::{Entry, EntryKind};
use server::Server;
use spans::SpanLog;

/// Closed-loop clients. One: the reference machine has two vCPUs shared
/// with other tenants, and a second connection keeps both busy with
/// simulation, so every stolen vCPU slice would show as a slower request.
const CONNECTIONS: usize = 1;
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Enough answers that at least ten lie beyond the 90th percentile.
const MIN_REQUESTS: usize = 110;
/// Stats frames timed by the traced run.
const STATS_POLLS: usize = 64;
/// Cold calibrations per system timed by the traced run.
const COLD_CALIBRATIONS: usize = 3;

const USAGE: &str = "usage:
  perfbench run --workload W --seed N --seconds S --trace 0|1 --server BIN [--out DIR]
  perfbench corpus --workload W [--seed N]
  perfbench compare PARENT.jsonl CHANGE.jsonl";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: corpus::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        server: PathBuf::from("target/release/rome-server"),
        out: PathBuf::from(".perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" if value == "held-out" => run.seed = corpus::HELD_OUT_SEED,
            "--seed" => run.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--server" => run.server = PathBuf::from(value),
            "--out" => run.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !corpus::WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            corpus::WORKLOADS.join(", ")
        ));
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| run(&a)),
        Some("corpus") => parse_run_args(&args[1..]).and_then(|a| {
            for line in corpus::generate(&a.workload, a.seed)? {
                println!("{line}");
            }
            Ok(())
        }),
        Some("compare") if args.len() == 3 => {
            let parent = compare::load(&args[1]);
            let change = compare::load(&args[2]);
            match (parent, change) {
                (Ok(p), Ok(c)) => {
                    let (lines, flagged) = compare::compare(&p, &c);
                    for line in lines {
                        println!("{line}");
                    }
                    if flagged {
                        return ExitCode::from(3);
                    }
                    Ok(())
                }
                (Err(e), _) | (_, Err(e)) => Err(e),
            }
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Attempted and failed checked operations across a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn note(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    fn add_phase(&mut self, phase: &Phase) {
        self.attempted += phase.samples.len() as u64;
        self.failed += (phase.samples.len() - phase.completed_ok()) as u64;
        if let Some(e) = &phase.first_error {
            self.first_error.get_or_insert(e.clone());
        }
    }
}

/// One cold calibration the set-up sends: span name, frame, expected answer.
struct SetupCall {
    span: &'static str,
    line: String,
    expected: String,
}

/// Start a server and warm both calibrations through it, cold. Returns the
/// server, the connection the set-up used, and the set-up time.
fn set_up(
    binary: &std::path::Path,
    calls: &[SetupCall],
    log: &mut SpanLog,
    tally: &mut Tally,
) -> Result<(Server, server::Conn, f64), String> {
    let t0 = Instant::now();
    let root = log.begin("setup", None, u64::MAX);
    let server = log.time("setup.spawn", Some(root), u64::MAX, || {
        Server::spawn(binary)
    })?;
    let mut conn = server.connect()?;
    let mut reply = String::new();
    for call in calls {
        log.time(call.span, Some(root), u64::MAX, || {
            conn.call(&call.line, &mut reply)
        })?;
        tally.note(if reply == call.expected {
            Ok(())
        } else {
            Err(format!("set-up calibration answered {reply}"))
        });
    }
    log.end(root);
    let secs = t0.elapsed().as_secs_f64();
    Ok((server, conn, secs))
}

/// Send one stats frame on `conn` and parse the snapshot.
fn stats(conn: &mut server::Conn) -> Result<Json, String> {
    let mut reply = String::new();
    conn.call("{\"op\":\"stats\"}", &mut reply)?;
    rome_server::json::parse(&reply).map_err(|e| format!("stats reply: {e}"))
}

fn counter(snapshot: &Json, name: &str) -> f64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Sum of the counters whose names start with `prefix`.
fn counter_sum(snapshot: &Json, prefix: &str) -> f64 {
    match snapshot.get("counters") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| v.as_f64())
            .sum(),
        _ => 0.0,
    }
}

fn run(args: &RunArgs) -> Result<(), String> {
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut tally = Tally::default();
    let lines = corpus::generate(&args.workload, args.seed)?;

    // References first, in-process, before anything is timed.
    let engine = ScenarioEngine::new();
    let entries = reference::compute(&engine, &lines)?;
    let calibrations: Vec<SetupCall> = [
        (MemorySystemKind::Hbm4, "hbm4", "setup.calibrate.hbm4"),
        (MemorySystemKind::Rome, "rome", "setup.calibrate.rome"),
    ]
    .into_iter()
    .map(|(system, tag, span)| {
        let spec = ScenarioSpec::Calibration {
            name: format!("setup-{tag}"),
            system,
        };
        let result = engine
            .serve_batch(std::slice::from_ref(&spec))
            .swap_remove(0);
        SetupCall {
            span,
            line: spec.to_json().emit(),
            expected: rome_server::proto::render_response(None, &spec, &result),
        }
    })
    .collect();

    // Set-up, several times; the last server is the one measured. Its
    // set-up connection stays open until the load connections are open and
    // warm, and those are kept for the whole run, so every run the server
    // serves the same threads: how many threads allocate sets how many
    // malloc arenas the peak RSS includes.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut measured = None;
    for k in 0..SETUPS {
        let (srv, conn, secs) = set_up(&args.server, &calibrations, &mut log, &mut tally)?;
        setup_times.push(secs);
        if k + 1 < SETUPS {
            drop(conn);
            srv.stop(Duration::from_secs(10));
        } else {
            measured = Some((srv, conn));
        }
    }
    let (server, setup_conn) = measured.ok_or("no server")?;

    // Warm pass: every frame once on each load connection, so lazy state
    // is built before timing.
    let mut conns = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let plain: Vec<Outgoing<'_>> = entries
        .iter()
        .map(|e| Outgoing {
            line: e.line.clone(),
            id: match &e.kind {
                EntryKind::Request(s) => s.req.id,
                EntryKind::Stats => None,
            },
            entry: e,
        })
        .collect();
    let mut reply = String::new();
    for conn in &mut conns {
        for frame in &plain {
            let outcome = conn
                .call(&frame.line, &mut reply)
                .and_then(|()| reference::check(frame.entry, frame.id, &reply).map(|_| ()));
            tally.note(outcome);
        }
    }
    drop(setup_conn);

    let mut notes = Vec::new();
    let (untraced, layer_values) = if args.trace {
        let (untraced, traced, layer_values) = measure_traced(
            args,
            &server,
            &mut conns,
            &engine,
            &entries,
            &plain,
            &mut log,
            &mut tally,
        )?;
        notes.push(format!(
            "trace overhead: traced {:.3} rps vs untraced {:.3} rps",
            traced.throughput(),
            untraced.throughput()
        ));
        (untraced, layer_values)
    } else {
        let until = Until {
            seconds: args.seconds,
            min_requests: MIN_REQUESTS,
        };
        let untraced = client::run(&mut conns, &plain, &until);
        tally.add_phase(&untraced);
        (untraced, BTreeMap::new())
    };
    let rss = server::peak_rss_mb(server.pid()).unwrap_or(0.0);
    drop(conns);
    server.stop(Duration::from_secs(10));

    // End-to-end metrics, from the untraced phase.
    let rtts = untraced.rtts_ms();
    let n = untraced.samples.len();
    let ok = untraced.completed_ok();
    let beyond_p90 = rtts
        .iter()
        .filter(|&&r| r > metrics::percentile(&rtts, 90.0))
        .count();
    let mut e2e = BTreeMap::new();
    e2e.insert("throughput_rps", untraced.throughput());
    e2e.insert("rtt_p50_ms", metrics::percentile(&rtts, 50.0));
    e2e.insert("rtt_p90_ms", metrics::percentile(&rtts, 90.0));
    e2e.insert(
        "success_rate",
        if n == 0 { 0.0 } else { ok as f64 / n as f64 },
    );
    e2e.insert("server_rss_mb", rss);
    e2e.insert("setup_s", metrics::median(&setup_times));
    let error_rate = if n == 0 {
        1.0
    } else {
        1.0 - ok as f64 / n as f64
    };

    println!(
        "perfbench: workload {} seed {} ({} frames), connections: {}, closed loop, {:.1} s",
        args.workload,
        args.seed,
        lines.len(),
        CONNECTIONS,
        untraced.elapsed.as_secs_f64()
    );
    let samples = |m: &str| match m {
        "setup_s" => format!("n={SETUPS} set-ups"),
        "server_rss_mb" => "n=1 reading".to_string(),
        "rtt_p90_ms" => format!("n={} answers, {beyond_p90} beyond p90", rtts.len()),
        "rtt_p50_ms" => format!("n={} answers", rtts.len()),
        "throughput_rps" => format!("n={n} requests, median of {} passes", n / lines.len().max(1)),
        _ => format!("n={n} requests"),
    };
    for m in metrics::END_TO_END {
        println!(
            "  {:<16} {:>14.6} {:<6} ({}; {} is better)",
            m.name,
            e2e[m.name],
            m.unit,
            samples(m.name),
            m.better.as_str()
        );
    }
    println!(
        "  {:<16} {:>14.6} {:<6} (n={n} requests)",
        "error_rate", error_rate, "ratio"
    );
    if beyond_p90 < 10 {
        notes.push(format!("only {beyond_p90} answers beyond p90"));
    }
    for (name, v) in &layer_values {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("  {name:<30} {v:>16.6} {unit}");
    }
    if args.trace {
        for (name, (self_ns, count)) in spans::self_time_by_name(&log.spans) {
            println!(
                "  self {name:<28} {:>12.3} ms over {count} spans",
                self_ns as f64 / 1e6
            );
        }
    }
    for note in &notes {
        println!("  note: {note}");
    }
    if let Some(e) = &tally.first_error {
        println!("  first failure: {e}");
    }

    let chosen: Vec<(&str, f64, &str)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    layer_values.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, e2e[m.name], m.unit))
            .collect()
    };
    let metrics_json = Json::Obj(
        chosen
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::from(*unit))]),
                )
            })
            .collect(),
    );
    let correct = tally.failed == 0;
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        ("metrics", metrics_json),
    ]);
    write_record(args, &result, error_rate, &log)?;
    println!("{}", result.emit());
    Ok(())
}

/// The traced run's timed part: untraced and traced quarters in ABBA order
/// (so a slow drift of the machine does not read as tracing overhead),
/// stats polls, and the per-layer metrics. Returns the merged untraced and
/// traced phases and the metrics.
#[allow(clippy::too_many_arguments)]
fn measure_traced<'a>(
    args: &RunArgs,
    server: &Server,
    conns: &mut [server::Conn],
    engine: &ScenarioEngine,
    entries: &'a [Entry],
    plain: &[Outgoing<'a>],
    log: &mut SpanLog,
    tally: &mut Tally,
) -> Result<(Phase, Phase, BTreeMap<&'static str, f64>), String> {
    let traced_frames: Vec<Outgoing<'_>> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| match &e.kind {
            EntryKind::Request(s) => {
                let (line, id) = s.traced_line(1 + i as u64);
                Outgoing {
                    line,
                    id: Some(id),
                    entry: e,
                }
            }
            EntryKind::Stats => Outgoing {
                line: e.line.clone(),
                id: None,
                entry: e,
            },
        })
        .collect();
    let quarter = Until {
        seconds: args.seconds / 4.0,
        min_requests: MIN_REQUESTS / 2,
    };
    let before = stats(&mut conns[0])?;
    let ticks0 = server::cpu_ticks(server.pid());
    let mut slices: Vec<Phase> = [plain, &traced_frames, &traced_frames, plain]
        .into_iter()
        .map(|frames| client::run(conns, frames, &quarter))
        .collect();
    let ticks1 = server::cpu_ticks(server.pid());
    let after = stats(&mut conns[0])?;
    let last_untraced = slices.pop().ok_or("no slice")?;
    let traced = Phase::merge(slices.split_off(1));
    let untraced = Phase::merge(vec![slices.pop().ok_or("no slice")?, last_untraced]);
    tally.add_phase(&untraced);
    tally.add_phase(&traced);
    let mut stats_rtts = Vec::with_capacity(STATS_POLLS);
    for _ in 0..STATS_POLLS {
        let t = Instant::now();
        let snap = stats(&mut conns[0]);
        stats_rtts.push(t.elapsed().as_secs_f64() * 1e6);
        tally.note(snap.map(|_| ()));
    }
    let last = stats(&mut conns[0])?;
    let cpu_ms = match (ticks0, ticks1) {
        (Some(a), Some(b)) => (b - a) as f64 / server::clock_ticks_per_second() * 1e3,
        _ => 0.0,
    };
    let values = traced_layers(
        engine,
        entries,
        log,
        LayerInputs {
            untraced: &untraced,
            traced: &traced,
            before: &before,
            after: &after,
            last: &last,
            cpu_ms,
            stats_rtts: &stats_rtts,
            probe_seconds: args.seconds / 4.0,
        },
    )?;
    Ok((untraced, traced, values))
}

/// Append this run's record to `OUT/results.jsonl`; in a traced run, also
/// write its spans.
fn write_record(
    args: &RunArgs,
    result: &Json,
    error_rate: f64,
    log: &SpanLog,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut record = vec![
        ("workload".to_string(), Json::from(args.workload.as_str())),
        ("seed".to_string(), Json::from(args.seed)),
        ("trace".to_string(), Json::from(u64::from(args.trace))),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("env".to_string(), env::stamp()),
    ];
    if let Json::Obj(result_members) = result {
        record.extend(result_members.iter().cloned());
    }
    if !args.trace {
        record.push(("error_rate".to_string(), Json::Num(error_rate)));
    }
    let path = args.out.join("results.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", Json::Obj(record).emit()).map_err(|e| e.to_string())?;
    if args.trace {
        let spans_path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        log.write_jsonl(&spans_path, 200_000)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    }
    Ok(())
}

struct LayerInputs<'a> {
    untraced: &'a Phase,
    traced: &'a Phase,
    before: &'a Json,
    after: &'a Json,
    last: &'a Json,
    cpu_ms: f64,
    stats_rtts: &'a [f64],
    probe_seconds: f64,
}

/// Every per-layer metric of the traced run.
fn traced_layers(
    engine: &ScenarioEngine,
    entries: &[Entry],
    log: &mut SpanLog,
    inp: LayerInputs<'_>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut v = BTreeMap::new();

    // Wire requests of the traced phase as span trees: the client's round
    // trip with the server's reported phases laid end to end inside it.
    let mut phase_us: [Vec<f64>; 4] = Default::default();
    let mut roots = Vec::new();
    let mut sim_ns = 0.0;
    let mut sim_events = 0u64;
    for s in &inp.traced.samples {
        let Some(w) = s.spans else { continue };
        let t0 = log.offset_ns(inp.traced.started + s.start);
        let root = log.push(
            "client.request",
            None,
            s.entry as u64,
            t0,
            t0 + s.rtt.as_nanos() as u64,
        );
        let mut at = t0;
        for (k, (name, us)) in [
            ("server.parse", w.parse_us),
            ("server.admission", w.admission_us),
            ("server.calibration", w.calibration_us),
            ("server.simulate", w.simulate_us),
        ]
        .into_iter()
        .enumerate()
        {
            phase_us[k].push(us as f64);
            log.push(name, Some(root), s.entry as u64, at, at + us * 1000);
            at += us * 1000;
        }
        roots.push(root);
        if let EntryKind::Request(served) = &entries[s.entry].kind {
            if served.events > 0 {
                sim_ns += w.simulate_us as f64 * 1e3;
                sim_events += served.events;
            }
        }
    }
    let own = spans::self_times(&log.spans);
    let client_self: Vec<f64> = roots.iter().map(|&r| own[r] as f64 / 1e3).collect();
    v.insert("net.client_overhead_us", metrics::median(&client_self));
    v.insert("engine.admission_us", metrics::mean(&phase_us[1]));
    v.insert("engine.calibration_us", metrics::mean(&phase_us[2]));
    v.insert("engine.simulate_us", metrics::mean(&phase_us[3]));
    v.insert(
        "engine.host_ns_per_event",
        if sim_events == 0 {
            0.0
        } else {
            sim_ns / sim_events as f64
        },
    );

    // Server registry deltas over the timed phases.
    let delta = |name: &str| counter(inp.after, name) - counter(inp.before, name);
    let delta_sum = |prefix: &str| counter_sum(inp.after, prefix) - counter_sum(inp.before, prefix);
    v.insert("admission.accepted", delta("admission.accepted"));
    v.insert("admission.rejected", delta_sum("admission.rejected_"));
    v.insert("serve.ok", delta("serve.ok"));
    v.insert("serve.errors", delta_sum("serve.errors."));
    let served = (inp.untraced.samples.len() + inp.traced.samples.len()).max(1) as f64;
    v.insert("server.cpu_ms_per_req", inp.cpu_ms / served);
    // The stats frame carries no histogram buckets, so no delta can be
    // taken: this p50 covers the server's whole life, set-up calibrations
    // and warm pass included.
    v.insert(
        "net.frame_rtt_us.p50",
        inp.after
            .get("histograms")
            .and_then(|h| h.get("net.frame_rtt_us"))
            .and_then(|h| h.get("p50"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    let hits = counter(inp.last, "cache.calibration.hits");
    let misses = counter(inp.last, "cache.calibration.misses");
    v.insert(
        "cache.calibration.hit_ratio",
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        },
    );
    v.insert("telemetry.stats_rtt_us", metrics::median(inp.stats_rtts));
    let untraced_tps = inp.untraced.throughput();
    v.insert(
        "trace.overhead_pct",
        if untraced_tps == 0.0 {
            0.0
        } else {
            (untraced_tps - inp.traced.throughput()) / untraced_tps * 100.0
        },
    );

    // Reference-pass work counts and modelled bandwidth.
    let (mut events, mut idle, mut requests) = (0u64, 0u64, 0u64);
    let mut gbps: BTreeMap<bool, Vec<f64>> = BTreeMap::new();
    for e in entries {
        let EntryKind::Request(s) = &e.kind else {
            continue;
        };
        requests += 1;
        events += s.events;
        idle += s.idle_wakeups;
        let hbm4 = layers::system_of(&s.req.spec) == Some(MemorySystemKind::Hbm4);
        let slot = gbps.entry(hbm4).or_default();
        match s.result.as_ref().map(|r| &r.payload) {
            Ok(ResultPayload::ClosedLoop(points)) => {
                slot.extend(points.iter().map(|p| p.achieved_gbps))
            }
            Ok(ResultPayload::QueueDepth(rows)) => {
                slot.extend(rows.iter().map(|r| r.report.achieved_bandwidth_gbps))
            }
            Ok(ResultPayload::MultiCube(mc)) => slot.push(mc.merged.achieved_bandwidth_gbps),
            _ => {}
        }
    }
    v.insert("engine.events_per_req", layers::ratio(events, requests));
    v.insert("engine.idle_wakeup_ratio", layers::ratio(idle, events));
    v.insert(
        "sim.hbm4_gbps",
        metrics::mean(gbps.get(&true).map_or(&[][..], |x| x)),
    );
    v.insert(
        "sim.rome_gbps",
        metrics::mean(gbps.get(&false).map_or(&[][..], |x| x)),
    );

    // In-process probes: repeated passes, medians of each layer's figure.
    let mut counts = layers::WorkCounts::default();
    let mut passes = vec![layers::probe_pass(engine, entries, log, Some(&mut counts))?];
    let probe_start = Instant::now();
    while passes.len() < 3
        || (probe_start.elapsed().as_secs_f64() < inp.probe_seconds && passes.len() < 50)
    {
        passes.push(layers::probe_pass(engine, entries, log, None)?);
    }
    let med = |f: fn(&layers::PassTimes) -> f64| {
        metrics::median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    v.insert("proto.parse_us", med(|p| p.parse_us));
    v.insert("result.encode_us", med(|p| p.encode_us));
    v.insert("workload.gen_ns_per_req", med(|p| p.gen_ns_per_req));
    v.insert("mc.host_ns_per_req", med(|p| p.mc_ns_per_req));
    v.insert("core.host_ns_per_req", med(|p| p.core_ns_per_req));
    v.insert("sim.analytic_us", med(|p| p.analytic_us));
    v.insert("result.bytes", counts.result_bytes);
    v.insert("mc.row_hit_rate", counts.mc_row_hit_rate);
    v.insert("mc.row_conflicts", counts.mc_row_conflicts as f64);
    v.insert("mc.stall_cycles", counts.mc_stall_cycles as f64);
    v.insert("mc.mean_queue_occupancy", counts.mc_mean_queue_occupancy);
    v.insert("hbm.commands_per_req", counts.hbm_commands_per_req);
    v.insert("core.rows_issued", counts.core_rows_issued as f64);
    v.insert(
        "core.derived_activates",
        counts.core_derived_activates as f64,
    );
    v.insert("sim.read_latency_p99_ns", counts.read_latency_p99_ns);

    let cold = |kind, log: &mut SpanLog| {
        let runs: Vec<f64> = (0..COLD_CALIBRATIONS)
            .map(|_| layers::calibrate_cold_ms(kind, log))
            .collect();
        metrics::median(&runs)
    };
    v.insert(
        "sim.calibrate_cold_ms.hbm4",
        cold(MemorySystemKind::Hbm4, log),
    );
    v.insert(
        "sim.calibrate_cold_ms.rome",
        cold(MemorySystemKind::Rome, log),
    );
    let snaps: Vec<f64> = (0..200).map(|_| layers::snapshot_us(engine, log)).collect();
    v.insert("telemetry.snapshot_us", metrics::median(&snaps));
    Ok(v)
}
