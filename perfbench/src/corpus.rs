//! Seeded spec corpora, one per workload.
//!
//! A corpus is a list of wire frames (one JSON object per line) that the
//! load generator sends round-robin. Everything the server receives comes
//! from here, and everything here comes from the workload name and the
//! seed: the same pair always yields byte-identical lines. The seed moves
//! RNG seeds, base addresses, menu picks and the send order, but never the
//! number of specs or their byte counts, so the simulated work per pass
//! stays nearly flat across seeds.

use rome_engine::request::RequestKind;
use rome_server::{Json, ScenarioSpec, TenantDecl, WorkloadSpec};
use rome_sim::sweep::SweepKind;
use rome_sim::MemorySystemKind;
use rome_workload::trace::TraceRecord;
use rome_workload::{MoeRoutingConfig, PrefillDecodeConfig};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["hbm4_lines", "rome_rows"];

/// The seed used while sizing the corpora.
pub const DEFAULT_SEED: u64 = 1;

/// A seed never used while tuning: checks run it to show the corpora were
/// not fitted to one seed's draws.
pub const HELD_OUT_SEED: u64 = 0x5eed_0ff5;

/// HBM4 transaction size.
const LINE: u64 = 32;
/// RoMe row size.
const ROW: u64 = 4096;
/// Bytes per record of the read/write trace.
const TRACE_RECORD: u64 = 1024;

/// SplitMix64: a tiny, dependency-free, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<T: Copy>(&mut self, menu: &[T]) -> T {
        menu[self.below(menu.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The corpus of `workload` for `seed`, one wire frame per line.
pub fn generate(workload: &str, seed: u64) -> Result<Vec<String>, String> {
    let mut rng = Rng::new(seed ^ fnv(workload));
    let mut lines = match workload {
        "hbm4_lines" => bare(
            [
                shapes(seed, MemorySystemKind::Hbm4, LINE),
                kv_rw(seed, MemorySystemKind::Hbm4, LINE),
                sweeps(),
            ]
            .concat(),
        ),
        "rome_rows" => rome_rows(seed, &mut rng),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    rng.shuffle(&mut lines);
    Ok(lines)
}

fn bare(specs: Vec<ScenarioSpec>) -> Vec<String> {
    specs.iter().map(|s| s.to_json().emit()).collect()
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seeded base address on a 1 GiB boundary, in GiB `first..first + 4`.
/// The seed moves which rows a stream touches, never how its addresses
/// fall across channels and banks, so it leaves the simulated work alone.
fn region(rng: &mut Rng, first: u64) -> u64 {
    (first + rng.below(4)) << 30
}

fn sys_tag(system: MemorySystemKind) -> &'static str {
    match system {
        MemorySystemKind::Hbm4 => "hbm4",
        _ => "rome",
    }
}

/// The read-only traffic shapes shared by `hbm4_lines` and `rome_rows`:
/// closed-loop MoE routing and prefill/decode traffic, queue-depth sweeps
/// and multi-cube streams. Drawn from their own generator seeded by `seed`
/// alone, so both workloads get the same shapes, seeds and byte counts and
/// differ only in system and request size.
fn shapes(seed: u64, system: MemorySystemKind, granularity: u64) -> Vec<ScenarioSpec> {
    let mut rng = Rng::new(seed);
    let tag = sys_tag(system);
    let mut specs = Vec::new();
    for v in 0..4 {
        specs.push(ScenarioSpec::ClosedLoop {
            name: format!("moe-{tag}-{v}"),
            system,
            channels: 4,
            windows: vec![16],
            max_ns: 50_000_000,
            workload: WorkloadSpec::Moe(MoeRoutingConfig {
                experts: 16,
                top_k: 2,
                expert_bytes: 6 * 1024,
                layers: 2,
                tokens_per_step: 32,
                steps: 2,
                step_period_ns: 0,
                granularity,
                base: region(&mut rng, 0),
                zipf_exponent: 1.0,
                seed: rng.next_u64() >> 12,
            }),
        });
        specs.push(ScenarioSpec::ClosedLoop {
            name: format!("pd-{tag}-{v}"),
            system,
            channels: 4,
            windows: vec![16],
            max_ns: 50_000_000,
            workload: WorkloadSpec::PrefillDecode(PrefillDecodeConfig {
                prefill_bytes: 96 * 1024,
                prefill_granularity: granularity,
                decode_bytes: 32 * 1024,
                decode_granularity: granularity,
                decode_steps_per_prefill: 2,
                rounds: 2,
                phase_period_ns: 2_000,
                weight_base: region(&mut rng, 0),
                weight_span: 1 << 20,
                kv_base: region(&mut rng, 4),
                kv_span: 1 << 20,
                kv_write_period: 0,
                seed: rng.next_u64() >> 12,
            }),
        });
        specs.push(ScenarioSpec::QueueDepth {
            name: format!("qd-{tag}-{v}"),
            system,
            depths: vec![4, 16, 64],
            total_bytes: 512 * 1024,
            granularity,
        });
        // One single-channel cube: the sharded multi-cube path without a
        // thread spawn per request, whose cost on a 2-vCPU machine swings
        // with host scheduling and would dominate the tail latency.
        specs.push(ScenarioSpec::MultiCube {
            name: format!("cubes-{tag}-{v}"),
            system,
            cubes: 1,
            channels_per_cube: 1,
            bytes_per_cube: 512 * 1024,
            max_ns: 50_000_000,
        });
    }
    specs
}

/// `rome_rows`: the read and read/write shapes of `hbm4_lines` at row
/// granularity on RoMe, plus warm calibration lookups, analytic TPOT
/// points, a stats poll, and envelopes that take the traced and recorded
/// serve paths.
fn rome_rows(seed: u64, rng: &mut Rng) -> Vec<String> {
    let specs = [
        shapes(seed, MemorySystemKind::Rome, ROW),
        kv_rw(seed, MemorySystemKind::Rome, ROW),
    ]
    .concat();
    let mut lines = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let id = 1 + i as u64;
        let line = match i % 4 {
            1 => envelope(id, spec, true, None),
            3 if i % 8 == 3 => envelope(
                id,
                spec,
                false,
                Some(("requests", Some(rng.pick(&[32, 64])))),
            ),
            _ => spec.to_json().emit(),
        };
        lines.push(line);
    }
    for system in [MemorySystemKind::Hbm4, MemorySystemKind::Rome] {
        let spec = ScenarioSpec::Calibration {
            name: format!("cal-{}", sys_tag(system)),
            system,
        };
        lines.push(spec.to_json().emit());
    }
    lines.extend(bare(tpots(rng)));
    lines.push(Json::obj([("op", Json::from("stats"))]).emit());
    lines
}

/// A request envelope: `{"id":N,"spec":{…}[,"trace":true][,"record":{…}]}`.
/// `record` is the recorder level and its optional event limit.
pub fn envelope(
    id: u64,
    spec: &ScenarioSpec,
    trace: bool,
    record: Option<(&str, Option<u64>)>,
) -> String {
    let mut members = vec![("id", Json::from(id)), ("spec", spec.to_json())];
    if trace {
        members.push(("trace", Json::from(true)));
    }
    if let Some((level, limit)) = record {
        let mut r = vec![("level", Json::from(level))];
        if let Some(limit) = limit {
            r.push(("limit", Json::from(limit)));
        }
        members.push(("record", Json::obj(r)));
    }
    Json::obj(members).emit()
}

/// The read/write shapes shared by `hbm4_lines` and `rome_rows`:
/// prefill/decode with KV write-back, write-carrying bursts, a read/write
/// trace, and a small multi-tenant decode mix. Like [`shapes`], drawn from
/// a generator seeded by `seed` alone, so both systems get the same seeds
/// and byte counts. Bursts are small and spaced a little wider than HBM4
/// takes to serve one: the host queues every burst that has arrived, so an
/// overloaded burst stream would make the server's peak memory depend on
/// which two specs overlap.
fn kv_rw(seed: u64, system: MemorySystemKind, granularity: u64) -> Vec<ScenarioSpec> {
    let mut rng = Rng::new(seed ^ fnv("kv_rw"));
    let tag = sys_tag(system);
    let mut specs = Vec::new();
    for v in 0..3 {
        specs.push(ScenarioSpec::ClosedLoop {
            name: format!("kvpd-{tag}-{v}"),
            system,
            channels: 4,
            windows: vec![16],
            max_ns: 50_000_000,
            workload: WorkloadSpec::PrefillDecode(PrefillDecodeConfig {
                prefill_bytes: 32 << 10,
                prefill_granularity: granularity,
                decode_bytes: 16 << 10,
                decode_granularity: granularity,
                decode_steps_per_prefill: 2,
                rounds: 2,
                phase_period_ns: 2_000,
                weight_base: region(&mut rng, 0),
                weight_span: 64 << 20,
                kv_base: region(&mut rng, 4),
                kv_span: 64 << 20,
                kv_write_period: 4,
                seed: rng.next_u64() >> 12,
            }),
        });
        specs.push(ScenarioSpec::ClosedLoop {
            name: format!("burst-{tag}-{v}"),
            system,
            channels: 4,
            windows: vec![16],
            max_ns: 50_000_000,
            workload: WorkloadSpec::Burst {
                base: region(&mut rng, 0),
                span: 256 << 20,
                bytes_per_burst: 16 << 10,
                granularity,
                period_ns: 4_000,
                bursts: 32,
                write_period: 4,
            },
        });
    }
    specs.push(ScenarioSpec::ClosedLoop {
        name: format!("tenants-{tag}"),
        system,
        channels: 4,
        windows: vec![16],
        max_ns: 50_000_000,
        workload: WorkloadSpec::MultiTenant(
            [("grok-1", 16), ("llama-3", 8)]
                .iter()
                .map(|&(model, batch)| TenantDecl {
                    name: format!("{model}-b{batch}"),
                    model: model.to_string(),
                    batch,
                    seq_len: 4096,
                    period_ns: 2_000,
                    steps: 2,
                    scale: 1 << 21,
                    granularity,
                })
                .collect(),
        ),
    });
    let base = region(&mut rng, 0);
    specs.push(ScenarioSpec::ClosedLoop {
        name: format!("trace-{tag}"),
        system,
        channels: 4,
        windows: vec![8],
        max_ns: 50_000_000,
        workload: WorkloadSpec::Trace(
            (0..64u64)
                .map(|k| TraceRecord {
                    arrival: k * 20,
                    kind: if k % 3 == 2 {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    },
                    addr: base + rng.below(1 << 10) * TRACE_RECORD,
                    bytes: TRACE_RECORD,
                    tag: (k % 4) as u16,
                })
                .collect(),
        ),
    });
    specs
}

/// The analytic Figure 12 and Figure 13 sweeps at a 4096-token context,
/// nominal and on the warm calibration cache. At about 8 and 35 ms each
/// they sit among the `hbm4_lines` specs, so they load `rome-sim` without
/// a workload of their own.
fn sweeps() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for calibrated in [false, true] {
        let mode = if calibrated { "cal" } else { "nom" };
        for (kind, fig) in [
            (SweepKind::Figure12, "fig12"),
            (SweepKind::Figure13, "fig13"),
        ] {
            specs.push(ScenarioSpec::Sweep {
                name: format!("{fig}-{mode}-4096"),
                kind,
                seq_len: 4096,
                calibrated,
            });
        }
    }
    specs
}

/// The analytic decode-TPOT point of each model at batch 32, nominal and
/// on the warm calibration cache. At under a millisecond each they sit
/// among the `rome_rows` specs. The seed draws the context lengths.
fn tpots(rng: &mut Rng) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for calibrated in [false, true] {
        let mode = if calibrated { "cal" } else { "nom" };
        for model in ["deepseek-v3", "grok-1", "llama-3"] {
            specs.push(ScenarioSpec::Tpot {
                name: format!("tpot-{model}-b32-{mode}"),
                model: model.to_string(),
                batch: 32,
                seq_len: rng.pick(&[4096, 8192, 16384]),
                calibrated,
            });
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rome_server::proto::{parse_frame, Frame};

    #[test]
    fn same_seed_gives_byte_identical_corpora() {
        for workload in WORKLOADS {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED, 7] {
                let a = generate(workload, seed).unwrap();
                let b = generate(workload, seed).unwrap();
                assert_eq!(a, b, "{workload} seed {seed}");
            }
        }
    }

    #[test]
    fn seeds_change_the_draws_but_not_the_corpus_size() {
        for workload in WORKLOADS {
            let a = generate(workload, 1).unwrap();
            let b = generate(workload, 2).unwrap();
            assert_eq!(a.len(), b.len(), "{workload}");
            assert_ne!(a, b, "{workload}: the seed must reach the corpus");
        }
    }

    #[test]
    fn every_line_is_a_frame_the_server_parses() {
        for workload in WORKLOADS {
            for line in generate(workload, HELD_OUT_SEED).unwrap() {
                parse_frame(&line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
            }
        }
    }

    #[test]
    fn lines_and_rows_share_shapes_and_byte_counts() {
        let lines = shapes(5, MemorySystemKind::Hbm4, LINE);
        let rows = shapes(5, MemorySystemKind::Rome, ROW);
        assert_eq!(lines.len(), rows.len());
        for (a, b) in lines.iter().zip(&rows) {
            assert_eq!(a.tag(), b.tag());
            assert_eq!(a.estimated_cost() > 0, b.estimated_cost() > 0);
        }
    }

    #[test]
    fn rome_rows_covers_every_serve_path() {
        let lines = generate("rome_rows", DEFAULT_SEED).unwrap();
        let frames: Vec<Frame> = lines.iter().map(|l| parse_frame(l).unwrap()).collect();
        let has = |f: &dyn Fn(&Frame) -> bool| frames.iter().any(f);
        assert!(has(&|f| matches!(f, Frame::Stats { .. })));
        assert!(has(&|f| matches!(f, Frame::Request(r) if r.trace)));
        assert!(has(
            &|f| matches!(f, Frame::Request(r) if r.record.is_some())
        ));
        assert!(has(
            &|f| matches!(f, Frame::Request(r) if !r.trace && r.record.is_none())
        ));
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(generate("nope", 1).is_err());
    }
}
