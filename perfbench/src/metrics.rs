//! The metric table (the single source `BENCHMARK.json` mirrors) and the
//! order statistics the benchmark and the compare step share.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A sim-time figure or work count: repeats exactly for a given
    /// workload, seed and commit, so the compare step checks it for
    /// equality instead of with medians.
    pub deterministic: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        deterministic: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        deterministic: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        deterministic: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    e2e("throughput_rps", "1/s", Higher, 0.24),
    e2e("rtt_p50_ms", "ms", Lower, 0.24),
    e2e("rtt_p90_ms", "ms", Lower, 0.24),
    e2e("success_rate", "ratio", Higher, 0.01),
    e2e("server_rss_mb", "MB", Lower, 0.24),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, from the traced run (`--trace 1`). Layers a workload
/// does not exercise report 0 work; their per-request units say so.
pub const PER_LAYER: &[Metric] = &[
    // rome-server wire front end (proto/json/conn/net).
    layer("proto.parse_us", "us", Lower),
    layer("result.encode_us", "us", Lower),
    count("result.bytes", "bytes", Lower),
    layer("net.frame_rtt_us.p50", "us", Lower),
    layer("net.client_overhead_us", "us", Lower),
    // rome-server engine.
    layer("engine.admission_us", "us/req", Lower),
    layer("engine.calibration_us", "us/req", Lower),
    layer("engine.simulate_us", "us/req", Lower),
    layer("server.cpu_ms_per_req", "ms/req", Lower),
    layer("admission.accepted", "count", Higher),
    layer("admission.rejected", "count", Lower),
    layer("serve.ok", "count", Higher),
    layer("serve.errors", "count", Lower),
    // rome-sim.
    layer("sim.calibrate_cold_ms.hbm4", "ms", Lower),
    layer("sim.calibrate_cold_ms.rome", "ms", Lower),
    layer("cache.calibration.hit_ratio", "ratio", Higher),
    layer("sim.analytic_us", "us/req", Lower),
    // rome-workload.
    layer("workload.gen_ns_per_req", "ns/req", Lower),
    // rome-engine.
    count("engine.events_per_req", "events/req", Lower),
    count("engine.idle_wakeup_ratio", "ratio", Lower),
    layer("engine.host_ns_per_event", "ns/event", Lower),
    // rome-mc and the HBM4 timing it drives.
    layer("mc.host_ns_per_req", "ns/req", Lower),
    count("mc.row_hit_rate", "ratio", Higher),
    count("mc.row_conflicts", "count", Lower),
    count("mc.stall_cycles", "cycles", Lower),
    count("mc.mean_queue_occupancy", "entries", Lower),
    count("hbm.commands_per_req", "cmds/req", Lower),
    // rome-core.
    layer("core.host_ns_per_req", "ns/req", Lower),
    count("core.rows_issued", "count", Lower),
    count("core.derived_activates", "count", Lower),
    // rome-telemetry.
    layer("telemetry.stats_rtt_us", "us", Lower),
    layer("telemetry.snapshot_us", "us", Lower),
    // The modelled design, in simulated time.
    count("sim.hbm4_gbps", "GB/s", Higher),
    count("sim.rome_gbps", "GB/s", Higher),
    count("sim.read_latency_p99_ns", "sim-ns", Lower),
    // The traced run against the untraced one.
    layer("trace.overhead_pct", "%", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Linear-interpolated percentile (`p` in 0..=100) of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    // Python: j = i*m // 4 clamped to 1..=n-1, delta = i*m - 4*j,
    // q_i = (x[j-1] * (4 - delta) + x[j] * delta) / 4.
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn benchmark_json_mirrors_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = rome_server::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_arr()).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(m.name));
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(m.unit));
                assert_eq!(
                    entry.get("better").and_then(|v| v.as_str()),
                    Some(m.better.as_str())
                );
                assert_eq!(entry.get("bound").and_then(|v| v.as_f64()), m.bound);
            }
        }
        let workloads = doc.get("workloads").and_then(|v| v.as_arr()).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(names, crate::corpus::WORKLOADS);
    }
}
