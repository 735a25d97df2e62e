//! Channel load-balance rate (LBR, Figure 13).
//!
//! Under RoMe's 4 KB access granularity each independently-allocated memory
//! object (a projection matrix, one expert's weights, one sequence's
//! per-layer KV cache) is distributed across the memory channels in 4 KB
//! chunks. An operator whose objects are small relative to
//! `channels × 4 KB` loads some channels more than others, and the
//! most-loaded channel bounds the bandwidth that operator can draw. The LBR
//! of an operator is the ratio of the mean to the maximum per-channel load;
//! the LBR of a step is the traffic-weighted average over its operators
//! (attention and FFN reported separately, as in the paper).
//!
//! The per-channel loads are computed in closed form, in O(units +
//! channels) per operator rather than one pass over the channels per unit:
//! an object's full rounds of chunks add to every channel alike, and its
//! remaining chunks cover a cyclic run of channels from its start. Loads are
//! exact integers, so the result matches the chunk-by-chunk distribution
//! (kept as the test reference) bit for bit.

use serde::{Deserialize, Serialize};

use rome_llm::ops::{Operator, OperatorKind};
use rome_llm::traffic::StepTraffic;

/// The per-kind LBR of one inference step on one memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LbrReport {
    /// Traffic-weighted LBR over attention operators.
    pub attention: f64,
    /// Traffic-weighted LBR over FFN operators.
    pub ffn: f64,
    /// Traffic-weighted LBR over the whole step.
    pub overall: f64,
}

/// Distribute one object of `bytes` bytes over `loads.len()` channels in
/// `granularity`-byte chunks, starting at channel `start`. The reference the
/// closed-form [`channel_loads`] is checked against.
#[cfg(test)]
fn distribute(loads: &mut [f64], bytes: u64, granularity: u64, start: usize) {
    let channels = loads.len();
    if bytes == 0 || channels == 0 {
        return;
    }
    let channels_u64 = channels as u64;
    let full_chunks = bytes / granularity;
    let tail = bytes % granularity;
    for (c, load) in loads.iter_mut().enumerate() {
        let offset = ((c + channels - start) % channels) as u64;
        if full_chunks > offset {
            let count = (full_chunks - offset - 1) / channels_u64 + 1;
            *load += (count * granularity) as f64;
        }
    }
    if tail > 0 {
        let c = (start + (full_chunks % channels_u64) as usize) % channels;
        loads[c] += tail as f64;
    }
}

fn lbr_of(loads: &[f64]) -> f64 {
    let max = loads.iter().cloned().fold(0.0f64, f64::max);
    if max == 0.0 {
        return 1.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    mean / max
}

/// Per-channel loads of a sequence of objects, each distributed in
/// `granularity`-byte chunks and starting one channel after its
/// predecessor. Each object of `full` chunks adds `full / channels` chunks
/// to every channel (one shared count), one more chunk to the
/// `full % channels` channels from its start (a cyclic range update on a
/// difference array), and its tail to the channel after that range; one
/// prefix sum at the end resolves the ranges.
fn channel_loads(
    units: impl IntoIterator<Item = u64>,
    channels: usize,
    granularity: u64,
) -> Vec<f64> {
    if channels == 0 {
        return Vec::new();
    }
    let channels_u64 = channels as u64;
    let mut shared = 0u64;
    let mut diff = vec![0i64; channels + 1];
    let mut add = |from: usize, to: usize, bytes: u64| {
        diff[from] += bytes as i64;
        diff[to] -= bytes as i64;
    };
    let mut start = 0usize;
    for bytes in units {
        let full_chunks = bytes / granularity;
        let tail = bytes % granularity;
        shared += full_chunks / channels_u64 * granularity;
        let end = start + (full_chunks % channels_u64) as usize;
        if end <= channels {
            add(start, end, granularity);
        } else {
            add(start, channels, granularity);
            add(0, end - channels, granularity);
        }
        if tail > 0 {
            let c = end % channels;
            add(c, c + 1, tail);
        }
        start = (start + 1) % channels;
    }
    let mut run = 0i64;
    diff[..channels]
        .iter()
        .map(|d| {
            run += d;
            (shared + run as u64) as f64
        })
        .collect()
}

/// The LBR of a single operator execution on a `channels`-channel system with
/// `granularity`-byte interleaving.
pub fn operator_lbr(op: &Operator, channels: u32, granularity: u64) -> f64 {
    let units = op.tensor_units().into_iter().map(|(_, bytes)| bytes);
    lbr_of(&channel_loads(units, channels as usize, granularity))
}

/// Compute the traffic-weighted channel load-balance rates of `step`.
pub fn channel_load_balance(step: &StepTraffic, channels: u32, granularity: u64) -> LbrReport {
    let ops = &step.operators;
    lbr_report(ops, |i| operator_lbr(&ops[i], channels, granularity))
}

/// Traffic-weight the LBRs of one step's operators, where `lbr(i)` is the
/// LBR of `operators[i]`; it is only asked for operators that move traffic.
pub(crate) fn lbr_report(operators: &[Operator], mut lbr: impl FnMut(usize) -> f64) -> LbrReport {
    let mut sums = [(0.0f64, 0.0f64); 3]; // (weighted lbr, weight) for attn / ffn / all
    for (i, op) in operators.iter().enumerate() {
        let weight = (op.bytes() * op.repeat as u64) as f64;
        if weight == 0.0 {
            continue;
        }
        let lbr = lbr(i);
        match op.kind {
            OperatorKind::Attention => {
                sums[0].0 += lbr * weight;
                sums[0].1 += weight;
            }
            OperatorKind::Ffn => {
                sums[1].0 += lbr * weight;
                sums[1].1 += weight;
            }
            _ => {}
        }
        sums[2].0 += lbr * weight;
        sums[2].1 += weight;
    }
    let avg = |(num, den): (f64, f64)| if den == 0.0 { 1.0 } else { num / den };
    LbrReport {
        attention: avg(sums[0]),
        ffn: avg(sums[1]),
        overall: avg(sums[2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rome_llm::model::ModelConfig;
    use rome_llm::ops::decode_step;
    use rome_llm::parallelism::Parallelism;

    use crate::sweep::paper_batch_sweep;

    /// The chunk-by-chunk reference: one [`distribute`] pass over every
    /// channel per object, objects starting one channel apart.
    fn reference_loads(units: &[u64], channels: u32, granularity: u64) -> Vec<f64> {
        let mut loads = vec![0.0; channels as usize];
        let mut start = 0usize;
        for &bytes in units {
            distribute(&mut loads, bytes, granularity, start);
            start = (start + 1) % channels as usize;
        }
        loads
    }

    fn reference_operator_lbr(op: &Operator, channels: u32, granularity: u64) -> f64 {
        let units: Vec<u64> = op.tensor_units().into_iter().map(|(_, b)| b).collect();
        lbr_of(&reference_loads(&units, channels, granularity))
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn report_bits(r: LbrReport) -> [u64; 3] {
        [r.attention.to_bits(), r.ffn.to_bits(), r.overall.to_bits()]
    }

    /// Pick the interleaving granularity: 32 B, 4 KiB, or `random`.
    fn granularity(choice: u64, random: u64) -> u64 {
        match choice {
            0 => 32,
            1 => 4096,
            _ => random,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random object lists — empty, sub-granularity, whole rounds of
        /// chunks, and arbitrary sizes — on 1..=300 channels: the closed-form
        /// loads and their LBR equal the reference's bit for bit.
        #[test]
        fn closed_form_loads_match_the_chunk_by_chunk_reference(
            raw in prop::collection::vec((0u64..4, 0u64..1 << 20), 0..64),
            channels in 1u32..301,
            choice in 0u64..3,
            random in 1u64..10_000,
        ) {
            let g = granularity(choice, random);
            let units: Vec<u64> = raw
                .iter()
                .map(|&(class, r)| match class {
                    0 => 0,
                    1 => r % g,
                    2 => (r % (4 * channels as u64)) * g,
                    _ => r,
                })
                .collect();
            let reference = reference_loads(&units, channels, g);
            let loads = channel_loads(units.iter().copied(), channels as usize, g);
            prop_assert_eq!(bits(&loads), bits(&reference));
            prop_assert_eq!(lbr_of(&loads).to_bits(), lbr_of(&reference).to_bits());
        }

        /// `operator_lbr` on random operators (weight and KV objects of
        /// random unit sizes plus activations) equals the reference exactly.
        #[test]
        fn operator_lbr_matches_the_reference_bit_for_bit(
            weight in (0u64..1 << 22, 0u64..128),
            kv in (0u64..1 << 22, 0u64..128),
            activation in 0u64..1 << 16,
            channels in 1u32..301,
            choice in 0u64..3,
            random in 1u64..10_000,
        ) {
            let g = granularity(choice, random);
            let op = Operator {
                name: "random".to_string(),
                kind: OperatorKind::Ffn,
                repeat: 1,
                weight_bytes: weight.0,
                activation_bytes: activation,
                kv_bytes: kv.0,
                flops: 0,
                weight_unit_bytes: weight.1 * 512,
                kv_unit_bytes: kv.1 * 512,
            };
            prop_assert_eq!(
                operator_lbr(&op, channels, g).to_bits(),
                reference_operator_lbr(&op, channels, g).to_bits()
            );
        }
    }

    #[test]
    fn channel_load_balance_matches_the_reference_on_the_paper_sweeps() {
        for model in ModelConfig::paper_models() {
            let par = Parallelism::paper_decode(&model);
            for batch in paper_batch_sweep(&model, 8192) {
                let s = decode_step(&model, &par, batch, 8192);
                for (channels, g) in [(256, 32), (288, 4096)] {
                    let ops = &s.operators;
                    let reference =
                        lbr_report(ops, |i| reference_operator_lbr(&ops[i], channels, g));
                    assert_eq!(
                        report_bits(channel_load_balance(&s, channels, g)),
                        report_bits(reference),
                        "{} batch {batch} at {g} B / {channels}",
                        model.name
                    );
                }
            }
        }
    }

    fn step(model: &ModelConfig, batch: u64) -> StepTraffic {
        let par = Parallelism::paper_decode(model);
        decode_step(model, &par, batch, 8192)
    }

    #[test]
    fn cache_line_granularity_is_essentially_balanced() {
        for model in ModelConfig::paper_models() {
            let s = step(&model, 64);
            let report = channel_load_balance(&s, 256, 32);
            assert!(
                report.overall > 0.97,
                "{}: overall {}",
                model.name,
                report.overall
            );
            assert!(
                report.attention > 0.95,
                "{}: attn {}",
                model.name,
                report.attention
            );
            assert!(report.ffn > 0.95, "{}: ffn {}", model.name, report.ffn);
        }
    }

    #[test]
    fn row_granularity_lbr_is_at_most_one_and_improves_with_batch() {
        for model in ModelConfig::paper_models() {
            let small = channel_load_balance(&step(&model, 8), 288, 4096);
            let large = channel_load_balance(&step(&model, 256), 288, 4096);
            assert!(small.attention <= 1.0 + 1e-9 && small.ffn <= 1.0 + 1e-9);
            assert!(
                large.attention >= small.attention - 0.02,
                "{}: attention LBR degraded {} -> {}",
                model.name,
                small.attention,
                large.attention
            );
            assert!(
                small.overall > 0.5,
                "{}: overall {}",
                model.name,
                small.overall
            );
        }
    }

    #[test]
    fn llama_attention_lbr_stays_high_due_to_large_hidden_dim() {
        // The paper: Llama-3 keeps high LBR_Attn even under TP because its
        // hidden dimension (16,384) keeps the per-device weight slices large.
        let llama = channel_load_balance(&step(&ModelConfig::llama3_405b(), 8), 288, 4096);
        let grok = channel_load_balance(&step(&ModelConfig::grok_1(), 8), 288, 4096);
        assert!(
            llama.attention > 0.85,
            "Llama attention LBR {}",
            llama.attention
        );
        assert!(
            llama.attention >= grok.attention - 0.02,
            "Llama ({}) should not trail Grok ({})",
            llama.attention,
            grok.attention
        );
    }

    #[test]
    fn deepseek_attention_lbr_is_high_under_data_parallelism() {
        let ds = channel_load_balance(&step(&ModelConfig::deepseek_v3(), 8), 288, 4096);
        assert!(
            ds.attention > 0.9,
            "DeepSeek attention LBR {}",
            ds.attention
        );
    }

    #[test]
    fn distribute_handles_exact_and_partial_chunks() {
        let mut loads = vec![0.0; 4];
        distribute(&mut loads, 4 * 4096, 4096, 0);
        assert_eq!(loads, vec![4096.0; 4]);
        let mut loads = vec![0.0; 4];
        distribute(&mut loads, 4096 + 100, 4096, 1);
        assert_eq!(loads[1], 4096.0);
        assert_eq!(loads[2], 100.0);
        assert_eq!(loads[0], 0.0);
        let mut loads = vec![0.0; 4];
        distribute(&mut loads, 0, 4096, 0);
        assert_eq!(loads, vec![0.0; 4]);
    }

    #[test]
    fn lbr_of_uniform_loads_is_one_and_empty_is_one() {
        assert_eq!(lbr_of(&[5.0, 5.0, 5.0]), 1.0);
        assert_eq!(lbr_of(&[]), 1.0);
        assert_eq!(lbr_of(&[0.0, 0.0]), 1.0);
        assert!((lbr_of(&[1.0, 3.0]) - (2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn operator_lbr_penalizes_objects_smaller_than_the_channel_stripe() {
        use rome_llm::ops::Operator;
        // 64 objects of 8 KiB over 288 channels at 4 KiB granularity: only
        // 128 of 288 channels receive anything.
        let op = Operator {
            name: "small".to_string(),
            kind: OperatorKind::Ffn,
            repeat: 1,
            weight_bytes: 64 * 8192,
            activation_bytes: 0,
            kv_bytes: 0,
            flops: 0,
            weight_unit_bytes: 8192,
            kv_unit_bytes: 0,
        };
        let coarse = operator_lbr(&op, 288, 4096);
        let fine = operator_lbr(&op, 288, 32);
        assert!(coarse < 0.7, "coarse {coarse}");
        assert!(fine > 0.85, "fine {fine}");
        assert!(
            fine > coarse,
            "finer interleaving must balance better ({fine} vs {coarse})"
        );
    }
}
