//! Property tests on model-layer invariants: the sampler's support
//! guarantees, its agreement with a full-sort reference, and the
//! dataset's batch alignment, for arbitrary inputs.

use ratatouille_util::proptest::prelude::*;
use ratatouille_util::rng::StdRng;
use ratatouille_util::rng::SeedableRng;
use ratatouille_models::data::Dataset;
use ratatouille_models::sample::{select_token, SamplerConfig};
use ratatouille_util::rng::RngExt;
use ratatouille_tokenizers::{CharTokenizer, Tokenizer};

proptest! {
    cases = 32;

    /// top-k sampling never selects outside the k most likely tokens.
    #[test]
    fn top_k_support(
        logits in collection::vec(-5.0f32..5.0, 4..32),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let cfg = SamplerConfig {
            greedy: false,
            temperature: 1.0,
            top_k: k,
            top_p: 1.0,
            ..SamplerConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let picked = select_token(&logits, &cfg, &mut rng) as usize;
        // picked logit must be >= the (k)th largest logit
        let mut sorted = logits.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let kth = sorted[k.min(sorted.len()) - 1];
        prop_assert!(logits[picked] >= kth - 1e-6);
    }

    /// Greedy always picks the argmax, independent of the rng.
    #[test]
    fn greedy_is_argmax(
        logits in collection::vec(-5.0f32..5.0, 2..20),
        seed in 0u64..100,
    ) {
        let cfg = SamplerConfig { greedy: true, ..SamplerConfig::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let picked = select_token(&logits, &cfg, &mut rng) as usize;
        let best = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        prop_assert!((logits[picked] - logits[best]).abs() < 1e-9);
    }

    /// Every dataset block keeps the shift-by-one target alignment,
    /// whatever text went in.
    #[test]
    fn dataset_alignment(text in "[a-h ]{50,300}", block in 4usize..32) {
        let tok = CharTokenizer::train(&["abcdefgh "]);
        let ds = Dataset::from_texts(&[text], &tok, block);
        for (inp, tgt) in ds.iter_examples() {
            prop_assert_eq!(inp.len(), block);
            prop_assert_eq!(tgt.len(), block);
            // aligned: target[i] == input[i+1] wherever both are real tokens
            for i in 0..block - 1 {
                if tgt[i] != tok.pad_id() && inp[i + 1] != tok.pad_id() {
                    prop_assert_eq!(tgt[i], inp[i + 1]);
                }
            }
        }
    }

    /// Batches drawn from a dataset are always rectangular and in-vocab.
    #[test]
    fn batches_well_formed(seed in 0u64..1000, bsz in 1usize..6) {
        let tok = CharTokenizer::train(&["abcdefgh "]);
        let ds = Dataset::from_texts(&["abcdefgh ".repeat(40)], &tok, 16);
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = ds.sample_batch(bsz, &mut rng);
        batch.assert_well_formed();
        prop_assert_eq!(batch.batch_size(), bsz);
        for row in &batch.inputs {
            prop_assert!(row.iter().all(|&t| (t as usize) < tok.vocab_size()));
        }
    }
}

proptest! {
    cases = 256;

    /// The top-k selection sampler draws exactly what a full stable sort
    /// of every candidate would: same kept ids in the same order, so the
    /// same token for the same RNG state. Logits sit on a coarse grid
    /// half the time (ties everywhere, `-0.0` next to `+0.0`), and the
    /// configs sweep top-k across its edges, top-p, near-zero
    /// temperatures and greedy.
    #[test]
    fn select_token_matches_full_sort_reference(
        grid in collection::vec(-6i32..6, 1..120),
        jitter in collection::vec(-1.0f32..1.0, 120),
        picks in (0u32..2, 0usize..6, 0usize..3, 0usize..6),
        seed in 0u64..10_000,
    ) {
        let (tied, k_pick, p_pick, t_pick) = picks;
        let v = grid.len();
        let logits: Vec<f32> = grid
            .iter()
            .zip(&jitter)
            .enumerate()
            .map(|(i, (&g, &j))| match (tied, g) {
                // both zero signs on the grid
                (1, 0) if i % 2 == 1 => -0.0,
                (1, _) => g as f32 * 0.5,
                _ => g as f32 + j,
            })
            .collect();
        let top_k = [0, 1, 40, v - 1, v, v + 5][k_pick];
        let top_p = [0.5, 0.9, 1.0][p_pick];
        let (greedy, temperature) = [
            (false, 1e-4),
            (false, 0.01),
            (false, 0.7),
            (false, 1.0),
            (false, 3.0),
            (true, 1.0),
        ][t_pick];
        let cfg = SamplerConfig { greedy, temperature, top_k, top_p, ..SamplerConfig::default() };
        let mut fast = StdRng::seed_from_u64(seed);
        let mut reference = StdRng::seed_from_u64(seed);
        for draw in 0..8 {
            let got = select_token(&logits, &cfg, &mut fast);
            let want = full_sort_select(&logits, &cfg, &mut reference);
            prop_assert_eq!(got, want, "draw {draw}, cfg {cfg:?}, logits {logits:?}");
        }
    }
}

/// The sampler as it was before top-k selection: a stable descending
/// sort of every candidate id, then the same softmax, top-p cut and
/// multinomial draw. Greedy is the first maximum. Reference only — the
/// production sampler must agree with it on every finite input.
fn full_sort_select(logits: &[f32], cfg: &SamplerConfig, rng: &mut StdRng) -> u32 {
    if cfg.greedy {
        let mut best = 0;
        for (i, &x) in logits.iter().enumerate() {
            if x > logits[best] {
                best = i;
            }
        }
        return best as u32;
    }
    let v = logits.len();
    let temp = cfg.temperature.max(1e-4);
    let scaled: Vec<f32> = logits.iter().map(|&x| x / temp).collect();
    let mut idx: Vec<usize> = (0..v).collect();
    idx.sort_by(|&a, &b| scaled[b].partial_cmp(&scaled[a]).unwrap());
    let k = if cfg.top_k > 0 { cfg.top_k.min(v) } else { v };
    let mut kept = &idx[..k];
    let max = scaled[kept[0]];
    let mut probs: Vec<f32> = kept.iter().map(|&i| (scaled[i] - max).exp()).collect();
    let sum = ratatouille_util::accum::sum_f32(probs.iter().copied());
    for p in probs.iter_mut() {
        *p /= sum;
    }
    if cfg.top_p < 1.0 {
        let mut cum = 0.0f32;
        let mut cut = probs.len();
        for (i, &p) in probs.iter().enumerate() {
            cum += p;
            if cum >= cfg.top_p {
                cut = i + 1;
                break;
            }
        }
        kept = &kept[..cut];
        probs.truncate(cut);
        let s = ratatouille_util::accum::sum_f32(probs.iter().copied());
        for p in probs.iter_mut() {
            *p /= s;
        }
    }
    let mut x = rng.random::<f32>();
    for (&i, &p) in kept.iter().zip(&probs) {
        x -= p;
        if x <= 0.0 {
            return i as u32;
        }
    }
    *kept.last().unwrap() as u32
}
