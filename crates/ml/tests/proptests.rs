//! Property-based tests for the classifiers: every family must produce
//! valid probability distributions and in-range predictions on arbitrary
//! (well-formed) training data, including degenerate shapes.

use proptest::prelude::*;

use cleanml_dataset::FeatureMatrix;
use cleanml_ml::{ModelKind, ModelSpec, PAPER_MODELS};

/// Strategy: a small random binary-classification matrix.
fn arb_matrix() -> impl Strategy<Value = FeatureMatrix> {
    (2usize..30, 1usize..4).prop_flat_map(|(n, d)| {
        (prop::collection::vec(-5.0f64..5.0, n * d), prop::collection::vec(0usize..2, n))
            .prop_map(move |(data, labels)| FeatureMatrix::from_parts(data, n, d, labels, 2))
    })
}

/// Cheap model families exercised per proptest case (the full seven run in
/// the unit tests; proptest multiplies cases, so keep the hot loop small).
const FAST_KINDS: [ModelKind; 4] =
    [ModelKind::DecisionTree, ModelKind::NaiveBayes, ModelKind::Knn, ModelKind::LogisticRegression];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Probabilities are valid distributions; predictions are in range and
    /// consistent with the argmax of the probabilities.
    #[test]
    fn predictions_well_formed(m in arb_matrix(), seed in any::<u64>()) {
        for kind in FAST_KINDS {
            let model = ModelSpec::default_for(kind).fit(&m, seed).expect("fit");
            let preds = model.predict(&m).expect("predict");
            let probs = model.predict_proba(&m).expect("proba");
            prop_assert_eq!(preds.len(), m.n_rows());
            prop_assert_eq!(probs.len(), m.n_rows() * 2);
            for (i, row) in probs.chunks_exact(2).enumerate() {
                prop_assert!(row.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)),
                    "{kind}: bad probs {row:?}");
                let sum: f64 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-6, "{kind}: sum {sum}");
                prop_assert!(preds[i] < 2, "{kind}: class out of range");
            }
        }
    }

    /// Fitting is deterministic given the seed.
    #[test]
    fn fit_deterministic(m in arb_matrix(), seed in any::<u64>()) {
        for kind in [ModelKind::RandomForest, ModelKind::Mlp] {
            let a = ModelSpec::default_for(kind).fit(&m, seed).expect("fit");
            let b = ModelSpec::default_for(kind).fit(&m, seed).expect("fit");
            prop_assert_eq!(a.predict_proba(&m).expect("p"), b.predict_proba(&m).expect("p"));
        }
    }

    /// Perfectly separated 1-D data is learned exactly by every family.
    #[test]
    fn separable_data_is_learned(gap in 3.0f64..20.0, n_per in 4usize..15) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per {
            data.push(-gap - i as f64 * 0.1);
            labels.push(0);
        }
        for i in 0..n_per {
            data.push(gap + i as f64 * 0.1);
            labels.push(1);
        }
        let m = FeatureMatrix::from_parts(data, 2 * n_per, 1, labels, 2);
        for kind in PAPER_MODELS {
            let model = ModelSpec::default_for(kind).fit(&m, 7).expect("fit");
            let preds = model.predict(&m).expect("predict");
            let acc = cleanml_ml::accuracy(m.labels(), &preds);
            prop_assert!(acc > 0.99, "{kind} failed separable data: {acc}");
        }
    }

    /// The binary model codec round-trips arbitrary fitted models
    /// bit-exactly, and every truncation of the encoding fails closed.
    #[test]
    fn model_codec_round_trips(m in arb_matrix(), seed in any::<u64>()) {
        for kind in FAST_KINDS {
            let model = ModelSpec::default_for(kind).fit(&m, seed).expect("fit");
            let bytes = cleanml_ml::codec::encode_model(&model);
            let back = cleanml_ml::codec::decode_model(&bytes).expect("decode");
            prop_assert_eq!(&back, &model, "{}", kind);
            prop_assert_eq!(
                back.predict_proba(&m).expect("p"),
                model.predict_proba(&m).expect("p"),
                "{}", kind
            );
            for cut in 0..bytes.len() {
                prop_assert!(
                    cleanml_ml::codec::decode_model(&bytes[..cut]).is_none(),
                    "{}: truncation at {} decoded", kind, cut
                );
            }
        }
    }

    /// Adversarial mutation: flipping any byte of a valid model encoding
    /// parses or rejects — never a panic, never a hang, never a runaway
    /// allocation. (In the store such bytes can't even reach the decoder:
    /// the artifact frame's checksum rejects them first. This property
    /// covers future transports that might skip the frame.)
    #[test]
    fn model_decoder_is_total(m in arb_matrix(), seed in any::<u64>(), mutate in any::<u64>()) {
        let kind = FAST_KINDS[(seed % FAST_KINDS.len() as u64) as usize];
        let model = ModelSpec::default_for(kind).fit(&m, seed).expect("fit");
        let mut bytes = cleanml_ml::codec::encode_model(&model);
        let pos = (mutate as usize) % bytes.len();
        bytes[pos] ^= (mutate >> 8) as u8 | 1;
        let _ = cleanml_ml::codec::decode_model(&bytes); // Some or None, no panic
    }
}

// ---- CV fold plane: plan-backed paths are bit-identical to the naive
// per-candidate implementation -----------------------------------------

use cleanml_dataset::split::kfold_indices;
use cleanml_ml::cv::{random_search_with_plan, FoldPlan, SearchBudget};
use cleanml_ml::Metric;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-plan CV score, spelled out exactly as it was: fresh
/// `kfold_indices` + two `select_rows` gathers per fold, per call.
fn naive_cross_val_score(
    spec: &ModelSpec,
    data: &FeatureMatrix,
    k: usize,
    seed: u64,
    metric: Metric,
) -> Option<f64> {
    let n = data.n_rows();
    if n < 2 {
        return None;
    }
    let k = k.clamp(2, n);
    let folds = kfold_indices(n, k, seed);
    let mut total = 0.0;
    let mut used = 0usize;
    for (fold_id, (train_idx, val_idx)) in folds.iter().enumerate() {
        if train_idx.is_empty() || val_idx.is_empty() {
            continue;
        }
        let train = data.select_rows(train_idx);
        let val = data.select_rows(val_idx);
        let model = spec.fit(&train, seed.wrapping_add(fold_id as u64)).expect("fit");
        let preds = model.predict(&val).expect("predict");
        total += metric.score(val.labels(), &preds);
        used += 1;
    }
    (used > 0).then(|| total / used as f64)
}

/// The pre-plan `random_search`: one serial candidate loop, each candidate
/// re-running the naive CV from scratch.
fn naive_random_search(
    kind: ModelKind,
    data: &FeatureMatrix,
    budget: SearchBudget,
    seed: u64,
    metric: Metric,
) -> (ModelSpec, f64) {
    let n_candidates = budget.n_candidates.max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let mut best: Option<(ModelSpec, f64)> = None;
    for c in 0..n_candidates {
        let spec =
            if c == 0 { ModelSpec::default_for(kind) } else { ModelSpec::sample(kind, &mut rng) };
        let score = naive_cross_val_score(&spec, data, budget.cv_folds, seed, metric)
            .expect("usable folds");
        let better = match &best {
            None => true,
            Some((_, b)) => score > *b,
        };
        if better {
            best = Some((spec, score));
        }
    }
    best.expect("n_candidates >= 1")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `FoldPlan`-backed CV scores are bit-identical to the naive
    /// per-candidate path across families, fold counts (including the
    /// degenerate k > n_rows clamp and size-1 folds) and seeds.
    #[test]
    fn plan_cv_bit_identical_to_naive(
        m in arb_matrix(),
        seed in any::<u64>(),
        k in 2usize..40,
    ) {
        for kind in FAST_KINDS {
            let spec = ModelSpec::default_for(kind);
            let plan = FoldPlan::new(&m, k, seed).expect("n >= 2 by construction");
            let budget = SearchBudget { n_candidates: 1, cv_folds: k };
            let planned = random_search_with_plan(kind, &plan, budget, seed, Metric::Accuracy)
                .expect("cv")
                .val_score;
            let naive =
                naive_cross_val_score(&spec, &m, k, seed, Metric::Accuracy).expect("cv");
            prop_assert_eq!(planned.to_bits(), naive.to_bits(), "{} k={}", kind, k);
        }
    }

    /// Plan-backed random search returns the same winning spec and the
    /// bit-identical validation score as the naive path across budgets —
    /// including multi-candidate budgets where the plan actually
    /// deduplicates fold materialization.
    #[test]
    fn plan_search_bit_identical_to_naive(
        m in arb_matrix(),
        seed in any::<u64>(),
        n_candidates in 1usize..4,
        cv_folds in 2usize..6,
    ) {
        let budget = SearchBudget { n_candidates, cv_folds };
        for kind in [ModelKind::DecisionTree, ModelKind::NaiveBayes] {
            let plan = FoldPlan::new(&m, budget.cv_folds, seed).expect("plan");
            let got = random_search_with_plan(kind, &plan, budget, seed, Metric::Accuracy)
                .expect("search");
            let (want_spec, want_score) =
                naive_random_search(kind, &m, budget, seed, Metric::Accuracy);
            prop_assert_eq!(&got.spec, &want_spec, "{}", kind);
            prop_assert_eq!(got.val_score.to_bits(), want_score.to_bits(), "{}", kind);
        }
    }
}
