//! AdaBoost (SAMME) over shallow weighted CART trees.
//!
//! Boosting reweights training examples toward those the current ensemble
//! misclassifies — which is exactly why the paper finds boosting models the
//! most reactive to mislabels (Table 13 Q3): mislabeled examples keep
//! getting up-weighted. SAMME is the multi-class generalization used by
//! scikit-learn's `AdaBoostClassifier`.

use cleanml_dataset::FeatureMatrix;
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::error::MlError;
use crate::tree::{DecisionTree, TreeParams};
use crate::Result;

/// Hyper-parameters for [`AdaBoost`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoostParams {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Depth of each weak learner (1 = decision stumps).
    pub base_depth: usize,
    /// Shrinkage applied to each learner's vote.
    pub learning_rate: f64,
}

impl Default for AdaBoostParams {
    fn default() -> Self {
        AdaBoostParams { n_rounds: 40, base_depth: 1, learning_rate: 1.0 }
    }
}

impl AdaBoostParams {
    /// Samples hyper-parameters for random search.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        AdaBoostParams {
            n_rounds: *[20usize, 40, 80].choose(rng).expect("non-empty"),
            base_depth: *[1usize, 2, 3].choose(rng).expect("non-empty"),
            learning_rate: *[0.5f64, 1.0].choose(rng).expect("non-empty"),
        }
    }
}

/// A fitted SAMME ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoost {
    learners: Vec<(f64, DecisionTree)>,
    n_features: usize,
    n_classes: usize,
}

impl AdaBoost {
    /// Runs SAMME boosting.
    pub fn fit(params: &AdaBoostParams, data: &FeatureMatrix, seed: u64) -> Result<AdaBoost> {
        if params.n_rounds == 0 {
            return Err(MlError::InvalidParam { param: "n_rounds", message: "0".into() });
        }
        if params.learning_rate.is_nan() || params.learning_rate <= 0.0 {
            return Err(MlError::InvalidParam {
                param: "learning_rate",
                message: format!("{}", params.learning_rate),
            });
        }
        let n = data.n_rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let k = data.n_classes().max(2);
        let tree_params = TreeParams {
            max_depth: params.base_depth,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
        };

        let mut weights = vec![1.0 / n as f64; n];
        let mut learners = Vec::with_capacity(params.n_rounds);

        for round in 0..params.n_rounds {
            let tree_seed = seed.wrapping_add(round as u64);
            let tree = DecisionTree::fit_weighted(&tree_params, data, &weights, tree_seed)?;
            let preds = tree.predict(data)?;

            let err: f64 = preds
                .iter()
                .zip(data.labels())
                .zip(&weights)
                .filter(|((p, y), _)| p != y)
                .map(|(_, w)| w)
                .sum();

            if err <= 1e-12 {
                // Perfect learner: give it a large (finite) vote and stop.
                learners.push((params.learning_rate * 10.0, tree));
                break;
            }
            // SAMME requires better-than-random: err < 1 - 1/K.
            if err >= 1.0 - 1.0 / k as f64 {
                if learners.is_empty() {
                    // Keep one learner so the ensemble can still predict.
                    learners.push((1.0, tree));
                }
                break;
            }

            let alpha = params.learning_rate * (((1.0 - err) / err).ln() + (k as f64 - 1.0).ln());
            for ((w, p), y) in weights.iter_mut().zip(&preds).zip(data.labels()) {
                if p != y {
                    *w *= alpha.exp();
                }
            }
            let total: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= total);

            learners.push((alpha, tree));
        }

        Ok(AdaBoost { learners, n_features: data.n_cols(), n_classes: data.n_classes() })
    }

    /// Normalized per-class weighted votes (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let k = self.n_classes;
        let mut votes = vec![0.0; data.n_rows() * k];
        for (alpha, tree) in &self.learners {
            let preds = tree.predict(data)?;
            for (i, &p) in preds.iter().enumerate() {
                votes[i * k + p] += alpha;
            }
        }
        for row in votes.chunks_exact_mut(k) {
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                row.iter_mut().for_each(|v| *v /= total);
            } else {
                row.iter_mut().for_each(|v| *v = 1.0 / k as f64);
            }
        }
        Ok(votes)
    }

    /// Most voted class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(crate::logistic::argmax_rows(&probs, self.n_classes))
    }

    /// Number of fitted weak learners (may stop early).
    pub fn n_learners(&self) -> usize {
        self.learners.len()
    }
}

impl AdaBoost {
    pub(crate) fn heap_bytes(&self) -> u64 {
        crate::model::vec_bytes(&self.learners)
            + self.learners.iter().map(|(_, t)| t.heap_bytes()).sum::<u64>()
    }

    /// Appends the weighted learner ensemble to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::{push_f64, push_usize};
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        push_usize(out, self.learners.len());
        for (alpha, tree) in &self.learners {
            push_f64(out, *alpha);
            tree.encode_into(out);
        }
    }

    /// Reads an ensemble written by [`AdaBoost::encode_into`].
    pub(crate) fn decode_from(parts: &mut cleanml_dataset::codec::Reader<'_>) -> Option<AdaBoost> {
        use cleanml_dataset::codec::{take_f64, take_usize};
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let n_learners = take_usize(parts)?;
        if n_learners == 0 {
            return None;
        }
        let mut learners = Vec::with_capacity(n_learners.min(1 << 16));
        for _ in 0..n_learners {
            let alpha = take_f64(parts)?;
            let tree = DecisionTree::decode_from(parts)?;
            learners.push((alpha, tree));
        }
        Some(AdaBoost { learners, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn diagonal_classes(n: usize) -> FeatureMatrix {
        // Boundary x0 + x1 > 1: stumps must be combined to approximate it.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x = (i as f64 * 0.618) % 1.0;
            let y = (i as f64 * 0.414) % 1.0;
            data.push(x);
            data.push(y);
            labels.push(usize::from(x + y > 1.0));
        }
        FeatureMatrix::from_parts(data, n, 2, labels, 2)
    }

    #[test]
    fn boosting_beats_single_stump() {
        let data = diagonal_classes(200);
        let stump =
            AdaBoost::fit(&AdaBoostParams { n_rounds: 1, ..Default::default() }, &data, 0).unwrap();
        let boosted =
            AdaBoost::fit(&AdaBoostParams { n_rounds: 60, ..Default::default() }, &data, 0)
                .unwrap();
        let acc_stump = accuracy(data.labels(), &stump.predict(&data).unwrap());
        let acc_boost = accuracy(data.labels(), &boosted.predict(&data).unwrap());
        assert!(acc_boost > acc_stump, "{acc_boost} <= {acc_stump}");
        assert!(acc_boost > 0.9);
    }

    #[test]
    fn perfect_learner_short_circuits() {
        let data = FeatureMatrix::from_parts(vec![0.0, 1.0, 10.0, 11.0], 4, 1, vec![0, 0, 1, 1], 2);
        let model = AdaBoost::fit(&AdaBoostParams::default(), &data, 0).unwrap();
        assert_eq!(model.n_learners(), 1);
        assert_eq!(model.predict(&data).unwrap(), vec![0, 0, 1, 1]);
    }

    #[test]
    fn probabilities_normalized() {
        let data = diagonal_classes(100);
        let model = AdaBoost::fit(&AdaBoostParams::default(), &data, 1).unwrap();
        for row in model.predict_proba(&data).unwrap().chunks_exact(2) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic() {
        let data = diagonal_classes(80);
        let m1 = AdaBoost::fit(&AdaBoostParams::default(), &data, 3).unwrap();
        let m2 = AdaBoost::fit(&AdaBoostParams::default(), &data, 3).unwrap();
        assert_eq!(m1.predict(&data).unwrap(), m2.predict(&data).unwrap());
    }

    #[test]
    fn invalid_params_rejected() {
        let data = diagonal_classes(10);
        assert!(
            AdaBoost::fit(&AdaBoostParams { n_rounds: 0, ..Default::default() }, &data, 0).is_err()
        );
        assert!(AdaBoost::fit(
            &AdaBoostParams { learning_rate: 0.0, ..Default::default() },
            &data,
            0
        )
        .is_err());
    }
}
