//! Unified model interface: hyper-parameter specs and fitted models.
//!
//! [`ModelKind`] names a model family (the paper's seven, plus the two
//! robust-ML baselines from §VII-B); [`ModelSpec`] carries its
//! hyper-parameters; [`ModelSpec::fit`] produces a [`FittedModel`] that can
//! predict. Degenerate training sets with a single observed class fit to a
//! constant predictor rather than erroring — small cross-validation folds on
//! imbalanced data hit this case routinely.

use cleanml_dataset::FeatureMatrix;
use rand::Rng;
use std::fmt;

use crate::adaboost::{AdaBoost, AdaBoostParams};
use crate::forest::{ForestParams, RandomForest};
use crate::gbdt::{Gbdt, GbdtParams};
use crate::knn::{Knn, KnnParams};
use crate::logistic::{Logistic, LogisticParams};
use crate::mlp::{Mlp, MlpParams};
use crate::nacl::{Nacl, NaclParams};
use crate::naive_bayes::{GaussianNb, NbParams};
use crate::tree::{DecisionTree, TreeParams};
use crate::Result;

/// Model families available in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelKind {
    LogisticRegression,
    Knn,
    DecisionTree,
    RandomForest,
    AdaBoost,
    /// The XGBoost stand-in (second-order gradient boosting).
    XGBoost,
    NaiveBayes,
    /// Robust-ML baseline (paper §VII-B), not part of the seven.
    Mlp,
    /// Robust-ML baseline for missing values (paper §VII-B).
    Nacl,
}

/// The seven classifiers of the paper's §III-D, in its listing order.
pub const PAPER_MODELS: [ModelKind; 7] = [
    ModelKind::LogisticRegression,
    ModelKind::Knn,
    ModelKind::DecisionTree,
    ModelKind::RandomForest,
    ModelKind::AdaBoost,
    ModelKind::NaiveBayes,
    ModelKind::XGBoost,
];

impl ModelKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::LogisticRegression => "Logistic Regression",
            ModelKind::Knn => "KNN",
            ModelKind::DecisionTree => "Decision Tree",
            ModelKind::RandomForest => "Random Forest",
            ModelKind::AdaBoost => "AdaBoost",
            ModelKind::XGBoost => "XGBoost",
            ModelKind::NaiveBayes => "Naive Bayes",
            ModelKind::Mlp => "MLP",
            ModelKind::Nacl => "NaCL",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Hyper-parameters for one model family.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    Logistic(LogisticParams),
    Knn(KnnParams),
    Tree(TreeParams),
    Forest(ForestParams),
    AdaBoost(AdaBoostParams),
    Gbdt(GbdtParams),
    NaiveBayes(NbParams),
    Mlp(MlpParams),
    Nacl(NaclParams),
}

impl ModelSpec {
    /// The family this spec belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSpec::Logistic(_) => ModelKind::LogisticRegression,
            ModelSpec::Knn(_) => ModelKind::Knn,
            ModelSpec::Tree(_) => ModelKind::DecisionTree,
            ModelSpec::Forest(_) => ModelKind::RandomForest,
            ModelSpec::AdaBoost(_) => ModelKind::AdaBoost,
            ModelSpec::Gbdt(_) => ModelKind::XGBoost,
            ModelSpec::NaiveBayes(_) => ModelKind::NaiveBayes,
            ModelSpec::Mlp(_) => ModelKind::Mlp,
            ModelSpec::Nacl(_) => ModelKind::Nacl,
        }
    }

    /// Default hyper-parameters for a family.
    pub fn default_for(kind: ModelKind) -> ModelSpec {
        match kind {
            ModelKind::LogisticRegression => ModelSpec::Logistic(LogisticParams::default()),
            ModelKind::Knn => ModelSpec::Knn(KnnParams::default()),
            ModelKind::DecisionTree => ModelSpec::Tree(TreeParams::default()),
            ModelKind::RandomForest => ModelSpec::Forest(ForestParams::default()),
            ModelKind::AdaBoost => ModelSpec::AdaBoost(AdaBoostParams::default()),
            ModelKind::XGBoost => ModelSpec::Gbdt(GbdtParams::default()),
            ModelKind::NaiveBayes => ModelSpec::NaiveBayes(NbParams::default()),
            ModelKind::Mlp => ModelSpec::Mlp(MlpParams::default()),
            ModelKind::Nacl => ModelSpec::Nacl(NaclParams::default()),
        }
    }

    /// Samples a random hyper-parameter configuration for a family
    /// (the paper's "standard random search").
    pub fn sample<R: Rng + ?Sized>(kind: ModelKind, rng: &mut R) -> ModelSpec {
        match kind {
            ModelKind::LogisticRegression => ModelSpec::Logistic(LogisticParams::sample(rng)),
            ModelKind::Knn => ModelSpec::Knn(KnnParams::sample(rng)),
            ModelKind::DecisionTree => ModelSpec::Tree(TreeParams::sample(rng)),
            ModelKind::RandomForest => ModelSpec::Forest(ForestParams::sample(rng)),
            ModelKind::AdaBoost => ModelSpec::AdaBoost(AdaBoostParams::sample(rng)),
            ModelKind::XGBoost => ModelSpec::Gbdt(GbdtParams::sample(rng)),
            ModelKind::NaiveBayes => ModelSpec::NaiveBayes(NbParams::sample(rng)),
            ModelKind::Mlp => ModelSpec::Mlp(MlpParams::sample(rng)),
            ModelKind::Nacl => ModelSpec::Nacl(NaclParams::sample(rng)),
        }
    }

    /// Trains the model. Training data with fewer than two observed classes
    /// yields a constant predictor.
    pub fn fit(&self, data: &FeatureMatrix, seed: u64) -> Result<FittedModel> {
        if data.n_rows() == 0 {
            return Err(crate::MlError::EmptyTrainingSet);
        }
        let first = data.labels()[0];
        if data.labels().iter().all(|&l| l == first) {
            return Ok(FittedModel::Constant { class: first, n_classes: data.n_classes() });
        }
        Ok(match self {
            ModelSpec::Logistic(p) => FittedModel::Logistic(Logistic::fit(p, data)?),
            ModelSpec::Knn(p) => FittedModel::Knn(Knn::fit(p, data)?),
            ModelSpec::Tree(p) => FittedModel::Tree(DecisionTree::fit(p, data, seed)?),
            ModelSpec::Forest(p) => FittedModel::Forest(RandomForest::fit(p, data, seed)?),
            ModelSpec::AdaBoost(p) => FittedModel::AdaBoost(AdaBoost::fit(p, data, seed)?),
            ModelSpec::Gbdt(p) => FittedModel::Gbdt(Gbdt::fit(p, data, seed)?),
            ModelSpec::NaiveBayes(p) => FittedModel::NaiveBayes(GaussianNb::fit(p, data)?),
            ModelSpec::Mlp(p) => FittedModel::Mlp(Mlp::fit(p, data, seed)?),
            ModelSpec::Nacl(p) => FittedModel::Nacl(Nacl::fit(p, data, seed)?),
        })
    }
}

/// A trained model ready to predict.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedModel {
    /// Fallback for single-class training data.
    Constant {
        class: usize,
        n_classes: usize,
    },
    Logistic(Logistic),
    Knn(Knn),
    Tree(DecisionTree),
    Forest(RandomForest),
    AdaBoost(AdaBoost),
    Gbdt(Gbdt),
    NaiveBayes(GaussianNb),
    Mlp(Mlp),
    Nacl(Nacl),
}

/// Bytes a vector's buffer occupies.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

impl FittedModel {
    /// Approximate heap footprint of the fitted parameters in bytes.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            FittedModel::Constant { .. } => 0,
            FittedModel::Logistic(m) => m.heap_bytes(),
            FittedModel::Knn(m) => m.heap_bytes(),
            FittedModel::Tree(m) => m.heap_bytes(),
            FittedModel::Forest(m) => m.heap_bytes(),
            FittedModel::AdaBoost(m) => m.heap_bytes(),
            FittedModel::Gbdt(m) => m.heap_bytes(),
            FittedModel::NaiveBayes(m) => m.heap_bytes(),
            FittedModel::Mlp(m) => m.heap_bytes(),
            FittedModel::Nacl(m) => m.heap_bytes(),
        }
    }

    /// Class predictions for each row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        match self {
            FittedModel::Constant { class, .. } => Ok(vec![*class; data.n_rows()]),
            FittedModel::Logistic(m) => m.predict(data),
            FittedModel::Knn(m) => m.predict(data),
            FittedModel::Tree(m) => m.predict(data),
            FittedModel::Forest(m) => m.predict(data),
            FittedModel::AdaBoost(m) => m.predict(data),
            FittedModel::Gbdt(m) => m.predict(data),
            FittedModel::NaiveBayes(m) => m.predict(data),
            FittedModel::Mlp(m) => m.predict(data),
            FittedModel::Nacl(m) => m.predict(data),
        }
    }

    /// Class probabilities (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        match self {
            FittedModel::Constant { class, n_classes } => {
                let mut out = vec![0.0; data.n_rows() * n_classes];
                for row in out.chunks_exact_mut(*n_classes) {
                    row[*class] = 1.0;
                }
                Ok(out)
            }
            FittedModel::Logistic(m) => m.predict_proba(data),
            FittedModel::Knn(m) => m.predict_proba(data),
            FittedModel::Tree(m) => m.predict_proba(data),
            FittedModel::Forest(m) => m.predict_proba(data),
            FittedModel::AdaBoost(m) => m.predict_proba(data),
            FittedModel::Gbdt(m) => m.predict_proba(data),
            FittedModel::NaiveBayes(m) => m.predict_proba(data),
            FittedModel::Mlp(m) => m.predict_proba(data),
            FittedModel::Nacl(m) => m.predict_proba(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(n: usize) -> FeatureMatrix {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let base = if c == 0 { -2.0 } else { 2.0 };
            let noise = ((i * 31 % 67) as f64 / 67.0 - 0.5) * 0.8;
            data.push(base + noise);
            data.push(base - noise);
            labels.push(c);
        }
        FeatureMatrix::from_parts(data, n, 2, labels, 2)
    }

    #[test]
    fn all_seven_paper_models_learn_blobs() {
        let data = blobs(100);
        for kind in PAPER_MODELS {
            let spec = ModelSpec::default_for(kind);
            assert_eq!(spec.kind(), kind);
            let model = spec.fit(&data, 42).unwrap();
            let preds = model.predict(&data).unwrap();
            let acc = accuracy(data.labels(), &preds);
            assert!(acc > 0.9, "{kind} accuracy {acc}");
            let probs = model.predict_proba(&data).unwrap();
            assert_eq!(probs.len(), data.n_rows() * 2);
            for row in probs.chunks_exact(2) {
                assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-6, "{kind} probs");
            }
        }
    }

    #[test]
    fn robust_models_learn_blobs() {
        let data = blobs(100);
        for kind in [ModelKind::Mlp, ModelKind::Nacl] {
            let model = ModelSpec::default_for(kind).fit(&data, 1).unwrap();
            let acc = accuracy(data.labels(), &model.predict(&data).unwrap());
            assert!(acc > 0.85, "{kind} accuracy {acc}");
        }
    }

    #[test]
    fn single_class_falls_back_to_constant() {
        let data = FeatureMatrix::from_parts(vec![1.0, 2.0, 3.0], 3, 1, vec![1, 1, 1], 2);
        for kind in PAPER_MODELS {
            let model = ModelSpec::default_for(kind).fit(&data, 0).unwrap();
            assert!(matches!(model, FittedModel::Constant { class: 1, .. }), "{kind}");
            assert_eq!(model.predict(&data).unwrap(), vec![1, 1, 1]);
            let probs = model.predict_proba(&data).unwrap();
            assert_eq!(&probs[..2], &[0.0, 1.0]);
        }
    }

    #[test]
    fn sampling_produces_valid_specs() {
        let data = blobs(60);
        let mut rng = StdRng::seed_from_u64(7);
        for kind in PAPER_MODELS {
            for _ in 0..3 {
                let spec = ModelSpec::sample(kind, &mut rng);
                assert_eq!(spec.kind(), kind);
                let model = spec.fit(&data, 0).unwrap();
                assert_eq!(model.predict(&data).unwrap().len(), 60);
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(ModelKind::XGBoost.name(), "XGBoost");
        assert_eq!(ModelKind::LogisticRegression.to_string(), "Logistic Regression");
        assert_eq!(PAPER_MODELS.len(), 7);
    }

    #[test]
    fn empty_training_rejected() {
        let data = FeatureMatrix::from_parts(vec![], 0, 0, vec![], 2);
        assert!(ModelSpec::default_for(ModelKind::DecisionTree).fit(&data, 0).is_err());
    }
}
