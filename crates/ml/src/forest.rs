//! Random forest: bootstrap-aggregated CART trees with feature subsampling.

use cleanml_dataset::FeatureMatrix;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use crate::error::MlError;
use crate::tree::{DecisionTree, TreeParams};
use crate::Result;

/// Hyper-parameters for [`RandomForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features per split; `None` = `ceil(sqrt(d))` (the classic default).
    pub max_features: Option<usize>,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { n_trees: 40, max_depth: 12, min_samples_leaf: 1, max_features: None }
    }
}

impl ForestParams {
    /// Samples hyper-parameters for random search.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ForestParams {
            n_trees: *[20usize, 40, 80].choose(rng).expect("non-empty"),
            max_depth: *[6usize, 10, 14].choose(rng).expect("non-empty"),
            min_samples_leaf: *[1usize, 2, 4].choose(rng).expect("non-empty"),
            max_features: None,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
    n_classes: usize,
}

impl RandomForest {
    /// Trains `n_trees` CART trees on bootstrap resamples, each with
    /// per-split feature subsampling.
    pub fn fit(params: &ForestParams, data: &FeatureMatrix, seed: u64) -> Result<RandomForest> {
        if params.n_trees == 0 {
            return Err(MlError::InvalidParam { param: "n_trees", message: "0".into() });
        }
        let n = data.n_rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let d = data.n_cols();
        let max_features =
            params.max_features.unwrap_or_else(|| (d as f64).sqrt().ceil() as usize).clamp(1, d);
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_samples_split: 2,
            min_samples_leaf: params.min_samples_leaf,
            max_features: Some(max_features),
        };

        // Bootstrap index draws stay on the single shared RNG stream (the
        // draw sequence is part of the model's content address), so they
        // are materialized up front; the tree fits themselves are pure
        // functions of (bootstrap, per-tree seed) and fan out onto idle
        // pool workers via the subwork bridge. Slot-ordered collection
        // keeps the forest byte-identical to the serial loop at any
        // worker count.
        let mut rng = StdRng::seed_from_u64(seed);
        let boots: Vec<Vec<usize>> =
            (0..params.n_trees).map(|_| (0..n).map(|_| rng.random_range(0..n)).collect()).collect();
        let trees = cleanml_parallel::run_indexed(params.n_trees, |t| {
            let sample = data.select_rows(&boots[t]);
            let tree_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t as u64);
            DecisionTree::fit(&tree_params, &sample, tree_seed)
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        Ok(RandomForest { trees, n_features: d, n_classes: data.n_classes() })
    }

    /// Mean of per-tree leaf distributions (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let k = self.n_classes;
        let mut acc = vec![0.0; data.n_rows() * k];
        for tree in &self.trees {
            let p = tree.predict_proba(data)?;
            for (a, v) in acc.iter_mut().zip(&p) {
                *a += v;
            }
        }
        let scale = 1.0 / self.trees.len() as f64;
        acc.iter_mut().for_each(|a| *a *= scale);
        Ok(acc)
    }

    /// Most probable class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(crate::logistic::argmax_rows(&probs, self.n_classes))
    }

    /// Number of trees (diagnostics).
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl RandomForest {
    pub(crate) fn heap_bytes(&self) -> u64 {
        crate::model::vec_bytes(&self.trees)
            + self.trees.iter().map(DecisionTree::heap_bytes).sum::<u64>()
    }

    /// Appends every member tree to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::push_usize;
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        push_usize(out, self.trees.len());
        for tree in &self.trees {
            tree.encode_into(out);
        }
    }

    /// Reads a forest written by [`RandomForest::encode_into`].
    pub(crate) fn decode_from(
        parts: &mut cleanml_dataset::codec::Reader<'_>,
    ) -> Option<RandomForest> {
        use cleanml_dataset::codec::take_usize;
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let n_trees = take_usize(parts)?;
        if n_trees == 0 {
            return None;
        }
        let mut trees = Vec::with_capacity(n_trees.min(1 << 16));
        for _ in 0..n_trees {
            trees.push(DecisionTree::decode_from(parts)?);
        }
        Some(RandomForest { trees, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn two_moons_like(n: usize) -> FeatureMatrix {
        // Interleaved offset clusters; noisy but learnable by a forest.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let t = i as f64 / n as f64 * std::f64::consts::PI;
            let c = i % 2;
            let (x, y) = if c == 0 { (t.cos(), t.sin()) } else { (1.0 - t.cos(), 0.3 - t.sin()) };
            data.push(x + (i as f64 * 0.37).sin() * 0.05);
            data.push(y + (i as f64 * 0.73).cos() * 0.05);
            labels.push(c);
        }
        FeatureMatrix::from_parts(data, n, 2, labels, 2)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let data = two_moons_like(200);
        let forest = RandomForest::fit(&ForestParams::default(), &data, 1).unwrap();
        let preds = forest.predict(&data).unwrap();
        assert!(accuracy(data.labels(), &preds) > 0.9);
    }

    #[test]
    fn deterministic_by_seed() {
        let data = two_moons_like(100);
        let f1 = RandomForest::fit(&ForestParams::default(), &data, 9).unwrap();
        let f2 = RandomForest::fit(&ForestParams::default(), &data, 9).unwrap();
        assert_eq!(f1.predict(&data).unwrap(), f2.predict(&data).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let data = two_moons_like(60);
        let f1 = RandomForest::fit(&ForestParams::default(), &data, 1).unwrap();
        let f2 = RandomForest::fit(&ForestParams::default(), &data, 2).unwrap();
        let p1 = f1.predict_proba(&data).unwrap();
        let p2 = f2.predict_proba(&data).unwrap();
        assert!(p1 != p2, "bootstrap should vary with the seed");
    }

    #[test]
    fn nested_parallel_fit_is_byte_identical() {
        // The same fit through a real multi-thread subwork bridge must
        // reproduce the serial forest exactly — trees, structure, floats.
        let data = two_moons_like(120);
        let serial = RandomForest::fit(&ForestParams::default(), &data, 42).unwrap();
        cleanml_parallel::install_bridge(std::sync::Arc::new(cleanml_parallel::ThreadBridge {
            helpers: 3,
        }));
        let parallel = RandomForest::fit(&ForestParams::default(), &data, 42).unwrap();
        cleanml_parallel::clear_bridge();
        assert_eq!(serial, parallel);
        let mut a = Vec::new();
        let mut b = Vec::new();
        serial.encode_into(&mut a);
        parallel.encode_into(&mut b);
        assert_eq!(a, b, "encoded forests must be byte-identical");
    }

    #[test]
    fn probabilities_normalized() {
        let data = two_moons_like(80);
        let forest =
            RandomForest::fit(&ForestParams { n_trees: 10, ..Default::default() }, &data, 3)
                .unwrap();
        let probs = forest.predict_proba(&data).unwrap();
        for row in probs.chunks_exact(2) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_trees_rejected() {
        let data = two_moons_like(10);
        assert!(RandomForest::fit(&ForestParams { n_trees: 0, ..Default::default() }, &data, 0)
            .is_err());
    }

    #[test]
    fn n_trees_reported() {
        let data = two_moons_like(20);
        let f = RandomForest::fit(&ForestParams { n_trees: 7, ..Default::default() }, &data, 0)
            .unwrap();
        assert_eq!(f.n_trees(), 7);
    }
}
