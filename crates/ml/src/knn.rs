//! Brute-force k-nearest-neighbours classification.
//!
//! KNN is the model the paper finds most sensitive to outliers (Table 12
//! Q3) because predictions depend directly on Euclidean distances, which a
//! single extreme value can dominate. The implementation is exact
//! brute-force search — CleanML datasets are small enough that an index
//! structure would only add noise to the comparison.

use cleanml_dataset::FeatureMatrix;
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::error::MlError;
use crate::Result;

/// Hyper-parameters for [`Knn`].
#[derive(Debug, Clone, PartialEq)]
pub struct KnnParams {
    /// Number of neighbours consulted.
    pub k: usize,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams { k: 5 }
    }
}

impl KnnParams {
    /// Samples hyper-parameters for random search (odd k, avoiding ties).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        KnnParams { k: *[3usize, 5, 7, 11, 15].choose(rng).expect("non-empty") }
    }
}

/// A fitted (memorized) KNN model.
#[derive(Debug, Clone, PartialEq)]
pub struct Knn {
    train: FeatureMatrix,
    k: usize,
}

impl Knn {
    /// Memorizes the training data.
    pub fn fit(params: &KnnParams, data: &FeatureMatrix) -> Result<Knn> {
        if params.k == 0 {
            return Err(MlError::InvalidParam { param: "k", message: "0".into() });
        }
        if data.n_rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        Ok(Knn { train: data.clone(), k: params.k.min(data.n_rows()) })
    }

    /// Vote fractions among the k nearest training rows (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.train.n_cols() {
            return Err(MlError::DimensionMismatch {
                expected: self.train.n_cols(),
                got: data.n_cols(),
            });
        }
        let n_train = self.train.n_rows();
        let classes = self.train.n_classes();
        let mut out = Vec::with_capacity(data.n_rows() * classes);

        // (distance², train index) scratch reused across queries, plus a
        // gather buffer for the query row (the train side is swept by
        // contiguous column stride; each d² accumulator still receives its
        // feature terms in ascending-`j` order).
        let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n_train);
        let mut q_row = vec![0.0; data.n_cols()];
        for q in 0..data.n_rows() {
            data.read_row(q, &mut q_row);
            dists.clear();
            dists.extend((0..n_train).map(|t| (0.0, t)));
            for (j, &a) in q_row.iter().enumerate() {
                let col = self.train.col(j);
                for (t, &b) in col.iter().enumerate() {
                    let d = a - b;
                    dists[t].0 += d * d;
                }
            }
            // Partial selection of the k smallest (ties broken by train index
            // for determinism).
            dists.select_nth_unstable_by(self.k - 1, |a, b| {
                a.0.partial_cmp(&b.0).expect("finite distances").then(a.1.cmp(&b.1))
            });
            let mut votes = vec![0.0; classes];
            for &(_, t) in &dists[..self.k] {
                votes[self.train.labels()[t]] += 1.0;
            }
            let total: f64 = votes.iter().sum();
            out.extend(votes.into_iter().map(|v| v / total));
        }
        Ok(out)
    }

    /// Majority vote per row (smallest class index wins ties via argmax
    /// scanning order).
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(crate::logistic::argmax_rows(&probs, self.train.n_classes()))
    }

    /// Effective k (clamped to the training size).
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Knn {
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.train.heap_bytes()
    }

    /// Appends the memorized training matrix and `k` to an artifact token
    /// stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        cleanml_dataset::codec::push_usize(out, self.k);
        self.train.encode_into(out);
    }

    /// Reads a model written by [`Knn::encode_into`].
    pub(crate) fn decode_from(parts: &mut cleanml_dataset::codec::Reader<'_>) -> Option<Knn> {
        let k = cleanml_dataset::codec::take_usize(parts)?;
        let train = FeatureMatrix::decode_from(parts)?;
        (k >= 1 && k <= train.n_rows()).then_some(Knn { train, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn clusters() -> FeatureMatrix {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let c = i % 2;
            let base = if c == 0 { 0.0 } else { 10.0 };
            data.push(base + (i as f64 % 5.0) * 0.1);
            data.push(base - (i as f64 % 3.0) * 0.1);
            labels.push(c);
        }
        FeatureMatrix::from_parts(data, 30, 2, labels, 2)
    }

    #[test]
    fn classifies_clusters() {
        let data = clusters();
        let knn = Knn::fit(&KnnParams { k: 3 }, &data).unwrap();
        let preds = knn.predict(&data).unwrap();
        assert_eq!(accuracy(data.labels(), &preds), 1.0);
    }

    #[test]
    fn k1_memorizes() {
        let data = clusters();
        let knn = Knn::fit(&KnnParams { k: 1 }, &data).unwrap();
        let preds = knn.predict(&data).unwrap();
        assert_eq!(preds, data.labels());
    }

    #[test]
    fn k_clamped_to_train_size() {
        let data = FeatureMatrix::from_parts(vec![0.0, 1.0], 2, 1, vec![0, 1], 2);
        let knn = Knn::fit(&KnnParams { k: 99 }, &data).unwrap();
        assert_eq!(knn.k(), 2);
        assert_eq!(knn.predict(&data).unwrap().len(), 2);
    }

    #[test]
    fn probabilities_are_vote_fractions() {
        // Query equidistant-ish to 2 zeros and 1 one with k=3.
        let data = FeatureMatrix::from_parts(vec![0.0, 0.1, 5.0], 3, 1, vec![0, 0, 1], 2);
        let knn = Knn::fit(&KnnParams { k: 3 }, &data).unwrap();
        let q = FeatureMatrix::from_parts(vec![0.05], 1, 1, vec![0], 2);
        let p = knn.predict_proba(&q).unwrap();
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn outlier_sensitivity() {
        // The behaviour the paper observes: one extreme training point can
        // flip nearby predictions under distance voting.
        let clean = FeatureMatrix::from_parts(
            vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0],
            6,
            1,
            vec![0, 0, 0, 1, 1, 1],
            2,
        );
        let dirty = FeatureMatrix::from_parts(
            vec![0.0, 1.0, 2.0, 3.2, 11.0, 12.0], // class-1 point dragged near class 0
            6,
            1,
            vec![0, 0, 0, 1, 1, 1],
            2,
        );
        let q = FeatureMatrix::from_parts(vec![3.0], 1, 1, vec![0], 2);
        let clean_knn = Knn::fit(&KnnParams { k: 1 }, &clean).unwrap();
        let dirty_knn = Knn::fit(&KnnParams { k: 1 }, &dirty).unwrap();
        assert_eq!(clean_knn.predict(&q).unwrap(), vec![0]);
        assert_eq!(dirty_knn.predict(&q).unwrap(), vec![1]);
    }

    #[test]
    fn errors() {
        let data = clusters();
        assert!(Knn::fit(&KnnParams { k: 0 }, &data).is_err());
        let empty = FeatureMatrix::from_parts(vec![], 0, 0, vec![], 2);
        assert!(Knn::fit(&KnnParams::default(), &empty).is_err());
        let knn = Knn::fit(&KnnParams::default(), &data).unwrap();
        let bad = FeatureMatrix::from_parts(vec![0.0; 3], 1, 3, vec![0], 2);
        assert!(knn.predict(&bad).is_err());
    }
}
