//! Gaussian Naive Bayes with variance smoothing.
//!
//! Mirrors scikit-learn's `GaussianNB`: per-class feature means/variances
//! plus `var_smoothing` times the largest feature variance added to every
//! variance for numerical stability (one-hot encoded categoricals are
//! handled through the same Gaussian likelihood, exactly as when feeding
//! one-hot matrices to `GaussianNB`).

use cleanml_dataset::FeatureMatrix;
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::error::MlError;
use crate::Result;

/// Hyper-parameters for [`GaussianNb`].
#[derive(Debug, Clone, PartialEq)]
pub struct NbParams {
    /// Fraction of the largest feature variance added to all variances.
    pub var_smoothing: f64,
}

impl Default for NbParams {
    fn default() -> Self {
        NbParams { var_smoothing: 1e-9 }
    }
}

impl NbParams {
    /// Samples hyper-parameters for random search.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        NbParams { var_smoothing: *[1e-9, 1e-7, 1e-5].choose(rng).expect("non-empty") }
    }
}

/// A fitted Gaussian Naive Bayes model.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianNb {
    /// `k × d` means.
    means: Vec<f64>,
    /// `k × d` smoothed variances.
    vars: Vec<f64>,
    /// Log class priors.
    log_priors: Vec<f64>,
    n_features: usize,
    n_classes: usize,
}

impl GaussianNb {
    /// Estimates per-class Gaussians.
    pub fn fit(params: &NbParams, data: &FeatureMatrix) -> Result<GaussianNb> {
        if params.var_smoothing.is_nan() || params.var_smoothing < 0.0 {
            return Err(MlError::InvalidParam {
                param: "var_smoothing",
                message: format!("{}", params.var_smoothing),
            });
        }
        let n = data.n_rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let d = data.n_cols();
        let k = data.n_classes();

        let mut counts = vec![0usize; k];
        for &c in data.labels() {
            counts[c] += 1;
        }
        // Column-outer sweeps: each per-(class, feature) accumulator still
        // receives its examples in ascending-row order, so the sums are
        // term-for-term identical to a row-major pass.
        let mut means = vec![0.0; k * d];
        for j in 0..d {
            let col = data.col(j);
            for (i, &x) in col.iter().enumerate() {
                means[data.labels()[i] * d + j] += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                means[c * d..(c + 1) * d].iter_mut().for_each(|m| *m *= inv);
            }
        }

        let mut vars = vec![0.0; k * d];
        for j in 0..d {
            let col = data.col(j);
            for (i, &x) in col.iter().enumerate() {
                let c = data.labels()[i];
                let dev = x - means[c * d + j];
                vars[c * d + j] += dev * dev;
            }
        }
        let mut max_var = 0.0f64;
        for c in 0..k {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                for vj in vars[c * d..(c + 1) * d].iter_mut() {
                    *vj *= inv;
                    max_var = max_var.max(*vj);
                }
            }
        }
        let eps = params.var_smoothing * max_var.max(1e-12);
        vars.iter_mut().for_each(|v| *v += eps.max(1e-12));

        // Laplace-smoothed priors so classes absent from a fold keep a
        // (vanishing) probability instead of -inf.
        let log_priors: Vec<f64> = counts
            .iter()
            .map(|&c| ((c as f64 + 1e-10) / (n as f64 + 1e-10 * k as f64)).ln())
            .collect();

        Ok(GaussianNb { means, vars, log_priors, n_features: d, n_classes: k })
    }

    /// Posterior class probabilities (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let d = self.n_features;
        let k = self.n_classes;
        let ln_2pi = (2.0 * std::f64::consts::PI).ln();
        let mut out = vec![0.0; data.n_rows() * k];
        let mut x = vec![0.0; d];
        for i in 0..data.n_rows() {
            data.read_row(i, &mut x);
            let row = &mut out[i * k..(i + 1) * k];
            for (c, out_c) in row.iter_mut().enumerate() {
                let m = &self.means[c * d..(c + 1) * d];
                let v = &self.vars[c * d..(c + 1) * d];
                let mut ll = self.log_priors[c];
                for ((xj, mj), vj) in x.iter().zip(m).zip(v) {
                    let dev = xj - mj;
                    ll += -0.5 * (ln_2pi + vj.ln() + dev * dev / vj);
                }
                *out_c = ll;
            }
            crate::logistic::softmax(row);
        }
        Ok(out)
    }

    /// Most probable class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(crate::logistic::argmax_rows(&probs, self.n_classes))
    }
}

impl GaussianNb {
    pub(crate) fn heap_bytes(&self) -> u64 {
        crate::model::vec_bytes(&self.means)
            + crate::model::vec_bytes(&self.vars)
            + crate::model::vec_bytes(&self.log_priors)
    }

    /// Appends the per-class Gaussians to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::push_usize;
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        crate::codec::push_f64_vec(out, &self.means);
        crate::codec::push_f64_vec(out, &self.vars);
        crate::codec::push_f64_vec(out, &self.log_priors);
    }

    /// Reads a model written by [`GaussianNb::encode_into`].
    pub(crate) fn decode_from(
        parts: &mut cleanml_dataset::codec::Reader<'_>,
    ) -> Option<GaussianNb> {
        use cleanml_dataset::codec::take_usize;
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let means = crate::codec::take_f64_vec(parts)?;
        let vars = crate::codec::take_f64_vec(parts)?;
        let log_priors = crate::codec::take_f64_vec(parts)?;
        let cells = n_classes.checked_mul(n_features)?;
        (means.len() == cells && vars.len() == cells && log_priors.len() == n_classes)
            .then_some(GaussianNb { means, vars, log_priors, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn gaussians() -> FeatureMatrix {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let c = i % 2;
            let base = if c == 0 { -2.0 } else { 2.0 };
            let noise = ((i * 37 % 100) as f64 / 100.0 - 0.5) * 0.8;
            data.push(base + noise);
            data.push(base - noise * 0.5);
            labels.push(c);
        }
        FeatureMatrix::from_parts(data, 60, 2, labels, 2)
    }

    #[test]
    fn separates_gaussian_classes() {
        let data = gaussians();
        let nb = GaussianNb::fit(&NbParams::default(), &data).unwrap();
        let preds = nb.predict(&data).unwrap();
        assert!(accuracy(data.labels(), &preds) > 0.95);
    }

    #[test]
    fn probabilities_normalized() {
        let data = gaussians();
        let nb = GaussianNb::fit(&NbParams::default(), &data).unwrap();
        for row in nb.predict_proba(&data).unwrap().chunks_exact(2) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_variance_feature_tolerated() {
        // Constant feature must not divide by zero.
        let data = FeatureMatrix::from_parts(
            vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            4,
            2,
            vec![0, 0, 1, 1],
            2,
        );
        let nb = GaussianNb::fit(&NbParams::default(), &data).unwrap();
        let preds = nb.predict(&data).unwrap();
        assert_eq!(preds.len(), 4);
        assert!(nb.predict_proba(&data).unwrap().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn priors_influence_prediction() {
        // Overlapping identical likelihoods -> prior decides.
        let data = FeatureMatrix::from_parts(
            vec![0.0, 0.0, 0.1, -0.1, 0.05],
            5,
            1,
            vec![0, 0, 0, 0, 1],
            2,
        );
        let nb = GaussianNb::fit(&NbParams { var_smoothing: 1.0 }, &data).unwrap();
        let q = FeatureMatrix::from_parts(vec![0.0], 1, 1, vec![0], 2);
        assert_eq!(nb.predict(&q).unwrap(), vec![0]); // majority prior wins
    }

    #[test]
    fn invalid_smoothing_rejected() {
        let data = gaussians();
        assert!(GaussianNb::fit(&NbParams { var_smoothing: -0.1 }, &data).is_err());
    }
}
