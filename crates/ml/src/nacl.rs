//! NaCL-style missing-feature-robust logistic regression.
//!
//! The paper's §VII-B compares cleaning against NaCL (Khosravi et al.),
//! a specialized logistic regression that reasons about missing features at
//! prediction time instead of requiring imputation. We reproduce the
//! *observable behaviour* — an LR whose accuracy degrades gracefully as
//! features go missing — with the closest classical equivalent:
//!
//! 1. **Training:** feature dropout. Each epoch every feature of every
//!    sample is independently zeroed with probability `dropout` and the
//!    survivors rescaled by `1/(1-dropout)`, so the learned weights cannot
//!    rely on any single feature being present.
//! 2. **Prediction:** missing features (flagged by the encoder's missingness
//!    mask) contribute their training-set expectation — which is exactly 0
//!    in standardized feature space — i.e. the model marginalizes them out
//!    under an independence assumption, NaCL's expected-prediction view.
//!
//! The substitution is documented in `DESIGN.md` §4.

use cleanml_dataset::FeatureMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::MlError;
use crate::logistic::{argmax_rows, softmax};
use crate::Result;

/// Hyper-parameters for [`Nacl`].
#[derive(Debug, Clone, PartialEq)]
pub struct NaclParams {
    /// Per-feature dropout probability during training.
    pub dropout: f64,
    /// L2 penalty weight.
    pub l2: f64,
    /// Initial learning rate.
    pub lr: f64,
    /// Full-batch epochs.
    pub epochs: usize,
}

impl Default for NaclParams {
    fn default() -> Self {
        NaclParams { dropout: 0.25, l2: 1e-3, lr: 0.5, epochs: 120 }
    }
}

impl NaclParams {
    /// Samples hyper-parameters for random search.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        NaclParams {
            dropout: rng.random_range(0.1..0.4),
            l2: 10f64.powf(rng.random_range(-5.0..0.0)),
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(MlError::InvalidParam {
                param: "dropout",
                message: format!("{}", self.dropout),
            });
        }
        if self.l2.is_nan() || self.l2 < 0.0 {
            return Err(MlError::InvalidParam { param: "l2", message: format!("{}", self.l2) });
        }
        if self.epochs == 0 {
            return Err(MlError::InvalidParam { param: "epochs", message: "0".into() });
        }
        Ok(())
    }
}

/// A fitted dropout-robust logistic regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Nacl {
    weights: Vec<f64>,
    bias: Vec<f64>,
    n_features: usize,
    n_classes: usize,
}

impl Nacl {
    /// Trains with feature dropout.
    pub fn fit(params: &NaclParams, data: &FeatureMatrix, seed: u64) -> Result<Nacl> {
        params.validate()?;
        let n = data.n_rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let d = data.n_cols();
        let k = data.n_classes();
        let mut rng = StdRng::seed_from_u64(seed);
        let keep_scale = 1.0 / (1.0 - params.dropout);

        let mut weights = vec![0.0; k * d];
        let mut bias = vec![0.0; k];
        let mut probs = vec![0.0; k];
        let mut grad_w = vec![0.0; k * d];
        let mut grad_b = vec![0.0; k];
        let mut xd = vec![0.0; d];

        for epoch in 0..params.epochs {
            grad_w.iter_mut().for_each(|g| *g = 0.0);
            grad_b.iter_mut().for_each(|g| *g = 0.0);

            for i in 0..n {
                // Apply dropout mask for this (epoch, sample). The loop stays
                // row-outer with ascending features so the RNG stream is
                // consumed in exactly the same order as before the columnar
                // layout change.
                for (j, xdj) in xd.iter_mut().enumerate() {
                    *xdj = if rng.random::<f64>() < params.dropout {
                        0.0
                    } else {
                        data.at(i, j) * keep_scale
                    };
                }
                for c in 0..k {
                    let w = &weights[c * d..(c + 1) * d];
                    probs[c] = bias[c] + w.iter().zip(&xd).map(|(a, b)| a * b).sum::<f64>();
                }
                softmax(&mut probs);
                let y = data.labels()[i];
                for c in 0..k {
                    let err = probs[c] - if c == y { 1.0 } else { 0.0 };
                    let g = &mut grad_w[c * d..(c + 1) * d];
                    for (gj, xj) in g.iter_mut().zip(&xd) {
                        *gj += err * xj;
                    }
                    grad_b[c] += err;
                }
            }

            let lr = params.lr / (1.0 + epoch as f64 / 50.0);
            let scale = lr / n as f64;
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= scale * g + lr * params.l2 * *w;
            }
            for (b, g) in bias.iter_mut().zip(&grad_b) {
                *b -= scale * g;
            }
        }

        Ok(Nacl { weights, bias, n_features: d, n_classes: k })
    }

    /// Class probabilities; features flagged missing in the matrix are
    /// marginalized (contribute zero in standardized space).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let d = self.n_features;
        let k = self.n_classes;
        let mut out = vec![0.0; data.n_rows() * k];
        let mut x = vec![0.0; d];
        let mut miss = vec![false; d];
        for i in 0..data.n_rows() {
            data.read_row(i, &mut x);
            for (j, m) in miss.iter_mut().enumerate() {
                *m = data.missing_at(i, j);
            }
            let row = &mut out[i * k..(i + 1) * k];
            for (c, out_c) in row.iter_mut().enumerate() {
                let w = &self.weights[c * d..(c + 1) * d];
                let mut z = self.bias[c];
                for j in 0..d {
                    if !miss[j] {
                        z += w[j] * x[j];
                    }
                }
                *out_c = z;
            }
            softmax(row);
        }
        Ok(out)
    }

    /// Most probable class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(argmax_rows(&probs, self.n_classes))
    }
}

impl Nacl {
    pub(crate) fn heap_bytes(&self) -> u64 {
        crate::model::vec_bytes(&self.weights) + crate::model::vec_bytes(&self.bias)
    }

    /// Appends the fitted weights to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::push_usize;
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        crate::codec::push_f64_vec(out, &self.weights);
        crate::codec::push_f64_vec(out, &self.bias);
    }

    /// Reads a model written by [`Nacl::encode_into`].
    pub(crate) fn decode_from(parts: &mut cleanml_dataset::codec::Reader<'_>) -> Option<Nacl> {
        use cleanml_dataset::codec::take_usize;
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let weights = crate::codec::take_f64_vec(parts)?;
        let bias = crate::codec::take_f64_vec(parts)?;
        (weights.len() == n_classes.checked_mul(n_features)? && bias.len() == n_classes)
            .then_some(Nacl { weights, bias, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn redundant_blobs(n: usize) -> FeatureMatrix {
        // Four redundant informative features so the label stays predictable
        // when some go missing.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let base = if c == 0 { -1.0 } else { 1.0 };
            for f in 0..4 {
                let noise = ((i * (f + 3) * 29 % 101) as f64 / 101.0 - 0.5) * 0.6;
                data.push(base + noise);
            }
            labels.push(c);
        }
        FeatureMatrix::from_parts(data, n, 4, labels, 2)
    }

    #[test]
    fn learns_and_predicts() {
        let data = redundant_blobs(120);
        let model = Nacl::fit(&NaclParams::default(), &data, 3).unwrap();
        let preds = model.predict(&data).unwrap();
        assert!(accuracy(data.labels(), &preds) > 0.9);
    }

    #[test]
    fn probabilities_normalized() {
        let data = redundant_blobs(40);
        let model = Nacl::fit(&NaclParams { epochs: 10, ..Default::default() }, &data, 0).unwrap();
        for row in model.predict_proba(&data).unwrap().chunks_exact(2) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let data = redundant_blobs(30);
        let p = NaclParams { epochs: 5, ..Default::default() };
        let m1 = Nacl::fit(&p, &data, 5).unwrap();
        let m2 = Nacl::fit(&p, &data, 5).unwrap();
        assert_eq!(m1.predict_proba(&data).unwrap(), m2.predict_proba(&data).unwrap());
    }

    #[test]
    fn invalid_params_rejected() {
        let data = redundant_blobs(10);
        assert!(Nacl::fit(&NaclParams { dropout: 1.0, ..Default::default() }, &data, 0).is_err());
        assert!(Nacl::fit(&NaclParams { dropout: -0.1, ..Default::default() }, &data, 0).is_err());
        assert!(Nacl::fit(&NaclParams { l2: -1.0, ..Default::default() }, &data, 0).is_err());
        assert!(Nacl::fit(&NaclParams { epochs: 0, ..Default::default() }, &data, 0).is_err());
    }
}
