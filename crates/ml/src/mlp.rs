//! Multi-layer perceptron — the paper's deep-learning robust-ML baseline.
//!
//! §VII-B compares best-model-plus-best-cleaning against "a Multi-layer
//! Perceptron classifier (MLP) with three layers" tuned with optuna (hidden
//! layer size, learning rate, momentum). This module implements that model:
//! two ReLU hidden layers plus a softmax output, trained with mini-batch SGD
//! with momentum; the same random-search tuner used for the classical
//! models plays optuna's role.

use cleanml_dataset::FeatureMatrix;
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, SeedableRng};

use crate::error::MlError;
use crate::Result;

/// Hyper-parameters for [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpParams {
    /// First hidden layer width.
    pub hidden1: usize,
    /// Second hidden layer width.
    pub hidden2: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// SGD momentum coefficient.
    pub momentum: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams { hidden1: 32, hidden2: 16, lr: 0.05, momentum: 0.9, epochs: 60, batch_size: 32 }
    }
}

impl MlpParams {
    /// Samples hyper-parameters (the paper tunes hidden size, lr, momentum).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        MlpParams {
            hidden1: *[16usize, 32, 64].choose(rng).expect("non-empty"),
            hidden2: *[8usize, 16, 32].choose(rng).expect("non-empty"),
            lr: *[0.01f64, 0.05, 0.1].choose(rng).expect("non-empty"),
            momentum: *[0.5f64, 0.9].choose(rng).expect("non-empty"),
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if self.hidden1 == 0 || self.hidden2 == 0 {
            return Err(MlError::InvalidParam { param: "hidden", message: "0".into() });
        }
        if self.lr.is_nan() || self.lr <= 0.0 {
            return Err(MlError::InvalidParam { param: "lr", message: format!("{}", self.lr) });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(MlError::InvalidParam {
                param: "momentum",
                message: format!("{}", self.momentum),
            });
        }
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(MlError::InvalidParam { param: "epochs/batch_size", message: "0".into() });
        }
        Ok(())
    }
}

/// Dense layer parameters.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    /// `out × in` weights.
    w: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut StdRng) -> Layer {
        // He initialization for ReLU layers.
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_in * n_out).map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale).collect();
        Layer { w, b: vec![0.0; n_out], n_in, n_out }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            out.push(self.b[o] + row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>());
        }
    }
}

/// A fitted MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    l1: Layer,
    l2: Layer,
    l3: Layer,
    n_features: usize,
    n_classes: usize,
}

fn relu_inplace(xs: &mut [f64]) {
    for x in xs {
        if *x < 0.0 {
            *x = 0.0;
        }
    }
}

impl Mlp {
    /// Trains with mini-batch SGD + momentum on softmax cross-entropy.
    pub fn fit(params: &MlpParams, data: &FeatureMatrix, seed: u64) -> Result<Mlp> {
        params.validate()?;
        let n = data.n_rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let d = data.n_cols();
        let k = data.n_classes();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut l1 = Layer::new(d, params.hidden1, &mut rng);
        let mut l2 = Layer::new(params.hidden1, params.hidden2, &mut rng);
        let mut l3 = Layer::new(params.hidden2, k, &mut rng);

        // Momentum buffers.
        let mut v1w = vec![0.0; l1.w.len()];
        let mut v1b = vec![0.0; l1.b.len()];
        let mut v2w = vec![0.0; l2.w.len()];
        let mut v2b = vec![0.0; l2.b.len()];
        let mut v3w = vec![0.0; l3.w.len()];
        let mut v3b = vec![0.0; l3.b.len()];

        let mut order: Vec<usize> = (0..n).collect();
        let mut h1 = Vec::new();
        let mut h2 = Vec::new();
        let mut logits = Vec::new();

        // Preallocated scratch, zeroed in place instead of reallocated per
        // batch / per sample.
        let mut x = vec![0.0; d];
        let mut delta1 = vec![0.0; l1.n_out];
        let mut delta2 = vec![0.0; l2.n_out];
        let mut g1w = vec![0.0; l1.w.len()];
        let mut g1b = vec![0.0; l1.b.len()];
        let mut g2w = vec![0.0; l2.w.len()];
        let mut g2b = vec![0.0; l2.b.len()];
        let mut g3w = vec![0.0; l3.w.len()];
        let mut g3b = vec![0.0; l3.b.len()];

        for _epoch in 0..params.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(params.batch_size) {
                // Accumulate gradients over the batch.
                g1w.iter_mut().for_each(|g| *g = 0.0);
                g1b.iter_mut().for_each(|g| *g = 0.0);
                g2w.iter_mut().for_each(|g| *g = 0.0);
                g2b.iter_mut().for_each(|g| *g = 0.0);
                g3w.iter_mut().for_each(|g| *g = 0.0);
                g3b.iter_mut().for_each(|g| *g = 0.0);

                for &i in batch {
                    data.read_row(i, &mut x);
                    l1.forward(&x, &mut h1);
                    relu_inplace(&mut h1);
                    l2.forward(&h1, &mut h2);
                    relu_inplace(&mut h2);
                    l3.forward(&h2, &mut logits);
                    crate::logistic::softmax(&mut logits);

                    // delta3 = probs - onehot(y)
                    let y = data.labels()[i];
                    logits[y] -= 1.0;

                    // layer 3 grads + delta2
                    delta2.iter_mut().for_each(|d| *d = 0.0);
                    for o in 0..l3.n_out {
                        let dl = logits[o];
                        g3b[o] += dl;
                        let wrow = &l3.w[o * l3.n_in..(o + 1) * l3.n_in];
                        let grow = &mut g3w[o * l3.n_in..(o + 1) * l3.n_in];
                        for j in 0..l3.n_in {
                            grow[j] += dl * h2[j];
                            delta2[j] += dl * wrow[j];
                        }
                    }
                    for (dj, hj) in delta2.iter_mut().zip(&h2) {
                        if *hj <= 0.0 {
                            *dj = 0.0; // ReLU gate
                        }
                    }

                    // layer 2 grads + delta1
                    delta1.iter_mut().for_each(|d| *d = 0.0);
                    for o in 0..l2.n_out {
                        let dl = delta2[o];
                        g2b[o] += dl;
                        let wrow = &l2.w[o * l2.n_in..(o + 1) * l2.n_in];
                        let grow = &mut g2w[o * l2.n_in..(o + 1) * l2.n_in];
                        for j in 0..l2.n_in {
                            grow[j] += dl * h1[j];
                            delta1[j] += dl * wrow[j];
                        }
                    }
                    for (dj, hj) in delta1.iter_mut().zip(&h1) {
                        if *hj <= 0.0 {
                            *dj = 0.0;
                        }
                    }

                    // layer 1 grads
                    for o in 0..l1.n_out {
                        let dl = delta1[o];
                        g1b[o] += dl;
                        let grow = &mut g1w[o * l1.n_in..(o + 1) * l1.n_in];
                        for j in 0..l1.n_in {
                            grow[j] += dl * x[j];
                        }
                    }
                }

                let scale = params.lr / batch.len() as f64;
                let step = |w: &mut [f64], v: &mut [f64], g: &[f64]| {
                    for ((wi, vi), gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                        *vi = params.momentum * *vi - scale * gi;
                        *wi += *vi;
                    }
                };
                step(&mut l1.w, &mut v1w, &g1w);
                step(&mut l1.b, &mut v1b, &g1b);
                step(&mut l2.w, &mut v2w, &g2w);
                step(&mut l2.b, &mut v2b, &g2b);
                step(&mut l3.w, &mut v3w, &g3w);
                step(&mut l3.b, &mut v3b, &g3b);
            }
        }

        Ok(Mlp { l1, l2, l3, n_features: d, n_classes: k })
    }

    /// Softmax class probabilities (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let mut h1 = Vec::new();
        let mut h2 = Vec::new();
        let mut logits = Vec::new();
        let mut x = vec![0.0; self.n_features];
        let mut out = Vec::with_capacity(data.n_rows() * self.n_classes);
        for i in 0..data.n_rows() {
            data.read_row(i, &mut x);
            self.l1.forward(&x, &mut h1);
            relu_inplace(&mut h1);
            self.l2.forward(&h1, &mut h2);
            relu_inplace(&mut h2);
            self.l3.forward(&h2, &mut logits);
            crate::logistic::softmax(&mut logits);
            out.extend_from_slice(&logits);
        }
        Ok(out)
    }

    /// Most probable class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(crate::logistic::argmax_rows(&probs, self.n_classes))
    }
}

impl Layer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::push_usize;
        push_usize(out, self.n_in);
        push_usize(out, self.n_out);
        crate::codec::push_f64_vec(out, &self.w);
        crate::codec::push_f64_vec(out, &self.b);
    }

    fn decode_from(parts: &mut cleanml_dataset::codec::Reader<'_>) -> Option<Layer> {
        use cleanml_dataset::codec::take_usize;
        let n_in = take_usize(parts)?;
        let n_out = take_usize(parts)?;
        let w = crate::codec::take_f64_vec(parts)?;
        let b = crate::codec::take_f64_vec(parts)?;
        (w.len() == n_in.checked_mul(n_out)? && b.len() == n_out).then_some(Layer {
            w,
            b,
            n_in,
            n_out,
        })
    }
}

impl Mlp {
    pub(crate) fn heap_bytes(&self) -> u64 {
        [&self.l1, &self.l2, &self.l3]
            .iter()
            .map(|l| crate::model::vec_bytes(&l.w) + crate::model::vec_bytes(&l.b))
            .sum()
    }

    /// Appends the three dense layers to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::push_usize;
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        self.l1.encode_into(out);
        self.l2.encode_into(out);
        self.l3.encode_into(out);
    }

    /// Reads a network written by [`Mlp::encode_into`].
    pub(crate) fn decode_from(parts: &mut cleanml_dataset::codec::Reader<'_>) -> Option<Mlp> {
        use cleanml_dataset::codec::take_usize;
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let l1 = Layer::decode_from(parts)?;
        let l2 = Layer::decode_from(parts)?;
        let l3 = Layer::decode_from(parts)?;
        (l1.n_in == n_features
            && l2.n_in == l1.n_out
            && l3.n_in == l2.n_out
            && l3.n_out == n_classes)
            .then_some(Mlp { l1, l2, l3, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn xor_blobs(n: usize) -> FeatureMatrix {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let qa = (i / 2) % 2;
            let qb = i % 2;
            let jitter = ((i * 53 % 97) as f64 / 97.0 - 0.5) * 0.4;
            data.push(qa as f64 * 2.0 - 1.0 + jitter);
            data.push(qb as f64 * 2.0 - 1.0 - jitter);
            labels.push(qa ^ qb);
        }
        FeatureMatrix::from_parts(data, n, 2, labels, 2)
    }

    #[test]
    fn learns_xor() {
        let data = xor_blobs(200);
        let mlp = Mlp::fit(&MlpParams::default(), &data, 7).unwrap();
        let preds = mlp.predict(&data).unwrap();
        assert!(accuracy(data.labels(), &preds) > 0.9, "acc too low");
    }

    #[test]
    fn probabilities_normalized() {
        let data = xor_blobs(50);
        let mlp = Mlp::fit(&MlpParams { epochs: 5, ..Default::default() }, &data, 0).unwrap();
        for row in mlp.predict_proba(&data).unwrap().chunks_exact(2) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(row.iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let data = xor_blobs(40);
        let p = MlpParams { epochs: 3, ..Default::default() };
        let m1 = Mlp::fit(&p, &data, 11).unwrap();
        let m2 = Mlp::fit(&p, &data, 11).unwrap();
        assert_eq!(m1.predict_proba(&data).unwrap(), m2.predict_proba(&data).unwrap());
    }

    #[test]
    fn invalid_params_rejected() {
        let data = xor_blobs(10);
        assert!(Mlp::fit(&MlpParams { hidden1: 0, ..Default::default() }, &data, 0).is_err());
        assert!(Mlp::fit(&MlpParams { lr: 0.0, ..Default::default() }, &data, 0).is_err());
        assert!(Mlp::fit(&MlpParams { momentum: 1.5, ..Default::default() }, &data, 0).is_err());
        assert!(Mlp::fit(&MlpParams { epochs: 0, ..Default::default() }, &data, 0).is_err());
    }
}
