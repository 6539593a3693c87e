//! Gradient-boosted decision trees with the XGBoost training objective.
//!
//! Stands in for the paper's XGBoost model: per round, one regression tree
//! per class is fit to the first/second-order gradients of the softmax
//! cross-entropy, splits maximize the regularized structure gain
//! `½·[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`, and leaf weights are
//! the Newton step `−G/(H+λ)` scaled by the learning rate η — the core of
//! Chen & Guestrin's algorithm (KDD'16), minus the systems-level features
//! (histogram sketches, sparsity-aware splits) that don't change accuracy on
//! CleanML-sized data.

use cleanml_dataset::FeatureMatrix;
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::error::MlError;
use crate::Result;

/// Hyper-parameters for [`Gbdt`].
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtParams {
    /// Boosting rounds (each fits `n_classes` trees).
    pub n_rounds: usize,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// Learning rate η.
    pub eta: f64,
    /// L2 leaf regularization λ.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian sum per child (`min_child_weight`).
    pub min_child_weight: f64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 40,
            max_depth: 3,
            eta: 0.3,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1e-3,
        }
    }
}

impl GbdtParams {
    /// Samples hyper-parameters for random search (the usual XGBoost sweep).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        GbdtParams {
            n_rounds: *[20usize, 40, 80].choose(rng).expect("non-empty"),
            max_depth: *[2usize, 3, 4, 6].choose(rng).expect("non-empty"),
            eta: *[0.1f64, 0.3, 0.5].choose(rng).expect("non-empty"),
            lambda: *[0.5f64, 1.0, 2.0].choose(rng).expect("non-empty"),
            gamma: *[0.0f64, 0.1].choose(rng).expect("non-empty"),
            min_child_weight: 1e-3,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.n_rounds == 0 {
            return Err(MlError::InvalidParam { param: "n_rounds", message: "0".into() });
        }
        if self.eta.is_nan() || self.eta <= 0.0 {
            return Err(MlError::InvalidParam { param: "eta", message: format!("{}", self.eta) });
        }
        if self.lambda.is_nan() || self.lambda < 0.0 {
            return Err(MlError::InvalidParam {
                param: "lambda",
                message: format!("{}", self.lambda),
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum RNode {
    Leaf(f64),
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// One regression tree over gradient statistics.
#[derive(Debug, Clone, PartialEq)]
struct RegTree {
    nodes: Vec<RNode>,
}

impl RegTree {
    /// Walks example `i` of a columnar matrix to its leaf weight.
    fn predict_row(&self, data: &FeatureMatrix, i: usize) -> f64 {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                RNode::Leaf(w) => return *w,
                RNode::Split { feature, threshold, left, right } => {
                    at = if data.at(i, *feature) <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct Gbdt {
    /// `rounds × classes` trees.
    trees: Vec<Vec<RegTree>>,
    eta: f64,
    n_features: usize,
    n_classes: usize,
}

struct GradCtx<'a> {
    data: &'a FeatureMatrix,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a GbdtParams,
}

impl Gbdt {
    /// Trains the boosted ensemble on softmax cross-entropy.
    pub fn fit(params: &GbdtParams, data: &FeatureMatrix, _seed: u64) -> Result<Gbdt> {
        params.validate()?;
        let n = data.n_rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        let k = data.n_classes();
        let mut scores = vec![0.0; n * k];
        let mut trees: Vec<Vec<RegTree>> = Vec::with_capacity(params.n_rounds);

        let mut probs = vec![0.0; k];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];

        for _round in 0..params.n_rounds {
            let mut round_trees = Vec::with_capacity(k);
            // Gradients computed from the *current* scores for every class.
            let mut all_probs = vec![0.0; n * k];
            for i in 0..n {
                probs.copy_from_slice(&scores[i * k..(i + 1) * k]);
                crate::logistic::softmax(&mut probs);
                all_probs[i * k..(i + 1) * k].copy_from_slice(&probs);
            }
            for c in 0..k {
                for i in 0..n {
                    let p = all_probs[i * k + c];
                    let y = if data.labels()[i] == c { 1.0 } else { 0.0 };
                    grad[i] = p - y;
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                }
                let ctx = GradCtx { data, grad: &grad, hess: &hess, params };
                let mut nodes = Vec::new();
                let rows: Vec<u32> = (0..n as u32).collect();
                // The chained sidecar is built once per matrix and reused by
                // every tree of every round; each node inherits
                // order-preserving partitions instead of re-sorting.
                let lists: Vec<Vec<u32>> = data.sorted_cols_chained().iter().cloned().collect();
                build_reg_node(&ctx, &mut nodes, rows, lists, 0);
                let tree = RegTree { nodes };
                for i in 0..n {
                    scores[i * k + c] += params.eta * tree.predict_row(data, i);
                }
                round_trees.push(tree);
            }
            trees.push(round_trees);
        }

        Ok(Gbdt { trees, eta: params.eta, n_features: data.n_cols(), n_classes: k })
    }

    /// Softmax class probabilities (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let k = self.n_classes;
        let mut out = vec![0.0; data.n_rows() * k];
        for i in 0..data.n_rows() {
            let row = &mut out[i * k..(i + 1) * k];
            for round in &self.trees {
                for (c, tree) in round.iter().enumerate() {
                    row[c] += self.eta * tree.predict_row(data, i);
                }
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

    /// Number of boosting rounds stored.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }
}

/// Structure score `G²/(H+λ)` of a candidate node.
fn score(g: f64, h: f64, lambda: f64) -> f64 {
    g * g / (h + lambda)
}

/// Recursively builds the regression subtree for `rows` (ascending-index
/// membership); `lists[f]` is the same membership in the chained sort order
/// of [`FeatureMatrix::sorted_cols_chained`], which reproduces the
/// pre-columnar kernel's per-node cascading stable sorts bit-for-bit.
fn build_reg_node(
    ctx: &GradCtx<'_>,
    nodes: &mut Vec<RNode>,
    rows: Vec<u32>,
    lists: Vec<Vec<u32>>,
    depth: usize,
) -> usize {
    let g_total: f64 = rows.iter().map(|&r| ctx.grad[r as usize]).sum();
    let h_total: f64 = rows.iter().map(|&r| ctx.hess[r as usize]).sum();
    let lambda = ctx.params.lambda;

    let leaf_weight = -g_total / (h_total + lambda);
    if depth >= ctx.params.max_depth || rows.len() < 2 {
        let idx = nodes.len();
        nodes.push(RNode::Leaf(leaf_weight));
        return idx;
    }

    // Best split by structure gain: one contiguous sweep per feature over
    // the pre-sorted candidate list. Each feature's sweep is a pure
    // function of (order, grad, hess), so wide nodes fan the per-feature
    // sweeps onto idle pool workers; the reduction walks features in
    // ascending order with the same strictly-greater comparison as the
    // serial loop, so the chosen split (first feature, first threshold to
    // reach the maximum) is bit-identical at any worker count.
    let d = ctx.data.n_cols();
    let parent_score = score(g_total, h_total, lambda);
    let gain_floor = ctx.params.gamma.max(1e-12);
    let sweep_feature = |f: usize| -> Option<(f64, f64)> {
        let order = &lists[f];
        let col = ctx.data.col(f);
        let mut fbest: Option<(f64, f64)> = None;
        let mut fbest_gain = gain_floor;
        let mut gl = 0.0;
        let mut hl = 0.0;
        for w in 0..order.len() - 1 {
            let r = order[w] as usize;
            gl += ctx.grad[r];
            hl += ctx.hess[r];
            let v_here = col[r];
            let v_next = col[order[w + 1] as usize];
            if v_next <= v_here {
                continue;
            }
            let gr = g_total - gl;
            let hr = h_total - hl;
            if hl < ctx.params.min_child_weight || hr < ctx.params.min_child_weight {
                continue;
            }
            let gain = 0.5 * (score(gl, hl, lambda) + score(gr, hr, lambda) - parent_score);
            if gain > fbest_gain {
                fbest_gain = gain;
                fbest = Some((gain, 0.5 * (v_here + v_next)));
            }
        }
        fbest
    };

    // Fanning out only pays above a work floor; below it the serial sweep
    // wins (and both produce identical results by construction).
    const PAR_MIN_CELLS: usize = 1 << 14;
    let candidates: Vec<Option<(f64, f64)>> = if rows.len().saturating_mul(d) >= PAR_MIN_CELLS {
        cleanml_parallel::run_indexed(d, sweep_feature)
    } else {
        (0..d).map(sweep_feature).collect()
    };
    let mut best: Option<(usize, f64)> = None;
    let mut best_gain = gain_floor;
    for (f, cand) in candidates.into_iter().enumerate() {
        if let Some((gain, split)) = cand {
            if gain > best_gain {
                best_gain = gain;
                best = Some((f, split));
            }
        }
    }

    let Some((feature, threshold)) = best else {
        let idx = nodes.len();
        nodes.push(RNode::Leaf(leaf_weight));
        return idx;
    };

    // Order-stable partitions keep both membership orders in the children.
    let goes_left = |r: u32| ctx.data.at(r as usize, feature) <= threshold;
    let (left_rows, right_rows): (Vec<u32>, Vec<u32>) =
        rows.into_iter().partition(|&r| goes_left(r));
    let mut left_lists = Vec::with_capacity(lists.len());
    let mut right_lists = Vec::with_capacity(lists.len());
    for list in lists {
        let (l, r): (Vec<u32>, Vec<u32>) = list.into_iter().partition(|&r| goes_left(r));
        left_lists.push(l);
        right_lists.push(r);
    }

    let idx = nodes.len();
    nodes.push(RNode::Leaf(0.0)); // placeholder
    let left = build_reg_node(ctx, nodes, left_rows, left_lists, depth + 1);
    let right = build_reg_node(ctx, nodes, right_rows, right_lists, depth + 1);
    nodes[idx] = RNode::Split { feature, threshold, left, right };
    idx
}

impl RegTree {
    fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::{push_f64, push_tag, push_usize};
        push_usize(out, self.nodes.len());
        for node in &self.nodes {
            match node {
                RNode::Leaf(w) => {
                    push_tag(out, b'L');
                    push_f64(out, *w);
                }
                RNode::Split { feature, threshold, left, right } => {
                    push_tag(out, b'S');
                    push_usize(out, *feature);
                    push_f64(out, *threshold);
                    push_usize(out, *left);
                    push_usize(out, *right);
                }
            }
        }
    }

    fn decode_from(
        parts: &mut cleanml_dataset::codec::Reader<'_>,
        n_features: usize,
    ) -> Option<RegTree> {
        use cleanml_dataset::codec::{take_f64, take_usize};
        let n_nodes = take_usize(parts)?;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 20));
        for i in 0..n_nodes {
            let node = match cleanml_dataset::codec::take_tag(parts)? {
                b'L' => RNode::Leaf(take_f64(parts)?),
                b'S' => {
                    let feature = take_usize(parts)?;
                    let threshold = take_f64(parts)?;
                    let left = take_usize(parts)?;
                    let right = take_usize(parts)?;
                    // forward-only children: no out-of-bounds, no cycles
                    if feature >= n_features
                        || left <= i
                        || right <= i
                        || left >= n_nodes
                        || right >= n_nodes
                    {
                        return None;
                    }
                    RNode::Split { feature, threshold, left, right }
                }
                _ => return None,
            };
            nodes.push(node);
        }
        if nodes.is_empty() {
            return None;
        }
        Some(RegTree { nodes })
    }
}

impl Gbdt {
    pub(crate) fn heap_bytes(&self) -> u64 {
        let round = |r: &Vec<RegTree>| {
            crate::model::vec_bytes(r)
                + r.iter().map(|t| crate::model::vec_bytes(&t.nodes)).sum::<u64>()
        };
        crate::model::vec_bytes(&self.trees) + self.trees.iter().map(round).sum::<u64>()
    }

    /// Appends the boosted ensemble to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::{push_f64, push_usize};
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        push_f64(out, self.eta);
        push_usize(out, self.trees.len());
        for round in &self.trees {
            push_usize(out, round.len());
            for tree in round {
                tree.encode_into(out);
            }
        }
    }

    /// Reads an ensemble written by [`Gbdt::encode_into`].
    pub(crate) fn decode_from(parts: &mut cleanml_dataset::codec::Reader<'_>) -> Option<Gbdt> {
        use cleanml_dataset::codec::{take_f64, take_usize};
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let eta = take_f64(parts)?;
        let n_rounds = take_usize(parts)?;
        let mut trees = Vec::with_capacity(n_rounds.min(1 << 16));
        for _ in 0..n_rounds {
            let width = take_usize(parts)?;
            if width != n_classes {
                return None;
            }
            let mut round = Vec::with_capacity(width);
            for _ in 0..width {
                round.push(RegTree::decode_from(parts, n_features)?);
            }
            trees.push(round);
        }
        Some(Gbdt { trees, eta, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn ring_data(n: usize) -> FeatureMatrix {
        // class 1 inside a radius, class 0 outside: needs depth >= 2 trees.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            let r = if i % 2 == 0 { 0.5 } else { 2.0 };
            data.push(r * a.cos());
            data.push(r * a.sin());
            labels.push(usize::from(i % 2 == 0));
        }
        FeatureMatrix::from_parts(data, n, 2, labels, 2)
    }

    #[test]
    fn learns_ring() {
        let data = ring_data(200);
        let model = Gbdt::fit(&GbdtParams::default(), &data, 0).unwrap();
        let preds = model.predict(&data).unwrap();
        assert!(accuracy(data.labels(), &preds) > 0.95);
    }

    #[test]
    fn more_rounds_fit_tighter() {
        let data = ring_data(150);
        let short = Gbdt::fit(&GbdtParams { n_rounds: 1, ..Default::default() }, &data, 0).unwrap();
        let long = Gbdt::fit(&GbdtParams { n_rounds: 40, ..Default::default() }, &data, 0).unwrap();
        let a_short = accuracy(data.labels(), &short.predict(&data).unwrap());
        let a_long = accuracy(data.labels(), &long.predict(&data).unwrap());
        assert!(a_long >= a_short);
    }

    #[test]
    fn nested_parallel_split_search_is_byte_identical() {
        // Wide enough that the root node crosses the parallel work floor
        // (rows × cols ≥ 2^14), so the bridge path actually runs; the
        // fitted model must still equal the serial one bit for bit.
        let n = 3000;
        let d = 6;
        let mut data = Vec::with_capacity(n * d);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            for f in 0..d {
                data.push(((i * (f + 3)) as f64 * 0.137).sin());
            }
            labels.push(i % 2);
        }
        let m = FeatureMatrix::from_parts(data, n, d, labels, 2);
        let params = GbdtParams { n_rounds: 2, max_depth: 3, ..Default::default() };
        let serial = Gbdt::fit(&params, &m, 0).unwrap();
        cleanml_parallel::install_bridge(std::sync::Arc::new(cleanml_parallel::ThreadBridge {
            helpers: 3,
        }));
        let parallel = Gbdt::fit(&params, &m, 0).unwrap();
        cleanml_parallel::clear_bridge();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn multiclass_softmax() {
        // three clusters on a line
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..90 {
            let c = i % 3;
            data.push(c as f64 * 5.0 + (i as f64 * 0.11) % 1.0);
            labels.push(c);
        }
        let m = FeatureMatrix::from_parts(data, 90, 1, labels, 3);
        let model = Gbdt::fit(&GbdtParams::default(), &m, 0).unwrap();
        let preds = model.predict(&m).unwrap();
        assert!(accuracy(m.labels(), &preds) > 0.95);
        for row in model.predict_proba(&m).unwrap().chunks_exact(3) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn regularization_shrinks_leaves() {
        let data = ring_data(100);
        let loose =
            Gbdt::fit(&GbdtParams { lambda: 0.0, n_rounds: 5, ..Default::default() }, &data, 0)
                .unwrap();
        let tight =
            Gbdt::fit(&GbdtParams { lambda: 50.0, n_rounds: 5, ..Default::default() }, &data, 0)
                .unwrap();
        // With huge lambda the raw scores stay near zero -> probabilities near 0.5.
        let p_loose = loose.predict_proba(&data).unwrap();
        let p_tight = tight.predict_proba(&data).unwrap();
        let spread = |p: &[f64]| p.iter().map(|x| (x - 0.5).abs()).sum::<f64>();
        assert!(spread(&p_tight) < spread(&p_loose));
    }

    #[test]
    fn gamma_prunes_splits() {
        let data = ring_data(100);
        let no_gamma =
            Gbdt::fit(&GbdtParams { gamma: 0.0, n_rounds: 3, ..Default::default() }, &data, 0)
                .unwrap();
        let big_gamma =
            Gbdt::fit(&GbdtParams { gamma: 1e9, n_rounds: 3, ..Default::default() }, &data, 0)
                .unwrap();
        let count = |m: &Gbdt| -> usize { m.trees.iter().flatten().map(|t| t.nodes.len()).sum() };
        assert!(count(&big_gamma) < count(&no_gamma));
    }

    #[test]
    fn deterministic() {
        let data = ring_data(60);
        let m1 = Gbdt::fit(&GbdtParams::default(), &data, 0).unwrap();
        let m2 = Gbdt::fit(&GbdtParams::default(), &data, 0).unwrap();
        assert_eq!(m1.predict_proba(&data).unwrap(), m2.predict_proba(&data).unwrap());
    }

    #[test]
    fn invalid_params_rejected() {
        let data = ring_data(10);
        assert!(Gbdt::fit(&GbdtParams { n_rounds: 0, ..Default::default() }, &data, 0).is_err());
        assert!(Gbdt::fit(&GbdtParams { eta: 0.0, ..Default::default() }, &data, 0).is_err());
        assert!(Gbdt::fit(&GbdtParams { lambda: -1.0, ..Default::default() }, &data, 0).is_err());
    }
}
