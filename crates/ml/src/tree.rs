//! CART decision trees with Gini impurity and sample weights.
//!
//! The tree supports weighted samples (required by AdaBoost/SAMME) and
//! per-split random feature subsampling (required by random forests). Splits
//! are axis-aligned thresholds at midpoints between consecutive distinct
//! feature values, chosen to maximize the weighted Gini decrease — the
//! classic CART construction the paper's scikit-learn models use.

use cleanml_dataset::FeatureMatrix;
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, SeedableRng};

use crate::error::MlError;
use crate::Result;

/// Hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0). `usize::MAX` effectively unbounded.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples each child must receive.
    pub min_samples_leaf: usize,
    /// Number of features considered per split; `None` = all features.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 12, min_samples_split: 2, min_samples_leaf: 1, max_features: None }
    }
}

impl TreeParams {
    /// Samples hyper-parameters for random search (depth and leaf-size sweep,
    /// mirroring the paper's scikit-learn random search space).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        TreeParams {
            max_depth: *[4usize, 6, 8, 12, 16].choose(rng).expect("non-empty"),
            min_samples_split: *[2usize, 4, 8].choose(rng).expect("non-empty"),
            min_samples_leaf: *[1usize, 2, 4].choose(rng).expect("non-empty"),
            max_features: None,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.min_samples_leaf == 0 {
            return Err(MlError::InvalidParam { param: "min_samples_leaf", message: "0".into() });
        }
        if self.min_samples_split < 2 {
            return Err(MlError::InvalidParam {
                param: "min_samples_split",
                message: format!("{} (must be >= 2)", self.min_samples_split),
            });
        }
        if self.max_features == Some(0) {
            return Err(MlError::InvalidParam { param: "max_features", message: "0".into() });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Class probability distribution at the leaf (weighted).
        dist: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// `x[feature] <= threshold` goes left.
        left: usize,
        right: usize,
    },
}

/// A fitted CART classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
}

/// Weighted Gini impurity of a class-weight histogram with total `total`.
fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|&c| (c / total) * (c / total)).sum::<f64>()
}

struct BuildCtx<'a> {
    data: &'a FeatureMatrix,
    weights: &'a [f64],
    params: &'a TreeParams,
    rng: StdRng,
    n_classes: usize,
}

impl DecisionTree {
    /// Trains with uniform sample weights.
    pub fn fit(params: &TreeParams, data: &FeatureMatrix, seed: u64) -> Result<DecisionTree> {
        let w = vec![1.0; data.n_rows()];
        Self::fit_weighted(params, data, &w, seed)
    }

    /// Trains with per-sample weights (AdaBoost) and optional per-split
    /// feature subsampling (random forest).
    pub fn fit_weighted(
        params: &TreeParams,
        data: &FeatureMatrix,
        weights: &[f64],
        seed: u64,
    ) -> Result<DecisionTree> {
        params.validate()?;
        if data.n_rows() == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        assert_eq!(weights.len(), data.n_rows(), "weight count mismatch");

        let mut ctx = BuildCtx {
            data,
            weights,
            params,
            rng: StdRng::seed_from_u64(seed),
            n_classes: data.n_classes(),
        };
        let mut nodes = Vec::new();
        let all_rows: Vec<u32> = (0..data.n_rows() as u32).collect();
        // Root split candidates come straight from the matrix's sorted-index
        // sidecar; every descendant inherits order-preserving partitions of
        // these lists, so no node ever sorts.
        let lists: Vec<Vec<u32>> = data.sorted_cols().iter().cloned().collect();
        build_node(&mut ctx, &mut nodes, all_rows, lists, 0);
        Ok(DecisionTree { nodes, n_features: data.n_cols(), n_classes: data.n_classes() })
    }

    /// Per-class probabilities (flat `n × k`).
    pub fn predict_proba(&self, data: &FeatureMatrix) -> Result<Vec<f64>> {
        if data.n_cols() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                got: data.n_cols(),
            });
        }
        let k = self.n_classes;
        let mut out = Vec::with_capacity(data.n_rows() * k);
        for i in 0..data.n_rows() {
            let dist = self.leaf_dist_at(data, i);
            out.extend_from_slice(dist);
        }
        Ok(out)
    }

    /// Most probable class per row.
    pub fn predict(&self, data: &FeatureMatrix) -> Result<Vec<usize>> {
        let probs = self.predict_proba(data)?;
        Ok(crate::logistic::argmax_rows(&probs, self.n_classes))
    }

    /// Number of nodes (diagnostics / tests).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Walks example `i` of a columnar matrix to its leaf.
    fn leaf_dist_at(&self, data: &FeatureMatrix, i: usize) -> &[f64] {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { dist } => return dist,
                Node::Split { feature, threshold, left, right } => {
                    at = if data.at(i, *feature) <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// Recursively builds the subtree for `rows`, returning its node index.
///
/// `rows` is the node's membership in ascending-index order; `lists[f]`
/// holds the same membership in ascending `(value, row)` order for feature
/// `f`. Both invariants hold at the root (identity order / the matrix
/// sidecar) and are preserved by the order-stable partitions below, so the
/// threshold sweep visits candidates in exactly the order the pre-columnar
/// per-node stable sort produced — bit-identical splits.
fn build_node(
    ctx: &mut BuildCtx<'_>,
    nodes: &mut Vec<Node>,
    rows: Vec<u32>,
    lists: Vec<Vec<u32>>,
    depth: usize,
) -> usize {
    let k = ctx.n_classes;
    let mut counts = vec![0.0; k];
    let mut total = 0.0;
    for &r in &rows {
        counts[ctx.data.labels()[r as usize]] += ctx.weights[r as usize];
        total += ctx.weights[r as usize];
    }

    let make_leaf = |counts: &[f64], total: f64| {
        let dist: Vec<f64> = if total > 0.0 {
            counts.iter().map(|&c| c / total).collect()
        } else {
            vec![1.0 / k as f64; k]
        };
        Node::Leaf { dist }
    };

    let node_gini = gini(&counts, total);
    let stop = depth >= ctx.params.max_depth
        || rows.len() < ctx.params.min_samples_split
        || node_gini <= 1e-12;
    if stop {
        let idx = nodes.len();
        nodes.push(make_leaf(&counts, total));
        return idx;
    }

    let best = find_best_split(ctx, &lists, &counts, total, node_gini);
    let Some((feature, threshold)) = best else {
        let idx = nodes.len();
        nodes.push(make_leaf(&counts, total));
        return idx;
    };

    // Order-stable partitions: membership order is preserved in both
    // children, for the ascending row list and every per-feature list.
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

    // Reserve this node's slot before children so indices stay stable.
    let idx = nodes.len();
    nodes.push(Node::Leaf { dist: Vec::new() }); // placeholder
    let left = build_node(ctx, nodes, left_rows, left_lists, depth + 1);
    let right = build_node(ctx, nodes, right_rows, right_lists, depth + 1);
    nodes[idx] = Node::Split { feature, threshold, left, right };
    idx
}

/// Finds the `(feature, threshold)` with the largest weighted Gini decrease,
/// or `None` if no valid split exists. `lists[f]` is the node's membership
/// in ascending `(value, row)` order, so each feature is one contiguous
/// sweep — no per-node sorting.
fn find_best_split(
    ctx: &mut BuildCtx<'_>,
    lists: &[Vec<u32>],
    counts: &[f64],
    total: f64,
    node_gini: f64,
) -> Option<(usize, f64)> {
    let d = ctx.data.n_cols();
    let k = ctx.n_classes;

    let feature_pool: Vec<usize> = match ctx.params.max_features {
        Some(m) if m < d => {
            let mut all: Vec<usize> = (0..d).collect();
            all.shuffle(&mut ctx.rng);
            all.truncate(m);
            all
        }
        _ => (0..d).collect(),
    };

    let mut best: Option<(usize, f64)> = None;
    let mut best_gain = 1e-12; // require a strictly positive gain

    let mut left_counts = vec![0.0; k];

    for &f in &feature_pool {
        let order = &lists[f];
        let col = ctx.data.col(f);

        left_counts.iter_mut().for_each(|c| *c = 0.0);
        let mut left_total = 0.0;
        let mut left_n = 0usize;

        for w in 0..order.len() - 1 {
            let r = order[w] as usize;
            left_counts[ctx.data.labels()[r]] += ctx.weights[r];
            left_total += ctx.weights[r];
            left_n += 1;

            let v_here = col[r];
            let v_next = col[order[w + 1] as usize];
            if v_next <= v_here {
                continue; // can't split between equal values
            }
            let right_n = order.len() - left_n;
            if left_n < ctx.params.min_samples_leaf || right_n < ctx.params.min_samples_leaf {
                continue;
            }
            let right_total = total - left_total;
            let right_counts: Vec<f64> =
                counts.iter().zip(&left_counts).map(|(c, l)| c - l).collect();
            let weighted = (left_total * gini(&left_counts, left_total)
                + right_total * gini(&right_counts, right_total))
                / total;
            let gain = node_gini - weighted;
            if gain > best_gain {
                best_gain = gain;
                best = Some((f, 0.5 * (v_here + v_next)));
            }
        }
    }
    best
}

impl DecisionTree {
    /// Approximate heap footprint: the node arena and the leaf
    /// distributions.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let dists = self.nodes.iter().map(|n| match n {
            Node::Leaf { dist } => crate::model::vec_bytes(dist),
            Node::Split { .. } => 0,
        });
        crate::model::vec_bytes(&self.nodes) + dists.sum::<u64>()
    }

    /// Appends the node arena to an artifact byte stream.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use cleanml_dataset::codec::{push_f64, push_tag, push_usize};
        push_usize(out, self.n_features);
        push_usize(out, self.n_classes);
        push_usize(out, self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { dist } => {
                    push_tag(out, b'L');
                    crate::codec::push_dist_vec(out, dist);
                }
                Node::Split { feature, threshold, left, right } => {
                    push_tag(out, b'S');
                    push_usize(out, *feature);
                    push_f64(out, *threshold);
                    push_usize(out, *left);
                    push_usize(out, *right);
                }
            }
        }
    }

    /// Reads a tree written by [`DecisionTree::encode_into`].
    pub(crate) fn decode_from(
        parts: &mut cleanml_dataset::codec::Reader<'_>,
    ) -> Option<DecisionTree> {
        use cleanml_dataset::codec::{take_f64, take_usize};
        let n_features = take_usize(parts)?;
        let n_classes = take_usize(parts)?;
        let n_nodes = take_usize(parts)?;
        let mut nodes = Vec::with_capacity(n_nodes.min(1 << 20));
        for i in 0..n_nodes {
            let node = match cleanml_dataset::codec::take_tag(parts)? {
                b'L' => {
                    let dist = crate::codec::take_dist_vec(parts)?;
                    if dist.len() != n_classes {
                        return None;
                    }
                    Node::Leaf { dist }
                }
                b'S' => {
                    let feature = take_usize(parts)?;
                    let threshold = take_f64(parts)?;
                    let left = take_usize(parts)?;
                    let right = take_usize(parts)?;
                    // Children must point strictly forward in the arena
                    // (the builder reserves the parent slot before pushing
                    // children), so a corrupt entry can neither walk out
                    // of bounds nor form a cycle that hangs prediction.
                    if feature >= n_features
                        || left <= i
                        || right <= i
                        || left >= n_nodes
                        || right >= n_nodes
                    {
                        return None;
                    }
                    Node::Split { feature, threshold, left, right }
                }
                _ => return None,
            };
            nodes.push(node);
        }
        if nodes.is_empty() {
            return None;
        }
        Some(DecisionTree { nodes, n_features, n_classes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use cleanml_dataset::FeatureMatrix;

    fn xor_data() -> FeatureMatrix {
        // XOR-like pattern with *asymmetric* quadrant sizes. A perfectly
        // balanced XOR has zero Gini gain for any first split (both children
        // stay 50/50), so greedy CART cannot enter it; unequal quadrant
        // counts — as in any real dataset — restore a positive gain.
        let quadrants: [(f64, f64, usize, usize); 4] = [
            (0.0, 0.0, 0, 12), // (x0, x1, label, count)
            (0.0, 1.0, 1, 6),
            (1.0, 0.0, 1, 10),
            (1.0, 1.0, 0, 4),
        ];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        let mut i = 0usize;
        for &(qx, qy, label, count) in &quadrants {
            for _ in 0..count {
                let jitter = (i as f64 * 0.17).sin() * 0.05;
                data.push(qx + jitter);
                data.push(qy - jitter);
                labels.push(label);
                i += 1;
            }
        }
        let n = labels.len();
        FeatureMatrix::from_parts(data, n, 2, labels, 2)
    }

    #[test]
    fn learns_xor() {
        let data = xor_data();
        let tree = DecisionTree::fit(&TreeParams::default(), &data, 0).unwrap();
        let preds = tree.predict(&data).unwrap();
        assert_eq!(accuracy(data.labels(), &preds), 1.0);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_limit_respected() {
        let data = xor_data();
        let tree = DecisionTree::fit(&TreeParams { max_depth: 1, ..Default::default() }, &data, 0)
            .unwrap();
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn stump_on_separable() {
        // Single threshold separates classes -> stump achieves 100%.
        let data = FeatureMatrix::from_parts(
            vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0],
            6,
            1,
            vec![0, 0, 0, 1, 1, 1],
            2,
        );
        let tree = DecisionTree::fit(&TreeParams { max_depth: 1, ..Default::default() }, &data, 0)
            .unwrap();
        let preds = tree.predict(&data).unwrap();
        assert_eq!(preds, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(tree.n_nodes(), 3);
    }

    #[test]
    fn pure_node_is_leaf() {
        let data = FeatureMatrix::from_parts(vec![1.0, 2.0, 3.0], 3, 1, vec![0, 0, 0], 2);
        let tree = DecisionTree::fit(&TreeParams::default(), &data, 0).unwrap();
        assert_eq!(tree.n_nodes(), 1);
        let probs = tree.predict_proba(&data).unwrap();
        assert_eq!(&probs[..2], &[1.0, 0.0]);
    }

    #[test]
    fn weights_steer_the_split() {
        // Same feature values, conflicting labels; weights decide the leaf.
        let data = FeatureMatrix::from_parts(vec![0.0, 0.0], 2, 1, vec![0, 1], 2);
        let t = DecisionTree::fit_weighted(&TreeParams::default(), &data, &[0.9, 0.1], 0).unwrap();
        assert_eq!(t.predict(&data).unwrap(), vec![0, 0]);
        let t = DecisionTree::fit_weighted(&TreeParams::default(), &data, &[0.1, 0.9], 0).unwrap();
        assert_eq!(t.predict(&data).unwrap(), vec![1, 1]);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let data = FeatureMatrix::from_parts(vec![0.0, 1.0, 2.0, 3.0], 4, 1, vec![0, 0, 0, 1], 2);
        // Requiring 2 samples per leaf forbids isolating the single class-1 row
        // at threshold 2.5; the best legal split is at 1.5.
        let tree =
            DecisionTree::fit(&TreeParams { min_samples_leaf: 2, ..Default::default() }, &data, 0)
                .unwrap();
        let preds = tree.predict(&data).unwrap();
        assert_eq!(preds.len(), 4);
    }

    #[test]
    fn probabilities_are_distributions() {
        let data = xor_data();
        let tree = DecisionTree::fit(&TreeParams { max_depth: 1, ..Default::default() }, &data, 0)
            .unwrap();
        let probs = tree.predict_proba(&data).unwrap();
        for row in probs.chunks_exact(2) {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn feature_subsampling_deterministic_by_seed() {
        let data = xor_data();
        let params = TreeParams { max_features: Some(1), ..Default::default() };
        let t1 = DecisionTree::fit(&params, &data, 5).unwrap();
        let t2 = DecisionTree::fit(&params, &data, 5).unwrap();
        let p1 = t1.predict(&data).unwrap();
        let p2 = t2.predict(&data).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn invalid_params_rejected() {
        let data = xor_data();
        assert!(DecisionTree::fit(
            &TreeParams { min_samples_leaf: 0, ..Default::default() },
            &data,
            0
        )
        .is_err());
        assert!(DecisionTree::fit(
            &TreeParams { min_samples_split: 1, ..Default::default() },
            &data,
            0
        )
        .is_err());
        assert!(DecisionTree::fit(
            &TreeParams { max_features: Some(0), ..Default::default() },
            &data,
            0
        )
        .is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let data = xor_data();
        let tree = DecisionTree::fit(&TreeParams::default(), &data, 0).unwrap();
        let other = FeatureMatrix::from_parts(vec![0.0; 3], 1, 3, vec![0], 2);
        assert!(tree.predict(&other).is_err());
    }
}
