//! Dense feed-forward networks with backpropagation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One fully-connected layer: `y = W·x + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Dense {
    /// Row-major `out × in` weight matrix.
    weights: Vec<f64>,
    bias: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Dense {
    /// He-uniform initialisation, suited to the ReLU hidden layers.
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        let limit = (6.0 / inputs as f64).sqrt();
        Dense {
            weights: (0..inputs * outputs)
                .map(|_| rng.gen_range(-limit..limit))
                .collect(),
            bias: vec![0.0; outputs],
            inputs,
            outputs,
        }
    }

    /// The per-sample reference body that [`Mlp::forward_batch`] must match
    /// bit for bit.
    #[cfg(test)]
    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.inputs);
        out.clear();
        out.reserve(self.outputs);
        for o in 0..self.outputs {
            let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
            let mut acc = self.bias[o];
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            out.push(acc);
        }
    }
}

/// Per-layer gradient buffers produced by [`Mlp::backward_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    weight_grads: Vec<Vec<f64>>,
    bias_grads: Vec<Vec<f64>>,
}

impl Gradients {
    /// Elementwise accumulation. With the per-sample `Mlp::backward` it
    /// forms the reference chain [`Mlp::backward_batch`] must match bit for
    /// bit.
    ///
    /// Both operands must come from networks of identical architecture; a
    /// mismatch is a caller bug (zip would silently truncate), caught by the
    /// debug assertions.
    #[cfg(test)]
    fn accumulate(&mut self, other: &Gradients) {
        debug_assert_eq!(
            self.weight_grads.len(),
            other.weight_grads.len(),
            "gradient layer count mismatch"
        );
        debug_assert_eq!(
            self.bias_grads.len(),
            other.bias_grads.len(),
            "gradient layer count mismatch"
        );
        for (a, b) in self.weight_grads.iter_mut().zip(&other.weight_grads) {
            debug_assert_eq!(a.len(), b.len(), "weight gradient shape mismatch");
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.bias_grads.iter_mut().zip(&other.bias_grads) {
            debug_assert_eq!(a.len(), b.len(), "bias gradient shape mismatch");
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales every gradient by `factor` (e.g. `1/batch`).
    pub fn scale(&mut self, factor: f64) {
        debug_assert!(factor.is_finite(), "non-finite gradient scale {factor}");
        for g in self
            .weight_grads
            .iter_mut()
            .chain(self.bias_grads.iter_mut())
        {
            for x in g.iter_mut() {
                *x *= factor;
            }
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    pub fn l2_norm(&self) -> f64 {
        let mut acc = 0.0;
        for g in self.weight_grads.iter().chain(self.bias_grads.iter()) {
            for x in g {
                acc += x * x;
            }
        }
        acc.sqrt()
    }

    /// Rescales gradients so their global norm does not exceed `max_norm`.
    pub fn clip(&mut self, max_norm: f64) {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }
}

/// Reusable activation planes for [`Mlp::forward_batch`] /
/// [`Mlp::backward_batch`], so repeated minibatch updates allocate nothing
/// after the first.
///
/// `acts[l]` holds layer `l`'s post-activation outputs for the whole batch
/// in sample-major layout (`acts[0]` is the input plane itself).
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    acts: Vec<Vec<f64>>,
}

/// A multi-layer perceptron with ReLU hidden activations and a linear output
/// layer — the paper's Q-network shape (Fig. 4: flatten → input → hidden
/// layers → `C(N,2)`-wide output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds a network with the given layer sizes, e.g. `&[8, 64, 64, 3]`
    /// for 8 inputs, two 64-wide hidden layers and 3 outputs.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two sizes are given.
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").inputs
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").outputs
    }

    /// Total trainable parameter count.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.bias.len())
            .sum()
    }

    /// Approximate resident memory of the parameters in bytes (used by the
    /// Fig. 11(b) memory comparison).
    pub fn parameter_bytes(&self) -> usize {
        self.parameter_count() * std::mem::size_of::<f64>()
    }

    /// Runs the network forward on one sample — [`Mlp::forward_batch`] at
    /// batch 1 — returning the output activations.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != input_dim`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut scratch = BatchScratch::default();
        self.forward_batch(x, 1, &mut scratch);
        scratch.acts.pop().expect("forward_batch fills every plane")
    }

    /// Per-sample reference forward pass keeping every layer's
    /// post-activation output (index 0 is the input itself) for the
    /// reference backpropagation.
    #[cfg(test)]
    fn forward_cached(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut out = Vec::new();
            layer.forward(acts.last().expect("non-empty"), &mut out);
            if i != last {
                for v in out.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            acts.push(out);
        }
        acts
    }

    /// Runs the network forward over a whole minibatch at once (matrix–matrix
    /// instead of `batch` matrix–vector passes), keeping every layer's
    /// activations in `scratch` for a following [`Mlp::backward_batch`].
    ///
    /// `xs` is sample-major (`batch × input_dim` flattened); the returned
    /// slice is the output plane, `batch × output_dim`. Each sample's
    /// arithmetic runs in the same order at any batch size, so results are
    /// bit-identical to `batch` individual passes (pinned against the
    /// per-sample reference body the unit tests keep).
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != batch * input_dim`.
    pub fn forward_batch<'a>(
        &self,
        xs: &[f64],
        batch: usize,
        scratch: &'a mut BatchScratch,
    ) -> &'a [f64] {
        assert_eq!(xs.len(), batch * self.input_dim(), "bad input plane shape");
        let planes = &mut scratch.acts;
        planes.resize(self.layers.len() + 1, Vec::new());
        planes[0].clear();
        planes[0].extend_from_slice(xs);

        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, todo) = planes.split_at_mut(li + 1);
            let src = &done[li];
            let dst = &mut todo[0];
            dst.clear();
            dst.reserve(batch * layer.outputs);
            for b in 0..batch {
                let x = &src[b * layer.inputs..(b + 1) * layer.inputs];
                for o in 0..layer.outputs {
                    let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                    let mut acc = layer.bias[o];
                    for (w, xi) in row.iter().zip(x) {
                        acc += w * xi;
                    }
                    dst.push(if li != last { acc.max(0.0) } else { acc });
                }
            }
        }
        planes.last().expect("non-empty")
    }

    /// Backpropagates the MSE loss `½‖y − target‖²` for a whole minibatch in
    /// one pass, reusing the activations left in `scratch` by the
    /// immediately preceding [`Mlp::forward_batch`] call on the same inputs.
    ///
    /// Returns the *sum* of per-sample gradients, accumulated in sample
    /// order — bit-identical to backpropagating each sample alone and
    /// summing the gradients in order (pinned against the per-sample
    /// reference the unit tests keep), with one gradient allocation for the
    /// whole batch. At batch 1 it is the single-sample backward pass.
    ///
    /// For Q-learning, pass targets equal to the current prediction except
    /// at the trained action's index — untouched outputs then contribute
    /// zero gradient, which is the standard DQN masking trick.
    ///
    /// # Panics
    ///
    /// Panics when `targets` does not match `batch × output_dim` or the
    /// scratch planes do not match this network.
    pub fn backward_batch(
        &self,
        targets: &[f64],
        batch: usize,
        scratch: &BatchScratch,
    ) -> Gradients {
        let layer_count = self.layers.len();
        let out_w = self.output_dim();
        assert_eq!(targets.len(), batch * out_w, "bad target plane shape");
        assert_eq!(
            scratch.acts.len(),
            layer_count + 1,
            "scratch not from forward_batch"
        );
        assert_eq!(
            scratch.acts[layer_count].len(),
            batch * out_w,
            "scratch batch mismatch"
        );

        let mut weight_grads: Vec<Vec<f64>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; l.weights.len()])
            .collect();
        let mut bias_grads: Vec<Vec<f64>> =
            self.layers.iter().map(|l| vec![0.0; l.outputs]).collect();

        let mut delta: Vec<f64> = Vec::new();
        let mut prev_delta: Vec<f64> = Vec::new();
        for b in 0..batch {
            let output = &scratch.acts[layer_count][b * out_w..(b + 1) * out_w];
            let target = &targets[b * out_w..(b + 1) * out_w];
            delta.clear();
            delta.extend(output.iter().zip(target).map(|(o, t)| o - t));

            for li in (0..layer_count).rev() {
                let layer = &self.layers[li];
                let input = &scratch.acts[li][b * layer.inputs..(b + 1) * layer.inputs];
                for (o, &d) in delta.iter().enumerate() {
                    let grow = &mut weight_grads[li][o * layer.inputs..(o + 1) * layer.inputs];
                    // First sample assigns, later ones add — reproducing the
                    // per-sample accumulate chain float-op for float-op.
                    if b == 0 {
                        for (g, xi) in grow.iter_mut().zip(input) {
                            *g = d * xi;
                        }
                    } else {
                        for (g, xi) in grow.iter_mut().zip(input) {
                            *g += d * xi;
                        }
                    }
                }
                if b == 0 {
                    bias_grads[li].copy_from_slice(&delta);
                } else {
                    for (g, d) in bias_grads[li].iter_mut().zip(&delta) {
                        *g += d;
                    }
                }

                if li > 0 {
                    prev_delta.clear();
                    prev_delta.resize(layer.inputs, 0.0);
                    for (o, &d) in delta.iter().enumerate() {
                        let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                        for (pd, w) in prev_delta.iter_mut().zip(row) {
                            *pd += d * w;
                        }
                    }
                    for (pd, a) in prev_delta.iter_mut().zip(input) {
                        if *a <= 0.0 {
                            *pd = 0.0;
                        }
                    }
                    std::mem::swap(&mut delta, &mut prev_delta);
                }
            }
        }

        Gradients {
            weight_grads,
            bias_grads,
        }
    }

    /// Per-sample reference backpropagation of the MSE loss
    /// `½‖y − target‖²`, which [`Mlp::backward_batch`] must match bit for
    /// bit.
    #[cfg(test)]
    fn backward(&mut self, x: &[f64], target: &[f64]) -> Gradients {
        let acts = self.forward_cached(x);
        let output = acts.last().expect("non-empty");
        debug_assert_eq!(output.len(), target.len());

        // dL/dy for MSE.
        let mut delta: Vec<f64> = output.iter().zip(target).map(|(o, t)| o - t).collect();

        let mut weight_grads = vec![Vec::new(); self.layers.len()];
        let mut bias_grads = vec![Vec::new(); self.layers.len()];

        for li in (0..self.layers.len()).rev() {
            let layer = &self.layers[li];
            let input = &acts[li];
            // Gradients for this layer.
            let mut wg = vec![0.0; layer.weights.len()];
            for o in 0..layer.outputs {
                let d = delta[o];
                let row = &mut wg[o * layer.inputs..(o + 1) * layer.inputs];
                for (g, xi) in row.iter_mut().zip(input) {
                    *g = d * xi;
                }
            }
            weight_grads[li] = wg;
            bias_grads[li] = delta.clone();

            // Propagate to the previous layer (through the ReLU if li > 0).
            if li > 0 {
                let mut prev_delta = vec![0.0; layer.inputs];
                for (o, &d) in delta.iter().enumerate() {
                    let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                    for (pd, w) in prev_delta.iter_mut().zip(row) {
                        *pd += d * w;
                    }
                }
                // ReLU derivative uses the post-activation value: zero where
                // the unit was inactive.
                for (pd, a) in prev_delta.iter_mut().zip(&acts[li]) {
                    if *a <= 0.0 {
                        *pd = 0.0;
                    }
                }
                delta = prev_delta;
            }
        }

        Gradients {
            weight_grads,
            bias_grads,
        }
    }

    /// Serializes the network (architecture + parameters) to JSON — the
    /// paper's workflow has the IFU train the model *offline* and hand it to
    /// the aggregator, which is exactly a serialize/deserialize boundary.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Mlp serialization cannot fail")
    }

    /// Restores a network from [`Mlp::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Copies all parameters from `source` (the DQN target-network sync).
    ///
    /// # Panics
    ///
    /// Panics when the architectures differ.
    pub fn copy_from(&mut self, source: &Mlp) {
        assert_eq!(
            self.layers.len(),
            source.layers.len(),
            "architecture mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            assert_eq!(
                dst.weights.len(),
                src.weights.len(),
                "architecture mismatch"
            );
            dst.weights.copy_from_slice(&src.weights);
            dst.bias.copy_from_slice(&src.bias);
        }
    }

    fn apply_update(&mut self, updates: &Gradients) {
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (w, u) in layer.weights.iter_mut().zip(&updates.weight_grads[li]) {
                *w -= u;
            }
            for (b, u) in layer.bias.iter_mut().zip(&updates.bias_grads[li]) {
                *b -= u;
            }
        }
    }
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Step size.
    pub learning_rate: f64,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(learning_rate: f64) -> Self {
        Sgd { learning_rate }
    }

    /// Applies `grads` to `net`.
    pub fn apply(&self, net: &mut Mlp, grads: &Gradients) {
        let mut update = grads.clone();
        update.scale(self.learning_rate);
        net.apply_update(&update);
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Option<Gradients>,
    v: Option<Gradients>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: None,
            v: None,
        }
    }

    /// Applies one Adam step of `grads` to `net`.
    pub fn apply(&mut self, net: &mut Mlp, grads: &Gradients) {
        self.t += 1;
        let m = self.m.get_or_insert_with(|| {
            let mut z = grads.clone();
            z.scale(0.0);
            z
        });
        let v = self.v.get_or_insert_with(|| {
            let mut z = grads.clone();
            z.scale(0.0);
            z
        });

        let mut update = grads.clone();
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);

        let apply_buf = |m: &mut Vec<f64>, v: &mut Vec<f64>, g: &mut Vec<f64>| {
            for i in 0..g.len() {
                m[i] = b1 * m[i] + (1.0 - b1) * g[i];
                v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                g[i] = self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        };

        for li in 0..update.weight_grads.len() {
            apply_buf(
                &mut m.weight_grads[li],
                &mut v.weight_grads[li],
                &mut update.weight_grads[li],
            );
            apply_buf(
                &mut m.bias_grads[li],
                &mut v.bias_grads[li],
                &mut update.bias_grads[li],
            );
        }
        net.apply_update(&update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_counts() {
        let net = Mlp::new(&[8, 16, 4], 1);
        assert_eq!(net.input_dim(), 8);
        assert_eq!(net.output_dim(), 4);
        assert_eq!(net.parameter_count(), 8 * 16 + 16 + 16 * 4 + 4);
        assert_eq!(net.parameter_bytes(), net.parameter_count() * 8);
        assert_eq!(net.forward(&[0.1; 8]).len(), 4);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = Mlp::new(&[4, 8, 2], 7);
        let b = Mlp::new(&[4, 8, 2], 7);
        assert_eq!(
            a.forward(&[1.0, 2.0, 3.0, 4.0]),
            b.forward(&[1.0, 2.0, 3.0, 4.0])
        );
        let c = Mlp::new(&[4, 8, 2], 8);
        assert_ne!(
            a.forward(&[1.0, 2.0, 3.0, 4.0]),
            c.forward(&[1.0, 2.0, 3.0, 4.0])
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut net = Mlp::new(&[3, 5, 2], 3);
        let x = [0.3, -0.7, 1.2];
        let target = [0.5, -0.5];
        let grads = net.backward(&x, &target);

        // Perturb one weight in layer 0 and compare numeric vs analytic.
        let eps = 1e-6;
        let loss = |net: &Mlp| -> f64 {
            let y = net.forward(&x);
            0.5 * y
                .iter()
                .zip(&target)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        for (li, wi) in [(0usize, 4usize), (1usize, 7usize)] {
            let mut plus = net.clone();
            plus.layers[li].weights[wi] += eps;
            let mut minus = net.clone();
            minus.layers[li].weights[wi] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = grads.weight_grads[li][wi];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "layer {li} weight {wi}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sgd_reduces_loss_on_regression() {
        let mut net = Mlp::new(&[2, 16, 1], 5);
        let opt = Sgd::new(0.05);
        let samples = [
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        let loss = |net: &Mlp| -> f64 {
            samples
                .iter()
                .map(|(x, y)| {
                    let o = net.forward(x)[0];
                    (o - y) * (o - y)
                })
                .sum()
        };
        let before = loss(&net);
        for _ in 0..2000 {
            for (x, y) in &samples {
                let g = net.backward(x, &[*y]);
                opt.apply(&mut net, &g);
            }
        }
        let after = loss(&net);
        assert!(after < before * 0.05, "XOR loss {before} -> {after}");
    }

    #[test]
    fn adam_converges_faster_than_sgd_on_scaled_problem() {
        let target_fn = |x: f64| 3.0 * x;
        let xs = [-1.0, -0.5, 0.0, 0.5, 1.0];
        let run = |use_adam: bool| -> f64 {
            let mut net = Mlp::new(&[1, 8, 1], 11);
            let mut adam = Adam::new(0.01);
            let sgd = Sgd::new(0.01);
            for _ in 0..100 {
                for x in xs {
                    let g = net.backward(&[x], &[target_fn(x)]);
                    if use_adam {
                        adam.apply(&mut net, &g);
                    } else {
                        sgd.apply(&mut net, &g);
                    }
                }
            }
            xs.iter()
                .map(|&x| {
                    let o = net.forward(&[x])[0];
                    (o - target_fn(x)).powi(2)
                })
                .sum()
        };
        // Not a strict race — just check Adam learns the task.
        assert!(run(true) < 0.5);
    }

    #[test]
    fn copy_from_syncs_parameters() {
        let mut a = Mlp::new(&[2, 4, 1], 1);
        let b = Mlp::new(&[2, 4, 1], 2);
        assert_ne!(a.forward(&[1.0, 1.0]), b.forward(&[1.0, 1.0]));
        a.copy_from(&b);
        assert_eq!(a.forward(&[1.0, 1.0]), b.forward(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn copy_from_rejects_mismatch() {
        let mut a = Mlp::new(&[2, 4, 1], 1);
        let b = Mlp::new(&[2, 5, 1], 2);
        a.copy_from(&b);
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let net = Mlp::new(&[3, 8, 2], 21);
        let restored = Mlp::from_json(&net.to_json()).unwrap();
        let x = [0.1, -0.4, 0.9];
        assert_eq!(net.forward(&x), restored.forward(&x));
        assert!(Mlp::from_json("not json").is_err());
    }

    #[test]
    fn forward_batch_is_bit_identical_to_singles() {
        let net = Mlp::new(&[4, 9, 5, 3], 13);
        let batch = 6;
        let xs: Vec<f64> = (0..batch * 4).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut scratch = BatchScratch::default();
        let plane = net.forward_batch(&xs, batch, &mut scratch).to_vec();
        for b in 0..batch {
            let x = &xs[b * 4..(b + 1) * 4];
            let reference = net.forward_cached(x).pop().unwrap();
            assert_eq!(&plane[b * 3..(b + 1) * 3], reference.as_slice());
            assert_eq!(net.forward(x), reference);
        }
    }

    #[test]
    fn backward_batch_is_bit_identical_to_accumulated_singles() {
        let mut net = Mlp::new(&[3, 7, 4], 17);
        let batch = 5;
        let xs: Vec<f64> = (0..batch * 3).map(|i| (i as f64 * 0.73).cos()).collect();
        let targets: Vec<f64> = (0..batch * 4).map(|i| (i as f64 * 0.11).sin()).collect();

        let mut scratch = BatchScratch::default();
        net.forward_batch(&xs, batch, &mut scratch);
        let batched = net.backward_batch(&targets, batch, &scratch);

        let mut accumulated: Option<Gradients> = None;
        for b in 0..batch {
            let g = net.backward(&xs[b * 3..(b + 1) * 3], &targets[b * 4..(b + 1) * 4]);
            match accumulated.as_mut() {
                None => accumulated = Some(g),
                Some(acc) => acc.accumulate(&g),
            }
        }
        assert_eq!(batched, accumulated.unwrap());
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let mut net = Mlp::new(&[3, 4, 2], 9);
        let mut g = net.backward(&[10.0, -10.0, 10.0], &[100.0, -100.0]);
        g.clip(1.0);
        assert!(g.l2_norm() <= 1.0 + 1e-9);
    }
}
