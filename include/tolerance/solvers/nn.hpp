// Minimal fully-connected neural network with Adam, written from scratch to
// support the PPO baseline of Table 2 (Table 8: 4 hidden layers of 64 ReLU
// units, lr 1e-5, clip 0.2, GAE lambda 0.95, entropy coefficient 1e-4).
#pragma once

#include <cstddef>
#include <vector>

#include "tolerance/util/rng.hpp"

namespace tolerance::solvers {

/// A multilayer perceptron with ReLU hidden activations and a linear output
/// layer.  Backpropagation accumulates gradients; AdamState applies updates.
class Mlp {
 public:
  /// `layer_sizes` = {inputs, hidden..., outputs}.
  Mlp(std::vector<int> layer_sizes, Rng& rng);

  int num_inputs() const { return layer_sizes_.front(); }
  int num_outputs() const { return layer_sizes_.back(); }
  std::size_t num_parameters() const;

  /// Forward pass; caches activations for a subsequent backward() call.
  std::vector<double> forward(const std::vector<double>& input);

  /// Inference-only forward pass: no activation caching, no mutation, safe
  /// to call concurrently from parallel episode workers (PpoSolver::policy
  /// relies on this when NodeSimulator::run_many shards episodes).
  std::vector<double> predict(const std::vector<double>& input) const;

  /// Backward pass for the most recent forward(); `grad_output` is
  /// dLoss/dOutput.  Accumulates into the parameter gradients.
  void backward(const std::vector<double>& grad_output);

  void zero_gradients();

  /// Adam update using the accumulated gradients (scaled by 1/batch).
  void adam_step(double lr, double batch_scale);

  /// Flat parameter access (for tests).
  std::vector<double>& weights(std::size_t layer) { return w_[layer]; }
  const std::vector<double>& gradients(std::size_t layer) const {
    return gw_[layer];
  }

 private:
  std::vector<int> layer_sizes_;
  // Per layer: weights (out x in, row-major) and biases (out).
  std::vector<std::vector<double>> w_, b_;
  std::vector<std::vector<double>> gw_, gb_;
  // Adam moments.
  std::vector<std::vector<double>> mw_, vw_, mb_, vb_;
  long adam_t_ = 0;
  // Cached activations: act_[0] = input, act_[L] = output (pre-ReLU for
  // hidden layers stored separately).
  std::vector<std::vector<double>> act_;
  std::vector<std::vector<double>> pre_;
};

/// Numerically stable softmax.
std::vector<double> softmax(const std::vector<double>& logits);

}  // namespace tolerance::solvers
