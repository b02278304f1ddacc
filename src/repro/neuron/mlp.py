"""Hardware-targeted multi-layer perceptrons (Section 1, reference [3]).

The paper notes that the SpiNNaker architecture will also be applied to
"other important neural models [3]"; reference [3] studies *optimal
connectivity in hardware-targetted MLP networks* — multi-layer perceptrons
whose units have a bounded fan-in (because synaptic rows must fit in the
per-core data memory) and whose weights are held in fixed-point form
(because the ARM968 has no floating-point unit).  This module provides the
MLP substrate those studies need:

* :class:`SparseLayer` — a fully- or sparsely-connected layer whose fan-in
  per unit can be capped, with plain-numpy forward and backward passes;
* :class:`MLP` — a stack of layers trained by mini-batch gradient descent
  on a cross-entropy objective;
* :class:`FixedPointFormat` / :meth:`MLP.quantised` — conversion of a
  trained network to the Qm.n fixed-point representation a SpiNNaker core
  would hold, so the accuracy cost of the hardware number format can be
  measured;
* :func:`synthetic_classification_task` — a reproducible synthetic dataset
  (noisy class prototypes) used by the examples, tests and the fan-in
  ablation benchmark.

Everything is deliberately dependency-light: plain numpy, no autograd.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.neuron.population import simulation_rng

__all__ = [
    "FixedPointFormat",
    "SparseLayer",
    "MLP",
    "TrainingResult",
    "synthetic_classification_task",
]


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed Qm.n fixed-point format (the ARM968 number representation).

    ``integer_bits`` excludes the sign bit; ``fractional_bits`` sets the
    resolution.  The SpiNNaker neural kernels typically use s16.15 for
    state and s8.7 or s4.11 for weights.
    """

    integer_bits: int = 8
    fractional_bits: int = 7

    def __post_init__(self) -> None:
        if self.integer_bits < 0 or self.fractional_bits < 0:
            raise ValueError("bit counts must be non-negative")
        if self.integer_bits + self.fractional_bits == 0:
            raise ValueError("the format needs at least one magnitude bit")

    @property
    def total_bits(self) -> int:
        """Total storage bits including the sign."""
        return self.integer_bits + self.fractional_bits + 1

    @property
    def resolution(self) -> float:
        """Smallest representable step."""
        return 2.0 ** -self.fractional_bits

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return 2.0 ** self.integer_bits - self.resolution

    @property
    def min_value(self) -> float:
        """Most negative representable value."""
        return -(2.0 ** self.integer_bits)

    def quantise(self, values: np.ndarray) -> np.ndarray:
        """Round ``values`` to the nearest representable fixed-point number."""
        array = np.asarray(values, dtype=float)
        scaled = np.round(array / self.resolution) * self.resolution
        return np.clip(scaled, self.min_value, self.max_value)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=1, keepdims=True)


class SparseLayer:
    """One MLP layer with an optional per-unit fan-in cap.

    Parameters
    ----------
    n_inputs, n_outputs:
        Layer dimensions.
    fan_in:
        Maximum number of inputs each output unit may connect to.  ``None``
        means fully connected.  The connectivity pattern is chosen once at
        construction (uniformly at random without replacement) and is held
        fixed during training, as in reference [3].
    activation:
        ``"relu"``, ``"tanh"`` or ``"linear"``.
    """

    def __init__(self, n_inputs: int, n_outputs: int,
                 fan_in: Optional[int] = None, activation: str = "relu",
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_inputs < 1 or n_outputs < 1:
            raise ValueError("layer dimensions must be positive")
        if fan_in is not None and not 1 <= fan_in <= n_inputs:
            raise ValueError("fan_in must lie in [1, n_inputs]")
        if activation not in ("relu", "tanh", "linear"):
            raise ValueError("unknown activation %r" % (activation,))
        rng = rng or simulation_rng(None)
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.fan_in = fan_in
        self.activation = activation

        scale = np.sqrt(2.0 / n_inputs)
        self.weights = rng.normal(0.0, scale, size=(n_inputs, n_outputs))
        self.biases = np.zeros(n_outputs)
        if fan_in is None:
            self.mask = np.ones((n_inputs, n_outputs), dtype=bool)
        else:
            self.mask = np.zeros((n_inputs, n_outputs), dtype=bool)
            for unit in range(n_outputs):
                chosen = rng.choice(n_inputs, size=fan_in, replace=False)
                self.mask[chosen, unit] = True
        self.weights *= self.mask

        self._last_input: Optional[np.ndarray] = None
        self._last_pre_activation: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Forward pass; caches the activations needed by :meth:`backward`."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        pre_activation = inputs @ self.weights + self.biases
        self._last_input = inputs
        self._last_pre_activation = pre_activation
        return self._activate(pre_activation)

    def _activate(self, pre_activation: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return np.maximum(0.0, pre_activation)
        if self.activation == "tanh":
            return np.tanh(pre_activation)
        return pre_activation

    def _activation_gradient(self, pre_activation: np.ndarray) -> np.ndarray:
        if self.activation == "relu":
            return (pre_activation > 0).astype(float)
        if self.activation == "tanh":
            return 1.0 - np.tanh(pre_activation) ** 2
        return np.ones_like(pre_activation)

    def backward(self, output_gradient: np.ndarray,
                 learning_rate: float) -> np.ndarray:
        """Back-propagate ``output_gradient`` and update the layer in place.

        Returns the gradient with respect to the layer's inputs.  Weight
        updates are masked so pruned connections stay absent.
        """
        if self._last_input is None or self._last_pre_activation is None:
            raise RuntimeError("backward called before forward")
        delta = output_gradient * self._activation_gradient(
            self._last_pre_activation)
        input_gradient = delta @ self.weights.T
        weight_gradient = self._last_input.T @ delta
        batch = self._last_input.shape[0]
        self.weights -= learning_rate * (weight_gradient * self.mask) / batch
        self.biases -= learning_rate * delta.mean(axis=0)
        return input_gradient

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_connections(self) -> int:
        """Number of (potential) synapses the layer implements."""
        return int(self.mask.sum())

    def effective_fan_in(self) -> float:
        """Mean number of inputs actually wired to each output unit."""
        return float(self.mask.sum(axis=0).mean())


@dataclass
class TrainingResult:
    """Loss/accuracy trajectory of one training run."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        """Training accuracy after the last epoch."""
        return self.accuracies[-1] if self.accuracies else 0.0


class MLP:
    """A small multi-layer perceptron classifier.

    Parameters
    ----------
    layer_sizes:
        ``[n_inputs, hidden..., n_classes]``; at least two entries.
    fan_in:
        Optional fan-in cap applied to every hidden layer (the output layer
        is always fully connected so every class can be expressed).
    seed:
        Seed for the connectivity pattern and weight initialisation.
    """

    def __init__(self, layer_sizes: Sequence[int],
                 fan_in: Optional[int] = None,
                 activation: str = "relu",
                 seed: Optional[int] = None) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("an MLP needs at least input and output layers")
        rng = simulation_rng(seed)
        self.layer_sizes = list(layer_sizes)
        self.fan_in = fan_in
        self.layers: List[SparseLayer] = []
        for index in range(len(layer_sizes) - 1):
            is_output = index == len(layer_sizes) - 2
            layer_fan_in = None if is_output else fan_in
            if layer_fan_in is not None:
                layer_fan_in = min(layer_fan_in, layer_sizes[index])
            self.layers.append(SparseLayer(
                layer_sizes[index], layer_sizes[index + 1],
                fan_in=layer_fan_in,
                activation="linear" if is_output else activation,
                rng=rng))

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of inputs."""
        activations = np.atleast_2d(np.asarray(inputs, dtype=float))
        for layer in self.layers:
            activations = layer.forward(activations)
        return _softmax(activations)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Most probable class index for each input row."""
        return np.argmax(self.forward(inputs), axis=1)

    def accuracy(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a labelled set."""
        labels = np.asarray(labels)
        if labels.size == 0:
            return 0.0
        return float(np.mean(self.predict(inputs) == labels))

    def loss(self, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy loss on a labelled set."""
        probabilities = self.forward(inputs)
        labels = np.asarray(labels)
        picked = probabilities[np.arange(labels.size), labels]
        return float(-np.mean(np.log(np.clip(picked, 1e-12, 1.0))))

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, inputs: np.ndarray, labels: np.ndarray,
              epochs: int = 50, learning_rate: float = 0.1,
              batch_size: int = 32,
              seed: Optional[int] = None) -> TrainingResult:
        """Mini-batch gradient descent on the cross-entropy objective."""
        if epochs < 1:
            raise ValueError("need at least one epoch")
        if learning_rate <= 0:
            raise ValueError("the learning rate must be positive")
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        labels = np.asarray(labels)
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError("inputs and labels must be aligned")
        rng = simulation_rng(seed)
        n_samples = inputs.shape[0]
        result = TrainingResult()

        for _epoch in range(epochs):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, batch_size):
                batch = order[start:start + batch_size]
                batch_inputs = inputs[batch]
                batch_labels = labels[batch]
                probabilities = self.forward(batch_inputs)
                one_hot = np.zeros_like(probabilities)
                one_hot[np.arange(batch_labels.size), batch_labels] = 1.0
                gradient = probabilities - one_hot
                for layer in reversed(self.layers):
                    gradient = layer.backward(gradient, learning_rate)
            result.losses.append(self.loss(inputs, labels))
            result.accuracies.append(self.accuracy(inputs, labels))
        return result

    # ------------------------------------------------------------------
    # Hardware targeting
    # ------------------------------------------------------------------
    def quantised(self, weight_format: FixedPointFormat) -> "MLP":
        """A copy of the network with weights and biases in fixed point.

        The copy shares nothing with the original, so the two can be
        evaluated side by side to measure the accuracy cost of the number
        format (experiment A4 in the ablation suite).
        """
        clone = MLP(self.layer_sizes, fan_in=self.fan_in, seed=0)
        for original, copy in zip(self.layers, clone.layers):
            copy.activation = original.activation
            copy.mask = original.mask.copy()
            copy.weights = weight_format.quantise(original.weights) * copy.mask
            copy.biases = weight_format.quantise(original.biases)
        return clone

    def total_connections(self) -> int:
        """Total synapses across all layers (storage proxy for DTCM/SDRAM)."""
        return sum(layer.n_connections for layer in self.layers)


def synthetic_classification_task(n_classes: int = 4, n_features: int = 16,
                                  n_samples_per_class: int = 50,
                                  noise: float = 0.3,
                                  seed: Optional[int] = None
                                  ) -> Tuple[np.ndarray, np.ndarray]:
    """A reproducible noisy-prototype classification dataset.

    Each class is a random binary prototype vector; samples are the
    prototype plus Gaussian noise.  Returns ``(inputs, labels)``.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if n_features < 1 or n_samples_per_class < 1:
        raise ValueError("need positive feature and sample counts")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    rng = simulation_rng(seed)
    prototypes = rng.integers(0, 2, size=(n_classes, n_features)).astype(float)
    inputs = []
    labels = []
    for label, prototype in enumerate(prototypes):
        samples = prototype + rng.normal(0.0, noise,
                                         size=(n_samples_per_class, n_features))
        inputs.append(samples)
        labels.extend([label] * n_samples_per_class)
    stacked = np.vstack(inputs)
    label_array = np.array(labels)
    order = rng.permutation(label_array.size)
    return stacked[order], label_array[order]
