"""The COSTREAM GNN (paper Section III-B, Algorithm 1).

Node features are embedded by *node-type-specific* MLP encoders into
hidden states; the hidden states are then refined by the paper's staged
message-passing scheme:

1. ``OPS -> HW`` — operators inform their hosts of their demands;
2. ``HW -> OPS`` — hosts inform their operators of their capacities;
3. ``SOURCES -> OPS`` — a topological sweep along the data flow, so
   stream characteristics propagate from the sources to the sink;
4. readout — hidden states are summed per graph and a final MLP maps
   the pooled state to the cost prediction.

Every update follows Algorithm 1: the sum of incoming child states is
combined with the node's own state and fed through a node-type-specific
update MLP.  The *traditional* scheme (Exp 7b ablation) instead runs
synchronous rounds where every node aggregates all of its neighbors,
regardless of type and direction.

:class:`CostreamGNN` holds one network's parameters and its taped
(autodiff) forward, the gradient oracle of the test suite.  Every
production forward and training step runs on a :class:`MemberStack`:
K same-architecture networks (ensemble members, or a single model as
K=1) stacked into 3-D weight tensors, with one array forward and one
hand-written backward.
"""

from __future__ import annotations

import numpy as np

from ..nn import MLP, Module, StackedMLP, Tensor, concat, gather, \
    scatter_rows, segment_sum
from ..nn.autodiff import (_legacy_kernels_enabled,
                           flat_scatter_add as _flat_scatter_add,
                           gather_segment_sum, stacked_flat_scatter_add)
from ..nn.losses import _loss_and_grad_arrays
from .features import Featurizer, NODE_TYPES
from .graph import GraphBatch, StageSlice

__all__ = ["CostreamGNN", "MemberStack", "StackCache", "MESSAGE_SCHEMES"]

MESSAGE_SCHEMES = ("staged", "traditional")


def _segmented_readout(readout, pooled: np.ndarray,
                       segments: np.ndarray | None) -> np.ndarray:
    """Readout over ``(K, n_graphs, hidden)`` pooled member states,
    one GEMM per merged segment.

    For directly collated batches (``segments is None``) this is one
    readout call.  For batches produced by
    :func:`repro.core.graph.merge_batches` it replays the readout with
    each source batch's original row count: the final ``(n, hidden) @
    (hidden, 1)`` GEMM is the one kernel whose per-row results depend
    on ``n`` (BLAS switches kernels with the row count), so the merged
    forward would otherwise drift from per-batch scoring at the last
    ulp.
    """
    if segments is None:
        return np.squeeze(readout.forward_array(pooled), axis=-1)
    outputs = []
    start = 0
    for count in segments:
        outputs.append(readout.forward_array(
            pooled[:, start:start + int(count)]))
        start += int(count)
    return np.squeeze(np.concatenate(outputs, axis=1), axis=-1)


class CostreamGNN(Module):
    """One cost-metric head over the joint operator-resource graph.

    The network outputs one scalar per graph: the ``log1p`` of the cost
    for regression metrics, or a logit for the binary metrics.
    """

    def __init__(self, featurizer: Featurizer | None = None,
                 hidden_dim: int = 48, seed: int = 0,
                 scheme: str = "staged", traditional_rounds: int = 3):
        if scheme not in MESSAGE_SCHEMES:
            raise ValueError(f"unknown message-passing scheme {scheme!r}")
        self.featurizer = featurizer or Featurizer()
        self.hidden_dim = hidden_dim
        self.scheme = scheme
        self.traditional_rounds = traditional_rounds
        rng = np.random.default_rng(seed)
        self.encoders: dict[str, MLP] = {
            node_type: MLP(self.featurizer.feature_dim(node_type),
                           [hidden_dim], hidden_dim, rng)
            for node_type in NODE_TYPES}
        self.combiners: dict[str, MLP] = {
            node_type: MLP(2 * hidden_dim, [hidden_dim], hidden_dim, rng)
            for node_type in NODE_TYPES}
        self.readout = MLP(hidden_dim, [hidden_dim], 1, rng)

    # ------------------------------------------------------------------
    def forward(self, batch: GraphBatch) -> Tensor:
        """The taped forward: the reference every :class:`MemberStack`
        forward and gradient is tested against."""
        hidden = self._encode(batch)
        if self.scheme == "staged":
            hidden = self._apply_stage(hidden, batch.ops_to_hw)
            hidden = self._apply_stage(hidden, batch.hw_to_ops)
            for level in batch.flow_levels:
                hidden = self._apply_stage(hidden, level)
        else:
            for _ in range(self.traditional_rounds):
                hidden = self._apply_stage(hidden, batch.neighbor_rounds,
                                           simultaneous=True)
        pooled = segment_sum(hidden, batch.graph_id, batch.n_graphs)
        return self.readout(pooled).squeeze(-1)

    def _encode(self, batch: GraphBatch) -> Tensor:
        hidden = Tensor(np.zeros((batch.n_nodes, self.hidden_dim)))
        for node_type, rows in batch.type_rows.items():
            states = self.encoders[node_type](
                Tensor(batch.type_features[node_type]))
            hidden = scatter_rows(hidden, rows, states)
        return hidden

    def _apply_stage(self, hidden: Tensor,
                     slices: dict[str, StageSlice],
                     simultaneous: bool = False) -> Tensor:
        """One Algorithm-1 update step over a set of receiver slices."""
        source = hidden  # read every slice from the pre-update states
        for node_type, stage in slices.items():
            if stage.recv_rows.size == 0:
                continue
            if stage.edge_src.size:
                if _legacy_kernels_enabled():
                    messages = gather(source, stage.edge_src)
                    aggregated = segment_sum(messages, stage.edge_seg,
                                             stage.recv_rows.size)
                else:
                    aggregated = gather_segment_sum(
                        source, stage.edge_src, stage.edge_seg,
                        stage.recv_rows.size)
            else:
                aggregated = Tensor(np.zeros((stage.recv_rows.size,
                                              self.hidden_dim)))
            own = gather(source, stage.recv_rows)
            combined = concat([aggregated, own], axis=-1)
            updated = self.combiners[node_type](combined)
            hidden = scatter_rows(hidden, stage.recv_rows, updated)
            if not simultaneous:
                source = hidden
        return hidden


class MemberStack:
    """K same-architecture networks stacked: the GNN array engine.

    Every encoder/combiner/readout GEMM runs once over ``(K, n, d)``
    activations and stacked weights (:class:`repro.nn.StackedMLP`), so
    ensemble members — or a single :class:`~repro.core.training.
    CostModel` as K=1 — share one forward and one manual training step
    (:meth:`loss_and_grad`).  Each batched kernel replays the 2-D
    kernel of the taped :meth:`CostreamGNN.forward` per member slice,
    so float64 outputs, losses and gradients are bitwise identical to
    the per-member tape (``tests/test_tape_oracle.py``).

    Weights are *copied* in at construction (cast once when ``dtype``
    is float32 — :class:`repro.nn.float32_inference`).  float64 stacks
    are also trainable: their weights are gradient-carrying Tensors
    (:meth:`parameters`), stepped in place by
    :class:`repro.nn.StackedAdam`, and member slices are written back
    through :meth:`member_state` + ``load_state_dict``.
    """

    def __init__(self, networks: list[CostreamGNN],
                 dtype=np.float64):
        if not networks:
            raise ValueError("cannot stack an empty list of networks")
        template = networks[0]
        for network in networks[1:]:
            if (network.hidden_dim != template.hidden_dim
                    or network.scheme != template.scheme
                    or network.traditional_rounds
                    != template.traditional_rounds
                    or set(network.encoders) != set(template.encoders)):
                raise ValueError(
                    "cannot stack networks with mismatched "
                    "architectures")
        self.size = len(networks)
        self.hidden_dim = template.hidden_dim
        self.scheme = template.scheme
        # Staged updates are one round; traditional rounds repeat the
        # neighbor update.
        self.rounds = (1 if self.scheme == "staged"
                       else template.traditional_rounds)
        self.dtype = np.dtype(dtype)
        self.encoders = {
            node_type: StackedMLP.from_mlps(
                [n.encoders[node_type] for n in networks], self.dtype)
            for node_type in template.encoders}
        self.combiners = {
            node_type: StackedMLP.from_mlps(
                [n.combiners[node_type] for n in networks], self.dtype)
            for node_type in template.combiners}
        self.readout = StackedMLP.from_mlps(
            [n.readout for n in networks], self.dtype)
        if self.dtype == np.float64:
            for mlp in self._stacked_mlps():
                mlp.make_trainable()
        self._member_shapes = [param.data.shape
                               for param in template.parameters()]

    def _stacked_mlps(self):
        """Stacked MLPs in :meth:`CostreamGNN.parameters` order."""
        yield from self.encoders.values()
        yield from self.combiners.values()
        yield self.readout

    def parameters(self) -> list[Tensor]:
        """Stacked parameter Tensors (float64 stacks only), ordered so
        index ``i`` stacks the member networks' ``parameters()[i]``."""
        return [param for mlp in self._stacked_mlps()
                for param in mlp.trainable_parameters()]

    def member_state(self, member: int) -> dict[str, np.ndarray]:
        """One member's parameter slices as a
        :meth:`~repro.nn.Module.state_dict` (member-shaped copies)."""
        return {f"p{i}": param.data[member].reshape(shape).copy()
                for i, (param, shape)
                in enumerate(zip(self.parameters(),
                                 self._member_shapes))}

    # ------------------------------------------------------------------
    def _aggregate(self, flat_index: np.ndarray, values: np.ndarray,
                   n_rows: int) -> np.ndarray:
        """Member-stacked scatter-add, cast back to the stack dtype.

        ``np.bincount`` always accumulates in float64; the float32 mode
        therefore aggregates messages in float64 and casts the (small)
        per-receiver sums back — the GEMMs, which dominate, stay in
        float32.
        """
        out = stacked_flat_scatter_add(flat_index, values, n_rows)
        if self.dtype != np.float64:
            out = out.astype(self.dtype)
        return out

    def forward(self, batch: GraphBatch) -> np.ndarray:
        """All members' raw outputs for one batch: ``(K, n_graphs)``.

        The K members' hidden states live in one ``(K * n_nodes,
        hidden_dim)`` buffer (member ``k`` owns the rows ``[k * n_nodes,
        (k + 1) * n_nodes)``): gathers and scatters are single axis-0
        fancy indexes over member-tiled row indices cached on the batch
        (:meth:`~repro.core.graph.GraphBatch.member_stage_plan`), each
        message scatter-add is one member-tiled bincount, and only the
        GEMM inputs are viewed as ``(K, n, d)`` stacks.  Inference and
        the per-epoch validation pass both run here.
        """
        size = self.size
        hidden_dim = self.hidden_dim
        n_nodes = batch.n_nodes
        hidden = np.zeros((size * n_nodes, hidden_dim), dtype=self.dtype)
        features = batch.cast_type_features(self.dtype)
        for node_type, rows in batch.member_type_rows(size).items():
            hidden[rows] = self.encoders[node_type].forward_array(
                features[node_type]).reshape(-1, hidden_dim)
        combiners = self.combiners
        plan = batch.member_stage_plan(hidden_dim, size, self.scheme)
        for _ in range(self.rounds):
            # Staged updates read the states updated so far, in place;
            # a traditional round reads its pre-round states.
            source = hidden if self.scheme == "staged" else hidden.copy()
            for node_type, recv, src, flat_seg, n_recv in plan:
                if src is not None:
                    messages = source[src].reshape(size, -1, hidden_dim)
                    aggregated = self._aggregate(flat_seg, messages,
                                                 n_recv)
                else:
                    aggregated = np.zeros((size, n_recv, hidden_dim),
                                          dtype=self.dtype)
                combined = np.concatenate(
                    [aggregated,
                     source[recv].reshape(size, n_recv, hidden_dim)],
                    axis=-1)
                hidden[recv] = combiners[node_type].forward_array(
                    combined).reshape(-1, hidden_dim)
        pooled = self._aggregate(
            batch.member_flat_graph_id(hidden_dim, size),
            hidden.reshape(size, n_nodes, hidden_dim), batch.n_graphs)
        return _segmented_readout(self.readout, pooled,
                                  batch.readout_segments)

    def loss_over_batches(self, pairs, loss_kind: str) -> np.ndarray:
        """``(K,)`` graph-count-weighted mean losses over pre-collated
        ``(batch, labels)`` pairs."""
        total = np.zeros(self.size)
        count = 0
        for batch, chunk_labels in pairs:
            raw = self.forward(batch).reshape(self.size, -1)
            for member in range(self.size):
                loss, _ = _loss_and_grad_arrays(raw[member],
                                                chunk_labels, loss_kind)
                total[member] += loss * batch.n_graphs
            count += batch.n_graphs
        return total / max(count, 1)

    # ------------------------------------------------------------------
    def loss_and_grad(self, batch: GraphBatch, labels: np.ndarray,
                      loss_kind: str) -> np.ndarray:
        """One training step; returns the ``(K,)`` loss values.

        Forward and backward are written out by hand, replaying the
        kernels of the taped path in the order the tape executes them,
        so every member's loss value and parameter gradients are
        bitwise identical to the taped backward pass of its own
        network.  Gathers and row updates index one ``(K * n_nodes,
        hidden)`` buffer through row-tiled indices
        (:meth:`~repro.core.graph.GraphBatch.member_train_plan`); every
        GEMM runs stacked over the member axis; every scatter-add loops
        the per-member bincount kernel over one untiled flat index.
        Losses and output gradients come from the per-member loss
        kernel; gradients accumulate into the stacked parameter
        Tensors (float64 stacks only).
        """
        size = self.size
        hidden_dim = self.hidden_dim
        n_nodes = batch.n_nodes
        staged = self.scheme == "staged"
        hidden = np.zeros((size * n_nodes, hidden_dim))
        hidden3 = hidden.reshape(size, n_nodes, hidden_dim)
        encode_cache = []
        for node_type, rows in batch.member_type_rows(size).items():
            out, cache = self.encoders[node_type].forward_array_cached(
                batch.type_features[node_type])
            hidden[rows] = out.reshape(-1, hidden_dim)
            encode_cache.append((node_type, rows, cache))

        combiners = self.combiners
        plan = batch.member_train_plan(size, self.scheme)
        round_caches = []
        for _ in range(self.rounds):
            source = hidden if staged else hidden.copy()
            caches = []
            for entry in plan:
                node_type, stage, recv, src, _ = entry
                n_recv = stage.recv_rows.size
                combined = np.empty((size, n_recv, 2 * hidden_dim))
                if src is not None:
                    messages = source[src].reshape(size, -1, hidden_dim)
                    flat_seg = stage.flat_seg(hidden_dim)
                    for k in range(size):
                        combined[k, :, :hidden_dim] = _flat_scatter_add(
                            flat_seg, messages[k], n_recv)
                else:
                    combined[:, :, :hidden_dim] = 0.0
                combined[:, :, hidden_dim:] = source[recv].reshape(
                    size, n_recv, hidden_dim)
                out, cache = combiners[node_type].forward_array_cached(
                    combined)
                hidden[recv] = out.reshape(-1, hidden_dim)
                caches.append((entry, cache))
            round_caches.append(caches)

        flat_gid = batch.flat_graph_id(hidden_dim)
        pooled = np.empty((size, batch.n_graphs, hidden_dim))
        for k in range(size):
            pooled[k] = _flat_scatter_add(flat_gid, hidden3[k],
                                          batch.n_graphs)
        raw, readout_cache = self.readout.forward_array_cached(pooled)
        pred = np.squeeze(raw, axis=-1).reshape(size, -1)
        losses = np.empty(size)
        grad_pred = np.empty_like(pred)
        for k in range(size):
            losses[k], grad_pred[k] = _loss_and_grad_arrays(
                pred[k], labels, loss_kind)

        grad_pooled = self.readout.backward_array(
            grad_pred[:, :, None], readout_cache)
        grad_hidden = grad_pooled.reshape(-1, hidden_dim)[
            batch.member_graph_rows(size)]
        # The tape adds each update's dense scatter-add arrays to the
        # whole gradient, turning every -0.0 into +0.0; one ``+= 0.0``
        # here does the same, after which no -0.0 can arise (x + y is
        # -0.0 only for x = y = -0.0), so the own-state gradients below
        # add to their rows only.
        grad_hidden += 0.0
        grad_hidden3 = grad_hidden.reshape(size, n_nodes, hidden_dim)
        for caches in reversed(round_caches):
            # A backward step covers the updates that read one source
            # state: each staged update reads its predecessor's output,
            # a traditional round reads one pre-round state.  The
            # source's gradient receives, in the tape's order, the
            # scatter base (updated rows zeroed), then per update its
            # message aggregation and its own-state gather.
            steps = ([[item] for item in reversed(caches)] if staged
                     else [caches])
            for step in steps:
                grad_updated = [
                    grad_hidden[entry[2]].reshape(size, -1, hidden_dim)
                    for entry, _ in step]
                for entry, _ in step:
                    grad_hidden[entry[2]] = 0.0
                for (entry, cache), grad_out in zip(step, grad_updated):
                    node_type, stage, recv, src, seg = entry
                    grad_combined = combiners[node_type].backward_array(
                        grad_out, cache)
                    if src is not None:
                        grad_messages = grad_combined[
                            :, :, :hidden_dim].reshape(-1, hidden_dim)[
                            seg].reshape(size, -1, hidden_dim)
                        # Built per step, not cached on the batch: a
                        # training batch is consumed once.
                        flat_src = (stage.edge_src[:, None] * hidden_dim
                                    + np.arange(hidden_dim)).ravel()
                        for k in range(size):
                            grad_hidden3[k] += _flat_scatter_add(
                                flat_src, grad_messages[k], n_nodes)
                    # Receiver rows are unique: the tape's dense
                    # ``_scatter_add(recv, grad_own, n)`` only adds at
                    # them.
                    grad_hidden[recv] += grad_combined[
                        :, :, hidden_dim:].reshape(-1, hidden_dim)
        for node_type, rows, cache in reversed(encode_cache):
            self.encoders[node_type].backward_array(
                grad_hidden[rows].reshape(size, -1, hidden_dim), cache,
                input_grad=False)
        return losses


class StackCache:
    """:class:`MemberStack` snapshots of fixed networks, per dtype.

    A stack is rebuilt when any network's parameter array was
    *replaced* since it was built: staleness is object identity
    against the arrays the stacks were built from.  Strong references
    are held, so a freed-and-reallocated array can never alias a stale
    snapshot, and every ``load_state_dict`` (the end of each training
    run, and persistence loading) replaces the arrays and is caught.
    Only in-place writes to ``param.data`` need an explicit
    :meth:`clear`.
    """

    def __init__(self, networks: list[CostreamGNN]):
        self.networks = networks
        self._stacks: dict[str, MemberStack] = {}
        self._params: list[np.ndarray] | None = None
        # The parameter Tensors are static after construction; caching
        # them makes the per-call staleness check an identity sweep
        # instead of a module-tree walk.
        self._tensors: list[Tensor] | None = None

    def clear(self) -> None:
        self._stacks.clear()
        self._params = None
        self._tensors = None

    def get(self, dtype=np.float64) -> MemberStack:
        if self._tensors is None:
            self._tensors = [param for network in self.networks
                             for param in network.parameters()]
        params = [param.data for param in self._tensors]
        if self._params is None or any(
                a is not b for a, b in zip(params, self._params)):
            self._stacks.clear()
            self._params = params
        dtype = np.dtype(dtype)
        stack = self._stacks.get(dtype.str)
        if stack is None:
            stack = MemberStack(self.networks, dtype)
            self._stacks[dtype.str] = stack
        return stack
