"""Network graphs: directed acyclic graphs of named layers.

A :class:`Network` is built by adding named nodes in topological order. Each
node wraps a :class:`~repro.nn.layers.Layer` and lists its input nodes by
name, which supports the residual (``Add``) and concatenation (``Concat``)
topologies used by the model zoo.

Nodes carry metadata used throughout the repository:

- ``block_id`` groups layers into the architectural blocks (residual blocks,
  inception modules, ...) that blockwise layer removal operates on.
- ``role`` is one of ``"stem"``, ``"feature"`` or ``"head"``; layer removal
  only ever removes ``"feature"`` blocks and replaces the ``"head"``.

Execution has two paths. The default is the interpreted node-by-node walk
below; :meth:`Network.compile` freezes the graph into a fused static
schedule (:mod:`repro.nn.compile`) that ``forward``/``forward_batch``
route through transparently whenever neither ``training`` nor ``capture``
is requested. The plan invalidates itself on structural edits and weight
mutation, and ``copy()``/``subgraph()`` clones always start uncompiled.

The network is the one home of its structural facts: :meth:`Network.consumers`
(who reads each node), :meth:`Network.ancestors` (what a node depends on,
which is what a cut keeps) and :meth:`Network.block_members` (the feature
blocks layer removal works on).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .layers import WEIGHTED_TYPES, Input, Layer

__all__ = ["Node", "Network"]

Shape = tuple[int, ...]


@dataclass
class Node:
    """A named layer instance inside a :class:`Network`."""

    name: str
    layer: Layer
    inputs: list[str] = field(default_factory=list)
    block_id: str | None = None
    role: str = "feature"


class Network:
    """A DAG of layers with forward/backward execution and static analysis.

    Nodes must be added in topological order (inputs before consumers); the
    zoo constructors do this naturally. The last node added is the network
    output unless :attr:`output_name` is reassigned.
    """

    def __init__(self, name: str, input_shape: Shape):
        self.name = name
        self.input_shape = tuple(input_shape)
        self.nodes: dict[str, Node] = {}
        self.output_name: str | None = None
        self._shapes: dict[str, Shape] = {}
        self._mutation_version = 0
        self._compiled = None
        self.add("input", Input(self.input_shape), inputs=[], role="stem")

    # -- construction ------------------------------------------------------
    def add(self, name: str, layer: Layer, inputs: list[str] | str | None = None,
            block_id: str | None = None, role: str = "feature") -> str:
        """Add a node and return its name.

        ``inputs`` defaults to the previously added node, which makes
        sequential construction concise.
        """
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        if role not in ("stem", "feature", "head"):
            raise ValueError(f"unknown role {role!r}")
        if inputs is None:
            if not self.nodes:
                inputs = []
            else:
                inputs = [self.output_name]
        elif isinstance(inputs, str):
            inputs = [inputs]
        for dep in inputs:
            if dep not in self.nodes:
                raise ValueError(f"node {name!r} depends on unknown node {dep!r}")
        self.nodes[name] = Node(name, layer, list(inputs), block_id, role)
        self.output_name = name
        self._mutation_version += 1
        return name

    def build(self, rng: np.random.Generator | int = 0) -> "Network":
        """Infer shapes and allocate all parameters. Returns ``self``."""
        rng = np.random.default_rng(rng)
        self._shapes = {}
        for node in self.nodes.values():
            in_shapes = [self._shapes[d] for d in node.inputs]
            if not isinstance(node.layer, Input):
                node.layer.build(in_shapes, rng)
            self._shapes[node.name] = node.layer.out_shape(
                in_shapes if in_shapes else [self.input_shape])
        self._mutation_version += 1
        return self

    @property
    def built(self) -> bool:
        """Whether :meth:`build` has been called."""
        return bool(self._shapes)

    def shape_of(self, name: str) -> Shape:
        """Output shape (batch excluded) of a node; requires :meth:`build`."""
        if not self._shapes:
            raise RuntimeError("network is not built; call build() first")
        return self._shapes[name]

    # -- compilation -------------------------------------------------------
    def compile(self, force: bool = False):
        """Freeze the graph into a fused static schedule; returns the plan.

        The returned :class:`~repro.nn.compile.CompiledNetwork` is cached;
        :meth:`forward` and :meth:`forward_batch` route through it
        automatically whenever neither ``training`` nor ``capture`` is
        requested. A stale plan (weights
        reassigned, structure edited) is rebuilt transparently. Raw
        in-place writes into a parameter's array bypass version tracking —
        call ``compile(force=True)`` (or :meth:`uncompile`) after those.
        """
        if force or self._compiled is None or not self._compiled.valid:
            from .compile import compile_network
            self._compiled = compile_network(self)
        return self._compiled

    def uncompile(self) -> None:
        """Drop the cached plan; forwards use the interpreted walk again."""
        self._compiled = None

    @property
    def compiled(self) -> bool:
        """Whether a compiled plan is cached (it may still be stale)."""
        return self._compiled is not None

    def _active_plan(self, training: bool, capture):
        """The compiled plan to route through, or None for the interpreter."""
        if self._compiled is None or training or capture is not None:
            return None
        return self.compile()

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False,
                capture: list[str] | None = None):
        """Run the network on a batch.

        Parameters
        ----------
        x:
            Input batch, shape ``(N,) + input_shape``, or one un-batched
            sample of shape ``input_shape`` (a serving request), which is
            expanded to a batch of one and squeezed back on return.
        training:
            Propagated to layers (batch-norm statistics, dropout).
        capture:
            Optional list of node names whose activations to also return.

        Returns
        -------
        The output activation, or ``(output, {name: activation})`` when
        ``capture`` is given.
        """
        if not self._shapes:
            raise RuntimeError("network is not built; call build() first")
        single = x.shape == self.input_shape
        plan = self._active_plan(training, capture)
        if plan is not None:
            out = plan.run(x[None] if single else x)
            return out[0] if single else out
        if single:
            x = x[None]
        acts = self._walk(x, training, capture or ())
        out = acts[self.output_name]
        if single:
            out = out[0]
            if capture is not None:
                return out, {k: acts[k][0] for k in capture}
            return out
        if capture is not None:
            return out, {k: acts[k] for k in capture}
        return out

    def forward_one(self, x: np.ndarray, training: bool = False,
                    capture: list[str] | None = None):
        """Run the network on exactly one un-batched sample.

        The explicit single-sample API: ``x`` must have shape
        ``input_shape`` (no batch axis) or a ``ValueError`` is raised,
        unlike :meth:`forward`'s implicit shape sniffing, which cannot
        distinguish a single sample from a batch whose leading dimension
        happens to match. Returns the un-batched output (and un-batched
        captured activations when ``capture`` is given).
        """
        x = np.asarray(x)
        if x.shape != self.input_shape:
            raise ValueError(
                f"forward_one expects one sample of shape "
                f"{self.input_shape}, got {x.shape}")
        return self.forward(x, training=training, capture=capture)

    def forward_batch(self, samples, training: bool = False) -> np.ndarray:
        """Run many single samples as ONE stacked forward pass.

        This is the micro-batching hot path: instead of a per-sample Python
        loop over :meth:`forward` (paying the full interpreter and
        layer-dispatch overhead N times), the samples are stacked into a
        single ``(N,) + input_shape`` batch and pushed through the vectorised
        layers once. Returns the batched output; row ``i`` is the output for
        ``samples[i]``.
        """
        if not samples:
            raise ValueError("forward_batch needs at least one sample")
        return self.forward(np.stack([np.asarray(s) for s in samples]),
                            training=training)

    def _walk(self, x: np.ndarray, training: bool,
              keep=()) -> dict[str, np.ndarray]:
        """The interpreted node-by-node forward pass.

        Returns the activations of the output node and of ``keep``; every
        other activation is freed once its last consumer has run, which
        bounds memory (backward reads the layers' own caches).
        """
        acts: dict[str, np.ndarray] = {}
        pending = {name: len(users)
                   for name, users in self.consumers().items()}
        keep = {*keep, self.output_name}
        for node in self.nodes.values():
            ins = [acts[d] for d in node.inputs] if node.inputs else [x]
            acts[node.name] = node.layer.forward(ins, training=training)
            for d in node.inputs:
                pending[d] -= 1
                if pending[d] == 0 and d not in keep:
                    acts.pop(d, None)
        return acts

    def forward_backward(self, x: np.ndarray, grad_out: np.ndarray | None = None,
                         loss_fn=None, y: np.ndarray | None = None,
                         training: bool = True):
        """Full forward pass followed by backpropagation.

        Either supply ``grad_out`` (gradient of the loss w.r.t. the network
        output) directly, or a ``loss_fn(pred, y) -> (loss, grad)`` pair.

        Returns ``(output, loss)`` where ``loss`` is ``None`` when
        ``grad_out`` was supplied.
        """
        if not self._shapes:
            raise RuntimeError("network is not built; call build() first")
        out = self._walk(x, training)[self.output_name]
        loss = None
        if grad_out is None:
            if loss_fn is None or y is None:
                raise ValueError("need grad_out or (loss_fn, y)")
            loss, grad_out = loss_fn(out, y)
        grads: dict[str, np.ndarray] = {self.output_name: grad_out}
        for node in reversed(self.nodes.values()):
            g = grads.pop(node.name, None)
            if g is None:
                continue
            in_grads = node.layer.backward(g)
            for dep, dg in zip(node.inputs, in_grads):
                if dep in grads:
                    grads[dep] = grads[dep] + dg
                else:
                    grads[dep] = dg
        return out, loss

    # -- parameters ---------------------------------------------------------
    def parameters(self, trainable_only: bool = True):
        """Yield ``(qualified_name, Parameter)`` pairs."""
        for node in self.nodes.values():
            if trainable_only and node.layer.frozen:
                continue
            for pname, p in node.layer.params.items():
                yield f"{node.name}.{pname}", p

    def zero_grad(self) -> None:
        """Reset every parameter gradient."""
        for node in self.nodes.values():
            node.layer.zero_grad()

    def freeze(self, predicate=None) -> None:
        """Freeze layers matched by ``predicate(node) -> bool`` (default all)."""
        for node in self.nodes.values():
            if predicate is None or predicate(node):
                node.layer.frozen = True

    def unfreeze(self, predicate=None) -> None:
        """Unfreeze layers matched by ``predicate`` (default all)."""
        for node in self.nodes.values():
            if predicate is None or predicate(node):
                node.layer.frozen = False

    # -- static analysis ----------------------------------------------------
    def in_shapes(self, name: str) -> list[Shape]:
        """Input shapes of a node (the network input shape for the root)."""
        node = self.nodes[name]
        if not node.inputs:
            return [self.input_shape]
        return [self.shape_of(d) for d in node.inputs]

    def total_flops(self) -> int:
        """Per-example forward FLOPs of the whole network."""
        return sum(node.layer.flops(self.in_shapes(node.name))
                   for node in self.nodes.values())

    def total_params(self) -> int:
        """Total trainable scalar count."""
        return sum(node.layer.param_count() for node in self.nodes.values())

    def layer_count(self, roles: tuple[str, ...] = ("stem", "feature", "head")) -> int:
        """Number of weighted layers (conv/dense), the paper's depth metric."""
        return sum(1 for node in self.nodes.values()
                   if node.role in roles
                   and isinstance(node.layer, WEIGHTED_TYPES))

    def consumers(self) -> dict[str, list[str]]:
        """Each node's consumers in topological order: the nodes that list
        it as an input, once per listing."""
        users: dict[str, list[str]] = {name: [] for name in self.nodes}
        for node in self.nodes.values():
            for dep in node.inputs:
                users[dep].append(node.name)
        return users

    def ancestors(self, name: str) -> set[str]:
        """``name`` and every node it transitively depends on.

        This is the node set a cut at ``name`` keeps (:meth:`subgraph`);
        its complement is what the cut removes.
        """
        if name not in self.nodes:
            raise KeyError(f"no node named {name!r}")
        kept: set[str] = set()
        stack = [name]
        while stack:
            cur = stack.pop()
            if cur not in kept:
                kept.add(cur)
                stack.extend(self.nodes[cur].inputs)
        return kept

    def block_members(self) -> dict[str, list[str]]:
        """Feature nodes grouped by ``block_id``: blocks in topological
        order of their first node, members in topological order (so a
        block's last member carries its output)."""
        members: dict[str, list[str]] = {}
        for node in self.nodes.values():
            if node.role == "feature" and node.block_id is not None:
                members.setdefault(node.block_id, []).append(node.name)
        return members

    def describe(self) -> str:
        """Human-readable layer table (name, type, block, shape, params)."""
        lines = [f"Network {self.name!r}  input={self.input_shape}",
                 f"{'name':28s} {'type':16s} {'block':12s} {'out shape':16s} {'params':>10s}"]
        for node in self.nodes.values():
            shape = str(self.shape_of(node.name)) if self._shapes else "?"
            lines.append(
                f"{node.name:28s} {type(node.layer).__name__:16s} "
                f"{str(node.block_id):12s} {shape:16s} "
                f"{node.layer.param_count():>10d}")
        lines.append(f"total params: {self.total_params():,}  "
                     f"flops/example: {self.total_flops():,}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz DOT source of the network's topology.

        Nodes are grouped into clusters by ``block_id``; stem, feature and
        head roles get distinct fill colours. Render with
        ``dot -Tsvg net.dot -o net.svg``.
        """
        colors = {"stem": "lightblue", "feature": "white",
                  "head": "lightyellow"}
        lines = [f'digraph "{self.name}" {{',
                 "  rankdir=TB;",
                 "  node [shape=box, style=filled];"]
        by_block: dict[str, list[Node]] = {}
        loose: list[Node] = []
        for node in self.nodes.values():
            if node.block_id is not None:
                by_block.setdefault(node.block_id, []).append(node)
            else:
                loose.append(node)

        def node_line(node: Node) -> str:
            shape = (f"\\n{self.shape_of(node.name)}"
                     if self._shapes else "")
            return (f'    "{node.name}" '
                    f'[label="{node.name}\\n{type(node.layer).__name__}'
                    f'{shape}", fillcolor={colors[node.role]}];')

        for block, nodes in by_block.items():
            lines.append(f'  subgraph "cluster_{block}" {{')
            lines.append(f'    label="{block}";')
            lines.extend(node_line(n) for n in nodes)
            lines.append("  }")
        lines.extend("  " + node_line(n).strip() for n in loose)
        for node in self.nodes.values():
            for dep in node.inputs:
                lines.append(f'  "{dep}" -> "{node.name}";')
        lines.append("}")
        return "\n".join(lines)

    # -- structural edits & persistence --------------------------------------
    def copy(self) -> "Network":
        """Deep copy: new layer objects, independent parameters."""
        return self._clone(self.nodes, self.name, self.output_name)

    def subgraph(self, upto: str, name: str | None = None) -> "Network":
        """Deep-copied prefix of the network ending at node ``upto``.

        Only :meth:`ancestors` of ``upto`` are retained. Used by layer
        removal to build trimmed feature extractors.
        """
        return self._clone(self.ancestors(upto),
                           name or f"{self.name}[:{upto}]", upto)

    def _clone(self, keep, name: str, output_name: str) -> "Network":
        """An uncompiled deep copy of the nodes in ``keep``."""
        clone = Network.__new__(Network)
        clone.name = name
        clone.input_shape = self.input_shape
        clone.output_name = output_name
        clone._mutation_version = 0
        clone._compiled = None
        clone.nodes = {
            n: Node(n, copy.deepcopy(node.layer), list(node.inputs),
                    node.block_id, node.role)
            for n, node in self.nodes.items() if n in keep}
        clone._shapes = {k: v for k, v in self._shapes.items() if k in keep}
        return clone

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of every parameter and batch-norm running statistic."""
        state: dict[str, np.ndarray] = {}
        for node in self.nodes.values():
            for pname, p in node.layer.params.items():
                state[f"{node.name}.{pname}"] = p.value.copy()
            if hasattr(node.layer, "running_mean") and node.layer.running_mean is not None:
                state[f"{node.name}.running_mean"] = node.layer.running_mean.copy()
                state[f"{node.name}.running_var"] = node.layer.running_var.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray],
                        strict: bool = True) -> None:
        """Load parameters saved by :meth:`state_dict`.

        With ``strict=False``, keys that do not exist in this network are
        ignored (used when loading pretrained weights into a trimmed net).
        """
        self._mutation_version += 1
        for node in self.nodes.values():
            for pname, p in node.layer.params.items():
                key = f"{node.name}.{pname}"
                if key in state:
                    if p.value.shape != state[key].shape:
                        raise ValueError(
                            f"shape mismatch for {key}: "
                            f"{p.value.shape} vs {state[key].shape}")
                    p.value = state[key].astype(np.float32).copy()
                elif strict:
                    raise KeyError(f"missing parameter {key}")
            if hasattr(node.layer, "running_mean") and node.layer.running_mean is not None:
                mkey = f"{node.name}.running_mean"
                if mkey in state:
                    node.layer.running_mean = state[mkey].copy()
                    node.layer.running_var = state[f"{node.name}.running_var"].copy()
                elif strict:
                    raise KeyError(f"missing statistic {mkey}")
