"""Grid-structured segmentation network.

The model is a two-dimensional lattice: horizontal *streams* keep a fixed
resolution and channel width, vertical *columns* either halve resolution
while doubling channels (subsampling) or do the reverse (upsampling).
Stream i carries base_channels * 2**i channels at the input resolution
ceil-halved i times.

Column update, with X[i][j] the output of the block at stream i, column j:

  subsampling column:  X[i][j] = X[i][j-1] + R(X[i][j-1]) + D(X[i-1][j])
  upsampling column:   X[i][j] = X[i][j-1] + R(X[i][j-1]) + U(X[i+1][j])

R is a preactivation residual unit; D and U are one resampling unit, a
stride-2 convolution going down and its transposed convolution, the exact
adjoint, going up. Missing neighbors at the grid border simply drop their
term. Subsampling columns evaluate top-to-bottom so D consumes the same
column; upsampling columns evaluate bottom-to-top. Information enters
through a stem on stream 0 and leaves through a 1x1 head on stream 0
after the last column.

Connections can be switched off per block via a :class:`ConnectionMask`;
presets reproduce classic topologies (single encoder-decoder path, the
same with skip wires, and a full-resolution residual stream over a
non-residual down/up path). A masked model is the full grid with some
connections removed: it allocates every unit of the full grid, with the
full grid's initialization, and its switched-off units stay frozen.

The evaluation order is written once, in :func:`_order`, and the block
rule once, in :func:`_blocks`: walking that order against a mask, it
yields each block that carries a value, with whether its identity wire
carries a value, whether its residual unit runs and which stream its
vertical unit reads. :class:`GridModel` allocates units by that walk
under an all-on mask and keeps the walk under its own mask, in order, as
its ``plan``, the one record of which blocks run. The forward pass, the
dropout gates, :func:`activation_tally` and :func:`grid_report` read
only the plan.

A block's fusion is written once, in :meth:`GridModel.forward`: sum
fusion adds (identity + residual) + vertical; concat fusion stacks the
same two values as channel slots and projects them back with a 1x1
conv. The slot layout follows the units the block allocates, the
horizontal slot iff it has a residual unit and the vertical slot iff it
has a resampling unit, so it is the full grid's layout under any mask.

Parameter and buffer names are attribute paths, collected by
:func:`named_leaves`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import ops
from .tensor import Tape, Tensor

SUB = "sub"
UP = "up"
_MASK_PRESETS = ("full", "conv_deconv", "u_net", "frrn")
# caps far above any grid numpy can train; they turn an absurd spec into a
# ValueError naming its field before any arithmetic or allocation overflows
MAX_STREAMS = 16
MAX_WIDTH = 1 << 16  # channels of any stream, image channels and classes


# ---------------------------------------------------------------------------
# model description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Static description of a grid model."""

    n_streams: int
    column_kinds: tuple[str, ...]
    base_channels: int = 16
    num_classes: int = 19
    image_channels: int = 3
    dropout_p: float = 0.9
    fusion: str = "sum"
    vertical_residual: bool = False
    mask: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "column_kinds", tuple(self.column_kinds))
        for name, low, high in (("n_streams", 1, MAX_STREAMS), ("base_channels", 1, MAX_WIDTH),
                                ("num_classes", 2, MAX_WIDTH), ("image_channels", 1, MAX_WIDTH)):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value}")
            if not low <= value <= high:
                raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
        widest = self.stream_channels(self.n_streams - 1)
        if widest > MAX_WIDTH:
            raise ValueError(f"base_channels * 2**(n_streams - 1), the widest stream, must "
                             f"be at most {MAX_WIDTH}, got {widest}")
        bad = [k for k in self.column_kinds if k not in (SUB, UP)]
        if bad:
            raise ValueError(f"column kinds must be '{SUB}' or '{UP}', got {bad}")
        if isinstance(self.dropout_p, bool) or not 0.0 <= self.dropout_p <= 1.0:
            raise ValueError(f"dropout_p must be a number in [0, 1], got {self.dropout_p}")
        if self.fusion not in ("sum", "concat"):
            raise ValueError(f"fusion must be 'sum' or 'concat', got {self.fusion!r}")
        if not isinstance(self.vertical_residual, bool):
            raise ValueError(f"vertical_residual must be true or false, got "
                             f"{self.vertical_residual!r}")
        preset_mask(self.mask, self)  # the preset must exist and fit this grid

    @property
    def n_columns(self) -> int:
        return len(self.column_kinds)

    @property
    def n_sub(self) -> int:
        return sum(1 for k in self.column_kinds if k == SUB)

    @property
    def n_up(self) -> int:
        return sum(1 for k in self.column_kinds if k == UP)

    @property
    def min_side(self) -> int:
        """Smallest input side that every stream can halve down to."""
        return 1 << (self.n_streams - 1)

    def stream_channels(self, i: int) -> int:
        return self.base_channels * (1 << i)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return out | {"column_kinds": list(self.column_kinds)}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown grid spec keys: {sorted(unknown)}")
        return cls(**d)


def symmetric_columns(n_sub: int, n_up: int) -> tuple[str, ...]:
    """All subsampling columns followed by all upsampling columns."""
    return (SUB,) * n_sub + (UP,) * n_up


def stream_dims(spec: GridSpec, i: int, input_hw) -> tuple[int, int, int]:
    """(channels, height, width) of stream i for the given input size."""
    if not 0 <= i < spec.n_streams:
        raise ValueError(f"stream index {i} outside [0, {spec.n_streams})")
    h, w = int(input_hw[0]), int(input_hw[1])
    if h < 1 or w < 1:
        raise ValueError(f"input size must be positive, got {(h, w)}")
    for _ in range(i):
        h = (h + 1) // 2
        w = (w + 1) // 2
    return spec.stream_channels(i), h, w


# ---------------------------------------------------------------------------
# connection mask
# ---------------------------------------------------------------------------


@dataclass
class ConnectionMask:
    """Per-block connection gates, indexed [stream, column].

    ``horizontal_on`` gates the whole horizontal edge (the identity wire
    and the residual unit riding on it); ``residual_on`` additionally
    gates just the learned residual mapping, so a block can pass its
    predecessor through unchanged. ``vertical_on`` gates the resampling
    edge. Gates on edges that do not exist structurally are ignored.
    """

    horizontal_on: np.ndarray
    residual_on: np.ndarray
    vertical_on: np.ndarray

    def __post_init__(self):
        shapes = {a.shape for a in (self.horizontal_on, self.residual_on, self.vertical_on)}
        if len(shapes) != 1:
            raise ValueError(f"mask field shapes differ: {shapes}")

    @classmethod
    def all_on(cls, spec: GridSpec) -> "ConnectionMask":
        shape = (spec.n_streams, spec.n_columns)
        return cls(np.ones(shape, bool), np.ones(shape, bool), np.ones(shape, bool))


def preset_mask(name: str, spec: GridSpec) -> ConnectionMask:
    """Build one of the named connection-mask presets for this spec."""
    if name == "full":
        return ConnectionMask.all_on(spec)
    if name not in _MASK_PRESETS:
        raise ValueError(f"unknown mask preset {name!r}; choose from {_MASK_PRESETS}")
    if spec.n_streams < 2:
        raise ValueError(f"mask preset {name!r} needs at least two streams")
    if name == "frrn":
        mask = ConnectionMask.all_on(spec)
        mask.residual_on[1:] = False  # stream 0 keeps its residual units; deeper streams are wires
        return mask
    n_sub, n_up, deepest = spec.n_sub, spec.n_up, spec.n_streams - 1
    if n_sub < 1 or n_up < 1:
        raise ValueError(f"mask preset {name!r} needs at least one sub and one up column")
    if spec.column_kinds != symmetric_columns(n_sub, n_up):
        raise ValueError(f"mask preset {name!r} requires all sub columns before all up "
                         f"columns, got {spec.column_kinds}")
    # conv_deconv and u_net follow one encoder-decoder path; its stream
    # depth leaving each column, and entering it
    after = np.array([math.ceil(s * deepest / n_sub) for s in range(1, n_sub + 1)]
                     + [(n_up - u) * deepest // n_up for u in range(1, n_up + 1)])
    before = np.concatenate(([0], after[:-1]))
    q = np.arange(spec.n_streams)[:, None]
    # u_net adds skip wires on the streams the path has descended past,
    # until it climbs back to them
    h = q == before if name == "conv_deconv" else q <= before
    v = ((before < q) & (q <= after)) | ((after <= q) & (q < before))
    return ConnectionMask(h, h.copy(), v)


def _order(spec: GridSpec):
    """Evaluation order: (stream, column, vertical source stream or None).

    Subsampling columns run top to bottom, each block reading the stream
    above it in the same column; upsampling columns run bottom to top,
    reading the stream below. This is the only place the order is written.
    """
    n = spec.n_streams
    for t, kind in enumerate(spec.column_kinds):
        if kind == SUB:
            for i in range(n):
                yield i, t, (i - 1 if i > 0 else None)
        else:
            for i in range(n - 1, -1, -1):
                yield i, t, (i + 1 if i < n - 1 else None)


def _blocks(spec: GridSpec, mask: ConnectionMask):
    """The block rule: (stream, column, identity, residual, src) per block.

    Walks :func:`_order` and yields each block that carries a value under
    ``mask``: whether its identity wire carries its stream's previous
    value, whether its residual unit runs on that wire, and which stream
    its vertical unit reads (None: no vertical addend).
    """
    act = np.zeros((spec.n_streams, spec.n_columns + 1), bool)
    act[0, 0] = True
    for i, t, src in _order(spec):
        identity = bool(act[i, t] and mask.horizontal_on[i, t])
        if src is None or not (act[src, t + 1] and mask.vertical_on[i, t]):
            src = None
        if identity or src is not None:
            act[i, t + 1] = True
            yield i, t, identity, identity and bool(mask.residual_on[i, t]), src


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------


def named_leaves(obj, prefix: str, kind) -> list:
    """(path, leaf) for every ``kind`` instance under obj's attributes, sorted by path.

    Attributes holding objects with their own attributes (units, batch
    norms, conv parameters) are walked recursively; everything else that
    is not a ``kind`` (geometry, flags, None) is skipped.
    """
    out = []
    for name, value in vars(obj).items():
        path = f"{prefix}.{name}"
        if isinstance(value, kind):
            out.append((path, value))
        elif hasattr(value, "__dict__"):
            out += named_leaves(value, path, kind)
    return sorted(out, key=lambda kv: kv[0])


class ResidualUnit:
    """Preactivation residual mapping: BN-relu-conv3x3-BN-relu-conv3x3."""

    def __init__(self, channels: int, rng, dtype):
        self.bn1 = ops.BatchNorm(channels, dtype=dtype)
        self.conv1 = ops.conv_params(rng, channels, channels, 3, 3, 1, (1, 1), dtype)
        self.bn2 = ops.BatchNorm(channels, dtype=dtype)
        self.conv2 = ops.conv_params(rng, channels, channels, 3, 3, 1, (1, 1), dtype)

    def forward(self, x: Tensor, training: bool, tape: Tape | None) -> Tensor:
        t = ops.relu(ops.batch_norm(x, self.bn1, training, tape), tape)
        t = ops.conv2d(t, self.conv1, tape)
        t = ops.relu(ops.batch_norm(t, self.bn2, training, tape), tape)
        return ops.conv2d(t, self.conv2, tape)


class ResampleUnit:
    """BN-relu-conv3x3 at stride 2 from one stream to its neighbour; optional 1x1 shortcut.

    Going down it is a strided convolution that doubles channels; going up
    (``out_c < in_c``) it is the transposed convolution, the exact adjoint
    of the down unit, that halves them. The weights keep the down conv's
    layout (wider, narrower, kh, kw) either way; the bias has ``out_c``
    entries and batch norm covers ``in_c``.
    """

    def __init__(self, in_c: int, out_c: int, rng, dtype, shortcut: bool):
        self.up = out_c < in_c
        wide, narrow = max(in_c, out_c), min(in_c, out_c)
        self.bn = ops.BatchNorm(in_c, dtype=dtype)
        self.conv = ops.conv_params(rng, wide, narrow, 3, 3, 2, (1, 1), dtype, bias_len=out_c)
        self.shortcut = None
        if shortcut:
            self.shortcut = ops.conv_params(rng, wide, narrow, 1, 1, 2, (0, 0), dtype,
                                            bias_len=out_c)

    def _resample(self, x: Tensor, params: ops.ConvParams, target_hw, tape) -> Tensor:
        if self.up:
            return ops.deconv2d_up(x, params, target_hw, tape)
        return ops.conv2d(x, params, tape)

    def forward(self, x: Tensor, target_hw, training: bool, tape: Tape | None) -> Tensor:
        y = self._resample(ops.relu(ops.batch_norm(x, self.bn, training, tape), tape),
                           self.conv, target_hw, tape)
        if self.shortcut is not None:
            y = ops.add(y, self._resample(x, self.shortcut, target_hw, tape), tape)
        return y


@dataclass
class GridBlock:
    """Units of one grid position, plus what the forward pass runs there.

    ``identity``, ``residual`` and ``src`` are the block rule's flags
    (:func:`_blocks`) under the model's connection mask; a block outside
    the plan keeps their defaults. ``res`` and ``vert`` are allocated by
    the rule under the all-on mask, and ``proj`` (concat fusion) has one
    input slot for each of them; :meth:`GridModel.forward` writes the
    fusion and fills a slot that the mask switches off with zeros.
    """

    row: int
    col: int  # grid column, 0-based
    res: ResidualUnit | None = None
    vert: ResampleUnit | None = None
    proj: ops.ConvParams | None = None  # concat-fusion projection
    identity: bool = False
    residual: bool = False
    src: int | None = None

    @property
    def name(self) -> str:
        return f"block.{self.row}.{self.col}"


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class GridModel:
    """Runtime network: stem, grid blocks in evaluation order, 1x1 head."""

    def __init__(self, spec: GridSpec, input_hw, mask: ConnectionMask | None = None,
                 seed: int = 0, dtype=np.float32):
        h, w = int(input_hw[0]), int(input_hw[1])
        if min(h, w) < spec.min_side:
            raise ValueError(
                f"input {(h, w)} too small for {spec.n_streams} streams; "
                f"need at least {spec.min_side} per side"
            )
        if mask is None:
            mask = preset_mask(spec.mask, spec)
        expected = (spec.n_streams, spec.n_columns)
        if mask.horizontal_on.shape != expected:
            raise ValueError(f"mask shape {mask.horizontal_on.shape} != {expected}")
        self.spec = spec
        self.mask = mask
        self.input_hw = (h, w)
        self.init_seed = int(seed)
        self.dtype = np.dtype(dtype)

        walk = list(_blocks(spec, mask))
        if spec.n_columns and (0, spec.n_columns - 1) not in [b[:2] for b in walk]:
            raise ValueError("connection mask leaves the output block unreachable")

        rng = np.random.default_rng(seed)
        self.stem_bn = ops.BatchNorm(spec.image_channels, dtype=dtype)
        self.stem_conv = ops.conv_params(rng, spec.base_channels, spec.image_channels,
                                         3, 3, 1, (1, 1), dtype)
        self.blocks: dict[tuple[int, int], GridBlock] = {}
        for i, t, identity, residual, src in _blocks(spec, ConnectionMask.all_on(spec)):
            block = self.blocks[(i, t)] = GridBlock(i, t)
            f_i = spec.stream_channels(i)
            if residual:
                block.res = ResidualUnit(f_i, rng, dtype)
            if src is not None:
                block.vert = ResampleUnit(spec.stream_channels(src), f_i, rng, dtype,
                                          spec.vertical_residual)
            if spec.fusion == "concat":
                slots = residual + (src is not None)
                block.proj = ops.conv_params(rng, f_i, slots * f_i, 1, 1, 1, (0, 0), dtype)
        self.plan: list[GridBlock] = []  # the blocks that run, in evaluation order
        for i, t, identity, residual, src in walk:
            block = self.blocks[(i, t)]
            block.identity, block.residual, block.src = identity, residual, src
            self.plan.append(block)
        self.head = ops.conv_params(rng, spec.num_classes, spec.base_channels, 1, 1, 1,
                                    (0, 0), dtype)

    # -- bookkeeping ---------------------------------------------------

    def _named(self, kind) -> list:
        """Stem, then blocks in (row, col) order, then head: the v1 checkpoint order."""
        out = named_leaves(self.stem_bn, "stem.bn", kind)
        out += named_leaves(self.stem_conv, "stem.conv", kind)
        for _, block in sorted(self.blocks.items()):
            out += named_leaves(block, block.name, kind)
        return out + named_leaves(self.head, "head", kind)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return self._named(Tensor)

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return self._named(np.ndarray)

    def residual_gate_ids(self) -> list[tuple[int, int]]:
        """Blocks whose residual unit actually runs, in evaluation order."""
        return [(b.row, b.col) for b in self.plan if b.residual]

    # -- forward -------------------------------------------------------

    def forward(self, x, training: bool = False, drop_mask=None,
                tape: Tape | None = None) -> Tensor:
        """Run the grid; returns logits (n, num_classes, h, w).

        ``drop_mask`` (training only) removes the residual addend of
        selected blocks; identity wires and vertical units never drop.
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.data.ndim != 4 or x.shape[1] != self.spec.image_channels:
            raise ValueError(
                f"expected input (n, {self.spec.image_channels}, h, w), got {x.shape}"
            )
        if drop_mask is not None and not training:
            raise ValueError("drop_mask is a training-mode feature; eval keeps every unit")
        in_hw = x.shape[2:]
        if min(in_hw) < self.spec.min_side:
            raise ValueError(f"input {in_hw} smaller than minimum side {self.spec.min_side}")
        hw = [stream_dims(self.spec, i, in_hw)[1:] for i in range(self.spec.n_streams)]

        stem = ops.conv2d(ops.batch_norm(x, self.stem_bn, training, tape), self.stem_conv, tape)
        # latest value of each stream; a block reads its own stream before
        # overwriting it and its vertical source after that was updated
        value: dict[int, Tensor] = {0: stem}
        for block in self.plan:
            i, t = block.row, block.col
            horizontal = value[i] if block.identity else None
            residual = None
            if block.residual and (drop_mask is None or drop_mask.keeps(i, t)):
                residual = block.res.forward(horizontal, training, tape)
            vertical = None
            if block.src is not None:
                vertical = block.vert.forward(value[block.src], hw[i], training, tape)
            if residual is not None:
                horizontal = ops.add(horizontal, residual, tape)
            want = (x.shape[0], self.spec.stream_channels(i), *hw[i])
            if block.proj is None:  # sum fusion
                addends = [a for a in (horizontal, vertical) if a is not None]
                out = addends[0] if len(addends) == 1 else ops.add(*addends, tape)
            else:
                # concat fusion: one channel slot per unit allocated here, so the
                # projection's layout is static; a slot masked off at runtime is fed zeros
                slots = [a if a is not None else Tensor(np.zeros(want, dtype=self.dtype))
                         for a, unit in ((horizontal, block.res), (vertical, block.vert))
                         if unit is not None]
                stacked = slots[0] if len(slots) == 1 else ops.concat_channels(slots, tape)
                out = ops.conv2d(stacked, block.proj, tape)
            if out.shape != want:
                raise RuntimeError(f"block ({i},{t}) produced {out.shape}, expected {want}")
            value[i] = out
        return ops.conv2d(value[0], self.head, tape)


def build_grid(spec: GridSpec, input_hw, mask: ConnectionMask | None = None,
               seed: int = 0, dtype=np.float32) -> GridModel:
    """Construct a grid model; validates sizes, mask shape, and reachability."""
    return GridModel(spec, input_hw, mask=mask, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# counting analytics
# ---------------------------------------------------------------------------


def count_params_exact(model: GridModel) -> int:
    """Total learnable scalars actually allocated (running stats excluded)."""
    return int(sum(p.size for _, p in model.named_parameters()))


def approx_param_count(spec: GridSpec) -> float:
    """Closed-form estimate 18 * 4**(n_streams-1) * F0^2 * (2.5*n_sub + n_up - 2)."""
    if spec.n_sub < 1:
        raise ValueError("approx_param_count needs at least one subsampling column")
    return 18.0 * 4.0 ** (spec.n_streams - 1) * spec.base_channels ** 2 \
        * (2.5 * spec.n_sub + spec.n_up - 2.0)


def approx_activation_count(spec: GridSpec, input_hw) -> float:
    """Closed-form per-sample estimate 6*H*W*F0*(4*n_up + 3*n_sub - 2)."""
    if spec.n_sub < 1:
        raise ValueError("approx_activation_count needs at least one subsampling column")
    h, w = int(input_hw[0]), int(input_hw[1])
    return 6.0 * h * w * spec.base_channels * (4.0 * spec.n_up + 3.0 * spec.n_sub - 2.0)


def activation_tally(model: GridModel) -> int:
    """Per-sample count of every op output the forward pass materializes."""
    spec = model.spec
    size = [int(np.prod(stream_dims(spec, i, model.input_hw))) for i in range(spec.n_streams)]
    h, w = model.input_hw
    total = spec.image_channels * h * w          # stem BN output
    total += spec.base_channels * h * w          # stem conv output
    for block in model.plan:
        s_i = size[block.row]
        if block.residual:
            total += 6 * s_i                     # bn, relu, conv, bn, relu, conv
        if block.src is not None:
            total += 2 * size[block.src] + s_i   # bn, relu, resampling conv
            if spec.vertical_residual:
                total += 2 * s_i                 # shortcut conv + add
        if block.proj is not None:
            slots = (block.res is not None) + (block.vert is not None)  # zero-filled too
            if block.residual:
                total += s_i                     # identity + residual pre-sum
            if slots > 1:
                total += slots * s_i             # concatenated stack
            total += s_i                         # projection output
        else:                                    # pairwise sums
            total += (block.identity + block.residual + (block.src is not None) - 1) * s_i
    total += spec.num_classes * h * w            # head logits
    return int(total)


def grid_report(model: GridModel) -> dict:
    """Counting and layout summary, JSON-serializable."""
    spec = model.spec
    exact = count_params_exact(model)
    approx_p = approx_param_count(spec) if spec.n_sub >= 1 else None
    approx_a = approx_activation_count(spec, model.input_hw) if spec.n_sub >= 1 else None
    tally = activation_tally(model)
    return {
        "spec": spec.to_dict(),
        "input_hw": list(model.input_hw),
        "exact_params": exact,
        "approx_params": approx_p,
        "approx_activations": approx_a,
        "activation_tally": tally,
        "activation_ratio": (tally / approx_a) if approx_a else None,
        "stream_shapes": [list(stream_dims(spec, i, model.input_hw))
                          for i in range(spec.n_streams)],
        "eval_order": [f"s{b.row}c{b.col + 1}" for b in model.plan],
    }

