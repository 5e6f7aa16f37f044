"""Cell-based and flux-based decompositions of semi-discrete operators.

A cell partition assigns every unknown to exactly one region and splits
the right-hand side by masking components; a flux partition assigns every
interface to exactly one region so each split part telescopes and mass is
conserved stage by stage.  Region 1 carries the coarse step of a
multirate method, region 2 the refined one.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spatial import Grid1D, Grid2D, parts_op
from .weno import ops_call

__all__ = [
    "CellPartition",
    "FluxPartition",
    "FluxPartition2D",
    "CellSplitParts",
    "FluxSplitParts",
    "FluxSplit2DParts",
    "TrivialParts",
    "DynamicCellSplit",
    "burgers_dynamic_partition",
    "mass",
    "PartitionSpec",
]


def _check_masks(masks: tuple[np.ndarray, ...]) -> None:
    if not masks:
        raise ValueError("need at least one mask")
    shape = masks[0].shape
    cover = np.zeros(shape, dtype=int)
    for mk in masks:
        if mk.shape != shape:
            raise ValueError("all masks must share one shape")
        cover += mk.astype(int)
    if not np.all(cover == 1):
        raise ValueError("masks must be pairwise disjoint and cover every index")


@dataclass(frozen=True)
class CellPartition:
    """Disjoint boolean region masks over the state array."""

    masks: tuple[np.ndarray, ...]

    def __post_init__(self):
        _check_masks(self.masks)

    @property
    def r(self) -> int:
        return len(self.masks)

    @property
    def shape(self):
        return self.masks[0].shape

    @classmethod
    def two_region(cls, refined: np.ndarray) -> "CellPartition":
        """Coarse region 1 is the complement of the ``refined`` mask."""
        refined = np.asarray(refined, dtype=bool)
        return cls((~refined, refined))


@dataclass(frozen=True)
class FluxPartition:
    """Disjoint region masks over the ``m + 1`` interfaces of a 1D grid.

    Each interface belongs to the region of the cell on its right; the
    rightmost interface wraps to cell 0 on periodic grids and falls to
    the last cell otherwise.
    """

    masks: tuple[np.ndarray, ...]
    grid: Grid1D

    def __post_init__(self):
        _check_masks(self.masks)
        if self.masks[0].shape != (self.grid.m + 1,):
            raise ValueError("flux masks must have length m + 1")
        if self.grid.periodic:
            for mk in self.masks:
                if mk[0] != mk[-1]:
                    raise ValueError(
                        "periodic flux masks must agree on the wrapped interface"
                    )

    @property
    def r(self) -> int:
        return len(self.masks)

    @classmethod
    def from_cells(cls, cells: CellPartition, grid: Grid1D) -> "FluxPartition":
        masks = []
        for mk in cells.masks:
            if mk.shape != (grid.m,):
                raise ValueError("cell masks must match the grid size")
            masks.append(np.append(mk, mk[0] if grid.periodic else mk[-1]))
        return cls(tuple(masks), grid)


@dataclass(frozen=True)
class FluxPartition2D:
    """Region masks for x-faces ``(n, n+1)`` and y-faces ``(n+1, n)``."""

    xmasks: tuple[np.ndarray, ...]
    ymasks: tuple[np.ndarray, ...]
    grid: Grid2D

    def __post_init__(self):
        _check_masks(self.xmasks)
        _check_masks(self.ymasks)
        if len(self.xmasks) != len(self.ymasks):
            raise ValueError(f"{len(self.xmasks)} x-face regions but "
                             f"{len(self.ymasks)} y-face regions")
        n = self.grid.n
        if self.xmasks[0].shape != (n, n + 1) or self.ymasks[0].shape != (n + 1, n):
            raise ValueError(f"face masks must have shapes {(n, n + 1)} (x), {(n + 1, n)} (y)")

    @property
    def r(self) -> int:
        return len(self.xmasks)

    @classmethod
    def from_coarse_predicate(cls, grid: Grid2D, predicate) -> "FluxPartition2D":
        """Two regions; a face joins region 1 when the predicate holds at
        its midpoint."""
        edges = grid.edges
        Xf, Yf = np.meshgrid(edges, grid.y)
        xm1 = np.asarray(predicate(Xf, Yf), dtype=bool)
        Xg, Yg = np.meshgrid(grid.x, edges)
        ym1 = np.asarray(predicate(Xg, Yg), dtype=bool)
        return cls((xm1, ~xm1), (ym1, ~ym1), grid)


# ----------------------------------------------------------------------
# split right-hand sides
#
# Every split has ``r`` parts and ``eval_parts(t, v, needed, out)``: for
# each part k with ``needed[k]`` true it writes every value of ``out[k]``
# (``out`` is a C-contiguous float64 array of ``r`` rows of the state's
# shape) and leaves the other rows alone; it returns None.  Every call
# evaluates ``F`` or the flux once.  A dynamic split also has
# ``begin_step(u)``, which the stepper's stage store calls with the state
# at the top of every step.  The splits here also have ``evaluation(out,
# needed)``, which gives the same evaluation in two halves: ``write(t, v,
# phi)``, one call of ``F`` or the flux into the split's own buffer
# ``phi``, and the op (see :func:`prk.weno.ops_call`) that writes the
# needed rows of ``out`` from ``phi``.  The stage store takes them once per
# run and evaluated stage, and binds the op into the one compiled call it
# makes after each ``write``; it steps a split without ``evaluation``
# through ``eval_parts``.  The stepper uses nothing else, always passes
# ``needed`` (a tuple) and evaluates no stage where no part is needed.
# ----------------------------------------------------------------------

def _regions(masks) -> np.ndarray:
    """The region table of disjoint covering ``masks``: the index of each
    value's region, flat."""
    return np.argmax(masks, axis=0).ravel()


class _Split:
    """An evaluation is one call of ``F`` into values the split owns and
    one compiled op (:func:`prk.spatial.parts_op`) that writes every needed
    row from them, masked by the split's region table.  With a ``grid``,
    ``F(t, v, out)`` is its interface flux; without one, ``F(t, v)`` is the
    whole right-hand side, of the split's ``shape`` (None: the first
    state's).  :meth:`evaluation` gives the two to the stage store, which
    holds the op; ``eval_parts`` binds it once per store row and
    ``needed``, and a row of another store drops the last store's calls,
    so a split reused across runs keeps no finished run's store alive."""

    def __init__(self, F: Callable, r: int, grid=None, shape=None, cells=None, faces=None):
        self.F, self.r, self.grid = F, r, grid
        self._cells, self._faces = cells, faces
        self._fit(grid.shape if grid is not None else shape)

    def _fit(self, shape) -> None:
        """Own the buffer for states of ``shape``, with no bound call."""
        self._shape, self._store, self._calls = shape, None, {}
        if self.grid is not None:
            self._phi = np.empty(self.grid.flux_size)
        elif shape is not None:
            self._phi = np.empty(math.prod(shape))
            self._value = self._phi.reshape(shape)

    def _fit_state(self, shape) -> None:
        if shape != self._shape:
            if self._shape is not None:
                raise ValueError(f"state of shape {shape}, the split's is {self._shape}")
            self._fit(shape)

    def _write_rhs(self, t, v, phi) -> None:
        """``F(t, v)``, the whole right-hand side, copied into ``phi`` (the
        split's buffer, of which ``_value`` is the state-shaped view)."""
        np.copyto(self._value, self.F(t, v))

    def evaluation(self, out, needed):
        """``(write, phi, op)`` for the rows ``needed`` flags of ``out``:
        ``write(t, v, phi)`` computes ``F`` at ``(t, v)`` into the split's
        buffer ``phi``, and the op writes those rows from it."""
        self._fit_state(out.shape[1:])
        write = self._write_rhs if self.grid is None else self.F
        return write, self._phi, self._op(out, needed)

    def _op(self, out, needed):
        return parts_op(self.grid, self._phi, np.flatnonzero(needed), out, self._cells,
                        self._faces)

    def eval_parts(self, t, v, needed, out):
        self._fit_state(np.shape(v))
        call = self._calls.get((id(out), needed)) or self._bind(out, needed)
        if self.grid is None:
            self._write_rhs(t, v, self._phi)
        else:
            self.F(t, v, self._phi)
        call()

    def _bind(self, out, needed):
        """The call of the op that writes the rows ``needed`` flags into
        ``out``, bound and kept for the row."""
        store = out if out.base is None else out.base
        if store is not self._store:
            self._store, self._calls = store, {}
        call = ops_call(self._op(out, needed))
        self._calls[id(out), needed] = call  # the call holds out, so its id stays
        return call


class CellSplitParts(_Split):
    """Component masking of a full right-hand side: ``F_k = I_k F``, and
    ``+0`` outside region k; ``F`` is the flux of ``grid``, or without one
    the right-hand side."""

    def __init__(self, F: Callable, partition: CellPartition, grid=None):
        if grid is not None and partition.shape != grid.shape:
            raise ValueError(f"cell masks of shape {partition.shape} on a grid of "
                             f"{grid.shape} cells")
        self.partition = partition
        super().__init__(F, partition.r, grid, partition.shape, cells=_regions(partition.masks))


class FluxSplitParts(_Split):
    """Interface masking of a conservative right-hand side.

    Each part is the grid's conservative difference of the masked fluxes,
    so ``h^T F_k = 0`` telescopes on periodic grids for every region.
    ``flux(t, v, out)`` is the grid's interface flux.
    """

    def __init__(self, flux: Callable, partition: FluxPartition):
        self.partition = partition
        super().__init__(flux, partition.r, partition.grid, faces=_regions(partition.masks))


class FluxSplit2DParts(_Split):
    """Face masking of the 2D conservative right-hand side, by the x-face
    and y-face regions of a :class:`FluxPartition2D`."""

    def __init__(self, flux: Callable, partition: FluxPartition2D):
        self.partition = partition
        faces = np.concatenate((_regions(partition.xmasks), _regions(partition.ymasks)))
        super().__init__(flux, partition.r, partition.grid, faces=faces)


class TrivialParts(_Split):
    """The whole right-hand side as a single part (r = 1): one region, so
    no table.  ``F`` and ``grid`` are those of :class:`CellSplitParts`."""

    def __init__(self, F: Callable, grid=None):
        super().__init__(F, 1, grid)


class DynamicCellSplit(_Split):
    """Two-region cell split whose partition ``begin_step(u)`` rebuilds from
    the state once per step, rewriting the region table in place: the
    table exists once the split knows its state's shape, so an op of
    :meth:`evaluation` taken before a step reads the step's partition.
    ``eval_parts`` before the first ``begin_step`` raises.  ``F`` and
    ``grid`` are those of :class:`CellSplitParts`."""

    def __init__(self, F: Callable, rule: Callable[[np.ndarray], CellPartition], grid=None):
        super().__init__(F, 2, grid)
        self.rule = rule
        self.partition: CellPartition | None = None

    def _fit(self, shape) -> None:
        super()._fit(shape)
        self._cells = None if shape is None else np.zeros(math.prod(shape), dtype=np.intp)

    def begin_step(self, u: np.ndarray) -> None:
        partition = self.rule(u)
        if partition.r != self.r:
            raise ValueError("dynamic rule produced the wrong number of regions")
        if partition.shape != np.shape(u):
            raise ValueError(f"dynamic rule produced masks of shape {partition.shape} "
                             f"for a state of shape {np.shape(u)}")
        if partition.shape != self._shape:
            self._fit(partition.shape)
        # region 1 where the second mask holds: the two masks cover disjointly
        np.copyto(self._cells.reshape(partition.shape), partition.masks[1])
        self.partition = partition

    def _bind(self, out, needed):
        if self.partition is None:
            raise ValueError("DynamicCellSplit.eval_parts called before begin_step")
        return super()._bind(out, needed)


def burgers_dynamic_partition(u: np.ndarray, threshold: float = 0.125) -> CellPartition:
    """Shock-tracking rule: region 1 where the state is strictly below the
    threshold (small local wave speed), region 2 elsewhere."""
    low = np.asarray(u) < threshold
    return CellPartition((low, ~low))


def mass(h, v) -> float:
    """Weighted sum ``sum_j h_j v_j`` (cell measures times state)."""
    v = np.asarray(v)
    h = np.asarray(h, dtype=float)
    if h.ndim and h.shape != v.shape:
        raise ValueError("weight and state shapes differ")
    return float(np.sum(h * v))


# ----------------------------------------------------------------------
# partition specification strings
# ----------------------------------------------------------------------

# the predicate grammar: operators by syntax node, functions by name with
# their number of arguments
_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.BitAnd: operator.and_, ast.BitOr: operator.or_,
    ast.USub: operator.neg, ast.Invert: operator.invert,
    ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
    ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne,
}
_FUNCTIONS = {"abs": (np.abs, 1), "min": (np.minimum, 2), "max": (np.maximum, 2)}
# compiling and evaluating recurse once per level of the syntax tree
_MAX_NESTING = 100
_TOO_DEEP = f"partition predicate nested deeper than {_MAX_NESTING} levels"


def _compile(node: ast.AST, text: str, depth: int = 0) -> Callable[[dict], object]:
    """Turn a predicate's syntax tree into a function of the coordinates,
    rejecting every node outside the grammar of :class:`PartitionSpec`."""
    if depth > _MAX_NESTING:
        raise ValueError(_TOO_DEEP)
    if isinstance(node, ast.Name) and node.id in ("x", "y"):
        return lambda coords, name=node.id: coords[name]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return lambda coords, value=node.value: value
    fn, args = None, []
    if isinstance(node, ast.BinOp):
        fn, args = _OPERATORS.get(type(node.op)), [node.left, node.right]
    elif isinstance(node, ast.UnaryOp):
        fn, args = _OPERATORS.get(type(node.op)), [node.operand]
    elif isinstance(node, ast.Compare) and len(node.ops) == 1:
        fn, args = _OPERATORS.get(type(node.ops[0])), [node.left, *node.comparators]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and not node.keywords and node.func.id in _FUNCTIONS
          and len(node.args) == _FUNCTIONS[node.func.id][1]):
        fn, args = _FUNCTIONS[node.func.id][0], node.args
    if fn is None:
        raise ValueError(f"predicate {text!r}: {type(node).__name__} at column "
                         f"{node.col_offset + 1} is not allowed")
    terms = [_compile(arg, text, depth + 1) for arg in args]
    return lambda coords: fn(*(term(coords) for term in terms))


@dataclass(frozen=True)
class PartitionSpec:
    """A parsed textual partition specification.

    Forms:

    * ``ranges:12-37,62-87`` -- inclusive 0-based cell index ranges (1D
      grids only);
    * a predicate in ``x`` (and ``y`` in 2D), e.g.
      ``abs(x-0.5)+abs(y-0.5)<=1/3``, built from numbers, ``+ - * /``,
      unary ``-`` and ``~``, ``&`` and ``|``, single (unchained)
      comparisons and calls to ``abs``, ``min`` and ``max``;
    * ``dynamic:burgers[:threshold=0.125]`` -- the shock-tracking rule.

    Ranges and predicates select the refined region 2; prefix with
    ``coarse:`` to make the selection region 1 instead (``refined:``
    states the default).  :meth:`cells` gives the cell partition on a
    grid, :meth:`faces` the 2D face partition of a predicate, and
    ``rule`` the state-dependent partition of a dynamic spec.
    """

    text: str
    ranges: tuple[tuple[int, int], ...] = ()
    predicate: Callable[[dict], object] | None = None
    coarse: bool = False
    rule: Callable[[np.ndarray], CellPartition] | None = None

    @classmethod
    def parse(cls, text: str) -> "PartitionSpec":
        body = text.strip()
        if body.startswith("dynamic:"):
            _, kind, *opts = body.split(":")
            if kind != "burgers":
                raise ValueError(f"unknown dynamic partition {kind!r}")
            kwargs = {}
            for opt in opts:
                key, _, val = opt.partition("=")
                if key != "threshold":
                    raise ValueError(f"unknown dynamic option {key!r}")
                try:
                    kwargs[key] = float(val)
                except ValueError:
                    raise ValueError(f"dynamic option {key}={val!r} is not a number") from None
                if not math.isfinite(kwargs[key]):
                    raise ValueError(f"dynamic option {key}={val} must be finite")
            return cls(text, rule=functools.partial(burgers_dynamic_partition, **kwargs))
        coarse = body.startswith("coarse:")
        if body.startswith(("coarse:", "refined:")):
            body = body.split(":", 1)[1]
        if body.startswith("ranges:"):
            ranges = []
            for chunk in body[len("ranges:"):].split(","):
                lo, _, hi = chunk.partition("-")
                try:
                    ranges.append((int(lo), int(hi) if hi else int(lo)))
                except ValueError:
                    raise ValueError(f"bad index range {chunk!r} in {text!r}") from None
                if ranges[-1][0] > ranges[-1][1]:
                    raise ValueError(f"index range {chunk!r} in {text!r} is reversed")
            return cls(text, ranges=tuple(ranges), coarse=coarse)
        try:
            tree = ast.parse(body, mode="eval")
        except SyntaxError as exc:
            # offset 0 marks the end of the input
            column = exc.offset or len(body) + 1
            raise ValueError(f"predicate {body!r}: {exc.msg} at column {column}") from None
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
        return cls(text, predicate=_compile(tree.body, body), coarse=coarse)

    def _select(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        try:
            # a division by zero or a NaN on the grid is an error, not a warning
            with np.errstate(all="raise", under="ignore"):
                sel = np.asarray(self.predicate({"x": x, "y": y}), dtype=bool)
        except (TypeError, ArithmeticError) as exc:
            dims = "1D" if y is None else "2D"
            raise ValueError(f"cannot evaluate {self.text!r} on a {dims} grid: {exc}") from None
        if sel.shape != x.shape:
            raise ValueError(f"partition {self.text!r} gives a mask of shape {sel.shape} "
                             f"where the grid needs {x.shape}")
        return sel

    def check_grid(self, ndim: int, flux: bool = False) -> None:
        """Raise ``ValueError`` if the spec cannot split the cells (or with
        ``flux`` the faces) of an ``ndim``-dimensional grid."""
        if ndim > 1 and flux and self.predicate is None:
            raise ValueError(f"a 2D flux partition needs a predicate, not {self.text!r}")
        if ndim > 1 and self.ranges:
            raise ValueError(f"index ranges ({self.text!r}) need a 1D grid")

    def cells(self, grid) -> CellPartition:
        """The two-region cell partition on a 1D or 2D grid."""
        if self.rule is not None:
            raise ValueError(f"dynamic partition {self.text!r} has no fixed cells")
        centres = grid.centres
        self.check_grid(len(centres))
        if self.predicate is not None:
            sel = self._select(*centres)
        else:
            sel = np.zeros(centres[0].size, dtype=bool)
            for lo, hi in self.ranges:
                if not 0 <= lo <= hi < sel.size:
                    raise ValueError(f"index range {lo}-{hi} outside 0..{sel.size - 1}")
                sel[lo : hi + 1] = True
        return CellPartition.two_region(~sel if self.coarse else sel)

    def faces(self, grid) -> FluxPartition2D:
        """The 2D face partition: each face joins the region of its midpoint."""
        self.check_grid(2, flux=True)

        def coarse(x, y):
            sel = self._select(x, y)
            return sel if self.coarse else ~sel
        return FluxPartition2D.from_coarse_predicate(grid, coarse)
