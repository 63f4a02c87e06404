"""Model persistence: strict JSON schemas, round-trip serialization, and a
canonical emitter.

Files carry a ``type`` tag (``oom``, ``hmm``, ``ncoom`` or ``mixture``). Each
model type's fields are listed once, in file order, each with a reader and a
writer (``_TYPES``); parsing and serialization both follow that list. Unknown
fields are rejected rather than ignored so fixtures cannot drift, and schema
errors name the offending field. Models are validated on load by default: a
model whose parameters are all nonnegative and whose two condition residuals
are within tolerance is valid at every depth and skips the word scan; any
other is refused with its report's failure text, or with the overflow text
where the scan meets a non-finite value. Loading can be deferred with
``validate=False`` when the point is to inspect an invalid model.

Mixture files reference other model files by path (relative to the mixture
file) and resolve recursively into a single direct-sum model. Complex numbers
are written as ``[re, im]`` pairs and all matrices are row-major.

The canonical emitter formats every float with 17 significant digits, enough
to round-trip doubles exactly, so identical inputs produce byte-identical
reports. Numbers must be finite (json's ``NaN``, ``Infinity`` and ``1e400``
are schema errors). Rows of finite numbers are read in one array conversion
and rows of finite floats written in one formatting step; anything else goes
element by element, so that errors name the field or value at fault.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from typing import Mapping

import numpy as np

from .algebra import CStarAlgebra, construct_algebra
from .causal import DEFAULT_CLUSTER_TOL
from .dimension import DEFAULT_RANK_TOL
from .errors import SchemaError, ValidationError
from .ncoom import NcOomModel, nc_mixture_direct_sum, validate_ncoom
from .oom import (
    HmmModel,
    OomModel,
    _certified,
    _classical_model,
    mixture_direct_sum,
    validate_hmm,
    validate_oom,
)

_MAX_MIXTURE_DEPTH = 10


# ---------------------------------------------------------------------------
# Canonical JSON


def dumps_canonical(obj) -> str:
    """Deterministic JSON, indented by two spaces, floats at 17 significant digits."""

    def fmt(x, level: int) -> str:
        pad = "  " * level
        pad_in = pad + "  "
        if x is None:
            return "null"
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            v = float(x)
            if not math.isfinite(v):
                raise ValueError(f"cannot serialize non-finite float {v!r}")
            return format(v, ".17g")
        if isinstance(x, str):
            return json.dumps(x)
        if isinstance(x, Mapping):
            if not x:
                return "{}"
            items = [
                f"{pad_in}{json.dumps(str(k))}: {fmt(v, level + 1)}" for k, v in x.items()
            ]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(x, (list, tuple, np.ndarray)):
            seq = list(x)
            if not seq:
                return "[]"
            if set(map(type, seq)) == {float} and all(map(math.isfinite, seq)):
                # a row of finite floats in one step; any other row, and a
                # non-finite entry's error, go through the items one by one
                row = ",\n".join([pad_in + "%.17g"] * len(seq)) % tuple(seq)
                return "[\n" + row + "\n" + pad + "]"
            items = [f"{pad_in}{fmt(v, level + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        raise TypeError(f"cannot serialize {type(x).__name__}")

    return fmt(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# Strict schema helpers


def _pop(data: dict, key: str, context: str):
    if key not in data:
        raise SchemaError(f'missing field "{key}" in {context}')
    return data.pop(key)


def _pop_tolerance(data: dict, key: str, default: float) -> float:
    raw = data.pop(key, None)
    v = default if raw is None else _as_number(raw, key)
    if v < 0.0:
        raise SchemaError(f'field "{key}" must be nonnegative')
    return v


def _no_leftovers(data: dict, context: str):
    if data:
        names = ", ".join(sorted(repr(k) for k in data))
        raise SchemaError(f"unknown field(s) {names} in {context}")


def _as_int(x, field: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f'field "{field}" must be an integer')
    return x


def _as_number(x, field: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f'field "{field}" must be a number')
    try:
        v = float(x)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):  # json reads NaN, Infinity and 1e400 as such
        raise SchemaError(f'field "{field}" must be a finite number')
    return v


def _as_complex(x, field: str) -> complex:
    if not isinstance(x, list) or len(x) != 2:
        raise SchemaError(f'field "{field}" must hold complex numbers as [re, im] pairs')
    return complex(_as_number(x[0], field), _as_number(x[1], field))


# Element kinds of vectors and matrices: (element parser, dtype, how a vector
# of them is described, how a matrix of them is described).
_REAL = (_as_number, float, "numbers", "row-major matrix")
_PAIR = (_as_complex, complex, "[re, im] pairs", "matrix of [re, im] pairs")


def _real_array(x: list, entries, shape: tuple):
    """``x`` as one float array of ``shape`` when ``entries``, its leaves, are
    all finite ints and floats (bools excluded); None otherwise, so that the
    per-element parse reports the fault."""
    if not set(map(type, entries)) <= {float, int}:
        return None
    try:
        out = np.array(x, dtype=float)
    except (OverflowError, ValueError):  # a huge integer, a ragged row
        return None
    return out if out.shape == shape and np.isfinite(out).all() else None


def _as_vector(x, field: str, length: int, kind=_REAL) -> np.ndarray:
    parse, dtype, noun, _ = kind
    if not isinstance(x, list) or len(x) != length:
        raise SchemaError(f'field "{field}" must be a list of {length} {noun}')
    if kind is _REAL and (out := _real_array(x, x, (length,))) is not None:
        return out
    return np.array([parse(v, field) for v in x], dtype=dtype)


def _as_matrix(x, field: str, shape: tuple, kind=_REAL) -> np.ndarray:
    parse, dtype, _, noun = kind
    rows, cols = shape
    message = f'field "{field}" must be a {rows}x{cols} {noun}'
    if not isinstance(x, list) or len(x) != rows:
        raise SchemaError(message)
    if kind is _REAL and set(map(type, x)) == {list}:
        out = _real_array(x, itertools.chain.from_iterable(x), shape)
        if out is not None:
            return out
    out = np.empty(shape, dtype=dtype)
    for i, row in enumerate(x):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(message)
        out[i] = [parse(v, field) for v in row]
    return out


#: Optional string fields of every model file, and attributes of every model.
_METADATA = ("name", "description")


def _pop_metadata(data: dict) -> dict:
    meta = {key: data.pop(key, None) for key in _METADATA}
    for key, value in meta.items():
        if value is not None and not isinstance(value, str):
            raise SchemaError(f'field "{key}" must be a string')
    return meta


# ---------------------------------------------------------------------------
# Parsing


def _read_size(x, field: str, got: dict, context: str) -> int:
    n = _as_int(x, field)
    if n < 1:
        raise SchemaError(f'field "{field}" must be a positive integer')
    return n


#: The size fields. They shape the arrays read after them; the constructors
#: take the size from those arrays.
_SIZES = ("dim", "n_states")


def _size(got: dict) -> int:
    return next(got[k] for k in _SIZES if k in got)


def _read_alphabet(x, field: str, got: dict, context: str) -> list:
    if not isinstance(x, list) or not x or not all(isinstance(s, str) for s in x):
        raise SchemaError(f'field "{field}" must be a non-empty list of strings')
    return x


def _read_symbol_matrices(x, field: str, got: dict, context: str) -> dict:
    if not isinstance(x, dict) or set(x) != set(got["alphabet"]):
        raise SchemaError(f'field "{field}" must have exactly one matrix per alphabet symbol')
    n = _size(got)
    return {s: _as_matrix(x[s], f"{field}[{s!r}]", (n, n)) for s in got["alphabet"]}


def _read_vector(x, field: str, got: dict, context: str) -> np.ndarray:
    return _as_vector(x, field, _size(got))


def _read_pair_vector(x, field: str, got: dict, context: str) -> np.ndarray:
    return _as_vector(x, field, _size(got), _PAIR)


def _read_algebra(x, field: str, got: dict, context: str) -> CStarAlgebra:
    if not isinstance(x, dict):
        raise SchemaError(f'field "{field}" must be an object like {{"blocks": [2, 1]}}')
    x = dict(x)
    blocks = x.pop("blocks", None)
    _no_leftovers(x, f'{context}, field "{field}"')
    if isinstance(blocks, list):
        with contextlib.suppress(ValidationError):  # the algebra checks the sizes
            return construct_algebra(blocks)
    raise SchemaError(f'field "{field}.blocks" must be a non-empty list of positive integers')


def _read_op_per_basis(x, field: str, got: dict, context: str) -> np.ndarray:
    count, n = got["algebra"].total_dim, _size(got)
    if not isinstance(x, list) or len(x) != count:
        raise SchemaError(
            f'field "{field}" must list {count} matrices (one per basis element)'
        )
    return np.stack([_as_matrix(m, f"{field}[{i}]", (n, n), _PAIR) for i, m in enumerate(x)])


def _pairs(a: np.ndarray) -> list:
    """Nested lists of a complex array, each entry as an [re, im] pair."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _write_symbol_matrices(matrices: dict) -> dict:
    return {s: m.tolist() for s, m in matrices.items()}


# Each model file type: its class and its fields in file order, each as
# (name, reader, writer). ``reader(value, name, got, context)`` checks and
# converts the field's JSON value, given the fields read before it by name;
# ``writer`` turns the model's attribute of that name back into JSON. The
# constructor takes every field but the size, with the name and description.
_TYPES = {
    "oom": (OomModel, (
        ("alphabet", _read_alphabet, list),
        ("dim", _read_size, int),
        ("operators", _read_symbol_matrices, _write_symbol_matrices),
        ("init", _read_vector, np.ndarray.tolist),
        ("eval", _read_vector, np.ndarray.tolist),
    )),
    "hmm": (HmmModel, (
        ("alphabet", _read_alphabet, list),
        ("n_states", _read_size, int),
        ("transition_emission", _read_symbol_matrices, _write_symbol_matrices),
        ("init", _read_vector, np.ndarray.tolist),
    )),
    "ncoom": (NcOomModel, (
        ("algebra", _read_algebra, lambda a: {"blocks": list(a.block_dims)}),
        ("dim", _read_size, int),
        ("op_per_basis", _read_op_per_basis, _pairs),
        ("init", _read_pair_vector, _pairs),
        ("eval", _read_pair_vector, _pairs),
    )),
}


def _parse_typed(data: dict, context: str, mtype: str):
    cls, fields = _TYPES[mtype]
    got = {}
    for name, read, _ in fields:
        got[name] = read(_pop(data, name, context), name, got, context)
    meta = _pop_metadata(data)
    _no_leftovers(data, context)
    return cls(**{k: v for k, v in got.items() if k not in _SIZES}, **meta)


def _parse_parts(raw, context: str, load) -> list:
    """``(weight, load(path, field))`` for each ``{"weight", "path"}`` object
    of a ``parts`` list, ``field`` naming the entry's path."""
    if not isinstance(raw, list) or not raw:
        raise SchemaError('field "parts" must be a non-empty list')
    parts = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f'field "parts[{i}]" must be an object with "weight" and "path"')
        entry = dict(entry)
        weight = _as_number(_pop(entry, "weight", f'{context}, "parts[{i}]"'), f"parts[{i}].weight")
        path = _pop(entry, "path", f'{context}, "parts[{i}]"')
        if not isinstance(path, str):
            raise SchemaError(f'field "parts[{i}].path" must be a string')
        _no_leftovers(entry, f'{context}, field "parts[{i}]"')
        parts.append((weight, load(path, f"parts[{i}].path")))
    return parts


def _parse_mixture(data: dict, context: str, base_dir: str, validate: bool, depth: int):
    if depth > _MAX_MIXTURE_DEPTH:
        raise SchemaError(f"mixture nesting deeper than {_MAX_MIXTURE_DEPTH} in {context}")
    raw_parts = _pop(data, "parts", context)
    meta = _pop_metadata(data)
    _no_leftovers(data, context)
    parts = _parse_parts(
        raw_parts,
        context,
        lambda path, _: parse_model_file(
            os.path.join(base_dir, path), validate=validate, _depth=depth + 1
        ),
    )
    nc = [isinstance(m, NcOomModel) for _, m in parts]
    if not any(nc):
        combined = mixture_direct_sum(parts)
    elif all(nc):
        combined = nc_mixture_direct_sum(parts)
    else:
        raise SchemaError(f"mixture in {context} mixes classical and operator-algebra parts")
    combined.name = meta["name"]
    combined.description = meta["description"]
    return combined


def _load_json(path, top_type: type, what: str):
    """Decoded contents of a JSON file whose top level is a ``top_type``,
    described as ``what`` in the error."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"parse error in {path} at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(data, top_type):
        raise SchemaError(f"top level of {path} must be {what}")
    return data


def parse_model_file(path, validate: bool = True, _depth: int = 0):
    """Load and (by default) validate a typed model from a JSON file.

    Returns an :class:`OomModel`, :class:`HmmModel` or :class:`NcOomModel`;
    mixture files resolve recursively into the combined direct-sum model.
    Parse errors carry line and column, schema violations name the field, and
    validation failures quote the residuals.
    """
    data = _load_json(path, dict, "an object")
    context = f"model file {os.path.basename(path)}"
    mtype = _pop(data, "type", context)
    if mtype == "mixture":
        model = _parse_mixture(
            data, context, os.path.dirname(os.path.abspath(path)), validate, _depth
        )
    elif isinstance(mtype, str) and mtype in _TYPES:
        model = _parse_typed(data, context, mtype)
    else:
        raise SchemaError(f'unknown model type {mtype!r} in {context}')
    if validate:
        _validate_loaded(model)
    return model


def _validate_loaded(model):
    if isinstance(model, OomModel) and _certified(model):
        return  # its signs prove what the word scan would check, at every depth
    # the table is built per call so that wrappers installed on the
    # validator names later see every call
    validate = {OomModel: validate_oom, HmmModel: validate_hmm, NcOomModel: validate_ncoom}
    validate[type(model)](model).require()


# ---------------------------------------------------------------------------
# Serialization


def serialize_model(model) -> dict:
    """Plain-JSON dict for a model; inverse of parsing, field for field."""
    for mtype, (cls, fields) in _TYPES.items():
        if isinstance(model, cls):
            break
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    out = {"type": mtype}
    for name, _, write in fields:
        out[name] = write(getattr(model, name))
    for key in _METADATA:
        if getattr(model, key) is not None:
            out[key] = getattr(model, key)
    return out


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(serialize_model(model)))


# ---------------------------------------------------------------------------
# Algebra-element factor files (for evaluating states on elementary tensors)


def parse_factors_file(path, algebra: CStarAlgebra) -> list:
    """List of algebra elements from a JSON file.

    Each entry is one of ``{"blocks": [...]}`` (explicit block matrices of
    [re, im] pairs), ``{"basis_index": k}`` (the k-th matrix unit) or
    ``{"unit": true}``.
    """
    from .algebra import AlgebraElement, basis_elements, unit_element

    data = _load_json(path, list, "a list of factors")
    basis = None
    out = []
    for i, entry in enumerate(data):
        ctx = f"factor {i} in {os.path.basename(path)}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{ctx} must be an object")
        entry = dict(entry)
        if "blocks" in entry:
            raw = entry.pop("blocks")
            _no_leftovers(entry, ctx)
            if not isinstance(raw, list) or len(raw) != algebra.n_blocks:
                raise SchemaError(
                    f'{ctx}: field "blocks" must list {algebra.n_blocks} matrices'
                )
            blocks = [
                _as_matrix(b, f"blocks[{k}]", (d, d), _PAIR)
                for k, (b, d) in enumerate(zip(raw, algebra.block_dims))
            ]
            out.append(AlgebraElement(algebra, blocks))
        elif "basis_index" in entry:
            k = _as_int(entry.pop("basis_index"), "basis_index")
            _no_leftovers(entry, ctx)
            if not 0 <= k < algebra.total_dim:
                raise SchemaError(
                    f'{ctx}: "basis_index" must be in [0, {algebra.total_dim})'
                )
            if basis is None:
                basis = basis_elements(algebra)
            out.append(basis[k])
        elif "unit" in entry:
            flag = entry.pop("unit")
            _no_leftovers(entry, ctx)
            if flag is not True:
                raise SchemaError(f'{ctx}: "unit" must be true')
            out.append(unit_element(algebra))
        else:
            raise SchemaError(
                f'{ctx} must contain one of "blocks", "basis_index" or "unit"'
            )
    return out


# ---------------------------------------------------------------------------
# Experiment spec files


def parse_experiment_file(path):
    """Build a ready-to-run experiment closure from a JSON spec file.

    Returns ``(name, runner)`` where ``runner()`` yields the
    :class:`~oomlab.experiments.ExperimentReport`. Model references are
    resolved relative to the spec file.
    """
    from . import experiments as xp

    base_dir = os.path.dirname(os.path.abspath(path))
    data = _load_json(path, dict, "an object")
    context = f"experiment file {os.path.basename(path)}"
    kind = _pop(data, "experiment", context)
    name = data.pop("name", None)
    if name is None:
        name = str(kind)
    elif not isinstance(name, str):
        raise SchemaError('field "name" must be a string')

    def load_classical(rel, field):
        if not isinstance(rel, str):
            raise SchemaError(f'field "{field}" must be a path string')
        m = parse_model_file(os.path.join(base_dir, rel))
        if isinstance(m, NcOomModel):
            raise SchemaError(f'field "{field}" must reference a classical model')
        return _classical_model(m)

    extra = {}
    if kind == "additivity":
        parts = _parse_parts(_pop(data, "parts", context), context, load_classical)
        harness, args = xp.run_additivity, [parts]
    elif kind == "semicontinuity":
        fam = _pop(data, "family", context)
        if not isinstance(fam, dict):
            raise SchemaError('field "family" must be an object with a "kind"')
        fam = dict(fam)
        fkind = _pop(fam, "kind", f'{context}, field "family"')
        grid = fam.pop("grid", None)
        if not isinstance(grid, list) or not grid:
            raise SchemaError('field "family.grid" must be a non-empty list of numbers')
        grid = [_as_number(t, "family.grid") for t in grid]
        if fkind == "mixture_weight":
            base = load_classical(_pop(fam, "base", context), "family.base")
            other = load_classical(_pop(fam, "other", context), "family.other")
            _no_leftovers(fam, f'{context}, field "family"')
            family = xp.mixture_weight_family(base, other, grid)
        elif fkind == "coalescing_bernoulli":
            center = _as_number(_pop(fam, "center", context), "family.center")
            _no_leftovers(fam, f'{context}, field "family"')
            family = xp.coalescing_bernoulli_family(center, grid)
        elif fkind == "markov_merge":
            _no_leftovers(fam, f'{context}, field "family"')
            family = xp.markov_merge_family(grid)
        else:
            raise SchemaError(f'unknown family kind {fkind!r} in {context}')
        harness, args = xp.run_semicontinuity, [family]
    elif kind == "upperbound":
        model = load_classical(_pop(data, "model", context), "model")
        l_p = _as_int(_pop(data, "past_length", context), "past_length")
        horizon = _as_int(_pop(data, "horizon", context), "horizon")
        harness, args = xp.run_upperbound, [model, l_p, horizon]
        extra["cluster_tol"] = _pop_tolerance(data, "cluster_tol", DEFAULT_CLUSTER_TOL)
    else:
        raise SchemaError(f"unknown experiment kind {kind!r} in {context}")
    l_max = _as_int(_pop(data, "max_level", context), "max_level")
    tol_rel = _pop_tolerance(data, "tol_rel", DEFAULT_RANK_TOL)
    if tol_rel >= 1.0:  # a cut at the largest singular value keeps none of them
        raise SchemaError('field "tol_rel" must be below 1')
    _no_leftovers(data, context)
    return name, lambda: harness(*args, l_max, tol_rel, name=name, **extra)


def _flatten(prefix: str, value, into: dict):
    if isinstance(value, Mapping):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, into)
    else:
        into[prefix] = value


def experiment_points_rows(report) -> tuple[list, list]:
    """Flatten per-point measurements to (header, rows) for CSV export."""
    flats = []
    for point in report.points:
        flat: dict = {}
        _flatten("", point, flat)
        flats.append(flat)
    header = list(dict.fromkeys(key for flat in flats for key in flat))
    rows = []
    for flat in flats:
        row = []
        for key in header:
            v = flat.get(key, "")
            if isinstance(v, bool):
                row.append("true" if v else "false")
            elif isinstance(v, float):
                row.append(format(v, ".17g"))
            else:
                row.append(str(v))
        rows.append(row)
    return header, rows
