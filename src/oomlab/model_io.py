"""Model persistence: strict JSON schemas, round-trip serialization, and a
canonical emitter.

Files carry a ``type`` tag (``oom``, ``hmm``, ``ncoom`` or ``mixture``).
Unknown fields are rejected rather than ignored so fixtures cannot drift, and
schema errors name the offending field. Models are validated on load by
default; loading can be deferred with ``validate=False`` when the point is to
inspect an invalid model.

Mixture files reference other model files by path (relative to the mixture
file) and resolve recursively into a single direct-sum model. Complex numbers
are written as ``[re, im]`` pairs and all matrices are row-major.

The canonical emitter formats every float with 17 significant digits, enough
to round-trip doubles exactly, so identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping

import numpy as np

from .algebra import CStarAlgebra, construct_algebra
from .dimension import DEFAULT_RANK_TOL
from .errors import SchemaError, ValidationError
from .ncoom import NcOomModel, nc_mixture_direct_sum, validate_ncoom
from .oom import (
    HmmModel,
    OomModel,
    _classical_model,
    mixture_direct_sum,
    validate_hmm,
    validate_oom,
)

_MAX_MIXTURE_DEPTH = 10


# ---------------------------------------------------------------------------
# Canonical JSON


def dumps_canonical(obj, indent: int = 2) -> str:
    """Deterministic JSON with floats at 17 significant digits."""

    def fmt(x, level: int) -> str:
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
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


def _pop_number(data: dict, key: str, default: float) -> float:
    raw = data.pop(key, None)
    return default if raw is None else _as_number(raw, key)


def _no_leftovers(data: dict, context: str):
    if data:
        names = ", ".join(sorted(repr(k) for k in data))
        raise SchemaError(f"unknown field(s) {names} in {context}")


def _as_str_list(x, field: str) -> list:
    if not isinstance(x, list) or not x or not all(isinstance(s, str) for s in x):
        raise SchemaError(f'field "{field}" must be a non-empty list of strings')
    return x


def _as_int(x, field: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f'field "{field}" must be an integer')
    return x


def _as_number(x, field: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f'field "{field}" must be a number')
    return float(x)


def _as_complex(x, field: str) -> complex:
    if not isinstance(x, list) or len(x) != 2:
        raise SchemaError(f'field "{field}" must hold complex numbers as [re, im] pairs')
    return complex(_as_number(x[0], field), _as_number(x[1], field))


# Element kinds of vectors and matrices: (element parser, dtype, how a vector
# of them is described, how a matrix of them is described).
_REAL = (_as_number, float, "numbers", "row-major matrix")
_PAIR = (_as_complex, complex, "[re, im] pairs", "matrix of [re, im] pairs")


def _as_vector(x, field: str, length: int, kind=_REAL) -> np.ndarray:
    parse, dtype, noun, _ = kind
    if not isinstance(x, list) or len(x) != length:
        raise SchemaError(f'field "{field}" must be a list of {length} {noun}')
    return np.array([parse(v, field) for v in x], dtype=dtype)


def _as_matrix(x, field: str, shape: tuple, kind=_REAL) -> np.ndarray:
    parse, dtype, _, noun = kind
    rows, cols = shape
    message = f'field "{field}" must be a {rows}x{cols} {noun}'
    if not isinstance(x, list) or len(x) != rows:
        raise SchemaError(message)
    out = np.empty(shape, dtype=dtype)
    for i, row in enumerate(x):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(message)
        out[i] = [parse(v, field) for v in row]
    return out


def _pop_metadata(data: dict) -> dict:
    meta = {key: data.pop(key, None) for key in ("name", "description")}
    for key, value in meta.items():
        if value is not None and not isinstance(value, str):
            raise SchemaError(f'field "{key}" must be a string')
    return meta


# ---------------------------------------------------------------------------
# Parsing


def _parse_oom(data: dict, context: str) -> OomModel:
    alphabet = _as_str_list(_pop(data, "alphabet", context), "alphabet")
    dim = _as_int(_pop(data, "dim", context), "dim")
    if dim < 1:
        raise SchemaError('field "dim" must be a positive integer')
    operators = _pop(data, "operators", context)
    if not isinstance(operators, dict):
        raise SchemaError('field "operators" must map symbols to matrices')
    if set(operators) != set(alphabet):
        raise SchemaError('field "operators" must have exactly one matrix per alphabet symbol')
    ops = {
        s: _as_matrix(operators[s], f"operators[{s!r}]", (dim, dim))
        for s in alphabet
    }
    init = _as_vector(_pop(data, "init", context), "init", dim)
    evalv = _as_vector(_pop(data, "eval", context), "eval", dim)
    meta = _pop_metadata(data)
    _no_leftovers(data, context)
    return OomModel(alphabet=tuple(alphabet), operators=ops, init=init, eval=evalv, **meta)


def _parse_hmm(data: dict, context: str) -> HmmModel:
    alphabet = _as_str_list(_pop(data, "alphabet", context), "alphabet")
    n = _as_int(_pop(data, "n_states", context), "n_states")
    if n < 1:
        raise SchemaError('field "n_states" must be a positive integer')
    te = _pop(data, "transition_emission", context)
    if not isinstance(te, dict) or set(te) != set(alphabet):
        raise SchemaError(
            'field "transition_emission" must have exactly one matrix per alphabet symbol'
        )
    mats = {
        s: _as_matrix(te[s], f"transition_emission[{s!r}]", (n, n)) for s in alphabet
    }
    init = _as_vector(_pop(data, "init", context), "init", n)
    meta = _pop_metadata(data)
    _no_leftovers(data, context)
    return HmmModel(alphabet=tuple(alphabet), transition_emission=mats, init=init, **meta)


def _parse_ncoom(data: dict, context: str) -> NcOomModel:
    alg = _pop(data, "algebra", context)
    if not isinstance(alg, dict):
        raise SchemaError('field "algebra" must be an object like {"blocks": [2, 1]}')
    alg = dict(alg)
    blocks = alg.pop("blocks", None)
    _no_leftovers(alg, f'{context}, field "algebra"')
    if (
        not isinstance(blocks, list)
        or not blocks
        or not all(isinstance(b, int) and not isinstance(b, bool) and b >= 1 for b in blocks)
    ):
        raise SchemaError('field "algebra.blocks" must be a non-empty list of positive integers')
    algebra = construct_algebra(blocks)
    dim = _as_int(_pop(data, "dim", context), "dim")
    if dim < 1:
        raise SchemaError('field "dim" must be a positive integer')
    raw_ops = _pop(data, "op_per_basis", context)
    if not isinstance(raw_ops, list) or len(raw_ops) != algebra.total_dim:
        raise SchemaError(
            f'field "op_per_basis" must list {algebra.total_dim} matrices '
            "(one per basis element)"
        )
    ops = np.stack(
        [
            _as_matrix(m, f"op_per_basis[{i}]", (dim, dim), _PAIR)
            for i, m in enumerate(raw_ops)
        ]
    )
    init = _as_vector(_pop(data, "init", context), "init", dim, _PAIR)
    evalv = _as_vector(_pop(data, "eval", context), "eval", dim, _PAIR)
    meta = _pop_metadata(data)
    _no_leftovers(data, context)
    return NcOomModel(algebra=algebra, op_per_basis=ops, init=init, eval=evalv, **meta)


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
        combined = mixture_direct_sum([(w, _classical_model(m)) for w, m in parts])
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


_PARSERS = {"oom": _parse_oom, "hmm": _parse_hmm, "ncoom": _parse_ncoom}


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
    elif isinstance(mtype, str) and mtype in _PARSERS:
        model = _PARSERS[mtype](data, context)
    else:
        raise SchemaError(f'unknown model type {mtype!r} in {context}')
    if validate:
        _validate_loaded(model)
    return model


def _validate_loaded(model):
    # the table is built per call so that wrappers installed on the
    # validator names later see every call
    for kind, validate, label, fields in (
        (OomModel, validate_oom, "model",
         "condition-1 residual {condition1_residual:.6e}, "
         "condition-2 residual {condition2_residual:.6e}, "
         "most negative probability {most_negative_probability:.6e} at depth {checked_depth}"),
        (HmmModel, validate_hmm, "HMM",
         "row-sum residual {row_sum_residual:.6e}, "
         "init-sum residual {init_sum_residual:.6e}, "
         "min entry {min_entry:.6e}"),
        (NcOomModel, validate_ncoom, "model",
         "condition-1 residual {condition1_residual:.6e}, "
         "condition-2 residual {condition2_residual:.6e}, "
         "most negative eigenvalue {most_negative_eigenvalue:.6e} at depth {checked_depth}, "
         "hermitian defect {hermitian_defect:.6e}"),
    ):
        if isinstance(model, kind):
            rep = validate(model)
            if not rep.passed:
                detail = fields.format_map(vars(rep))
                raise ValidationError(f"{label} failed validation: {detail}")
            return
    raise TypeError(f"cannot validate {type(model).__name__}")


# ---------------------------------------------------------------------------
# Serialization


def _pairs(a: np.ndarray) -> list:
    """Nested lists of a complex array, each entry as an [re, im] pair."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def serialize_model(model) -> dict:
    """Plain-JSON dict for a model; inverse of parsing, field for field."""
    if isinstance(model, OomModel):
        out = {
            "type": "oom",
            "alphabet": list(model.alphabet),
            "dim": model.dim,
            "operators": {s: model.operators[s].tolist() for s in model.alphabet},
            "init": model.init.tolist(),
            "eval": model.eval.tolist(),
        }
    elif isinstance(model, HmmModel):
        out = {
            "type": "hmm",
            "alphabet": list(model.alphabet),
            "n_states": model.n_states,
            "transition_emission": {
                s: model.transition_emission[s].tolist() for s in model.alphabet
            },
            "init": model.init.tolist(),
        }
    elif isinstance(model, NcOomModel):
        out = {
            "type": "ncoom",
            "algebra": {"blocks": list(model.algebra.block_dims)},
            "dim": model.dim,
            "op_per_basis": _pairs(model.op_per_basis),
            "init": _pairs(model.init),
            "eval": _pairs(model.eval),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if model.name is not None:
        out["name"] = model.name
    if model.description is not None:
        out["description"] = model.description
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
        extra["cluster_tol"] = _pop_number(data, "cluster_tol", 1e-8)
    else:
        raise SchemaError(f"unknown experiment kind {kind!r} in {context}")
    l_max = _as_int(_pop(data, "max_level", context), "max_level")
    tol_rel = _pop_number(data, "tol_rel", DEFAULT_RANK_TOL)
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
