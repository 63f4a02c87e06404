"""Command-line front end.

Subcommands: validate, eval, dim, minimize, causal, nc-eval, nc-dim, experiment
and sample. Reports go to standard output as canonical JSON
(17-significant-digit floats, byte-identical across runs for identical inputs
and seeds); errors go to standard error. Exit codes: 0 success or PASS, 1 FAIL
or invalid model, 2 usage or schema error, 3 INCONCLUSIVE. The env var
OOMLAB_SEED overrides the default seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys

from .causal import (
    DEFAULT_CLUSTER_TOL,
    causal_span_rank,
    enumerate_causal_states,
    predictive_distribution,
    statistical_complexity,
    topological_complexity,
    total_variation,
)
from .dimension import DEFAULT_RANK_TOL, equivalent, minimize_oom, process_dimension
from .errors import (
    PreconditionError,
    ResourceLimitError,
    SchemaError,
    ValidationError,
)
from .experiments import STATIONARITY_LEVEL
from .model_io import (
    dumps_canonical,
    experiment_points_rows,
    parse_experiment_file,
    parse_factors_file,
    parse_model_file,
    save_model,
    serialize_model,
)
from .ncoom import (
    NcOomModel,
    embed_classical,
    indicator_factors,
    nc_evaluate,
    nc_process_dimension,
    nc_stationarity_check,
    validate_ncoom,
)
from .oom import (
    DEFAULT_NEG_TOL,
    HmmModel,
    OomModel,
    _classical_model,
    sample_trajectory,
    stationarity_check,
    validate_hmm,
    validate_oom,
    word_probability,
)
from .algebra import is_positive
from .words import normalize_word


def _tolerance(text: str) -> float:
    """Type of the tolerance options: a finite nonnegative number."""
    with contextlib.suppress(ValueError):
        if 0.0 <= (value := float(text)) < math.inf:
            return value
    raise argparse.ArgumentTypeError(f"must be a finite nonnegative number, got {text!r}")


def _emit(obj) -> None:
    sys.stdout.write(dumps_canonical(obj))


def _parse_cli_word(text: str, alphabet) -> tuple:
    if text == "":
        return ()
    if "," in text:
        return normalize_word(tuple(text.split(",")), alphabet)
    return normalize_word(text, alphabet)


def _classical(model, what: str) -> OomModel:
    if isinstance(model, NcOomModel):
        raise ValueError(f"{what} needs a classical model, got an operator-algebra model")
    return _classical_model(model)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_validate(args) -> int:
    model = parse_model_file(args.model, validate=False)
    report: dict = {"model_type": type(model).__name__}
    depth = {} if args.depth is None else {"l_val": args.depth}
    if isinstance(model, HmmModel):
        hrep = validate_hmm(model)
        report["validation"] = hrep.to_dict()
        passed = hrep.passed
        if passed:
            induced = _classical_model(model)
            orep = validate_oom(induced, **depth)
            report["induced_model_validation"] = orep.to_dict()
            passed = orep.passed
        if args.check_stationarity and passed:
            report["stationarity"] = stationarity_check(
                induced, l=args.stationarity_level
            ).to_dict()
    else:
        nc = isinstance(model, NcOomModel)
        rep = (validate_ncoom if nc else validate_oom)(model, **depth)
        report["validation"] = rep.to_dict()
        if args.check_stationarity:
            check = nc_stationarity_check if nc else stationarity_check
            report["stationarity"] = check(model, l=args.stationarity_level).to_dict()
        passed = rep.passed
    _emit(report)
    return 0 if passed else 1


def _cmd_eval(args) -> int:
    model = _classical(parse_model_file(args.model), "eval")
    word = _parse_cli_word(args.word, model.alphabet)
    prob = word_probability(model, word, neg_tol=args.neg_tol)
    _emit({"word": list(word), "probability": prob})
    return 0


def _cmd_dim(args) -> int:
    model = _classical(parse_model_file(args.model), "dim")
    report = process_dimension(model, args.max_level, args.tol_rel)
    _emit(report.to_dict())
    return 0 if report.stabilized else 3


def _cmd_minimize(args) -> int:
    model = _classical(parse_model_file(args.model), "minimize")
    reduced = minimize_oom(model, args.tol_rel)
    same = equivalent(model, reduced, model.dim + reduced.dim)
    report = {
        "dim_before": model.dim,
        "dim_after": reduced.dim,
        "equivalent_up_to_depth": model.dim + reduced.dim,
        "equivalent": same,
    }
    if args.output:
        save_model(reduced, args.output)
        report["output"] = args.output
    else:
        report["model"] = serialize_model(reduced)
    _emit(report)
    return 0 if same else 1


def _cmd_causal(args) -> int:
    model = _classical(parse_model_file(args.model), "causal")
    stat = stationarity_check(model, l=args.stationarity_level)
    if not stat.stationary:
        raise ValidationError(
            f"causal states need a stationary process; residual {stat.residual:.3e}"
        )
    partition = enumerate_causal_states(
        model, args.past_len, args.horizon, cluster_tol=args.cluster_tol
    )
    # cross-check each stored representative against a fresh conditional
    rep_gap = 0.0
    for state in partition.states:
        pd = predictive_distribution(model, state.representative_past, args.horizon)
        rep_gap = max(rep_gap, total_variation(pd.dist, state.representative))
    report = partition.to_dict()
    report["stationarity_residual"] = stat.residual
    report["representative_check_max_tv"] = rep_gap
    report["statistical_complexity_bits"] = statistical_complexity(partition)
    report["topological_complexity_bits"] = topological_complexity(partition)
    report["causal_span_rank"] = causal_span_rank(partition, args.tol_rel)
    _emit(report)
    return 0


def _load_nc(args):
    model = parse_model_file(args.model)
    if isinstance(model, NcOomModel):
        return model, None
    model = _classical_model(model)
    return embed_classical(model), model.alphabet


def _cmd_nc_eval(args) -> int:
    model, alphabet = _load_nc(args)
    if (args.factors is None) == (args.word is None):
        raise ValueError("provide exactly one of --factors or --word")
    if args.factors is not None:
        factors = parse_factors_file(args.factors, model.algebra)
    else:
        if alphabet is None:
            raise ValueError("--word applies only to classical model files")
        word = _parse_cli_word(args.word, alphabet)
        factors = indicator_factors(model, alphabet, word)
    if args.require_positive:
        for i, a in enumerate(factors):
            if not is_positive(a):
                print(f"error: factor {i} is not positive", file=sys.stderr)
                return 1
    value = nc_evaluate(model, factors)
    _emit({"n_factors": len(factors), "value": [value.real, value.imag]})
    return 0


def _cmd_nc_dim(args) -> int:
    model, _ = _load_nc(args)
    report = nc_process_dimension(model, args.max_level, args.tol_rel)
    _emit(report.to_dict())
    return 0 if report.stabilized else 3


def _cmd_experiment(args) -> int:
    name, runner = parse_experiment_file(args.spec)
    report = runner()
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(report.to_dict()))
    header, rows = experiment_points_rows(report)
    table = io.StringIO()
    csv.writer(table).writerows([header, *rows])
    with open(os.path.join(out_dir, "points.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(table.getvalue())
    if args.csv:
        sys.stdout.write(table.getvalue())
    else:
        _emit(report.to_dict())
    if report.runtime_seconds is not None:
        print(f"runtime: {report.runtime_seconds:.3f}s", file=sys.stderr)
    return {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 3}[report.verdict]


def _cmd_sample(args) -> int:
    model = _classical(parse_model_file(args.model), "sample")
    seed = args.seed if args.seed is not None else int(os.environ.get("OOMLAB_SEED") or 0)
    word = sample_trajectory(model, args.length, seed)
    _emit({"length": args.length, "seed": seed, "word": list(word)})
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oomlab",
        description="Observable operator models: evaluation, dimension, causal states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True, help="model file (JSON)")

    p = sub.add_parser("validate", help="check the defining conditions of a model file")
    add_model(p)
    p.add_argument("--depth", type=int, default=None, help="word/tuple scan depth")
    p.add_argument("--check-stationarity", action="store_true")
    p.add_argument("--stationarity-level", type=int, default=STATIONARITY_LEVEL)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eval", help="probability of a word")
    add_model(p)
    p.add_argument("--word", required=True, help='e.g. 101 or "a,b,a" (empty for the empty word)')
    p.add_argument("--neg-tol", type=_tolerance, default=DEFAULT_NEG_TOL, dest="neg_tol")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("dim", help="process dimension via the Hankel rank ladder")
    add_model(p)
    p.add_argument("--max-level", type=int, required=True, dest="max_level")
    p.add_argument("--tol-rel", type=_tolerance, default=DEFAULT_RANK_TOL, dest="tol_rel")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("minimize", help="equivalent model of minimal dimension")
    add_model(p)
    p.add_argument("--tol-rel", type=_tolerance, default=DEFAULT_RANK_TOL, dest="tol_rel")
    p.add_argument("--output", default=None, help="write the reduced model here")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("causal", help="finite-horizon causal states and complexities")
    add_model(p)
    p.add_argument("--past-len", type=int, required=True, dest="past_len")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--cluster-tol", type=_tolerance, default=DEFAULT_CLUSTER_TOL,
                   dest="cluster_tol")
    p.add_argument("--tol-rel", type=_tolerance, default=DEFAULT_RANK_TOL, dest="tol_rel")
    p.add_argument("--stationarity-level", type=int, default=STATIONARITY_LEVEL)
    p.set_defaults(func=_cmd_causal)

    p = sub.add_parser("nc-eval", help="evaluate a state on an elementary tensor")
    add_model(p)
    p.add_argument("--factors", default=None, help="JSON file with algebra elements")
    p.add_argument("--word", default=None, help="indicator tuple of a classical word")
    p.add_argument("--require-positive", action="store_true")
    p.set_defaults(func=_cmd_nc_eval)

    p = sub.add_parser("nc-dim", help="process dimension of an operator-algebra model")
    add_model(p)
    p.add_argument("--max-level", type=int, required=True, dest="max_level")
    p.add_argument("--tol-rel", type=_tolerance, default=DEFAULT_RANK_TOL, dest="tol_rel")
    p.set_defaults(func=_cmd_nc_dim)

    p = sub.add_parser("experiment", help="run a verification harness from a spec file")
    p.add_argument("action", choices=["run"])
    p.add_argument("spec", help="experiment spec file (JSON)")
    p.add_argument("--out-dir", default=".", dest="out_dir")
    p.add_argument("--csv", action="store_true", help="print the flat point table instead of JSON")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sample", help="draw a trajectory from a model")
    add_model(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_sample)

    return parser


def dispatch(argv) -> int:
    """Parse arguments and run the chosen subcommand, returning the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (SchemaError, ResourceLimitError, PreconditionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(argv)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
