"""Command-line interface: model ingestion, subcommand dispatch, reports.

Reports are deterministic for a fixed invocation: JSON keys are sorted,
floats are printed with 17 significant digits (full round-trip), and every
numeric report embeds the tolerances and caps in effect.  `dumps` prints
each value by the emitter of its exact type, chosen once per type; a
dataclass type's emitter holds its sorted fields and encoded keys, so an
instance is printed without a dict or a sort.  CSV is emitted
only for sweeps and the enumeration oracle.  Exit status: 0 success,
1 bad input (an InputError, such as a cap below the words to enumerate or
a star beta below the abscissa, or a ValueError), 2 any other KmsError or
numpy's LinAlgError, a ValueError subclass (a numeric failure).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import re
import sys as _sys

import numpy as np

from . import classify, critical, invariance, model as model_mod, partition, star, states, words
from .errors import ConfigParseError, InputError, KmsError


# --- deterministic serialization -----------------------------------------

def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


_FLOAT_ONLY = {float}


def _emit_list(items) -> str:
    # A list of finite floats goes through one %-format, which prints each as
    # format(x, ".17g") does; "inf" and "nan" are the only %g outputs with an
    # "n", and they and every other type take the per-element path.
    if items and set(map(type, items)) == _FLOAT_ONLY:
        text = ", ".join(["%.17g"] * len(items)) % tuple(items)
        if "n" not in text:
            return "[" + text + "]"
    return "[" + ", ".join(_emit(v) for v in items) + "]"


def _emit_dict(o: dict) -> str:
    keyed = {str(k): v for k, v in o.items()}
    return "{" + ", ".join(f"{json.dumps(k)}: {_emit(keyed[k])}" for k in sorted(keyed)) + "}"


def _dataclass_emitter(t: type):
    # The plan of a dataclass type: its field names sorted, each with the
    # encoded key that heads it in the output.
    plan = [(json.dumps(name) + ": ", name) for name in sorted(f.name for f in dataclasses.fields(t))]
    return lambda o: "{" + ", ".join([head + _emit(getattr(o, name)) for head, name in plan]) + "}"


def _emit_array(a: np.ndarray) -> str:
    return _emit_list(a.tolist())


def _emit_scalar(o) -> str:
    item = o.item()
    if type(item) in (int, float):
        return _emit(item)
    raise TypeError(f"cannot serialize {type(item)!r}")


# The emitter of each type met so far, keyed by exact type.
_EMITTERS = {
    float: _fmt_float,
    type(None): lambda o: "null",
    bool: lambda o: "true" if o else "false",
    int: str,
    str: json.dumps,
    list: _emit_list,
    tuple: _emit_list,
    dict: _emit_dict,
}


def _emitter(o):
    """The emitter of type(o), chosen in the order that decides what it prints as,
    and kept in the table.  A type that cannot be serialized raises and is not
    kept: so does every class object, a dataclass among them."""
    t = type(o)
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        emit = _dataclass_emitter(t)
    elif isinstance(o, np.ndarray):
        emit = _emit_array
    elif isinstance(o, (np.floating, np.integer)):
        emit = _emit_scalar
    elif isinstance(o, (list, tuple)):
        emit = _emit_list
    else:
        raise TypeError(f"cannot serialize {t!r}")
    _EMITTERS[t] = emit
    return emit


def _emit(o) -> str:
    return (_EMITTERS.get(type(o)) or _emitter(o))(o)


def dumps(obj) -> str:
    """JSON text with sorted keys and fixed 17-significant-digit floats.

    Dataclasses print as objects of their fields, arrays, tuples and
    NamedTuples as lists, numpy scalars as Python numbers, and dict keys as
    strings.  Subclasses of dict, bool, int, float and str raise TypeError.
    Each value is printed by the emitter of its exact type, chosen once per
    type; a dataclass type's emitter holds its sorted fields with their
    encoded keys, so an instance costs one getattr and one emit per field.
    """
    return _emit(obj)


# --- ingestion ------------------------------------------------------------

# a "matrix" member's array, from its "[" to the first "]]"
_MATRIX_OPEN = re.compile(r'"matrix"[ \t\n\r]*:[ \t\n\r]*\[')
_MATRIX_CLOSE = re.compile(r"\][ \t\n\r]*\]")
_ONE_AS_ZERO = bytes.maketrans(b"1", b"0")
_DIGIT_VALUE = bytes.maketrans(b"01", b"\0\1")


def _loads_model(text: str):
    """json.loads(text), with a "matrix" of bare 0s and 1s read by numpy.

    Stripped of JSON whitespace, such a matrix spells [[d,...,d],...] with m
    rows of m digits.  The span is the top-level "matrix" value when the
    text with the bare token NaN in its place, and no other NaN, parses to
    an object whose "matrix" is nan (a sentinel string could be spelled
    again with escapes); JSON being context-free, the text itself then
    parses to that object with the span's matrix in place.  Any other text
    takes json.loads whole, so its values and error messages are json's.
    """
    key = _MATRIX_OPEN.search(text)
    close = key and _MATRIX_CLOSE.search(text, key.end())
    if close:
        start, end = key.end() - 1, close.end()
        head, span, tail = text[:start], text[start:end], text[end:]
        compact = span.encode().translate(None, b" \t\n\r") if span.isascii() else b""
        m = (compact.find(b"]") - 1) // 2
        if m > 0 and len(compact) == 2 * m * (m + 1) + 1 and "NaN" not in head + tail:
            row = b"[" + b"0," * (m - 1) + b"0]"
            if compact.translate(_ONE_AS_ZERO) == b"[" + b",".join([row] * m) + b"]":
                with contextlib.suppress(json.JSONDecodeError):
                    raw = json.loads(head + "NaN" + tail)
                    if type(raw) is dict and type(v := raw.get("matrix")) is float and v != v:
                        digits = compact.translate(_DIGIT_VALUE, b"[],")
                        raw["matrix"] = np.frombuffer(digits, np.int8).reshape(m, m)
                        return raw
    return json.loads(text)


def load_model(path: str | None, inline: str | None) -> model_mod.SystemModel:
    if (path is None) == (inline is None):
        raise ConfigParseError("provide exactly one of --model or --model-json")
    try:
        text = inline
        if text is None:
            with open(path) as fh:
                text = fh.read()
        raw = _loads_model(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read model: {exc}") from exc
    if not isinstance(raw, dict) or "matrix" not in raw or "energies" not in raw:
        raise ConfigParseError('model JSON needs "matrix" and "energies"')
    return model_mod.build_model(raw["matrix"], raw["energies"], raw.get("labels"))


def _number(value, what: str) -> float:
    """float(value), with a JSON boolean, list, object or null rejected as input."""
    if not isinstance(value, bool):  # float(True) is 1.0
        with contextlib.suppress(TypeError):
            return float(value)
    raise ConfigParseError(f"{what} must be a number, got {value!r}")


def load_state(path: str, space: model_mod.ColumnSpace, beta_override: float | None):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read state: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError("state JSON must be an object")
    beta = beta_override if beta_override is not None else raw.get("beta")
    if beta is None:
        raise ConfigParseError("state JSON needs a beta (or pass --beta)")
    masses = raw.get("atom_masses")
    if isinstance(masses, dict):
        atoms = np.zeros(space.d)
        for key, value in masses.items():
            bits = tuple(int(ch) for ch in key)
            if bits not in space.points:
                raise ConfigParseError(f"unknown column point {key!r}")
            atoms[space.points.index(bits)] = _number(value, f"atom mass {key!r}")
    elif isinstance(masses, list):
        atoms = np.array([_number(value, f"atom mass {i}") for i, value in enumerate(masses)])
    else:
        raise ConfigParseError('state JSON needs "atom_masses" (list or bitstring dict)')
    return states.qstate_from_atoms(space, _number(beta, "beta"), atoms, states.FINITE)


def _parse_range(text: str) -> np.ndarray:
    try:
        b0, b1, n = text.split(":")
        b0, b1, n = float(b0), float(b1), int(n)
    except ValueError as exc:
        raise ConfigParseError(f"bad range {text!r}, expected b0:b1:steps") from exc
    if n < 2 or not b1 > b0:
        raise ConfigParseError("range needs b1 > b0 and at least 2 points")
    return np.linspace(b0, b1, n)


def _settings(args) -> dict:
    return {
        "word_cap": getattr(args, "cap", words.WORD_CAP_DEFAULT),
        "convergence_margin": getattr(args, "margin", partition.CONVERGENCE_MARGIN_DEFAULT),
        "bisect_tol": critical.BISECT_TOL_DEFAULT,
        "gap_tol": invariance.GAP_TOL_DEFAULT,
        "eig_one_tol": classify.EIG_ONE_TOL_DEFAULT,
    }


# --- subcommands ----------------------------------------------------------
# Each returns its report, which `main` prints with the settings added, or
# None after printing CSV itself.

def _cmd_analyze(args) -> dict:
    m = load_model(args.model, args.model_json)
    props = model_mod.properties(m)
    space = model_mod.column_space(m)
    crit = critical.beta_c(m)
    digits = (space.bit_matrix() + 48).astype(np.uint8).tobytes().decode()     # "0" is 48
    return {
        "properties": props,
        "column_space": {
            "d": space.d,
            "points": [digits[i:i + m.m] for i in range(0, len(digits), m.m)],
            "column_of": list(space.column_of),
            "contains_zero": space.contains_zero,
        },
        "critical": crit,
    }


def _cmd_partition(args) -> dict | None:
    m = load_model(args.model, args.model_json)
    if args.sweep:
        grid = _parse_range(args.sweep)
        crit = critical.beta_c(m)
        # every row before the header, so that a rejected sweep prints no CSV
        rows = []
        for b, rep in zip(grid, partition.evaluate(m, grid, margin=args.margin)):
            z = "inf" if not rep.convergent else format(rep.z_total, ".17g")
            rows.append(f"{b:.17g},{rep.spectral_radius:.17g},{z},{crit.regime(b)}")
        print("beta,spectral_radius,z_total,regime")
        print("\n".join(rows))
        return None
    if args.beta is None:
        raise ConfigParseError("partition needs --beta or --sweep")
    rep = partition.evaluate(m, args.beta, margin=args.margin)
    bound = partition.geometric_bound(m, args.beta) if not math.isinf(args.beta) else None
    return {"partition": rep, "geometric_bound": bound}


def _cmd_critical(args) -> dict:
    m = load_model(args.model, args.model_json)
    if args.cap < 0:
        raise ConfigParseError("--cap must be nonnegative")
    report = {"critical": critical.beta_c(m)}
    if args.abscissa_check is not None:
        est = critical.abscissa_estimate(m, args.abscissa_check, cap=args.cap)
        report["abscissa_estimate"] = {"estimate": est.estimate, "residual": est.residual}
    return report


def _cmd_kms(args) -> dict:
    m = load_model(args.model, args.model_json)
    return {"regime": classify.classify_ta(m, args.beta)}


def _cmd_oa(args) -> dict:
    m = load_model(args.model, args.model_json)
    if args.scan:
        return {"scan": classify.oa_beta_scan(m)}
    if args.beta is None:
        raise ConfigParseError("oa needs --beta or --scan")
    return {"simplex": classify.kms_oa(m, args.beta)}


def _cmd_check_state(args) -> dict:
    m = load_model(args.model, args.model_json)
    space = model_mod.column_space(m)
    state = load_state(args.state, space, args.beta)
    verdict = invariance.is_subinvariant(m, state.beta, state, exhaustive=args.exhaustive)
    report = {"beta": state.beta, "verdict": verdict}
    if verdict.subinvariant:
        dec = states.decompose(m, state.beta, state)
        report["decomposition"] = {
            "finite_fraction": dec.finite_fraction,
            "gamma_finite": list(dec.gamma_finite.weights),
            "reconstruction_residual": dec.reconstruction_residual,
            "fixed_point_residual": dec.fixed_point_residual,
            "q_norm_residual": dec.q_norm_residual,
        }
        # factors_through_oa is this invariance of the restriction
        report["factors_through_quotient"] = verdict.invariant
        report["infinite_stem_mass"] = states.omega_infinity_mass(m, state.beta, state, 10)
    return report


def _cmd_star(args) -> dict:
    drop = None if args.drop == "auto" else int(args.drop)
    sys_ = star.build_star(args.family, drop=drop, head_count=args.head_count)
    beta = args.beta if args.beta is not None else sys_.beta_bar
    # one zeta(beta) enclosure for the partition, z0 and every truncation bound
    enclosure = star.zeta_enclosure(sys_, beta)
    part = star._partition(beta, enclosure)
    levels = [int(k) for k in args.levels.split(",")] if args.levels else [8, 32, 128]
    table = []
    for K in levels:
        tm = star.truncated_model(sys_, K)
        crit_k = critical.beta_c(tm)
        rep_k = partition.evaluate(tm, beta)
        z0_k = float(rep_k.z_y[0]) if rep_k.convergent else math.inf
        table.append({
            "K": K,
            "beta_c": crit_k.beta_c,
            "z0_truncated": z0_k,
            "bound": star._truncation_bound(sys_, beta, K, z0_k, enclosure[1]),
        })
    return {
        "system": {
            "kind": sys_.kind,
            "drop": sys_.drop,
            "beta_bar": sys_.beta_bar,
            "zeta_at_abscissa_bounds": list(sys_.zeta_at_abscissa_bounds),
            "normalization_condition_certified": sys_.zeta_at_abscissa_bounds[1] < 2.0 ** sys_.beta_bar,
        },
        "beta": beta,
        "partition": part,
        "z0_displayed": star._z0_displayed(beta, enclosure),
        "z0_convention": star.Z0_CONVENTION,
        "truncations": table,
        "critical_states": [star.star_kms_at_critical(sys_, t) for t in (0.0, 1.0)],
    }


def _cmd_oracle(args) -> None:
    m = load_model(args.model, args.model_json)
    if args.max_length < 0:
        raise ConfigParseError("--max-length must be nonnegative")
    if args.cap < 0:
        raise ConfigParseError("--cap must be nonnegative")
    # every row before the header, so that a rejected input prints no CSV:
    # the shell table of partial_series, whose word tree applies the cap
    counts, sums = words._shell_table(m, args.beta, args.max_length, args.source,
                                      args.target, args.cap)
    print("n,count,shell_sum")
    for n, s in enumerate(sums):
        print(f"{n},{counts[n]},{s:.17g}")


# --- dispatch -------------------------------------------------------------

def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="path to a model JSON file")
    p.add_argument("--model-json", help="inline model JSON")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kmsphase", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="properties, column space and critical report")
    _add_model_args(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("partition", help="partition functions at beta, or a CSV sweep")
    _add_model_args(sp)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--sweep", help="b0:b1:steps (inclusive endpoints)")
    sp.add_argument("--margin", type=float, default=partition.CONVERGENCE_MARGIN_DEFAULT)
    sp.set_defaults(func=_cmd_partition)

    sp = sub.add_parser("critical", help="critical temperature report")
    _add_model_args(sp)
    sp.add_argument("--abscissa-check", type=int, metavar="L",
                    help="also estimate the abscissa from shell growth up to length L")
    sp.add_argument("--cap", type=int, default=words.WORD_CAP_DEFAULT)
    sp.set_defaults(func=_cmd_critical)

    sp = sub.add_parser("kms", help="phase classification at beta")
    _add_model_args(sp)
    sp.add_argument("--beta", type=float, required=True)
    sp.set_defaults(func=_cmd_kms)

    sp = sub.add_parser("oa", help="quotient-algebra KMS simplex")
    _add_model_args(sp)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--scan", action="store_true")
    sp.set_defaults(func=_cmd_oa)

    sp = sub.add_parser("check-state", help="subinvariance and decomposition of a state")
    _add_model_args(sp)
    sp.add_argument("--state", required=True, help="state JSON path")
    sp.add_argument("--beta", type=float, help="override the state's beta")
    sp.add_argument("--exhaustive", action="store_true")
    sp.set_defaults(func=_cmd_check_state)

    sp = sub.add_parser("star", help="the infinite star family")
    sp.add_argument("--family", default="default", choices=["default"])
    sp.add_argument("--drop", default="auto")
    sp.add_argument("--beta", type=float)
    sp.add_argument("--head-count", type=int, default=star.HEAD_COUNT_DEFAULT)
    sp.add_argument("--levels", help="comma-separated truncation levels")
    sp.set_defaults(func=_cmd_star)

    sp = sub.add_parser("oracle", help="per-shell enumeration CSV")
    _add_model_args(sp)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--max-length", type=int, required=True)
    sp.add_argument("--source", type=int)
    sp.add_argument("--target", type=int)
    sp.add_argument("--cap", type=int, default=words.WORD_CAP_DEFAULT)
    sp.set_defaults(func=_cmd_oracle)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads every command with, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
    except np.linalg.LinAlgError as exc:    # a ValueError, but no bad input
        print(f"numeric failure: {exc}", file=_sys.stderr)
        return 2
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except KmsError as exc:
        print(f"numeric failure: {exc}", file=_sys.stderr)
        return 2
    if report is not None:
        report["settings"] = _settings(args)
        print(dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
