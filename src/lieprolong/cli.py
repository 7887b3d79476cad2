"""Command line front end.

Subcommands: ``prolong`` evaluates a prolonged matrix at a tangent element
given in exponential coordinates, ``check`` runs verification suites on a
single representation, ``catalog`` lists the built-in entries, ``report``
runs every suite over the whole catalog.  Reports are emitted as json,
csv, or text; json output is canonical (sorted keys, no timestamps) so
identical configurations produce byte-identical documents.

Exit codes: 0 when every check passes or is inconclusive, 1 when any
check fails its tolerance, 2 for malformed input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .catalog import (
    CatalogEntry,
    DescriptorError,
    catalog_entry,
    catalog_list,
    load_representation,
    read_descriptor,
)
from .groups import (
    ChartError,
    ExponentOverflowError,
    GroupKind,
    TangentGroupElement,
    _rng,
    algebra_basis,
    algebra_from_coordinates,
    mat_exp,
    relative_residual,
)
from .prolongation import (
    NonFiniteImageError,
    Representation,
    StepSizeError,
    apply_prolonged,
    differential_rep,
    finite_difference_differential,
    prolong,
    tangent_action_oracle,
)
from .rep_algebra import (
    _ORACLE_TOL,
    CheckReport,
    Verdict,
    _homomorphism_checks,
    _verdict,
    check_action_oracle,
    check_equivalence_transfer,
    check_invariance_transfer,
    faithfulness_probe,
)
from .tangent_space import TangentVector

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

# Default tolerance of `prolong`'s differential_consistency row: an absolute
# max-abs gap between the analytic and the central-difference differential.
_DIFFERENTIAL_TOL = 1e-5


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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class _InputError(Exception):
    """Bad user input that should exit with status 2."""


def _parse_floats(text: str, label: str) -> np.ndarray:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise _InputError(f"{label} must contain at least one number")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise _InputError(f"cannot parse {label}: {exc}") from None


def _resolve_rep(source: str) -> tuple[Representation, Optional[CatalogEntry]]:
    """A rep source is a catalog name first, a descriptor path second."""
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
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)
        _write(text + "\n", config.output)
        return
    if config.format == "csv":
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
                        json.dumps(check["witness"], sort_keys=True)
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
    envelope = {
        "command": config.command,
        "config": config.to_dict(),
        "checks": [_check_payload(c) for c in checks],
        **extra,
        "version": __version__,
    }
    _emit(envelope, config)
    return 1 if any(c.verdict is Verdict.FAIL for c in checks) else 0


def _run_suite(
    suite: str,
    rep: Representation,
    entry: Optional[CatalogEntry],
    config: RunConfig,
) -> list[CheckReport]:
    samples, seed = config.samples, config.seed
    # Without --tol every check applies the default in its own signature.
    tol = {} if config.tol is None else {"tol": config.tol}
    rename = dataclasses.replace
    if suite == "homomorphism":
        base, lifted = _homomorphism_checks(rep, samples, seed, **tol)
        return [
            rename(base, name="homomorphism(base)"),
            rename(lifted, name="homomorphism(prolonged)"),
        ]
    if suite == "oracle":
        return [check_action_oracle(rep, samples, seed, **tol)]
    if suite == "equivalence":
        return [check_equivalence_transfer(rep, samples, seed, **tol)]
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
        # The prolongation of rep + rep, a sum of blocks, is two interleaved
        # copies of rep's whatever its images are: it holds by construction.
        return [CheckReport("direct_sum_commutation", Verdict.PASS, 0.0)]
    if suite == "faithfulness":
        return [faithfulness_probe(rep, **tol)]
    raise _InputError(f"unknown suite {suite!r}")


def cmd_check(config: RunConfig) -> int:
    rep, entry = _resolve_rep(config.rep_source)
    suites = _SUITE_NAMES if config.suite == "all" else (config.suite,)
    checks: list[CheckReport] = []
    try:
        for suite in suites:
            checks.extend(_run_suite(suite, rep, entry, config))
    except (ExponentOverflowError, StepSizeError, NonFiniteImageError) as exc:
        raise _InputError(f"cannot evaluate the representation: {exc}") from None
    return _finish(config, checks)


def cmd_prolong(config: RunConfig) -> int:
    rep, _entry = _resolve_rep(config.rep_source)
    spec = rep.group
    basis_size = len(algebra_basis(spec))
    a_coords = _parse_floats(config.a_coords, "--a-coords")
    fiber_coords = _parse_floats(config.fiber, "--fiber")
    if a_coords.shape[0] != basis_size or fiber_coords.shape[0] != basis_size:
        raise _InputError(
            f"{spec.describe()} takes {basis_size} coordinates per flag; got "
            f"{a_coords.shape[0]} for --a-coords and {fiber_coords.shape[0]} for --fiber"
        )
    try:
        base = mat_exp(algebra_from_coordinates(a_coords, spec))
        algebra = algebra_from_coordinates(fiber_coords, spec)
    except (ExponentOverflowError, ValueError) as exc:
        raise _InputError(str(exc)) from None
    X = TangentGroupElement(base, algebra)
    probes = _rng(config.seed).uniform(-1, 1, (5, 2, rep.target_dim))
    Y = TangentVector(probes[:, 0], probes[:, 1])
    try:
        matrix = prolong(rep, X)
        numeric = finite_difference_differential(rep, algebra)
        analytic = differential_rep(rep, algebra)
        direct = apply_prolonged(matrix, Y).coordinates
        oracle = tangent_action_oracle(rep, X, Y).coordinates
    except (ExponentOverflowError, StepSizeError, ValueError) as exc:
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
    entries = catalog_list()
    if config.kind is not None:
        entries = [e for e in entries if e.rep.group.kind.value == config.kind]
    payload = [
        {
            "name": e.name,
            "group": e.rep.group.describe(),
            "target_dim": e.rep.target_dim,
            "known_faithful": e.known_faithful,
            "invariant_subspace_count": len(e.known_invariant_subspaces),
            "notes": e.notes,
        }
        for e in entries
    ]
    return _finish(config, [], entries=payload)


def cmd_report(config: RunConfig) -> int:
    checks: list[CheckReport] = []
    for entry in catalog_list():
        for suite in _SUITE_NAMES:
            for report in _run_suite(suite, entry.rep, entry, config):
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
                required=True,
                help="catalog entry name or path to a descriptor file",
            )
        if samples:
            p.add_argument("--samples", type=int, default=RunConfig.samples)
        if rep or samples:  # the commands that evaluate a representation
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help=f"sampling seed (default 0, or ${SEED_ENV_VAR} when set)",
            )
            p.add_argument(
                "--tol",
                type=float,
                default=None,
                help="override the per-suite default tolerance",
            )
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--output", default=None, help="write the report to a file")

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
    # A command without a flag echoes the RunConfig default in its place.
    seed = getattr(args, "seed", None)
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise _InputError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
    samples = getattr(args, "samples", RunConfig.samples)
    if samples < 1:
        raise _InputError(f"--samples must be at least 1, got {samples}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise _InputError(f"--tol must be positive and finite, got {tol}")
    return RunConfig(
        command=args.command,
        rep_source=getattr(args, "rep", None),
        samples=samples,
        seed=seed,
        tol=tol,
        output=args.output,
        format=args.format,
        suite=getattr(args, "suite", None),
        a_coords=getattr(args, "a_coords", None),
        fiber=getattr(args, "fiber", None),
        kind=getattr(args, "kind", None),
    )


_COMMANDS = {
    "prolong": cmd_prolong,
    "check": cmd_check,
    "catalog": cmd_catalog,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.command](config)
    except (_InputError, DescriptorError, ChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
