"""Command line entry point.

Subcommands: ``build`` (feature pipeline -> sheaf.json), ``diagnose``
(four-channel report + CSV spectra), ``experiment`` (the four comparative
harnesses, one subcommand each), ``verify`` (homological certificates) and
``dump`` (operator matrices). Each command takes only the options it reads.
Every invocation is deterministic given its arguments; outputs are written
atomically and carry a schema version.

Exit codes: 0 success, 1 input error, 2 validation error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import diagnostics as diag
from .complexes import graph_from_json
from .fileio import write_csv, write_json
from .operators import (
    VERTEX_LEVEL,
    algebraic_cone,
    channel_set,
    coboundary,
    laplacian,
    verify_cone_equivalence,
    verify_long_exact_sequence,
)
from .sheaves import (
    FeaturePipelineConfig,
    build_sheaf_from_features,
    hidden_twist_bundle,
    mobius_bundle,
    noisy_trivial_bundle,
    sheaf_from_json,
    sheaf_to_json_dict,
    trivial_bundle,
    validate_sheaf,
)
from .spectral import (
    WitnessConfig,
    cone_reduction_side,
    indicator_profile,
    verify_cone_reduction,
)

WEIGHT_FLAGS = {"unif": "uniform", "inv": "inverse", "heat": "heat", "gap": "gap"}
OPERATOR_NAMES = ("d0", "d1", "L0", "L1", "relative", "utilization")


class CliInputError(Exception):
    pass


@dataclasses.dataclass
class RunConfig:
    """Everything a command needs to reproduce itself byte-for-byte."""

    command: str
    input: str | None = None
    features: str | None = None
    generator: str | None = None
    n: int = diag.N_DEFAULT
    stalk_dim: int | None = None
    tau: float = diag.TAU_DEFAULT
    sigma: float = diag.SIGMA_DEFAULT
    seed: int = diag.SEED_DEFAULT
    grounding: str = "padding"
    delta0: float = WitnessConfig.delta0
    delta1: float | None = WitnessConfig.delta1
    weight: str = WitnessConfig.weight
    normalize: bool = False
    svd_tol: float = FeaturePipelineConfig.svd_tol
    edge_align_tol: float = FeaturePipelineConfig.edge_align_tol
    tri_eig_tol: float = FeaturePipelineConfig.tri_eig_tol
    tri_exponent: float = FeaturePipelineConfig.tri_exponent
    out: str = "out"
    format_version: str = "1"

    def to_json_dict(self):
        return dataclasses.asdict(self)


def _config_from_args(args, command) -> RunConfig:
    """The command's config: each option it was given, the defaults otherwise."""
    given = {field.name: getattr(args, field.name) for field in dataclasses.fields(RunConfig)
             if field.name != "command" and getattr(args, field.name, None) is not None}
    if "weight" in given:
        given["weight"] = WEIGHT_FLAGS[given["weight"]]
    return RunConfig(command=command, **given)


def _witness_config(cfg: RunConfig) -> WitnessConfig:
    try:
        return WitnessConfig(delta0=cfg.delta0, delta1=cfg.delta1, weight=cfg.weight)
    except ValueError as exc:
        raise CliInputError(str(exc))


def _read(path, parse):
    """``parse`` of the text at ``path``; a file that cannot be read, is not
    JSON or does not parse is an input error naming the path."""
    try:
        with open(path) as handle:
            return parse(handle.read())
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}")
    except (ValueError, KeyError) as exc:
        raise CliInputError(f"{path}: {exc}")


def _stalk_dim(cfg: RunConfig) -> dict:
    """``stalk_dim`` as a keyword when given: the generator's default otherwise."""
    return {} if cfg.stalk_dim is None else {"stalk_dim": cfg.stalk_dim}


# each generator's sheaf, from the config and the stalk-dim keyword
_GENERATORS = {
    "trivial": lambda cfg, dim: trivial_bundle(cfg.n, **dim),
    "mobius": lambda cfg, dim: mobius_bundle(cfg.n, **dim),
    "hidden-twist": lambda cfg, dim: hidden_twist_bundle(cfg.n, cfg.tau, **dim),
    "noisy-trivial": lambda cfg, dim: noisy_trivial_bundle(cfg.n, cfg.sigma, cfg.seed, **dim),
}
GENERATORS = tuple(_GENERATORS)


def _resolve_sheaf(cfg: RunConfig):
    if cfg.input:
        return _read(cfg.input, sheaf_from_json)
    if cfg.generator:
        try:
            return _GENERATORS[cfg.generator](cfg, _stalk_dim(cfg))
        except ValueError as exc:
            raise CliInputError(f"generator {cfg.generator}: {exc}")
    raise CliInputError("need --input or --generator")


def _out(cfg, name):
    return os.path.join(cfg.out, name)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    cfg = _config_from_args(args, "build")
    if not cfg.input or not cfg.features:
        raise CliInputError("build needs --input graph.json and --features features.json")
    graph = _read(cfg.input, graph_from_json)
    feature_data = _read(cfg.features, json.loads)
    if not isinstance(feature_data, dict) or not isinstance(feature_data.get("features"), dict):
        raise CliInputError(f"{cfg.features}: expected a 'features' object")
    features = {}
    for key, rows in feature_data["features"].items():
        try:
            features[int(key)] = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CliInputError(f"{cfg.features}: vertex {key}: {exc}")
    try:
        pipeline = FeaturePipelineConfig(cfg.svd_tol, cfg.edge_align_tol, cfg.tri_eig_tol,
                                         cfg.tri_exponent)
        sheaf = build_sheaf_from_features(graph, features, pipeline)
    except ValueError as exc:
        raise CliInputError(str(exc))
    violations = validate_sheaf(sheaf)
    payload = sheaf_to_json_dict(sheaf)
    payload["params"] = cfg.to_json_dict()
    write_json(_out(cfg, "sheaf.json"), payload)
    if violations:
        report = [
            {"triangle": list(v.triangle), "vertex": list(v.vertex), "defect": v.defect}
            for v in violations
        ]
        write_json(_out(cfg, "validation_report.json"), {"violations": report})
        print(f"functoriality violations on {len(violations)} incidences; "
              f"triangles: {sorted({tuple(v.triangle) for v in violations})}",
              file=sys.stderr)
        return 2
    return 0


def cmd_diagnose(args) -> int:
    cfg = _config_from_args(args, "diagnose")
    dcfg = diag.DiagnosticsConfig(
        witness=_witness_config(cfg), normalize=cfg.normalize,
        with_local=args.heatmap,
    )
    sheaf = _resolve_sheaf(cfg)
    grounding = diag.make_grounding(sheaf, cfg.grounding)
    report = diag.run_diagnostics(sheaf, grounding, dcfg)
    report.params.update(cfg.to_json_dict())

    spectra_rows = []
    for name, spectrum in sorted(report.spectra.items()):
        for i, lam in enumerate(spectrum.eigenvalues):
            spectra_rows.append((name, i, float(lam)))
        grid = sorted(set(max(float(x), 0.0) for x in spectrum.eigenvalues))
        profile_rows = list(zip(grid, indicator_profile(spectrum, grid)))
        write_csv(_out(cfg, f"profile_{name}.csv"), ("delta", "dim"), profile_rows)
    write_csv(_out(cfg, "channel_spectra.csv"), ("channel", "index", "eigenvalue"),
              spectra_rows)

    refs = []
    for name, witness_map in sorted(report.local_maps.items()):
        filename = f"local_witness_{name}.csv"
        _write_witness_csv(_out(cfg, filename), witness_map)
        refs.append(filename)
    write_json(_out(cfg, "report.json"), report.to_json_dict(localization_refs=refs))
    return 0


def _write_witness_csv(path, witness_map):
    """One row per cell, numbered in the canonical cell order of the map."""
    rows = [(i, witness_map.degree, witness_map.delta, score)
            for i, score in enumerate(witness_map.scores.values())]
    write_csv(path, ("cell_id", "degree", "delta", "score"), rows)


# each experiment's result and heatmaps, from the config
_EXPERIMENTS = {
    "existence": lambda cfg: (diag.experiment_existence(cfg.n, **_stalk_dim(cfg)), {}),
    "magnitude": lambda cfg: (diag.experiment_magnitude(cfg.n, cfg.tau, cfg.sigma, cfg.seed), {}),
    "localization": lambda cfg: diag.experiment_localization(
        cfg.n, cfg.tau, cfg.sigma, cfg.seed, cfg=_witness_config(cfg)),
    "relativity": lambda cfg: (diag.experiment_relativity(cfg.n, **_stalk_dim(cfg)), {}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def cmd_experiment(args) -> int:
    name = args.name
    cfg = _config_from_args(args, f"experiment:{name}")
    try:
        result, heatmaps = _EXPERIMENTS[name](cfg)
    except diag.ExperimentParameterError as exc:
        raise CliInputError(f"experiment {name}: {exc}")
    payload = result.to_json_dict()
    payload["params"].update({"cli": cfg.to_json_dict()})
    write_json(_out(cfg, f"experiment_{name}.json"), payload)
    for panel, witness_map in sorted(heatmaps.items()):
        _write_witness_csv(_out(cfg, f"heatmap_{panel}.csv"), witness_map)
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from_args(args, "verify")
    sheaf = _resolve_sheaf(cfg)
    grounding = diag.make_grounding(sheaf, cfg.grounding)
    checks = {}

    if grounding.mode == VERTEX_LEVEL:
        cone = algebraic_cone(sheaf, grounding)
        checks["cone_equivalence"] = _report_fields(
            verify_cone_equivalence(cone), "defect_norm", "max_residual")
        checks["long_exact_sequence"] = _report_fields(
            verify_long_exact_sequence(cone), "defect_norm", "betti_cone")
        side = cone_reduction_side(cone)
        checks["cone_reduction"] = _report_fields(
            verify_cone_reduction(side, side), "residuals", "eta", "v_bound", "measured")
    else:
        reason = "grounding has no per-cell maps (cochain-on-c1 mode)"
        for key in ("cone_equivalence", "long_exact_sequence", "cone_reduction"):
            checks[key] = {"status": "hypothesis-not-met", "reason": reason}

    separation = diag.separation_check(sheaf, grounding)
    checks["separation"] = {"status": separation.status, **separation.to_json_dict()}

    write_json(_out(cfg, "certificates.json"),
               {"checks": checks, "params": cfg.to_json_dict()})
    failed = [k for k, v in checks.items() if v["status"] == "fail"]
    if failed:
        print(f"verification failed: {', '.join(sorted(failed))}", file=sys.stderr)
        return 3
    return 0


def _report_fields(report, *names):
    """A certificate's status and the named fields of its report."""
    return {name: getattr(report, name) for name in ("status",) + names}


def cmd_dump(args) -> int:
    cfg = _config_from_args(args, "dump")
    name = args.operator
    sheaf = _resolve_sheaf(cfg)
    if name in ("d0", "d1"):
        degree = int(name[1])
        matrix = coboundary(sheaf, degree).matrix
        provenance = "coboundary"
    elif name in ("L0", "L1"):
        degree = int(name[1])
        matrix = laplacian(sheaf, degree).matrix
        provenance = "base"
    else:
        grounding = diag.make_grounding(sheaf, cfg.grounding)
        channels = channel_set(sheaf, grounding)
        lap = channels.relative if name == "relative" else channels.utilization
        matrix, degree, provenance = lap.matrix, lap.degree, "channel"
    write_json(_out(cfg, f"operator_{name}.json"), {
        "operator": name,
        "degree": degree,
        "provenance": provenance,
        "shape": list(matrix.shape),
        "matrix": [float(x) for x in matrix.reshape(-1)],
        "params": cfg.to_json_dict(),
    })
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # input errors exit 1; argparse's default of 2 is reserved for validation
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, accept, requirement):
    """An option type: ``convert`` of the text, rejected unless ``accept`` holds."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


# every float option: NaN and infinities would make ``params`` invalid JSON
_finite_float = _checked(float, math.isfinite, "must be finite")
# ``--stalk-dim``: a stalk needs at least one dimension
_positive_int = _checked(int, lambda value: value >= 1, "must be at least 1")


_OPTIONS = {
    "--input": {"help": "input sheaf/graph JSON"},
    "--features": {"help": "features JSON"},
    "--generator": {"choices": GENERATORS},
    "--n": {"type": int, "help": "cycle length"},
    "--stalk-dim": {"type": _positive_int},
    "--tau": {"type": _finite_float, "help": "hidden-twist rotation angle"},
    "--sigma": {"type": _finite_float, "help": "noise level"},
    "--seed": {"type": int},
    "--grounding": {"choices": diag.GROUNDING_NAMES},
    "--delta0": {"type": _finite_float},
    "--delta1": {"type": _finite_float},
    "--weight": {"choices": sorted(WEIGHT_FLAGS)},
    "--normalize": {"action": "store_true"},
    "--heatmap": {"action": "store_true", "help": "also export local witness CSVs"},
    "--svd-tol": {"type": _finite_float},
    "--edge-align-tol": {"type": _finite_float},
    "--tri-eig-tol": {"type": _finite_float},
    "--tri-exponent": {"type": _finite_float},
    "--operator": {"choices": OPERATOR_NAMES, "required": True},
    "--out": {"help": "output directory"},
}
_SHEAF_SOURCE = ("--input", "--generator", "--n", "--stalk-dim", "--tau", "--sigma", "--seed")
_CYCLE = ("--n", "--stalk-dim", "--out")
_ENSEMBLE = ("--n", "--tau", "--sigma", "--seed", "--out")
_WITNESS = ("--delta0", "--delta1", "--weight")

# (command, help, the options its code reads); an experiment is a subcommand
# of ``experiment``
_COMMANDS = (
    ("build", "build a sheaf from graph + features",
     ("--input", "--features", "--svd-tol", "--edge-align-tol", "--tri-eig-tol",
      "--tri-exponent", "--out")),
    ("diagnose", "four-channel spectral report",
     _SHEAF_SOURCE + ("--grounding",) + _WITNESS + ("--normalize", "--heatmap", "--out")),
    ("experiment existence", "trivial vs Mobius: kernel presence", _CYCLE),
    ("experiment magnitude", "hidden twist vs noisy trivial: spectral gap", _ENSEMBLE),
    ("experiment localization", "hidden twist vs noisy trivial: local witness maps",
     _ENSEMBLE + _WITNESS),
    ("experiment relativity", "one sheaf, two groundings: the cone channel", _CYCLE),
    ("verify", "homological verification certificates", _SHEAF_SOURCE + ("--grounding", "--out")),
    ("dump", "dump an operator matrix", _SHEAF_SOURCE + ("--grounding", "--operator", "--out")),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process by the first ``main`` call."""
    parser = _Parser(prog="sheafgauge", description=__doc__)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for command, help_text, flags in _COMMANDS:
        group, _, name = command.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help=f"run a named {group}").add_subparsers(dest="name", required=True)
        sub = groups[group].add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # looked up per call, so a rebound ``cmd_*`` is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (CliInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
