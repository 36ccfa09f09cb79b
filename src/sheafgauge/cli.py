"""Command line entry point.

Subcommands: ``build`` (feature pipeline -> sheaf.json), ``diagnose``
(four-channel report + CSV spectra), ``experiment`` (the four comparative
harnesses), ``verify`` (homological certificates) and ``dump`` (operator
matrices). Every invocation is deterministic given its arguments; outputs
are written atomically and carry a schema version.

Exit codes: 0 success, 1 input error, 2 validation error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import diagnostics as diag
from .complexes import GraphValidationError, graph_from_json
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
    sheaf_from_json_dict,
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

GENERATORS = ("trivial", "mobius", "hidden-twist", "noisy-trivial")
EXPERIMENTS = ("existence", "magnitude", "localization", "relativity")
WEIGHT_FLAGS = {"unif": "uniform", "inv": "inverse", "heat": "heat", "gap": "gap"}


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
    delta0: float = 0.0
    delta1: float | None = None
    weight: str = "gap"
    normalize: bool = False
    svd_tol: float = 1e-8
    edge_align_tol: float = 0.9
    tri_eig_tol: float = 0.5
    tri_exponent: float = 1.0
    out: str = "out"
    format_version: str = "1"

    def to_json_dict(self):
        return dataclasses.asdict(self)


def _config_from_args(args, command) -> RunConfig:
    cfg = RunConfig(command=command)
    for field in dataclasses.fields(RunConfig):
        if field.name == "command":
            continue
        if hasattr(args, field.name) and getattr(args, field.name) is not None:
            setattr(cfg, field.name, getattr(args, field.name))
    if getattr(args, "weight", None):
        cfg.weight = WEIGHT_FLAGS.get(args.weight, args.weight)
    return cfg


def _witness_config(cfg: RunConfig) -> WitnessConfig:
    try:
        return WitnessConfig(delta0=cfg.delta0, delta1=cfg.delta1, weight=cfg.weight)
    except ValueError as exc:
        raise CliInputError(str(exc))


def _pipeline_config(cfg: RunConfig) -> FeaturePipelineConfig:
    return FeaturePipelineConfig(cfg.svd_tol, cfg.edge_align_tol,
                                 cfg.tri_eig_tol, cfg.tri_exponent)


def _load_text(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")


def _parse_json(path, text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}")


def _stalk_dim(cfg: RunConfig) -> dict:
    """``stalk_dim`` as a keyword when given: the generator's default otherwise."""
    return {} if cfg.stalk_dim is None else {"stalk_dim": cfg.stalk_dim}


def _generated_sheaf(cfg: RunConfig):
    name = cfg.generator
    if name == "trivial":
        return trivial_bundle(cfg.n, **_stalk_dim(cfg))
    if name == "mobius":
        return mobius_bundle(cfg.n, **_stalk_dim(cfg))
    if name == "hidden-twist":
        return hidden_twist_bundle(cfg.n, cfg.tau, **_stalk_dim(cfg))
    if name == "noisy-trivial":
        return noisy_trivial_bundle(cfg.n, cfg.sigma, cfg.seed, **_stalk_dim(cfg))
    raise CliInputError(f"unknown generator {name!r}; choose from {GENERATORS}")


def _resolve_sheaf(cfg: RunConfig):
    if cfg.input:
        data = _parse_json(cfg.input, _load_text(cfg.input))
        try:
            return sheaf_from_json_dict(data)
        except (ValueError, KeyError) as exc:
            raise CliInputError(f"{cfg.input}: {exc}")
    if cfg.generator:
        try:
            return _generated_sheaf(cfg)
        except ValueError as exc:
            raise CliInputError(f"generator {cfg.generator}: {exc}")
    raise CliInputError("need --input or --generator")


def _out(cfg, name):
    import os

    return os.path.join(cfg.out, name)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    cfg = _config_from_args(args, "build")
    if not cfg.input or not cfg.features:
        raise CliInputError("build needs --input graph.json and --features features.json")
    try:
        graph = graph_from_json(_load_text(cfg.input))
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{cfg.input}: malformed JSON at byte offset {exc.pos}: {exc.msg}")
    except GraphValidationError as exc:
        raise CliInputError(f"{cfg.input}: {exc}")
    feature_data = _parse_json(cfg.features, _load_text(cfg.features))
    if not isinstance(feature_data, dict) or "features" not in feature_data:
        raise CliInputError(f"{cfg.features}: expected a 'features' object")
    features = {}
    for key, rows in feature_data["features"].items():
        try:
            features[int(key)] = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CliInputError(f"{cfg.features}: vertex {key}: {exc}")
    try:
        sheaf = build_sheaf_from_features(graph, features, _pipeline_config(cfg))
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
        with_local=bool(getattr(args, "heatmap", False)),
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


def cmd_experiment(args) -> int:
    name = args.name
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENTS)}",
              file=sys.stderr)
        return 1
    cfg = _config_from_args(args, f"experiment:{name}")
    heatmaps = {}
    try:
        if name == "existence":
            result = diag.experiment_existence(cfg.n, **_stalk_dim(cfg))
        elif name == "magnitude":
            result = diag.experiment_magnitude(cfg.n, cfg.tau, cfg.sigma, cfg.seed)
        elif name == "localization":
            result, heatmaps = diag.experiment_localization(
                cfg.n, cfg.tau, cfg.sigma, cfg.seed, cfg=_witness_config(cfg)
            )
        else:
            result = diag.experiment_relativity(cfg.n, **_stalk_dim(cfg))
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
        cone_report = verify_cone_equivalence(cone)
        checks["cone_equivalence"] = {
            "status": cone_report.status,
            "defect_norm": cone_report.defect_norm,
            "max_residual": cone_report.max_residual,
        }
        les = verify_long_exact_sequence(cone)
        checks["long_exact_sequence"] = {
            "status": les.status,
            "defect_norm": les.defect_norm,
            "betti_cone": list(les.betti_cone),
        }
        side = cone_reduction_side(cone)
        reduction = verify_cone_reduction(side, side)
        checks["cone_reduction"] = {
            "status": reduction.status,
            "residuals": reduction.residuals,
            "eta": reduction.eta,
            "v_bound": reduction.v_bound,
            "measured": reduction.measured,
        }
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


OPERATOR_NAMES = ("d0", "d1", "L0", "L1", "relative", "utilization")


def cmd_dump(args) -> int:
    cfg = _config_from_args(args, "dump")
    name = args.operator
    if name not in OPERATOR_NAMES:
        raise CliInputError(f"unknown operator {name!r}; choose from {OPERATOR_NAMES}")
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


def _finite_float(text):
    """Type of every float option: NaN and infinities would make ``params`` invalid JSON."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_int(text):
    """Type of ``--stalk-dim``: a stalk needs at least one dimension."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _add_common(parser):
    parser.add_argument("--input", help="input sheaf/graph JSON")
    parser.add_argument("--generator", help=f"one of {', '.join(GENERATORS)}")
    parser.add_argument("--n", type=int, help="cycle length for generators")
    parser.add_argument("--stalk-dim", dest="stalk_dim", type=_positive_int)
    parser.add_argument("--tau", type=_finite_float, help="hidden-twist rotation angle")
    parser.add_argument("--sigma", type=_finite_float, help="noise level")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grounding", choices=diag.GROUNDING_NAMES)
    parser.add_argument("--delta0", type=_finite_float)
    parser.add_argument("--delta1", type=_finite_float)
    parser.add_argument("--weight", choices=sorted(WEIGHT_FLAGS))
    parser.add_argument("--normalize", action="store_true", default=None)
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sheafgauge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a sheaf from graph + features")
    p_build.add_argument("--features", help="features JSON")
    p_build.add_argument("--svd-tol", dest="svd_tol", type=_finite_float)
    p_build.add_argument("--edge-align-tol", dest="edge_align_tol", type=_finite_float)
    p_build.add_argument("--tri-eig-tol", dest="tri_eig_tol", type=_finite_float)
    p_build.add_argument("--tri-exponent", dest="tri_exponent", type=_finite_float)
    _add_common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_diag = sub.add_parser("diagnose", help="four-channel spectral report")
    p_diag.add_argument("--heatmap", action="store_true",
                        help="also export local witness CSVs")
    _add_common(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("name")
    _add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_verify = sub.add_parser("verify", help="homological verification certificates")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump", help="dump an operator matrix")
    p_dump.add_argument("--operator", required=True)
    _add_common(p_dump)
    p_dump.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
