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
from .fileio import json_fields, write_csv, write_json
from .operators import (
    COMPATIBILITY_TOL,
    VERTEX_LEVEL,
    _beside,
    algebraic_cone,
    channel_set,
    coboundary,
    laplacian,
    laplacian_spectrum,
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
    _cone_reduction_steps,
    indicator_profile,
    verify_cone_reduction,
)

WEIGHT_FLAGS = {"unif": "uniform", "inv": "inverse", "heat": "heat", "gap": "gap"}
_SHEAF_OPERATORS = ("d0", "d1", "L0", "L1")  # the rest read the grounding
OPERATOR_NAMES = _SHEAF_OPERATORS + ("relative", "utilization")


class CliInputError(Exception):
    pass


def _params(args) -> dict:
    """What a run read: its command and each option the command accepts, as
    given or at its default; argparse fills ``args`` with exactly those. A
    generator option that the sheaf's source did not read is null, and so is
    the grounding of a dump of the sheaf's own operators."""
    options = {key: value for key, value in vars(args).items() if key not in ("command", "name")}
    if "generator" in options:
        read = _GENERATORS[args.generator][1] + ("stalk_dim",) if args.generator else ()
        options.update({key: None for key in _GENERATOR_OPTIONS if key not in read})
    if options.get("operator") in _SHEAF_OPERATORS:
        options["grounding"] = None
    command = f"experiment:{args.name}" if args.command == "experiment" else args.command
    return {"command": command, **options}


def _witness_config(args) -> WitnessConfig:
    """The witness options the command accepts; the library's defaults for the rest."""
    given = {field.name: getattr(args, field.name)
             for field in dataclasses.fields(WitnessConfig) if hasattr(args, field.name)}
    try:
        return WitnessConfig(**given)
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


def _stalk_dim(args) -> dict:
    """``stalk_dim`` as a keyword when given: the generator's default otherwise."""
    return {} if args.stalk_dim is None else {"stalk_dim": args.stalk_dim}


# each generator and the options it takes, in order; every generator also
# reads ``stalk_dim``, as a keyword
_GENERATORS = {
    "trivial": (trivial_bundle, ("n",)),
    "mobius": (mobius_bundle, ("n",)),
    "hidden-twist": (hidden_twist_bundle, ("n", "tau")),
    "noisy-trivial": (noisy_trivial_bundle, ("n", "sigma", "seed")),
}
GENERATORS = tuple(_GENERATORS)
_GENERATOR_OPTIONS = ("n", "stalk_dim", "tau", "sigma", "seed")


def _resolve_sheaf(args):
    if args.input and args.generator:
        raise CliInputError("--input and --generator both name the sheaf; give one")
    if args.input:
        return _read(args.input, sheaf_from_json)
    if args.generator:
        make, read = _GENERATORS[args.generator]
        try:
            return make(*(getattr(args, key) for key in read), **_stalk_dim(args))
        except ValueError as exc:
            raise CliInputError(f"generator {args.generator}: {exc}")
    raise CliInputError("need --input or --generator")


def _out(args, name):
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    if not args.input or not args.features:
        raise CliInputError("build needs --input graph.json and --features features.json")
    graph = _read(args.input, graph_from_json)
    feature_data = _read(args.features, json.loads)
    if not isinstance(feature_data, dict) or not isinstance(feature_data.get("features"), dict):
        raise CliInputError(f"{args.features}: expected a 'features' object")
    features, keys = {}, {}
    for key, rows in feature_data["features"].items():
        try:
            vertex = int(key)
            features[vertex] = np.asarray(rows, dtype=float)
        except (TypeError, ValueError) as exc:
            raise CliInputError(f"{args.features}: vertex {key}: {exc}")
        if keys.setdefault(vertex, key) != key:
            raise CliInputError(f"{args.features}: keys {keys[vertex]!r} and {key!r} "
                                f"both name vertex {vertex}")
    try:
        pipeline = FeaturePipelineConfig(args.svd_tol, args.edge_align_tol, args.tri_eig_tol)
        sheaf = build_sheaf_from_features(graph, features, pipeline)
    except ValueError as exc:
        raise CliInputError(str(exc))
    violations = validate_sheaf(sheaf)
    write_json(_out(args, "sheaf.json"), {**sheaf_to_json_dict(sheaf), "params": _params(args)})
    if violations:
        write_json(_out(args, "validation_report.json"), {"violations": violations})
        # one short line; the report lists every violation
        triangles = sorted({v.triangle for v in violations})
        worst = max(violations, key=lambda v: v.defect)
        shown = ", ".join(map(str, triangles[:5])) + (", …" if len(triangles) > 5 else "")
        print(f"functoriality violations on {len(violations)} incidences of {len(triangles)} "
              f"triangles; largest defect {worst.defect:.3e} at {worst.triangle}; "
              f"triangles {shown} (all in validation_report.json)", file=sys.stderr)
        return 2
    return 0


def cmd_diagnose(args) -> int:
    dcfg = diag.DiagnosticsConfig(
        witness=_witness_config(args), normalize=args.normalize, with_local=args.heatmap,
    )
    sheaf = _resolve_sheaf(args)
    grounding = diag.make_grounding(sheaf, args.grounding)
    report = diag.run_diagnostics(sheaf, grounding, dcfg)

    spectra_rows = []
    for name, spectrum in sorted(report.spectra.items()):
        for i, lam in enumerate(spectrum.eigenvalues):
            spectra_rows.append((name, i, float(lam)))
        grid = sorted(set(max(float(x), 0.0) for x in spectrum.eigenvalues))
        profile_rows = list(zip(grid, indicator_profile(spectrum, grid)))
        write_csv(_out(args, f"profile_{name}.csv"), ("delta", "dim"), profile_rows)
    write_csv(_out(args, "channel_spectra.csv"), ("channel", "index", "eigenvalue"),
              spectra_rows)

    refs = []
    for name, witness_map in sorted(report.local_maps.items()):
        filename = f"local_witness_{name}.csv"
        _write_witness_csv(_out(args, filename), witness_map)
        refs.append(filename)
    write_json(_out(args, "report.json"), {"channels": report.channels,
                                           "defect_norm": report.defect_norm,
                                           "localization": refs, "params": _params(args)})
    return 0


def _write_witness_csv(path, witness_map):
    """One row per cell, numbered in the canonical cell order of the map."""
    rows = [(i, witness_map.degree, witness_map.delta, score)
            for i, score in enumerate(witness_map.scores.tolist())]
    write_csv(path, ("cell_id", "degree", "delta", "score"), rows)


# each experiment's result and heatmaps, from the options
_EXPERIMENTS = {
    "existence": lambda args: (diag.experiment_existence(args.n, **_stalk_dim(args)), {}),
    "magnitude": lambda args: (
        diag.experiment_magnitude(args.n, args.tau, args.sigma, args.seed), {}),
    "localization": lambda args: diag.experiment_localization(
        args.n, args.tau, args.sigma, args.seed, cfg=_witness_config(args)),
    "relativity": lambda args: (diag.experiment_relativity(args.n, **_stalk_dim(args)), {}),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def cmd_experiment(args) -> int:
    name = args.name
    try:
        result, heatmaps = _EXPERIMENTS[name](args)
    except diag.ExperimentParameterError as exc:
        raise CliInputError(f"experiment {name}: {exc}")
    # the library's values win: it records the stalk dimension a default resolved to
    write_json(_out(args, f"experiment_{name}.json"),
               {**json_fields(result), "params": {**_params(args), **result.params}})
    for panel, witness_map in sorted(heatmaps.items()):
        _write_witness_csv(_out(args, f"heatmap_{panel}.csv"), witness_map)
    return 0


def cmd_verify(args) -> int:
    sheaf = _resolve_sheaf(args)
    grounding = diag.make_grounding(sheaf, args.grounding)
    channels = channel_set(sheaf, grounding)
    checks = {}

    if grounding.mode == VERTEX_LEVEL:
        cone = algebraic_cone(sheaf, grounding)
        checks["cone_equivalence"] = verify_cone_equivalence(cone)
        side = _solve_side_by_side(cone, channels)
        checks["long_exact_sequence"] = verify_long_exact_sequence(cone)
        checks["cone_reduction"] = verify_cone_reduction(side, side)
    else:
        reason = "grounding has no per-cell maps (cochain-on-c1 mode)"
        for key in ("cone_equivalence", "long_exact_sequence", "cone_reduction"):
            checks[key] = {"status": "hypothesis-not-met", "reason": reason}
    checks["separation"] = diag.separation_check(channels)

    write_json(_out(args, "certificates.json"), {"checks": checks, "params": _params(args)})
    # a plain record is a hypothesis not met, never a failure
    failed = [k for k, v in checks.items() if getattr(v, "status", None) == "fail"]
    if failed:
        print(f"verification failed: {', '.join(sorted(failed))}", file=sys.stderr)
        return 3
    return 0


def _solve_side_by_side(cone, channels):
    """The solves after the cone equivalence, two pairs side by side
    (``operators._beside``); returns the cone-reduction side.

    First the cone Laplacians' kernels (``cone.harmonic``) beside the cone
    reduction's residuals and four blocks, then F's and W's spectra in
    degrees 0 and 1 beside R = L_1 + eps^T eps and the higher degrees'. A
    solve runs only where a check reads it: the cone's and the sheaves' in
    every degree under a compatible grounding, L_1(F) and R in any case.
    What both lanes of a pair read is formed before it, and so is R, which
    the worker then only decomposes. The cone equivalence runs alone: its
    geometric cone is verify's largest transient.
    """
    f, w = cone.sheaf, cone.w_sheaf
    compatible = cone.defect_total <= COMPATIBILITY_TOL
    if compatible:
        spectra = [(sheaf, j) for sheaf in dict.fromkeys((f, w)) for j in f.complex.degrees]
    else:
        spectra = [(f, 1)]
    # shared by the first pair: eps and the coboundaries under L_1(F) and
    # L_0(W), which the cone's differentials also read
    cone.eps, laplacian(f, 1), laplacian(w, 0)
    last_step = _beside(lambda: _cone_reduction_steps(cone),
                        lambda: compatible and cone.harmonic)
    # the operators of the second pair, formed only now: the first holds less
    for sheaf, j in spectra:
        laplacian(sheaf, j)
    channels.relative
    _beside(lambda: [channels.relative_spectrum] + [
                laplacian_spectrum(sheaf, j) for sheaf, j in spectra if j > 1],
            lambda: [laplacian_spectrum(sheaf, j) for sheaf, j in spectra if j <= 1])
    return last_step()


def cmd_dump(args) -> int:
    name = args.operator
    sheaf = _resolve_sheaf(args)
    if name in ("d0", "d1"):
        degree = int(name[1])
        matrix = coboundary(sheaf, degree).matrix
        provenance = "coboundary"
    elif name in ("L0", "L1"):
        degree = int(name[1])
        matrix = laplacian(sheaf, degree).matrix
        provenance = "base"
    else:
        grounding = diag.make_grounding(sheaf, args.grounding)
        channels = channel_set(sheaf, grounding)
        lap = channels.relative if name == "relative" else channels.utilization
        matrix, degree, provenance = lap.matrix, lap.degree, "channel"
    write_json(_out(args, f"operator_{name}.json"), {
        "operator": name,
        "degree": degree,
        "provenance": provenance,
        "shape": list(matrix.shape),
        "matrix": matrix.ravel().tolist(),
        "params": _params(args),
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


class _WeightName(argparse.Action):
    """Stores a ``--weight`` flag as the library's name of the weight."""

    def __call__(self, parser, namespace, flag, option_string=None):
        setattr(namespace, self.dest, WEIGHT_FLAGS[flag])


# each option and its default: the library's, where the library has one
_OPTIONS = {
    "--input": {"help": "input sheaf/graph JSON"},
    "--features": {"help": "features JSON"},
    "--generator": {"choices": GENERATORS},
    "--n": {"type": int, "default": diag.N_DEFAULT, "help": "cycle length"},
    "--stalk-dim": {"type": _positive_int},
    "--tau": {"type": _finite_float, "default": diag.TAU_DEFAULT,
              "help": "hidden-twist rotation angle"},
    "--sigma": {"type": _finite_float, "default": diag.SIGMA_DEFAULT, "help": "noise level"},
    "--seed": {"type": int, "default": diag.SEED_DEFAULT},
    "--grounding": {"choices": diag.GROUNDING_NAMES, "default": "padding"},
    "--delta0": {"type": _finite_float, "default": WitnessConfig.delta0},
    "--delta1": {"type": _finite_float, "default": WitnessConfig.delta1},
    "--weight": {"choices": sorted(WEIGHT_FLAGS), "action": _WeightName,
                 "default": WitnessConfig.weight},
    "--normalize": {"action": "store_true"},
    "--heatmap": {"action": "store_true", "help": "also export local witness CSVs"},
    "--svd-tol": {"type": _finite_float, "default": FeaturePipelineConfig.svd_tol},
    "--edge-align-tol": {"type": _finite_float, "default": FeaturePipelineConfig.edge_align_tol},
    "--tri-eig-tol": {"type": _finite_float, "default": FeaturePipelineConfig.tri_eig_tol},
    "--operator": {"choices": OPERATOR_NAMES, "required": True},
    "--out": {"default": "out", "help": "output directory"},
}
_SHEAF_SOURCE = ("--input", "--generator", "--n", "--stalk-dim", "--tau", "--sigma", "--seed")
_CYCLE = ("--n", "--stalk-dim", "--out")
_ENSEMBLE = ("--n", "--tau", "--sigma", "--seed", "--out")
_SLACK = ("--delta1", "--weight")

# (command, help, the options its code reads); an experiment is a subcommand
# of ``experiment``
_COMMANDS = (
    ("build", "build a sheaf from graph + features",
     ("--input", "--features", "--svd-tol", "--edge-align-tol", "--tri-eig-tol", "--out")),
    ("diagnose", "four-channel spectral report",
     _SHEAF_SOURCE + ("--grounding", "--delta0") + _SLACK + ("--normalize", "--heatmap", "--out")),
    ("experiment existence", "trivial vs Mobius: kernel presence", _CYCLE),
    ("experiment magnitude", "hidden twist vs noisy trivial: spectral gap", _ENSEMBLE),
    ("experiment localization", "hidden twist vs noisy trivial: local witness maps",
     _ENSEMBLE + _SLACK),
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
    argv = sys.argv[1:] if argv is None else list(argv)
    option = argv[1].partition("=")[0] if argv[:1] == ["experiment"] and argv[1:] else ""
    if option.startswith("-") and option not in ("-h", "--help"):
        # argparse would take the option's value for the experiment name
        print(f"sheafgauge experiment: error: option {option} comes before the experiment "
              f"name; the experiment comes first: sheafgauge experiment "
              f"{{{','.join(EXPERIMENTS)}}} {option} ...", file=sys.stderr)
        return 1
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
