"""The three benchmark workloads: fixture pools, inputs, ops and verdicts.

A workload owns a pool of fixtures. Fixture ``k`` is a pure function of the
workload and ``k``, so its verdicts at the reference commit can be stored in
``reference/<workload>.json`` and every later run checks against them. A run
visits the pool in an order drawn from its ``--seed`` (see ``op_fixtures``).

One op is one unit of user work. ``write_inputs`` runs before the timed
loop and writes everything the op reads; it also returns the fixture's
``cost``, a size that ranks fixtures by the work they take. ``run_op`` is
the timed part and touches the program only through its files, argv and
public functions; ``verdicts`` reads the op's outputs afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Verdicts compare exactly, except floats, which must agree to this share.
FLOAT_RTOL = 1e-8


def _gnp_edges(rng, n, p):
    upper = np.triu_indices(n, 1)
    keep = rng.random(upper[0].size) < p
    return [[int(u), int(v)] for u, v in zip(upper[0][keep], upper[1][keep])]


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _quiet_main(sg, argv):
    """``sheafgauge.cli.main`` with its stderr notes kept off the terminal."""
    with contextlib.redirect_stderr(io.StringIO()):
        return sg.cli.main(argv)


# ---------------------------------------------------------------------------
# diagnose-features: data -> sheaf.json -> four-channel report, through the CLI
# ---------------------------------------------------------------------------


def _diagnose_inputs(sg, params, rng, directory):
    n, ambient, rank = params["n"], params["ambient"], params["rank"]
    basis, _ = np.linalg.qr(rng.normal(size=(ambient, rank)))
    features = {
        str(v): (basis + params["noise"] * rng.normal(size=(ambient, rank))).tolist()
        for v in range(n)
    }
    edges = _gnp_edges(rng, n, params["p"])
    # C^1 is about three times the edge count, and eigh and the profile
    # export grow with its cube.
    inputs = {"graph": os.path.join(directory, "graph.json"),
              "features": os.path.join(directory, "features.json"),
              "cost": len(edges)}
    _write_json(inputs["graph"], {"vertices": n, "edges": edges})
    _write_json(inputs["features"], {"features": features})
    return inputs


def _diagnose_op(sg, params, inputs, out):
    build = _quiet_main(sg, ["build", "--input", inputs["graph"],
                             "--features", inputs["features"], "--out", out])
    diagnose = _quiet_main(sg, ["diagnose", "--input", os.path.join(out, "sheaf.json"),
                                "--grounding", "padding", "--heatmap", "--out", out])
    return build, diagnose


def _diagnose_verdicts(raw, out):
    build, diagnose = raw
    verdict = {"exit_build": build, "exit_diagnose": diagnose}
    if diagnose == 0:
        report = _read_json(os.path.join(out, "report.json"))
        verdict["channels"] = {
            name: {key: channel[key] for key in ("kernel_dim", "spectral_gap", "global_witness")}
            for name, channel in sorted(report["channels"].items())
        }
    return verdict


# ---------------------------------------------------------------------------
# experiment-ensemble: the paper's 20-seed magnitude and localization verdicts
# ---------------------------------------------------------------------------


def _experiment_inputs(sg, params, rng, directory):
    # Op k owns seeds 20k .. 20k+19, so no two ops share an ensemble member.
    return {"seed": 20 * params["k"], "cost": 0}


def _experiment_op(sg, params, inputs, out):
    common = ["--n", str(params["n"]), "--seed", str(inputs["seed"]), "--out", out]
    return (_quiet_main(sg, ["experiment", "magnitude"] + common),
            _quiet_main(sg, ["experiment", "localization"] + common))


def _experiment_verdicts(raw, out):
    verdict = {"exit_magnitude": raw[0], "exit_localization": raw[1]}
    for name, code in zip(("magnitude", "localization"), raw):
        if code == 0:
            payload = _read_json(os.path.join(out, f"experiment_{name}.json"))
            verdict[name] = {"verdict": payload["verdict"], "rows": payload["rows"]}
    return verdict


# ---------------------------------------------------------------------------
# certify-grounded: the dense certificates, block decomposition, interleaving
# ---------------------------------------------------------------------------


def _certify_inputs(sg, params, rng, directory):
    graph = sg.Graph(params["n"], [tuple(e) for e in _gnp_edges(rng, params["n"], params["p"])])
    sheaf = sg.constant_sheaf(sg.build_clique_complex(graph), params["stalk_dim"])
    inputs = {"graph": os.path.join(directory, "graph.json"),
              "sheaf": os.path.join(directory, "constant_sheaf.json"),
              "bundle_seeds": [2 * params["k"], 2 * params["k"] + 1],
              "cost": len(graph.edges)}
    with open(inputs["graph"], "w") as handle:
        handle.write(sg.graph_to_json(graph))
    with open(inputs["sheaf"], "w") as handle:
        handle.write(sg.sheaf_to_json(sheaf))
    return inputs


def _certify_op(sg, params, inputs, out):
    verify = _quiet_main(sg, ["verify", "--input", inputs["sheaf"],
                              "--grounding", "padding", "--out", out])
    with open(inputs["graph"]) as handle:
        graph = sg.graph_from_json(handle.read())
    sheaf = sg.constant_sheaf(sg.build_clique_complex(graph), params["stalk_dim"])
    block = sg.verify_block_decomposition(sheaf, sg.grounding_identity_c1(sheaf))
    spectra = [
        sg.eigendecompose(sg.laplacian(
            sg.noisy_trivial_bundle(params["bundle_n"], params["sigma"], s), 0))
        for s in inputs["bundle_seeds"]
    ]
    shift = sg.interleaving_shift(spectra[0], spectra[1], mode="subspace")
    return verify, block, shift


def _certify_verdicts(raw, out):
    verify, block, shift = raw
    verdict = {
        "exit_verify": verify,
        "block_asserted": bool(block.asserted),
        "interleaving": {"certified": bool(shift.certified), "mode": shift.mode,
                         "eta": float(shift.eta)},
    }
    if verify == 0:
        checks = _read_json(os.path.join(out, "certificates.json"))["checks"]
        verdict["status"] = {name: check["status"] for name, check in sorted(checks.items())}
        verdict["betti_cone"] = checks["long_exact_sequence"].get("betti_cone")
        verdict["cone_reduction_eta"] = checks["cone_reduction"].get("eta")
        separation = checks["separation"]
        verdict["separation"] = {key: separation[key] for key in (
            "kernel_relative_channel", "kernel_eps_on_harmonics",
            "kernel_meet_harmonics", "equivalent", "gamma")}
    return verdict


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int                # keeps the fixture streams of workloads apart
    params: dict            # scale -> fixture parameters
    pool: dict              # scale -> number of fixtures in the pool
    strata: int             # cost strata; ops run in cycles of one per stratum
    write_inputs: Callable
    run_op: Callable
    verdicts: Callable

    def cycle(self, scale):
        """Ops per cycle: one per cost stratum, never more than the pool."""
        return min(self.strata, self.pool[scale])

    def fixture_params(self, scale, k):
        return dict(self.params[scale], k=k)

    def prepare(self, sg, scale, k, directory):
        os.makedirs(directory, exist_ok=True)
        rng = np.random.default_rng([self.tag, k])
        return self.write_inputs(sg, self.fixture_params(scale, k), rng, directory)


WORKLOADS = {w.name: w for w in (
    Workload(
        "diagnose-features", 1,
        params={"full": {"n": 60, "p": 0.15, "ambient": 6, "rank": 3, "noise": 0.05},
                "smoke": {"n": 10, "p": 0.4, "ambient": 4, "rank": 2, "noise": 0.05}},
        pool={"full": 192, "smoke": 2}, strata=7,
        write_inputs=_diagnose_inputs, run_op=_diagnose_op, verdicts=_diagnose_verdicts,
    ),
    Workload(
        "experiment-ensemble", 2,
        params={"full": {"n": 50}, "smoke": {"n": 6}},
        pool={"full": 320, "smoke": 2}, strata=1,
        write_inputs=_experiment_inputs, run_op=_experiment_op, verdicts=_experiment_verdicts,
    ),
    Workload(
        "certify-grounded", 3,
        params={"full": {"n": 40, "p": 0.2, "stalk_dim": 2, "bundle_n": 60, "sigma": 0.05},
                "smoke": {"n": 8, "p": 0.4, "stalk_dim": 2, "bundle_n": 6, "sigma": 0.05}},
        pool={"full": 192, "smoke": 2}, strata=7,
        write_inputs=_certify_inputs, run_op=_certify_op, verdicts=_certify_verdicts,
    ),
)}


def op_fixtures(costs, strata, seed, count):
    """Fixture index for each of ``count`` ops.

    The pool is sorted by fixture cost and cut into ``strata`` equal slices.
    Ops run in cycles of ``strata`` ops; each cycle takes one fixture from
    every slice, in a slice order shuffled per cycle, and walks each slice
    in its own shuffled order. Every run thus sees the same mix of small and
    large fixtures, which keeps its median and tail steady across seeds,
    while the fixtures themselves differ from seed to seed. Past the pool
    size the order repeats. ``strata`` must not exceed the pool size.
    """
    rng = np.random.default_rng(seed)
    ranked = sorted(range(len(costs)), key=lambda k: (costs[k], k))
    bounds = [len(ranked) * s // strata for s in range(strata + 1)]
    slices = [[ranked[j] for j in rng.permutation(range(bounds[s], bounds[s + 1]))]
              for s in range(strata)]
    order = []
    for cycle in range(-(-count // strata)):
        order.extend(slices[s][cycle % len(slices[s])] for s in rng.permutation(strata))
    return order[:count]


def compare(expected, actual, path="") -> list[str]:
    """Differences between two verdict trees; empty when they agree."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for key in sorted(expected)
                for d in compare(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if expected == actual or abs(expected - actual) <= FLOAT_RTOL * max(abs(expected), abs(actual)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]
