"""Every library check below raises its own error type and message on a bad
argument; each row is the one input that reaches its check."""

import re

import numpy as np
import pytest

from sheafgauge.complexes import (
    Graph,
    GraphValidationError,
    build_clique_complex,
    complete_graph,
    cycle_graph,
)
from sheafgauge.fileio import json_fields
from sheafgauge.operators import constant_grounding, laplacian, propagate_cycle_grounding
from sheafgauge.sheaves import (
    AmbientMismatchError,
    Stalk,
    build_sheaf_from_features,
    constant_sheaf,
    hidden_twist_bundle,
    make_line_bundle,
    rotation_matrix,
    triangle_stalk_soft_intersection,
    trivial_bundle,
)
from sheafgauge.spectral import (
    WitnessConfig,
    eigendecompose,
    interleaving_shift,
    is_almost_non_exact,
)


def _spectrum(n):
    return eigendecompose(laplacian(trivial_bundle(n), 0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: interleaving_shift(_spectrum(5), _spectrum(5), mode="bars"), ValueError,
     "unknown interleaving mode 'bars'"),
    (lambda: interleaving_shift(_spectrum(5), _spectrum(6), mode="subspace"), ValueError,
     "subspace interleaving needs a common ambient space"),
    (lambda: WitnessConfig(weight="cubic"), ValueError,
     "weight must be one of ('uniform', 'inverse', 'heat', 'gap')"),
    (lambda: WitnessConfig(delta0=-0.5), ValueError, "delta0 must be non-negative"),
    (lambda: is_almost_non_exact(_spectrum(5), 0.0), ValueError,
     "probe_delta must be positive"),
    # two isolated vertices whose features have rank 2 and rank 1
    (lambda: constant_grounding(build_sheaf_from_features(
        Graph(2, []), {0: np.eye(2), 1: np.eye(2)[:, :1]})), ValueError,
     "constant grounding needs equal stalk dimensions"),
    (lambda: propagate_cycle_grounding(
        constant_sheaf(build_clique_complex(complete_graph(3)), 1), seed=0), ValueError,
     "propagation expects a plain cycle complex"),
    (lambda: rotation_matrix(0.1, dim=1), ValueError, "rotation needs dim >= 2"),
    (lambda: make_line_bundle(5, 2, {(0, 1): np.eye(3)}), ValueError,
     "twist on (0, 1) has shape (3, 3)"),
    (lambda: hidden_twist_bundle(5, 0.3, stalk_dim=1), ValueError,
     "hidden twist needs stalk_dim >= 2"),
    (lambda: triangle_stalk_soft_intersection(Stalk(np.eye(3)), Stalk(np.eye(3)),
                                              Stalk(np.eye(4))),
     AmbientMismatchError, "ambient dims differ: [3, 4]"),
    (lambda: cycle_graph(2), GraphValidationError, "cycle needs at least 3 vertices"),
    (lambda: json_fields({"a": 1}), TypeError, "dict is not a report JSON can write"),
], ids=["interleaving-mode", "interleaving-ambient", "witness-weight", "witness-delta0",
        "non-exact-probe", "constant-grounding-dims", "propagation-triangles",
        "rotation-dim", "twist-shape", "hidden-twist-dim", "triangle-ambient",
        "cycle-length", "json-fields-non-dataclass"])
def test_library_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
