"""The block tube-recursion emitter against the row-at-a-time references.

Every program that emits recursion rows (``contracts.emit_subsystem``,
``contracts.build_programs``, ``viability.finite_viable_lp`` and
``viability.rci_lp``) must build the same LP as its reference in
``oracles``: the same row senses in the same order, the same CSC arrays,
costs and bounds, bit for bit (signed zeros included).  ``build_programs``
emits whole groups of subsystems at once; its reference builds one
subsystem at a time.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zonosynth import sysmodel
from zonosynth.cli import lambda_for
from zonosynth.contracts import _at, _signature, build_programs, default_template, emit_subsystem
from zonosynth.geom import Zonotope
from zonosynth.lpcore import LinearProgram, _LpBatch
from zonosynth.synthesis import centralized_synthesize
from zonosynth.sysmodel import load_network
from zonosynth.viability import finite_viable_lp, rci_lp

# entries drawn for random matrices: zeros of both signs exercise sparsity
# and the signed-zero bounds
VALUES = np.array([0.0, -0.0, 0.0, 1.0, -0.5, 0.3, 2.0, -1.25])


def assert_same_lp(got, want):
    assert got.name == want.name
    assert got._senses().tobytes() == want._senses().tobytes()
    for a, b in zip(got._assemble(), want._assemble()):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def matrix(rng, rows, cols):
    return rng.choice(VALUES, size=(rows, cols))


def zono(rng, n, p):
    return Zonotope(rng.choice(VALUES, size=n), matrix(rng, n, p))


# ---------------------------------------------------------------------------
# emit_subsystem


def random_network(rng, finite):
    """Two or three subsystems in a ring, some with inputs, some input
    couplings, zero-generator disturbances allowed."""
    count = int(rng.integers(2, 4))
    dims = [(int(rng.integers(1, 4)), int(rng.integers(0, 3))) for _ in range(count)]
    steps = 2 if finite else 1

    def seq(make):
        return [make() for _ in range(steps)] if finite else make()

    subs = []
    for s, (n, m) in enumerate(dims):
        j = (s + 1) % count
        coupling = {"to": j + 1, "A": seq(lambda: matrix(rng, n, dims[j][0]).tolist())}
        if dims[j][1] and rng.random() < 0.5:
            coupling["B"] = seq(lambda: matrix(rng, n, dims[j][1]).tolist())
        p_d = int(rng.integers(0, 3))
        subs.append({
            "id": s + 1,
            "A": seq(lambda: matrix(rng, n, n).tolist()),
            "B": seq(lambda: matrix(rng, n, m).tolist()),
            "X": {"center": rng.choice(VALUES, size=n).tolist(),
                  "generators": (np.eye(n) + matrix(rng, n, n)).tolist()},
            "U": {"center": [0.0] * m, "generators": np.eye(m).tolist()},
            "D": {"center": rng.choice(VALUES, size=n).tolist(),
                  "generators": matrix(rng, n, p_d).tolist()},
            "couplings": [coupling],
        })
    cfg = {"mode": "finite", "horizon": steps} if finite else {"mode": "infinite"}
    return load_network({**cfg, "subsystems": subs})


def emitted(network, sid, rowwise, **kwargs):
    """The LP that ``emit_subsystem`` (in a batch of one member) or, with
    ``rowwise``, its reference builds for ``sid``, with each multiplier a
    column created when first asked for, as the callers do."""
    lp = LinearProgram() if rowwise else _LpBatch(["lp"])
    template = default_template(network)
    alphas = {}

    def alpha_of(j, channel, t):
        key = (j, channel, t)
        if key not in alphas:
            entries = template.state[j] if channel == "x" else template.input[j]
            cols = lp.var_block(_at(entries, t)[1].shape[1], lb=0.0, ub=1.0)
            alphas[key] = cols if rowwise else cols[0]
        return alphas[key]

    if rowwise:
        oracles.emit_subsystem_rowwise(lp, network, template, sid, alpha_of, **kwargs)
        return lp
    emit_subsystem(lp, network, template, [sid], [alpha_of], **kwargs)
    return lp.programs()[0]


def assert_emits_like_reference(network, **kwargs):
    for sid in network.sorted_ids():
        assert_same_lp(emitted(network, sid, False, **kwargs),
                       emitted(network, sid, True, **kwargs))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), finite=st.booleans(), slack=st.booleans(),
       order=st.sampled_from([None, 1, 2]))
def test_emit_subsystem_matches_rowwise_reference(seed, finite, slack, order):
    network = random_network(np.random.default_rng(seed), finite)
    assert_emits_like_reference(network, slack=slack, reduction_order=order)


@pytest.mark.parametrize("config", ["configs/case1.json", "configs/case2.json"])
@pytest.mark.parametrize("slack", [True, False])
@pytest.mark.parametrize("order", [None, 1, 2])
def test_emit_subsystem_case_studies_match_rowwise_reference(config, slack, order):
    network = load_network(config)
    k = 16 if order is None and network.mode == "infinite" else None
    assert_emits_like_reference(network, slack=slack, reduction_order=order, k=k)


# ---------------------------------------------------------------------------
# build_programs: groups of subsystems of one shape


def mixed_network(rng, finite):
    """Three to six subsystems of a few shapes, each coupled to a random set
    of the others, some through their inputs; disturbances of zero to two
    generators.  Subsystems of one shape then share a program structure
    only if their promises and W splits agree, so groups of one and of
    several form."""
    count = int(rng.integers(3, 7))
    shapes = [(1, 1), (2, 1), (2, 0)]
    dims = [shapes[int(rng.integers(len(shapes)))] for _ in range(count)]
    steps = 2 if finite else 1

    def seq(make):
        return [make() for _ in range(steps)] if finite else make()

    subs = []
    for s, (n, m) in enumerate(dims):
        couplings = []
        for j in rng.permutation(count)[:int(rng.integers(0, count))].tolist():
            if j == s:
                continue
            coupling = {"to": j + 1, "A": seq(lambda: matrix(rng, n, dims[j][0]).tolist())}
            if dims[j][1] and rng.random() < 0.5:
                coupling["B"] = seq(lambda: matrix(rng, n, dims[j][1]).tolist())
            couplings.append(coupling)
        subs.append({
            "id": s + 1,
            "A": seq(lambda: matrix(rng, n, n).tolist()),
            "B": seq(lambda: matrix(rng, n, m).tolist()),
            "X": {"center": rng.choice(VALUES, size=n).tolist(),
                  "generators": (np.eye(n) + matrix(rng, n, n)).tolist()},
            "U": {"center": [0.0] * m, "generators": np.eye(m).tolist()},
            "D": {"center": rng.choice(VALUES, size=n).tolist(),
                  "generators": matrix(rng, n, int(rng.integers(0, 3))).tolist()},
            "couplings": couplings,
        })
    cfg = {"mode": "finite", "horizon": steps} if finite else {"mode": "infinite"}
    return load_network({**cfg, "subsystems": subs})


def assert_builds_like_reference(network, **kwargs):
    template = default_template(network)
    programs = build_programs(network, template, **kwargs)
    assert list(programs) == network.sorted_ids()
    for sid, program in programs.items():
        assert_same_lp(program.lp, oracles.potential_lp_rowwise(network, template, sid,
                                                                **kwargs))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), finite=st.booleans(),
       order=st.sampled_from([None, 1, 2]))
def test_build_programs_matches_one_at_a_time_reference(seed, finite, order):
    network = mixed_network(np.random.default_rng(seed), finite)
    assert_builds_like_reference(network, reduction_order=order)


def test_mixed_networks_form_groups_of_one_and_of_several():
    network = mixed_network(np.random.default_rng(3), finite=False)
    template = default_template(network)
    groups = {}
    for sid in network.sorted_ids():
        groups.setdefault(_signature(network, template, sid, 1), []).append(sid)
    assert sorted(map(len, groups.values())) == [1, 2, 3]
    assert_builds_like_reference(network)


def test_build_programs_of_a_geometric_network_match_reference():
    # 50 subsystems of one shape and 0 to 4 neighbors: one group, whose
    # members differ in how many neighbor multipliers W reads
    assert_builds_like_reference(sysmodel.random_network(50, lambda_for(100), seed=0))


# ---------------------------------------------------------------------------
# rci and finite_viable


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([0.0, 0.3]),
       n=st.integers(1, 3), m=st.integers(0, 2), p=st.integers(0, 3),
       k=st.integers(1, 4))
def test_rci_lp_matches_rowwise_reference(seed, beta, n, m, p, k):
    rng = np.random.default_rng(seed)
    args = (matrix(rng, n, n), matrix(rng, n, m), zono(rng, n, p),
            zono(rng, n, n), zono(rng, m, m), k)
    lp, _ = rci_lp(*args, beta=beta)
    assert_same_lp(lp, oracles.rci_lp_rowwise(*args, beta=beta))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), template=st.sampled_from(["growing", "fixed"]),
       with_x0=st.booleans(), n=st.integers(1, 3), m=st.integers(0, 2),
       h=st.integers(1, 3))
def test_finite_viable_lp_matches_rowwise_reference(seed, template, with_x0, n, m, h):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    args = ([matrix(rng, n, n) for _ in range(h)], [matrix(rng, n, m) for _ in range(h)],
            [zono(rng, n, int(rng.integers(0, k + 1))) for _ in range(h)],
            [zono(rng, n, n) for _ in range(h + 1)], [zono(rng, m, m) for _ in range(h)], k)
    x0 = zono(rng, n, int(rng.integers(0, k + 1))) if with_x0 else None
    lp, _ = finite_viable_lp(*args, template=template, x0=x0)
    assert_same_lp(lp, oracles.finite_viable_lp_rowwise(*args, template=template, x0=x0))


def test_fixed_shapes_match_rowwise_reference():
    # the 1-D integrator and contraction of test_viability, and a 2-D
    # double integrator with a pinned start
    one = np.array([[1.0]])
    W = Zonotope([0.0], [[0.3]])
    box = Zonotope([0.0], [[1.0]])
    for beta, B in ((0.0, one), (0.5, np.zeros((1, 0)))):
        args = (0.5 * one if beta else one, B, W, box, box, 2)
        lp, _ = rci_lp(*args, beta=beta)
        assert_same_lp(lp, oracles.rci_lp_rowwise(*args, beta=beta))
    A = [np.array([[1.0, 1.0], [0.0, 1.0]])] * 3
    B = [np.array([[0.0], [1.0]])] * 3
    D = [Zonotope([0.1, -0.0], [[0.1, 0.0], [0.0, -0.2]])] * 3
    X = [Zonotope([0.0, 0.0], 2.0 * np.eye(2))] * 4
    U = [Zonotope([0.0], [[1.0]])] * 3
    x0 = Zonotope([0.5, -0.0], [[0.2], [-0.1]])
    for template in ("growing", "fixed"):
        lp, _ = finite_viable_lp(A, B, D, X, U, 2, template=template, x0=x0)
        assert_same_lp(lp, oracles.finite_viable_lp_rowwise(A, B, D, X, U, 2,
                                                            template=template, x0=x0))


# ---------------------------------------------------------------------------
# golden digests: the emitters and their references above can change
# together, so the LPs handed to HiGHS are also pinned by a digest


def lp_digest(lps):
    """sha256 over each program's ``_assemble()`` arrays and row senses."""
    h = hashlib.sha256()
    for lp in lps:
        for a in lp._assemble():
            h.update(a.tobytes())
        h.update(lp._senses().tobytes())
    return h.hexdigest()


def programs_digest(network):
    return lp_digest(p.lp for p in build_programs(network, default_template(network)).values())


def test_case1_programs_match_golden_digest():
    assert programs_digest(load_network("configs/case1.json")) == \
        "33efa58c3458afaae9ddf3230a6fcf07f69d76a7d3576d3799a08feb50580e02"


def test_geometric_programs_match_golden_digest():
    assert programs_digest(sysmodel.random_network(10, lambda_for(20), seed=0)) == \
        "654b6e63f6871f10c04ddbba084697644e55c46ed8216c694bc4e73b3f556b45"


def test_case1_centralized_lp_matches_golden_digest(monkeypatch):
    solved = []
    solve = LinearProgram.solve
    monkeypatch.setattr(LinearProgram, "solve",
                        lambda lp, *a, **kw: solved.append(lp) or solve(lp, *a, **kw))
    centralized_synthesize(load_network("configs/case1.json"))
    assert lp_digest(lp for lp in solved if lp.name == "centralized") == \
        "97272aa18b49e7380bb2137005b834cb581922682c6ca7241ab3da7d5efc06b2"
