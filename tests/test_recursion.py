"""The block tube-recursion emitter against the row-at-a-time references.

Every program that emits recursion rows (``contracts.emit_subsystem``,
``contracts.build_programs`` and ``viability.viable_lp``) must build the
same LP as its reference in ``oracles``: the same row senses in the same
order, the same CSC arrays, costs and bounds, bit for bit (signed zeros
included).  ``build_programs`` emits whole groups of subsystems at once;
its reference builds one subsystem at a time.  ``viable_lp`` builds both
the finite-horizon and the invariant tube LP; each has its own reference.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_contracts import pinned_reference
from zonosynth import geom, sysmodel, viability
from zonosynth.cli import lambda_for
from zonosynth.contracts import _at, _signature, build_programs, default_template, emit_subsystem
from zonosynth.geom import Zonotope
from zonosynth.lpcore import LinearProgram, _LpBatch
from zonosynth.synthesis import centralized_dense, centralized_synthesize
from zonosynth.sysmodel import load_network
from zonosynth.viability import viable_lp

# entries drawn for random matrices: zeros of both signs exercise sparsity
# and the signed-zero bounds
VALUES = np.array([0.0, -0.0, 0.0, 1.0, -0.5, 0.3, 2.0, -1.25])


def assert_same_lp(got, want, idle_rows=True):
    """``got`` and ``want`` are one program, bit for bit; without
    ``idle_rows``, once the rows with no entry and bound 0 are left out."""
    assert got.name == want.name and got.options == want.options
    for a, b in zip(model(got, idle_rows), model(want, idle_rows)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def model(lp, idle_rows=True):
    """The senses and the ``_assemble()`` arrays of ``lp``; without
    ``idle_rows``, less the rows with no entry and bound 0, which read 0 = 0
    or 0 <= 0, the later rows moved up."""
    senses, (start, index, value, cost, lb, ub, lo, hi) = lp._senses(), lp._assemble()
    if not idle_rows:
        idle = np.isin(lo, [0.0, -np.inf]) & np.isin(hi, [0.0, np.inf])
        idle[index] = False
        index = (np.cumsum(~idle) - 1)[index].astype(index.dtype)
        senses, lo, hi = senses[~idle], lo[~idle], hi[~idle]
    return senses, start, index, value, cost, lb, ub, lo, hi


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
    # a group's members share one row pattern, so a member keeps the rows
    # that read 0 = 0 in it but not in a sibling, which alone it leaves out
    template = default_template(network)
    programs = build_programs(network, template, **kwargs)
    assert list(programs) == network.sorted_ids()
    for sid, program in programs.items():
        assert_same_lp(program.lp, oracles.potential_lp_rowwise(network, template, sid,
                                                                **kwargs), idle_rows=False)


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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([None, 1, 2]))
def test_pinned_groups_match_a_per_member_rank(seed, order):
    # one stacked rank per group, against one rank per member
    network = mixed_network(np.random.default_rng(seed), finite=False)
    programs = build_programs(network, default_template(network), reduction_order=order)
    for sid, program in programs.items():
        sub = network.subsystem(sid)
        assert program.pinned is pinned_reference(sub.A_at(0), sub.B_at(0), program.k,
                                                  program.handles.W[0][1].shape[-1])


def test_invariant_rows_whose_terms_cancel_drop_out():
    # subsystem 3 has A = [[2, 2], [0, 1]], no neighbours and no W columns:
    # its rows (A - I) T = 0 and its center row 1 read 0 = 0 once their
    # terms are summed
    network = mixed_network(np.random.default_rng(158), finite=False)
    for slack in (True, False):
        lp = emitted(network, 3, False, slack=slack)
        assert [a.tobytes() for a in model(lp)] == [a.tobytes() for a in model(lp, False)]
        assert lp.num_rows == (38 if slack else 12)
        assert_same_lp(lp, emitted(network, 3, True, slack=slack))


def test_a_closed_recursion_row_drops_only_where_it_cancels_in_every_member():
    # x(t+1) = a x(t) + 0, no input and no disturbance columns: with a = 1
    # both invariant rows read 0 = 0.  In a group a row stays where it reads
    # anything in one member
    for diag, rows in (([1.0, 1.0], 0), ([1.0, 2.0], 2)):
        batch = _LpBatch(["a", "b"])
        T, xbar = batch.var_block((1, 1)), batch.var_block(1)
        W = (np.zeros((2, 1)), np.zeros((2, 1, 0)),
             (np.zeros((2, 0), dtype=np.int64),) * 3 + (np.zeros((2, 0)),))
        viability.add_recursion(batch, np.reshape(diag, (2, 1, 1)), np.zeros((2, 1, 0)), T,
                                None, xbar, None, W, T, xbar)
        assert [lp.num_rows for lp in batch.programs()] == [rows, rows]


# ---------------------------------------------------------------------------
# viable_lp: the invariant and the finite-horizon tube


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([0.0, 0.3]),
       n=st.integers(1, 3), m=st.integers(0, 2), p=st.integers(0, 3),
       k=st.integers(1, 4))
def test_rci_lp_matches_rowwise_reference(seed, beta, n, m, p, k):
    rng = np.random.default_rng(seed)
    A, B, W, X, U = (matrix(rng, n, n), matrix(rng, n, m), zono(rng, n, p),
                     zono(rng, n, n), zono(rng, m, m))
    lp, _ = viable_lp([A], [B], [W], [X], [U], k, beta=beta)
    assert_same_lp(lp, oracles.rci_lp_rowwise(A, B, W, X, U, k, beta=beta))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), m=st.integers(0, 2),
       h=st.integers(1, 3))
def test_finite_viable_lp_matches_rowwise_reference(seed, n, m, h):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    args = ([matrix(rng, n, n) for _ in range(h)], [matrix(rng, n, m) for _ in range(h)],
            [zono(rng, n, int(rng.integers(0, k + 1))) for _ in range(h)],
            [zono(rng, n, n) for _ in range(h + 1)], [zono(rng, m, m) for _ in range(h)], k)
    lp, _ = viable_lp(*args)
    assert_same_lp(lp, oracles.finite_viable_lp_rowwise(*args))


def test_fixed_shapes_match_rowwise_reference():
    # the 1-D integrator and contraction of test_viability, and a 2-D
    # double integrator
    one = np.array([[1.0]])
    W = Zonotope([0.0], [[0.3]])
    box = Zonotope([0.0], [[1.0]])
    for beta, B in ((0.0, one), (0.5, np.zeros((1, 0)))):
        A = 0.5 * one if beta else one
        lp, _ = viable_lp([A], [B], [W], [box], [box], 2, beta=beta)
        assert_same_lp(lp, oracles.rci_lp_rowwise(A, B, W, box, box, 2, beta=beta))
    A = [np.array([[1.0, 1.0], [0.0, 1.0]])] * 3
    B = [np.array([[0.0], [1.0]])] * 3
    D = [Zonotope([0.1, -0.0], [[0.1, 0.0], [0.0, -0.2]])] * 3
    X = [Zonotope([0.0, 0.0], 2.0 * np.eye(2))] * 4
    U = [Zonotope([0.0], [[1.0]])] * 3
    lp, _ = viable_lp(A, B, D, X, U, 2)
    assert_same_lp(lp, oracles.finite_viable_lp_rowwise(A, B, D, X, U, 2))


def test_forcing_reads_a_cancelled_diagonal():
    # with no disturbance columns the invariant rows read (A - I) T + B M =
    # 0: A = 1 cancels T, so each row pins its M entry alone
    one = np.array([[1.0]])
    box = Zonotope([0.0], [[1.0]])
    W = Zonotope([0.0], np.zeros((1, 0)))
    T_zero, M_zero = viability._forced_zeros([one], [one], [W], [2], 0.0)
    assert not T_zero[0].any() and M_zero[0].all()
    lp, _ = viable_lp([one], [one], [W], [box], [box], 2)
    assert_same_lp(lp, oracles.rci_lp_rowwise(one, one, W, box, box, 2))


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
        "ed47eefd8dfa6c8a3424f86202fc2f02fe1ea5755f00869838c5df23833ed418"


@pytest.mark.parametrize("config, beta, digest", [
    ("configs/case1.json", 0.0,
     "f065827bca1eb9da443367ffc9e6c895ba14e1ea371800b6d7408efb3feb4bf6"),
    ("configs/case1.json", 0.3,
     "9ded5a5c8ddabbb26d92244ae5b3c1ecb24752cf05c8650103fa59d0f607a62c"),
    ("geo40", 0.0,
     "937b30c61e121f9aeddb42928c641d647a8c4bd131b1c821f2ec9ea358dbe01d"),
    ("configs/case2.json", 0.0,
     "dc07ebe4351241b818e21153ca5725b36bd4b4448105877619b7ef113e3532b6"),
], ids=["case1", "case1-beta", "geo40", "case2"])
def test_dense_lp_matches_golden_digest(monkeypatch, config, beta, digest):
    assert dense_lp_digest(monkeypatch, config, beta) == digest


@pytest.mark.parametrize("config, beta, digest", [
    ("configs/case1.json", 0.0,
     "2727051850828e42db7082875a88c947e085258364a4c5d3ade36ed706d97466"),
    ("configs/case1.json", 0.3,
     "bd39601528fb0d7036a02e40de1b7163686a12a21d386c945539a7262e2153d9"),
    ("geo40", 0.0, "81bb24d8f31d58fd81616bb954c3d44f1fc7d1eca097b954caee0509f644ba8f"),
    ("configs/case2.json", 0.0,
     "44623ba8f1a8dc672f27b31ca1031ee32ac3344576f1a32ea3016915e5f704dc"),
], ids=["case1", "case1-beta", "geo40", "case2"])
def test_dense_lp_without_pinned_witnesses(monkeypatch, config, beta, digest):
    # with the block rule pinning no witness entry, the dense LP is bit for
    # bit the one built before pinned witnesses left it: these are its digests
    monkeypatch.setattr(geom, "_pinned_witness", oracles.pin_no_witness)
    assert dense_lp_digest(monkeypatch, config, beta) == digest


def dense_lp_digest(monkeypatch, config, beta):
    # the LP is caught on its way to the solver and not solved
    built = []
    monkeypatch.setattr(viability, "solve_and_read", lambda lp, *a: built.append(lp))
    network = (sysmodel.random_network(20, lambda_for(40), seed=0) if config == "geo40"
               else load_network(config))
    centralized_dense(network, beta=beta)
    return lp_digest(built)


@pytest.mark.parametrize("config, beta, digest", [
    ("configs/case1.json", 0.0,
     "2e1fef2f90d8e69ba46c3954e5cc741ab83c83c78fc72c75cf164f500aef156e"),
    ("configs/case1.json", 0.3,
     "a92975c8ef24e5dee46cfa9684a0e4e241a6f4da460005c5ec9f91e4ef848a13"),
    ("geo40", 0.0, "bab4390f3d193ea45479bff96528492092e450d8aef782b70de44b4f8e2b5364"),
    ("configs/case2.json", 0.0,
     "6e53835d4f021ab9b2e0a6bab4478df23e658533283dc4a986ba56eebce75a82"),
], ids=["case1", "case1-beta", "geo40", "case2"])
def test_unpinned_dense_lp_is_the_full_lp(monkeypatch, config, beta, digest):
    # with neither zero forcing nor the block rule pinning anything, the
    # dense LP is bit for bit the one built before forced zeros left it:
    # these are that LP's digests
    monkeypatch.setattr(viability, "_forced_zeros", oracles.force_nothing)
    monkeypatch.setattr(geom, "_pinned_witness", oracles.pin_no_witness)
    assert dense_lp_digest(monkeypatch, config, beta) == digest
