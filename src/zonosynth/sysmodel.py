"""Coupled-network data model and JSON I/O.

A network is a list of subsystems with discrete-time dynamics

    x_i(t+1) = A_ii(t) x_i(t) + B_ii(t) u_i(t)
             + sum_j [ A_ij(t) x_j(t) + B_ij(t) u_j(t) ] + d_i(t)

where the sums run over the coupling entries of subsystem i (keyed by the
*source* neighbor j), and x_i, u_i, d_i range over the zonotopic sets X_i(t),
U_i(t), D_i(t).

Time handling: every matrix/set field is stored as a tuple over time.  In
``infinite`` mode all tuples have length 1.  In ``finite`` mode with horizon
``h`` the loader expands constant fields so that A, B, U, D have length h and
X has length h+1 (states are constrained at t = 0..h, inputs/disturbances act
at t = 0..h-1).

JSON schema (see ``load_network``): matrices are row-major nested lists, a
field is either one matrix/set (constant) or a list of them (per time step);
zonotopes are ``{"center": [...], "generators": [[...]]}``; couplings are
``{"to": j, "A": ..., "B": ...}`` where ``to`` names the neighbor whose state
(and optionally input) enters this subsystem's dynamics.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geom import Zonotope, stack


class ConfigError(Exception):
    """Malformed network/config data (maps to CLI exit code 2)."""


def _is_sequence_of_matrices(value):
    # matrix: list of list of numbers; sequence: list of matrices
    return (isinstance(value, list) and value
            and isinstance(value[0], list) and value[0]
            and isinstance(value[0][0], list))


def _parse_matrix_field(value, where):
    try:
        if _is_sequence_of_matrices(value):
            return tuple(np.asarray(m, dtype=float) for m in value)
        return (np.asarray(value, dtype=float),)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad matrix data ({exc})") from exc


def _parse_set_field(value, where):
    try:
        if isinstance(value, dict):
            return (Zonotope.from_json(value),)
        if isinstance(value, list):
            return tuple(Zonotope.from_json(z) for z in value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad zonotope data ({exc})") from exc
    raise ConfigError(f"{where}: expected a zonotope or list of zonotopes")


def _expand(seq, length, where):
    if len(seq) == 1:
        return tuple(seq) * length
    if len(seq) != length:
        raise ConfigError(f"{where}: expected 1 or {length} entries, got {len(seq)}")
    return tuple(seq)


def _at(seq, t):
    return seq[0] if len(seq) == 1 else seq[t]


@dataclass
class Coupling:
    """Effect of neighbor j on a subsystem: A (n_i x n_j), optional B (n_i x m_j)."""

    A: tuple
    B: tuple | None = None

    def A_at(self, t):
        return _at(self.A, t)

    def B_at(self, t):
        return None if self.B is None else _at(self.B, t)


@dataclass
class Subsystem:
    """One node of the network.  Treated as immutable after construction."""

    sid: object
    A: tuple
    B: tuple
    X: tuple
    U: tuple
    D: tuple
    couplings: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.A[0].shape[0]

    @property
    def m(self):
        return self.B[0].shape[1]

    def A_at(self, t):
        return _at(self.A, t)

    def B_at(self, t):
        return _at(self.B, t)

    def X_at(self, t):
        return _at(self.X, t)

    def U_at(self, t):
        return _at(self.U, t)

    def D_at(self, t):
        return _at(self.D, t)

    def neighbor_ids(self):
        return sorted(self.couplings, key=_id_key)


def _id_key(sid):
    # numeric ids sort numerically, string ids lexicographically after them
    return (1, sid) if isinstance(sid, str) else (0, sid)


@dataclass
class Network:
    mode: str
    horizon: int | None
    subsystems: list

    def __post_init__(self):
        if not self.subsystems:
            raise ConfigError("config needs a non-empty subsystems list")
        self._index = {s.sid: s for s in self.subsystems}
        if len(self._index) != len(self.subsystems):
            raise ConfigError("duplicate subsystem ids")

    def subsystem(self, sid):
        try:
            return self._index[sid]
        except KeyError:
            raise ConfigError(f"unknown subsystem id {sid!r}") from None

    def sorted_ids(self):
        return sorted(self._index, key=_id_key)

    @property
    def num_steps(self):
        """Number of dynamics steps (length of the input/disturbance sequences)."""
        return 1 if self.mode == "infinite" else self.horizon

    def has_outgoing_input_coupling(self, sid):
        """True if some other subsystem's dynamics reads this subsystem's input."""
        return sid in self._read_inputs

    @functools.cached_property
    def _read_inputs(self):
        """Ids whose input some other subsystem's dynamics reads, found in
        one pass over the couplings."""
        return {j for other in self.subsystems for j, coupling in other.couplings.items()
                if j != other.sid and coupling.B is not None
                and any(np.any(B) for B in coupling.B)}

    def validate(self):
        if self.mode not in ("finite", "infinite"):
            raise ConfigError(f"mode must be finite|infinite, got {self.mode!r}")
        if self.mode == "finite":
            if not isinstance(self.horizon, int) or self.horizon < 1:
                raise ConfigError("finite mode needs an integer horizon >= 1")
        steps = self.num_steps
        for sub in self.subsystems:
            w = f"subsystem {sub.sid!r}"
            n, m = sub.n, sub.m
            for nm, seq, length in (("A", sub.A, steps), ("B", sub.B, steps),
                                    ("U", sub.U, steps), ("D", sub.D, steps),
                                    ("X", sub.X, steps + 1 if self.mode == "finite" else 1)):
                if self.mode == "infinite" and len(seq) != 1:
                    raise ConfigError(f"{w}: {nm} must be constant in infinite mode")
                if self.mode == "finite" and len(seq) not in (1, length):
                    raise ConfigError(f"{w}: {nm} has {len(seq)} entries, expected {length}")
            for t, M in enumerate(sub.A):
                if M.shape != (n, n):
                    raise ConfigError(f"{w}: A[{t}] shape {M.shape} != ({n},{n})")
            for t, M in enumerate(sub.B):
                if M.ndim != 2 or M.shape[0] != n:
                    raise ConfigError(f"{w}: B[{t}] shape {M.shape} incompatible with n={n}")
            for nm, seq, dim in (("X", sub.X, n), ("U", sub.U, m), ("D", sub.D, n)):
                for t, Z in enumerate(seq):
                    if Z.dim != dim:
                        raise ConfigError(f"{w}: {nm}[{t}] dim {Z.dim} != {dim}")
            for j, coupling in sub.couplings.items():
                if j == sub.sid:
                    raise ConfigError(f"{w}: self-coupling not allowed")
                other = self.subsystem(j)
                for t, M in enumerate(coupling.A):
                    if M.shape != (n, other.n):
                        raise ConfigError(
                            f"{w}: coupling A from {j!r} shape {M.shape} != ({n},{other.n})")
                if coupling.B is not None:
                    for t, M in enumerate(coupling.B):
                        if M.shape != (n, other.m):
                            raise ConfigError(
                                f"{w}: coupling B from {j!r} shape {M.shape} != ({n},{other.m})")
        return self


# ---------------------------------------------------------------------------
# JSON I/O


def load_network(source):
    """Load a Network from a dict, a JSON string, or a path to a JSON file."""
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        try:
            data = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {source}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {source}: {exc}") from exc
    elif isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    mode = data.get("mode", "infinite")
    horizon = data.get("horizon")
    if mode == "finite" and horizon is None:
        raise ConfigError("finite mode requires a horizon")
    if mode == "finite" and (not isinstance(horizon, int) or horizon < 1):
        raise ConfigError("finite mode needs an integer horizon >= 1")
    subs_data = data.get("subsystems")
    if not isinstance(subs_data, list) or not subs_data:
        raise ConfigError("config needs a non-empty subsystems list")
    steps = horizon if mode == "finite" else 1

    subsystems = []
    for entry in subs_data:
        if not isinstance(entry, dict):
            raise ConfigError(f"subsystem entries must be objects, got {entry!r}")
        if "id" not in entry:
            raise ConfigError("every subsystem needs an id")
        sid = entry["id"]
        w = f"subsystem {sid!r}"
        for key in ("A", "B", "X", "U", "D"):
            if key not in entry:
                raise ConfigError(f"{w}: missing field {key!r}")
        A = _parse_matrix_field(entry["A"], f"{w}.A")
        B = _parse_matrix_field(entry["B"], f"{w}.B")
        X = _parse_set_field(entry["X"], f"{w}.X")
        U = _parse_set_field(entry["U"], f"{w}.U")
        D = _parse_set_field(entry["D"], f"{w}.D")
        B = tuple(M.reshape(M.shape[0], -1) if M.ndim == 1 else M for M in B)
        if mode == "finite":
            A = _expand(A, steps, f"{w}.A")
            B = _expand(B, steps, f"{w}.B")
            U = _expand(U, steps, f"{w}.U")
            D = _expand(D, steps, f"{w}.D")
            X = _expand(X, steps + 1, f"{w}.X")
        couplings = {}
        couplings_data = entry.get("couplings", [])
        if not isinstance(couplings_data, list):
            raise ConfigError(f"{w}: couplings must be a list")
        for c in couplings_data:
            if not isinstance(c, dict):
                raise ConfigError(f"{w}: coupling entries must be objects, got {c!r}")
            if "to" not in c or "A" not in c:
                raise ConfigError(f"{w}: coupling entries need 'to' and 'A'")
            j = c["to"]
            if j in couplings:
                raise ConfigError(f"{w}: duplicate coupling to {j!r}")
            cA = _parse_matrix_field(c["A"], f"{w}.coupling[{j!r}].A")
            cB = None
            if c.get("B") is not None:
                cB = _parse_matrix_field(c["B"], f"{w}.coupling[{j!r}].B")
                cB = tuple(M.reshape(M.shape[0], -1) if M.ndim == 1 else M for M in cB)
            if mode == "finite":
                cA = _expand(cA, steps, f"{w}.coupling[{j!r}].A")
                if cB is not None:
                    cB = _expand(cB, steps, f"{w}.coupling[{j!r}].B")
            couplings[j] = Coupling(cA, cB)
        subsystems.append(Subsystem(sid, A, B, X, U, D, couplings))
    return Network(mode, horizon, subsystems).validate()


def _dump_matrix_seq(seq):
    if len(seq) == 1:
        return seq[0].tolist()
    return [M.tolist() for M in seq]


def _dump_set_seq(seq):
    if len(seq) == 1:
        return seq[0].to_json()
    return [Z.to_json() for Z in seq]


def network_to_dict(network):
    out = {"mode": network.mode, "subsystems": []}
    if network.horizon is not None:
        out["horizon"] = network.horizon
    for sub in network.subsystems:
        entry = {
            "id": sub.sid,
            "A": _dump_matrix_seq(sub.A),
            "B": _dump_matrix_seq(sub.B),
            "X": _dump_set_seq(sub.X),
            "U": _dump_set_seq(sub.U),
            "D": _dump_set_seq(sub.D),
        }
        couplings = []
        for j in sub.neighbor_ids():
            c = sub.couplings[j]
            item = {"to": j, "A": _dump_matrix_seq(c.A)}
            if c.B is not None:
                item["B"] = _dump_matrix_seq(c.B)
            couplings.append(item)
        if couplings:
            entry["couplings"] = couplings
        out["subsystems"].append(entry)
    return out


def save_network(network, path):
    Path(path).write_text(json.dumps(network_to_dict(network), indent=1))


# ---------------------------------------------------------------------------
# random geometric networks


DEFAULT_GEOMETRIC = {
    "A_ii": [[1.0, 1.2], [0.0, 1.0]],
    "B_ii": [[0.0], [0.2]],
    "X": {"center": [0.0, 0.0], "generators": [[10.0, 0.0, 10.0], [0.0, 10.0, -10.0]]},
    "U": {"center": [0.0], "generators": [[10.0]]},
    "D": {"center": [0.0, 0.0], "generators": [[0.2, 0.0], [0.0, 0.2]]},
}


def network_from_points(points, lam, radius=10.0, template=None):
    """Random-geometric-family network over given planar points.

    Subsystems i and j are neighbors iff their Euclidean distance is strictly
    below ``radius``; each neighbor contributes the state coupling
    A_ij = lam / (1 + dist(i, j)) * ones(2, 2).  Dynamics/sets default to the
    double-integrator family in ``DEFAULT_GEOMETRIC``.
    """
    points = np.asarray(points, dtype=float)
    tpl = dict(DEFAULT_GEOMETRIC)
    if template:
        tpl.update(template)
    A_ii = np.asarray(tpl["A_ii"], dtype=float)
    B_ii = np.asarray(tpl["B_ii"], dtype=float)
    X = Zonotope.from_json(tpl["X"])
    U = Zonotope.from_json(tpl["U"])
    D = Zonotope.from_json(tpl["D"])
    # squared distances, a row at a time, pick a superset of the neighbours;
    # the per-pair norm then decides, as it rounds differently in the last ulp
    limit = radius * radius * (1.0 + 1e-9) + np.finfo(float).tiny
    subsystems = []
    for i in range(len(points)):
        d = points - points[i]
        couplings = {}
        for j in np.flatnonzero((d * d).sum(1) <= limit).tolist():
            if i == j:
                continue
            dist = float(np.linalg.norm(points[i] - points[j]))
            if dist < radius:
                A_ij = lam / (1.0 + dist) * np.ones((2, 2))
                couplings[j] = Coupling((A_ij,))
        subsystems.append(Subsystem(i, (A_ii,), (B_ii,), (X,), (U,), (D,), couplings))
    return Network("infinite", None, subsystems).validate()


def random_network(num_subsystems, lam, seed=0, field_size=100.0, radius=10.0,
                   template=None):
    """Scatter points uniformly in a square field and build the network."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, field_size, size=(num_subsystems, 2))
    return network_from_points(points, lam, radius=radius, template=template)


# ---------------------------------------------------------------------------
# aggregation (for the dense centralized baseline)


def stacked_slices(network):
    """Each subsystem's slice of the stacked state and of the stacked input
    vector of the whole network, in sorted-id order: (state, input) dicts."""
    state_slices, input_slices = {}, {}
    r = c = 0
    for sid in network.sorted_ids():
        s = network.subsystem(sid)
        state_slices[sid] = slice(r, r + s.n)
        input_slices[sid] = slice(c, c + s.m)
        r += s.n
        c += s.m
    return state_slices, input_slices


def aggregate_dynamics(network, t, slices=None):
    """A(t) and B(t) of the whole network on the ``stacked_slices`` layout:
    each subsystem's own blocks with its couplings folded in."""
    state_slices, input_slices = slices or stacked_slices(network)
    n_total = max((sl.stop for sl in state_slices.values()), default=0)
    m_total = max((sl.stop for sl in input_slices.values()), default=0)
    A = np.zeros((n_total, n_total))
    B = np.zeros((n_total, m_total))
    for sid, rs in state_slices.items():
        s = network.subsystem(sid)
        A[rs, rs] = s.A_at(t)
        B[rs, input_slices[sid]] = s.B_at(t)
        for j, coupling in s.couplings.items():
            A[rs, state_slices[j]] += coupling.A_at(t)
            if coupling.B is not None:
                B[rs, input_slices[j]] += coupling.B_at(t)
    return A, B


def aggregate(network):
    """The whole network as one subsystem, "aggregate", on the ``stacked_slices``
    layout: the couplings folded into A/B, the sets stacked."""
    subs = [network.subsystem(sid) for sid in network.sorted_ids()]
    slices = stacked_slices(network)
    steps = network.num_steps
    A_seq, B_seq, X_seq, U_seq, D_seq = [], [], [], [], []
    for t in range(steps):
        A, B = aggregate_dynamics(network, t, slices)
        A_seq.append(A)
        B_seq.append(B)
        U_seq.append(stack([s.U_at(t) for s in subs]))
        D_seq.append(stack([s.D_at(t) for s in subs]))
    for t in range(steps + 1 if network.mode == "finite" else 1):
        X_seq.append(stack([s.X_at(t) for s in subs]))
    return Subsystem("aggregate", *map(tuple, (A_seq, B_seq, X_seq, U_seq, D_seq)))
