"""The four benchmark workloads, with every knob spelled out.

Each workload names one network, one synthesis driver call and one
Monte-Carlo verification call, all through zonosynth's public API.  Every
parameter is passed explicitly, so a later change of a library default
cannot silently change what a workload measures.  ``--seed`` varies the
Monte-Carlo samples and ``DescentConfig.seed``.

The random geometric networks are fixed at network seed 0: a workload must
not fail, and on some seeds the compositional method does fail (seeds 25, 33
and 41 at dimension 400 return "failed"; see README.md, "Known facts").
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

# Imported by name at call time, so the untraced run and the traced run
# resolve the same module attributes (the tracer rebinds them in place).
from zonosynth import contracts, runtime, synthesis, sysmodel
from zonosynth.cli import lambda_for


@dataclass(frozen=True)
class Workload:
    name: str
    network: tuple              # ("config", path) | ("random", subsystems, dim, seed)
    method: str                 # "compositional" | "centralized" | "centralized-dense"
    knobs: dict                 # keyword arguments of the synthesis driver
    mc_samples: int
    mc_steps: int | None        # None: the full finite horizon


# DescentConfig() at this commit, spelled out field by field.
DESCENT_DEFAULTS = dict(delta=1.0, max_iters=500, tol_v=1e-6, k=None,
                        reduction_order=1, line_search=True, init="half",
                        threads=None)

# Why each workload exists: perfbench/README.md, "Workloads".
WORKLOADS = {
    w.name: w for w in (
        # warm re-solves and extraction retries; criterion-1 Monte Carlo
        Workload("case1-comp", ("config", "configs/case1.json"),
                 "compositional", DESCENT_DEFAULTS, 10_000, 1000),
        # one big cold block LP; Monte Carlo re-witnesses every step by LP
        Workload("case2-cent", ("config", "configs/case2.json"),
                 "centralized", dict(k=None, reduction_order=None), 50, None),
        # many subsystems: per-subsystem LP builds and certification
        Workload("geo400-comp", ("random", 200, 400, 0),
                 "compositional", DESCENT_DEFAULTS, 500, 50),
        # the dense baseline, the only workload that reaches viability.rci
        Workload("geo40-dense", ("random", 20, 40, 0),
                 "centralized-dense", dict(k=None, beta=0.0), 500, 50),
    )
}


def load_network(work, root):
    """The workload's network: a shipped config, or a seeded random one."""
    if work.network[0] == "config":
        return sysmodel.load_network(os.path.join(root, work.network[1]))
    _, count, dim, seed = work.network
    return sysmodel.random_network(count, lambda_for(dim), seed=seed)


def synthesize(work, network, seed):
    """One synthesis driver call, up to its returned SynthesisResult."""
    if work.method == "compositional":
        cfg = synthesis.DescentConfig(seed=seed, **work.knobs)
        return synthesis.compositional_synthesize(network, template=None,
                                                  mode=network.mode,
                                                  config=cfg)
    if work.method == "centralized":
        return synthesis.centralized_synthesize(network, template=None,
                                                mode=network.mode,
                                                **work.knobs)
    return synthesis.centralized_dense(network, mode=network.mode,
                                       **work.knobs)


def checked_network(work, network):
    """The network that Monte Carlo and re-certification run on.

    The dense baseline has one aggregate solution; it is checked on the
    aggregate network, a single subsystem with the couplings folded in.
    """
    if work.method != "centralized-dense":
        return network
    agg = sysmodel.aggregate(network)
    sub = sysmodel.Subsystem("aggregate", agg.A, agg.B, agg.X, agg.U, agg.D)
    return sysmodel.Network(network.mode, network.horizon, [sub]).validate()


def verify(work, checked, result, seed, steps=None):
    """One Monte-Carlo invariance check at the workload's fixed size
    (``steps`` overrides the number of steps, for the warm-up)."""
    return runtime.verify_invariance(checked, result.solutions,
                                     num_samples=work.mc_samples,
                                     num_steps=steps or work.mc_steps,
                                     seed=seed)


def recertify(work, checked, result):
    """Independent re-certification by contracts.check_correctness.

    Dense results carry no promises; they are checked against the
    admissible sets themselves (the outermost promise, alpha = 1).
    """
    if work.method == "centralized-dense":
        template = contracts.default_template(checked)
        params = contracts.alpha_max(checked, template)
    else:
        template, params = result.template, result.params
    return contracts.check_correctness(checked, template, params,
                                       result.solutions)


def fingerprint(result):
    """Digest of a result's status, parameters and solutions.

    check_correctness is a pure function of these, so results with equal
    digests need one re-certification between them.
    """
    blob = {
        "status": result.status,
        "params": result.params.to_json() if result.params else None,
        "solutions": {str(sid): sol.to_json()
                      for sid, sol in (result.solutions or {}).items()},
    }
    text = json.dumps(blob, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
