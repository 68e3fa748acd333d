"""The three benchmark workloads: seeded input generation, one pass over
the inputs, and the checks of the program's outputs.

Inputs are plain data drawn from the seed (`make_inputs`), so the same
seed gives the same instance set and the same `instance_hash`.  A pass
(`run`) calls `entlink` only through module attributes, which is where
the tracer hooks in.  Every check is counted; an instance that raises
counts all of its checks as failed and the pass goes on.
"""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np

LP_RTOL = 1e-9          # LP value vs re-evaluated decision
QSTATE_TOL = 1e-10      # channel vs closed-form fidelity
Z_MAX = 5.0             # Monte Carlo vs exact, in standard errors
SELFTEST_CRITERIA = 9   # PASS rows `entlink --selftest` prints


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def close(self, name, value, reference, rtol):
        err = abs(value - reference) / max(abs(reference), 1e-300)
        self.check(name, err <= rtol, f"{value!r} vs {reference!r} (rel {err:.3g})")

    def z(self, name, mean, se, exact):
        if se > 0:
            z = (mean - exact) / se
            self.check(name, abs(z) <= Z_MAX, f"mean {mean!r} vs {exact!r}, z={z:.2f}")
        else:
            self.check(name, abs(mean - exact) <= 1e-12, f"{mean!r} vs {exact!r}, se=0")

    @contextmanager
    def instance(self, name, n_checks):
        """Run one instance; if it raises, its unfinished checks fail."""
        start = self.attempted
        try:
            yield
        except Exception as exc:  # a failed instance counts, it does not abort
            missing = max(n_checks - (self.attempted - start), 1)
            self.attempted += missing
            self.failed += missing
            self.failures.append(f"{name}: raised {exc!r}")


def instance_hash(obj) -> str:
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, dict):
            h.update(b"{")
            for k in sorted(o):
                feed(k)
                feed(o[k])
            h.update(b"}")
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        elif isinstance(o, np.ndarray):
            h.update(f"nd{o.dtype.str}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, float):
            h.update(b"f" + float.hex(o).encode())
        elif isinstance(o, (bool, int, str)):
            h.update(f"{type(o).__name__}:{o!r};".encode())
        else:
            raise TypeError(f"instance_hash: unsupported {type(o).__name__}")

    feed(obj)
    return h.hexdigest()


def _rng(seed, workload_id):
    return np.random.default_rng([seed, workload_id])


def _decay_f(m_star, t_coh):
    """f over states (-1, 0..m_star): exponential decay with the age."""
    return np.concatenate([[0.0], np.exp(-np.arange(m_star + 1) / t_coh)])


# ---------------------------------------------------------------------------
# policy-lp: occupation-measure LPs for the two-link policies on a ladder of
# storage bounds m*; lp.solve is nearly all of the time.

POLICY_LP_RUNGS = (4, 6, 8)
POLICY_LP_RUNGS_TINY = (2, 3)
LADDER_RUNG = 12


def _policy_instance(rng, m):
    p1, p2 = (float(v) for v in rng.uniform(0.1, 0.9, 2))
    return {"m": m, "p1": p1, "p2": p2, "q": float(rng.uniform(0.3, 1.0)),
            "gamma": float(rng.uniform(0.005, 0.05))}


def policy_lp_inputs(seed, tiny=False):
    rng = _rng(seed, 1)
    rungs = [_policy_instance(rng, m)
             for m in (POLICY_LP_RUNGS_TINY if tiny else POLICY_LP_RUNGS)]
    return {"rungs": rungs, "ladder": _policy_instance(rng, LADDER_RUNG)}


def _two_link_physics_model(entlink, inst):
    qstate, twolink = entlink.qstate, entlink.twolink
    phi = qstate.bell(2)
    sigma0 = qstate.DensityOperator(np.outer(phi, phi.conj()), (2, 2))
    ad = qstate.amplitude_damping(inst["gamma"])
    # both qubits of a stored pair sit in damped memories
    memory = qstate.KrausChannel([np.kron(a, b) for a in ad.kraus for b in ad.kraus])
    m = inst["m"]
    f = twolink.two_link_f_from_physics(sigma0, memory, sigma0, memory, phi, m, m)
    return twolink.TwoLinkModel(inst["p1"], inst["p2"], inst["q"], m, m, f)


def policy_lp_run(entlink, inputs, checks, label, ladder=False):
    twolink = entlink.twolink
    for inst in inputs["rungs"]:
        name = f"m{inst['m']}"
        with label(name), checks.instance(f"policy-lp {name}", 2):
            model = _two_link_physics_model(entlink, inst)
            wait, d_wait = twolink.lp_optimal_waiting_time(model)
            checks.close(f"{name} waiting LP vs evaluate_policy", wait,
                         twolink.evaluate_policy(model, d_wait)[0], LP_RTOL)
            value, d_value = twolink.lp_optimal_value(model)
            checks.close(f"{name} fidelity LP vs evaluate_policy", value,
                         twolink.evaluate_policy(model, d_value)[1], LP_RTOL)
    if ladder:
        inst = inputs["ladder"]
        name = f"m{inst['m']}"
        with label(name), checks.instance(f"policy-lp {name}", 1):
            model = twolink.TwoLinkModel(inst["p1"], inst["p2"], inst["q"], inst["m"],
                                         inst["m"], twolink.uniform_f_table(inst["m"], inst["m"]))
            wait, d_wait = twolink.lp_optimal_waiting_time(model)
            checks.close(f"{name} waiting LP vs evaluate_policy", wait,
                         twolink.evaluate_policy(model, d_wait)[0], LP_RTOL)


# ---------------------------------------------------------------------------
# oracle-crosscheck: Monte Carlo against exact absorbing-chain and evolution
# values, and brute-force Kraus channels against closed-form fidelities.  No
# LPs.  The two-link p and q are fixed so the Monte Carlo work (trajectory
# steps) does not swing with the seed; the seed draws the figure of merit,
# the single-link instance, the random qubit pairs and the sample streams.

MC_TWO_LINK_RUNGS = (5, 10)
MC_TWO_LINK_P, MC_TWO_LINK_Q = 0.5, 0.5
MC_TRIALS = 100_000
MC_TWO_LINK_HORIZON = 10_000
MC_ELEM_M, MC_ELEM_T = 10, 200
QSTATE_NODES = (3, 4)   # joint input dimension 2**(2n+2): 256 and 1024


def random_pair(rng):
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def oracle_inputs(seed, tiny=False):
    rng = _rng(seed, 2)
    rungs = (2, 3) if tiny else MC_TWO_LINK_RUNGS
    trials = 5_000 if tiny else MC_TRIALS
    two_link = [{"m": m, "t_coh": float(rng.uniform(5.0, 50.0)),
                 "stream": int(rng.integers(2**31))} for m in rungs]
    elem_m, elem_t = (3, 20) if tiny else (MC_ELEM_M, MC_ELEM_T)
    elem = {"m": elem_m, "horizon": elem_t, "p": float(rng.uniform(0.1, 0.9)),
            "t_star": int(rng.integers(1, elem_m + 1)),
            "t_coh": float(rng.uniform(5.0, 50.0)), "stream": int(rng.integers(2**31))}
    nodes = (1, 2) if tiny else QSTATE_NODES
    pairs = [{"n": n, "rhos": [random_pair(rng) for _ in range(n + 1)]} for n in nodes]
    return {"trials": trials, "two_link": two_link, "elem": elem, "qstate": pairs}


def oracle_run(entlink, inputs, checks, label, ladder=False):
    mc, twolink, elemlink, qstate = entlink.mc, entlink.twolink, entlink.elemlink, entlink.qstate
    trials = inputs["trials"]
    for inst in inputs["two_link"]:
        m = inst["m"]
        name = f"mc two-link m{m}"
        with label(f"m{m}"), checks.instance(name, 3):
            f = np.zeros((2, m + 2, m + 2))
            ages = np.arange(m + 1)
            f[1, 1:, 1:] = np.exp(-(ages[:, None] + ages[None, :]) / inst["t_coh"])
            model = twolink.TwoLinkModel(MC_TWO_LINK_P, MC_TWO_LINK_P, MC_TWO_LINK_Q, m, m, f)
            d = twolink.cutoff_decision(model, m, m)
            wait, f_abs = twolink.evaluate_policy(model, d)
            res = mc.simulate_two_link(model, d, mc.SimConfig(
                seed=inst["stream"], trials=trials, horizon=MC_TWO_LINK_HORIZON))
            w, fs = res["wait_samples"], res["f_samples"]
            checks.check(f"{name} exhausted", res["exhausted"] == 0,
                         f"{res['exhausted']} trajectories hit the horizon")
            checks.z(f"{name} waiting", w.mean(), w.std(ddof=1) / math.sqrt(w.size), wait)
            checks.z(f"{name} f at absorption", fs.mean(),
                     fs.std(ddof=1) / math.sqrt(fs.size), f_abs)

    inst = inputs["elem"]
    times = (2, inst["horizon"] // 2, inst["horizon"])
    name = f"mc elem m{inst['m']}"
    with label(f"m{inst['m']}"), checks.instance(name, 2 * len(times)):
        model = elemlink.ElemLinkModel(inst["p"], inst["m"], _decay_f(inst["m"], inst["t_coh"]))
        policy = entlink.Policy.stationary(elemlink.cutoff_decision(model, inst["t_star"]))
        res = mc.simulate_elem(model, policy, mc.SimConfig(
            seed=inst["stream"], trials=trials, horizon=inst["horizon"]))
        for t in times:
            ftilde, x, _ = elemlink.ftilde_x_f(model, policy, t)
            checks.z(f"{name} ftilde t={t}", res["ftilde"][t - 1], res["ftilde_se"][t - 1], ftilde)
            checks.z(f"{name} x t={t}", res["x"][t - 1], res["x_se"][t - 1], x)

    for inst in inputs["qstate"]:
        n, rhos = inst["n"], inst["rhos"]
        name = f"qstate n={n}"
        with label(f"d{4 ** (n + 1)}"), checks.instance(name, 2):
            joint = qstate.DensityOperator(qstate.tensor(*rhos), (2,) * (2 * n + 2))
            links = [qstate.DensityOperator(r, (2, 2)) for r in rhos]
            out = qstate.swap_chain_channel(joint, n, 2)
            formula = qstate.swap_fidelity([qstate.bell_overlap_table(r, 2) for r in links])
            direct = qstate.fidelity_to_pure(out, qstate.bell(2))
            checks.check(f"{name} swap channel vs swap_fidelity",
                         abs(direct - formula) <= QSTATE_TOL, f"{direct!r} vs {formula!r}")
            out_g = qstate.ghz_swap_channel(joint, n)
            z_tables = [[qstate.fidelity_to_pure(r, qstate.bell(2, z, 0)) for z in (0, 1)]
                        for r in links]
            formula_g = qstate.ghz_swap_fidelity(z_tables)
            direct_g = qstate.fidelity_to_pure(out_g, qstate.ghz(n + 2))
            checks.check(f"{name} GHZ channel vs ghz_swap_fidelity",
                         abs(direct_g - formula_g) <= QSTATE_TOL, f"{direct_g!r} vs {formula_g!r}")


# ---------------------------------------------------------------------------
# cli-selftest: what a user runs -- the acceptance selftest and every CLI
# example of README.md, through entlink.cli.main in this process.  Many small
# instances of every layer, so fixed per-call costs dominate.  The examples
# are copied here so that editing README.md does not change the workload.

README_EXAMPLES = (
    "elem steady --p 0.5 --m-star 2 --f 1,0.9,0.8",
    "elem optimal --p 0.4 --m-star 3 --f 1,0.95,0.85,0.7",
    "elem backward --p 0.3 --m-star 2 --f 1,0.9,0.8 --t 4",
    "elem forward --p 0.6 --m-star 3 --t-coh 100",
    "twolink lp-waiting --p1 0.5 --p2 0.5 --q 0.5 --m1-star 2 --m2-star 2",
    "twolink lp-fidelity --p1 0.5 --p2 0.5 --q 0.5 --m1-star 2 --m2-star 2 --t-coh 12",
    "twolink analytic --p 0.5 --q 0.5 --t-star 0",
    "twolink evaluate --p1 0.5 --p2 0.5 --q 0.5 --m1-star 2 --m2-star 2 --t1-star 2 --t2-star 2",
    "satlink link --d 2000 --h 500 --fs 0.99 --nbar1 1e-4 --nbar2 1e-4",
    "satlink sweep --d-min 100 --d-max 2000 --steps 40 --fs 0.99",
    "satlink keyrates --d 500 --fs 0.99 --M 50",
    "waiting collective --M 4 --p 0.3 --t-req 2 --q 0.5",
    "--seed 42 simulate elem --p 0.5 --m-star 2 --f 1,0.9,0.8 --t-star 2",
    "--seed 42 simulate twolink --p1 0.5 --p2 0.5 --q 0.5 "
    "--m1-star 2 --m2-star 2 --t1-star 2 --t2-star 2",
    "--seed 42 simulate collective --M 2 --p 0.5",
)


def cli_inputs(seed, tiny=False):
    commands = [["--selftest", "--seed", str(seed)]]
    for line in README_EXAMPLES:
        argv = line.split()
        if tiny and "simulate" in argv:
            argv += ["--trials", "2000"]
        commands.append(argv)
    return {"commands": commands}


def cli_run(entlink, inputs, checks, label, ladder=False):
    cli = entlink.cli
    for argv in inputs["commands"]:
        name = "entlink " + " ".join(argv)
        with checks.instance(name, 1):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            if "--selftest" in argv:
                passes = err.getvalue().count("[PASS]")
                checks.check(name, code == 0 and passes == SELFTEST_CRITERIA,
                             f"exit {code}, {passes} PASS rows: {err.getvalue()[-500:]}")
            else:
                checks.check(name, code == 0 and out.getvalue().strip() != "",
                             f"exit {code}, stderr {err.getvalue()[-300:]!r}")


WORKLOADS = {
    "policy-lp": (policy_lp_inputs, policy_lp_run),
    "oracle-crosscheck": (oracle_inputs, oracle_run),
    "cli-selftest": (cli_inputs, cli_run),
}
